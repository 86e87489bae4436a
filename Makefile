.PHONY: all build test test-verbose qcheck-soak determinism corpus corpus-ifc examples clean loc

all: build test

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

# Seed rotation: N (default 20) forced test runs, each under a fresh
# QCHECK_SEED; stops at the first failure and prints its seed and the
# command that replays it. CI keeps its pinned seed.
N ?= 20
qcheck-soak:
	@mkdir -p _build; for i in $$(seq 1 $(N)); do \
	  seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	  echo "qcheck-soak $$i/$(N): QCHECK_SEED=$$seed"; \
	  if ! QCHECK_SEED=$$seed dune runtest --force > _build/qcheck-soak.log 2>&1; then \
	    grep -F -A 12 '[FAIL]' _build/qcheck-soak.log | head -n 40; \
	    echo "qcheck-soak: FAILED at QCHECK_SEED=$$seed (replay: QCHECK_SEED=$$seed dune runtest --force)"; \
	    exit 1; \
	  fi; \
	done; \
	echo "qcheck-soak: $(N) seeds passed"

# Every experiment's determinism claims, derived from the experiment
# table (Experiments.Registry): its deterministic printer replayed and
# diffed across its shard counts, the committed golden, and the lines
# that must or must not appear. CI and test_cli run the same command.
#   make determinism               # all 18 experiments
#   make determinism TARGET=scale  # one (or several, space-separated)
determinism:
	dune exec bin/repro.exe -- check $(TARGET)

# Regenerate the committed corrupt-checkpoint corpus (test/corpus/) —
# deterministic byte surgery, so the tree is reproducible.
corpus:
	dune exec tools/gen_corpus.exe -- test/corpus

# Regenerate the committed IFC program corpus (test/corpus-ifc/) —
# deterministic generator output rendered to concrete syntax, so the
# tree is reproducible bit-for-bit.
corpus-ifc:
	dune exec tools/gen_ifc_corpus.exe -- test/corpus-ifc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/nf_isolation.exe
	dune exec examples/secure_store.exe
	dune exec examples/firewall_checkpoint.exe
	dune exec examples/session_rpc.exe

clean:
	dune clean

loc:
	@find lib test bin examples -name '*.ml' -o -name '*.mli' | xargs wc -l | tail -1
