.PHONY: all build test test-verbose bench stats determinism corpus corpus-ifc examples clean loc

all: build test

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

# Advisory wall-clock printout: the Bechamel microbenchmarks
# (host-dependent, no gate; layerbench/ is the measured benchmark).
bench:
	dune exec bench/wallclock.exe

stats:
	dune exec bin/repro.exe -- stats fig2 recovery rollback

# Every experiment's determinism claims, derived from the experiment
# table (Experiments.Registry): each cell replayed and diffed across
# its shard counts, the committed golden, and the lines that must or
# must not appear. CI runs the same command.
#   make determinism               # every experiment with such a surface
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
	@find lib test bench bin examples -name '*.ml' -o -name '*.mli' | xargs wc -l | tail -1
