.PHONY: all build test test-verbose bench bench-quick bench-json bench-gate bench-history \
	ckpt-incr ckpt-incr-golden stats scale scale-determinism storm storm-determinism \
	flowcache flowcache-golden flowcache-determinism fusion fusion-golden \
	fusion-determinism recover recover-golden recover-determinism soa soa-golden \
	soa-determinism reverify reverify-golden reverify-determinism determinism \
	corpus corpus-ifc examples doc clean loc

all: build test

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

# Wall-clock trajectory: Bechamel microbenchmarks + pipeline Mpps,
# serialized to BENCH_netstack.json at the repo root, plus a dated
# line appended to BENCH_history.jsonl (the cross-commit trajectory).
bench-json:
	dune exec bench/main.exe -- --json

# Regression gate: fresh wall-clock numbers vs the committed baseline,
# +-30% tolerance per row (CI runs the same two steps).
bench-gate:
	cp BENCH_netstack.json /tmp/bench-baseline.json
	dune exec bench/main.exe -- --quick --json
	dune exec bench/gate.exe -- /tmp/bench-baseline.json BENCH_netstack.json 1.3

# Validate and print the cross-commit wall-clock trajectory: every
# line of BENCH_history.jsonl must be a JSON object carrying date +
# results; any malformed line fails the target.
bench-history:
	@python3 tools/bench_history_check.py BENCH_history.jsonl
	@echo "bench history: OK"

# E16: incremental dirty-tracking checkpoints (full table with
# wall-clock columns; the deterministic columns are golden-diffed).
ckpt-incr:
	dune exec bin/repro.exe -- ckpt-incr

ckpt-incr-golden:
	dune exec bin/repro.exe -- ckpt-incr --stats-only > /tmp/ckpt-incr-now.txt
	diff test/golden/ckpt_incr_stats.txt /tmp/ckpt-incr-now.txt
	@echo "ckpt-incr golden: OK"

stats:
	dune exec bin/repro.exe -- stats fig2 recovery rollback

scale:
	dune exec bin/repro.exe -- scale

# The tentpole invariant: the merged telemetry table must be
# byte-identical however many domains the queues are spread over —
# in direct mode and with per-queue SFI isolation armed — and the
# one-shard table must equal the committed golden (the cycle-model
# guard: the hot path may get faster, virtual cycles must not move).
scale-determinism:
	dune exec bin/repro.exe -- scale --shards 1 --stats-only > /tmp/scale-1.txt
	dune exec bin/repro.exe -- scale --shards 2 --stats-only > /tmp/scale-2.txt
	dune exec bin/repro.exe -- scale --shards 4 --stats-only > /tmp/scale-4.txt
	diff /tmp/scale-1.txt /tmp/scale-2.txt
	diff /tmp/scale-1.txt /tmp/scale-4.txt
	diff test/golden/scale_stats.txt /tmp/scale-1.txt
	@for n in 1 2 4; do \
	  dune exec bin/repro.exe -- scale --shards $$n --mode isolated --stats-only \
	    > /tmp/scale-iso-$$n.txt || exit 1; \
	done
	diff /tmp/scale-iso-1.txt /tmp/scale-iso-2.txt
	diff /tmp/scale-iso-1.txt /tmp/scale-iso-4.txt
	@echo "scale determinism: OK (1/2/4 shards byte-identical, direct + isolated, golden OK)"

storm:
	dune exec bin/repro.exe -- storm

# E15's determinism claims, mirrored by CI: for every restart policy the
# storm's counters + telemetry must (a) replay byte-identically and
# (b) not change when the queues are spread over 1, 2 or 4 domains.
storm-determinism:
	@for p in restart backoff breaker degrade; do \
	  echo "== $$p: replay =="; \
	  dune exec bin/repro.exe -- storm --policy $$p --stats-only > /tmp/storm-$$p-a.txt; \
	  dune exec bin/repro.exe -- storm --policy $$p --stats-only > /tmp/storm-$$p-b.txt; \
	  diff /tmp/storm-$$p-a.txt /tmp/storm-$$p-b.txt || exit 1; \
	  echo "== $$p: shards =="; \
	  for n in 2 4; do \
	    dune exec bin/repro.exe -- storm --policy $$p --shards $$n --stats-only > /tmp/storm-$$p-$$n.txt; \
	    diff /tmp/storm-$$p-a.txt /tmp/storm-$$p-$$n.txt || exit 1; \
	  done; \
	done
	@echo "storm determinism: OK (two runs and 1/2/4 shards byte-identical, all policies)"

# E17: the megaflow flow-cache fast path (full run, with the
# wall-clock hit-rate-vs-Mpps table appended).
flowcache:
	dune exec bin/repro.exe -- flowcache

# The deterministic block (cached + uncached counters, merged
# telemetry, ledger-match line) against its committed golden.
flowcache-golden:
	dune exec bin/repro.exe -- flowcache --stats-only > /tmp/flowcache-now.txt
	diff test/golden/flowcache_stats.txt /tmp/flowcache-now.txt
	@echo "flowcache golden: OK"

# E17's determinism claims, mirrored by CI: the cached fast path must
# not perturb a single virtual counter when queues are spread over
# 1, 2 or 4 domains, and the cached/uncached ledgers must agree.
flowcache-determinism:
	dune exec bin/repro.exe -- flowcache --shards 1 --stats-only > /tmp/flowcache-1.txt
	dune exec bin/repro.exe -- flowcache --shards 2 --stats-only > /tmp/flowcache-2.txt
	dune exec bin/repro.exe -- flowcache --shards 4 --stats-only > /tmp/flowcache-4.txt
	diff /tmp/flowcache-1.txt /tmp/flowcache-2.txt
	diff /tmp/flowcache-1.txt /tmp/flowcache-4.txt
	grep -q "flowcache ledger match (cached vs uncached): true" /tmp/flowcache-1.txt
	diff test/golden/flowcache_stats.txt /tmp/flowcache-1.txt
	@echo "flowcache determinism: OK (1/2/4 shards byte-identical, ledgers match, golden OK)"

# E18: the kernel-fusion ablation (full run, with the wall-clock
# fused/unfused race appended).
fusion:
	dune exec bin/repro.exe -- fusion

# The deterministic sections (fused-vs-unfused cycle identity, crossing
# counts, sharded ledger) against the golden.
fusion-golden:
	dune exec bin/repro.exe -- fusion --stats-only > /tmp/fusion-now.txt
	diff test/golden/fusion_stats.txt /tmp/fusion-now.txt
	@echo "fusion golden: OK"

# E18's determinism claims, mirrored by CI: fused pipelines must not
# perturb a single virtual counter when the queues are spread over
# 1, 2 or 4 domains, and every printed identity line must hold.
fusion-determinism:
	dune exec bin/repro.exe -- fusion --shards 1 --stats-only > /tmp/fusion-1.txt
	dune exec bin/repro.exe -- fusion --shards 2 --stats-only > /tmp/fusion-2.txt
	dune exec bin/repro.exe -- fusion --shards 4 --stats-only > /tmp/fusion-4.txt
	diff /tmp/fusion-1.txt /tmp/fusion-2.txt
	diff /tmp/fusion-1.txt /tmp/fusion-4.txt
	@! grep -E "identical=false|identical .*=false" /tmp/fusion-1.txt
	diff test/golden/fusion_stats.txt /tmp/fusion-1.txt
	@echo "fusion determinism: OK (1/2/4 shards byte-identical, identities hold, golden OK)"

# E19: durable checkpoints + deterministic crash-restart recovery (full
# run: counters, corpus rejections, and the wall-clock recovery-vs-
# rebuild race over a million-flow table).
recover:
	dune exec bin/repro.exe -- recover

# The deterministic sections (run counters, per-queue recovery
# outcomes, recovery telemetry, corpus rejections) against the golden.
recover-golden:
	dune exec bin/repro.exe -- recover --stats-only > /tmp/recover-now.txt
	diff test/golden/recover_stats.txt /tmp/recover-now.txt
	@echo "recover golden: OK"

# E19's determinism claims, mirrored by CI: crash-restart recovery must
# replay byte-identically, must not change when the queues are spread
# over 1, 2 or 4 domains, and every committed corrupt checkpoint must
# be rejected the same way — all golden-diffed.
recover-determinism:
	dune exec bin/repro.exe -- recover --stats-only > /tmp/recover-a.txt
	dune exec bin/repro.exe -- recover --stats-only > /tmp/recover-b.txt
	diff /tmp/recover-a.txt /tmp/recover-b.txt
	dune exec bin/repro.exe -- recover --shards 2 --stats-only > /tmp/recover-2.txt
	dune exec bin/repro.exe -- recover --shards 4 --stats-only > /tmp/recover-4.txt
	diff /tmp/recover-a.txt /tmp/recover-2.txt
	diff /tmp/recover-a.txt /tmp/recover-4.txt
	diff test/golden/recover_stats.txt /tmp/recover-a.txt
	@echo "recover determinism: OK (two runs and 1/2/4 shards byte-identical, golden OK)"

# E20: the structure-of-arrays header-plane ablation (full run, with
# the wall-clock 2x2 table and its >= 1.2 Mpps gate appended).
soa:
	dune exec bin/repro.exe -- soa

# The deterministic sections (bytes-vs-soa cycle/output/telemetry
# identity, deferred-writeback frames audit, sharded ledger) against
# the golden.
soa-golden:
	dune exec bin/repro.exe -- soa --stats-only > /tmp/soa-now.txt
	diff test/golden/soa_stats.txt /tmp/soa-now.txt
	@echo "soa golden: OK"

# E20's determinism claims, mirrored by CI: the column plane must not
# perturb a single virtual counter when the queues are spread over
# 1, 2 or 4 domains, and every printed identity line must hold.
soa-determinism:
	dune exec bin/repro.exe -- soa --shards 1 --stats-only > /tmp/soa-1.txt
	dune exec bin/repro.exe -- soa --shards 2 --stats-only > /tmp/soa-2.txt
	dune exec bin/repro.exe -- soa --shards 4 --stats-only > /tmp/soa-4.txt
	diff /tmp/soa-1.txt /tmp/soa-2.txt
	diff /tmp/soa-1.txt /tmp/soa-4.txt
	@! grep -E "identical=false|identical .*=false" /tmp/soa-1.txt
	diff test/golden/soa_stats.txt /tmp/soa-1.txt
	@echo "soa determinism: OK (1/2/4 shards byte-identical, identities hold, golden OK)"

# E21: incremental summary-cached IFC reverification (full run, with
# the wall-clock warm-vs-cold race appended).
reverify:
	dune exec bin/repro.exe -- reverify

# The deterministic sections (corpus shape, per-round hit/recompute
# counts, speedups, verdicts, telemetry) against the golden.
reverify-golden:
	dune exec bin/repro.exe -- reverify --stats-only > /tmp/reverify-now.txt
	diff test/golden/reverify_stats.txt /tmp/reverify-now.txt
	@echo "reverify golden: OK"

# E21's determinism claims, mirrored by CI: the edit/reverify ledger
# must replay byte-identically (there is no sharding axis here — the
# cache is a single handle by design), every round must match the
# from-scratch verifier, and the golden must hold.
reverify-determinism:
	dune exec bin/repro.exe -- reverify --stats-only > /tmp/reverify-a.txt
	dune exec bin/repro.exe -- reverify --stats-only > /tmp/reverify-b.txt
	diff /tmp/reverify-a.txt /tmp/reverify-b.txt
	@! grep -E "cold-equal *no|\[MISS\]" /tmp/reverify-a.txt
	diff test/golden/reverify_stats.txt /tmp/reverify-a.txt
	@echo "reverify determinism: OK (two runs byte-identical, cold-equivalent, golden OK)"

# One entry point for every determinism gate, so CI can be a matrix
# over TARGET instead of four copy-pasted jobs:
#   make determinism TARGET=scale|storm|flowcache|fusion|recover|soa|reverify
determinism:
ifndef TARGET
	$(error determinism requires TARGET=scale|storm|flowcache|fusion|recover|soa|reverify)
endif
	$(MAKE) $(TARGET)-determinism

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
