PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench bench-ab bench-test verify-plans bench-smoke trace-smoke bench-engine bench-batch crashtest bench-txn sanitize batch-differential serve-smoke bench-server bench-server-reads bench-server-full

test:
	$(PYTHON) -m pytest -x -q

# Style + typing gates. Both tools are optional at dev time: skip with
# a notice when they aren't installed (the repo has no runtime deps).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/repro/core/analysis src/repro/obs \
			tests/analysis tests/obs; \
	else echo "ruff not installed; skipping style check"; fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/core/analysis src/repro/core/engine \
			src/repro/obs src/repro/excess/pipeline.py; \
	else echo "mypy not installed; skipping type check"; fi

# The repo's one benchmark (BENCHMARK.json): four workloads, every
# end-to-end and per-layer metric by name; see bench/README.md.
bench:
	python3 bench/run.py

# A/B before opening a PR: BASE (any git revision) against the working
# tree on one workload, REPEAT report runs each, judged by
# bench/compare.py, whose exit status (non-zero on any `worse`) is this
# target's.  BASE is exported whole with `git archive` into a temporary
# directory, which leaves no worktree bookkeeping behind if the run is
# interrupted.  Both reports land in bench/out/ab-{base,head}.json.
BASE ?= HEAD
WORKLOAD ?= wire_hot
REPEAT ?= 3
bench-ab:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir -p "$$tmp/base" bench/out && \
	git archive "$(BASE)" | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && python3 bench/run.py --workload $(WORKLOAD) \
		--repeat $(REPEAT) --out "$(CURDIR)/bench/out/ab-base.json") && \
	python3 bench/run.py --workload $(WORKLOAD) --repeat $(REPEAT) \
		--out bench/out/ab-head.json && \
	python3 bench/compare.py bench/out/ab-base.json bench/out/ab-head.json

# The benchmark's own tests (estimators, input determinism, the answer
# checker, BENCHMARK.json agreement, a --smoke run).
bench-test:
	$(PYTHON) -m pytest bench/tests -q

# Offline rewrite-soundness sweep: fire all 28 appendix rules on the
# generated corpus and require every firing to preserve schemas.
verify-plans:
	$(PYTHON) -m repro.core.analysis.rulecheck

# Abstract-interpretation sanitizer gate: the paper figures plus 240
# seeded random plans, each run interpreted / compiled / licensed /
# sanitized; any value mismatch or runtime-violated proof fails.  The
# type checker every `checks` level runs, the update-statement
# differential (delta plans at every `checks` level) and the shell's
# `.sanitize` toggle are tested alongside.
sanitize:
	$(PYTHON) -m repro.cli sanitize
	$(PYTHON) -m pytest tests/analysis/test_sanitizer.py tests/analysis/test_absint.py tests/analysis/test_inference.py tests/excess/test_update_pipeline.py -q
	$(PYTHON) -m pytest tests/integration/test_cli.py -k sanitize -q

# Batch differential gate: the 240-plan classic corpus plus the
# 60-plan batch-stressing corpus, each plan run interpreted /
# compiled / batched; any divergence or sanitizer violation fails.
# Cached session replays are checked against fresh prepares, and
# update scripts against the interpreter, on all three engines
# alongside.
batch-differential:
	$(PYTHON) -m repro.cli sanitize --batched
	$(PYTHON) -m pytest tests/engine/test_batch_engine.py tests/excess/test_plan_cache.py tests/excess/test_update_pipeline.py -q

# Tier-2 sanity gate: one tiny run per paper figure (<30 s), asserting
# the paper-claimed winner directions and engine agreement.
bench-smoke:
	$(PYTHON) -m repro.cli bench --smoke

# Observability gate: the example queries with tracing on must yield
# non-empty span trees and EXPLAIN ANALYZE output, the metrics
# registry must round-trip through the Prometheus parser, and a
# disabled tracer must stay within 5% of an untraced run.
trace-smoke:
	$(PYTHON) -m repro.workloads.trace_smoke

# Full engine comparison (interpreted / compiled / batched); writes
# BENCH_engine.json and asserts the compiled>=2x-over-interpreted and
# batched>=2x-over-compiled floors.
bench-engine:
	$(PYTHON) -m pytest benchmarks/bench_engine_compare.py -q

# The batched series against the compiled baseline (interpreted
# deselected), asserting the batched>=2x floor; the aggregation test
# still cross-checks all three engines' values and rewrites
# BENCH_engine.json.
bench-batch:
	$(PYTHON) -m pytest benchmarks/bench_engine_compare.py -q \
		-k "not interpreted"

# Durability gate: deterministic fault injection over the WAL —
# crash-at-every-record-boundary, torn tails, partial fsyncs — with
# recovery required to restore exactly the committed prefix.
crashtest:
	$(PYTHON) -m repro.storage.faults

# Commit throughput + recovery-vs-log-length; writes BENCH_txn.json.
bench-txn:
	$(PYTHON) benchmarks/bench_txn.py

# Network-server gate: a hosted end-to-end script covering concurrent
# reads, transaction isolation, admission rejection, query timeout,
# group commit, and a checkpointing shutdown that reopens whole.
serve-smoke:
	$(PYTHON) -m repro.server.smoke

# Server throughput smoke: multi-client write QPS must beat
# single-client (group commit + pipelining), reduced sweep.
bench-server:
	$(PYTHON) benchmarks/bench_server.py --smoke

# Server read-path smoke: selective lookups with snapshot index
# probes must beat the same workload with access paths off.
bench-server-reads:
	$(PYTHON) benchmarks/bench_server.py --reads-smoke

# Full sweep (1/4/16/64 clients + 64-vs-1 differential); writes
# BENCH_server.json.
bench-server-full:
	$(PYTHON) benchmarks/bench_server.py
