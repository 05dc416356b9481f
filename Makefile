# Developer entry points for the study toolkit.
#
# `make bench` gates the perf benchmarks behind the tier-1 suite: if
# tier-1 fails, the benchmarks never run, so a broken tree can never
# overwrite BENCH_study.json with numbers measured against bad code.
# `make test` is itself gated on `trace-smoke` — a small traced study
# whose JSONL events are validated line-by-line against the event
# schema and whose manifest must round-trip through json.loads — and on
# `pipeline-smoke`, which proves a warm artifact-store rerun replays the
# cold run byte-for-byte.  Both contracts hold before the suite starts.

PYTHON ?= python
JOBS ?= 1
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test trace-smoke pipeline-smoke sqlite-smoke serve-smoke scale-smoke bench-selftest bench bench-mine bench-parallel bench-scale bench-check study clean

test: trace-smoke pipeline-smoke sqlite-smoke serve-smoke
	$(PYTHON) -m pytest -x -q

# small traced study + event-schema validation + manifest round-trip
trace-smoke:
	$(PYTHON) -m repro.obs.smoke

# live-telemetry endpoint gate: a --serve 0 study probed over HTTP
# (/healthz, /metrics against the Prometheus grammar, /status, /runs,
# first-N SSE envelopes + ring replay) and proven byte-identical to an
# unserved run, with a clean port release on shutdown
serve-smoke:
	$(PYTHON) -m repro.obs.serve_smoke

# cold -> warm artifact-store replay: byte-identical reports (serial and
# jobs=4), every clean stage served from the store, invalidation cones,
# and the incremental scenario — mutating one project against the warm
# store recomputes exactly its map shards plus the reduce tail
pipeline-smoke:
	$(PYTHON) -m repro.pipeline.smoke

# workload gate: a --dialect sqlite micro-study runs the full DAG cold
# and replays byte-identical warm (serial and jobs=4), keys disjoint
# from the canonical study in the same store, with explain attributing
# the workload switch to params.dialect
sqlite-smoke:
	$(PYTHON) -m repro.pipeline.sqlite_smoke

# bounded-memory gate: a 2000-project study under --limit-memory 512
# (driver peak RSS asserted from the manifest-visible timings, the
# backpressure window proven bounded, the aggregate spill proven used)
# plus a byte-identical warm rerun; dial with
# REPRO_SCALE_SMOKE_PROJECTS / REPRO_SCALE_SMOKE_LIMIT_MB
scale-smoke:
	$(PYTHON) -m repro.pipeline.scale_smoke

# the end-to-end benchmark's own self-tests (python -m bench; 12-project
# corpora, ~25 s): a refactor that moves a call site the per-layer trace
# binds to (bench/tracing.py) fails here instead of at benchmark time
bench-selftest:
	$(PYTHON) -m pytest bench/tests -q

# perf benchmarks (pytest-benchmark harness + BENCH_study.json writer);
# the `test` prerequisite is the overwrite guard.
bench: test
	$(PYTHON) -m pytest benchmarks/test_perf_pipeline.py benchmarks/test_perf_study.py -q -p no:cacheprovider

# mine-only microbenchmark (cold + warm serial mine over the canonical
# corpus, BENCH_mine.json writer); compare against the committed
# pre-incremental-engine record with
#   make bench-check BASELINE=BENCH_mine_baseline.json CANDIDATE=BENCH_mine.json STAGE=mine
bench-mine: test
	$(PYTHON) -m pytest benchmarks/test_perf_mine.py -q -p no:cacheprovider

# same, but through the parallel study driver
bench-parallel: test
	REPRO_STUDY_JOBS=4 $(PYTHON) -m pytest benchmarks/test_perf_pipeline.py benchmarks/test_perf_study.py -q -p no:cacheprovider

# bounded-memory scaling benchmark (capped cold studies over growing
# corpora, BENCH_scale.json writer); compare records with
#   make bench-check BASELINE=BENCH_scale.json CANDIDATE=<fresh record>
bench-scale: test
	$(PYTHON) -m pytest benchmarks/test_perf_scale.py -q -p no:cacheprovider

# perf-regression watchdog: self-comparison of the committed benchmark
# record must always pass (override CANDIDATE with a fresh manifest or
# BENCH payload to compare a real change)
BASELINE ?= BENCH_study.json
CANDIDATE ?= BENCH_study.json
STAGE ?=
bench-check:
	$(PYTHON) -m repro bench-check $(BASELINE) $(CANDIDATE) $(if $(STAGE),--stage $(STAGE))

study:
	$(PYTHON) -m repro study --jobs $(JOBS) --profile

clean:
	rm -rf benchmarks/output .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
