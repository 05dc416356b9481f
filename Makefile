# Developer entry points for the study toolkit.
#
# `make test` is the tier-1 suite, and every gate this project keeps is
# a tier-1 test: the traced-run telemetry contract (test_obs_study), the
# served-run identity and --serve-linger path (test_obs_serve_identity),
# warm-store replay and invalidation cones (test_pipeline_graph,
# test_pipeline_study) and the sqlite workload (test_workloads).  The
# one gate too slow for tier-1 is marked `gate`, deselected by default
# and run by `make scale-smoke`.  `make bench` gates the perf benchmarks
# behind tier-1: if tier-1 fails, the benchmarks never run, so a broken
# tree can never overwrite BENCH_study.json with numbers measured
# against bad code.

PYTHON ?= python
JOBS ?= 1
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test scale-smoke bench-selftest bench bench-mine bench-parallel bench-scale bench-check study clean

test:
	$(PYTHON) -m pytest -x -q

# bounded-memory gate (tests/test_streaming_pipeline.py::
# TestBoundedMemoryGate): a 2000-project study under a 512 MiB memory
# cap, driver peak RSS below the cap, the backpressure window bounded,
# the aggregate spill used, and a byte-identical warm rerun
scale-smoke:
	$(PYTHON) -m pytest -m gate

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
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
