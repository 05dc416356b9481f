"""Unit + CLI tests for the perf-regression watchdog (`repro.obs.regress`).

The comparator is pure data-in/data-out over two run-registry records,
so every scenario is a small dict fixture: self-comparisons must pass,
synthetically slowed candidates must fail, sub-noise stages must be
skipped, and cross-machine or cross-corpus records must be refused.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.manifest import MANIFEST_FORMAT
from repro.obs.registry import REGISTRY_FORMAT, as_record
from repro.obs.regress import (
    MAX_REGRESSION,
    VERDICT_FORMAT,
    compare_records,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

ENV = {"hostname": "box-a", "platform": "Linux-6.1-x86_64", "cpu_count": 8}


def _manifest(*, stages=None, env=ENV, projects=12, jobs=2,
              warning_count=0, hit_rate=0.5, store_hit_rate=None,
              store=None):
    manifest = {
        "format": MANIFEST_FORMAT,
        "command": "study",
        "projects": projects,
        "jobs": jobs,
        "warning_count": warning_count,
        "environment": dict(env) if env else None,
        "timings": {
            "jobs": jobs,
            "stages": dict(stages or {
                "generate": 1.0, "mine": 4.0, "analyze": 0.5, "total": 6.0,
            }),
            "parse_cache": {"hit_rate": hit_rate, "hits": 50, "misses": 50},
        },
    }
    if store is not None:
        manifest["timings"]["artifact_store"] = dict(store)
    elif store_hit_rate is not None:
        manifest["timings"]["artifact_store"] = {
            "hit_rate": store_hit_rate, "hits": 3, "recomputes": 0,
            "stages": {},
        }
    return manifest


#: An artifact-store block from a run that never looked up a key — an
#: empty corpus, or a code path that resolved nothing.  Its 0.0 rate is
#: vacuous, not "everything recomputed".
ZERO_LOOKUP_STORE = {"hit_rate": 0.0, "hits": 0, "recomputes": 0,
                     "stages": {}}


def _bench(*, stages=None, projects=195, jobs=1):
    return {
        "format": REGISTRY_FORMAT,
        "command": "bench:study",
        "projects": projects,
        "jobs": jobs,
        "stages": dict(stages or {"generate": 2.0, "mine": 8.0,
                                  "total": 11.0}),
        "parse_cache": {"hit_rate": 0.4},
    }


def _slowed(data, factor):
    slow = json.loads(json.dumps(data))
    block = slow["timings"]["stages"]
    for stage in block:
        block[stage] *= factor
    return slow


class TestCompareSamples:
    """compare_records over two records (manifests read through as_record)."""

    def _cmp(self, baseline, candidate, **kwargs):
        return compare_records(
            as_record(baseline, "baseline"),
            as_record(candidate, "candidate"),
            **kwargs,
        )

    def test_self_comparison_passes(self):
        report = self._cmp(_manifest(), _manifest())
        assert not report.failed
        assert report.verdict == "pass"
        by_name = {c.name: c for c in report.checks}
        assert by_name["environment"].status == "pass"
        assert by_name["stage:mine"].status == "pass"
        assert by_name["stage:mine"].ratio == 0.0

    def test_slowed_candidate_fails(self):
        report = self._cmp(_manifest(), _slowed(_manifest(), 2.0))
        assert report.failed
        failing = [c.name for c in report.checks if c.status == "fail"]
        assert "stage:mine" in failing
        mine = next(c for c in report.checks if c.name == "stage:mine")
        assert mine.ratio == pytest.approx(1.0)
        assert mine.threshold == MAX_REGRESSION

    def test_within_threshold_passes(self):
        assert not self._cmp(_manifest(), _slowed(_manifest(), 1.2)).failed

    def test_noise_floor_skips_tiny_stages(self):
        baseline = _manifest(stages={"figures": 0.001, "mine": 4.0})
        candidate = _manifest(stages={"figures": 0.04, "mine": 4.0})
        report = self._cmp(baseline, candidate)
        figures = next(c for c in report.checks if c.name == "stage:figures")
        assert figures.status == "skip"  # 40x slower, but all noise
        assert not report.failed

    def test_stage_missing_from_one_side_is_skipped(self):
        baseline = _manifest(stages={"mine": 4.0, "figures": 1.0})
        candidate = _manifest(stages={"mine": 4.0, "render": 1.0})
        report = self._cmp(baseline, candidate)
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["stage:figures"] == "skip"
        assert statuses["stage:render"] == "skip"
        assert not report.failed

    def test_environment_mismatch_refuses(self):
        other = dict(ENV, hostname="box-b")
        report = self._cmp(_manifest(), _manifest(env=other))
        env = next(c for c in report.checks if c.name == "environment")
        assert env.status == "fail"
        assert "apples-to-oranges" in env.message
        assert "--allow-env-mismatch" in env.message
        assert report.failed

    def test_environment_mismatch_allowed_warns(self):
        other = dict(ENV, cpu_count=4)
        report = self._cmp(_manifest(), _manifest(env=other),
                           allow_env_mismatch=True)
        env = next(c for c in report.checks if c.name == "environment")
        assert env.status == "warn"
        assert not report.failed

    def test_missing_environment_skips_the_guard(self):
        report = self._cmp(_manifest(env=None), _manifest())
        env = next(c for c in report.checks if c.name == "environment")
        assert env.status == "skip"
        assert not report.failed

    def test_projects_mismatch_fails(self):
        report = self._cmp(_manifest(projects=12), _manifest(projects=195))
        projects = next(c for c in report.checks if c.name == "projects")
        assert projects.status == "fail"
        assert "not comparable" in projects.message

    def test_dialect_mismatch_fails(self):
        sqlite = dict(_manifest(), dialect="sqlite")
        report = self._cmp(_manifest(), sqlite)
        dialect = next(c for c in report.checks if c.name == "dialect")
        assert dialect.status == "fail"
        assert "canonical vs sqlite" in dialect.message
        assert not self._cmp(sqlite, sqlite).failed

    def test_jobs_mismatch_only_warns(self):
        report = self._cmp(_manifest(jobs=1), _manifest(jobs=4))
        jobs = next(c for c in report.checks if c.name == "jobs")
        assert jobs.status == "warn"
        assert not report.failed

    def test_hit_rate_drop_fails(self):
        report = self._cmp(_manifest(hit_rate=0.9), _manifest(hit_rate=0.5))
        cache = next(c for c in report.checks if c.name == "cache_hit_rate")
        assert cache.status == "fail"
        assert report.failed

    def test_small_hit_rate_drop_tolerated(self):
        report = self._cmp(_manifest(hit_rate=0.9), _manifest(hit_rate=0.85))
        cache = next(c for c in report.checks if c.name == "cache_hit_rate")
        assert cache.status == "pass"

    def test_store_hit_rate_drop_fails(self):
        # a warm rerun that starts recomputing previously-replayed
        # stages is a regression even if each recompute is fast
        report = self._cmp(_manifest(store_hit_rate=1.0),
                           _manifest(store_hit_rate=0.4))
        store = next(c for c in report.checks if c.name == "store_hit_rate")
        assert store.status == "fail"
        assert report.failed

    def test_small_store_hit_rate_drop_tolerated(self):
        report = self._cmp(_manifest(store_hit_rate=1.0),
                           _manifest(store_hit_rate=0.97))
        store = next(c for c in report.checks if c.name == "store_hit_rate")
        assert store.status == "pass"

    def test_zero_lookup_candidate_skips_instead_of_failing(self):
        # a 0/0 store block used to read as a 100% -> 0% hit-rate crash;
        # with no lookups there is nothing to compare, so it skips
        report = self._cmp(_manifest(store_hit_rate=1.0),
                           _manifest(store=ZERO_LOOKUP_STORE))
        store = next(c for c in report.checks if c.name == "store_hit_rate")
        assert store.status == "skip"
        assert "zero lookups" in store.message
        assert not report.failed

    def test_zero_lookup_baseline_skips_too(self):
        report = self._cmp(_manifest(store=ZERO_LOOKUP_STORE),
                           _manifest(store_hit_rate=1.0))
        store = next(c for c in report.checks if c.name == "store_hit_rate")
        assert store.status == "skip"
        assert not report.failed

    def test_zero_lookups_on_both_sides_drops_the_check(self):
        report = self._cmp(_manifest(store=ZERO_LOOKUP_STORE),
                           _manifest(store=ZERO_LOOKUP_STORE))
        assert all(c.name != "store_hit_rate" for c in report.checks)
        assert not report.failed

    def test_store_stats_on_one_side_only_skips(self):
        report = self._cmp(_manifest(store_hit_rate=1.0), _manifest())
        store = next(c for c in report.checks if c.name == "store_hit_rate")
        assert store.status == "skip"
        assert not report.failed

    def test_no_store_stats_means_no_store_check(self):
        # fused-engine records never resolved the store; their check
        # list keeps its historical shape
        report = self._cmp(_manifest(), _manifest())
        assert all(c.name != "store_hit_rate" for c in report.checks)

    def test_warning_increase_fails(self):
        baseline = _manifest(warning_count=2)
        candidate = _manifest(warning_count=5)
        assert self._cmp(baseline, candidate).failed
        # fewer warnings is never a failure
        assert not self._cmp(candidate, baseline).failed

    def test_mixed_manifest_vs_bench(self):
        report = self._cmp(_bench(projects=12, jobs=2), _manifest())
        # the BENCH record carries no environment or warnings -> those
        # skip; shared stages compare normally (8.0 -> 4.0 is a speedup)
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["environment"] == "skip"
        assert statuses["warnings"] == "skip"
        assert statuses["stage:mine"] == "pass"
        assert statuses["stage:analyze"] == "skip"  # bench never timed it
        assert not report.failed

    def test_stage_focus_ignores_other_stages(self):
        slow = _manifest(stages={
            "generate": 9.0, "mine": 4.0, "analyze": 0.5, "total": 14.0,
        })
        assert self._cmp(_manifest(), slow).failed
        report = self._cmp(_manifest(), slow, stage="mine")
        assert not report.failed
        stage_checks = [c.name for c in report.checks
                        if c.name.startswith("stage:")]
        assert stage_checks == ["stage:mine"]

    def test_stage_focus_missing_from_both_sides_fails(self):
        report = self._cmp(_manifest(), _manifest(), stage="figures")
        focused = next(c for c in report.checks if c.name == "stage:figures")
        assert focused.status == "fail"
        assert report.failed

    def test_stage_focus_missing_from_one_side_skips(self):
        with_extra = _manifest(stages={
            "generate": 1.0, "mine": 4.0, "figures": 0.4, "total": 6.0,
        })
        report = self._cmp(_manifest(), with_extra, stage="figures")
        focused = next(c for c in report.checks if c.name == "stage:figures")
        assert focused.status == "skip"
        assert not report.failed

    def _with_statements(self, manifest, reuse_rate, *, unit_hits=100,
                         unit_misses=10):
        manifest = json.loads(json.dumps(manifest))
        manifest["timings"]["parse_cache"]["statements"] = {
            "hits": 30, "misses": 5, "fallback_parses": 0,
            "unit_hits": unit_hits, "unit_misses": unit_misses,
            "reuse_rate": reuse_rate,
        }
        return manifest

    def test_statement_reuse_drop_fails(self):
        baseline = self._with_statements(_manifest(), 0.95)
        candidate = self._with_statements(_manifest(), 0.40)
        report = self._cmp(baseline, candidate)
        reuse = next(c for c in report.checks if c.name == "statement_reuse")
        assert reuse.status == "fail"
        assert report.failed

    def test_small_statement_reuse_drop_tolerated(self):
        baseline = self._with_statements(_manifest(), 0.95)
        candidate = self._with_statements(_manifest(), 0.90)
        report = self._cmp(baseline, candidate)
        reuse = next(c for c in report.checks if c.name == "statement_reuse")
        assert reuse.status == "pass"
        assert not report.failed

    def test_pre_incremental_baseline_skips_reuse_check(self):
        # records written before the incremental engine carry no
        # statements block — mirror the store_hit_rate None pattern
        report = self._cmp(_manifest(),
                           self._with_statements(_manifest(), 0.95))
        reuse = next(c for c in report.checks if c.name == "statement_reuse")
        assert reuse.status == "skip"
        assert not report.failed

    def test_zero_unit_lookups_skip_reuse_check(self):
        baseline = self._with_statements(_manifest(), 0.95)
        candidate = self._with_statements(_manifest(), 0.0,
                                          unit_hits=0, unit_misses=0)
        # a fully warm replay never parses: zero parse-cache lookups too
        candidate["timings"]["parse_cache"].update(hits=0, misses=0)
        report = self._cmp(baseline, candidate)
        for name in ("statement_reuse", "cache_hit_rate"):
            check = next(c for c in report.checks if c.name == name)
            assert check.status == "skip", name
        assert not report.failed

    def test_no_statements_on_either_side_drops_the_check(self):
        report = self._cmp(_manifest(), _manifest())
        assert all(c.name != "statement_reuse" for c in report.checks)

    def test_report_shapes(self):
        report = self._cmp(_manifest(), _slowed(_manifest(), 2.0))
        verdict = report.as_dict()
        assert verdict["format"] == VERDICT_FORMAT
        assert verdict["verdict"] == "fail"
        assert verdict["baseline"] == "study"  # the record's command
        assert all(set(c) >= {"name", "status"} for c in verdict["checks"])
        assert json.loads(json.dumps(verdict)) == verdict
        rendered = report.render()
        assert rendered.splitlines()[-1] == "verdict: FAIL"
        assert "stage:mine" in rendered


class TestBenchCheckCommand:
    @pytest.fixture()
    def records(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_manifest()))
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(_slowed(_manifest(), 2.0)))
        return base, slow

    def test_self_comparison_exits_zero(self, records, capsys):
        base, _ = records
        assert main(["bench-check", str(base), str(base)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_slowed_candidate_exits_one(self, records, capsys):
        base, slow = records
        assert main(["bench-check", str(base), str(slow)]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_report_only_never_fails(self, records, capsys):
        base, slow = records
        assert main(["bench-check", str(base), str(slow),
                     "--report-only"]) == 0
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_json_verdict_written(self, records, tmp_path):
        base, slow = records
        out = tmp_path / "verdict.json"
        assert main(["bench-check", str(base), str(slow),
                     "--report-only", "--json", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["format"] == VERDICT_FORMAT
        assert verdict["verdict"] == "fail"

    def test_stage_focus_flag(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_manifest()))
        slow_generate = tmp_path / "slow_generate.json"
        slow_generate.write_text(json.dumps(_manifest(stages={
            "generate": 9.0, "mine": 4.0, "analyze": 0.5, "total": 14.0,
        })))
        assert main(["bench-check", str(base), str(slow_generate)]) == 1
        capsys.readouterr()  # drain the unfocused run's output
        assert main(["bench-check", str(base), str(slow_generate),
                     "--stage", "mine"]) == 0
        out = capsys.readouterr().out
        assert "stage:mine" in out
        assert "stage:generate" not in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["bench-check", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2
        assert "a.json" in capsys.readouterr().err

    def test_neither_record_nor_manifest_exits_two(self, tmp_path, capsys):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"stages": {"total": 1.0}}))
        assert main(["bench-check", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench-check:") and str(path) in err

    def test_garbage_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{broken")
        assert main(["bench-check", str(path), str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_allow_env_mismatch_flag(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_manifest()))
        other = tmp_path / "other.json"
        other.write_text(json.dumps(
            _manifest(env=dict(ENV, hostname="box-b"))
        ))
        assert main(["bench-check", str(base), str(other)]) == 1
        assert main(["bench-check", str(base), str(other),
                     "--allow-env-mismatch"]) == 0

    @pytest.mark.parametrize("name", [
        "BENCH_study.json", "BENCH_mine.json", "BENCH_mine_baseline.json",
        "BENCH_scale.json",
    ])
    def test_committed_bench_record_self_compares_clean(self, name, capsys):
        bench = REPO_ROOT / name
        assert json.loads(bench.read_text())["format"] == REGISTRY_FORMAT
        assert main(["bench-check", str(bench), str(bench)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out


def _check_by_name(report, name):
    return next((c for c in report.checks if c.name == name), None)


class TestStreamingCounterTolerance:
    """History and bench comparisons across the streaming format bump.

    Records written before the streaming engine carry no ``streaming``
    block, no ``resources`` telemetry, and sometimes no corpus size —
    every check that reads them must skip instead of failing, so an old
    baseline stays usable.
    """

    def _with_telemetry(self, *, peak=100 * 2**20):
        manifest = _manifest(projects=200)
        manifest["timings"]["resources"] = {
            "peak_rss_bytes": peak,
            "scopes": {"driver": {"peak_rss_bytes": peak,
                                  "cpu_seconds": 1.0}},
        }
        manifest["timings"]["streaming"] = {
            "window": {"initial": 2, "final": 2, "submitted": 200,
                       "completed": 200, "max_in_flight": 2, "shrinks": 0},
        }
        return as_record(manifest, "manifest")

    def test_peak_rss_regression_fails(self):
        base = self._with_telemetry(peak=100 * 2**20)
        worse = self._with_telemetry(peak=150 * 2**20)
        report = compare_records(base, worse)
        check = _check_by_name(report, "peak_rss")
        assert check is not None and check.status == "fail"
        assert compare_records(base, base).failed is False

    def test_missing_corpus_size_none_skips(self):
        sized = self._with_telemetry()
        unsized = dict(sized, projects=None)
        report = compare_records(sized, unsized)
        assert _check_by_name(report, "projects") is None
        # peak_rss itself still compares: both sides carry telemetry
        peak = _check_by_name(report, "peak_rss")
        assert peak is not None and peak.status == "pass"
        assert not report.failed

    def test_history_median_tolerates_mixed_records(self):
        """A registry mixing pre- and post-streaming records folds."""
        from repro.obs.registry import history_baseline

        old_record = {
            "format": REGISTRY_FORMAT,
            "run_id": "aaa", "recorded_at": 1.0, "projects": 200,
            "jobs": 2, "warning_count": 0, "environment": dict(ENV),
            "stages": {"mine": 4.0, "total": 6.0},
            "parse_cache": {"hit_rate": 0.5, "hits": 50, "misses": 50},
        }
        new_record = {
            **old_record,
            "run_id": "bbb", "recorded_at": 2.0,
            "resources": {"peak_rss_bytes": 100 * 2**20},
            "streaming": {
                "window": {"submitted": 200, "max_in_flight": 2},
            },
        }
        candidate = self._with_telemetry()
        baseline = history_baseline([old_record, new_record], candidate)
        assert baseline["streaming"] == new_record["streaming"]
        report = compare_records(baseline, candidate)
        assert _check_by_name(report, "peak_rss").status == "pass"
        assert not report.failed
