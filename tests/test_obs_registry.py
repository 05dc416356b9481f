"""The run-history registry: record shape, the tolerant reader, the
median baseline, and the CLI loop (study runs append → ``obs history``
/ ``obs timeline`` read → ``bench-check --against-history`` compares)."""

import json

import pytest

from repro.obs.manifest import MANIFEST_FORMAT
from repro.obs.registry import (
    REGISTRY_FORMAT,
    RunRegistry,
    as_record,
    build_run_record,
    history_baseline,
    manifest_digest,
    registry_for_store,
    render_timeline,
    timeline_values,
)
from repro.obs.regress import compare_records
from repro.pipeline import DirStore, NullStore, Pipeline


def bench_shaped(total=2.0, rss=100 * 2**20, **extra) -> dict:
    record = {
        "format": REGISTRY_FORMAT,
        "run_id": "abc123",
        "recorded_at": 1700000000.0,
        "command": "study",
        "projects": 7,
        "jobs": 1,
        "warning_count": 0,
        "stages": {"total": total, "mine": total / 2},
        "parse_cache": {"hit_rate": 0.5},
        "resources": {"peak_rss_bytes": rss},
        "environment": {"hostname": "h", "platform": "p", "cpu_count": 4},
    }
    record.update(extra)
    return record


class TestManifestDigest:
    def test_stable_and_order_independent(self):
        a = {"x": 1, "y": {"z": 2}}
        b = {"y": {"z": 2}, "x": 1}
        assert manifest_digest(a) == manifest_digest(b)
        assert len(manifest_digest(a)) == 64

    def test_content_sensitive(self):
        assert manifest_digest({"x": 1}) != manifest_digest({"x": 2})


class TestRunRegistry:
    def test_append_creates_the_registry_lazily(self, tmp_path):
        registry = RunRegistry(tmp_path / "store")
        assert not registry.path.exists()
        registry.append(bench_shaped())
        assert registry.path.exists()
        assert registry.path == tmp_path / "store" / "runs" / "history.jsonl"
        assert len(registry) == 1

    def test_records_preserve_append_order_and_limit(self, tmp_path):
        registry = RunRegistry(tmp_path)
        for i in range(5):
            registry.append(bench_shaped(run_id=f"run-{i}"))
        ids = [r["run_id"] for r in registry.records()]
        assert ids == [f"run-{i}" for i in range(5)]
        assert [
            r["run_id"] for r in registry.records(limit=2)
        ] == ["run-3", "run-4"]

    def test_reader_skips_torn_and_foreign_lines(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.append(bench_shaped(run_id="good"))
        with open(registry.path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": \n')
            handle.write('{"no_stages": true}\n')
            handle.write("\n")
        registry.append(bench_shaped(run_id="later"))
        assert [r["run_id"] for r in registry.records()] == [
            "good", "later",
        ]

    def test_missing_registry_reads_empty(self, tmp_path):
        assert RunRegistry(tmp_path / "nowhere").records() == []

    def test_registry_for_store(self, tmp_path):
        assert registry_for_store(NullStore()) is None
        registry = registry_for_store(DirStore(tmp_path / "s"))
        assert registry is not None
        assert registry.root == tmp_path / "s"


def study_record(study, **identity) -> dict:
    """The record the CLI appends for ``study``."""
    return build_run_record(
        study.timings.as_dict(),
        projects=len(study.projects),
        skipped=len(study.skipped),
        warning_count=len(study.warnings),
        **identity,
    )


class TestBuildRunRecord:
    @pytest.fixture(scope="class")
    def study(self):
        return Pipeline(scale=32, seed=77, store=NullStore()).study()

    def test_record_is_bench_shaped(self, study):
        record = study_record(
            study, command="study", seed=77, scale=32, jobs=1,
        )
        assert record["format"] == REGISTRY_FORMAT
        assert record["projects"] == len(study.projects)
        assert "total" in record["stages"]
        assert record["environment"]["hostname"]
        # the one record format: a BENCH file, a registry line and this
        # record all read back as is and compare directly
        assert as_record(record, "registry") is record
        assert not compare_records(record, record).failed

    def test_manifest_digest_and_fingerprints_land(self, study):
        manifest = {"format": "x", "environment": {"hostname": "h"}}
        record = study_record(
            study, command="study", manifest=manifest,
            fingerprints={"aggregate": "f" * 64},
        )
        assert record["manifest_digest"] == manifest_digest(manifest)
        assert record["environment"] == {"hostname": "h"}
        assert record["fingerprints"] == {"aggregate": "f" * 64}

    def test_run_ids_differ_across_commands(self, study):
        a = study_record(study, command="study")
        b = study_record(study, command="report")
        assert a["run_id"] != b["run_id"]


class TestRecordFromPayload:
    """as_record: the one reader of BENCH files, manifests and records."""

    def test_from_a_bench_payload(self):
        record = bench_shaped(command="bench:study")
        assert as_record(record, "BENCH_study.json") is record

    def test_from_a_manifest_payload(self):
        timings = {
            "jobs": 4,
            "stages": {"total": 1.0},
            "parse_cache": {"hit_rate": 0.9, "hits": 9, "misses": 1},
            "artifact_store": {"hit_rate": 1.0, "hits": 3, "recomputes": 0},
            "resources": {"peak_rss_bytes": 1},
            "streaming": {"window": {"submitted": 7}},
        }
        manifest = {
            "format": MANIFEST_FORMAT, "command": "study", "seed": 3,
            "jobs": 4, "dialect": "sqlite", "projects": 7,
            "skipped": ["a/b"], "warning_count": 2, "timings": timings,
            "environment": {"hostname": "h"},
        }
        expected = {
            "format": REGISTRY_FORMAT, "command": "study", "seed": 3,
            "jobs": 4, "dialect": "sqlite", "projects": 7, "skipped": 1,
            "warning_count": 2, "environment": {"hostname": "h"},
            "manifest_digest": manifest_digest(manifest),
            **{key: block for key, block in timings.items() if key != "jobs"},
        }
        record = as_record(manifest, "m.json")
        assert {key: record[key] for key in expected} == expected

    def test_rejects_a_stageless_payload(self):
        with pytest.raises(ValueError, match="x.json: neither"):
            as_record({"stages": {"total": 1.0}}, "x.json")
        with pytest.raises(ValueError, match="m.json: run manifest without"):
            as_record({"format": MANIFEST_FORMAT, "projects": 7}, "m.json")


class TestHistoryBaseline:
    CANDIDATE = bench_shaped(run_id="candidate")

    def test_empty_history_raises(self):
        with pytest.raises(ValueError, match="no earlier record"):
            history_baseline([], self.CANDIDATE)

    def test_median_over_numbers_nested_in_blocks(self):
        records = [
            bench_shaped(total=1.0, rss=100),
            bench_shaped(total=9.0, rss=300),
            bench_shaped(total=2.0, rss=200),
        ]
        merged = history_baseline(records, self.CANDIDATE)
        assert merged["stages"]["total"] == 2.0
        assert merged["resources"]["peak_rss_bytes"] == 200
        assert merged["command"] == "history-median[3]"

    def test_identity_fields_pin_to_the_latest_record(self):
        records = [
            bench_shaped(run_id="old", recorded_at=1.0),
            bench_shaped(run_id="new", recorded_at=2.0),
        ]
        merged = history_baseline(records, self.CANDIDATE)
        assert merged["run_id"] == "new"
        assert merged["recorded_at"] == 2.0

    def test_missing_blocks_median_over_the_present_ones(self):
        sparse = bench_shaped()
        del sparse["resources"]
        records = [
            bench_shaped(rss=100), sparse, bench_shaped(rss=300),
        ]
        merged = history_baseline(records, self.CANDIDATE)
        assert merged["resources"]["peak_rss_bytes"] == 200

    def test_baseline_feeds_bench_check(self):
        merged = history_baseline(
            [bench_shaped(), bench_shaped()], self.CANDIDATE
        )
        assert merged["stages"]["total"] == 2.0
        assert merged["resources"]["peak_rss_bytes"] == 100 * 2**20
        assert not compare_records(merged, self.CANDIDATE).failed

    def test_mixed_registry_keeps_only_comparable_earlier_runs(self):
        candidate = bench_shaped(run_id="cand", manifest_digest="d" * 64)
        records = [
            bench_shaped(total=1.0, run_id="a"),
            bench_shaped(total=50.0, run_id="other-corpus", projects=195),
            bench_shaped(total=60.0, run_id="other-jobs", jobs=2),
            bench_shaped(total=70.0, run_id="sqlite", dialect="sqlite"),
            bench_shaped(total=3.0, run_id="b"),
            # the candidate's own run, appended before bench-check ran
            bench_shaped(total=80.0, run_id="own", manifest_digest="d" * 64),
            bench_shaped(total=90.0, run_id="cand"),
        ]
        merged = history_baseline(records, candidate)
        assert merged["command"] == "history-median[2]"
        assert merged["stages"]["total"] == 2.0
        assert (merged["projects"], merged["jobs"]) == (7, 1)
        assert merged.get("dialect") is None
        last = history_baseline(records, candidate, last=1)
        assert (last["command"], last["run_id"]) == ("history-median[1]", "b")
        sqlite = history_baseline(records, bench_shaped(dialect="sqlite"))
        assert (sqlite["run_id"], sqlite["dialect"]) == ("sqlite", "sqlite")


class TestTimelineDegenerateHistories:
    """render_timeline on the histories that used to crash plotters:
    empty, single-record, all-equal, all-zero, and sparse series."""

    def test_empty_registry_raises_not_renders(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            render_timeline([], "total")

    def test_unknown_stage_raises_with_a_hint(self):
        with pytest.raises(ValueError, match="no record carries"):
            render_timeline([bench_shaped()], "figments")

    def test_single_record_plots_one_bar_without_a_marker(self):
        out = render_timeline([bench_shaped(total=2.0)], "total")
        assert "timeline: total over 1 run(s)" in out
        assert "#" in out
        assert "! regression" not in out

    def test_all_equal_series_plots_full_width_bars(self):
        records = [bench_shaped(total=3.0) for _ in range(3)]
        out = render_timeline(records, "total", width=8)
        bars = [
            line for line in out.splitlines() if line.endswith("#" * 8)
        ]
        assert len(bars) == 3
        assert "! regression" not in out

    def test_all_zero_series_never_divides_by_zero(self):
        records = [bench_shaped(total=0.0) for _ in range(2)]
        out = render_timeline(records, "total")
        assert "over 2 run(s)" in out

    def test_sparse_series_renders_a_dash_for_missing_values(self):
        gap = bench_shaped()
        del gap["stages"]
        out = render_timeline(
            [bench_shaped(total=1.0), gap, bench_shaped(total=1.5)],
            "total",
        )
        dash_lines = [
            line for line in out.splitlines() if line.rstrip().endswith("-")
        ]
        assert len(dash_lines) == 1

    def test_regression_marker_on_a_big_jump(self):
        records = [bench_shaped(total=1.0), bench_shaped(total=2.0)]
        assert "! regression" in render_timeline(records, "total")
        gentle = [bench_shaped(total=1.0), bench_shaped(total=1.2)]
        assert "! regression" not in render_timeline(gentle, "total")

    def test_long_run_ids_are_clamped_to_the_column(self):
        record = bench_shaped(run_id="a" * 40)
        out = render_timeline([record], "total")
        assert "a" * 13 in out
        assert "a" * 14 not in out

    def test_timeline_values_rss_converts_to_mib(self):
        records = [bench_shaped(rss=64 * 2**20)]
        values, unit = timeline_values(records, "rss")
        assert unit == "MiB"
        assert values == [64.0]

    def test_timeline_values_stage_passes_seconds_through(self):
        values, unit = timeline_values([bench_shaped(total=2.0)], "total")
        assert unit == "s"
        assert values == [2.0]


class TestRegistryCli:
    """Three study runs → three records → history / timeline /
    against-history, end to end through ``repro.cli.main``."""

    SEED_ARGS = ["--seed", "77", "--scale", "32"]

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        from repro.cli import main

        root = tmp_path_factory.mktemp("registry-cli")
        store_dir = root / "artifacts"
        manifest = root / "candidate.json"
        base = ["study", *self.SEED_ARGS, "--store-dir", str(store_dir)]
        assert main(base) == 0  # cold
        assert main(base) == 0  # warm
        assert main([*base, "--manifest", str(manifest)]) == 0  # warm
        return root

    def test_each_study_run_appends_one_record(self, run_dir):
        registry = RunRegistry(run_dir / "artifacts")
        records = registry.records()
        assert len(records) == 3
        assert all(r["command"] == "study" for r in records)
        assert all(r["projects"] == 7 for r in records)
        # the cold run missed, the warm reruns replayed everything
        assert records[0]["artifact_store"]["hit_rate"] == 0.0
        assert records[-1]["artifact_store"]["hit_rate"] == 1.0
        assert all(
            r["resources"]["peak_rss_bytes"] > 0 for r in records
        )
        assert all("aggregate" in r["fingerprints"] for r in records)

    def test_history_table(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "obs", "history",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "3 records shown" in out
        assert out.count("study") >= 3
        assert "100%" in out  # the warm store hit rate

    def test_history_json(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "obs", "history", "--json", "--limit", "2",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert all(r["format"] == REGISTRY_FORMAT for r in records)

    def test_history_since_filters_by_recorded_at(self, run_dir, capsys):
        from repro.cli import main

        # every real run recorded after this cutoff: all three shown
        assert main([
            "obs", "history", "--json", "--since", "2020-01-01",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 3
        # a far-future cutoff filters everything out
        assert main([
            "obs", "history", "--since", "2999-01-01",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_history_since_rejects_non_iso_input(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "obs", "history", "--since", "last tuesday",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 2
        assert "not an ISO 8601" in capsys.readouterr().err

    def test_history_table_columns_stay_aligned(self, run_dir, capsys):
        from repro.cli import main

        # a record with pathological field widths must not shear the
        # table: run ids and commands are clamped to their columns
        store_dir = run_dir / "aligned-store"
        registry = RunRegistry(store_dir)
        registry.append(bench_shaped())
        registry.append(bench_shaped(
            run_id="f" * 64,
            command="bench-import-with-a-very-long-name",
        ))
        assert main([
            "obs", "history",
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        rows = [
            line for line in out.splitlines()
            if line and not line.startswith(("registry:", "run ", "-"))
        ]
        assert len({len(row) for row in rows}) == 1
        assert "f" * 14 not in out

    def test_history_import_seeds_a_record(self, run_dir, capsys):
        from repro.cli import main

        payload = bench_shaped(command="bench:study")
        seed_file = run_dir / "seed.json"
        seed_file.write_text(json.dumps(payload))
        store_dir = run_dir / "imported-store"
        assert main([
            "obs", "history", "--import", str(seed_file),
            "--store-dir", str(store_dir),
        ]) == 0
        assert "imported seed.json as run abc123" in capsys.readouterr().out
        # a record is appended as is; a manifest as its run's record
        assert main([
            "obs", "history", "--import", str(run_dir / "candidate.json"),
            "--store-dir", str(store_dir),
        ]) == 0
        seeded, imported = RunRegistry(store_dir).records()
        assert seeded == payload
        assert imported["command"] == "study"
        assert imported["manifest_digest"] == manifest_digest(
            json.loads((run_dir / "candidate.json").read_text())
        )

    @pytest.mark.parametrize("command", ["history", "timeline"])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_an_error(self, run_dir, capsys, command,
                                         limit):
        from repro.cli import main

        assert main([
            "obs", command, "--limit", limit,
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"obs {command}: --limit needs N >= 1\n"

    def test_timeline_total(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "obs", "timeline", "--stage", "total",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "timeline: total over 3 run(s)" in out
        assert "#" in out  # the bars

    def test_timeline_rss(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "obs", "timeline", "--stage", "rss",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "MiB" in out

    def test_timeline_unknown_stage_is_an_error(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "obs", "timeline", "--stage", "figments",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 2
        assert "no record carries" in capsys.readouterr().err

    def test_no_store_dir_is_an_error(
        self, capsys, monkeypatch, run_context
    ):
        from repro.cli import main

        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        run_context.store = NullStore()  # what a storeless run builds
        assert main(["obs", "history"]) == 2
        assert "no directory artifact store" in capsys.readouterr().err

    def test_bench_check_against_history(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "bench-check", str(run_dir / "candidate.json"),
            "--against-history", "3",
            "--store-dir", str(run_dir / "artifacts"),
            "--report-only",
        ]) == 0
        out = capsys.readouterr().out
        # the third record is the candidate's own run: not its baseline
        assert "history-median[2]" in out
        assert "peak_rss" in out
        assert "verdict:" in out

    def test_against_history_without_a_comparable_record(
        self, run_dir, tmp_path, capsys
    ):
        from repro.cli import main

        store_dir = tmp_path / "mixed"
        RunRegistry(store_dir).append(bench_shaped(projects=195))
        assert main([
            "bench-check", str(run_dir / "candidate.json"),
            "--against-history", "2", "--store-dir", str(store_dir),
        ]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "no earlier record with projects=7, jobs=1, dialect=None" in line

    def test_against_history_refuses_two_positionals(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "bench-check", "a.json", "b.json", "--against-history", "3",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 2
        assert "one positional" in capsys.readouterr().err

    def test_against_history_needs_a_positive_n(self, run_dir, capsys):
        from repro.cli import main

        assert main([
            "bench-check", "a.json", "--against-history", "0",
            "--store-dir", str(run_dir / "artifacts"),
        ]) == 2
        assert "N >= 1" in capsys.readouterr().err
