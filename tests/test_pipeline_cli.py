"""CLI surface of the sharded pipeline: --store-dir, status (with
--shards), invalidate (stage or --project), drift warnings."""

import json
import pickle

import pytest

import repro.cli as cli
from repro.cli import main
from repro.pipeline import stages
from repro.pipeline.store import STORE_DIR_ENV, NullStore
from tests.conftest import BUILD_RUN_CONTEXT

#: seed 77 at scale 32 plans 7 projects; the first is stable by
#: construction (corpus_specs is deterministic in the seed).
SEED_ARGS = ["--seed", "77", "--scale", "32"]
N_PROJECTS = 7
FIRST_PROJECT = "bitforge/scheduler-000"


def _study_args(store_dir) -> list[str]:
    return [
        "study", "--figure", "headline", *SEED_ARGS,
        "--store-dir", str(store_dir),
    ]


def _objects(store_dir) -> dict[str, tuple[int, str]]:
    """Each stored envelope's name, file size and payload digest."""
    return {
        path.name: (
            path.stat().st_size,
            pickle.loads(path.read_bytes())["payload_sha256"],
        )
        for path in store_dir.glob("objects/*/*.pkl")
    }


@pytest.fixture(scope="module")
def serial_objects(tmp_path_factory):
    """The envelopes a serial ``study --scale 16`` stores."""
    store_dir = tmp_path_factory.mktemp("serial") / "artifacts"
    assert main(["study", "--scale", "16", "--store-dir", str(store_dir)]) == 0
    return _objects(store_dir)


class TestStoreDirStudy:
    def test_cold_and_warm_output_identical(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        cold = capsys.readouterr().out
        assert "projects: 7" in cold

        assert main(_study_args(store_dir)) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_store_dir_materialises_artifacts(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        assert list(store_dir.glob("objects/*/*.pkl"))
        # artifacts and the run registry; the parse cache keeps nothing
        assert sorted(p.name for p in store_dir.iterdir()) == [
            "objects", "runs",
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_manifest_reports_the_bytes_the_store_wrote(
        self, tmp_path, capsys, serial_objects, jobs
    ):
        store_dir = tmp_path / "artifacts"
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        argv = [
            "study", "--scale", "16", "--jobs", str(jobs),
            "--store-dir", str(store_dir),
        ]
        assert main([*argv, "--manifest", str(cold)]) == 0
        objects = _objects(store_dir)
        assert main([*argv, "--manifest", str(warm)]) == 0
        capsys.readouterr()
        on_disk = sum(
            path.stat().st_size for path in store_dir.glob("objects/*/*.pkl")
        )
        stats = json.loads(cold.read_text())["store"]["stats"]
        assert stats["writes"] == 3 * 12 + 3
        assert stats["bytes_written"] == on_disk > 0
        # whichever process wrote an envelope, it holds the same bytes
        assert objects == serial_objects
        # the rerun replays every stage and writes nothing
        stats = json.loads(warm.read_text())["store"]["stats"]
        assert stats["writes"] == stats["corrupt"] == 0
        assert stats["bytes_written"] == 0

    def test_mine_version_bump_reparses_every_version(
        self, tmp_path, capsys, monkeypatch
    ):
        store_dir = tmp_path / "artifacts"
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main([*_study_args(store_dir), "--manifest", str(first)]) == 0
        monkeypatch.setitem(stages.CODE_VERSIONS, "mine", "bumped")
        assert main([*_study_args(store_dir), "--manifest", str(second)]) == 0
        capsys.readouterr()
        manifest = json.loads(second.read_text())
        assert manifest["timings"]["artifact_store"]["stages"]["mine"] == {
            "hits": 0, "recomputes": N_PROJECTS,
        }
        # no parse outlives the first run: the re-mine parses every
        # version its new code reads
        parsed = manifest["metrics"]["counters"]["versions.parsed"]
        assert parsed > 0
        assert manifest["timings"]["parse_cache"]["misses"] == parsed


class TestUnwritableStoreDir:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_run_whose_puts_all_fail_warns_once(
        self, tmp_path, capsys, jobs
    ):
        store_dir = tmp_path / "artifacts"
        (store_dir / "objects").mkdir(parents=True)
        for prefix in range(256):
            # a file where each key's prefix directory belongs
            (store_dir / "objects" / f"{prefix:02x}").write_text("")
        manifest = tmp_path / "m.json"
        argv = ["study", "--scale", "16", "--figure", "all",
                "--jobs", str(jobs)]
        assert main([
            *argv, "--store-dir", str(store_dir), "--manifest", str(manifest),
        ]) == 0
        degraded = capsys.readouterr().out
        document = json.loads(manifest.read_text())
        counts = {w["code"]: w["count"] for w in document["warnings"]}
        assert counts["store-dir-degraded"] == 1
        assert document["store"]["stats"]["writes"] == 3 * 12 + 3
        assert document["store"]["stats"]["bytes_written"] == 0
        # the run keeps nothing and reports what a writable store's does
        assert main([*argv, "--store-dir", str(tmp_path / "healthy")]) == 0
        assert capsys.readouterr().out == degraded


class TestStorelessStudy:
    """A run without ``--store-dir`` or ``REPRO_STORE_DIR``."""

    def test_study_keeps_nothing(self, tmp_path, capsys, monkeypatch):
        # the context the CLI builds for itself, not the session store
        built = []

        def run_context(args):
            built.append(BUILD_RUN_CONTEXT(args))
            return built[-1]

        monkeypatch.setattr(cli, "_run_context", run_context)
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        manifest = tmp_path / "m.json"
        assert main([
            "study", "--scale", "16", "--figure", "headline", "--profile",
            "--manifest", str(manifest),
        ]) == 0
        out = capsys.readouterr().out
        (context,) = built
        assert isinstance(context.store, NullStore)
        assert context.store.keys() == []
        # every stage still ran: 12 shards of each map stage, then
        # aggregate, figures and statistics
        assert "artifact store: 0 hits / 39 recomputes" in out
        assert json.loads(manifest.read_text())["store"]["kind"] == "null"


class TestPipelineStatus:
    def test_cold_status_without_a_store_dir(self, capsys, run_context):
        run_context.store = NullStore()  # what a storeless run builds
        assert main(["pipeline", "status", *SEED_ARGS]) == 0
        out = capsys.readouterr().out
        assert "store: null" in out
        assert out.count("cold") == 7  # one row per stage
        assert "warm" not in out

    def test_status_reflects_a_previous_run(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()

        assert main([
            "pipeline", "status", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert f"store: dir at {store_dir}" in out
        # six warm stages; report is not rendered by `study`
        assert out.count("warm") == 6
        assert f"{N_PROJECTS}/{N_PROJECTS}" in out  # full map families
        lines = [line for line in out.splitlines() if "report" in line]
        assert "cold" in lines[0]

    def test_shards_flag_lists_per_project_state(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()

        assert main([
            "pipeline", "status", *SEED_ARGS, "--shards",
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert FIRST_PROJECT in out
        shard_lines = [
            line for line in out.splitlines() if line.startswith("bitforge")
        ]
        assert shard_lines and "warm" in shard_lines[0]

    def test_status_counts_only_entries_a_study_would_serve(
        self, tmp_path, capsys
    ):
        import pickle

        from repro.obs.context import current
        from repro.pipeline import DirStore, Pipeline

        store_dir = tmp_path / "artifacts"
        cold = Pipeline(projects=12, store=DirStore(store_dir))
        cold_study = cold.study()
        older, flipped = cold.shards()[2], cold.shards()[7]
        paths = {
            shard.project: store_dir / "objects" / key[:2] / f"{key}.pkl"
            for shard in (older, flipped)
            for key in [shard.keys["mine"]]
        }
        # one mine envelope of the previous format, one bit-flipped
        envelope = pickle.loads(paths[older.project].read_bytes())
        envelope["format"] = "repro-artifact-v1"
        paths[older.project].write_bytes(pickle.dumps(envelope))
        envelope = pickle.loads(paths[flipped.project].read_bytes())
        envelope["payload"] = bytes([envelope["payload"][0] ^ 0x01]) + (
            envelope["payload"][1:]
        )
        paths[flipped.project].write_bytes(pickle.dumps(envelope))
        damaged = {path: path.read_bytes() for path in paths.values()}

        assert main([
            "pipeline", "status", "--projects", "12", "--json", "--shards",
            "--store-dir", str(store_dir),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["stage"]: row for row in payload["stages"]}
        assert (rows["mine"]["warm_shards"], rows["mine"]["warm"]) == (
            10, False,
        )
        assert rows["generate"]["warm"] and rows["analyze"]["warm"]
        assert {
            row["project"] for row in payload["shards"] if not row["mine"]
        } == set(paths)
        # status only reads: both files are still there, unchanged
        assert {path: path.read_bytes() for path in paths.values()} == (
            damaged
        )

        # the warm analyze shards and reduce tail would mask the mine
        # shards: drop them, so the study probes mine
        for shard in (older, flipped):
            cold.store.delete(shard.keys["analyze"])
        cold.invalidate("aggregate")
        rerun = Pipeline(projects=12, store=DirStore(store_dir))
        study = rerun.study()
        assert study.projects == cold_study.projects
        stats = rerun.timings.artifacts
        assert (stats["mine"].hits, stats["mine"].recomputes) == (0, 2)
        assert (stats["analyze"].hits, stats["analyze"].recomputes) == (
            10, 2,
        )
        assert (stats["generate"].hits, stats["generate"].recomputes) == (
            2, 0,
        )
        for stage in ("aggregate", "figures", "statistics"):
            assert (stats[stage].hits, stats[stage].recomputes) == (0, 1)
        # the flipped entry is damage, the older format is not
        codes = [record["code"] for record in current().recorder.warnings]
        assert codes.count("store-corrupt") == 1

    def test_stale_stage_version_warns(self, tmp_path, capsys):
        from repro.pipeline import DirStore, Pipeline

        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()

        # simulate drift: the figures artifact was stored by an older
        # figures module (different source digest, same code_version)
        pipe = Pipeline(seed=77, scale=32, store=DirStore(store_dir))
        key = pipe.fingerprint("figures")
        artifact = pipe.store.get(key)
        meta = dict(artifact.meta)
        meta["source_digest"] = "0" * 64
        pipe.store.put(key, artifact.payload, meta=meta)

        assert main([
            "pipeline", "status", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "stage-version-stale" in out
        assert "figures" in out.split("stage-version-stale", 1)[1]

    def test_no_drift_warning_on_clean_store(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        assert main([
            "pipeline", "status", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        assert "stage-version-stale" not in capsys.readouterr().out


class TestFailOnStale:
    """--fail-on-stale turns the drift warning into a CI gate."""

    def _drift_the_figures_stage(self, store_dir):
        from repro.pipeline import DirStore, Pipeline

        pipe = Pipeline(seed=77, scale=32, store=DirStore(store_dir))
        key = pipe.fingerprint("figures")
        artifact = pipe.store.get(key)
        meta = dict(artifact.meta)
        meta["source_digest"] = "0" * 64
        pipe.store.put(key, artifact.payload, meta=meta)

    def test_clean_store_still_exits_zero(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        assert main([
            "pipeline", "status", *SEED_ARGS, "--fail-on-stale",
            "--store-dir", str(store_dir),
        ]) == 0

    def test_drift_exits_nonzero_but_still_reports(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        self._drift_the_figures_stage(store_dir)
        assert main([
            "pipeline", "status", *SEED_ARGS, "--fail-on-stale",
            "--store-dir", str(store_dir),
        ]) == 1
        # the full status table and the warning still print: the gate
        # changes the exit code, never the diagnostics
        out = capsys.readouterr().out
        assert "stage-version-stale" in out
        assert "aggregate" in out

    def test_drift_exits_nonzero_in_json_mode(self, tmp_path, capsys):
        import json

        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        self._drift_the_figures_stage(store_dir)
        assert main([
            "pipeline", "status", "--json", *SEED_ARGS, "--fail-on-stale",
            "--store-dir", str(store_dir),
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["drift"][0]["stage"] == "figures"

    def test_without_the_flag_drift_stays_advisory(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        self._drift_the_figures_stage(store_dir)
        assert main([
            "pipeline", "status", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        assert "stage-version-stale" in capsys.readouterr().out


class TestPipelineStatusJson:
    def test_json_payload_shape(self, tmp_path, capsys):
        import json

        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()

        assert main([
            "pipeline", "status", "--json", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"]["kind"] == "dir"
        assert payload["store"]["dir"] == str(store_dir)
        assert payload["seed"] == 77 and payload["scale"] == 32
        assert len(payload["stages"]) == 7
        by_stage = {row["stage"]: row for row in payload["stages"]}
        assert by_stage["aggregate"]["warm"] is True
        assert by_stage["report"]["warm"] is False
        assert payload["drift"] == []
        assert "shards" not in payload

    def test_json_with_shards(self, capsys):
        import json

        assert main([
            "pipeline", "status", "--json", "--shards", *SEED_ARGS,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["shards"]) == N_PROJECTS
        assert payload["shards"][0]["project"] == FIRST_PROJECT


class TestPipelineExplain:
    def test_cold_store_explains_cold(self, capsys, run_context):
        run_context.store = NullStore()  # one no earlier test warmed
        assert main(["pipeline", "explain", "aggregate", *SEED_ARGS]) == 0
        out = capsys.readouterr().out
        assert "aggregate: cold — no prior artifact" in out

    def test_warm_store_explains_warm(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        assert main([
            "pipeline", "explain", "mine", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("warm") == N_PROJECTS + 1  # rows + summary
        assert f"{N_PROJECTS} targets: {N_PROJECTS} warm" in out

    def test_param_edit_explains_stale_with_the_cause(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "artifacts"
        assert main([
            "report", *SEED_ARGS, "--store-dir", str(store_dir),
            "--out", str(tmp_path / "r.md"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "pipeline", "explain", "report", *SEED_ARGS,
            "--format", "html", "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "report: stale" in out
        assert "params.report_format changed (markdown→html)" in out

    def test_json_records(self, tmp_path, capsys):
        import json

        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        assert main([
            "pipeline", "explain", "statistics", "--json", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["stage"] == "statistics"
        assert record["state"] == "warm"
        assert len(record["key"]) == 64

    def test_explain_emits_provenance_events(self, tmp_path, capsys):
        import json

        from repro.obs.events import validate_event_log

        store_dir = tmp_path / "artifacts"
        log_path = tmp_path / "events.jsonl"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()
        assert main([
            "pipeline", "explain", "aggregate", *SEED_ARGS,
            "--store-dir", str(store_dir),
            "--log-json", str(log_path),
        ]) == 0
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        kinds = [r["event"] for r in records]
        assert "provenance" in kinds
        prov = next(r for r in records if r["event"] == "provenance")
        assert prov["stage"] == "aggregate"
        assert prov["state"] == "warm"
        count, problems = validate_event_log(log_path)
        assert count == len(records) and problems == []

    def test_unknown_stage_is_a_usage_error(self, capsys):
        assert main(["pipeline", "explain", "figments"]) == 2
        assert "unknown stage or project" in capsys.readouterr().err

    def test_unknown_project_is_a_usage_error(self, capsys):
        assert main([
            "pipeline", "explain", "mine", *SEED_ARGS,
            "--project", "no/such-project",
        ]) == 2
        assert "unknown stage or project" in capsys.readouterr().err

    def test_project_on_a_reduce_stage_is_a_usage_error(self, capsys):
        assert main([
            "pipeline", "explain", "aggregate", *SEED_ARGS,
            "--project", FIRST_PROJECT,
        ]) == 2
        assert "per-project" in capsys.readouterr().err


class TestCrossProcessReplay:
    """Satellite 3: a warm run served from a store written by a
    *different process* replays that run's warnings and metrics."""

    def test_warm_run_replays_the_foreign_cold_run(self, tmp_path):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        store_dir = tmp_path / "artifacts"
        manifest = tmp_path / "cold.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_STORE_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "study", *SEED_ARGS,
             "--store-dir", str(store_dir), "--manifest", str(manifest)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        cold = json.loads(manifest.read_text())

        from repro.pipeline import DirStore, Pipeline

        pipe = Pipeline(seed=77, scale=32, store=DirStore(store_dir))
        study = pipe.study()
        # nothing recomputed: the foreign artifacts answered everything
        assert study.timings.artifact_totals.recomputes == 0
        # the cold process's warnings replay one-for-one
        assert len(study.warnings) == cold["warning_count"]
        # ... and so do its metrics: the mining counters below were
        # only ever computed in the writer process
        counters = study.metrics.counters
        cold_counters = cold["metrics"]["counters"]
        mining = [c for c in cold_counters if c.startswith("changes.")]
        assert mining
        for counter in mining:
            assert counters.get(counter) == cold_counters[counter], counter
        assert counters.get("artifact.hit") == 3


class TestPipelineInvalidate:
    def test_unknown_stage_is_a_usage_error(self, capsys):
        assert main(["pipeline", "invalidate", "figments"]) == 2
        err = capsys.readouterr().err
        assert "unknown stage 'figments'" in err
        assert "generate" in err  # the valid names are listed

    def test_unknown_project_is_a_usage_error(self, capsys):
        assert main([
            "pipeline", "invalidate", *SEED_ARGS,
            "--project", "no/such-project",
        ]) == 2
        assert "unknown project" in capsys.readouterr().err

    def test_stage_and_project_together_is_a_usage_error(self, capsys):
        assert main([
            "pipeline", "invalidate", "analyze", *SEED_ARGS,
            "--project", FIRST_PROJECT,
        ]) == 2
        assert "not both" in capsys.readouterr().err

    def test_invalidate_stage_and_dependents(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()

        assert main([
            "pipeline", "invalidate", "analyze", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        # 7 analyze shards + aggregate/figures/statistics
        removed = N_PROJECTS + 3
        assert f"invalidated analyze: {removed} artifact(s) removed" in out

    def test_invalidate_project(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()

        assert main([
            "pipeline", "invalidate", *SEED_ARGS,
            "--project", FIRST_PROJECT,
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        # 3 map shards + aggregate/figures/statistics
        assert (
            f"invalidated project '{FIRST_PROJECT}': "
            "6 artifact(s) removed" in out
        )

        assert main([
            "pipeline", "status", *SEED_ARGS, "--shards",
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "partial" in out
        shard_lines = [
            line for line in out.splitlines() if line.startswith("bitforge")
        ]
        assert shard_lines and "cold" in shard_lines[0]

    def test_invalidate_all(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(_study_args(store_dir)) == 0
        capsys.readouterr()

        assert main([
            "pipeline", "invalidate", *SEED_ARGS,
            "--store-dir", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        # 3 map stages x 7 shards + aggregate/figures/statistics
        removed = 3 * N_PROJECTS + 3
        assert (
            f"invalidated all stages: {removed} artifact(s) removed" in out
        )
        assert not list(store_dir.glob("objects/*/*.pkl"))


class TestStoreDirReport:
    def test_report_replays_byte_identical(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        cold_path = tmp_path / "cold.md"
        warm_path = tmp_path / "warm.md"
        base = ["report", *SEED_ARGS, "--store-dir", str(store_dir)]
        assert main([*base, "--out", str(cold_path)]) == 0
        assert main([*base, "--out", str(warm_path)]) == 0
        capsys.readouterr()
        assert warm_path.read_bytes() == cold_path.read_bytes()
