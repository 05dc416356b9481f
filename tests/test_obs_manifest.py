"""Unit tests for the run manifest document."""

import json

from repro import __version__
from repro.analysis import run_study
from repro.obs.context import RunContext, current
from repro.obs.events import warn
from repro.obs.manifest import MANIFEST_FORMAT, build_manifest, write_manifest
from repro.pipeline.store import STORE_DIR_ENV


class TestBuildManifest:
    def test_core_fields(self):
        manifest = build_manifest(command="study", seed=42, jobs=4)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["command"] == "study"
        assert manifest["status"] == "ok"
        assert manifest["seed"] == 42
        assert manifest["jobs"] == 4
        assert manifest["versions"]["repro"] == __version__
        assert "python" in manifest["versions"]
        # a run's parse counts are in timings.parse_cache
        assert "cache" not in manifest

    def test_study_contributes_counts_timings_and_metrics(self):
        study = run_study([])
        manifest = build_manifest(command="study", study=study)
        assert manifest["projects"] == 0
        assert manifest["skipped"] == []
        assert "total" in manifest["timings"]["stages"]
        assert "counters" in manifest["metrics"]

    def test_corpus_only_runs_use_the_global_registry(self):
        current().metrics.inc("projects.generated", 12)
        manifest = build_manifest(command="generate", corpus_size=12)
        assert manifest["projects"] == 12
        assert manifest["metrics"]["counters"]["projects.generated"] == 12
        assert "timings" not in manifest

    def test_store_block_records_the_active_artifact_store(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        context = RunContext(store_dir=tmp_path / "artifacts")
        context.store  # the run resolved a stage, which builds the store
        manifest = build_manifest(command="study", seed=42, context=context)
        assert manifest["store"]["kind"] == "dir"
        assert manifest["store"]["dir"] == str(tmp_path / "artifacts")
        # the environment as the user set it: a store directory given
        # as a flag is not written back into it
        assert manifest["store"]["env"] is None
        assert set(manifest["store"]["stats"]) == {
            "hits", "misses", "writes", "corrupt", "bytes_written",
            "hit_rate",
        }
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "from-env"))
        manifest = build_manifest(command="study", context=context)
        assert manifest["store"]["env"] == str(tmp_path / "from-env")

    def test_a_store_the_run_never_built_is_not_reported(self, tmp_path):
        context = RunContext(store_dir=tmp_path / "artifacts")
        context.metrics.inc("projects.generated", 12)
        manifest = build_manifest(
            command="generate", corpus_size=12, context=context
        )
        assert "store" not in manifest
        assert manifest["metrics"]["counters"]["projects.generated"] == 12
        # describing the run built nothing
        assert context.built_store is None
        assert not (tmp_path / "artifacts").exists()

    def test_default_store_block_is_null(self):
        context = RunContext()
        context.store  # built, as a run builds it
        manifest = build_manifest(command="study", context=context)
        assert manifest["store"]["kind"] == "null"
        assert manifest["store"]["dir"] is None

    def test_warnings_are_aggregated_with_a_total_count(self):
        warnings = [
            warn("empty-history", "p: skipped", project="p"),
            warn("empty-history", "q: skipped", project="q"),
            warn("ddl-tie-break", "r: 2 paths tied", project="r"),
        ]
        manifest = build_manifest(command="study", warnings=warnings)
        assert manifest["warning_count"] == 3
        assert manifest["warnings"] == [
            {"code": "empty-history", "count": 2,
             "first_message": "p: skipped"},
            {"code": "ddl-tie-break", "count": 1,
             "first_message": "r: 2 paths tied"},
        ]

    def test_outputs_keep_only_set_paths(self, tmp_path):
        manifest = build_manifest(
            command="study",
            outputs={"trace": tmp_path / "t.json", "events": None},
        )
        assert manifest["outputs"] == {"trace": str(tmp_path / "t.json")}

    def test_error_status_is_recorded(self):
        assert build_manifest(command="study", status="error")["status"] == (
            "error"
        )


class TestWriteManifest:
    def test_round_trips_through_json_loads(self, tmp_path):
        study = run_study([])
        manifest = build_manifest(
            command="study", seed=7, jobs=2, study=study,
            warnings=[warn("empty-history", "p", project="p")],
        )
        path = write_manifest(manifest, tmp_path / "sub" / "manifest.json")
        loaded = json.loads(path.read_text())
        assert loaded["seed"] == 7
        assert loaded["warning_count"] == 1
        # and the loaded document is pure JSON data
        assert json.loads(json.dumps(loaded)) == loaded
