"""Unit tests for the Schema_Evo-style per-project dataset export."""

import warnings

import pytest

from repro.analysis import run_study
from repro.analysis.study import StudyResult
from repro.coevolution import CoevolutionMeasures
from repro.corpus import ProjectSpec, generate_project, profile_for
from repro.heartbeat import Month
from repro.io import read_heartbeat_csv, write_schema_evo_dataset
from repro.taxa import Taxon


@pytest.fixture(scope="module")
def study():
    projects = []
    for i, taxon in enumerate(
        [Taxon.ALMOST_FROZEN, Taxon.MODERATE, Taxon.ACTIVE]
    ):
        spec = ProjectSpec(
            name=f"se/proj-{i}",
            taxon=taxon,
            seed=500 + i,
            vendor="mysql",
            duration_months=24,
            start=Month(2016, 2),
        )
        projects.append(generate_project(spec, profile_for(taxon)))
    return run_study(projects)


class TestWriteDataset:
    def test_layout(self, study, tmp_path):
        root = write_schema_evo_dataset(study, tmp_path / "ds")
        assert (root / "projects.csv").exists()
        heartbeats = sorted((root / "heartbeats").glob("*.csv"))
        assert len(heartbeats) == 3
        assert heartbeats[0].name == "se__proj-0.csv"

    def test_heartbeat_roundtrip(self, study, tmp_path):
        root = write_schema_evo_dataset(study, tmp_path / "ds")
        for project in study.projects:
            path = root / "heartbeats" / (
                project.name.replace("/", "__") + ".csv"
            )
            joint = read_heartbeat_csv(path)
            assert joint.n_points == project.joint.n_points
            assert joint.start == project.joint.start
            for a, b in zip(joint.schema, project.joint.schema):
                assert a == pytest.approx(b, abs=1e-6)

    def test_measures_recomputable_from_csv(self, study, tmp_path):
        """The exported series alone reproduce the paper's measures."""
        root = write_schema_evo_dataset(study, tmp_path / "ds")
        for project in study.projects:
            path = root / "heartbeats" / (
                project.name.replace("/", "__") + ".csv"
            )
            recomputed = CoevolutionMeasures.of(read_heartbeat_csv(path))
            assert recomputed.sync[0.10] == pytest.approx(
                project.sync10, abs=1e-5
            )
            assert recomputed.attainment[0.75] == pytest.approx(
                project.attainment(0.75), abs=1e-5
            )

    def test_empty_heartbeat_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "month,schema_cum_fraction,project_cum_fraction,time_progress\n"
        )
        with pytest.raises(ValueError):
            read_heartbeat_csv(path)


class TestStudyJson:
    def test_roundtrip(self, study, tmp_path):
        from repro.io import export_study_json, read_study_json

        path = export_study_json(study, tmp_path / "study.json")
        data = read_study_json(path)
        assert data["projects"] == 3
        assert sum(data["fig4"]["counts"]) == 3
        assert len(data["fig5"]) == 3
        assert len(data["fig7"]) == 6  # all taxa rows
        assert "1" in data["fig8"]["counts"]

    def test_small_study_statistics_null(self, study, tmp_path):
        from repro.io import export_study_json, read_study_json

        data = read_study_json(
            export_study_json(study, tmp_path / "s.json")
        )
        assert data["statistics"] is None  # 3 projects: no §7 battery

    def test_small_study_statistics_raise_without_a_warning(self, study):
        # a fresh result: the module's study may have memoised the error
        small = StudyResult(projects=study.projects, skipped=[])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too few observations"):
                small.statistics()

    def test_canonical_statistics_section(self, tmp_path):
        from repro.analysis import canonical_study
        from repro.io import export_study_json, read_study_json

        data = read_study_json(
            export_study_json(canonical_study(), tmp_path / "c.json")
        )
        stats = data["statistics"]
        assert set(stats["lag_tests"]) == {"time", "source", "both"}
        assert -1 <= stats["tau_sync"] <= 1

    def test_bad_format_rejected(self, tmp_path):
        import json

        from repro.io import read_study_json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "other"}))
        import pytest as _pytest

        with _pytest.raises(ValueError):
            read_study_json(bad)
