"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main

OLD_DDL = """
CREATE TABLE users (id INT, name VARCHAR(40), email TEXT);
CREATE TABLE posts (pid INT, body TEXT);
"""
NEW_DDL = """
CREATE TABLE users (id BIGINT, name VARCHAR(40));
CREATE TABLE posts (pid INT, body TEXT);
CREATE TABLE tags (tid INT, label VARCHAR(20));
"""
APP_SOURCE = """
q1 = "SELECT email FROM users"
q2 = "SELECT body FROM posts"
q3 = "SELECT id FROM users"
"""


@pytest.fixture()
def ddl_files(tmp_path):
    old = tmp_path / "old.sql"
    new = tmp_path / "new.sql"
    old.write_text(OLD_DDL)
    new.write_text(NEW_DDL)
    return old, new


class TestDiffCommand:
    def test_diff_outputs_changes(self, ddl_files, capsys):
        old, new = ddl_files
        assert main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "ejected: users.email" in out
        assert "type_changed: users.id" in out
        assert "total activity: 4" in out


class TestImpactCommand:
    def test_impact_lists_affected_queries(
        self, ddl_files, tmp_path, capsys
    ):
        old, new = ddl_files
        src = tmp_path / "app.py"
        src.write_text(APP_SOURCE)
        assert main(["impact", str(old), str(new), str(src)]) == 0
        out = capsys.readouterr().out
        assert "3 queries" in out
        assert "[breaks]" in out
        assert "users.email" in out


class TestStudyCommand:
    def test_headline_only(self, capsys):
        assert main(["study", "--figure", "headline"]) == 0
        out = capsys.readouterr().out
        assert "projects: 195" in out

    def test_figure_4(self, capsys):
        assert main(["study", "--figure", "4"]) == 0
        assert "Fig 4" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "measures.csv"
        assert main(
            ["study", "--figure", "headline", "--csv", str(csv_path)]
        ) == 0
        assert csv_path.exists()
        assert len(csv_path.read_text().splitlines()) == 196

    def test_scale_shrinks_the_corpus(self, capsys):
        # 195 projects / 32 -> one or two per taxon (7 total)
        assert main(
            ["study", "--scale", "32", "--figure", "headline",
             "--seed", "77"]
        ) == 0
        out = capsys.readouterr().out
        assert "projects: 7" in out


class TestCaseCommand:
    def test_case_renders_diagram(self, capsys):
        assert main(["case", "-"]) == 0  # every name contains '/' or '-'
        out = capsys.readouterr().out
        assert "S=schema" in out
        assert "synchronicity" in out

    def test_case_unknown_project(self, capsys):
        assert main(["case", "definitely-not-a-project-xyz"]) == 1


class TestObsExportCommand:
    TRACE = {
        "format": "repro-trace-v1",
        "spans": [{
            "name": "study", "start": 10.0, "seconds": 1.0,
            "status": "ok", "attributes": {},
            "children": [{
                "name": "project", "start": 10.1, "seconds": 0.4,
                "status": "ok", "attributes": {"worker": 42},
                "children": [],
            }],
        }],
    }
    SNAPSHOT = {"counters": {"projects.mined": 7}, "gauges": {},
                "histograms": {}}

    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(self.TRACE))
        return path

    def test_chrome_export_to_stdout(self, trace_file, capsys):
        assert main(["obs", "export", "chrome", str(trace_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["displayTimeUnit"] == "ms"
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["study", "project"]

    def test_flame_export_to_file(self, trace_file, tmp_path, capsys):
        out = tmp_path / "stacks.folded"
        assert main(
            ["obs", "export", "flame", str(trace_file),
             "--out", str(out)]
        ) == 0
        assert "written to" in capsys.readouterr().out
        assert "study 600000" in out.read_text()

    def test_prom_export_from_manifest_or_snapshot(self, tmp_path, capsys):
        # a manifest wraps the snapshot under "metrics"; a bare
        # snapshot works too
        for payload in ({"metrics": self.SNAPSHOT}, self.SNAPSHOT):
            path = tmp_path / "metrics.json"
            path.write_text(json.dumps(payload))
            assert main(["obs", "export", "prom", str(path)]) == 0
            out = capsys.readouterr().out
            assert "repro_projects_mined_total 7" in out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(
            ["obs", "export", "chrome", str(tmp_path / "nope.json")]
        ) == 1
        assert "no such file" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["obs", "export", "flame", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_foreign_trace_format_exits_one(self, tmp_path, capsys):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"format": "speedscope", "spans": []}))
        assert main(["obs", "export", "chrome", str(path)]) == 1
        assert "cannot export" in capsys.readouterr().err

    def test_unknown_kind_rejected_by_the_parser(self, trace_file):
        with pytest.raises(SystemExit):
            main(["obs", "export", "svg", str(trace_file)])


class TestGenerateCommand:
    def test_generate_scaled(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(
            ["generate", "--out", str(out_dir), "--seed", "77",
             "--scale", "32"]
        ) == 0
        assert "7 projects" in capsys.readouterr().out

    def test_generate_and_reload(self, tmp_path, capsys):
        # a tiny corpus via a non-default seed keeps the test quick:
        # reuse the canonical profiles but only verify the save path
        out_dir = tmp_path / "corpus"
        assert main(
            ["generate", "--out", str(out_dir), "--seed", "31"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "195 projects" in stdout
        assert (out_dir / "manifest.json").exists()

        assert main(
            [
                "study",
                "--corpus",
                str(out_dir),
                "--figure",
                "headline",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "projects: 195" in out


class TestValidateCommand:
    def test_clean_workload_exits_zero(self, tmp_path, capsys):
        schema = tmp_path / "schema.sql"
        schema.write_text("CREATE TABLE users (id INT, name TEXT);")
        src = tmp_path / "app.py"
        src.write_text('q = "SELECT id, name FROM users"\n')
        assert main(["validate", str(schema), str(src)]) == 0
        assert "validate cleanly" in capsys.readouterr().out

    def test_broken_workload_exits_nonzero(self, tmp_path, capsys):
        schema = tmp_path / "schema.sql"
        schema.write_text("CREATE TABLE users (id INT);")
        src = tmp_path / "app.py"
        src.write_text('q = "SELECT ghost FROM users"\n')
        assert main(["validate", str(schema), str(src)]) == 1
        assert "unknown_column" in capsys.readouterr().out


class TestReportCommand:
    def test_markdown_report(self, tmp_path):
        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out)]) == 0
        assert out.read_text().startswith("#")

    def test_html_report(self, tmp_path):
        out = tmp_path / "r.html"
        assert main(
            ["report", "--out", str(out), "--format", "html"]
        ) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")


#: Input files that used to raise out of ``main``, by name.
BAD_FILES = {
    "ok.sql": OLD_DDL.encode(),
    "latin1.sql": b"-- caf\xe9\n" + OLD_DDL.encode(),
    "list.json": b"[1, 2]",
    "empty-corpus": None,
    "truncated-corpus/manifest.json": b'{"format": "repro-corpus-v1", "pro',
}


@pytest.mark.parametrize(
    "argv, named, code",
    [
        (["diff", "{}/missing.sql", "{}/ok.sql"], "missing.sql", 2),
        (["impact", "{}/ok.sql", "{}/ok.sql", "{}/missing.py"],
         "missing.py", 2),
        (["validate", "{}/missing.sql", "{}/ok.sql"], "missing.sql", 2),
        (["study", "--corpus", "{}/empty-corpus"], "empty-corpus", 2),
        (["study", "--corpus", "{}/truncated-corpus"],
         "truncated-corpus", 2),
        (["trace-view", "{}/list.json"], "list.json", 1),
        (["obs", "export", "chrome", "{}/list.json"], "list.json", 1),
        (["obs", "export", "prom", "{}/list.json"], "list.json", 1),
        (["obs", "history", "--import", "{}/list.json",
          "--store-dir", "{}/store"], "list.json", 2),
        # not UTF-8 is not fatal: decoded like git output, with a warning
        (["diff", "{}/latin1.sql", "{}/ok.sql"], "latin1.sql", 0),
        (["impact", "{}/ok.sql", "{}/ok.sql", "{}/latin1.sql"],
         "latin1.sql", 0),
        (["validate", "{}/latin1.sql", "{}/ok.sql"], "latin1.sql", 0),
        (["bench-check", "{}/missing.json", "{}/list.json"],
         "missing.json", 2),
        (["bench-check", "{}/list.json", "{}/list.json"], "list.json", 2),
    ],
)
def test_bad_input_file_prints_one_line_naming_it(
    tmp_path, capsys, argv, named, code
):
    for name, data in BAD_FILES.items():
        path = tmp_path / name
        if data is None:
            path.mkdir()
        else:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(data)
    assert main([arg.format(tmp_path) for arg in argv]) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert str(tmp_path / named) in line


class TestRunContextDirectories:
    """Where a command's store and parse cache land on disk."""

    def test_commands_without_a_pipeline_create_no_directory(
        self, ddl_files, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"format": "repro-trace-v1", "spans": []}))
        record = Path(__file__).resolve().parents[1] / "BENCH_study.json"
        old, new = ddl_files
        for argv in (
            ["diff", str(old), str(new)],
            ["trace-view", str(trace)],
            ["obs", "export", "chrome", str(trace)],
            ["bench-check", str(record), str(record)],
        ):
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert not (tmp_path / "store").exists()
        assert not (tmp_path / "cache").exists()

    def test_degraded_directories_warn_into_the_manifest(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store dir should be")
        manifest = tmp_path / "manifest.json"
        assert main([
            "study", "--figure", "headline", "--scale", "32",
            "--store-dir", str(blocker), "--manifest", str(manifest),
        ]) == 0
        codes = {
            entry["code"]
            for entry in json.loads(manifest.read_text())["warnings"]
        }
        assert {"store-dir-degraded", "cache-dir-degraded"} <= codes
