"""Integration tests against *real* git repositories.

These tests build an actual git repository on disk (commits with
controlled author dates), then run the paper's collection step —
``git log --name-status`` plus per-version ``git show`` — through
:mod:`repro.mining.gitrepo`.  Skipped when no git binary is available.
"""

import shutil
import subprocess

import pytest

from repro.heartbeat import Month
from repro.mining import (
    GitCommandError,
    MiningError,
    load_repository,
    mine_clone,
    read_git_log,
)

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None, reason="git binary not available"
)

V1 = "CREATE TABLE users (id INT, name VARCHAR(40));\n"
V2 = (
    "CREATE TABLE users (id INT, name VARCHAR(40), email TEXT);\n"
    "CREATE TABLE posts (pid INT);\n"
)
#: Committed as latin-1, as real dumps often are: the é is the byte
#: 0xE9, which is not UTF-8 and must read as U+FFFD, not crash mining.
V3 = "-- cosmetic header, café\n" + V2
V3_READ = V3.replace("é", "\ufffd")


def _git(cwd, *args, date=None):
    env = {
        "GIT_AUTHOR_NAME": "Test Dev",
        "GIT_AUTHOR_EMAIL": "dev@example.org",
        "GIT_COMMITTER_NAME": "Test Dev",
        "GIT_COMMITTER_EMAIL": "dev@example.org",
        "HOME": str(cwd),
        "PATH": "/usr/bin:/bin:/usr/local/bin",
    }
    if date is not None:
        env["GIT_AUTHOR_DATE"] = date
        env["GIT_COMMITTER_DATE"] = date
    subprocess.run(
        ["git", "-C", str(cwd), *args],
        check=True,
        capture_output=True,
        env=env,
    )


@pytest.fixture()
def clone(tmp_path):
    """A real git repository with three months of history."""
    root = tmp_path / "project"
    root.mkdir()
    _git(root, "init", "-q")

    (root / "schema.sql").write_text(V1)
    (root / "app.py").write_text("print('v1')\n")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "initial import",
         date="2021-01-10T10:00:00 +0000")

    (root / "schema.sql").write_text(V2)
    (root / "app.py").write_text("print('v2')\n")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "add posts table",
         date="2021-02-15T11:00:00 +0000")

    (root / "schema.sql").write_bytes(V3.encode("latin-1"))
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "cosmetic",
         date="2021-03-20T12:00:00 +0000")

    (root / "util.py").write_text("x = 1\n")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "add util",
         date="2021-04-02T09:00:00 +0000")
    return root


class TestReadGitLog:
    def test_log_text_has_name_status(self, clone):
        text = read_git_log(clone)
        assert "M\tschema.sql" in text
        assert "A\tapp.py" in text

    def test_missing_clone_raises(self, tmp_path):
        with pytest.raises(MiningError):
            load_repository(tmp_path / "nope")

    def test_non_repo_raises(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(GitCommandError):
            read_git_log(tmp_path / "plain")


class TestLoadRepository:
    def test_commits_in_chronological_order(self, clone):
        repo = load_repository(clone)
        assert len(repo.commits) == 4
        dates = [c.date for c in repo.commits]
        assert dates == sorted(dates)

    def test_ddl_versions_extracted(self, clone):
        repo = load_repository(clone)
        versions = repo.versions_of("schema.sql")
        assert [v.content for v in versions] == [V1, V2, V3_READ]

    def test_non_utf8_version_warns_once(self, clone, run_context):
        load_repository(clone)
        (record,) = run_context.recorder.warnings
        assert record["code"] == "git-output-not-utf8"
        assert record["context"]["command"].startswith("git show")

    def test_explicit_ddl_path(self, clone):
        repo = load_repository(clone, ddl_path="schema.sql")
        assert len(repo.versions_of("schema.sql")) == 3

    def test_name_defaults_to_directory(self, clone):
        assert load_repository(clone).name == "project"


class TestMineClone:
    def test_full_pipeline_on_real_repo(self, clone):
        history = mine_clone(clone)
        # 4 months of life, Jan..Apr 2021
        assert history.project_heartbeat.start == Month(2021, 1)
        assert history.duration_months == 4
        # initial births: 2 attrs; second commit: email + posts.pid = 2;
        # the heartbeat spans the schema's own events (Jan..Mar) — the
        # project window alignment happens in JointProgress
        assert history.schema_heartbeat.values == [2.0, 2.0, 0.0]
        # project activity: 2, 2, 1, 1 files
        assert history.project_heartbeat.values == [2.0, 2.0, 1.0, 1.0]

    def test_measures_from_real_repo(self, clone):
        from repro.analysis import analyze_project

        measures = analyze_project(mine_clone(clone))
        assert measures.duration_months == 4
        assert measures.schema_commits == 3
        assert measures.active_schema_commits == 2
        assert 0 <= measures.sync10 <= 1


class TestCloneInTheStudyPipeline:
    def test_clone_runs_through_the_pipeline(self, clone, tmp_path):
        from repro.analysis import analyze_project
        from repro.mining import load_clone
        from repro.pipeline import DirStore, Pipeline

        def over_the_store():
            return Pipeline(
                corpus=[load_clone(clone)],
                store=DirStore(tmp_path / "store"),
            )

        # a clone has no ground-truth taxon: its mine shard still
        # goes through the codec into the store
        pipe = over_the_store()
        study = pipe.study()
        assert study.projects == [analyze_project(mine_clone(clone))]
        assert pipe.shards()[0].identity["project"] == "project"

        warm = over_the_store()
        assert warm.study().projects == study.projects
        assert warm.timings.artifact_totals.recomputes == 0

        # re-analyzing reads the mine shard back through the codec
        warm.invalidate("analyze")
        again = over_the_store()
        assert again.study().projects == study.projects
        assert again.timings.artifacts["mine"].hits == 1
        assert again.timings.artifacts["analyze"].recomputes == 1
