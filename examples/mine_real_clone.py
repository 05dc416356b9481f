"""Mine a *real* git repository, end to end.

The synthetic corpus exists because the original 195 GitHub projects
need network access — but the pipeline itself is the paper's: this
example builds an actual git repository on disk (six months of commits
with a schema that grows), then runs the same collection step the paper
ran (`git log --name-status --no-merges --date=iso` + per-version
`git show`) and the study pipeline on it — the same sharded, cached
pipeline the 195-project study runs, over an on-disk artifact store in
the example's temp directory, as a `--store-dir` run keeps it.

Point `load_clone()` at any local clone with a single-DDL-file schema
to reproduce the study on real data.

Run:  python examples/mine_real_clone.py   (requires the git binary)
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.mining import load_clone
from repro.pipeline import DirStore, Pipeline
from repro.report import render_joint_progress

COMMITS = [
    # (date, message, {path: content})
    (
        "2020-01-15T10:00:00 +0000",
        "initial import",
        {
            "schema.sql": (
                "CREATE TABLE users (id INT PRIMARY KEY, "
                "name VARCHAR(40));\n"
            ),
            "src/app.py": "print('hello')\n",
            "src/db.py": "def connect(): pass\n",
        },
    ),
    (
        "2020-02-20T11:00:00 +0000",
        "add posts and email",
        {
            "schema.sql": (
                "CREATE TABLE users (id INT PRIMARY KEY, "
                "name VARCHAR(40), email TEXT);\n"
                "CREATE TABLE posts (pid INT PRIMARY KEY, body TEXT, "
                "author INT REFERENCES users(id));\n"
            ),
            "src/db.py": "def connect(): return 42\n",
        },
    ),
    (
        "2020-04-05T09:00:00 +0000",
        "widen name column",
        {
            "schema.sql": (
                "CREATE TABLE users (id INT PRIMARY KEY, "
                "name VARCHAR(120), email TEXT);\n"
                "CREATE TABLE posts (pid INT PRIMARY KEY, body TEXT, "
                "author INT REFERENCES users(id));\n"
            ),
        },
    ),
    (
        "2020-06-10T16:00:00 +0000",
        "bugfixes only",
        {"src/app.py": "print('hello, world')\n"},
    ),
]


def build_repo(root: Path) -> None:
    env = {
        "GIT_AUTHOR_NAME": "Demo Dev",
        "GIT_AUTHOR_EMAIL": "demo@example.org",
        "GIT_COMMITTER_NAME": "Demo Dev",
        "GIT_COMMITTER_EMAIL": "demo@example.org",
        "HOME": str(root),
        "PATH": "/usr/bin:/bin:/usr/local/bin",
    }
    subprocess.run(
        ["git", "-C", str(root), "init", "-q"], check=True, env=env
    )
    for date, message, files in COMMITS:
        for path, content in files.items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content)
        commit_env = dict(
            env, GIT_AUTHOR_DATE=date, GIT_COMMITTER_DATE=date
        )
        subprocess.run(
            ["git", "-C", str(root), "add", "."], check=True, env=commit_env
        )
        subprocess.run(
            ["git", "-C", str(root), "commit", "-q", "-m", message],
            check=True,
            env=commit_env,
        )


def main() -> int:
    if shutil.which("git") is None:
        print("git binary not available; skipping", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        clone = Path(tmp) / "demo-project"
        clone.mkdir()
        build_repo(clone)

        project = load_clone(clone)
        store = DirStore(Path(tmp) / "store")
        study = Pipeline(corpus=[project], store=store).study()
        measures = study.projects[0]
        (ddl_path,) = project.repository.file_contents

        print(f"Mined real clone: {measures.name}")
        print(f"DDL file: {ddl_path}")
        print(
            f"Duration: {measures.duration_months} months, "
            f"{measures.schema_commits} schema commits "
            f"({measures.active_schema_commits} active)"
        )
        print(f"Schema activity: {measures.schema_total_activity:g}")
        print(f"Taxon: {measures.taxon.display_name}")
        print()
        print(render_joint_progress(measures.joint, title=measures.name))
        print()
        print(f"10%-synchronicity: {measures.sync10:.0%}")
        print(
            f"75% of evolution attained at "
            f"{measures.attainment(0.75):.0%} of project life"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
