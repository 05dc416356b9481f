"""Warning events replace the pipeline's formerly-silent skips.

Each anomaly that used to disappear — a ``find_ddl_path`` tie-break, an
unparseable DDL version, an empty history — must now leave a typed
warning record on the current run's recorder, where the run manifest
picks it up.
"""

from repro.analysis import run_study
from repro.mining.history import SchemaHistory
from repro.mining.miner import find_ddl_path
from repro.obs.context import current
from repro.vcs import Commit, FileChange, FileVersion, Repository, synthetic_sha, utc


def _codes():
    return [record["code"] for record in current().recorder.warnings]


class TestDdlTieBreak:
    def _repo_with_touches(self, *paths):
        repo = Repository(name="demo/tied")
        for i, path in enumerate(paths):
            repo.add_commit(
                Commit(
                    synthetic_sha(i), "D", "d@x", utc(2020, 1 + i),
                    "c", [FileChange("A", path)],
                )
            )
        return repo

    def test_tie_emits_one_warning_with_context(self):
        repo = self._repo_with_touches("a.sql", "b.sql")
        assert find_ddl_path(repo) == "b.sql"
        records = current().recorder.warnings
        assert _codes() == ["ddl-tie-break"]
        assert records[0]["context"]["picked"] == "b.sql"
        assert records[0]["context"]["tied"] == 2
        assert current().metrics.counter("warnings.ddl-tie-break") == 1

    def test_unique_winner_stays_silent(self):
        repo = self._repo_with_touches("a.sql", "b.sql", "b.sql")
        assert find_ddl_path(repo) == "b.sql"
        assert _codes() == []


class TestDdlUnparseable:
    def test_empty_parse_of_nonempty_content_warns(self):
        versions = [
            FileVersion(synthetic_sha(1), utc(2020, 1),
                        "CREATE TABLE t (id INT);"),
            FileVersion(synthetic_sha(2), utc(2020, 2),
                        "CREATE TABLE broken ("),
        ]
        SchemaHistory.from_file_versions(versions)
        assert _codes() == ["ddl-unparseable"]
        record = current().recorder.warnings[0]
        assert record["context"]["sha"] == synthetic_sha(2)
        assert current().metrics.counter("versions.parsed") == 2

    def test_clean_history_stays_silent(self):
        versions = [
            FileVersion(synthetic_sha(1), utc(2020, 1),
                        "CREATE TABLE t (id INT);"),
        ]
        SchemaHistory.from_file_versions(versions)
        assert _codes() == []


class TestEmptyHistorySkip:
    def _zero_schema_project(self):
        repo = Repository(name="demo/hollow")
        for i in range(3):
            repo.add_commit(
                Commit(
                    synthetic_sha(i), "D", "d@x", utc(2020, 1 + i),
                    "c", [FileChange("M" if i else "A", "schema.sql"),
                          FileChange("M", "src/app.py")],
                )
            )
        # the recorded DDL never defines a table: zero schema activity
        repo.record_version(
            "schema.sql", FileVersion(synthetic_sha(0), utc(2020, 1), "")
        )

        class _Project:
            name = repo.name
            repository = repo
            true_taxon = None

        return _Project()

    def test_skip_is_carried_with_a_warning(self):
        result = run_study([self._zero_schema_project()])
        assert result.skipped == ["demo/hollow"]
        assert [r["code"] for r in result.warnings] == ["empty-history"]
        assert result.warnings[0]["context"]["project"] == "demo/hollow"
        assert result.metrics.counters["projects.skipped"] == 1
