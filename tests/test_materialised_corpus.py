"""Materialised corpora through the one study engine.

In-memory corpora, saved corpora and real clones run through the same
``Pipeline`` as seed-sampled ones: each project is keyed by the content
mining reads, so a warm store replays an unchanged project and an edited
one re-keys exactly its own map cone.
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.analysis.study import run_study
from repro.cli import main
from repro.corpus import generate_corpus
from repro.corpus.profiles import scaled_profiles
from repro.obs.registry import RunRegistry
from repro.pipeline import MemoryStore, NullStore, Pipeline, project_digest

SEED = 77
SCALE = 32
SAMPLED = ["--seed", str(SEED), "--scale", str(SCALE)]


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(seed=SEED, profiles=scaled_profiles(SCALE))


def _edited(project):
    """``project`` with one more table in its last schema version."""
    repo = project.repository
    path, versions = next(iter(repo.file_contents.items()))
    last = dataclasses.replace(
        versions[-1],
        content=versions[-1].content + "\nCREATE TABLE extra (id INT);\n",
    )
    return SimpleNamespace(
        name=project.name,
        repository=dataclasses.replace(
            repo, file_contents={path: [*versions[:-1], last]}
        ),
        true_taxon=project.true_taxon,
    )


def _keys(pipe):
    return {shard.project: shard.keys for shard in pipe.shards()}


class TestContentKeys:
    def test_digest_is_stable_and_content_sensitive(self, corpus):
        first = corpus[0]
        assert project_digest(first) == project_digest(first)
        assert project_digest(_edited(first)) != project_digest(first)
        assert len({project_digest(p) for p in corpus}) == len(corpus)

    def test_keys_follow_content_not_corpus_position(self, corpus):
        forward = _keys(Pipeline(corpus=corpus, store=MemoryStore()))
        backward = _keys(
            Pipeline(corpus=corpus[::-1], store=MemoryStore())
        )
        assert forward == backward

    def test_an_edit_rekeys_exactly_its_own_cone(self, corpus):
        before = _keys(Pipeline(corpus=corpus, store=MemoryStore()))
        edited = [_edited(corpus[0]), *corpus[1:]]
        after = _keys(Pipeline(corpus=edited, store=MemoryStore()))
        changed = {
            (name, stage)
            for name, keys in after.items()
            for stage, key in keys.items()
            if before[name][stage] != key
        }
        name = corpus[0].name
        assert changed == {
            (name, "generate"), (name, "mine"), (name, "analyze"),
        }

    def test_overrides_need_a_sampled_corpus(self, corpus):
        with pytest.raises(ValueError, match="materialised corpus"):
            Pipeline(corpus=corpus, project_overrides={corpus[0].name: 1})


class TestWarmStore:
    def test_warm_rerun_recomputes_only_the_edited_project(self, corpus):
        store = MemoryStore()
        cold = Pipeline(corpus=corpus, store=store)
        cold.study()
        # a given project is the shard's generate stage: never stored
        assert "generate" not in cold.timings.artifacts

        edited = [_edited(corpus[0]), *corpus[1:]]
        warm = Pipeline(corpus=edited, store=store)
        warm.study()
        stats = warm.timings.artifacts
        assert stats["mine"].recomputes == 1
        assert stats["analyze"].recomputes == 1
        assert stats["analyze"].hits == len(corpus) - 1
        assert stats["aggregate"].recomputes == 1

    def test_explain_marks_the_edited_shard_stale(self, corpus):
        store = MemoryStore()
        Pipeline(corpus=corpus, store=store).study()
        edited = [_edited(corpus[0]), *corpus[1:]]
        records = Pipeline(corpus=edited, store=store).explain("mine")
        states = {record["project"]: record["state"] for record in records}
        assert states.pop(corpus[0].name) == "stale"
        assert set(states.values()) == {"warm"}

    def test_given_projects_are_warm_generate_shards(self, corpus):
        # nothing is stored yet, but a given project is its own
        # generate output: status, shard status and explain agree
        pipe = Pipeline(corpus=corpus, store=MemoryStore())
        rows = {row["stage"]: row for row in pipe.status()}
        assert rows["generate"]["warm"]
        assert rows["generate"]["warm_shards"] == len(corpus)
        assert rows["mine"]["warm_shards"] == 0
        assert all(
            row["generate"] and not row["mine"]
            for row in pipe.shard_status()
        )
        assert {r["state"] for r in pipe.explain("generate")} == {"warm"}
        assert {r["state"] for r in pipe.explain("mine")} == {"cold"}


class TestDeferredStatistics:
    def test_run_study_computes_statistics_on_first_read(self, corpus):
        eager = Pipeline(corpus=corpus, store=MemoryStore())
        expected = eager.study().statistics()
        assert eager.timings.artifacts["statistics"].recomputes == 1

        lazy = Pipeline(corpus=corpus, store=NullStore())
        study = lazy.study()
        assert "statistics" not in lazy.timings.artifacts
        assert repr(study.statistics()) == repr(expected)
        assert repr(run_study(corpus).statistics()) == repr(expected)


class TestSavedCorpusCommands:
    @pytest.fixture()
    def saved(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        assert main(["generate", "--out", str(root), *SAMPLED]) == 0
        capsys.readouterr()
        return root

    def test_saved_corpus_report_matches_the_sampled_report(
        self, saved, tmp_path
    ):
        sampled = tmp_path / "sampled.md"
        loaded = tmp_path / "loaded.md"
        assert main(["report", "--out", str(sampled), *SAMPLED]) == 0
        assert main(
            ["report", "--out", str(loaded), "--corpus", str(saved)]
        ) == 0
        assert loaded.read_bytes() == sampled.read_bytes()

    def test_saved_corpus_replays_from_the_store(
        self, saved, tmp_path, capsys
    ):
        store = tmp_path / "artifacts"
        args = ["study", "--corpus", str(saved), "--store-dir", str(store),
                "--figure", "headline"]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == cold_out

        cold, warm = RunRegistry(store).records()
        assert cold["artifact_store"]["hit_rate"] == 0.0
        assert warm["artifact_store"]["hit_rate"] == 1.0
        # a materialised corpus has no seed; its reduce keys still land
        assert warm["seed"] is None
        assert warm["fingerprints"] == cold["fingerprints"]

    def test_serve_status_reads_the_running_pipeline(
        self, saved, monkeypatch, capsys
    ):
        import repro.io
        from repro.obs.server import ObservabilityServer

        loads = []
        load_corpus = repro.io.load_corpus
        monkeypatch.setattr(
            repro.io, "load_corpus",
            lambda root: loads.append(root) or load_corpus(root),
        )
        servers = []
        init = ObservabilityServer.__init__

        def capture(self, *args, **kwargs):
            init(self, *args, **kwargs)
            servers.append(self)

        monkeypatch.setattr(ObservabilityServer, "__init__", capture)
        assert main([
            "study", "--corpus", str(saved), "--figure", "headline",
            "--serve", "0",
        ]) == 0
        capsys.readouterr()
        pipe = servers[0].pipeline_factory()
        # /status answers from the pipeline that ran: one corpus load
        assert len(loads) == 1
        assert pipe.study() is pipe.study()
        rows = {row["stage"]: row for row in pipe.status()}
        assert rows["generate"]["warm"] and rows["mine"]["warm"]

    def test_manifest_of_a_corpus_run_has_no_seed(
        self, saved, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.json"
        assert main([
            "study", "--corpus", str(saved), "--figure", "headline",
            "--manifest", str(manifest),
        ]) == 0
        capsys.readouterr()
        document = json.loads(manifest.read_text())
        assert document["seed"] is None
        assert document["projects"] == len(
            [p for p in saved.iterdir() if p.is_dir()]
        )
