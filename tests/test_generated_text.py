"""Generated projects cross every boundary as text.

A generated project holds what the generator wrote: its git-log text
and its DDL version texts.  Its repository is parsed from that text on
first read, cached on the object and never pickled, so generate shards
and warm-generate tasks carry no commit graph.  A fan-out result
carries no project at all: the unit that mined a shard stored it, and
the driver of a parallel study never parses a cold shard's log.
"""

import os
import pickle
import pickletools

import pytest

import repro.corpus.generator as generator
from repro.corpus import corpus_specs, generate_corpus
from repro.corpus.profiles import scaled_profiles
from repro.obs.context import RunContext
from repro.perf.parallel import ShardTask, map_shard
from repro.perf.pool import shutdown_pools
from repro.pipeline import CODE_VERSIONS, DirStore, Pipeline, plan_shards

SCALE = 16  # 12 projects

#: The classes of a parsed repository.
GRAPH_CLASSES = {"Repository", "Commit", "FileChange", "FileVersion"}


def _pushed_strings(data: bytes) -> set[str]:
    """Every string a pickle pushes, class and module names included."""
    return {
        arg for _, arg, _ in pickletools.genops(data) if isinstance(arg, str)
    }


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(profiles=scaled_profiles(SCALE))


@pytest.fixture
def parses(monkeypatch):
    """The project names whose log this process parses from now on."""
    calls = []
    original = generator.parse_repository
    process = os.getpid()

    def counted(name, text):
        if os.getpid() == process:  # not in forked pool workers
            calls.append(name)
        return original(name, text)

    monkeypatch.setattr(generator, "parse_repository", counted)
    return calls


class TestPickledProject:
    def test_round_trip_keeps_the_project_and_its_repository(self, corpus):
        assert len(corpus) == 12
        for project in corpus:
            copy = pickle.loads(pickle.dumps(project))
            assert copy == project
            assert copy.repository == project.repository

    def test_pickle_holds_text_not_the_commit_graph(self, corpus):
        for project in corpus:
            assert project.repository.commits  # parsed and cached
            names = _pushed_strings(pickle.dumps(project))
            assert "GeneratedProject" in names
            assert not names & GRAPH_CLASSES

    def test_repository_is_parsed_once_per_object(self, corpus, parses):
        copy = pickle.loads(pickle.dumps(corpus[0]))
        first = copy.repository
        assert copy.repository is first
        assert parses == [corpus[0].name]


class TestShardHandOff:
    def test_cold_shard_result_and_warm_task_are_text(self, tmp_path):
        (shard,) = plan_shards(
            corpus_specs(profiles=scaled_profiles(SCALE))[:1], CODE_VERSIONS
        )
        store = DirStore(tmp_path / "cold")
        result = map_shard(ShardTask(shard, store, CODE_VERSIONS))
        # the unit stored its project and history; only the analyze
        # row and the unit's observability ride back
        assert list(result.seconds) == ["generate", "mine", "analyze"]
        assert result.store.writes == 3
        assert result.analyzed == store.get(shard.keys["analyze"]).payload
        assert not _pushed_strings(pickle.dumps(result)) & (
            GRAPH_CLASSES
            | {"GeneratedProject", "MinedProject", "ProjectHistory"}
        )

        generated = store.get(shard.keys["generate"]).payload
        again_store = DirStore(tmp_path / "again")
        warm = ShardTask(
            shard, again_store, CODE_VERSIONS, project=generated
        )
        assert not _pushed_strings(pickle.dumps(warm)) & GRAPH_CLASSES
        # the worker that receives a warm task parses the text again
        again = map_shard(pickle.loads(pickle.dumps(warm)))
        assert list(again.seconds) == ["mine", "analyze"]
        assert again.analyzed == result.analyzed
        assert (
            again_store.get(shard.keys["mine"]).payload.history
            == store.get(shard.keys["mine"]).payload.history
        )

    @pytest.mark.parametrize("jobs, driver_parses", [(1, 12), (2, 0)])
    def test_driver_parses_only_what_it_mines(
        self, tmp_path, parses, jobs, driver_parses
    ):
        # serially the driver runs every unit, and so mines every cold
        # shard itself; with workers it parses nothing
        pipe = Pipeline(scale=SCALE, jobs=jobs, store=DirStore(tmp_path))
        try:
            pipe.study()
        finally:
            shutdown_pools()  # no worker outlives the patch
        assert pipe.timings.artifacts["generate"].recomputes == 12
        assert len(parses) == driver_parses


def _refuse_to_load():
    raise AssertionError("a stale generate shard was unpickled")


class _Unloadable:
    def __reduce__(self):
        return (_refuse_to_load, ())


class TestStaleGenerateShards:
    def test_shards_of_the_previous_format_are_never_read(self, tmp_path):
        # a store written while generate shards held the parsed
        # repository (code version "2"); make each such shard fail
        # loudly if it were ever unpickled
        store = DirStore(tmp_path)
        old = Pipeline(
            scale=SCALE, store=store, code_versions={"generate": "2"}
        )
        old_report = old.report()
        for shard in old.shards():
            key = shard.keys["generate"]
            store.put(key, _Unloadable(), meta=store.meta_of(key))

        new = Pipeline(
            scale=SCALE, store=DirStore(tmp_path), context=RunContext()
        )
        assert new.report() == old_report
        stats = new.timings.artifacts
        assert stats["generate"].recomputes == 12
        assert stats["generate"].hits == 0
        codes = [
            record["code"] for record in new.context.recorder.warnings
        ]
        assert "store-corrupt" not in codes
