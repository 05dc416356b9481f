"""The mine-shard codec (``mine-tuple-v1``) round trip.

A ``mine`` shard reaches a store as :func:`encode_mined`'s tuple tree
and comes back through :func:`decode_mined`.  The decoded project must
analyze to the same row, keep the incremental parser's shared
``Table`` objects shared, and keep each ``DataType``'s raw spelling
(which does not take part in equality, so ``==`` alone would not see
it lost).  Checked on a generated project and on a real git clone,
which has no ground-truth taxon.
"""

import pickle
import shutil

import pytest

from repro.corpus.generator import corpus_specs, generate_project
from repro.corpus.profiles import scaled_profiles
from repro.mining import load_clone
from repro.perf.parallel import mine_one
from repro.pipeline.codec import decode_mined, encode_mined
from repro.pipeline.stages import MinedProject, analyze_one
from tests.test_gitrepo import clone  # noqa: F401  (the fixture)


def _mined(project) -> MinedProject:
    mined = mine_one(project)
    return MinedProject(
        name=mined.name, history=mined.history, true_taxon=mined.true_taxon
    )


def _round_trip(mined: MinedProject) -> MinedProject:
    # through pickle, as a store writes it
    return decode_mined(pickle.loads(pickle.dumps(encode_mined(mined))))


def _sharing(mined: MinedProject) -> list[list[tuple[int, int]]]:
    """For each table slot, the first (version, slot) holding that object."""
    first_seen: dict[int, tuple[int, int]] = {}
    return [
        [
            first_seen.setdefault(id(table), (v, slot))
            for slot, table in enumerate(version.schema.tables)
        ]
        for v, version in enumerate(mined.history.schema_history.versions)
    ]


def _raw_types(mined: MinedProject) -> list[str]:
    return [
        attr.data_type.raw
        for version in mined.history.schema_history.versions
        for table in version.schema.tables
        for attr in table.attributes
    ]


@pytest.fixture(scope="module")
def generated() -> MinedProject:
    """A generated project whose history shares tables across versions."""
    spec, profile = corpus_specs(profiles=scaled_profiles(32))[4]
    return _mined(generate_project(spec, profile))


@pytest.fixture()
def cloned(clone) -> MinedProject:  # noqa: F811
    return _mined(load_clone(clone))


class TestGeneratedProject:
    def test_shared_tables_stay_shared(self, generated):
        sharing = _sharing(generated)
        # the incremental parser carried tables over between versions
        assert any(
            first[0] < v for v, row in enumerate(sharing) for first in row
        )
        assert _sharing(_round_trip(generated)) == sharing

    def test_raw_type_spellings_survive(self, generated):
        raws = _raw_types(generated)
        assert raws and all(raws)
        assert _raw_types(_round_trip(generated)) == raws

    def test_analyzes_to_the_same_row(self, generated):
        decoded = _round_trip(generated)
        assert decoded.true_taxon is generated.true_taxon
        assert analyze_one(decoded) == analyze_one(generated)


@pytest.mark.skipif(
    shutil.which("git") is None, reason="git binary not available"
)
class TestClonedProject:
    def test_a_missing_taxon_round_trips_as_none(self, cloned):
        assert cloned.true_taxon is None
        assert encode_mined(cloned)[-1] is None
        assert _round_trip(cloned).true_taxon is None

    def test_shared_tables_stay_shared(self, cloned):
        assert _sharing(_round_trip(cloned)) == _sharing(cloned)

    def test_raw_type_spellings_survive(self, cloned):
        raws = _raw_types(cloned)
        assert "VARCHAR(40)" in raws
        assert _raw_types(_round_trip(cloned)) == raws

    def test_analyzes_to_the_same_row(self, cloned):
        assert analyze_one(_round_trip(cloned)) == analyze_one(cloned)
