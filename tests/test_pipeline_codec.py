"""The payload codecs' round trips.

A ``mine`` shard reaches a store as :func:`encode_mined`'s tuple tree
and comes back through :func:`decode_mined`.  The decoded project must
analyze to the same row, keep the incremental parser's shared
``Table`` objects shared, and keep each ``DataType``'s raw spelling
(which does not take part in equality, so ``==`` alone would not see
it lost).  Checked on a generated project and on a real git clone,
which has no ground-truth taxon.

``analyze`` shards and the ``aggregate`` payload store their measure
rows through :func:`encode_row`: two monthly counts stand for a row's
three cumulative series whenever they rebuild them exactly, and the
series are kept verbatim otherwise.  Every row must come back ``==``
and ``repr``-equal, so no float changes its bits or its type.
"""

import math
import pickle
import shutil
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.measures import ProjectMeasures
from repro.coevolution import CoevolutionMeasures, JointProgress
from repro.corpus.generator import corpus_specs, generate_project
from repro.corpus.profiles import scaled_profiles
from repro.heartbeat import Heartbeat, Month
from repro.mining import load_clone, mine_project
from repro.obs.context import RunContext
from repro.pipeline import stages
from repro.pipeline.codec import (
    AGGREGATE_CODEC,
    MINE_CODEC,
    decode_analyzed,
    decode_mined,
    decode_row,
    encode_analyzed,
    encode_mined,
    encode_row,
)
from repro.pipeline.graph import Pipeline
from repro.pipeline.stages import MinedProject, analyze_one
from repro.pipeline.store import DirStore, NullStore
from repro.taxa import Taxon
from tests.test_gitrepo import clone  # noqa: F401  (the fixture)


def _mined(project) -> MinedProject:
    return MinedProject(
        name=project.name,
        history=mine_project(project.repository),
        true_taxon=project.true_taxon,
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

    def test_its_row_round_trips_without_a_taxon(self, cloned):
        analyzed = analyze_one(cloned)
        assert analyzed["row"].true_taxon is None
        _assert_identical(_analyzed_round_trip(analyzed), analyzed)
        assert _compact(analyzed["row"])


# ----------------------------------------------------------------------
# the measure-row codecs

def _through_pickle(encoded):
    return pickle.loads(
        pickle.dumps(encoded, protocol=pickle.HIGHEST_PROTOCOL)
    )


def _row_round_trip(row):
    return decode_row(_through_pickle(encode_row(row)))


def _analyzed_round_trip(payload: dict) -> dict:
    return decode_analyzed(_through_pickle(encode_analyzed(payload)))


def _compact(row) -> bool:
    """Whether ``row``'s series are stored as its two monthly counts
    (the start month plus two counts; verbatim adds a third series)."""
    return len(encode_row(row)[-2]) == 4


def _assert_identical(decoded, original) -> None:
    assert decoded == original
    assert repr(decoded) == repr(original)


def _row(joint: JointProgress, *, project_total=100, schema_total=10,
         **measures) -> ProjectMeasures:
    return ProjectMeasures(
        name="demo/p",
        taxon=Taxon.MODERATE,
        duration_months=joint.n_points,
        schema_total_activity=schema_total,
        project_total_updates=project_total,
        schema_commits=3,
        active_schema_commits=2,
        coevolution=CoevolutionMeasures.of(joint, **measures),
        joint=joint,
    )


@pytest.fixture(scope="module")
def canonical():
    """The canonical 195-project study, computed afresh (no store)."""
    return Pipeline(store=NullStore(), context=RunContext()).study()


class TestCanonicalRows:
    def test_every_row_round_trips_from_its_counts(self, canonical):
        rows = canonical.projects
        assert len(rows) + len(canonical.skipped) == 195
        for row in rows:
            _assert_identical(_row_round_trip(row), row)
        assert [row.name for row in rows if not _compact(row)] == []

    def test_the_stored_aggregate_is_small_and_served_as_computed(
        self, canonical, tmp_path
    ):
        payload = {"rows": list(canonical.projects),
                   "skipped": list(canonical.skipped)}
        key = "ag" + "0" * 62
        DirStore(tmp_path).put(key, payload, meta={"codec": AGGREGATE_CODEC})
        path = tmp_path / "objects" / key[:2] / f"{key}.pkl"
        envelope = pickle.loads(path.read_bytes())
        assert envelope["codec"] == AGGREGATE_CODEC
        # 89.5 KiB as the plain pickle of the rows; about 23 KiB here
        assert len(envelope["payload"]) <= 30 * 1024
        served = DirStore(tmp_path).get(key).payload
        _assert_identical(served, payload)
        assert type(served["rows"]) is list
        assert type(served["skipped"]) is list


#: Monthly counts of one side of a project: at least one month, and
#: some activity (an all-zero heartbeat has no cumulative fraction).
counts = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=1, max_size=60
).filter(any)
offsets = st.integers(min_value=0, max_value=36)


class TestHeartbeatRows:
    @settings(max_examples=150, deadline=None)
    @given(project=counts, schema=counts, project_offset=offsets,
           schema_offset=offsets)
    @example(project=[7], schema=[3], project_offset=0, schema_offset=0)
    @example(project=[0, 0, 4, 0, 9, 0, 0], schema=[0, 2, 0, 0, 1, 0],
             project_offset=0, schema_offset=0)
    @example(project=[10**6] * 60, schema=[1, 10**6], project_offset=0,
             schema_offset=58)
    @example(project=[5, 0, 0], schema=[2], project_offset=4,
             schema_offset=0)
    def test_rows_of_heartbeats_round_trip_from_their_counts(
        self, project, schema, project_offset, schema_offset
    ):
        # built as analyze_project builds a mined project's row, over
        # float heartbeats with leading, trailing and inner zero months
        start = Month(2010, 1)
        project_hb = Heartbeat(start.shift(project_offset),
                               [float(v) for v in project])
        schema_hb = Heartbeat(start.shift(schema_offset),
                              [float(v) for v in schema])
        joint = JointProgress.from_heartbeats(project_hb, schema_hb)
        row = _row(joint, project_total=project_hb.total,
                   schema_total=schema_hb.total)
        _assert_identical(_row_round_trip(row), row)
        assert _compact(row)


class TestFallbacks:
    @pytest.mark.parametrize(
        "project, schema, schema_total",
        [
            ((0.123456, 0.5, 1.0), (0.2, 0.7, 1.0), 10),  # no counts
            ((0, 0.5, 1), (0.0, 1.0, 1.0), 10),  # ints, == to floats
            ((0.25, 1.0), (-0.0, 1.0), 10),  # -0.0 == 0.0
            ((0.5, 1.0), (0.5, 1.0), 0),  # a zero total
            ((0.5, 1.0), (0.5, 1.0), math.inf),  # an infinite total
        ],
    )
    def test_series_without_counts_are_kept_verbatim(
        self, project, schema, schema_total
    ):
        row = _row(JointProgress.from_series(project, schema),
                   schema_total=schema_total)
        assert not _compact(row)
        _assert_identical(_row_round_trip(row), row)

    def test_a_nan_series_keeps_its_bits(self):
        row = _row(JointProgress.from_series([math.nan, 1.0], [0.5, 1.0]))
        assert not _compact(row)
        decoded = _row_round_trip(row)
        assert math.isnan(decoded.joint.project[0])
        assert repr(decoded) == repr(row)

    def test_series_with_counts_behind_them_are_compact(self):
        # a from_series row whose fractions are counts over its totals
        row = _row(JointProgress.from_series([0.25, 0.5, 0.75, 1.0],
                                             [0.8, 0.9, 1.0, 1.0]))
        assert _compact(row)
        _assert_identical(_row_round_trip(row), row)

    @pytest.mark.parametrize(
        "thetas, alphas",
        [
            ((0.2, 0.01), (1.0, 0.25, 0.5)),
            ((0.10, 0.05), (0.50, 0.75, 0.80, 1.00)),  # defaults reordered
            ((0.05, 0.10), (0.5, 0.75, 0.8, 1)),  # == the defaults
        ],
    )
    def test_non_default_keys_keep_their_order_and_type(
        self, thetas, alphas
    ):
        joint = JointProgress.from_series([0.5, 1.0], [0.3, 1.0])
        row = _row(joint, thetas=thetas, alphas=alphas)
        decoded = _row_round_trip(row)
        _assert_identical(decoded, row)
        assert list(decoded.coevolution.sync) == list(thetas)
        assert list(decoded.coevolution.attainment) == list(alphas)

    def test_a_skipped_shard_round_trips(self):
        payload = {"project": "demo/hollow", "row": None}
        assert encode_row(None) is None
        _assert_identical(_analyzed_round_trip(payload), payload)

    def test_an_aggregate_with_skipped_names_round_trips(self, tmp_path):
        joint = JointProgress.from_series([0.5, 1.0], [0.3, 1.0])
        payload = {"rows": [_row(joint), _row(joint, schema_total=3)],
                   "skipped": ["demo/hollow-1", "demo/hollow-2"]}
        key = "sk" + "0" * 62
        DirStore(tmp_path).put(key, payload, meta={"codec": AGGREGATE_CODEC})
        _assert_identical(DirStore(tmp_path).get(key).payload, payload)


class TestMixedStore:
    def test_codec_free_envelopes_are_served_unchanged(
        self, tmp_path, monkeypatch
    ):
        # analyze and aggregate envelopes as an older build wrote them:
        # plain pickles, no codec named
        store_dir = tmp_path / "store"
        monkeypatch.setattr(stages, "STAGE_CODECS", {"mine": MINE_CODEC})
        cold = Pipeline(scale=16, store=DirStore(store_dir))
        cold_study = cold.study()
        cold_text = cold.report()
        monkeypatch.undo()
        codecs = {
            pickle.loads(path.read_bytes())["meta"]["stage"]:
                pickle.loads(path.read_bytes()).get("codec")
            for path in store_dir.glob("objects/*/*.pkl")
        }
        assert codecs["mine"] == MINE_CODEC
        assert codecs["analyze"] is None and codecs["aggregate"] is None

        warm = Pipeline(scale=16, store=DirStore(store_dir))
        warm_study = warm.study()
        assert warm.report() == cold_text
        assert warm.timings.artifact_totals.recomputes == 0
        _assert_identical(warm_study.projects, cold_study.projects)
        rows = {row.name: row for row in cold_study.projects}
        for shard in warm.shards():
            served = warm.store.get(shard.keys["analyze"]).payload
            _assert_identical(
                served,
                {"project": shard.project, "row": rows.get(shard.project)},
            )
