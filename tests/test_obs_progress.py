"""Unit tests for live run monitoring (`repro.obs.progress`).

The heartbeat contract: trackers emit schema-valid ``progress`` records
to whatever listens (an event log, a TTY stream), throttled by the
channel interval, with the final state always emitted exactly once —
and with nothing listening, an update is just a counter bump.
"""

import io

import pytest

from repro.obs.context import RunContext, current
from repro.obs.events import validate_event
from repro.obs.progress import (
    DEFAULT_INTERVAL,
    PROGRESS_INTERVAL_ENV,
    TOP_SLOWEST,
    ProgressChannel,
    ProgressTracker,
    progress_event,
    render_progress_line,
)
from repro.perf.timing import StudyTimings
from tests.conftest import RecordedLog


class FakeClock:
    """A monotonic clock advanced by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def channel():
    """An unthrottled channel capturing every record in ``.records``."""
    chan = ProgressChannel()
    chan.records = chan.log = RecordedLog()
    chan.interval = 0.0
    return chan


class TestProgressEvent:
    def test_record_validates(self):
        record = progress_event("mine_analyze", 3, 12, 4.5,
                                [(0.25, "acme/registry-000")])
        assert validate_event(record) == []
        assert record["done"] == 3
        assert record["percent"] == 25.0
        assert record["slowest"] == [
            {"name": "acme/registry-000", "seconds": 0.25}
        ]

    def test_zero_total_is_complete(self):
        record = progress_event("empty", 0, 0, 0.0, [])
        assert record["percent"] == 100.0
        assert validate_event(record) == []

    def test_negative_eta_clamped(self):
        assert progress_event("s", 1, 2, -3.0, [])["eta_seconds"] == 0.0


class TestRenderProgressLine:
    def test_mid_run_line(self):
        line = render_progress_line(progress_event(
            "mine_analyze", 6, 12, 3.2, [(0.25, "acme/registry-000")]
        ))
        assert line == (
            "mine_analyze 6/12 (50%) eta 3.2s "
            "slowest acme/registry-000 (0.25s)"
        )

    def test_finished_line_drops_the_eta(self):
        line = render_progress_line(progress_event("generate", 12, 12,
                                                   0.0, []))
        assert line == "generate 12/12 (100%)"

    def test_long_eta_renders_minutes(self):
        line = render_progress_line(progress_event("mine", 1, 100,
                                                   65.0, []))
        assert "eta 1m05s" in line


class TestProgressTracker:
    def test_emits_every_update_when_unthrottled(self, channel):
        tracker = ProgressTracker("stage", 3, channel=channel,
                                  clock=FakeClock())
        for name in ("a", "b", "c"):
            tracker.update(name, 0.1)
        assert [r["done"] for r in channel.records] == [1, 2, 3]
        for record in channel.records:
            assert validate_event(record) == []
            assert record["stage"] == "stage"
            assert record["total"] == 3

    def test_interval_throttles_mid_run_heartbeats(self, channel):
        clock = FakeClock()
        channel.interval = 10.0
        tracker = ProgressTracker("stage", 5, channel=channel, clock=clock)
        for _ in range(4):
            tracker.update()
            clock.tick(1.0)
        # first update emitted, the next three fell inside the window
        assert [r["done"] for r in channel.records] == [1]
        tracker.update()  # done == total always emits
        assert [r["done"] for r in channel.records] == [1, 5]

    def test_finish_emits_the_pending_state_once(self, channel):
        channel.interval = 10.0
        tracker = ProgressTracker("stage", 4, channel=channel,
                                  clock=FakeClock())
        for _ in range(3):
            tracker.update()
        tracker.finish()
        assert [r["done"] for r in channel.records] == [1, 3]
        # a second finish (or a finish right after the final update)
        # never duplicates the record
        tracker.finish()
        assert [r["done"] for r in channel.records] == [1, 3]

    def test_no_listener_means_no_records(self, channel):
        channel.log = None
        tracker = ProgressTracker("stage", 2, channel=channel)
        tracker.update("a", 1.0)
        tracker.finish()
        assert channel.records == []
        assert tracker.done == 1
        assert tracker.slowest == []  # not even book-keeping runs

    def test_slowest_keeps_the_top_entries_sorted(self, channel):
        tracker = ProgressTracker("stage", 5, channel=channel,
                                  clock=FakeClock())
        for name, seconds in (("a", 0.1), ("b", 0.5), ("c", 0.3),
                              ("d", 0.9), ("e", 0.2)):
            tracker.update(name, seconds)
        slowest = channel.records[-1]["slowest"]
        assert len(slowest) == TOP_SLOWEST
        assert [s["name"] for s in slowest] == ["d", "b", "c"]
        assert [s["seconds"] for s in slowest] == [0.9, 0.5, 0.3]

    def test_eta_from_study_timings(self, channel):
        # 4 summed worker-seconds over 2 done, 4 remaining, jobs=2:
        # 4/2 * 4 / 2 = 4 wall seconds
        timings = StudyTimings(jobs=2)
        timings.record("mine", 3.0)
        timings.record("analyze", 1.0)
        tracker = ProgressTracker("mine_analyze", 6, channel=channel,
                                  timings=timings, clock=FakeClock())
        tracker.update()
        tracker.update()
        assert channel.records[-1]["eta_seconds"] == 4.0

    def test_eta_falls_back_to_wall_clock(self, channel):
        clock = FakeClock()
        tracker = ProgressTracker("generate", 4, channel=channel,
                                  clock=clock)
        clock.tick(2.0)
        tracker.update()
        clock.tick(2.0)
        tracker.update()
        # 4 s elapsed over 2 done -> 2 s per item, 2 remaining
        assert channel.records[-1]["eta_seconds"] == 4.0

    def test_empty_timings_fall_back_to_wall_clock(self, channel):
        clock = FakeClock()
        tracker = ProgressTracker("stage", 4, channel=channel,
                                  timings=StudyTimings(), clock=clock)
        clock.tick(1.0)
        tracker.update()
        assert channel.records[-1]["eta_seconds"] == 3.0


class _Tty(io.StringIO):
    def isatty(self) -> bool:
        return True


class TestChannelStream:
    def test_plain_stream_gets_one_line_per_heartbeat(self):
        chan = ProgressChannel()
        chan.interval = 0.0
        chan.stream = io.StringIO()
        tracker = ProgressTracker("stage", 2, channel=chan)
        tracker.update()
        tracker.update()
        chan.close_line()
        lines = chan.stream.getvalue().splitlines()
        assert lines == ["stage 1/2 (50%) eta 0.0s", "stage 2/2 (100%)"]

    def test_tty_stream_refreshes_in_place(self):
        chan = ProgressChannel()
        chan.interval = 0.0
        chan.stream = _Tty()
        tracker = ProgressTracker("stage", 2, channel=chan)
        tracker.update()
        tracker.update()
        out = chan.stream.getvalue()
        assert out.startswith("\r")
        assert out.count("\r") == 2
        assert "\n" not in out
        chan.close_line()
        assert chan.stream.getvalue().endswith("\n")

    def test_tty_refresh_pads_over_a_longer_previous_line(self):
        chan = ProgressChannel()
        chan.stream = _Tty()
        chan._write_line("a long progress line")
        chan._write_line("short")
        last = chan.stream.getvalue().rsplit("\r", 1)[1]
        assert last.startswith("short")
        assert len(last) == len("a long progress line")

    def test_close_line_is_a_no_op_without_a_tty(self):
        chan = ProgressChannel()
        chan.stream = io.StringIO()
        chan.close_line()  # nothing written, nothing raised
        assert chan.stream.getvalue() == ""

    def test_deliver_fans_out_to_both(self):
        seen = RecordedLog()
        chan = ProgressChannel(seen)
        chan.stream = io.StringIO()
        record = progress_event("stage", 1, 2, 0.5, [])
        chan.deliver(record)
        assert seen == [record]
        assert "stage 1/2" in chan.stream.getvalue()


class TestChannelConfig:
    def test_interval_env_override(self, monkeypatch):
        monkeypatch.setenv(PROGRESS_INTERVAL_ENV, "5")
        assert ProgressChannel().interval == 5.0

    def test_bad_interval_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(PROGRESS_INTERVAL_ENV, "soon")
        assert ProgressChannel().interval == DEFAULT_INTERVAL

    def test_negative_interval_env_clamped(self, monkeypatch):
        monkeypatch.setenv(PROGRESS_INTERVAL_ENV, "-3")
        assert ProgressChannel().interval == 0.0

    def test_global_channel_resets(self):
        # each run context starts with its own channel, unwired
        first = current().progress
        first.stream = io.StringIO()
        fresh = RunContext().progress
        assert fresh is not first
        assert not fresh.active

    def test_active_property(self):
        chan = ProgressChannel()
        assert not chan.active
        chan.stream = io.StringIO()
        assert chan.active
        chan.stream = None
        chan.log = RecordedLog()
        assert chan.active


class TestStudyIntegration:
    def test_both_fanout_stages_heartbeat(self, run_context):
        from dataclasses import replace

        from repro.analysis import run_study
        from repro.corpus import generate_corpus
        from repro.corpus.profiles import CANONICAL_PROFILES

        records = run_context.progress.log = RecordedLog()
        run_context.progress.interval = 0.0
        profiles = (replace(CANONICAL_PROFILES[0], count=3),)
        corpus = generate_corpus(seed=11, profiles=profiles)
        study = run_study(corpus)
        assert len(study) + len(study.skipped) == 3
        stages = {r["stage"] for r in records}
        assert stages == {"generate", "map"}
        finals = [r for r in records if r["stage"] == "map"]
        assert finals[-1]["done"] == finals[-1]["total"] == 3
        assert all(validate_event(r) == [] for r in records)
