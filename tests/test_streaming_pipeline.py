"""The bounded-memory streaming path: watchdog, spill, window, identity.

Streaming changed *scheduling*, never bytes: a capped run must render
the exact report an uncapped (or fused-engine) run renders, the
aggregate accumulator must fold spilled and in-memory rows into the
same payload, and the watchdog must warn once, shrink the window, and
fail loudly on a true breach — surfacing as exit code 3 at the CLI.
"""

import dataclasses

import pytest

from repro.mining.aggregates import AggregateAccumulator
from repro.obs.events import get_recorder, reset_recorder
from repro.obs.metrics import reset_metrics
from repro.obs.resources import MemoryLimitExceeded, MemoryWatchdog
from repro.perf.cache import get_cache
from repro.pipeline.graph import Pipeline
from repro.pipeline.store import MemoryStore


@pytest.fixture(autouse=True)
def _clean_observability():
    reset_recorder()
    reset_metrics()
    yield
    reset_recorder()
    reset_metrics()


class TestMemoryWatchdog:
    def test_ok_below_warn_line(self):
        watchdog = MemoryWatchdog(1000, probe=lambda: 500)
        assert watchdog.check() == "ok"
        assert watchdog.check() == "ok"
        assert watchdog.as_dict() == {
            "limit_bytes": 1000,
            "peak_seen_bytes": 500,
            "checks": 2,
            "pressure": False,
        }

    def test_pressure_warns_exactly_once(self):
        readings = iter([700, 850, 900, 950])
        watchdog = MemoryWatchdog(1000, probe=lambda: next(readings))
        recorder = get_recorder()
        mark = recorder.mark()
        assert watchdog.check() == "ok"
        assert watchdog.check() == "pressure"
        assert watchdog.check() == "pressure"
        assert watchdog.check() == "pressure"
        warnings = recorder.since(mark)
        assert [w["code"] for w in warnings] == ["memory-pressure"]
        assert watchdog.as_dict()["pressure"] is True
        assert watchdog.as_dict()["peak_seen_bytes"] == 950

    def test_breach_raises_with_both_figures(self):
        watchdog = MemoryWatchdog(1000, probe=lambda: 1001)
        with pytest.raises(MemoryLimitExceeded) as excinfo:
            watchdog.check()
        assert excinfo.value.rss_bytes == 1001
        assert excinfo.value.limit_bytes == 1000
        assert "exceeded" in str(excinfo.value)

    def test_unreadable_rss_never_trips(self):
        watchdog = MemoryWatchdog(1000, probe=lambda: 0)
        assert all(watchdog.check() == "ok" for _ in range(5))


@dataclasses.dataclass(frozen=True)
class Row:
    project: str
    value: int


def _entries(n, skip_every=None):
    out = []
    for i in range(n):
        name = f"p{i:03d}"
        skipped = skip_every is not None and i % skip_every == 0
        out.append({
            "project": name,
            "row": None if skipped else Row(name, i),
        })
    return out


class TestAggregateAccumulator:
    def test_fold_matches_list_shape(self):
        acc = AggregateAccumulator()
        entries = _entries(10, skip_every=4)
        for entry in entries:
            acc.update(entry)
        result = acc.finalize()
        assert result["rows"] == [
            e["row"] for e in entries if e["row"] is not None
        ]
        assert result["skipped"] == ["p000", "p004", "p008"]
        assert acc.stats() == {
            "folded": 10, "spilled_batches": 0, "spilled_rows": 0,
        }

    def test_spilled_fold_is_value_identical(self, tmp_path):
        entries = _entries(25, skip_every=7)
        plain = AggregateAccumulator()
        spilled = AggregateAccumulator(
            spill_dir=str(tmp_path), spill_batch=4,
        )
        for entry in entries:
            plain.update(entry)
            spilled.update(entry)
        stats = spilled.stats()
        assert stats["spilled_batches"] == 5
        assert stats["spilled_rows"] == 20
        assert list(tmp_path.iterdir()), "no partials hit the disk"
        assert spilled.finalize() == plain.finalize()
        # finalize consumed and removed every partial
        assert not list(tmp_path.iterdir())

    def test_no_spill_without_dir(self):
        acc = AggregateAccumulator(spill_batch=2)
        for entry in _entries(10):
            acc.update(entry)
        assert acc.stats()["spilled_rows"] == 0
        assert len(acc.finalize()["rows"]) == 10


class _PressureWatchdog:
    """A watchdog double that reports pressure from the first check."""

    instances: list = []

    def __init__(self, limit_bytes, **_kwargs):
        self.limit_bytes = limit_bytes
        self.checks = 0
        type(self).instances.append(self)

    def check(self):
        self.checks += 1
        return "pressure"

    def as_dict(self):
        return {
            "limit_bytes": self.limit_bytes,
            "peak_seen_bytes": 0,
            "checks": self.checks,
            "pressure": True,
        }


class TestStreamingPipeline:
    N = 12

    def _report(self, **kwargs):
        reset_recorder()
        reset_metrics()
        pipe = Pipeline(store=MemoryStore(), projects=self.N, **kwargs)
        return pipe, pipe.report()

    def test_capped_run_is_byte_identical_to_uncapped(self):
        _, plain = self._report()
        capped_pipe, capped = self._report(limit_memory_mb=4096, window=2)
        assert capped == plain
        streaming = capped_pipe.timings.streaming
        window = streaming["window"]
        assert window["submitted"] == self.N
        assert window["initial"] == 2
        assert 0 < window["max_in_flight"] <= 2
        assert streaming["memory_watchdog"]["checks"] == self.N

    def test_uncapped_run_records_window_but_no_watchdog(self):
        pipe, _ = self._report()
        assert "window" in pipe.timings.streaming
        assert "memory_watchdog" not in pipe.timings.streaming

    def test_pressure_shrinks_window_and_clears_cache(self, monkeypatch):
        import repro.pipeline.graph as graph_module

        _PressureWatchdog.instances = []
        monkeypatch.setattr(
            graph_module, "MemoryWatchdog", _PressureWatchdog
        )
        _, plain = self._report()
        pipe, capped = self._report(limit_memory_mb=256, window=8)
        assert capped == plain, "pressure handling changed report bytes"
        streaming = pipe.timings.streaming
        assert streaming["window"]["final"] == 1
        assert streaming["window"]["shrinks"] >= 1
        # parse state lives for one history, so the pressured study
        # leaves nothing in the parse cache for the watchdog to release
        cache = get_cache()
        assert len(cache) == 0
        assert not cache._fragments
        assert len(cache._elements) == 0

    def test_breach_propagates_from_study(self):
        reset_recorder()
        reset_metrics()
        pipe = Pipeline(
            store=MemoryStore(), projects=self.N, limit_memory_mb=1,
        )
        with pytest.raises(MemoryLimitExceeded):
            pipe.study()

    def test_breach_exits_3_at_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "study", "--projects", str(self.N), "--limit-memory", "1",
            "--store-dir", str(tmp_path / "store"),
            "--figure", "headline",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "exceeded" in err and "--limit-memory" in err

    def test_warm_rerun_under_cap_replays_byte_identical(self, tmp_path):
        from repro.pipeline.store import DirStore

        store_dir = tmp_path / "store"

        def run():
            reset_recorder()
            reset_metrics()
            pipe = Pipeline(
                store=DirStore(store_dir),
                projects=self.N,
                limit_memory_mb=4096,
            )
            return pipe, pipe.report()

        _, cold = run()
        warm_pipe, warm = run()
        assert warm == cold
        assert warm_pipe.timings.artifact_totals.recomputes == 0


class TestShardStatusPagination:
    def _pipe(self):
        return Pipeline(store=MemoryStore(), projects=10)

    def test_page_matches_full_listing_slice(self):
        pipe = self._pipe()
        full = pipe.shard_status()
        assert len(full) == 10
        assert pipe.shard_status(limit=4, offset=3) == full[3:7]
        assert pipe.shard_status(limit=4, offset=8) == full[8:]
        assert pipe.shard_status(offset=11) == []
        assert pipe.shard_status(limit=0) == []

    def test_cli_paginates_and_reports_totals(self, capsys):
        from repro.cli import main

        code = main([
            "pipeline", "status", "--projects", "10", "--shards",
            "--limit", "3", "--offset", "2", "--json",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["shard_total"] == 10
        assert payload["shard_offset"] == 2
        assert len(payload["shards"]) == 3

    def test_cli_limit_zero_lists_all(self, capsys):
        from repro.cli import main

        code = main([
            "pipeline", "status", "--projects", "10", "--shards",
            "--limit", "0", "--json",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert len(payload["shards"]) == 10
