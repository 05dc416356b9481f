"""The obs top dashboard: SSE parsing, the state fold, rendering."""

import io

from repro.obs.top import (
    DashboardState,
    render_dashboard,
    run_top,
    sse_events,
)


def _env(kind, data, id=1):
    return {"id": id, "kind": kind, "ts": 0.0, "schema": 1, "data": data}


class TestSseEvents:
    def test_parses_frames_and_skips_keepalives(self):
        stream = [
            ": keepalive\n",
            "\n",
            "id: 1\n",
            "event: progress\n",
            'data: {"id": 1, "kind": "progress", "data": {}}\n',
            "\n",
            "id: 2\n",
            "event: span\n",
            'data: {"id": 2, "kind": "span", "data": {}}\n',
            "\n",
        ]
        envelopes = list(sse_events(stream))
        assert [e["id"] for e in envelopes] == [1, 2]

    def test_accepts_bytes_lines(self):
        stream = [b'data: {"id": 7, "kind": "run", "data": {}}\n', b"\n"]
        (envelope,) = sse_events(stream)
        assert envelope["id"] == 7

    def test_torn_frame_is_skipped_not_fatal(self):
        stream = [
            "data: {not json\n",
            "\n",
            'data: {"id": 3, "kind": "span", "data": {}}\n',
            "\n",
        ]
        assert [e["id"] for e in sse_events(stream)] == [3]


class TestDashboardState:
    def test_progress_envelopes_build_stage_rows(self):
        state = DashboardState()
        state.apply(_env("progress", {
            "stage": "mine", "done": 3, "total": 10,
            "percent": 30.0, "eta_seconds": 12.0,
        }))
        state.apply(_env("progress", {
            "stage": "mine", "done": 5, "total": 10,
            "percent": 50.0, "eta_seconds": 8.0,
        }, id=2))
        assert state.stages["mine"]["done"] == 5
        assert state.last_id == 2

    def test_metrics_envelopes_drive_cache_rates(self):
        state = DashboardState()
        state.apply(_env("metrics", {"counters": {
            "parse_cache.hits": 3, "parse_cache.misses": 1,
            "parse_cache.statement_hits": 9,
            "parse_cache.statement_misses": 1,
        }}))
        assert state.parse_cache_rate == 0.75
        assert state.statement_reuse_rate == 0.9

    def test_rates_are_none_without_data(self):
        state = DashboardState()
        assert state.parse_cache_rate is None
        assert state.statement_reuse_rate is None

    def test_artifact_warning_resource_span_run_folds(self):
        state = DashboardState()
        state.apply(_env("artifact", {"outcome": "hit"}))
        state.apply(_env("artifact", {"outcome": "recompute"}))
        state.apply(_env("artifact", {"outcome": "hit"}))
        state.apply(_env("warning", {"code": "empty-history"}))
        state.apply(_env("warning", {"code": "empty-history"}))
        state.apply(_env("resource", {
            "scope": "workers", "peak_rss_bytes": 64 * 2**20,
        }))
        state.apply(_env("span", {"name": "mine", "seconds": 0.5}))
        state.apply(_env("run", {"command": "study", "status": "ok"}))
        assert state.artifacts == {"hit": 2, "recompute": 1}
        assert state.warning_count == 2
        assert state.peak_rss_bytes == 64 * 2**20
        assert state.spans == 1
        assert state.run_status == "ok"


class TestRender:
    def test_render_shows_bars_rates_and_run_line(self):
        state = DashboardState()
        state.apply(_env("progress", {
            "stage": "mine_analyze", "done": 5, "total": 10,
            "percent": 50.0, "eta_seconds": 90.0,
        }))
        state.apply(_env("metrics", {"counters": {
            "parse_cache.hits": 1, "parse_cache.misses": 1,
        }}))
        state.apply(_env("warning", {"code": "empty-history"}))
        state.apply(_env("run", {"command": "study", "status": "ok"}))
        frame = render_dashboard(state)
        assert "mine_analyze" in frame
        assert "5/10 (50%)" in frame
        assert "eta 1m30s" in frame
        assert "[" in frame and "#" in frame
        assert "parse-cache 50%" in frame
        assert "empty-history×1" in frame
        assert "run study finished: ok" in frame

    def test_render_without_heartbeats(self):
        frame = render_dashboard(DashboardState())
        assert "no progress heartbeats" in frame

    def test_completed_stage_drops_the_eta(self):
        state = DashboardState()
        state.apply(_env("progress", {
            "stage": "mine", "done": 10, "total": 10,
            "percent": 100.0, "eta_seconds": 0.0,
        }))
        frame = render_dashboard(state)
        assert "10/10 (100%)" in frame
        assert "eta" not in frame


class TestRunTop:
    def test_plain_mode_writes_frames_and_stops_at_run_marker(self):
        out = io.StringIO()
        envelopes = [
            _env("progress", {
                "stage": "mine", "done": 1, "total": 2,
                "percent": 50.0, "eta_seconds": 1.0,
            }),
            _env("run", {"command": "study", "status": "ok"}, id=2),
            _env("progress", {"stage": "never-seen", "done": 1,
                              "total": 1, "percent": 100.0,
                              "eta_seconds": 0.0}, id=3),
        ]
        state = run_top(iter(envelopes), out=out, plain=True, interval=0.0)
        assert state.events == 2  # stopped at the run marker
        assert "never-seen" not in out.getvalue()
        assert "\x1b" not in out.getvalue()  # plain = no ANSI

    def test_max_events_bounds_the_read(self):
        out = io.StringIO()
        envelopes = [_env("span", {"name": "s"}, id=n) for n in range(1, 9)]
        state = run_top(
            iter(envelopes), out=out, plain=True, max_events=3,
            interval=0.0,
        )
        assert state.events == 3

    def test_ansi_mode_clears_between_frames(self):
        out = io.StringIO()
        run_top(
            iter([_env("span", {"name": "s"})]), out=out, interval=0.0,
        )
        assert out.getvalue().startswith("\x1b[H\x1b[J")
