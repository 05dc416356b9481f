"""``bench.compare`` on synthetic result files."""

import json

from bench import compare
from bench.catalogue import load
from bench.harness import summary

METRICS = load().end_to_end


def _record(samples: dict, calib: float = 0.08) -> dict:
    """A results record with one workload; unspecified metrics steady."""
    steady = {m.name: [10.0, 10.0, 10.0, 10.0, 10.0] for m in METRICS}
    steady.update(samples)
    return {
        "host": {"calib_s": calib},
        "workloads": {"cold-195-j1": {"end_to_end": {
            name: {**summary(values), "unit": "s"}
            for name, values in steady.items()
        }}},
    }


def _cells(base, cand):
    rows, drift = compare.compare(base, cand, METRICS)
    return {name: what for name, (what, _) in rows["cold-195-j1"].items()}


def test_identical_sets_read_same():
    record = _record({"wall_s": [5.0, 5.1, 4.9, 5.0, 5.05]})
    assert set(_cells(record, record).values()) == {"same"}


def test_a_slowdown_past_the_bound_is_worse():
    base = _record({"wall_s": [5.0, 5.1, 4.9, 5.0, 5.05]})
    cand = _record({"wall_s": [8.0, 8.1, 7.9, 8.0, 8.05]})
    assert _cells(base, cand)["wall_s"] == "worse"
    assert _cells(cand, base)["wall_s"] == "better"


def test_a_wide_spread_is_unresolved_unless_every_run_wins():
    base = _record({"wall_s": [4.0, 5.0, 6.0, 4.5, 5.5]})
    slightly = _record({"wall_s": [3.6, 4.5, 5.4, 4.0, 5.0]})
    assert _cells(base, slightly)["wall_s"] == "unresolved"
    far = _record({"wall_s": [2.0, 2.5, 3.0, 2.2, 2.8]})
    assert _cells(base, far)["wall_s"] == "better"


def test_higher_is_better_metrics_invert():
    metric = compare.Metric("rate", "1/s", "higher", 0.1)
    base = {**summary([100.0, 100.0, 100.0]), "unit": "1/s"}
    cand = {**summary([80.0, 80.0, 80.0]), "unit": "1/s"}
    assert compare.verdict(metric, base, cand)[0] == "worse"


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_exit_status_and_host_drift(tmp_path, capsys):
    base = _record({"wall_s": [5.0, 5.1, 4.9, 5.0, 5.05]})
    slower = _record({"wall_s": [8.0, 8.1, 7.9, 8.0, 8.05]})
    drifted = _record({"wall_s": [5.0, 5.1, 4.9, 5.0, 5.05]}, calib=0.1)
    base_path = _write(tmp_path, "base.json", base)
    assert compare.main([base_path, base_path]) == 0
    assert compare.main(
        [base_path, _write(tmp_path, "slower.json", slower)]) == 1
    assert compare.main(
        [base_path, _write(tmp_path, "drift.json", drifted)]) == 2
    out = capsys.readouterr().out
    assert "host-drift" in out
    assert out.count("cold-195-j1") == 3
