"""The host-speed probe and the scaling of times to the reference speed."""

import json
import signal
import statistics
import subprocess
import sys
import time

import pytest

from bench import probe
from bench.catalogue import ROOT
from bench.harness import REF_STEP_S, HostProbes, _at_reference, allowed_cpus


def _probes(steps: dict) -> HostProbes:
    """Probes that recorded ``steps``: cpu -> [(start, seconds), ...]."""
    probes = HostProbes(sorted(steps), out=None)
    probes.steps = {cpu: ([t for t, _ in rows], [s for _, s in rows])
                    for cpu, rows in steps.items()}
    return probes


def test_a_time_is_scaled_by_the_harmonic_mean_of_its_steps():
    # the host ran at full speed for half the interval and at half speed
    # for the other half: a fixed amount of work took 4/3 of its time at
    # full speed, and the harmonic mean says the same
    rows = [(i * 0.1, 1e-3 if i < 5 else 2e-3) for i in range(10)]
    probes = _probes({0: rows})
    assert probes.step([0], 0.0, 0.95) == pytest.approx(
        statistics.harmonic_mean([1e-3] * 5 + [2e-3] * 5))
    assert probes.scale([0], 0.0, 0.95) == pytest.approx(
        REF_STEP_S / probes.step([0], 0.0, 0.95))


def test_a_short_interval_borrows_the_steps_around_it():
    rows = [(i * probe.PERIOD_S, 1e-3 * (1 + i)) for i in range(40)]
    probes = _probes({0: rows})
    # an interval holding one step widens until it holds five
    mid = 20 * probe.PERIOD_S
    step = probes.step([0], mid, mid)
    assert step == pytest.approx(
        statistics.harmonic_mean([1e-3 * (1 + i) for i in range(18, 23)]))


def test_several_cpus_combine_by_geometric_mean():
    probes = _probes({0: [(t, 1e-3) for t in range(10)],
                      1: [(t, 4e-3) for t in range(10)]})
    assert probes.step([0, 1], 0, 9) == pytest.approx(2e-3)
    assert probes.step([1], 0, 9) == pytest.approx(4e-3)


def test_a_cpu_without_steps_is_an_error():
    with pytest.raises(RuntimeError, match="recorded no step"):
        _probes({0: []}).step([0], 0, 1)


def test_the_probe_process_records_steps_until_terminated(tmp_path):
    out = tmp_path / "probe.json"
    cpu = allowed_cpus()[-1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.probe", str(cpu), str(out)], cwd=ROOT)
    time.sleep(1.0)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=10) == 0
    data = json.loads(out.read_text())
    assert data["cpu"] == cpu
    starts = [start for start, _ in data["samples"]]
    assert len(starts) >= 10 and starts == sorted(starts)
    assert all(0 < seconds < probe.PERIOD_S
               for _, seconds in data["samples"])


def test_per_layer_times_and_rates_scale_and_counts_do_not():
    assert _at_reference(2.0, "s", 0.5) == 1.0
    assert _at_reference(2.0, "ms", 0.5) == 1.0
    assert _at_reference(2.0, "1/s", 0.5) == 4.0
    assert _at_reference(2.0, "B/s", 0.5) == 4.0
    for unit in ("count", "ratio", "MiB"):
        assert _at_reference(2.0, unit, 0.5) == 2.0
