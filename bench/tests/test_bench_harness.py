"""The harness end to end, on a 12-project corpus."""

import json
import shutil
import subprocess
import sys

import pytest

from bench.catalogue import ROOT, load

CATALOGUE = load()


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One untraced and one traced repeat of two workloads, 12 projects."""
    out = tmp_path_factory.mktemp("bench-out")
    proc = _bench("--workloads", "cold-500-j2,incremental-195",
                  "--projects", "12", "--seconds", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((out / "results.json").read_text())
    return last, record, out


def test_emitted_metric_names_equal_the_declared_set(small_run):
    _, record, _ = small_run
    declared_e2e = {m.name for m in CATALOGUE.end_to_end}
    declared_layers = {m.name for m in CATALOGUE.per_layer}
    for workload in record["workloads"].values():
        assert set(workload["end_to_end"]) == declared_e2e
        assert set(workload["per_layer"]) == declared_layers


def test_result_line_and_checks(small_run):
    last, record, out = small_run
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 4
    for name, workload in record["workloads"].items():
        assert workload["problems"] == []
        assert len(workload["sha256"]) == 1  # traced == untraced bytes
        assert workload["oracle"]["checked"] == 5
        assert (out / f"{name}.trace.json").exists()
    cold = record["workloads"]["cold-500-j2"]["per_layer"]
    # worker spans come back from the forked pool
    assert cold["vcs.parse_repository.calls"]["value"] == 12
    assert cold["perf.pool.busy_frac"]["value"] > 0
    edited = record["workloads"]["incremental-195"]["per_layer"]
    assert edited["vcs.parse_repository.calls"]["value"] == 5
    assert edited["pipeline.store.put.calls"]["value"] == 19
    assert not (out / "tmp").exists()


def test_list_prints_the_catalogue():
    proc = _bench("--list")
    assert proc.returncode == 0
    for item in (*CATALOGUE.workloads, *CATALOGUE.end_to_end,
                 *CATALOGUE.per_layer):
        assert item.name in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "cold-195-j1", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
