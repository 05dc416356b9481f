"""The benchmark harness: schedule, spawn, measure, check, report.

Each timed repeat runs in a fresh child process (:mod:`bench.child`)
with a fresh temporary ``DirStore`` and an environment without
``REPRO_*`` variables.  The parent never imports ``repro``; it times
from outside:

* ``setup_s`` — from just before the child is spawned until the child
  is ready to call ``study()`` (interpreter start, imports, store open);
* ``wall_s`` — ``study()`` plus ``report()``, measured in the child;
* ``cpu_s`` — CPU of the child and every worker it waited for, from
  ``os.wait4``, minus the child's CPU at the end of set-up;
* ``peak_rss_mib`` — ``ru_maxrss`` from ``os.wait4``, the largest
  resident set among the child and its workers;
* ``store_mib`` — bytes the repeat added to the store directory.

The three times are reported at the reference host speed.  The host
is shared, and its speed moves by a factor of two within minutes.  So
each workload runs on the last ``jobs`` CPUs (set-up on the last one
alone), and a :mod:`bench.probe` process on each of those CPUs times a
fixed step of Python work every 20 ms throughout the run.  A time is
scaled by :data:`REF_STEP_S` over the harmonic mean of the probe steps
taken during the interval it measures, on the CPUs it ran on; the raw
samples are kept in the results file.

Repeats are interleaved round-robin across workloads so that drift of
the host hits every workload alike.  Before each round a fixed
pure-Python loop is timed on the last CPU and scaled the same way
(``host.calib_s``): if the scaling failed to follow a change of the
host, that number moves.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import probe, tracing
from .catalogue import DEFAULT_SEED, ROOT, Catalogue, Workload

#: Fewest set-up samples per workload: one comes from each untraced
#: repeat and one from the oracle child; set-up-only children make up
#: the rest.
MIN_SETUP_SAMPLES = 3

#: The probe step time (s) that defines the reference host speed: a
#: reported time is what the interval would have taken had every probe
#: step during it taken this long.  It is about the step's time on the
#: host the benchmark was written on.
REF_STEP_S = 0.0004

#: Fewest probe steps a timed interval is scaled by; a shorter interval
#: borrows the steps just around it.
MIN_PROBE_STEPS = 5

#: Seconds a probe needs from its spawn to its first step.
PROBE_WARMUP_S = 0.2

#: No child may outlive this, whatever its workload's budget.
MAX_CHILD_S = 150.0

#: Committed report digests at the default seed and corpus sizes.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


# ----------------------------------------------------------------------
# child processes

@dataclass
class Child:
    """One finished child: exit status, resource usage, result record."""

    start: float
    returncode: int
    timed_out: bool
    cpu_s: float
    maxrss_mib: float
    result: dict | None
    log: Path

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.result is not None

    def describe(self) -> str:
        if self.timed_out:
            what = "timed out"
        elif self.returncode != 0:
            what = f"exited {self.returncode}"
        else:
            what = "wrote no result"
        tail = self.log.read_text(errors="replace")[-2000:].strip()
        return f"child {what}; log {self.log}:\n{tail}"


def _child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    # the spill directory and any other temporary file stay in the checkout
    env["TMPDIR"] = str(tmp)
    return env


def _stop_group(pgid: int) -> None:
    """Kill whatever is left in a child's session and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def allowed_cpus() -> list[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin(cpus: list[int] | None):
    if not cpus or not hasattr(os, "sched_setaffinity"):
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def spawn(spec: dict, workdir: Path, timeout: float,
          cpus: list[int] | None = None) -> Child:
    """Run ``python -m bench.child`` on ``spec`` and reap it with wait4.

    The child sets up on the last of ``cpus``; the study, and every
    worker it forks, runs on all of them.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(
        {**spec, "result": str(result_path), "cpus": cpus}))
    log_path = workdir / "child.log"
    tmp = workdir / "tmp"
    tmp.mkdir(exist_ok=True)
    timed_out = False
    with log_path.open("wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bench.child", str(spec_path)],
            cwd=ROOT, env=_child_env(tmp), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            preexec_fn=_pin(cpus[-1:] if cpus else None),
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - start > timeout:
                    timed_out = True
                    os.killpg(proc.pid, signal.SIGKILL)
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            _stop_group(proc.pid)
            proc.wait()
            raise
        # the status is consumed here, so Popen must not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(proc.pid)
    result = None
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
    return Child(
        start=start,
        returncode=proc.returncode,
        timed_out=timed_out,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mib=usage.ru_maxrss / 1024,  # KiB on Linux
        result=result,
        log=log_path,
    )


def store_files(root: Path) -> dict[str, int]:
    """Size of every file under ``root``, keyed by its relative path."""
    return {
        os.path.relpath(os.path.join(d, f), root):
            os.stat(os.path.join(d, f)).st_size
        for d, _, files in os.walk(root) for f in files
    }


def calibrate(cpu: int) -> tuple[float, tuple[float, float]]:
    """Seconds for a fixed pure-Python loop on ``cpu``, and its interval.

    Scaled like the metrics, it checks the scaling: the loop is other
    work than the probe's step, so if the two respond differently to a
    change of the host, the scaled loop time moves.
    """
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    try:
        start = time.monotonic()
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        return time.perf_counter() - t0, (start, time.monotonic())
    finally:
        if pinned:
            os.sched_setaffinity(0, allowed)


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


class HostProbes:
    """One :mod:`bench.probe` process per CPU the children run on."""

    def __init__(self, cpus: list[int], out: Path):
        self.cpus = cpus
        self.out = out
        self._procs: list[tuple[int, subprocess.Popen, Path]] = []
        #: cpu -> (step start times, step seconds), once stopped
        self.steps: dict[int, tuple[list, list]] = {}

    def start(self) -> None:
        for cpu in self.cpus:
            path = self.out / f"probe-{cpu}.json"
            proc = subprocess.Popen(
                [sys.executable, "-m", "bench.probe", str(cpu), str(path)],
                cwd=ROOT, stdin=subprocess.DEVNULL, start_new_session=True,
            )
            self._procs.append((cpu, proc, path))
        # let the probes start before the first child
        time.sleep(PROBE_WARMUP_S)

    def stop(self) -> None:
        """Stop every probe, wait for it, and load its steps."""
        for _, proc, _ in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for cpu, proc, path in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if path.exists():
                rows = sorted(json.loads(path.read_text())["samples"])
                self.steps[cpu] = ([row[0] for row in rows],
                                   [row[1] for row in rows])
        self._procs = []

    def step(self, cpus: list[int], start: float, end: float) -> float:
        """Harmonic mean of the probe steps in ``[start, end]``, geometric
        mean over ``cpus``."""
        logs = []
        for cpu in cpus:
            times, steps = self.steps.get(cpu, ([], []))
            if not times:
                raise RuntimeError(f"the host probe on CPU {cpu} "
                                   "recorded no step")
            lo, hi = start, end
            while True:
                i = bisect.bisect_left(times, lo)
                j = bisect.bisect_right(times, hi)
                if j - i >= MIN_PROBE_STEPS or (i == 0 and j == len(times)):
                    break
                lo -= probe.PERIOD_S
                hi += probe.PERIOD_S
            logs.append(math.log(statistics.harmonic_mean(steps[i:j])))
        return math.exp(sum(logs) / len(logs))

    def scale(self, cpus: list[int], start: float, end: float) -> float:
        """Factor that takes a time measured in the interval to the
        reference host speed."""
        return REF_STEP_S / self.step(cpus, start, end)

    def mean_steps(self) -> dict[str, float]:
        return {str(cpu): statistics.harmonic_mean(steps)
                for cpu, (_, steps) in self.steps.items() if steps}


def _at_reference(value: float, unit: str | None, factor: float) -> float:
    """A per-layer value scaled to the reference host speed by ``factor``."""
    if unit in ("s", "ms"):
        return value * factor
    if unit in ("1/s", "B/s"):
        return value / factor
    return value


# ----------------------------------------------------------------------
# one workload's state across a harness run

@dataclass
class WorkloadRun:
    workload: Workload
    seed: int
    projects: int | None
    out: Path
    #: The report sha256 every repeat must produce: the committed one at
    #: the default seed, else the first one seen (the prefill's, for the
    #: incremental workload, whose repeats must reproduce the cold run).
    reference: str | None
    #: The CPUs its children run on (set-up on the last one alone).
    cpus: list | None = None
    attempted: int = 0
    failed: int = 0
    #: metric -> raw samples, and for a time the interval each measured
    samples: dict = field(default_factory=dict)
    windows: dict = field(default_factory=dict)
    busy: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    #: (raw wall seconds, interval) of the traced repeats
    traced_walls: list = field(default_factory=list)
    shas: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    oracle: dict | None = None
    kept_store: Path | None = None
    #: Incremental only: the projects each repeat recomputes, and the
    #: store files (relative paths) it must write back.
    edited: list | None = None
    rewritten: list | None = None
    _serial: int = 0

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def incremental(self) -> bool:
        return self.workload.edits > 0

    @property
    def timeout(self) -> float:
        return min(MAX_CHILD_S, 10 * self.workload.budget_s)

    def _spec(self, mode: str, store: Path, **extra) -> dict:
        w = self.workload
        return {
            "mode": mode, "seed": self.seed,
            "projects": self.projects or w.projects, "jobs": w.jobs,
            "dialect": w.dialect, "limit_memory_mb": w.limit_memory_mb,
            "edits": w.edits, "edited": self.edited, "store": str(store),
            **extra,
        }

    def _workdir(self, label: str) -> Path:
        self._serial += 1
        return self.out / "tmp" / f"{self.name}-{self._serial:03d}-{label}"

    @property
    def _incremental_store(self) -> Path:
        return self.out / "tmp" / f"{self.name}-store"

    def prefill(self) -> None:
        """Untimed: the cold study that fills the incremental store.

        It is untimed, so it runs with a worker on each of up to two
        CPUs, as many as the parallel workload uses.  The store it writes
        does not depend on the number of workers, which the repeats
        check by writing back exactly the files the edit removed.
        """
        cpus = allowed_cpus()[-2:]
        child = spawn(
            self._spec("prefill", self._incremental_store, jobs=len(cpus)),
            self._workdir("prefill"), MAX_CHILD_S, cpus,
        )
        if not child.ok:
            self.problems.append(f"prefill: {child.describe()}")
            return
        result = child.result
        if not self._same_report(result["sha256"]):
            return
        # three map shards per edited project plus the reduce tail
        want = 3 * len(result["edited"]) + 4
        if len(result["rewritten"]) != want:
            self.problems.append(
                f"prefill invalidated {len(result['rewritten'])} "
                f"artifacts, expected {want}")
            return
        self.edited = result["edited"]
        self.rewritten = result["rewritten"]

    def _same_report(self, sha: str) -> bool:
        if self.reference is None:
            self.reference = sha
        self.shas.add(sha)
        if sha != self.reference:
            self.problems.append(
                f"report sha256 {sha} != {self.reference}")
            return False
        return True

    def _sample(self, name: str, value: float,
                window: tuple[float, float] | None = None) -> None:
        self.samples.setdefault(name, []).append(value)
        if window is not None:
            self.windows.setdefault(name, []).append(window)

    def _setup_sample(self, child: Child) -> None:
        ready = child.result["ready"]
        self._sample("setup_s", ready - child.start, (child.start, ready))

    @property
    def setup_samples(self) -> int:
        return len(self.samples.get("setup_s", ()))

    def setup_probe(self) -> None:
        workdir = self._workdir("setup")
        child = spawn(self._spec("setup", workdir / "store"), workdir,
                      self.timeout, self.cpus)
        if child.ok:
            self._setup_sample(child)
        else:
            self.problems.append(f"setup probe: {child.describe()}")

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)

    def repeat(self, traced: bool) -> None:
        """One timed repeat (restoring the store first when incremental)."""
        self.attempted += 1
        workdir = self._workdir("traced" if traced else "run")
        if self.incremental:
            if self.rewritten is None:
                self._fail("no prefilled store to edit")
                return
            store = self._incremental_store
            # back to the pre-edit store: the prefill's invalidation,
            # replayed on the files the previous repeat wrote back
            for path in self.rewritten:
                (store / path).unlink(missing_ok=True)
        else:
            store = workdir / "store"
        before = store_files(store)
        trace_path = workdir / "trace.json"
        child = spawn(
            self._spec("run", store,
                       trace=str(trace_path) if traced else None),
            workdir, self.timeout, self.cpus,
        )
        if not child.ok:
            self._fail(f"repeat {self.attempted}: {child.describe()}")
            return
        run = child.result
        if not self._same_report(run["sha256"]):
            self.failed += 1
            return
        after = store_files(store)
        written = sorted(set(after) - set(before))
        if self.incremental and written != self.rewritten:
            self._fail(f"repeat {self.attempted} wrote {len(written)} "
                       f"artifacts, expected the {len(self.rewritten)} "
                       "the edit invalidated")
            return
        jobs = self.workload.jobs
        study = (run["study_end"] - run["wall_s"], run["study_end"])
        if traced:
            trace = json.loads(trace_path.read_text())
            problems = tracing.check_layers(trace, run, run["cold"])
            if problems:
                self._fail("layer self-check: " + "; ".join(problems))
                return
            self.traced.append(tracing.layer_metrics(trace, run))
            self.traced_walls.append((run["wall_s"], study))
            shutil.copyfile(trace_path, self.out / f"{self.name}.trace.json")
        else:
            self._sample("wall_s", run["wall_s"], study)
            self._sample("cpu_s", child.cpu_s - run["cpu_ready"], study)
            self._sample("peak_rss_mib", child.maxrss_mib)
            self._sample("store_mib",
                         (sum(after.values()) - sum(before.values())) / 2**20)
            self._setup_sample(child)
            self.busy.append(run["workers_cpu_s"] / (jobs * run["wall_s"]))
        if not self.incremental:
            if traced:
                shutil.rmtree(store, ignore_errors=True)
            else:
                # the last untraced store is kept for the oracle
                if self.kept_store is not None:
                    shutil.rmtree(self.kept_store, ignore_errors=True)
                self.kept_store = store

    def check_oracle(self) -> None:
        """The oracle spot-check, in a child that first takes a set-up
        sample."""
        store = self._incremental_store if self.incremental \
            else self.kept_store
        if store is None:
            return
        workdir = self._workdir("oracle")
        child = spawn(
            self._spec("oracle", store,
                       setup_store=str(workdir / "setup-store")),
            workdir, MAX_CHILD_S, self.cpus,
        )
        if not child.ok:
            self.problems.append(f"oracle: {child.describe()}")
            return
        self._setup_sample(child)
        self.oracle = {"checked": child.result["checked"],
                       "mismatches": child.result["mismatches"]}
        self.problems.extend(self.oracle["mismatches"])

    # -- results ---------------------------------------------------------
    def _scaled(self, probes: HostProbes, metric: str, samples,
                windows) -> list[float]:
        # set-up runs on the last CPU only (see spawn)
        cpus = self.cpus[-1:] if metric == "setup_s" else self.cpus
        return [value * probes.scale(cpus, *window)
                for value, window in zip(samples, windows)]

    def end_to_end(self, catalogue: Catalogue, probes: HostProbes) -> dict:
        """Every end-to-end metric; times at the reference host speed."""
        out = {}
        for metric in catalogue.end_to_end:
            raw = self.samples.get(metric.name)
            if not raw:
                continue
            if metric.name in self.windows:
                values = self._scaled(probes, metric.name, raw,
                                      self.windows[metric.name])
                extra = {"raw_samples": raw}
            else:
                values, extra = raw, {}
            out[metric.name] = {**summary(values), **extra,
                                "unit": metric.unit}
        return out

    def per_layer(self, catalogue: Catalogue, probes: HostProbes) -> dict:
        """Every per-layer metric; times and rates at the reference host
        speed of the traced repeat they come from."""
        if not self.traced:
            return {}
        units = {m.name: m.unit for m in catalogue.per_layer}
        traced = []
        for metrics, (_, window) in zip(self.traced, self.traced_walls):
            factor = probes.scale(self.cpus, *window)
            traced.append({name: _at_reference(value, units.get(name), factor)
                           for name, value in metrics.items()})
        merged = {
            name: statistics.median(t[name] for t in traced)
            for name in traced[0]
        }
        if self.busy:
            merged["perf.pool.busy_frac"] = statistics.median(self.busy)
        walls = self.samples.get("wall_s")
        if walls:
            traced_walls = self._scaled(probes, "wall_s",
                                        *zip(*self.traced_walls))
            untraced = self._scaled(probes, "wall_s", walls,
                                    self.windows["wall_s"])
            merged["trace.overhead_frac"] = (
                statistics.median(traced_walls)
                / statistics.median(untraced) - 1
            )
        return {
            name: {"value": merged[name], "unit": units[name]}
            for name in units if name in merged
        }

    @property
    def correct(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# the run

@dataclass
class Plan:
    """What to run: ``trace`` is ``"off"``, ``"pairs"`` or ``"full"``.

    ``off`` measures untraced repeats only; ``pairs`` alternates an
    untraced and a traced repeat per workload; ``full`` runs each
    workload's fixed number of untraced repeats, then one traced
    repeat.  With ``seconds`` set, rounds replace the fixed counts and
    continue while the next one is expected to end within half a round
    of the budget (at least one round runs).
    """

    trace: str = "full"
    seconds: float | None = None


def _rounds(runs: list[WorkloadRun], plan: Plan):
    """Yield one round at a time: a list of ``(run, traced)`` pairs."""
    index = 0
    while True:
        if plan.trace == "pairs":
            order = (False, True) if index % 2 == 0 else (True, False)
            yield [(run, traced) for run in runs for traced in order]
        elif plan.seconds is not None:
            yield [(run, False) for run in runs]
        else:
            batch = [(run, False) for run in runs
                     if run.attempted < run.workload.repeats]
            if not batch:
                return
            yield batch
        index += 1


def execute(runs: list[WorkloadRun], plan: Plan,
            calib_cpu: int) -> list[tuple[float, tuple[float, float]]]:
    """Run the schedule; returns the calibration samples."""
    for run in runs:
        if run.incremental:
            run.prefill()
    calib = []
    durations = []
    began = time.monotonic()
    for batch in _rounds(runs, plan):
        round_start = time.monotonic()
        calib.append(calibrate(calib_cpu))
        for run, traced in batch:
            print(f"[bench] {run.name} repeat {run.attempted + 1}"
                  f"{' (traced)' if traced else ''}", file=sys.stderr)
            run.repeat(traced)
        durations.append(time.monotonic() - round_start)
        if plan.seconds is not None:
            # start another round unless it would overrun the budget
            # by more than half a round: on average a run measures
            # for about the budget
            elapsed = time.monotonic() - began
            if elapsed + statistics.median(durations) / 2 > plan.seconds:
                break
    if plan.trace == "full":
        calib.append(calibrate(calib_cpu))
        for run in runs:
            print(f"[bench] {run.name} traced repeat", file=sys.stderr)
            run.repeat(traced=True)
    for run in runs:
        # the oracle child takes the last set-up sample
        while run.setup_samples < MIN_SETUP_SAMPLES - 1:
            run.setup_probe()
        run.check_oracle()
    return calib


def load_expected(seed: int, projects: int | None) -> dict:
    """Committed report digests, applicable at the default seed and size."""
    if seed != DEFAULT_SEED or projects is not None:
        return {}
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())["report_sha256"]


def run_benchmark(
    catalogue: Catalogue,
    workloads: list[Workload],
    *,
    seed: int,
    plan: Plan,
    out: Path,
    projects: int | None = None,
) -> dict:
    """Run the plan and return the results record (also written to out)."""
    shutil.rmtree(out / "tmp", ignore_errors=True)
    (out / "tmp").mkdir(parents=True)
    expected = load_expected(seed, projects)
    cpus = allowed_cpus()
    runs = [
        WorkloadRun(workload=w, seed=seed, projects=projects, out=out,
                    reference=expected.get(w.name), cpus=cpus[-w.jobs:])
        for w in workloads
    ]
    probes = HostProbes(sorted({c for run in runs for c in run.cpus}),
                        out / "tmp")
    try:
        probes.start()
        try:
            calib = execute(runs, plan, cpus[-1])
        finally:
            probes.stop()
    finally:
        shutil.rmtree(out / "tmp", ignore_errors=True)
    scaled_calib = [value * probes.scale(cpus[-1:], *window)
                    for value, window in calib]
    record = {
        "format": "bench-results-v1",
        "seed": seed,
        "projects": projects,
        "plan": {"trace": plan.trace, "seconds": plan.seconds},
        "host": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "calib_s": statistics.median(scaled_calib)
            if calib else None,
            "calib_samples": scaled_calib,
            "calib_raw_samples": [value for value, _ in calib],
            "probe_step_s": probes.mean_steps(),
            "ref_step_s": REF_STEP_S,
        },
        "correct": all(run.correct for run in runs),
        "workloads": {},
    }
    for run in runs:
        record["workloads"][run.name] = {
            "attempted": run.attempted,
            "failed": run.failed,
            "failed_frac": run.failed / run.attempted
            if run.attempted else 0.0,
            "sha256": sorted(run.shas),
            "expected_sha256": expected.get(run.name),
            "oracle": run.oracle,
            "problems": run.problems,
            "cpus": run.cpus,
            "end_to_end": run.end_to_end(catalogue, probes),
            "per_layer": run.per_layer(catalogue, probes),
        }
    (out / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    return record
