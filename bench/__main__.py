"""``python -m bench``: run the study benchmark and print its metrics.

With no workload options it runs every workload in ``BENCHMARK.json``
round-robin for its fixed number of repeats, then one traced repeat per
workload, and prints every end-to-end and per-layer metric.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are reported at the reference host speed (see ``bench.harness``).
``--seconds S`` replaces the fixed repeat counts with a time budget for
the measured rounds.  ``--trace 0`` measures untraced repeats and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repeats and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from .catalogue import DEFAULT_SEED, ROOT, load, render
from .harness import Plan, run_benchmark


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads",
        help="comma-separated workload names (default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"corpus seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float,
                        help="time budget of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced repeats only; "
                        "1: untraced and traced pairs")
    parser.add_argument("--no-trace", action="store_true",
                        help="same as --trace 0")
    parser.add_argument("--list", action="store_true",
                        help="print the workload and metric catalogue")
    parser.add_argument("--projects", type=int,
                        help="override every workload's corpus size "
                        "(harness self-tests; disables committed digests)")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out",
                        help="output directory (default bench/out)")
    return parser


def _format(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.4e}"


def _print_tables(record: dict) -> None:
    for name, wl in record["workloads"].items():
        print(f"{name}: {wl['attempted']} repeats, {wl['failed']} failed "
              f"(failed_frac {wl['failed_frac']:.2f} ratio)")
        for metric, m in wl["end_to_end"].items():
            print(f"  {metric:<38} {_format(m['value']):>10} {m['unit']:<6}"
                  f" [{_format(m['q1'])} .. {_format(m['q3'])}] n={m['n']}")
        for metric, m in wl["per_layer"].items():
            print(f"  {metric:<38} {_format(m['value']):>10} {m['unit']}")
        for problem in wl["problems"]:
            print(f"  PROBLEM: {problem}")
    host = record["host"]
    steps = ", ".join(f"cpu {cpu} {_format(1e3 * step)} ms"
                      for cpu, step in host["probe_step_s"].items())
    print(f"host: calib_s {host['calib_s']} (at the reference speed), "
          f"probe step {steps} (reference {_format(1e3 * host['ref_step_s'])}"
          f" ms), cpu_count {host['cpu_count']}")


def _result_line(record: dict, trace: str) -> dict:
    keep = {"off": ("end_to_end",), "pairs": ("per_layer",),
            "full": ("end_to_end", "per_layer")}[trace]
    workloads = record["workloads"]
    metrics = {}
    for name, wl in workloads.items():
        for group in keep:
            for metric, m in wl[group].items():
                key = metric if len(workloads) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": record["correct"],
        "attempted": sum(wl["attempted"] for wl in workloads.values()),
        "failed": sum(wl["failed"] for wl in workloads.values()),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    catalogue = load()
    if args.list:
        print(render(catalogue))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    names = (args.workloads.split(",") if args.workloads
             else [w.name for w in catalogue.workloads])
    workloads = [catalogue.workload(name.strip()) for name in names]
    if args.no_trace or args.trace == 0:
        trace = "off"
    elif args.trace == 1:
        trace = "pairs"
    else:
        trace = "full"
    record = run_benchmark(
        catalogue, workloads, seed=args.seed,
        plan=Plan(trace=trace, seconds=args.seconds),
        out=args.out, projects=args.projects,
    )
    _print_tables(record)
    print(json.dumps(_result_line(record, trace)))
    return 0 if record["correct"] else 1


def _exit_on_sigterm(signum, frame):
    # unwinds through the harness's cleanup: children and probes are
    # stopped and waited for, and no result line is printed
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
