"""``python -m bench.compare BASE.json CAND.json``: judge two result files.

Applies each end-to-end metric's bound from ``BENCHMARK.json`` per
(metric, workload) and prints one row per workload.  A cell reads

* ``worse`` / ``better`` — the candidate's median moved past the bound;
* ``same`` — it stayed within the bound;
* ``unresolved`` — either side's spread (interquartile range over the
  median) is wider than the bound, so the medians cannot be told apart,
  unless every candidate sample beats every base sample (``better``).

Times in a results file are scaled to the reference host speed (see
:mod:`bench.harness`), and so is its calibration loop,
``host.calib_s``.  When that differs by more than :data:`HOST_DRIFT`
between the two files, the host changed in a way the scaling did not
follow, and the whole comparison is marked ``host-drift``.

Exit status: 0 when nothing is worse, 1 when some cell is worse, 2 on
host drift or unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalogue import Metric, load

#: Calibration change beyond which two result files are not comparable.
HOST_DRIFT = 0.10


def _spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] \
        if entry["value"] else 0.0


def verdict(metric: Metric, base: dict, cand: dict) -> tuple[str, float]:
    """``(verdict, relative change of the median)`` for one cell."""
    sign = 1.0 if metric.better == "lower" else -1.0
    if base["value"]:
        change = cand["value"] / base["value"] - 1
    else:
        change = 0.0 if not cand["value"] else float("inf")
    if max(_spread(base), _spread(cand)) > metric.bound:
        beats = (max(sign * v for v in cand["samples"])
                 < min(sign * v for v in base["samples"]))
        return ("better" if beats else "unresolved"), change
    if sign * change > metric.bound:
        return "worse", change
    if sign * change < -metric.bound:
        return "better", change
    return "same", change


def compare(base: dict, cand: dict, metrics) -> tuple[dict, float | None]:
    """Per-workload verdict rows, and the calibration drift (or None)."""
    rows = {}
    for name, cand_wl in cand["workloads"].items():
        base_wl = base["workloads"].get(name)
        if base_wl is None:
            continue
        rows[name] = {
            m.name: verdict(m, base_wl["end_to_end"][m.name],
                            cand_wl["end_to_end"][m.name])
            for m in metrics
            if m.name in base_wl["end_to_end"]
            and m.name in cand_wl["end_to_end"]
        }
    calib = (base["host"].get("calib_s"), cand["host"].get("calib_s"))
    drift = calib[1] / calib[0] - 1 if all(calib) else None
    return rows, drift


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench.compare", description=__doc__.split("\n")[0]
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("cand", type=Path)
    args = parser.parse_args(argv)
    metrics = load().end_to_end
    base = json.loads(args.base.read_text())
    cand = json.loads(args.cand.read_text())
    rows, drift = compare(base, cand, metrics)
    if not rows:
        print("no workload in common", file=sys.stderr)
        return 2
    width = max(len(name) for name in rows)
    print(f"{'workload':<{width}}  " + "  ".join(
        f"{m.name + f' (+{m.bound:.0%})':<24}" for m in metrics))
    for name, cells in rows.items():
        print(f"{name:<{width}}  " + "  ".join(
            f"{f'{change:+.1%} {what}':<24}"
            for what, change in (cells.get(m.name, ("missing", 0.0))
                                 for m in metrics)))
    if drift is not None:
        print(f"host calibration drift {drift:+.1%}")
    if drift is not None and abs(drift) > HOST_DRIFT:
        print("host-drift: the host changed between the two sets in a "
              "way the speed scaling did not follow; the comparison is "
              "void")
        return 2
    worse = any(what == "worse" for cells in rows.values()
                for what, _ in cells.values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
