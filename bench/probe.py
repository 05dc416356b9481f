"""The host-speed probe: how fast one CPU runs fixed Python work right now.

Run as ``python -m bench.probe CPU OUT`` by the harness, one process per
CPU its children are pinned to.  The probe wakes every
:data:`PERIOD_S`, times one short step of fixed pure-Python work on its
CPU and goes back to sleep, so it takes about 2% of that CPU.  On
``SIGTERM`` (or when its parent has gone) it writes its samples to
``OUT`` as JSON and exits.

The step is the kind of work the study does most: a regex scan of DDL
text, a dict count, a sort and a JSON dump.  A program that does a fixed
amount of work in an interval finishes in a time inversely proportional
to its mean speed over that interval, so the harness scales a time by
the harmonic mean of the steps taken during it.  On the 2-CPU host the
benchmark was written on, whose speed moved by a factor of two within
minutes, the study's wall time and that harmonic mean correlated at 0.98
with a log-log slope of 1.0 to 1.1, over three series of 60 to 90
repeats.

Nothing here imports ``repro``: the probe must not speed up or slow
down with the program it measures.
"""

from __future__ import annotations

import json
import os
import re
import signal
import sys
import time

#: Seconds between the starts of two steps.
PERIOD_S = 0.02

_DDL = ("CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(40) "
        "NOT NULL, email TEXT);\n") * 20
_WORD = re.compile(r"\w+")


def step() -> None:
    """The fixed work: about half a millisecond on the reference host."""
    counts: dict[str, int] = {}
    for match in _WORD.finditer(_DDL):
        word = match.group(0).lower()
        counts[word] = counts.get(word, 0) + 1
    json.dumps(sorted(counts.items()))
    [line.split(" ") for line in _DDL.splitlines()]


def main(argv: list[str]) -> int:
    cpu, out = int(argv[1]), argv[2]
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    samples: list[tuple[float, float]] = []

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    try:
        while os.getppid() == parent:
            start = time.monotonic()
            t0 = time.perf_counter()
            step()
            samples.append((start, time.perf_counter() - t0))
            time.sleep(max(0.0, PERIOD_S - (time.monotonic() - start)))
    finally:
        with open(out, "w") as fh:
            json.dump({"cpu": cpu, "samples": samples}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
