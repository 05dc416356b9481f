"""A reusable warm worker pool for the study fan-outs.

Every parallel entry point used to build (and tear down) its own
``ProcessPoolExecutor``: ``generate_corpus(jobs=N)`` spun one up, threw
it away, and the study's mine fan-out immediately paid worker
start-up *again*.  For the fused generate+mine flow that start-up tax
is pure waste: the worker functions are stateless module-level callables
and the processes are perfectly reusable.

:func:`warm_pool` hands out a process-wide executor keyed on

* ``jobs`` — pools of different widths coexist (tests mix widths), and
* the run's parse-cache directory — each worker's run context opens
  that directory when the process starts, so a run with another cache
  dir gets other workers rather than ones writing to a stale location.

The pool holds processes, not run state: ``worker_init`` gives every
worker a fresh run context, and each task says whether to trace.

Pools are retained LRU up to a small cap, a broken pool (a worker
died; the executor poisons itself permanently) is detected and
replaced transparently, and everything is shut down at interpreter
exit.  Reuse is invisible to correctness: a worker keeps no parse state
between histories (the parse cache's in-memory layers live for one),
and its disk layer returns oracle-equivalent results whether warm or
cold.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

#: How many distinct (jobs, cache_dir) pools to keep alive at once.
_MAX_POOLS = 4

_pools: dict[tuple[int, str], ProcessPoolExecutor] = {}


def warm_pool(
    jobs: int, cache_dir: str | Path | None = None
) -> ProcessPoolExecutor:
    """The shared executor for ``jobs`` workers (created on first use).

    ``cache_dir`` is the on-disk parse cache the workers use (``None``:
    memory only).  Callers use the returned executor *without* shutting
    it down (no ``with`` block): it stays warm for the next fan-out.  A
    pool whose workers died is replaced transparently, so callers never
    see a ``BrokenProcessPool`` left over from an earlier run's crash.
    """
    cache_dir = str(cache_dir) if cache_dir else None
    key = (jobs, cache_dir or "")
    pool = _pools.get(key)
    if pool is not None and getattr(pool, "_broken", False):
        _pools.pop(key, None)
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None
    if pool is None:
        # imported here: parallel pulls in the whole mining/analysis
        # stack, which itself imports repro.perf at package init
        from .parallel import worker_init

        pool = ProcessPoolExecutor(
            max_workers=jobs, initializer=worker_init, initargs=(cache_dir,)
        )
        _pools[key] = pool
    else:
        # LRU refresh: re-insert at the end of the dict order
        _pools.pop(key)
        _pools[key] = pool
    while len(_pools) > _MAX_POOLS:
        _, oldest = next(iter(_pools.items()))
        _evict(oldest)
    return pool


def _evict(target: ProcessPoolExecutor) -> None:
    for key, pool in list(_pools.items()):
        if pool is target:
            _pools.pop(key, None)
    target.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> int:
    """Shut down every live pool; returns how many were closed.

    Mostly for tests and the atexit hook — long-lived callers just keep
    the pools warm.
    """
    closed = 0
    for pool in list(_pools.values()):
        pool.shutdown(wait=False, cancel_futures=True)
        closed += 1
    _pools.clear()
    return closed


atexit.register(shutdown_pools)
