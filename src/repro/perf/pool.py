"""A reusable warm worker pool for the study fan-outs.

Every parallel entry point used to build (and tear down) its own
``ProcessPoolExecutor``: ``generate_corpus(jobs=N)`` spun one up, threw
it away, and the study's map fan-out immediately paid worker
start-up *again*.  For the fused per-shard unit that start-up tax
is pure waste: the worker functions are stateless module-level callables
and the processes are perfectly reusable.

:func:`warm_pool` hands out one process-wide executor per ``jobs``
width (pools of different widths coexist; tests mix widths).  The pool
holds processes, not run state: ``worker_init`` gives every worker a
fresh run context, and each task says whether to trace.

Pools are retained LRU up to a small cap, a broken pool (a worker
died; the executor poisons itself permanently) is detected and
replaced transparently, and everything is shut down at interpreter
exit.  Reuse is invisible to correctness: a worker keeps no parse state
between histories (the parse cache lives for one).
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor

#: How many pools of distinct widths to keep alive at once.
_MAX_POOLS = 4

_pools: dict[int, ProcessPoolExecutor] = {}


def warm_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared executor for ``jobs`` workers (created on first use).

    Callers use the returned executor *without* shutting it down (no
    ``with`` block): it stays warm for the next fan-out.  A pool whose
    workers died is replaced transparently, so callers never see a
    ``BrokenProcessPool`` left over from an earlier run's crash.
    """
    pool = _pools.get(jobs)
    if pool is not None and getattr(pool, "_broken", False):
        _pools.pop(jobs, None)
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None
    if pool is None:
        # imported here: parallel pulls in the whole mining/analysis
        # stack, which itself imports repro.perf at package init
        from .parallel import worker_init

        pool = ProcessPoolExecutor(max_workers=jobs, initializer=worker_init)
        _pools[jobs] = pool
    else:
        # LRU refresh: re-insert at the end of the dict order
        _pools.pop(jobs)
        _pools[jobs] = pool
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
