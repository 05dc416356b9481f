"""Performance layer: parse caching, parallel drivers, stage timing.

The extraction pipeline (corpus → mine → measure → figures) is
embarrassingly parallel across projects and dominated by DDL parsing;
this package supplies the three pieces of engineering that make the
study scale:

* :mod:`repro.perf.cache` — a memo of ``parse_schema`` keyed on
  (dialect, DDL text) that lives for one schema history;
* :mod:`repro.perf.timing` — the per-stage wall-clock breakdown carried
  by :class:`~repro.analysis.study.StudyResult`;
* :mod:`repro.perf.parallel` — the map shard's unit (``map_shard``)
  and the backpressured ``window_map`` behind the pipeline's fan-out;
* :mod:`repro.perf.fragments` — the incremental statement-level parse
  engine behind the cache's miss path (fragment + element reuse);
* :mod:`repro.perf.pool` — the reusable warm worker pool shared by the
  generate and mine fan-outs.
"""

from .cache import CacheStats, ParseCache, cached_parse_schema
from .pool import shutdown_pools, warm_pool
from .timing import StudyTimings

__all__ = [
    "CacheStats",
    "ParseCache",
    "StudyTimings",
    "cached_parse_schema",
    "shutdown_pools",
    "warm_pool",
]
