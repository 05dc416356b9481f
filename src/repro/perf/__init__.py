"""Performance layer: parse caching, parallel drivers, stage timing.

The extraction pipeline (corpus → mine → measure → figures) is
embarrassingly parallel across projects and dominated by DDL parsing;
this package supplies the three pieces of engineering that make the
study scale:

* :mod:`repro.perf.cache` — a content-addressed memo of ``parse_schema``
  keyed on (sha256 of the DDL text, dialect), with an optional on-disk
  store shared across processes and runs;
* :mod:`repro.perf.timing` — the per-stage wall-clock breakdown carried
  by :class:`~repro.analysis.study.StudyResult`;
* :mod:`repro.perf.parallel` — picklable worker functions and the
  backpressured ``window_map`` behind the pipeline's map fan-out;
* :mod:`repro.perf.fragments` — the incremental statement-level parse
  engine behind the cache's miss path (fragment + element reuse);
* :mod:`repro.perf.pool` — the reusable warm worker pool shared by the
  generate and mine fan-outs.
"""

from .cache import CacheStats, ParseCache, cached_parse_schema
from .pool import shutdown_pools, warm_pool
from .timing import StudyTimings, stage_timer

__all__ = [
    "CacheStats",
    "ParseCache",
    "StudyTimings",
    "cached_parse_schema",
    "shutdown_pools",
    "stage_timer",
    "warm_pool",
]
