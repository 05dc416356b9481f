"""Per-layer spans recorded from outside the program.

The traced run replaces a declared table of ``(binding module,
attribute)`` call sites with wrappers that record one span per call:
layer, start, end, the enclosing span (from a stack) and a unit count
(commits parsed, bytes lexed, bytes stored).  A binding is the name the
*caller* looks up, so ``repro.perf.parallel.mine_project`` is patched,
not ``repro.mining.miner.mine_project`` — the latter would never be
called through the patched name.  Generators (``iter_shards``,
``window_map``) get one span per ``next()``, so a generator's self time
is the work it does between yields.

Spans stay in memory.  Pool workers are forked after the wrappers are
installed, so they inherit them; an after-fork hook empties the
inherited buffer and registers an exit finalizer that writes the
worker's spans next to the main process's.  A layer's self time is its span's
duration minus the durations of its direct children (spans nest
strictly within one process).

Importing this module imports nothing from ``repro``: the harness
parent uses :func:`summarise` and :func:`layer_metrics` on plain JSON.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


class LayerMapError(RuntimeError):
    """A declared call site no longer exists."""


def _commits(args, kwargs, result) -> int:
    return len(result.commits)


def _text_bytes(args, kwargs, result) -> int:
    return len(args[0])


def _stored_bytes(args, kwargs, result) -> int:
    # args: (store, key, payload, ...); stat after the span has closed
    return args[0].size_of(args[1]) or 0


@dataclass(frozen=True)
class Binding:
    """One traced call site: the layer it feeds and where it is bound."""

    layer: str
    module: str
    attribute: str  # "name" or "Class.method"
    generator: bool = False
    units: Callable | None = None


BINDINGS: tuple[Binding, ...] = (
    Binding("corpus.generate_project", "repro.perf.parallel",
            "generate_project"),
    Binding("vcs.parse_repository", "repro.corpus.generator",
            "parse_repository", units=_commits),
    Binding("vcs.format_git_log", "repro.corpus.generator", "format_git_log"),
    Binding("corpus.emit_ddl", "repro.corpus.generator", "emit_ddl"),
    Binding("corpus.inject_noise", "repro.corpus.generator", "inject_noise"),
    Binding("mining.mine_project", "repro.perf.parallel", "mine_project"),
    Binding("mining.project_activity", "repro.mining.miner",
            "mine_project_activity"),
    Binding("perf.cache.parse", "repro.mining.history",
            "cached_parse_schema"),
    Binding("diff.diff_schemas", "repro.mining.history", "diff_schemas"),
    Binding("sqlparser.segment", "repro.perf.fragments",
            "segment_statements"),
    Binding("sqlparser.tokenize", "repro.perf.fragments", "tokenize",
            units=_text_bytes),
    Binding("sqlparser.parse_schema", "repro.perf.cache", "parse_schema"),
    Binding("analysis.analyze_project", "repro.analysis.measures",
            "analyze_project"),
    *(
        Binding("analysis.figures", "repro.analysis.figures", name)
        for name in (
            "fig4_sync_histogram",
            "fig5_duration_scatter",
            "fig6_advance_table",
            "fig7_always_advance",
            "fig8_attainment",
            "headline_numbers",
        )
    ),
    Binding("analysis.sec7_statistics", "repro.analysis.statistics",
            "sec7_statistics"),
    Binding("report.build_study_report", "repro.report",
            "build_study_report"),
    Binding("pipeline.plan", "repro.pipeline.graph", "corpus_specs"),
    Binding("pipeline.plan", "repro.pipeline.graph", "plan_shards"),
    Binding("pipeline.plan", "repro.pipeline.graph", "iter_shards",
            generator=True),
    Binding("pipeline.window_map", "repro.pipeline.graph", "window_map",
            generator=True),
    Binding("pipeline.store.get", "repro.pipeline.store", "DirStore.get"),
    Binding("pipeline.store.put", "repro.pipeline.store", "DirStore.put",
            units=_stored_bytes),
)

#: Layer names in first-declared order (a layer may have several sites).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(b.layer for b in BINDINGS))

#: Layers a cold shard may skip: noise is injected into ~40% of
#: projects, and the monolithic parser only runs on text the segmenter
#: refuses.
OPTIONAL_LAYERS = frozenset({"corpus.inject_noise", "sqlparser.parse_schema"})


def resolve(bindings=BINDINGS) -> list[tuple[Binding, object, str, object]]:
    """``(binding, owner, name, original)`` for every declared site.

    Raises :class:`LayerMapError` naming *every* missing target, so a
    refactor that moves a binding fails loudly before any run instead
    of reading as a layer that took no time.
    """
    resolved, missing = [], []
    for binding in bindings:
        try:
            owner = importlib.import_module(binding.module)
            *path, name = binding.attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{binding.module}.{binding.attribute} ({exc})")
            continue
        if not callable(original):
            missing.append(f"{binding.module}.{binding.attribute} "
                           "(not callable)")
            continue
        resolved.append((binding, owner, name, original))
    if missing:
        raise LayerMapError("traced call sites not found: "
                            + "; ".join(missing))
    return resolved


class SpanRecorder:
    """In-memory spans of one process, handed down to forked workers.

    A span is ``[layer_index, start, end, parent_index, units]``.
    ``out_dir`` receives one ``spans-<pid>.json`` per forked worker when
    that worker exits.
    """

    def __init__(self, out_dir: str | Path, layers=LAYERS):
        self.layers = list(layers)
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pid = os.getpid()
        multiprocessing.util.register_after_fork(
            self, SpanRecorder._after_fork
        )

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self.pid = os.getpid()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> None:
        """Write this (worker) process's spans to ``out_dir``."""
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))

    def _open(self, layer: int) -> list:
        span = [layer, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: int, fn, units=None):
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if units is not None:
                span[4] = units(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, layer: int, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = self._open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item
            finally:
                inner.close()

        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Check every declared site, then patch them all."""
        for binding, owner, name, original in resolve(bindings):
            layer = self.layers.index(binding.layer)
            if binding.generator:
                wrapper = self.wrap_generator(layer, original)
            else:
                wrapper = self.wrap(layer, original, binding.units)
            setattr(owner, name, wrapper)

    def collect(self) -> dict:
        """The main process's spans plus every flushed worker file."""
        processes = [{"pid": self.pid, "role": "main",
                      "spans": self.spans}]
        for path in sorted(self.out_dir.glob("spans-*.json")):
            worker = json.loads(path.read_text())
            processes.append({"pid": worker["pid"], "role": "worker",
                              "spans": worker["spans"]})
        return {"layers": self.layers, "processes": processes}


# ----------------------------------------------------------------------
# parent side: plain-JSON summaries

@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    units: int = 0
    durations: list = field(default_factory=list)


def summarise(trace: dict) -> tuple[dict[str, LayerStats], float]:
    """Per-layer totals over all processes, and the main process's covered time.

    The covered time is the summed self time of the main process's spans,
    which equals the union of its top-level spans.
    """
    layers = trace["layers"]
    stats = {name: LayerStats() for name in layers}
    main_self = 0.0
    for process in trace["processes"]:
        spans = process["spans"]
        covered = [0.0] * len(spans)
        for layer, start, end, parent, units in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (layer, start, end, parent, units), child in zip(spans, covered):
            entry = stats[layers[layer]]
            entry.calls += 1
            entry.self_s += (end - start) - child
            entry.units += units
            entry.durations.append(end - start)
            if process["role"] == "main":
                main_self += (end - start) - child
    return stats, main_self


def _percentile_ms(values: list, q: int) -> float:
    if len(values) < 2:
        return 1000.0 * (values[0] if values else 0.0)
    return 1000.0 * statistics.quantiles(values, n=100)[q - 1]


def _rate(units: int, seconds: float) -> float:
    return units / seconds if seconds > 0 else 0.0


#: The fallback parser is reported by calls alone; the fan-out's self
#: time is reported as ``pipeline.window_map.wait_s``.
_NO_SELF_METRIC = ("sqlparser.parse_schema", "pipeline.window_map")

_CALL_METRICS = (
    "vcs.parse_repository", "perf.cache.parse", "sqlparser.tokenize",
    "sqlparser.parse_schema", "diff.diff_schemas", "pipeline.store.put",
    "pipeline.store.get",
)


def layer_metrics(trace: dict, run: dict) -> dict[str, float]:
    """Every per-layer metric of one traced repeat.

    ``run`` is the child's result record: traced ``wall_s`` plus the
    program's own counters (parse cache, store).  The two run-level
    ratios that need the untraced repeats (``perf.pool.busy_frac``,
    ``trace.overhead_frac``) are added by the harness.
    """
    stats, main_self = summarise(trace)
    out: dict[str, float] = {}
    for name in LAYERS:
        if name not in _NO_SELF_METRIC:
            out[f"{name}.self_s"] = stats[name].self_s
    for name in _CALL_METRICS:
        out[f"{name}.calls"] = stats[name].calls
    mine = stats["mining.mine_project"].durations
    out["mining.mine_project.p50_ms"] = _percentile_ms(mine, 50)
    out["mining.mine_project.p90_ms"] = _percentile_ms(mine, 90)
    vcs = stats["vcs.parse_repository"]
    out["vcs.commits_per_s"] = _rate(vcs.units, vcs.self_s)
    lex = stats["sqlparser.tokenize"]
    out["sqlparser.tokenize.bytes_per_s"] = _rate(lex.units, lex.self_s)
    out["pipeline.store.put.mib"] = stats["pipeline.store.put"].units / 2**20
    out["pipeline.window_map.wait_s"] = stats["pipeline.window_map"].self_s
    cache = run["cache"]
    out["perf.cache.hit_rate"] = cache["hit_rate"]
    out["perf.cache.stmt_reuse_rate"] = cache["statements"]["reuse_rate"]
    out["perf.cache.fallback_parses"] = cache["statements"][
        "fallback_parses"]
    out["pipeline.store.hit_rate"] = run["store"]["hit_rate"]
    out["trace.coverage_frac"] = main_self / run["wall_s"]
    return out


def check_layers(trace: dict, run: dict, cold: int) -> list[str]:
    """What a traced repeat should have called, given ``cold`` projects.

    Every non-optional layer must have run, and the per-project layers
    exactly once per cold project — a binding that silently stopped
    being called reads as a failure, never as a zero.  Returns the
    problems found (empty when the layer map is intact).
    """
    stats, _ = summarise(trace)
    problems = [
        f"{name}: never called"
        for name in LAYERS
        if name not in OPTIONAL_LAYERS and stats[name].calls == 0
    ]
    expected = {
        "corpus.generate_project": cold,
        "vcs.parse_repository": cold,
        "mining.mine_project": cold,
        "analysis.analyze_project": cold,
        # three map shards per cold project plus four reduce artifacts
        "pipeline.store.put": 3 * cold + 4,
        "analysis.sec7_statistics": 1,
        "report.build_study_report": 1,
        "perf.cache.parse": run["cache"]["hits"] + run["cache"]["misses"],
        "sqlparser.parse_schema": run["cache"]["statements"][
            "fallback_parses"],
    }
    for name, want in expected.items():
        if stats[name].calls != want:
            problems.append(
                f"{name}: {stats[name].calls} calls, expected {want}"
            )
    return problems
