"""The traced run's layer map and span arithmetic."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from bench import tracing
from bench.tracing import Binding, LayerMapError, SpanRecorder


def test_every_declared_call_site_exists():
    resolved = tracing.resolve()
    assert len(resolved) == len(tracing.BINDINGS)


def test_a_moved_binding_fails_loudly():
    moved = Binding("vcs.parse_repository", "repro.corpus.generator",
                    "no_such_parser")
    with pytest.raises(LayerMapError, match="no_such_parser"):
        tracing.resolve((*tracing.BINDINGS, moved))


def _trace(spans, role="main"):
    return {"layers": ["outer", "inner"],
            "processes": [{"pid": 1, "role": role, "spans": spans}]}


def test_self_time_subtracts_direct_children():
    trace = _trace([
        [0, 0.0, 10.0, -1, 0],
        [1, 2.0, 5.0, 0, 7],
        [1, 6.0, 7.0, 0, 3],
    ])
    stats, covered = tracing.summarise(trace)
    assert stats["outer"].self_s == pytest.approx(6.0)
    assert stats["inner"].self_s == pytest.approx(4.0)
    assert stats["inner"].calls == 2
    assert stats["inner"].units == 10
    assert covered == pytest.approx(10.0)


def test_worker_spans_count_but_do_not_cover_the_main_process():
    trace = _trace([[0, 0.0, 4.0, -1, 0]], role="worker")
    stats, covered = tracing.summarise(trace)
    assert stats["outer"].self_s == pytest.approx(4.0)
    assert covered == 0.0


def _leaf(x):
    return x + 1


def test_generator_spans_cover_only_the_work_between_yields(tmp_path):
    recorder = SpanRecorder(tmp_path, layers=["gen", "leaf"])
    leaf = recorder.wrap(1, _leaf)
    gen = recorder.wrap_generator(0, lambda n: (leaf(i) for i in range(n)))
    assert list(gen(3)) == [1, 2, 3]
    spans = recorder.spans
    generator_spans = [i for i, s in enumerate(spans) if s[0] == 0]
    # one span per next(), the last one ending in StopIteration
    assert len(generator_spans) == 4
    assert all(spans[i][3] in generator_spans
               for i, s in enumerate(spans) if s[0] == 1)
    assert all(s[3] == -1 for s in spans if s[0] == 0)


def _work(x):
    return _traced_leaf(x)


_traced_leaf = _leaf


def test_forked_workers_write_their_spans(tmp_path):
    global _traced_leaf
    recorder = SpanRecorder(tmp_path, layers=["leaf"])
    _traced_leaf = recorder.wrap(0, _leaf)
    try:
        pool = ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("fork")
        )
        with pool:
            assert list(pool.map(_work, range(6))) == [1, 2, 3, 4, 5, 6]
    finally:
        _traced_leaf = _leaf
    trace = recorder.collect()
    workers = [p for p in trace["processes"] if p["role"] == "worker"]
    assert workers
    assert sum(len(p["spans"]) for p in workers) == 6
    assert recorder.spans == []  # the main process itself called nothing


def test_check_layers_reports_an_unused_layer():
    layers = list(tracing.LAYERS)
    spans = [[layers.index(name), 0.0, 1.0, -1, 0] for name in layers
             if name != "diff.diff_schemas"]
    trace = {"layers": layers,
             "processes": [{"pid": 1, "role": "main", "spans": spans}]}
    run = {"cache": {"hits": 0, "misses": 1,
                     "statements": {"fallback_parses": 1}}}
    problems = tracing.check_layers(trace, run, cold=1)
    assert problems == ["diff.diff_schemas: never called",
                        "pipeline.store.put: 1 calls, expected 7"]
