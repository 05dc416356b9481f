"""Shared fixtures: every test runs in a fresh run context.

The autouse :func:`run_context` fixture makes a new
:class:`~repro.obs.context.RunContext` current for each test: its own
tracer, warning recorder, metrics, telemetry bus, progress channel and
parse cache, so nothing one test records reaches the next.  The
artifact store is the one exception: a single in-memory store serves
the whole session — the test's context and every in-process
``repro.cli.main`` run without a store directory — so a study one test
resolved replays for the next instead of being recomputed.  A test
that needs a cold store sets ``run_context.store`` to a fresh one;
its CLI runs follow.
"""

import pytest

import repro.cli as cli
from repro.obs.context import RunContext
from repro.pipeline.store import MemoryStore

_SESSION_STORE = MemoryStore()


@pytest.fixture(autouse=True)
def run_context(monkeypatch):
    """The test's current run context, over the session's warm store."""
    context = RunContext()
    context.store = _SESSION_STORE
    build_run_context = cli._run_context

    def over_the_test_store(args):
        command = build_run_context(args)
        if command.store_dir is None:
            command.store = context.store
        return command

    monkeypatch.setattr(cli, "_run_context", over_the_test_store)
    with context.active():
        yield context
