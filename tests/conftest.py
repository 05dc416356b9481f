"""Shared fixtures: every test runs in a fresh run context.

The autouse :func:`run_context` fixture makes a new
:class:`~repro.obs.context.RunContext` current for each test: its own
tracer, warning recorder, metrics, progress channel and parse cache,
so nothing one test records reaches the next.  The
artifact store is the one exception: a single
:class:`~repro.pipeline.store.DirStore` under a session temp directory
serves the whole session — the test's context and every in-process
``repro.cli.main`` run without a store directory — so a study one test
resolved replays for the next instead of being recomputed, through the
same envelopes (codec, pickle, zlib, digest) a ``--store-dir`` run
writes.  A test that needs a cold store sets ``run_context.store`` to
a fresh one; its CLI runs follow.
"""

import pytest

import repro.cli as cli
from repro.obs.context import RunContext
from repro.pipeline.store import DirStore

#: ``cli._run_context`` as the CLI has it, before :func:`run_context`
#: wraps it: a test that must see the store a command builds for
#: itself calls it.
BUILD_RUN_CONTEXT = cli._run_context


class RecordedLog(list):
    """An event log that keeps its records in a list.

    Stands in for an :class:`~repro.obs.events.EventLog` wherever a
    test reads back what a tracer, recorder or progress channel wrote.
    """

    def emit(self, record: dict) -> None:
        self.append(record)


@pytest.fixture(scope="session")
def session_store(tmp_path_factory):
    """The warm artifact store every test's run context starts over."""
    return DirStore(tmp_path_factory.mktemp("session-store"))


@pytest.fixture(autouse=True)
def run_context(monkeypatch, session_store):
    """The test's current run context, over the session's warm store."""
    context = RunContext()
    context.store = session_store

    def over_the_test_store(args):
        command = BUILD_RUN_CONTEXT(args)
        if command.store_dir is None:
            command.store = context.store
        return command

    monkeypatch.setattr(cli, "_run_context", over_the_test_store)
    with context.active():
        yield context
