"""Command-line interface.

Subcommands::

    repro-study generate --out DIR [--seed N] [--jobs N]   # build + save
    repro-study study [--seed N | --corpus DIR]   # run the full study
               [--figure all|4|5|6|7|8|stats] [--csv PATH]
               [--jobs N] [--cache-dir DIR] [--store-dir DIR]
               [--profile] [--scale N]
               [--trace FILE] [--log-json FILE] [--manifest FILE]
               [--progress]
    repro-study report --out report.md            # Markdown study report
    repro-study pipeline status [--seed N] [--store-dir DIR] [--shards]
               [--json]
    repro-study pipeline explain STAGE [--project NAME] [--json]
    repro-study pipeline invalidate [STAGE | --project NAME]
    repro-study case NAME [--seed N]              # one project's diagram
    repro-study diff OLD.sql NEW.sql              # atomic changes
    repro-study impact OLD.sql NEW.sql SRC...     # change impact
    repro-study validate SCHEMA.sql SRC...        # query validation
    repro-study trace-view FILE [--sort X] [--min-ms N]  # render a trace
    repro-study obs export {chrome,prom,flame} FILE      # export telemetry
    repro-study obs history [--json] [--limit N] [--since ISO]
    repro-study obs timeline --stage mine         # cross-run trend line
    repro-study obs serve --store-dir DIR [--port N]     # telemetry HTTP
    repro-study obs top --url http://...          # live terminal dashboard
    repro-study bench-check BASELINE CANDIDATE    # perf-regression check
    repro-study bench-check CANDIDATE --against-history N  # vs registry

The observability flags (available on ``generate``, ``study`` and
``report``) never change results: ``--trace`` writes the hierarchical
span tree of the run, ``--log-json`` streams structured JSONL events
(span closes, warnings, progress heartbeats, a closing run marker),
``--manifest`` records the run's seed, jobs, cache config, versions,
host environment, stage timings, metric snapshot and warnings, and
``--progress`` prints a live done/total + ETA line to stderr.

``obs export`` converts finished telemetry to standard formats (Chrome
trace-event JSON for Perfetto, Prometheus text exposition, flamegraph
folded stacks); ``bench-check`` compares two perf records (run-registry
records such as the ``BENCH_*.json`` files, or run manifests) and fails
on perf regressions.

Live telemetry: ``repro-study study --serve [PORT]`` binds a loopback
HTTP server next to the run (``/healthz``, ``/metrics``, ``/events``
SSE, ``/runs``, ``/status``) that observes the telemetry bus without
changing any result; ``obs serve`` runs the same server standalone over
a store, and ``obs top`` renders the event stream as a terminal
dashboard.

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


class InputError(Exception):
    """An input file a command cannot use.

    ``main`` prints it as one line naming the file and exits with
    ``code`` instead of a traceback.
    """

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _read_text(path, *, what: str = "file", code: int = 2) -> str:
    """A text input file, decoded like git output.

    Undecodable bytes read as U+FFFD, with one warning line naming the
    file, so a latin-1 comment never stops a diff.
    """
    from .mining.gitrepo import decode_utf8

    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise InputError(f"no such {what}: {path}", code) from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}", code) from None
    text, replaced = decode_utf8(data)
    if replaced:
        print(
            f"warning: {path} is not UTF-8; undecodable bytes read as U+FFFD",
            file=sys.stderr,
        )
    return text


def _read_json_object(path, *, what: str = "file", code: int = 2) -> dict:
    """A JSON object from an input file read by :func:`_read_text`."""
    import json

    text = _read_text(path, what=what, code=code)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}", code) from None
    if not isinstance(payload, dict):
        raise InputError(
            f"{path} is not a JSON object (got {type(payload).__name__})",
            code,
        )
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Joint source and schema co-evolution study toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_perf_flags(command) -> None:
        command.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for the project fan-out (default: 1)",
        )
        command.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="on-disk parse cache shared across runs and workers",
        )
        command.add_argument(
            "--store-dir",
            default=None,
            metavar="DIR",
            help="on-disk artifact store: clean pipeline stages replay "
            "from DIR instead of recomputing (implies a parse cache "
            "under DIR unless --cache-dir is given)",
        )

    def add_obs_flags(command) -> None:
        command.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="write the run's hierarchical span trace (JSON) to FILE",
        )
        command.add_argument(
            "--log-json",
            default=None,
            metavar="FILE",
            help="stream structured JSONL events (spans, warnings) to FILE",
        )
        command.add_argument(
            "--manifest",
            default=None,
            metavar="FILE",
            help="write the run manifest (JSON) to FILE",
        )
        command.add_argument(
            "--progress",
            action="store_true",
            help="print a live done/total progress line to stderr",
        )

    def add_scale_flag(command) -> None:
        command.add_argument(
            "--scale",
            type=int,
            default=1,
            metavar="N",
            help="shrink the canonical corpus by N (each taxon keeps "
            "count/N projects, at least one) — micro-studies for CI "
            "and tests; ignored with --corpus",
        )
        command.add_argument(
            "--projects",
            type=int,
            default=None,
            metavar="N",
            help="absolute corpus size: re-size the canonical taxa mix "
            "to exactly N synthetic projects (10k-100k scale-out runs; "
            "the corpus streams, it is never held whole); overrides "
            "--scale, ignored with --corpus",
        )

    def add_dialect_flag(command) -> None:
        from .workload import registered_workloads

        command.add_argument(
            "--dialect",
            default=None,
            choices=sorted(registered_workloads()),
            help="run under a registered workload (vendor mix, history "
            "source, shard-key dialect component); omitted or "
            "'default' keeps the canonical mysql/postgres corpus and "
            "its store keys byte-identical",
        )

    generate = sub.add_parser(
        "generate", help="generate a corpus and save it to disk"
    )
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=None)
    add_perf_flags(generate)
    add_obs_flags(generate)
    add_scale_flag(generate)
    add_dialect_flag(generate)

    study = sub.add_parser("study", help="run the full study")
    study.add_argument("--seed", type=int, default=None)
    study.add_argument(
        "--corpus", default=None, help="load a saved corpus instead"
    )
    study.add_argument(
        "--figure",
        default="all",
        choices=["all", "4", "5", "6", "7", "8", "stats", "headline"],
    )
    study.add_argument("--csv", default=None, help="export measures CSV")
    study.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage timing breakdown and cache hit rates",
    )
    study.add_argument(
        "--serve",
        nargs="?",
        const=0,
        type=int,
        default=None,
        metavar="PORT",
        help="serve live telemetry over HTTP while the run executes "
        "(/healthz /metrics /events /runs /status on 127.0.0.1; "
        "PORT 0 or omitted picks an ephemeral port, announced on "
        "stderr); never changes results",
    )
    study.add_argument(
        "--serve-linger",
        action="store_true",
        help="with --serve: keep serving after the run finishes, "
        "until interrupted",
    )
    study.add_argument(
        "--limit-memory",
        type=int,
        default=None,
        metavar="MB",
        help="cap driver RSS at MB MiB: the streaming map loop warns "
        "and shrinks its fan-out window at 80%% of the cap, fails the "
        "run (exit 3) if the cap is crossed, and spills aggregate "
        "partials to disk; results stay byte-identical",
    )
    add_perf_flags(study)
    add_obs_flags(study)
    add_scale_flag(study)
    add_dialect_flag(study)

    report = sub.add_parser(
        "report", help="write a full Markdown study report"
    )
    report.add_argument("--out", required=True, help="output path")
    report.add_argument(
        "--format",
        default="markdown",
        choices=["markdown", "html"],
        help="report format (default: markdown)",
    )
    report.add_argument("--seed", type=int, default=None)
    report.add_argument(
        "--corpus", default=None, help="load a saved corpus instead"
    )
    add_perf_flags(report)
    add_obs_flags(report)
    add_scale_flag(report)
    add_dialect_flag(report)

    pipeline = sub.add_parser(
        "pipeline",
        help="inspect or invalidate the stage-artifact store",
        description=(
            "the study is a sharded map/reduce graph (per-project "
            "generate > mine > analyze shards, then aggregate > "
            "figures/statistics > report) whose outputs persist in the "
            "artifact store; status shows each stage's fingerprint and "
            "warm/cold state (with per-project shard detail under "
            "--shards), invalidate drops a stage — or one project's "
            "shards via --project — and everything downstream of it"
        ),
    )
    pipe_sub = pipeline.add_subparsers(dest="pipeline_command", required=True)
    pipe_status = pipe_sub.add_parser(
        "status", help="per-stage fingerprints and warm/cold state"
    )
    pipe_status.add_argument(
        "--shards",
        action="store_true",
        help="also list per-project shard warmth for the map stages",
    )
    pipe_status.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="with --shards: show at most N shard rows (default: a "
        "50-row page for large corpora; pass 0 for the full list)",
    )
    pipe_status.add_argument(
        "--offset",
        type=int,
        default=0,
        metavar="N",
        help="with --shards: skip the first N shard rows (pagination)",
    )
    pipe_status.add_argument(
        "--json",
        action="store_true",
        help="emit the status rows (and drift warnings) as JSON",
    )
    pipe_status.add_argument(
        "--fail-on-stale",
        action="store_true",
        help="exit nonzero when any stage's stored source digest "
        "disagrees with the code (version drift) — the CI guard "
        "against un-bumped stage versions",
    )
    pipe_explain = pipe_sub.add_parser(
        "explain",
        help="why a stage's artifact is warm, stale, or cold",
        description=(
            "diffs every stored fingerprint breakdown against the "
            "current plan: a stale artifact names the component that "
            "moved (code_version bump, params/profile digest, upstream "
            "digest), a cold one has no prior generation to diff"
        ),
    )
    pipe_explain.add_argument(
        "stage",
        help="stage to explain (generate, mine, analyze, aggregate, "
        "figures, statistics, report)",
    )
    pipe_explain.add_argument(
        "--project",
        default=None,
        help="narrow a map stage to one project's shard",
    )
    pipe_explain.add_argument(
        "--json",
        action="store_true",
        help="emit the explain records as JSON",
    )
    add_obs_flags(pipe_explain)
    pipe_invalidate = pipe_sub.add_parser(
        "invalidate",
        help="drop one stage's artifact and its dependents (or all)",
    )
    pipe_invalidate.add_argument(
        "stage",
        nargs="?",
        default=None,
        help="stage to invalidate (generate, mine, analyze, aggregate, "
        "figures, statistics, report); omit for all stages",
    )
    pipe_invalidate.add_argument(
        "--project",
        default=None,
        help="invalidate one project's map shards (plus the reduce "
        "tail) instead of a whole stage",
    )
    for pipe_cmd in (pipe_status, pipe_explain, pipe_invalidate):
        pipe_cmd.add_argument("--seed", type=int, default=None)
        pipe_cmd.add_argument(
            "--format",
            default="markdown",
            choices=["markdown", "html"],
            help="report format the report stage is keyed on",
        )
        add_perf_flags(pipe_cmd)
        add_scale_flag(pipe_cmd)
        add_dialect_flag(pipe_cmd)

    case = sub.add_parser("case", help="show one project's joint progress")
    case.add_argument("name", help="project name (or a unique substring)")
    case.add_argument("--seed", type=int, default=None)

    diff = sub.add_parser("diff", help="diff two DDL files")
    diff.add_argument("old")
    diff.add_argument("new")

    impact = sub.add_parser(
        "impact", help="impact of a schema change on source files"
    )
    impact.add_argument("old")
    impact.add_argument("new")
    impact.add_argument("sources", nargs="+")

    validate = sub.add_parser(
        "validate", help="validate embedded queries against a schema"
    )
    validate.add_argument("schema")
    validate.add_argument("sources", nargs="+")

    trace_view = sub.add_parser(
        "trace-view",
        help="render a --trace JSON file as an indented span tree",
    )
    trace_view.add_argument("file", help="trace file written by --trace")
    trace_view.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="N",
        help="only show spans up to depth N (root = 0)",
    )
    trace_view.add_argument(
        "--sort",
        default="start",
        choices=["start", "self", "total"],
        help="sibling order: recording order, or descending "
        "self/total time (default: start)",
    )
    trace_view.add_argument(
        "--min-ms",
        type=float,
        default=None,
        metavar="MS",
        help="hide subtrees whose total time is below MS milliseconds",
    )

    obs = sub.add_parser(
        "obs", help="work with recorded telemetry (exporters)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    export = obs_sub.add_parser(
        "export",
        help="export telemetry to a standard tool format",
        description=(
            "chrome/flame read a --trace JSON file; prom reads a run "
            "manifest (or a bare metrics snapshot JSON)"
        ),
    )
    export.add_argument(
        "kind",
        choices=["chrome", "prom", "flame"],
        help="chrome: trace-event JSON for Perfetto; prom: Prometheus "
        "text exposition; flame: flamegraph folded stacks",
    )
    export.add_argument(
        "file", help="the telemetry file (--trace output, or a manifest)"
    )
    export.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the export to FILE instead of stdout",
    )
    history = obs_sub.add_parser(
        "history",
        help="table the store's append-only run-history registry",
        description=(
            "every study/report run against a --store-dir appends one "
            "record to <store>/runs/history.jsonl; this lists them"
        ),
    )
    history.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N records",
    )
    history.add_argument(
        "--since",
        default=None,
        metavar="ISO",
        help="show only records recorded at or after this ISO 8601 "
        "date/time (e.g. 2026-08-01 or 2026-08-01T12:00)",
    )
    history.add_argument(
        "--json",
        action="store_true",
        help="emit the records as a JSON array",
    )
    history.add_argument(
        "--import",
        dest="import_file",
        default=None,
        metavar="FILE",
        help="append one record: a run-registry record (a BENCH_*.json "
        "file) as is, or the record of a run manifest's run",
    )
    timeline = obs_sub.add_parser(
        "timeline",
        help="render one stage's cross-run trend from the registry",
    )
    timeline.add_argument(
        "--stage",
        default="total",
        metavar="NAME",
        help="stage whose seconds to plot (default: total); "
        "'rss' plots the peak-RSS trend instead",
    )
    timeline.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="plot only the last N records",
    )
    serve = obs_sub.add_parser(
        "serve",
        help="serve live telemetry and store state over HTTP",
        description=(
            "binds a loopback ThreadingHTTPServer exposing /healthz, "
            "/metrics (Prometheus), /events (SSE over the telemetry "
            "bus, Last-Event-ID replay), /runs (registry history) and "
            "/status (stage warm/stale/cold via provenance); serves "
            "until interrupted"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="bind port (default: 0 = ephemeral, announced on stderr)",
    )
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument(
        "--format",
        default="markdown",
        choices=["markdown", "html"],
        help="report format the /status report stage is keyed on",
    )
    add_scale_flag(serve)
    top = obs_sub.add_parser(
        "top",
        help="live terminal dashboard over a served event stream",
        description=(
            "consumes the /events SSE feed of a --serve run and "
            "renders per-stage progress bars, ETA, cache-reuse rates, "
            "peak RSS and warning counts"
        ),
    )
    top.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="base URL of a serving run (e.g. http://127.0.0.1:8437)",
    )
    top.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="server host when --url is not given",
    )
    top.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="server port when --url is not given",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="S",
        help="minimum seconds between redraws (default: 0.5)",
    )
    top.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="stop after N envelopes (default: run until the stream "
        "ends)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="print frames as blocks instead of clearing the screen "
        "(forced when stdout is not a terminal)",
    )
    for obs_cmd in (history, timeline, serve):
        obs_cmd.add_argument(
            "--store-dir",
            default=None,
            metavar="DIR",
            help="artifact store whose run registry to read "
            "(default: REPRO_STORE_DIR)",
        )

    bench_check = sub.add_parser(
        "bench-check",
        help="compare two perf records and fail on regressions",
        description=(
            "BASELINE and CANDIDATE are run-registry records (the "
            "BENCH_*.json files) or run manifests (--manifest), freely "
            "mixed; with --against-history N the single positional is "
            "the candidate and the baseline is the median of the last N "
            "store-registry records of the same projects, jobs and "
            "dialect"
        ),
    )
    bench_check.add_argument("baseline", help="baseline perf record (JSON)")
    bench_check.add_argument(
        "candidate",
        nargs="?",
        default=None,
        help="candidate perf record (JSON); omitted with "
        "--against-history, where the first positional is the candidate",
    )
    bench_check.add_argument(
        "--against-history",
        type=int,
        default=None,
        metavar="N",
        help="compare against the median of the last N comparable "
        "run-registry records instead of a baseline file",
    )
    bench_check.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="artifact store whose run registry --against-history reads "
        "(default: REPRO_STORE_DIR)",
    )
    bench_check.add_argument(
        "--stage",
        default=None,
        metavar="NAME",
        help="focus the seconds comparison on one stage "
        "(e.g. 'mine' for the mine microbenchmark record)",
    )
    bench_check.add_argument(
        "--report-only",
        action="store_true",
        help="print and persist the verdict but always exit 0",
    )
    bench_check.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the machine-readable verdict to FILE",
    )
    bench_check.add_argument(
        "--allow-env-mismatch",
        action="store_true",
        help="downgrade a host-environment mismatch from fail to warn",
    )

    return parser


def _run_context(args):
    """The one :class:`~repro.obs.context.RunContext` a command runs in.

    ``--store-dir`` implies a parse cache under it unless
    ``--cache-dir`` is given — one flag, both layers, so a warm run is
    warm all the way down.  Directories no flag names come from
    ``REPRO_CACHE_DIR`` / ``REPRO_STORE_DIR``; both layers are built on
    first use, so a command that runs no pipeline creates neither.
    """
    from .obs.context import RunContext

    cache_dir = getattr(args, "cache_dir", None)
    store_dir = getattr(args, "store_dir", None)
    if store_dir and not cache_dir:
        cache_dir = str(Path(store_dir) / "parse-cache")
    return RunContext.from_env(
        command=args.command,
        trace_path=getattr(args, "trace", None),
        log_path=getattr(args, "log_json", None),
        manifest_path=getattr(args, "manifest", None),
        progress=bool(getattr(args, "progress", False)),
        cache_dir=cache_dir,
        store_dir=store_dir,
    )


def _dialect_of(args) -> str | None:
    """The run's workload dialect, with the default normalised to None.

    ``None`` keeps every canonical store key (and registry record)
    byte-identical to the pre-workload layout — ``--dialect default``
    must not re-key a warm canonical store.
    """
    dialect = getattr(args, "dialect", None)
    return None if dialect in (None, "default") else dialect


def _pipeline(args, context):
    """The :class:`~repro.pipeline.graph.Pipeline` a command's flags ask for.

    The one place the CLI turns flags into a run: ``study``, ``report``,
    ``case``, ``generate``, every ``pipeline`` subcommand and the
    ``/status`` endpoint of ``--serve`` / ``obs serve`` all build here,
    so they agree on seed, corpus size, workload, jobs and report
    format.  ``--corpus DIR`` loads a saved corpus as a materialised,
    content-keyed corpus; flags a command lacks take their defaults.
    The pipeline records into, and stores through, the command's
    ``context``.
    """
    from .corpus import DEFAULT_SEED
    from .pipeline.graph import Pipeline

    corpus = None
    if getattr(args, "corpus", None):
        from .io import load_corpus

        try:
            corpus = load_corpus(args.corpus)
        except (OSError, ValueError) as exc:
            raise InputError(
                f"cannot load the corpus at {args.corpus}: {exc}"
            ) from None
    seed = getattr(args, "seed", None)
    return Pipeline(
        seed=DEFAULT_SEED if seed is None else seed,
        scale=max(1, getattr(args, "scale", 1) or 1),
        projects=getattr(args, "projects", None),
        corpus=corpus,
        jobs=max(1, getattr(args, "jobs", 1) or 1),
        report_format=getattr(args, "format", "markdown"),
        limit_memory_mb=getattr(args, "limit_memory", None),
        dialect=_dialect_of(args),
        context=context,
    )


def _run_pipeline(args, context):
    """Build the pipeline and resolve its study, noting the run facts.

    The pipeline goes on ``args`` before it runs: the ``--serve``
    ``/status`` endpoint reads the running pipeline instead of loading
    the corpus a second time, and the closing run-registry record names
    its seed, workload and reduce-stage fingerprints.
    """
    pipe = _pipeline(args, context)
    args._pipeline = pipe
    context.jobs = pipe.jobs
    context.dialect = pipe.dialect
    if pipe.corpus is None:
        context.seed = pipe.seed
    context.study = pipe.study()
    return pipe


def _cmd_generate(args, context) -> int:
    from .corpus import generate_corpus
    from .io import save_corpus

    pipe = _pipeline(args, context)
    context.seed = pipe.seed
    context.jobs = pipe.jobs
    context.dialect = pipe.dialect
    corpus = generate_corpus(
        seed=pipe.seed, profiles=pipe.profiles(), jobs=pipe.jobs,
        dialect=pipe.dialect,
    )
    context.corpus_size = len(corpus)
    root = save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} projects to {root}")
    if pipe.dialect:
        from .report import render_vendor_mix

        print(
            f"workload {pipe.dialect}: "
            + render_vendor_mix([p.spec.vendor for p in corpus])
        )
    return 0


def _cmd_study(args, context) -> int:
    from .io import export_measures_csv
    from .report import (
        render_fig4,
        render_fig5,
        render_fig6,
        render_fig7,
        render_fig8,
        render_statistics,
    )

    study = _run_pipeline(args, context).study()
    want = args.figure
    blocks: list[str] = []
    with context.tracer.span("figures", figure=args.figure), \
            study.timings.timed("figures"):
        if want in ("all", "headline"):
            headline = study.headline()
            blocks.append(
                "Headline numbers:\n" + "\n".join(
                    f"  {key}: {value}" for key, value in headline.items()
                )
            )
        if want in ("all", "4"):
            blocks.append(render_fig4(study.fig4()))
        if want in ("all", "5"):
            blocks.append(render_fig5(study.fig5()))
        if want in ("all", "6"):
            blocks.append(render_fig6(study.fig6()))
        if want in ("all", "7"):
            blocks.append(render_fig7(study.fig7()))
        if want in ("all", "8"):
            blocks.append(render_fig8(study.fig8()))
        if want in ("all", "stats"):
            blocks.append(render_statistics(study.statistics()))
    if args.profile:
        blocks.append(study.timings.render())
    print("\n\n".join(blocks))
    if args.csv:
        path = export_measures_csv(study, args.csv)
        print(f"\nmeasures CSV written to {path}")
    return 0


def _cmd_report(args, context) -> int:
    # the rendered document is itself a stage artifact, so a warm store
    # replays it
    text = _run_pipeline(args, context).report()
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"report written to {path} ({len(text)} chars)")
    return 0


def _cmd_pipeline(args, context) -> int:
    from .pipeline.stages import STAGES

    pipe = _pipeline(args, context)
    if args.pipeline_command == "invalidate":
        stage = args.stage
        project = getattr(args, "project", None)
        if project is not None:
            if stage is not None:
                print(
                    "pass either a stage or --project, not both",
                    file=sys.stderr,
                )
                return 2
            try:
                removed = pipe.invalidate(project=project)
            except KeyError:
                print(
                    f"unknown project {project!r} (see pipeline status "
                    "--shards for the shard list)",
                    file=sys.stderr,
                )
                return 2
            print(
                f"invalidated project {project!r}: "
                f"{removed} artifact(s) removed"
            )
            return 0
        if stage is not None and stage not in STAGES:
            print(
                f"unknown stage {stage!r} (expected one of: "
                + ", ".join(STAGES) + ")",
                file=sys.stderr,
            )
            return 2
        removed = pipe.invalidate(stage)
        print(
            f"invalidated {stage or 'all stages'}: "
            f"{removed} artifact(s) removed"
        )
        return 0
    if args.pipeline_command == "explain":
        import json

        from .obs.events import provenance_event

        try:
            records = pipe.explain(
                args.stage, project=getattr(args, "project", None)
            )
        except KeyError as exc:
            print(
                f"unknown stage or project {exc.args[0]!r} "
                "(see pipeline status --shards)",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if context.event_log is not None:
            for record in records:
                context.event_log.emit(provenance_event(record))
        if args.json:
            print(json.dumps(records, indent=2, default=str))
            return 0
        from .obs.provenance import render_explanation

        states = {"warm": 0, "stale": 0, "cold": 0}
        for record in records:
            states[record["state"]] += 1
            print(render_explanation(record))
        if len(records) > 1:
            print(
                f"\n{len(records)} targets: {states['warm']} warm, "
                f"{states['stale']} stale, {states['cold']} cold"
            )
        return 0
    store = pipe.store
    location = getattr(store, "root", None)
    # pagination for the O(N) shard listing: an explicit --limit wins
    # (0 means everything), otherwise large corpora default to one
    # 50-row page so a 50k-shard store never dumps megabytes
    shard_total = pipe.n_projects()
    limit = getattr(args, "limit", None)
    offset = max(0, getattr(args, "offset", 0) or 0)
    if limit is None:
        page = None if shard_total <= 200 else 50
    elif limit <= 0:
        page = None
    else:
        page = limit
    if getattr(args, "json", False):
        import json

        payload = {
            "store": {
                "kind": store.kind,
                "dir": str(location) if location else None,
            },
            "seed": pipe.seed,
            "scale": pipe.scale,
            "format": args.format,
            "dialect": pipe.dialect or "default",
            "stages": pipe.status(),
            "drift": pipe.version_drift(),
        }
        if getattr(args, "shards", False):
            payload["shards"] = pipe.shard_status(limit=page, offset=offset)
            payload["shard_total"] = shard_total
            payload["shard_offset"] = offset
        print(json.dumps(payload, indent=2, default=str))
        if getattr(args, "fail_on_stale", False) and payload["drift"]:
            return 1
        return 0
    print(
        f"store: {store.kind}" + (f" at {location}" if location else "")
        + f" | seed {pipe.seed}, scale {pipe.scale}, format {args.format}"
        + (f", dialect {pipe.dialect}" if pipe.dialect else "")
    )
    header = (
        f"{'stage':<12} {'kind':<7} {'state':<8} {'ver':<4} "
        f"{'shards':>7} {'bytes':>12}  key"
    )
    print(header)
    print("-" * len(header))
    for row in pipe.status():
        if row["kind"] == "map":
            if row["warm"]:
                state = "warm"
            elif row["warm_shards"]:
                state = "partial"
            else:
                state = "cold"
            shard_text = f"{row['warm_shards']}/{row['shards']}"
        else:
            state = "warm" if row["warm"] else "cold"
            shard_text = "-"
        size = row["size_bytes"]
        size_text = f"{size:,}" if size is not None else "-"
        print(
            f"{row['stage']:<12} {row['kind']:<7} {state:<8} "
            f"{row['code_version']:<4} {shard_text:>7} "
            f"{size_text:>12}  {row['fingerprint'][:16]}"
        )
    drift_entries = pipe.version_drift()
    for drift in drift_entries:
        from .obs.events import warn

        message = (
            f"stage-version-stale: {drift['stage']} source changed "
            f"(digest {drift['stored'][:12]} -> {drift['current'][:12]}) "
            f"but code_version is still {drift['code_version']!r}; "
            "bump it to invalidate warm artifacts"
        )
        warn("stage-version-stale", message, stage=drift["stage"])
        print(f"warning: {message}")
    if getattr(args, "shards", False):
        print()
        shard_header = (
            f"{'project':<24} {'generate':<9} {'mine':<9} {'analyze':<9}"
        )
        print(shard_header)
        print("-" * len(shard_header))
        rows = pipe.shard_status(limit=page, offset=offset)
        for row in rows:
            print(
                f"{row['project']:<24} "
                + " ".join(
                    f"{'warm' if row[stage] else 'cold':<9}"
                    for stage in ("generate", "mine", "analyze")
                ).rstrip()
            )
        if page is not None or offset:
            first = offset + 1 if rows else offset
            print(
                f"showing shards {first}-{offset + len(rows)} of "
                f"{shard_total} (page with --limit/--offset; "
                "--limit 0 lists all)"
            )
    if getattr(args, "fail_on_stale", False) and drift_entries:
        return 1
    return 0


def _cmd_case(args, context) -> int:
    from .report import render_joint_progress

    study = _run_pipeline(args, context).study()
    matches = [p for p in study.projects if args.name in p.name]
    if not matches:
        print(f"no project matching {args.name!r}", file=sys.stderr)
        return 1
    project = matches[0]
    print(
        render_joint_progress(
            project.joint,
            title=(
                f"{project.name} — taxon {project.taxon.display_name}, "
                f"{project.duration_months} months"
            ),
        )
    )
    measures = project.coevolution
    print(f"\n10%-synchronicity: {project.sync10:.0%}")
    for alpha in sorted(measures.attainment):
        print(
            f"{alpha:.0%}-attainment at "
            f"{measures.attainment[alpha]:.0%} of life"
        )
    return 0


def _cmd_diff(args, context) -> int:
    from .diff import diff_ddl

    delta = diff_ddl(_read_text(args.old), _read_text(args.new))
    for change in delta:
        print(change)
    breakdown = delta.breakdown
    print(f"\ntotal activity: {breakdown.total}")
    for key, value in breakdown.as_dict().items():
        if key != "total":
            print(f"  {key}: {value}")
    return 0


def _cmd_impact(args, context) -> int:
    from .diff import diff_ddl
    from .querydep import Impact, analyze_impact, extract_from_files

    delta = diff_ddl(_read_text(args.old), _read_text(args.new))
    files = {src: _read_text(src) for src in args.sources}
    queries = extract_from_files(files)
    report = analyze_impact(queries, delta)
    print(
        f"{len(report)} queries, {report.affected_count} affected "
        f"by {delta.total_activity} atomic changes"
    )
    for query_impact in report:
        if query_impact.impact is Impact.UNAFFECTED:
            continue
        query = query_impact.query
        print(f"\n{query.file}:{query.line} [{query_impact.impact.value}]")
        print(f"  {query.text.splitlines()[0][:70]}")
        for reason in query_impact.reasons:
            print(f"  - {reason}")
    return 0


def _cmd_validate(args, context) -> int:
    from .querydep import extract_from_files, validate_queries
    from .sqlparser import parse_schema

    schema = parse_schema(_read_text(args.schema)).schema
    files = {src: _read_text(src) for src in args.sources}
    queries = extract_from_files(files)
    report = validate_queries(queries, schema)
    if report.ok:
        print(f"{len(queries)} queries validate cleanly")
        return 0
    for issue in report:
        print(issue)
    print(f"\n{len(report)} issues in {len(queries)} queries")
    return 1


def _cmd_trace_view(args, context) -> int:
    from .obs.trace import render_trace

    payload = _read_json_object(args.file, what="trace file", code=1)
    print(
        render_trace(
            payload,
            max_depth=args.depth,
            sort=args.sort,
            min_ms=args.min_ms,
        )
    )
    return 0


def _cmd_obs(args, context) -> int:
    limit = getattr(args, "limit", None)
    if limit is not None and limit < 1:
        print(f"obs {args.obs_command}: --limit needs N >= 1", file=sys.stderr)
        return 2
    if args.obs_command == "history":
        return _cmd_obs_history(args, context)
    if args.obs_command == "timeline":
        return _cmd_obs_timeline(args, context)
    if args.obs_command == "serve":
        return _cmd_obs_serve(args, context)
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    return _cmd_obs_export(args)


def _obs_registry(context):
    """The run registry for --store-dir / REPRO_STORE_DIR, or None."""
    from .obs.registry import registry_for_store

    registry = registry_for_store(context.store)
    if registry is None:
        print(
            "no directory artifact store configured — pass --store-dir "
            "(or set REPRO_STORE_DIR); an in-memory store keeps no "
            "run history",
            file=sys.stderr,
        )
    return registry


def _cmd_obs_history(args, context) -> int:
    import json
    import time as time_mod

    registry = _obs_registry(context)
    if registry is None:
        return 2
    if args.import_file:
        from .obs.registry import as_record

        path = Path(args.import_file)
        try:
            record = as_record(_read_json_object(path), str(path))
        except ValueError as exc:
            raise InputError(str(exc)) from None
        registry.append(record)
        print(
            f"imported {path.name} as run {record['run_id']} "
            f"into {registry.path}"
        )
        return 0
    records = registry.records()
    if args.since:
        try:
            from datetime import datetime

            cutoff = datetime.fromisoformat(args.since).timestamp()
        except ValueError:
            print(
                f"obs history: --since {args.since!r} is not an ISO "
                "8601 date/time (e.g. 2026-08-01 or 2026-08-01T12:00)",
                file=sys.stderr,
            )
            return 2
        records = [
            record for record in records
            if (record.get("recorded_at") or 0) >= cutoff
        ]
    if args.limit is not None:
        records = records[-args.limit:]
    if args.json:
        print(json.dumps(records, indent=2, default=str))
        return 0
    if not records:
        print(f"run registry {registry.path} is empty")
        return 0
    # fixed column widths, over-long values clamped: the table must
    # line up no matter what command strings land in the registry
    header = (
        f"{'run':<13} {'when':<17} {'command':<16} {'dialect':<8} "
        f"{'proj':>5} {'jobs':>4} {'total':>8} {'cache':>6} "
        f"{'store':>6} {'rss MiB':>8} {'warn':>5}"
    )
    print(f"registry: {registry.path} ({len(records)} records shown)")
    print(header)
    print("-" * len(header))
    for record in records:
        when = time_mod.strftime(
            "%Y-%m-%d %H:%M",
            time_mod.localtime(record.get("recorded_at") or 0),
        )
        total = (record.get("stages") or {}).get("total")
        cache = (record.get("parse_cache") or {}).get("hit_rate")
        store_rate = (record.get("artifact_store") or {}).get("hit_rate")
        rss = (record.get("resources") or {}).get("peak_rss_bytes")
        # pre-dialect records simply lack the key — render '-' so old
        # registries keep tabling without a migration
        print(
            f"{str(record.get('run_id', '?'))[:13]:<13} {when:<17} "
            f"{str(record.get('command', '?'))[:16]:<16} "
            f"{str(record.get('dialect') or '-')[:8]:<8} "
            f"{record.get('projects') if record.get('projects') is not None else '-':>5} "
            f"{record.get('jobs') if record.get('jobs') is not None else '-':>4} "
            f"{f'{total:.2f}s' if total is not None else '-':>8} "
            f"{f'{cache:.0%}' if cache is not None else '-':>6} "
            f"{f'{store_rate:.0%}' if store_rate is not None else '-':>6} "
            f"{f'{rss / 2**20:.0f}' if rss else '-':>8} "
            f"{record.get('warning_count') if record.get('warning_count') is not None else '-':>5}"
        )
    return 0


def _cmd_obs_timeline(args, context) -> int:
    from .obs.registry import render_timeline

    registry = _obs_registry(context)
    if registry is None:
        return 2
    records = registry.records(limit=args.limit)
    if not records:
        print(f"run registry {registry.path} is empty")
        return 0
    try:
        print(render_timeline(records, args.stage))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_obs_serve(args, context) -> int:
    from .obs.server import ObservabilityServer

    server = ObservabilityServer(
        host=args.host, port=args.port, context=context,
        pipeline_factory=lambda: _pipeline(args, context),
    ).start()
    print(
        f"observability server listening on {server.url} "
        "(/healthz /metrics /events /runs /status; Ctrl-C to stop)",
        file=sys.stderr,
    )
    server.wait()
    return 0


def _cmd_obs_top(args) -> int:
    from .obs.top import run_top, url_envelopes

    if not (args.url or args.port is not None):
        print(
            "obs top: pass --url (or --port) of a serving run",
            file=sys.stderr,
        )
        return 2
    url = args.url or f"http://{args.host}:{args.port}"
    source = url_envelopes(url, limit=args.max_events)
    try:
        run_top(
            source,
            out=sys.stdout,
            interval=args.interval,
            max_events=args.max_events,
            plain=args.plain or not sys.stdout.isatty(),
        )
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(f"obs top: cannot read the event stream: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_obs_export(args) -> int:
    import json

    from .obs.export import chrome_trace, folded_stacks, prometheus_text

    path = Path(args.file)
    payload = _read_json_object(path, code=1)
    try:
        if args.kind == "chrome":
            text = json.dumps(chrome_trace(payload), indent=2) + "\n"
        elif args.kind == "flame":
            text = folded_stacks(payload)
            if text:
                text += "\n"
        else:  # prom — a manifest (its metrics block) or a bare snapshot
            text = prometheus_text(payload.get("metrics", payload))
    except (KeyError, TypeError, ValueError) as exc:
        print(f"cannot export {path} as {args.kind}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"{args.kind} export written to {out} ({len(text)} chars)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench_check(args, context) -> int:
    import json

    from .obs.registry import as_record, history_baseline
    from .obs.regress import compare_records

    def read(path):
        return as_record(_read_json_object(path), path)

    try:
        if args.against_history is not None:
            if args.candidate is not None:
                print(
                    "bench-check: --against-history takes one positional "
                    "(the candidate) — the baseline comes from the "
                    "registry",
                    file=sys.stderr,
                )
                return 2
            if args.against_history <= 0:
                print(
                    "bench-check: --against-history needs N >= 1",
                    file=sys.stderr,
                )
                return 2
            registry = _obs_registry(context)
            if registry is None:
                return 2
            candidate_label = args.baseline
            candidate = read(candidate_label)
            baseline = history_baseline(
                registry.records(), candidate, last=args.against_history
            )
            baseline_label = f"{baseline['command']}@{registry.path}"
        else:
            if args.candidate is None:
                print(
                    "bench-check: CANDIDATE required "
                    "(or pass --against-history N)",
                    file=sys.stderr,
                )
                return 2
            baseline_label, candidate_label = args.baseline, args.candidate
            baseline, candidate = read(baseline_label), read(candidate_label)
    except (OSError, ValueError) as exc:
        print(f"bench-check: {exc}", file=sys.stderr)
        return 2
    report = compare_records(
        baseline,
        candidate,
        stage=args.stage,
        allow_env_mismatch=args.allow_env_mismatch,
    )
    report.baseline, report.candidate = baseline_label, candidate_label
    print(report.render())
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
        print(f"verdict written to {out}")
    if report.failed and not args.report_only:
        return 1
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "study": _cmd_study,
    "report": _cmd_report,
    "pipeline": _cmd_pipeline,
    "case": _cmd_case,
    "diff": _cmd_diff,
    "impact": _cmd_impact,
    "validate": _cmd_validate,
    "trace-view": _cmd_trace_view,
    "obs": _cmd_obs,
    "bench-check": _cmd_bench_check,
}


def _append_run_record(args, context) -> None:
    """Append one registry record for a finished study/report run.

    Runs only for successful ``study``/``report`` runs against a
    directory store — in-memory stores keep no history, and the append
    is best-effort: a registry failure must never fail a run that
    already produced its results.
    """
    pipe = getattr(args, "_pipeline", None)
    if pipe is None:
        return
    from .obs.registry import build_run_record, registry_for_store
    from .pipeline.stages import REDUCE_STAGE_NAMES

    registry = registry_for_store(context.store)
    if registry is None:
        return
    sampled = pipe.corpus is None
    study = pipe.study()
    try:
        registry.append(build_run_record(
            study.timings.as_dict(),
            command=args.command,
            projects=len(study.projects),
            skipped=len(study.skipped),
            warning_count=len(study.warnings),
            seed=pipe.seed if sampled else None,
            scale=pipe.scale if sampled else None,
            jobs=pipe.jobs,
            dialect=pipe.dialect,
            manifest=context.manifest_document,
            fingerprints={
                name: pipe.fingerprint(name) for name in REDUCE_STAGE_NAMES
            },
        ))
    except OSError as exc:
        print(f"warning: run registry append failed: {exc}", file=sys.stderr)


def _start_server(args, context):
    """Start the --serve observability server, if requested.

    Runs before the command, so SSE clients can connect from the first
    published envelope; the bound port is announced on stderr because
    ``--serve`` without a port picks an ephemeral one.
    """
    port = getattr(args, "serve", None)
    if port is None:
        return None
    from .obs.server import ObservabilityServer

    server = ObservabilityServer(
        port=port,
        context=context,
        pipeline_factory=(
            lambda: getattr(args, "_pipeline", None)
            or _pipeline(args, context)
        ),
    ).start()
    print(
        f"observability server listening on {server.url}",
        file=sys.stderr,
    )
    return server


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    context = _run_context(args)
    with context.active():
        server = context.server = _start_server(args, context)
        try:
            code = _COMMANDS[args.command](args, context)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = exc.code
        except BaseException as exc:
            context.finalize(status="error")
            if server is not None:
                server.stop()
            from .obs.resources import MemoryLimitExceeded

            if isinstance(exc, MemoryLimitExceeded):
                # a bounded-memory run that could not stay bounded: a
                # distinct exit code so scripts can tell "cap breached"
                # from argument errors (2) and crashes (traceback)
                print(f"error: {exc}", file=sys.stderr)
                return 3
            raise
        context.finalize(status="ok" if code == 0 else "error")
        if code == 0 and args.command in ("study", "report"):
            _append_run_record(args, context)
        if server is not None:
            if getattr(args, "serve_linger", False) and code == 0:
                print(
                    f"run finished — still serving on {server.url} "
                    "(Ctrl-C to stop)",
                    file=sys.stderr,
                )
                server.wait()
            server.stop()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
