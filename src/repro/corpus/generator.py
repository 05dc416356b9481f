"""The synthetic FOSS-project generator.

For each project, the generator produces the two textual artifacts that
a real clone yields — ``git log --name-status`` output and the sequence
of DDL file versions — and then runs them back through the *real*
parsers to build the :class:`~repro.vcs.Repository`.  Nothing downstream
can tell a generated project from a mined one; provenance is the only
difference (see DESIGN.md §2).

The generative story per project:

1. a duration, a change-timing regime, an initial-import share and an
   optional DDL-file delay are drawn from the taxon profile;
2. an initial schema is synthesised; schema-changing commits are
   scheduled over the post-DDL life and realised as SMO batches whose
   DDL text is re-emitted after every change;
3. source activity is allocated month-by-month from a Beta-shaped
   profile, with the initial import taking its share up front and spike
   months receiving coupled source work;
4. everything is serialised to git-log text, which the project's
   repository is parsed back from when it is first read.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import repeat

from ..heartbeat import Month
from ..obs.context import current
from ..obs.progress import ProgressTracker
from ..taxa import Taxon
from ..vcs import (
    Commit,
    FileChange,
    FileVersion,
    Repository,
    format_git_log,
    parse_repository,
    synthetic_sha,
)
from . import names
from .ddlgen import TableSelector, emit_ddl, random_schema, sample_change_smos
from .noise import inject_noise
from .profiles import CANONICAL_PROFILES, TaxonProfile

#: Minutes in a generator month (a flat 28-day month keeps dates valid).
_MINUTES_PER_MONTH = 28 * 24 * 60

_SCHEMA_MESSAGES = (
    "update schema",
    "add new tables",
    "schema: adjust column types",
    "migrate database structure",
    "db: drop unused columns",
)
_SOURCE_MESSAGES = (
    "fix bug",
    "add feature",
    "refactor module",
    "update docs and code",
    "performance tweaks",
    "cleanup",
)


@dataclass(frozen=True)
class ProjectSpec:
    """The sampled identity of one synthetic project."""

    name: str
    taxon: Taxon
    seed: int
    vendor: str
    duration_months: int
    start: Month
    ddl_path: str = "schema.sql"


@dataclass
class GeneratedProject:
    """A generated project: the generator's text plus its ground truth.

    The generator's output is the text a real clone yields: the
    ``git log`` output (``git_log_text``) and the DDL file's versions in
    commit order (``ddl_versions``), each written by the commit whose
    SHA sits at the same index of ``ddl_shas``.  ``repository`` is a
    view derived from that text: the first read parses the log with the
    parser real clones go through and caches the result on the object.
    Pickling leaves the cache out, so a stored or shipped project is
    text, and is parsed again where its repository is read.

    ``trace`` transports the project's serialised ``generate_project``
    span across the worker boundary when tracing is enabled; the corpus
    driver reattaches it under the ``generate`` span and clears the
    field.  Neither it nor the cache participates in equality.
    """

    spec: ProjectSpec
    git_log_text: str
    ddl_versions: list[str]
    ddl_shas: list[str]
    trace: dict | None = field(default=None, compare=False, repr=False)
    _repository: Repository | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def true_taxon(self) -> Taxon:
        return self.spec.taxon

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def repository(self) -> Repository:
        """The project's repository, parsed from its text on first read."""
        if self._repository is None:
            self._repository = self._materialise()
        return self._repository

    def _materialise(self) -> Repository:
        """Parse the log and attach each DDL version to its commit."""
        repo = parse_repository(self.spec.name, self.git_log_text)
        dates = {commit.sha: commit.date for commit in repo.commits}
        for sha, content in zip(self.ddl_shas, self.ddl_versions):
            repo.record_version(
                self.spec.ddl_path,
                FileVersion(sha=sha, date=dates[sha], content=content),
            )
        return repo

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_repository": None}


@dataclass
class _SchemaEvent:
    month: int
    magnitude: int  # 0 marks a cosmetic (null) commit
    is_spike: bool = False


@dataclass
class _PlannedCommit:
    minute: int  # absolute minutes since project start
    files: list[FileChange]
    message: str
    ddl_text: str | None = None  # set when the commit touches the DDL file


class _FilePool:
    """Tracks the synthetic source files of a project."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._files: list[str] = []
        self._counter = 0

    def new_file(self) -> str:
        path = names.source_file(self._rng, self._counter)
        self._counter += 1
        self._files.append(path)
        return path

    def pick_changes(
        self, count: int, *, new_ratio: float = 0.2
    ) -> list[FileChange]:
        """``count`` file changes, mixing modifications and additions."""
        changes: list[FileChange] = []
        used: set[str] = set()
        for _ in range(count):
            create_new = not self._files or self._rng.random() < new_ratio
            if create_new:
                changes.append(FileChange("A", self.new_file()))
                continue
            for _ in range(10):
                path = self._rng.choice(self._files)
                if path not in used:
                    break
            used.add(path)
            changes.append(FileChange("M", path))
        return changes


class _MinuteAllocator:
    """Unique commit timestamps within the project's month grid."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: set[int] = set()

    def reserve(self, minute: int) -> int:
        self._used.add(minute)
        return minute

    def in_month(self, month: int) -> int:
        for _ in range(1000):
            minute = month * _MINUTES_PER_MONTH + self._rng.randrange(
                1, _MINUTES_PER_MONTH
            )
            if minute not in self._used:
                self._used.add(minute)
                return minute
        raise RuntimeError("minute space exhausted")


def generate_project(
    spec: ProjectSpec, profile: TaxonProfile
) -> GeneratedProject:
    """Generate one project according to its spec and taxon profile.

    When tracing is enabled the work runs inside a detached
    ``generate_project`` span whose serialised tree rides back on
    ``project.trace`` (the generator output itself is identical either
    way — spans observe, they never steer the RNG).
    """
    tracer = current().tracer
    if not tracer.enabled:
        return _generate_project(spec, profile)
    with tracer.detached(
        "generate_project", project=spec.name, worker=os.getpid()
    ) as span:
        project = _generate_project(spec, profile)
    project.trace = span.to_dict()
    return project


def _generate_in_worker(
    spec: ProjectSpec, profile: TaxonProfile, trace: bool
) -> GeneratedProject:
    """:func:`generate_project` in a pool worker, traced as the caller is."""
    current().tracer.enabled = trace
    return generate_project(spec, profile)


def _generate_project(
    spec: ProjectSpec, profile: TaxonProfile
) -> GeneratedProject:
    rng = random.Random(spec.seed)
    duration = spec.duration_months
    pool = _FilePool(rng)
    minutes = _MinuteAllocator(rng)

    schema = random_schema(
        rng,
        tables_lo=profile.tables[0],
        tables_hi=profile.tables[1],
        attrs_lo=profile.attrs[0],
        attrs_hi=profile.attrs[1],
    )
    selector = TableSelector(rng)
    # ~40% of projects keep dump-style noise in their schema file, so
    # the tolerant-parsing path is exercised across the corpus
    noisy = rng.random() < 0.4

    def render_ddl(current_schema) -> str:
        text = emit_ddl(current_schema, spec.vendor)
        if noisy:
            text = inject_noise(text, rng, spec.vendor)
        return text

    regime = profile.sample_regime(rng)
    ddl_month = _sample_ddl_delay(rng, profile, duration)
    events = _plan_schema_events(rng, profile, duration, ddl_month, regime)

    # --- source activity budget
    mean_updates = rng.randint(*profile.monthly_updates)
    total_updates = mean_updates * duration
    import_share = profile.sample_import_share(rng)
    # couple the source import share to the schema's own initial share
    planned_activity = sum(e.magnitude for e in events)
    initial_attrs = schema.attribute_count
    if initial_attrs + planned_activity > 0:
        schema_share = initial_attrs / (initial_attrs + planned_activity)
        w = profile.source_schema_alignment
        import_share = max(0.02, min(0.97, (
            w * schema_share
            + (1 - w) * import_share
            + rng.uniform(-0.06, 0.06)
        )))
    initial_file_count = max(3, round(total_updates * import_share))
    monthly_updates = _shape_source_activity(
        rng, profile, duration, total_updates - initial_file_count
    )
    lo_couple, hi_couple = profile.spike_source_coupling
    if hi_couple > 0:
        for event in events:
            if event.is_spike:
                monthly_updates[event.month] += round(
                    event.magnitude * rng.uniform(lo_couple, hi_couple)
                )
    # second import: a large early source drop (vendored deps etc.)
    surge_prob, surge_lo, surge_hi = profile.second_import
    if duration >= 6 and rng.random() < surge_prob:
        surge_month = rng.randint(1, max(1, duration // 5))
        monthly_updates[surge_month] += round(
            total_updates * rng.uniform(surge_lo, surge_hi)
        )

    planned: list[_PlannedCommit] = []
    ddl_versions = [render_ddl(schema)]

    # --- initial commit (project skeleton; DDL included when not delayed)
    initial_files = []
    if ddl_month == 0:
        initial_files.append(FileChange("A", spec.ddl_path))
    for _ in range(initial_file_count):
        initial_files.append(FileChange("A", pool.new_file()))
    planned.append(
        _PlannedCommit(
            minute=minutes.reserve(0),
            files=initial_files,
            message="initial import",
            ddl_text=ddl_versions[0] if ddl_month == 0 else None,
        )
    )

    # --- delayed DDL introduction
    if ddl_month > 0:
        files = [FileChange("A", spec.ddl_path)]
        files.extend(pool.pick_changes(rng.randint(0, 2)))
        planned.append(
            _PlannedCommit(
                minute=ddl_month * _MINUTES_PER_MONTH,
                files=files,
                message="add database schema",
                ddl_text=ddl_versions[0],
            )
        )
        minutes.reserve(ddl_month * _MINUTES_PER_MONTH)

    # --- schema-changing commits; minutes pre-assigned in event order so
    # commit timestamps agree with DDL content order within a month
    events.sort(key=lambda e: (e.month, -e.magnitude))
    minute_queue = _monotone_minutes(minutes, [e.month for e in events])
    for event, commit_minute in zip(events, minute_queue):
        if event.magnitude > 0:
            smos = sample_change_smos(
                schema,
                event.magnitude,
                rng,
                table_ops=profile.table_ops,
                selector=selector,
            )
            if not smos:
                continue
            for smo in smos:
                smo.apply(schema)
            ddl_text = render_ddl(schema)
        else:  # null commit: cosmetic edit only
            ddl_text = (
                f"-- cosmetic revision {rng.randint(100, 999)}\n"
                + ddl_versions[-1]
            )
        ddl_versions.append(ddl_text)
        files = [FileChange("M", spec.ddl_path)]
        files.extend(pool.pick_changes(rng.randint(0, 3)))
        planned.append(
            _PlannedCommit(
                minute=commit_minute,
                files=files,
                message=rng.choice(_SCHEMA_MESSAGES),
                ddl_text=ddl_text,
            )
        )

    # --- source commits from the monthly activity plan
    for month, updates in enumerate(monthly_updates):
        remaining = updates
        while remaining > 0:
            batch = min(remaining, rng.randint(1, 8))
            remaining -= batch
            planned.append(
                _PlannedCommit(
                    minute=minutes.in_month(month),
                    files=pool.pick_changes(batch),
                    message=rng.choice(_SOURCE_MESSAGES),
                )
            )

    # --- pin the project's last month so the duration is exact
    last_month = duration - 1
    if not any(
        c.minute // _MINUTES_PER_MONTH == last_month for c in planned
    ):
        planned.append(
            _PlannedCommit(
                minute=minutes.in_month(last_month),
                files=pool.pick_changes(rng.randint(1, 3)),
                message="final touches",
            )
        )

    return _serialise(spec, planned)


def _sample_ddl_delay(
    rng: random.Random, profile: TaxonProfile, duration: int
) -> int:
    """Month at which the DDL file first appears (0 = with the project)."""
    if duration < 4 or rng.random() >= profile.ddl_delay_prob:
        return 0
    a, b = profile.ddl_delay_beta
    month = round(rng.betavariate(a, b) * (duration - 1))
    return max(1, min(duration - 2, month))


def _plan_schema_events(
    rng: random.Random,
    profile: TaxonProfile,
    duration: int,
    ddl_month: int,
    regime: tuple[float, float],
) -> list[_SchemaEvent]:
    events: list[_SchemaEvent] = []
    lo = ddl_month + 1
    hi = duration - 1
    if lo <= hi:
        for _ in range(rng.randint(*profile.n_changes)):
            month = _beta_month(rng, regime, lo, hi)
            events.append(
                _SchemaEvent(month, rng.randint(*profile.change_magnitude))
            )
        for _ in range(rng.randint(*profile.n_spikes)):
            month = _beta_month(rng, regime, lo, hi)
            events.append(
                _SchemaEvent(
                    month,
                    rng.randint(*profile.spike_magnitude),
                    is_spike=True,
                )
            )
    # null (cosmetic) DDL commits keep even one-month projects above the
    # dataset's two-version elicitation threshold
    null_commits = rng.randint(*profile.n_null_commits)
    if duration == 1:
        null_commits = max(1, null_commits)
    for _ in range(null_commits):
        month = ddl_month if lo > hi else _beta_month(
            rng, (1.0, 1.0), lo, hi
        )
        events.append(_SchemaEvent(month, 0))
    return events


def _beta_month(
    rng: random.Random, ab: tuple[float, float], lo: int, hi: int
) -> int:
    """A month in [lo, hi] sampled from Beta(a, b) over that span."""
    a, b = ab
    fraction = rng.betavariate(a, b)
    return min(hi, max(lo, lo + int(fraction * (hi - lo + 1))))


def _shape_source_activity(
    rng: random.Random,
    profile: TaxonProfile,
    duration: int,
    budget: int,
) -> list[int]:
    """Allocate the post-import source budget over months (Beta shape)."""
    if budget <= 0:
        return [0] * duration
    a, b = profile.project_shape_beta
    weights = []
    for month in range(duration):
        t = (month + 0.5) / duration
        weights.append(
            (t ** (a - 1)) * ((1 - t) ** (b - 1))
            * rng.gammavariate(2.0, 0.5)
        )
    weight_sum = sum(weights) or 1.0
    return [round(budget * w / weight_sum) for w in weights]


def _monotone_minutes(
    minutes: _MinuteAllocator, months: list[int]
) -> list[int]:
    """Minutes matching a month-sorted event list, increasing overall."""
    by_month: dict[int, int] = {}
    for month in months:
        by_month[month] = by_month.get(month, 0) + 1
    queue: list[int] = []
    for month in sorted(by_month):
        queue.extend(
            sorted(minutes.in_month(month) for _ in range(by_month[month]))
        )
    return queue


def _serialise(
    spec: ProjectSpec, planned: list[_PlannedCommit]
) -> GeneratedProject:
    """Turn planned commits into git-log text and DDL version texts."""
    planned.sort(key=lambda c: c.minute)
    rng = random.Random(spec.seed ^ 0x5F3759DF)

    # a small contributor pool with one dominant maintainer (the
    # paper's case study: 90% of updates by the same developer)
    pool = names.developer_pool(rng, rng.randint(1, 4))
    main_share = rng.uniform(0.55, 0.95)
    if len(pool) == 1:
        weights = [1.0]
    else:
        rest = (1.0 - main_share) / (len(pool) - 1)
        weights = [main_share] + [rest] * (len(pool) - 1)

    def minute_to_date(minute: int) -> datetime:
        # minutes index a flat 28-day month grid; map each grid month
        # onto its real calendar month so Month.of(date) agrees with the
        # generator's month arithmetic for arbitrarily long projects
        month = spec.start.shift(minute // _MINUTES_PER_MONTH)
        offset = minute % _MINUTES_PER_MONTH
        return datetime(
            month.year,
            month.month,
            1 + offset // (24 * 60),
            (offset % (24 * 60)) // 60,
            offset % 60,
            tzinfo=timezone.utc,
        )

    commits: list[Commit] = []
    ddl_sequence: list[tuple[str, _PlannedCommit]] = []
    for index, plan in enumerate(planned):
        author, email = rng.choices(pool, weights=weights, k=1)[0]
        sha = synthetic_sha(spec.name, index, plan.minute)
        date = minute_to_date(plan.minute)
        commits.append(
            Commit(
                sha=sha,
                author=author,
                email=email,
                date=date,
                message=plan.message,
                changes=plan.files,
            )
        )
        if plan.ddl_text is not None:
            ddl_sequence.append((sha, plan))

    return GeneratedProject(
        spec=spec,
        git_log_text=format_git_log(commits, newest_first=True),
        ddl_versions=[plan.ddl_text or "" for _, plan in ddl_sequence],
        ddl_shas=[sha for sha, _ in ddl_sequence],
    )


DEFAULT_SEED = 195_2023


def iter_corpus_specs(
    seed: int = DEFAULT_SEED,
    profiles: tuple[TaxonProfile, ...] = CANONICAL_PROFILES,
    blank_projects: int = 2,
    dialect: str | None = None,
):
    """Stream the corpus plan one ``(spec, profile)`` pair at a time.

    The streaming twin of :func:`corpus_specs`: it draws from the
    corpus RNG in exactly the same order (durations, start months,
    names, per-project seeds, vendors), so the *i*-th yielded pair is
    identical to ``corpus_specs(...)[i]`` — but nothing is held: a
    100k-project plan never exists as a list.  The sharded pipeline's
    streaming map phase plans and releases one shard at a time off this
    generator.

    ``dialect`` selects the workload whose ``vendor_mix`` each
    project's vendor is drawn from; every workload's mix has the
    canonical length, so the RNG stream — and with it every other
    sampled property — is identical across workloads.  ``None`` keeps
    the paper's MySQL/Postgres mix bit-for-bit.
    """
    from ..workload import get_workload

    vendor_mix = get_workload(dialect).vendor_mix
    rng = random.Random(seed)
    by_taxon: dict[Taxon, TaxonProfile] = {}
    for profile in profiles:
        by_taxon.setdefault(profile.taxon, profile)
    index = 0
    blanks_left = blank_projects
    for profile in profiles:
        for _ in range(profile.count):
            duration = profile.sample_duration(rng)
            if blanks_left > 0 and profile.taxon in (
                Taxon.FROZEN, Taxon.ALMOST_FROZEN
            ):
                duration = 1
                blanks_left -= 1
            start = Month(2008 + rng.randint(0, 9), rng.randint(1, 12))
            spec = ProjectSpec(
                name=names.project_name(rng, index),
                taxon=profile.taxon,
                seed=rng.randrange(2 ** 62),
                vendor=rng.choice(vendor_mix),
                duration_months=duration,
                start=start,
            )
            yield (spec, by_taxon[spec.taxon])
            index += 1


def corpus_specs(
    seed: int = DEFAULT_SEED,
    profiles: tuple[TaxonProfile, ...] = CANONICAL_PROFILES,
    blank_projects: int = 2,
    dialect: str | None = None,
) -> list[tuple[ProjectSpec, TaxonProfile]]:
    """Sample the corpus plan: one ``(spec, profile)`` pair per project.

    This is the *cheap* half of corpus generation — it consumes the
    corpus RNG exactly as :func:`generate_corpus` always has (names,
    per-project seeds, durations, vendors), but realises nothing.  The
    sharded pipeline plans its per-project artifacts from this list
    without generating a single commit; ``generate_corpus`` realises the
    same list, so the two agree project for project.  (The list form of
    :func:`iter_corpus_specs`, which streams the same pairs for plans
    too large to materialise.)
    """
    return list(iter_corpus_specs(
        seed=seed,
        profiles=profiles,
        blank_projects=blank_projects,
        dialect=dialect,
    ))


def generate_corpus(
    *,
    seed: int = DEFAULT_SEED,
    profiles: tuple[TaxonProfile, ...] = CANONICAL_PROFILES,
    blank_projects: int = 2,
    jobs: int = 1,
    dialect: str | None = None,
) -> list[GeneratedProject]:
    """Generate the canonical corpus (195 projects by default).

    ``blank_projects`` of the frozen-taxa projects are forced to a
    single-month life, reproducing the "(blank)" rows of Fig. 6.

    ``jobs > 1`` generates projects over a process pool.  The specs are
    always sampled serially from the corpus RNG and each project is
    realised from its own ``spec.seed``, so the output is bit-identical
    to the serial path regardless of worker scheduling.
    """
    pairs = corpus_specs(
        seed=seed,
        profiles=profiles,
        blank_projects=blank_projects,
        dialect=dialect,
    )
    context = current()
    tracer = context.tracer
    with tracer.span("generate", projects=len(pairs), jobs=max(1, jobs)):
        # heartbeat for the generation fan-out: updated per collected
        # project (lazily off executor.map, which preserves spec order),
        # so long generations report progress without touching the RNGs
        tracker = ProgressTracker(
            "generate", len(pairs), channel=context.progress
        )
        projects = []
        if jobs > 1:
            from ..perf.pool import warm_pool

            # the pool stays warm after generation: the mine fan-out
            # that typically follows reuses the same worker processes;
            # chunks of a quarter-pool amortise pickling without
            # starving a worker
            for project in warm_pool(jobs).map(
                _generate_in_worker,
                [spec for spec, _ in pairs],
                [profile for _, profile in pairs],
                repeat(tracer.enabled),
                chunksize=max(1, len(pairs) // (jobs * 4)),
            ):
                projects.append(project)
                tracker.update(project.name)
        else:
            for spec, profile in pairs:
                projects.append(generate_project(spec, profile))
                tracker.update(spec.name)
        tracker.finish()
        for project in projects:
            if project.trace is not None:
                # worker span closes were invisible to any in-process
                # sink, so attaching them re-emits their events
                tracer.attach(project.trace, emit=jobs > 1)
                project.trace = None
    context.metrics.inc("projects.generated", len(projects))
    return projects
