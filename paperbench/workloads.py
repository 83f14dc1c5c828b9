"""The three workloads: ``entry``, ``studies`` and ``refresh``.

Each is a single client in a closed loop, driving the program only
through its public API.  Inputs come from the run's seed; input
generation (``repro.clinical``) and study definitions
(``repro.analysis``) run outside every timed region.

A workload is a sequence of *units* run until the time spent inside
timed operations reaches the phase budget:

* ``entry`` — a round: open three fresh contributor stores (set-up),
  enter ``entry_round`` encounters with one commit each (checkpointing
  after half), close, and reopen the stores ``reopens`` times;
* ``studies`` — one study request over a world built once;
* ``refresh`` — an epoch: build a world and a durable warehouse with a
  Figure 7 full build (set-up), then ``cycles`` cycles of delta entry,
  incremental refresh, analyst query and, every ``etl_every`` cycles,
  the Figure 6 ETL of Study 1.

Units are identical from one to the next, so a faster program does more
of the same work rather than different work.
"""

from __future__ import annotations

import gc
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.analysis.classifiers import vendor_classifiers_for
from repro.analysis.schema import build_endoscopy_schema
from repro.analysis.studies import (
    build_study1,
    build_study2,
    run_study1,
    study1_truth_funnel,
    study2_truth,
)
from repro.clinical.cori import build_cori_chain, build_cori_tool, cori_procedure_values
from repro.clinical.ground_truth import ProcedureTruth, generate_truths
from repro.clinical.sources import build_world
from repro.clinical.vendors import (
    build_endopro_chain,
    build_endopro_tool,
    build_medscribe_chain,
    build_medscribe_tool,
    endopro_values,
    medscribe_values,
)
from repro.etl.compile import compile_study, study_table_schema
from repro.guava.source import GuavaSource
from repro.storage.engine import DurableStore, state_fingerprint
from repro.warehouse import (
    FullStrategy,
    MaterializationJob,
    StudyTableQuery,
    Warehouse,
)

from paperbench import checks
from paperbench.layers import LayerTracer
from paperbench.speed import SpeedProbe

#: Contributor market shares (CORI, EndoPro, MedScribe), as in build_world.
SHARES = (0.5, 0.3, 0.2)
#: Flush policy of every durable store, on both sides of any comparison.
#: Forced flushes measure the host's virtual disk, not the program; WAL
#: framing, serialization and appends still run.
FSYNC = "never"
#: Study 2's three ex-smoker definitions.
DEFINITIONS = ("1y", "10y", "ever")
#: The CORI feed's classifier columns materialized by the refresh workload.
MATERIALIZED = (
    "habits_cancer",
    "habits_chemistry",
    "ex_smoker_1y",
    "ex_smoker_10y",
    "ex_smoker_ever",
)
QUERY_CONDITION = "cori_ex_smoker_ever = TRUE"
QUERY_COLUMNS = ("record_id", "cori_habits_cancer")


@dataclass(frozen=True)
class Sizes:
    """Workload sizes (properties of the workloads, not of a run)."""

    entry_round: int = 1500
    reopens: int = 3
    world: int = 2000
    delta: int = 5
    cycles: int = 100
    etl_every: int = 10
    setups: int = 3


DEFAULT_SIZES = Sizes()

#: Which operation kind each end-to-end metric reads, per workload.
#: REQUESTS is the workload's request mix: the tail is taken over it, and
#: per-layer figures are per request.  On ``studies`` the median is Study
#: 2's: the median of the 3:1 mix would sit on the upper flank of Study
#: 2's distribution and swing with it.
REQUESTS = {"entry": "encounter", "studies": "study", "refresh": "answer"}
MEDIAN = {"entry": "encounter", "studies": "study2", "refresh": "answer"}
HEAVY = {"entry": "recover", "studies": "study1", "refresh": "etl"}
#: Study requests per block of the studies tail: ten passes over the mix.
STUDY_BLOCK = 40

#: Units of the workloads' own metric names (the gated and per-layer
#: names take theirs from BENCHMARK.json).
NAMED_UNITS = {
    "encounter_ms.p50": "ms",
    "encounter_ms.p90": "ms",
    "recover_ms": "ms",
    "checkpoint_ms": "ms",
    "wal_bytes_per_encounter": "B",
    "study1_ms.p50": "ms",
    "study2_ms.p50": "ms",
    "study_ms.p90": "ms",
    "refresh_ms.p50": "ms",
    "query_ms.p50": "ms",
    "etl_ms.p50": "ms",
    "cycle_ms.p90": "ms",
    "delta_ms.p50": "ms",
    "wal_bytes_per_cycle": "B",
}


# -- contributors ----------------------------------------------------------------


CONTRIBUTORS: tuple[tuple[str, Callable, Callable], ...] = (
    ("cori_warehouse_feed", build_cori_tool, build_cori_chain),
    ("endopro_clinic", build_endopro_tool, build_endopro_chain),
    ("medscribe_clinic", build_medscribe_tool, build_medscribe_chain),
)


class Contributor:
    """One contributor's source with a data-entry session per form."""

    def __init__(self, source: GuavaSource, first_ids: dict[str, int] | None = None):
        first_ids = first_ids or {}
        self.source = source
        self.sessions = {
            form: source.session(first_record_id=first_ids.get(form, 1))
            for form in source.tool.form_names()
        }
        self.entered = 0

    @property
    def main_form(self) -> str:
        return self.source.tool.form_names()[0]

    def enter(self, truth: ProcedureTruth) -> None:
        """One encounter: the procedure screen plus, on CORI, its
        finding and medication screens."""
        tool = self.source.tool.name
        if tool == "cori":
            row = self.sessions["procedure"].enter(
                "procedure", cori_procedure_values(truth)
            )
            for finding in truth.findings:
                self.sessions["finding"].enter(
                    "finding",
                    {
                        "procedure_id": row["record_id"],
                        "finding_type": finding.finding_type,
                        "size_mm": finding.size_mm,
                        "images_taken": finding.images_taken,
                    },
                )
            for medication in truth.medications:
                self.sessions["medication"].enter(
                    "medication",
                    {
                        "procedure_id": row["record_id"],
                        "drug": medication.drug,
                        "dosage_mg": medication.dosage_mg,
                        "pills_per_day": medication.pills_per_day,
                        "instructions": medication.instructions,
                    },
                )
        elif tool == "endopro":
            self.sessions["endoscopy_report"].enter(
                "endoscopy_report", endopro_values(truth)
            )
        else:
            self.sessions["visit"].enter("visit", medscribe_values(truth))
        self.entered += 1


def routed_truths(count: int, seed: int) -> list[tuple[int, ProcedureTruth]]:
    """``count`` encounters from ``seed``, routed to contributors by share.

    Routing is smooth weighted round-robin, so every stretch of encounters
    (a 5-encounter delta included) holds the market shares as closely as
    whole encounters can.  Random routing would let the contributor mix,
    and with it every median, drift by a few percent from seed to seed.
    """
    credit = [0.0] * len(SHARES)
    picks = []
    for _ in range(count):
        credit = [c + share for c, share in zip(credit, SHARES)]
        pick = credit.index(max(credit))
        credit[pick] -= 1.0
        picks.append(pick)
    return list(zip(picks, generate_truths(count, seed=seed)))


def open_durable_contributors(
    directory: Path,
) -> tuple[list[DurableStore], list[Contributor]]:
    """Open (fresh or recover) one store per contributor, sources attached."""
    stores, contributors = [], []
    for name, build_tool, build_chain in CONTRIBUTORS:
        store = DurableStore(directory / name, name=name, fsync=FSYNC)
        tool = build_tool()
        source = GuavaSource(name, tool, build_chain(tool), db=store.db)
        store.attach_source(source)
        stores.append(store)
        contributors.append(Contributor(source))
    return stores, contributors


def world_contributors(world: Any) -> list[Contributor]:
    """Sessions continuing each world source's per-form record ids."""
    contributors = []
    for name, _, _ in CONTRIBUTORS:
        truths = world.truths_by_source[name]
        first = {
            "procedure": len(truths) + 1,
            "endoscopy_report": len(truths) + 1,
            "visit": len(truths) + 1,
            "finding": sum(len(t.findings) for t in truths) + 1,
            "medication": sum(len(t.medications) for t in truths) + 1,
        }
        contributors.append(Contributor(world.source(name), first))
    return contributors


def materialization_job(world: Any) -> MaterializationJob:
    cori = world.source("cori_warehouse_feed")
    vendor = vendor_classifiers_for(cori)
    return MaterializationJob(
        schema=build_endoscopy_schema(),
        entity="Procedure",
        sources=[cori],
        entity_classifiers={cori.name: vendor.entity_classifier},
        classifiers=[getattr(vendor, name) for name in MATERIALIZED],
    )


# -- measurement ---------------------------------------------------------------


class Phase:
    """Samples, counts and check outcomes of one measured phase.

    ``samples`` hold reference-speed seconds (see :mod:`paperbench.speed`),
    ``raw`` the same operations as measured; the budget counts measured
    time spent inside operations.
    """

    def __init__(
        self, budget_s: float, probe: SpeedProbe, layers: LayerTracer | None = None
    ):
        self.budget_s = budget_s
        self.probe = probe
        self.layers = layers
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.setup_s: list[float] = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.bytes_written = 0
        self.encounters = 0

    @property
    def done(self) -> bool:
        return self.busy_s >= self.budget_s

    def op(self, kind: str) -> "_Op":
        return _Op(self, kind)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def check(self, problems: list[str], since: int) -> None:
        """Record a check's problems; a failure fails every operation
        from index ``since`` up to now, since the check covers their output."""
        if problems:
            self.problems.extend(problems)
            self.failed_ops.update(range(since, self.attempted))

    def setup(self, build: Callable[[], Any]) -> Any:
        """Run and time one set-up, in measured seconds.

        Set-up is not scaled: it follows the freeing of the previous
        world, which slows the speed kernel's first runs for reasons of
        allocator state rather than host speed.
        """
        started = perf_counter()
        built = build()
        self.setup_s.append(perf_counter() - started)
        return built


class _Op:
    """Times one operation; under a LayerTracer it is also a root span."""

    __slots__ = ("phase", "kind", "span", "started")

    def __init__(self, phase: Phase, kind: str):
        self.phase = phase
        self.kind = kind
        self.span: Any = None

    def __enter__(self) -> None:
        phase = self.phase
        phase.probe.maybe_sample()
        if phase.layers is not None:
            self.span = phase.layers.op(self.kind, phase.attempted)
            self.span.__enter__()
        self.started = perf_counter()

    def __exit__(self, exc_type: object, *rest: object) -> None:
        elapsed = perf_counter() - self.started
        if self.span is not None:
            self.span.__exit__(exc_type, *rest)
        phase = self.phase
        phase.raw[self.kind].append(elapsed)
        phase.samples[self.kind].append(elapsed * phase.probe.factor)
        phase.busy_s += elapsed
        if exc_type is not None:
            phase.failed_ops.add(phase.attempted)
        phase.attempted += 1


# -- workloads -----------------------------------------------------------------


def run_entry(phase: Phase, seed: int, sizes: Sizes, workdir: Path) -> None:
    """Clinicians entering encounters into three durable contributors."""
    inputs = routed_truths(sizes.entry_round, seed)
    half = len(inputs) // 2
    round_no = 0
    while not phase.done:
        directory = workdir / f"round-{round_no}"
        round_no += 1
        first_op = phase.attempted
        stores, contributors = phase.setup(
            lambda: open_durable_contributors(directory)
        )
        snapshot_bytes = 0
        for index, (pick, truth) in enumerate(inputs):
            if index == half:
                with phase.op("checkpoint"):
                    paths = [store.snapshot() for store in stores]
                snapshot_bytes += sum(path.stat().st_size for path in paths)
            with phase.op("encounter"):
                contributors[pick].enter(truth)
                stores[pick].commit()
        phase.encounters += len(inputs)
        phase.bytes_written += snapshot_bytes + sum(
            store.wal.appended_bytes for store in stores
        )
        live = [state_fingerprint(store.db) for store in stores]
        entered = {c.source.name: c.entered for c in contributors}
        for store in stores:
            store.close()
        del stores, contributors
        for attempt in range(sizes.reopens):
            with phase.op("recover"):
                reopened, recovered = open_durable_contributors(directory)
            if attempt == 0:
                phase.check(
                    checks.same_fingerprints(
                        live, [state_fingerprint(s.db) for s in reopened]
                    ),
                    since=first_op,
                )
                read_back = {
                    c.source.name: len(c.source.query(c.main_form).run())
                    for c in recovered
                }
                phase.check(checks.same_counts(entered, read_back), first_op)
            for store in reopened:
                store.close(commit=False)
            del reopened, recovered
        shutil.rmtree(directory, ignore_errors=True)
        gc.collect()


def study_requests(world: Any) -> list[tuple[str, Any, Any]]:
    """(kind, study, truth) for Study 1 and the three Study 2 definitions."""
    studies = [("study1", build_study1(world), study1_truth_funnel(world))]
    for definition in DEFINITIONS:
        truth = study2_truth(world, definition)
        studies.append(
            (
                f"study2_{definition}",
                build_study2(world, definition),
                (truth.ex_smokers, truth.ex_smokers_with_hypoxia),
            )
        )
    return studies


def check_study(kind: str, world: Any, result: Any, truth: Any) -> list[str]:
    if kind == "study1":
        return checks.same_funnel(run_study1(world, result), truth)
    rows = result.rows("Procedure")
    ex = [row for row in rows if row["ExSmoker_flag"] is True]
    hypoxia = sum(1 for row in ex if row["AnyHypoxia_flag"] is True)
    return checks.same_study2(kind.split("_", 1)[1], (len(ex), hypoxia), truth)


def prepare_studies(
    seed: int, sizes: Sizes, setups: int, probe: SpeedProbe
) -> tuple[list[float], Any]:
    """Build the studies world ``setups`` times; keep the last, warmed up.

    Only ``build_world`` is timed: study definitions and their truth are
    inputs (``repro.analysis``), made after set-up.
    """
    builds = Phase(0.0, probe)
    world = None
    for _ in range(setups):
        world = None
        gc.collect()
        world = builds.setup(lambda: build_world(sizes.world, seed=seed))
    studies = study_requests(world)
    for _, study, _ in studies:  # warm the plan and derived caches
        study.run()
    return builds.setup_s, (world, studies)


def run_studies(phase: Phase, prepared: Any) -> None:
    """Analysts running Study 1 and Study 2 (three definitions) in turn."""
    world, studies = prepared
    turn = 0
    while not phase.done:
        kind, study, truth = studies[turn % len(studies)]
        turn += 1
        with phase.op("study"):
            result = study.run()
        phase.samples["study1" if kind == "study1" else "study2"].append(
            phase.samples["study"][-1]
        )
        phase.check(check_study(kind, world, result, truth), phase.attempted - 1)


def run_refresh(phase: Phase, seed: int, sizes: Sizes, workdir: Path) -> None:
    """Keeping a durable warehouse fresh while entry continues."""
    deltas = routed_truths(sizes.cycles * sizes.delta, seed + 100_003)
    epoch = 0
    while not phase.done:
        directory = workdir / f"epoch-{epoch}"
        epoch += 1
        gc.collect()
        world, store, warehouse, strategy = phase.setup(
            lambda: _refresh_setup(seed, sizes, directory)
        )
        study, contributors = build_study1(world), world_contributors(world)
        table = strategy.job.table_name()
        query = StudyTableQuery(warehouse, table).where(QUERY_CONDITION)
        query = query.select(*QUERY_COLUMNS)
        first_op = phase.attempted
        for cycle in range(1, sizes.cycles + 1):
            batch = deltas[(cycle - 1) * sizes.delta : cycle * sizes.delta]
            with phase.op("delta"):
                for pick, truth in batch:
                    contributors[pick].enter(truth)
            phase.encounters += len(batch)
            with phase.op("refresh"):
                strategy.build(incremental=True)
                store.commit()
            with phase.op("query"):
                answer = query.run()
            phase.samples["answer"].append(
                phase.samples["refresh"][-1] + phase.samples["query"][-1]
            )
            expected = [
                row
                for row in warehouse.table(table).rows()
                if row["cori_ex_smoker_ever"] is True
            ]
            phase.check(
                checks.same_rows(
                    "query", answer, expected, QUERY_COLUMNS, ("record_id",)
                ),
                since=phase.attempted - 1,
            )
            if cycle % sizes.etl_every == 0:
                with phase.op("etl"):
                    compile_study(study, warehouse.db).run()
                    store.commit()
        phase.bytes_written += store.wal.appended_bytes
        _refresh_checks(phase, world, store, warehouse, strategy, study, first_op)
        shutil.rmtree(directory, ignore_errors=True)
        # Free this epoch's world before the next one is built.
        del world, store, warehouse, strategy, study, contributors, query


def _refresh_setup(seed: int, sizes: Sizes, directory: Path) -> tuple:
    world = build_world(sizes.world, seed=seed)
    store = DurableStore(directory, name="warehouse", fsync=FSYNC)
    warehouse = Warehouse(db=store.db)
    store.attach_warehouse(warehouse)
    strategy = FullStrategy(materialization_job(world), warehouse)
    strategy.build()
    store.commit()
    return world, store, warehouse, strategy


def _refresh_checks(
    phase: Phase,
    world: Any,
    store: DurableStore,
    warehouse: Warehouse,
    strategy: FullStrategy,
    study: Any,
    first_op: int,
) -> None:
    """End-of-epoch checks: incremental == rebuild, ETL == Study.run,
    reopened warehouse == live warehouse.  Each covers the whole epoch."""
    table = strategy.job.table_name()
    reference = Warehouse()
    FullStrategy(materialization_job(world), reference).build()
    columns = reference.table(table).schema.column_names
    phase.check(
        checks.same_rows(
            "incremental refresh vs full rebuild",
            warehouse.table(table).rows(),
            reference.table(table).rows(),
            columns,
            ("source", "record_id"),
        ),
        first_op,
    )
    loaded = study_table_schema(study, "Procedure").name
    phase.check(
        checks.same_rows(
            "ETL load vs Study.run",
            warehouse.table(loaded).rows(),
            study.run().rows("Procedure"),
            study.output_columns("Procedure"),
            ("source", "record_id"),
        ),
        first_op,
    )
    live = state_fingerprint(store.db)
    store.close()
    reopened = DurableStore(store.directory, name="warehouse", fsync=FSYNC)
    try:
        phase.check(
            checks.same_fingerprints([live], [state_fingerprint(reopened.db)]),
            first_op,
        )
    finally:
        reopened.close(commit=False)


# -- metrics -------------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(workload: str, phase: Phase, sizes: Sizes) -> float:
    """The 90th percentile of the request mix, in seconds.

    Taken within consecutive blocks of requests (a round, an epoch, ten
    passes over the studies) and reported as the median over the blocks.
    A block spans a few seconds, in which the host's speed barely moves;
    pooled over a whole run, a speed change part-way would widen the
    distribution and move its tail more than its median.
    """
    values = phase.samples[REQUESTS[workload]]
    block = {"entry": sizes.entry_round, "studies": STUDY_BLOCK}.get(
        workload, sizes.cycles
    )
    blocks = [
        values[start : start + block]
        for start in range(0, len(values) - block + 1, block)
    ]
    return statistics.median(percentile(b, 0.9) for b in blocks or [values])


def end_to_end(
    workload: str,
    phase: Phase,
    sizes: Sizes,
    setup_s: list[float],
    peak_rss_mb: float,
) -> dict[str, float]:
    """The gated metrics, in the units BENCHMARK.json names."""
    s = phase.samples
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "op_ms.p50": percentile(s[MEDIAN[workload]], 0.5) * 1000,
        "op_ms.p90": tail(workload, phase, sizes) * 1000,
        "heavy_op_ms.p50": percentile(s[HEAVY[workload]], 0.5) * 1000,
    }


def named_metrics(workload: str, phase: Phase, sizes: Sizes) -> dict[str, float]:
    """The same run under the workload's own operation names."""
    s = phase.samples

    def ms(kind: str, fraction: float) -> float:
        return percentile(s[kind], fraction) * 1000

    if workload == "entry":
        return {
            "encounter_ms.p50": ms("encounter", 0.5),
            "encounter_ms.p90": tail(workload, phase, sizes) * 1000,
            "recover_ms": ms("recover", 0.5),
            "checkpoint_ms": ms("checkpoint", 0.5),
            "wal_bytes_per_encounter": phase.bytes_written / phase.encounters,
        }
    if workload == "studies":
        return {
            "study1_ms.p50": ms("study1", 0.5),
            "study2_ms.p50": ms("study2", 0.5),
            "study_ms.p90": tail(workload, phase, sizes) * 1000,
        }
    return {
        "refresh_ms.p50": ms("refresh", 0.5),
        "query_ms.p50": ms("query", 0.5),
        "etl_ms.p50": ms("etl", 0.5),
        "cycle_ms.p90": tail(workload, phase, sizes) * 1000,
        "delta_ms.p50": ms("delta", 0.5),
        "wal_bytes_per_cycle": phase.bytes_written / len(s["refresh"]),
    }


def per_layer(
    workload: str, phase: Phase, layers: LayerTracer, untraced: Phase
) -> dict[str, float]:
    """Per-layer metrics of a traced phase, per workload operation."""
    from paperbench.layers import layer_self_times

    ops = len(phase.samples[REQUESTS[workload]])
    times = layer_self_times(layers.roots())
    counts = layers.counts

    def ms(key: str) -> float:
        return times.get(key, 0.0) * 1000 / ops

    def per_op(key: str) -> float:
        return counts.get(key, 0) / ops

    def ratio(part: str, whole: list[str]) -> float:
        total = sum(counts.get(key, 0) for key in whole)
        return counts.get(part, 0) / total if total else 0.0

    traced_p50 = percentile(phase.samples[MEDIAN[workload]], 0.5)
    untraced_p50 = percentile(untraced.samples[MEDIAN[workload]], 0.5)
    return {
        "ui.enter_self_ms": ms("ui"),
        "ui.enter_calls": per_op("ui.enter_calls"),
        "ui.enablement_checks": per_op("ui.enablement_checks"),
        "patterns.write_ms": ms("patterns"),
        "patterns.writes": per_op("patterns.writes"),
        "patterns.rows_per_write": ratio("patterns.rows", ["patterns.writes"]),
        "storage.wal_append_ms": ms("self:storage.wal_append"),
        "storage.wal_appends": per_op("storage.wal_append"),
        "storage.commit_ms": ms("self:storage.commit"),
        "storage.snapshot_ms": ms("self:storage.snapshot"),
        "storage.recover_ms": ms("self:storage.recover"),
        "storage.records_replayed": per_op("storage.records_replayed"),
        "storage.bytes_written": phase.bytes_written / ops,
        "guava.translate_ms": ms("guava"),
        "guava.translate_calls": per_op("guava.translate_calls"),
        "relational.execute_ms": ms("relational"),
        "relational.rows_out": per_op("relational.rows_out"),
        "relational.plan_cache_hit_ratio": ratio(
            "relational.plan_cache_hits",
            ["relational.plan_cache_hits", "relational.plan_cache_misses"],
        ),
        "multiclass.classify_ms": ms("self:multiclass.classify"),
        "multiclass.classify_calls": per_op("multiclass.classify"),
        "multiclass.study_self_ms": ms("self:multiclass.study"),
        "etl.run_ms": ms("incl:etl.run"),
        "etl.self_ms": ms("etl"),
        "etl.rows_loaded": per_op("etl.rows_loaded"),
        "warehouse.build_ms": ms("incl:warehouse.build"),
        "warehouse.self_ms": ms("warehouse"),
        "warehouse.incremental_ratio": ratio(
            "warehouse.incremental_kept", ["warehouse.incremental_requested"]
        ),
        "warehouse.rows_reextracted": per_op("warehouse.rows_reextracted"),
        "warehouse.query_ms": ms("incl:warehouse.query"),
        "unattributed_ms": ms("unattributed"),
        "traced_op_ms": ms("total"),
        "tracing_overhead_pct": (traced_p50 / untraced_p50 - 1) * 100,
    }
