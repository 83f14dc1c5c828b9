"""Per-layer tracing from outside the program.

The traced run wraps public calls of each layer (``ui``, ``patterns``,
``storage``, ``guava``, ``relational``, ``multiclass``, ``etl``,
``warehouse``) with spans built from :class:`repro.obs.trace.Span`.  The
wrappers live here and are patched onto the program's classes and
modules for the traced phase only; :meth:`LayerTracer.remove` restores
every original before an untraced phase runs.

Each workload operation opens a root span (``op:<kind>``).  Wrapped calls
made inside an operation become child spans; calls made outside one
(set-up, correctness checks) pass straight through and are not recorded.
Hot leaf calls (``Classifier.classify``, ``WriteAheadLog.append``) are
folded into one aggregate child per parent span, which keeps the tree
bounded while their time still subtracts from the parent's self time.
The program's own tracer (``repro.obs.trace.tracing``) stays off, so the
engine's internal hooks do not change the execution path.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.obs.trace import Span, Tracer

#: Span name → the layer whose self time it carries.  Roots (``op:*``)
#: carry the remainder no layer span covers.
SPAN_LAYERS = {
    "ui.enter": "ui",
    "patterns.write": "patterns",
    "storage.wal_append": "storage",
    "storage.commit": "storage",
    "storage.snapshot": "storage",
    "storage.recover": "storage",
    "guava.translate": "guava",
    "relational.execute": "relational",
    "relational.extract": "relational",
    "multiclass.classify": "multiclass",
    "multiclass.study": "multiclass",
    "etl.run": "etl",
    "etl.load": "etl",
    "warehouse.build": "warehouse",
    "warehouse.query": "warehouse",
}

LAYERS = (
    "ui",
    "patterns",
    "storage",
    "guava",
    "relational",
    "multiclass",
    "etl",
    "warehouse",
)


class LayerTracer:
    """Patches layer wrappers in, records spans and counts, patches out."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: Counter[str] = Counter()
        self.origin = perf_counter()
        self._patches: list[tuple[object, str, object]] = []
        self._aggregates: dict[tuple[int, str], Span] = {}

    # -- operations ----------------------------------------------------------

    def op(self, kind: str, op_id: int) -> Any:
        """Context manager: one workload operation as a root span."""
        return self.tracer.span(f"op:{kind}", op=kind, id=op_id)

    def roots(self) -> list[Span]:
        return self.tracer.roots

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_span(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Callable[[tuple, dict, Any], None] | None = None,
    ) -> None:
        """Record each call of ``owner.attr`` as a child span ``name``."""
        original = owner.__dict__[attr]
        tracer = self.tracer

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.current() is None:
                return original(*args, **kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_leaf(self, owner: object, attr: str, name: str) -> None:
        """Fold every call of ``owner.attr`` into one child per parent."""
        original = owner.__dict__[attr]
        tracer = self.tracer
        aggregates = self._aggregates
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = tracer.current()
            if parent is None:
                return original(*args, **kwargs)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                key = (id(parent), name)
                folded = aggregates.get(key)
                if folded is None:
                    folded = parent.child(name, calls=0)
                    aggregates[key] = folded
                folded.duration_s += elapsed
                folded.attrs["calls"] += 1
                counts[name] += 1

        self._patch(owner, attr, wrapper)

    def wrap_count(
        self,
        owner: object,
        attr: str,
        count: Callable[[tuple, dict, Any], str | None],
    ) -> None:
        """Count calls of ``owner.attr`` under the key ``count`` returns."""
        original = owner.__dict__[attr]
        tracer = self.tracer
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            if tracer.current() is not None:
                key = count(args, kwargs, result)
                if key is not None:
                    counts[key] += 1
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> "LayerTracer":
        """Patch every layer's wrapped public calls."""
        import repro.etl.compile as etl_compile
        import repro.guava.source as guava_source
        from repro.etl.components import Extract, Load
        from repro.etl.workflow import Workflow
        from repro.guava.source import GuavaSource
        from repro.multiclass.classifier import Classifier
        from repro.multiclass.study import Study
        from repro.patterns.chain import PatternChain
        from repro.relational.database import Database
        from repro.storage.engine import DurableStore
        from repro.storage.wal import WriteAheadLog
        from repro.ui.session import DataEntrySession, FormInstance
        from repro.warehouse.materialize import MaterializationStrategy
        from repro.warehouse.querying import StudyTableQuery

        counts = self.counts

        def tally(key: str, amount: Callable[[tuple, dict, Any], int]) -> Callable:
            def after(args: tuple, kwargs: dict, result: Any) -> None:
                counts[key] += amount(args, kwargs, result)

            return after

        # ui: screens entered (minus the writer below them), enablement checks.
        self.wrap_span(
            DataEntrySession, "enter", "ui.enter", tally("ui.enter_calls", _one)
        )
        self.wrap_count(
            FormInstance, "is_enabled", lambda a, k, r: "ui.enablement_checks"
        )
        # patterns: one saved screen laid out through the chain.
        self.wrap_span(
            PatternChain,
            "write",
            "patterns.write",
            _tally_many(counts, ("patterns.writes", _one), ("patterns.rows", _result)),
        )
        # storage: appends, commits, checkpoints, reopen (= recovery).
        self.wrap_leaf(WriteAheadLog, "append", "storage.wal_append")
        self.wrap_span(DurableStore, "commit", "storage.commit")
        self.wrap_span(DurableStore, "snapshot", "storage.snapshot")
        self.wrap_span(
            DurableStore,
            "__init__",
            "storage.recover",
            tally("storage.records_replayed", lambda a, k, r: a[0].report.replayed),
        )
        # guava: g-tree → algebra translation, where sources and ETL bind it.
        for module in (guava_source, etl_compile):
            self.wrap_span(
                module,
                "translate_query",
                "guava.translate",
                tally("guava.translate_calls", _one),
            )
        # relational: plan execution behind GUAVA and the ETL extract.
        self.wrap_span(
            GuavaSource,
            "execute",
            "relational.execute",
            _tally_many(
                counts,
                ("relational.rows_out", _rows),
                ("warehouse.rows_reextracted", _scoped_rows),
            ),
        )
        self.wrap_span(
            Extract, "run", "relational.extract", tally("relational.rows_out", _rows)
        )
        self.wrap_count(
            Database,
            "plan_cache_get",
            lambda a, k, r: "relational.plan_cache_misses"
            if r is None
            else "relational.plan_cache_hits",
        )
        # multiclass: per-record classification and the study run around it.
        self.wrap_leaf(Classifier, "classify", "multiclass.classify")
        self.wrap_span(Study, "run", "multiclass.study")
        # etl: the workflow run and the warehouse load.
        self.wrap_span(Workflow, "run", "etl.run")
        self.wrap_span(Load, "run", "etl.load", tally("etl.rows_loaded", _load_rows))
        # warehouse: materialized refresh and analyst queries.
        self._wrap_build(MaterializationStrategy)
        self.wrap_span(StudyTableQuery, "run", "warehouse.query")
        return self

    def _wrap_build(self, strategy_class: type) -> None:
        """``build`` span plus whether an incremental request stayed so.

        A full build drops and re-creates the materialized table, an
        incremental one keeps the same table object, so comparing the
        table before and after tells the two apart from outside.
        """
        original = strategy_class.__dict__["build"]
        tracer = self.tracer
        counts = self.counts

        def wrapper(strategy: Any, incremental: bool = False) -> None:
            if tracer.current() is None:
                return original(strategy, incremental)
            name = strategy.job.table_name()
            before = (
                strategy.warehouse.table(name)
                if strategy.warehouse.has_table(name)
                else None
            )
            with tracer.span("warehouse.build"):
                original(strategy, incremental)
            if incremental:
                counts["warehouse.incremental_requested"] += 1
                if strategy.warehouse.table(name) is before:
                    counts["warehouse.incremental_kept"] += 1

        self._patch(strategy_class, "build", wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------

    def tree(self) -> list[dict[str, Any]]:
        """The span forest as JSON-ready dicts (start relative to origin)."""
        origin = self.origin

        def convert(span: Span) -> dict[str, Any]:
            out: dict[str, Any] = {
                "name": span.name,
                "duration_ms": span.duration_s * 1000,
            }
            if span.start_s:
                out["start_ms"] = (span.start_s - origin) * 1000
            if span.attrs:
                out["attrs"] = dict(span.attrs)
            if span.children:
                out["children"] = [convert(child) for child in span.children]
            return out

        return [convert(root) for root in self.tracer.roots]

    def write_tree(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.tree()}, separators=(",", ":")))


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _result(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result)


def _rows(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _scoped_rows(args: tuple, kwargs: dict, result: Any) -> int:
    # GuavaSource.execute(query, record_ids=...) is the record-scoped
    # re-extraction path of incremental materialization.
    scoped = kwargs.get("record_ids", args[2] if len(args) > 2 else None)
    return len(result) if scoped is not None else 0


def _load_rows(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1][0])


def _tally_many(counts: Counter[str], *pairs: tuple[str, Callable]) -> Callable:
    def after(args: tuple, kwargs: dict, result: Any) -> None:
        for key, amount in pairs:
            counts[key] += amount(args, kwargs, result)

    return after


# -- per-layer metrics ---------------------------------------------------------


def layer_self_times(roots: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer, plus ``unattributed`` and ``total``.

    A span's self time is its duration minus its children's; summing self
    times over the whole forest gives back the roots' total exactly, so
    the layers plus the remainder account for all traced operation time.
    Also returns per-span-name self and inclusive times under
    ``self:<name>`` and ``incl:<name>`` keys.
    """
    out: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    out["unattributed"] = 0.0
    out["total"] = 0.0
    for root in roots:
        out["total"] += root.duration_s
        for span in root.walk():
            own = span.duration_s - sum(c.duration_s for c in span.children)
            layer = SPAN_LAYERS.get(span.name)
            if layer is None:
                out["unattributed"] += own
            else:
                out[layer] += own
                out[f"self:{span.name}"] = out.get(f"self:{span.name}", 0.0) + own
                out[f"incl:{span.name}"] = (
                    out.get(f"incl:{span.name}", 0.0) + span.duration_s
                )
    return out
