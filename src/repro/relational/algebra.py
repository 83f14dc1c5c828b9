"""Logical plans: the operator nodes every executor runs.

Plans are immutable trees of operator nodes; ``Plan.execute(db)`` runs the
tree against a :class:`~repro.relational.database.Database` and returns a
list of row dicts.  Predicates and computed columns use the shared
expression language, so the same conditions analysts write in classifiers
run here unchanged.

This module holds the nodes, their output schemas and the helpers shared
by both executors (canonical keys, sort keys, aggregate finalizers).
Execution itself is columnar: :mod:`repro.relational.vectorize` runs every
node batch-at-a-time, and :mod:`repro.relational.interpret` keeps the
original materializing interpreter as the executable specification the
batch executor is property-tested against.

Result rows are fresh dicts the caller may mutate, with one documented
exception: a bare :class:`Scan` root returns the table's version-keyed
snapshot rows zero-copy, read-only by contract (``Table.snapshot_rows``).

``Unpivot`` and ``Pivot`` are first-class because the paper's *Generic*
design pattern (EAV layouts) hinges on them: "Execute an un-pivot
operation, either in code or SQL if the operator exists in the DBMS".
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Sequence

from repro.errors import QueryError
from repro.expr.ast import Expression
from repro.obs.trace import TreeRecorder, current_tracer
from repro.relational.database import Database
from repro.relational.types import DataType

Row = dict[str, object]


class ExecContext:
    """Per-execution memo shared across one plan tree.

    ``output_columns`` of a node is O(depth) to compute; operators that
    consult child schemas (Project, Join, Union, Distinct) would otherwise
    each trigger a full recursion, turning deep pattern chains into
    O(depth²) schema work (ablation A6).  The context memoizes columns by
    node identity so one execute computes each node's schema exactly once.

    ``recorder`` (normally None) is the observability hook: when set, the
    batch executor meters every node's batches into the recorder's span
    tree.  The disabled cost is one attribute check per operator per
    execution — never per row or per batch.
    """

    __slots__ = ("db", "recorder", "_columns")

    def __init__(self, db: Database, recorder: TreeRecorder | None = None):
        self.db = db
        self.recorder = recorder
        # Keyed by node identity; the entry pins the node so a recycled id()
        # of a garbage-collected plan can never alias a stale cache hit.
        self._columns: dict[int, tuple["Plan", tuple[str, ...]]] = {}

    def annotate(self, plan: "Plan", **attrs: object) -> None:
        """Record runtime gauges for a node (no-op when not tracing)."""
        if self.recorder is not None:
            self.recorder.annotate(plan, **attrs)

    def columns(self, plan: "Plan") -> tuple[str, ...]:
        """Memoized ``plan.output_columns`` against this context's database."""
        key = id(plan)
        cached = self._columns.get(key)
        if cached is not None and cached[0] is plan:
            return cached[1]
        columns = plan._columns(self)
        self._columns[key] = (plan, columns)
        return columns


@dataclass(frozen=True)
class Plan:
    """Base class for all plan nodes."""

    def children(self) -> tuple["Plan", ...]:
        return ()

    def execute(self, db: Database) -> list[Row]:
        """Run the plan against ``db`` with the batch executor.

        Rows are fresh dicts, except for a bare :class:`Scan` root, which
        returns the table's shared snapshot rows (read-only; see the
        module docstring).  Under an installed tracer
        (``repro.obs.tracing()``) the execution is profiled: a span tree
        mirroring the plan records per-node row counts, batches and wall
        time.
        """
        tracer = current_tracer()
        if tracer is None:
            return execute_vectorized(self, ExecContext(db))
        with tracer.span(f"execute:{type(self).__name__}") as root:
            recorder = TreeRecorder(
                self, root, label=trace_label, children=lambda p: p.children()
            )
            rows = execute_vectorized(self, ExecContext(db, recorder))
            root.set("rows_out", len(rows))
            return rows

    def output_columns(self, db: Database) -> tuple[str, ...]:
        """Column names this node produces, in order."""
        return ExecContext(db).columns(self)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        raise NotImplementedError

    def walk(self) -> Iterable["Plan"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Scan(Plan):
    """Read a base table's full extent."""

    table: str

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.db.table(self.table).schema.column_names


@dataclass(frozen=True)
class IndexLookup(Plan):
    """Conjunctive equality probe on a base table, via a hash index.

    Produced by the optimizer from ``Select(Scan(t), col = literal AND …)``
    when the table has a covering :class:`~repro.relational.index.HashIndex`.
    Falls back to a filtered scan when no index matches at execution time,
    so the node is always executable; the equality post-filter keeps SQL
    semantics exact even across hash-equal keys (``1`` vs ``TRUE``).
    """

    table: str
    items: tuple[tuple[str, object], ...]

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.db.table(self.table).schema.column_names


@dataclass(frozen=True)
class InLookup(Plan):
    """Multi-probe equality lookup: ``column IN (v1, …)`` via a hash index.

    Produced by the optimizer from a ``col IN (literals)`` conjunct over a
    scanned table with a single-column hash index on ``col``; remaining
    conjuncts stay behind in a residual :class:`Select` above this node.
    Matched positions are merged and sorted, so rows come out in extent
    order — exactly the order of the filtered scan this replaces.
    """

    table: str
    column: str
    values: tuple[object, ...]

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.db.table(self.table).schema.column_names


@dataclass(frozen=True)
class PartitionScan(Plan):
    """Read only the listed partitions of a partitioned base table.

    Produced by the optimizer when a conjunct on the partition key proves
    the other partitions cannot hold matching rows.  The *full* original
    predicate always stays behind in a residual :class:`Select` above this
    node — pruning narrows the scanned superset, it never filters — so a
    stale or mismatched scheme at execution time can safely fall back to a
    full scan.  Merged partition positions are ascending, so rows come out
    in extent (insertion) order, exactly like the scan this replaces.
    """

    table: str
    partitions: tuple[int, ...]

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.db.table(self.table).schema.column_names


@dataclass(frozen=True)
class Values(Plan):
    """A literal relation (used by tests and by ETL staging steps)."""

    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.columns


@dataclass(frozen=True)
class Select(Plan):
    """Keep rows whose predicate evaluates to TRUE (NULL filters out)."""

    child: Plan
    predicate: Expression

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class Project(Plan):
    """Keep only the named columns, in the given order."""

    child: Plan
    columns: tuple[str, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.columns


@dataclass(frozen=True)
class Compute(Plan):
    """Extend each row with computed columns (generalized projection)."""

    child: Plan
    derivations: tuple[tuple[str, Expression], ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        base = ctx.columns(self.child)
        new = tuple(name for name, _ in self.derivations if name not in base)
        return base + new


@dataclass(frozen=True)
class Rename(Plan):
    """Rename columns: mapping of old name → new name."""

    child: Plan
    mapping: tuple[tuple[str, str], ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        table = dict(self.mapping)
        return tuple(table.get(column, column) for column in ctx.columns(self.child))


@dataclass(frozen=True)
class Join(Plan):
    """Equi-join on column pairs.  ``how`` is ``inner`` or ``left``.

    Non-join columns of the two sides must be disjoint; collide-by-accident
    joins are a classic silent-corruption source in hand-written ETL, so we
    refuse them and force an explicit :class:`Rename`.

    ``build`` is a physical hint set by the cost-based optimizer: hash
    executors build their table on that side (``"right"``, the default, or
    ``"left"``).  It never changes output rows, order, or columns — the
    left-build batch algorithm re-emits matches left-major — so the
    interpreter is free to ignore it.
    """

    left: Plan
    right: Plan
    on: tuple[tuple[str, str], ...]
    how: str = "inner"
    build: str = "right"

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        right_keys = {rk for _, rk in self.on}
        right_cols = tuple(
            column
            for column in ctx.columns(self.right)
            if column not in right_keys
        )
        return ctx.columns(self.left) + right_cols


@dataclass(frozen=True)
class Union(Plan):
    """Union-all of inputs sharing the same column set.

    This is MultiClass's integration operator: "MultiClass simply unions
    together the results of ETL workflows from different contributors."
    """

    inputs: tuple[Plan, ...]

    def children(self) -> tuple[Plan, ...]:
        return self.inputs

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        if not self.inputs:
            return ()
        return ctx.columns(self.inputs[0])


@dataclass(frozen=True)
class Distinct(Plan):
    """Remove duplicate rows, preserving first-seen order."""

    child: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class Unpivot(Plan):
    """Wide → EAV: each value column becomes an (attribute, value) row."""

    child: Plan
    id_columns: tuple[str, ...]
    value_columns: tuple[str, ...]
    attribute_column: str = "attribute"
    value_column: str = "value"

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.id_columns + (self.attribute_column, self.value_column)


@dataclass(frozen=True)
class Pivot(Plan):
    """EAV → wide: rows sharing key columns fold into one row per key.

    Attributes absent for a key yield NULL; duplicate (key, attribute)
    pairs keep the *last* value, matching reporting tools that overwrite
    earlier saves.
    """

    child: Plan
    key_columns: tuple[str, ...]
    attribute_column: str
    value_column: str
    attributes: tuple[str, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.key_columns + self.attributes


@dataclass(frozen=True)
class Coerce(Plan):
    """Coerce named columns to declared types.

    Read paths of patterns that store values as text (Generic/EAV, Blob)
    end with a Coerce restoring the naive schema's types.
    """

    child: Plan
    column_types: tuple[tuple[str, "DataType"], ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: ``func`` over ``column`` (None for COUNT(*)) as ``alias``."""

    func: str  # COUNT, COUNT_DISTINCT, SUM, AVG, MIN, MAX
    column: str | None
    alias: str


@dataclass(frozen=True)
class Aggregate(Plan):
    """Group-by aggregation."""

    child: Plan
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.group_by + tuple(spec.alias for spec in self.aggregates)


@dataclass(frozen=True)
class Sort(Plan):
    """Order rows by keys; each key is (column, ascending)."""

    child: Plan
    keys: tuple[tuple[str, bool], ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class TopK(Plan):
    """Fused Sort+Limit: heap-select the first ``count`` rows by ``keys``.

    Produced by the optimizer from ``Limit(Sort(child, keys), count)``.
    Uniform-direction key lists ride ``heapq.nsmallest``/``nlargest`` with
    plain tuple keys (both are documented equivalent to a stable
    ``sorted(...)[:n]``, so tie order matches :class:`Sort`'s repeated
    stable sorts); mixed ascending/descending keys fall back to the sort
    itself, truncated.
    """

    child: Plan
    keys: tuple[tuple[str, bool], ...]
    count: int

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class Limit(Plan):
    """Keep the first ``count`` rows."""

    child: Plan
    count: int

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


# -- helpers -------------------------------------------------------------------


def trace_label(plan: Plan) -> str:
    """One-line span label for a plan node (type plus its key parameters)."""
    if isinstance(plan, Scan):
        return f"Scan[{plan.table}]"
    if isinstance(plan, IndexLookup):
        columns = ",".join(column for column, _ in plan.items)
        return f"IndexLookup[{plan.table}: {columns}]"
    if isinstance(plan, InLookup):
        return f"InLookup[{plan.table}.{plan.column} IN ({len(plan.values)})]"
    if isinstance(plan, PartitionScan):
        return f"PartitionScan[{plan.table}: {len(plan.partitions)} parts]"
    if isinstance(plan, Values):
        return f"Values[{len(plan.rows)} rows]"
    if isinstance(plan, Select):
        return f"Select[{plan.predicate.to_source()}]"
    if isinstance(plan, Project):
        return f"Project[{','.join(plan.columns)}]"
    if isinstance(plan, Compute):
        return f"Compute[{','.join(name for name, _ in plan.derivations)}]"
    if isinstance(plan, Rename):
        return f"Rename[{','.join(f'{old}->{new}' for old, new in plan.mapping)}]"
    if isinstance(plan, Join):
        on = ",".join(f"{lk}={rk}" for lk, rk in plan.on)
        side = "" if plan.build == "right" else f" build={plan.build}"
        return f"Join[{plan.how}: {on}{side}]"
    if isinstance(plan, Union):
        return f"Union[{len(plan.inputs)} inputs]"
    if isinstance(plan, Pivot):
        return f"Pivot[{','.join(plan.key_columns)}: {len(plan.attributes)} attrs]"
    if isinstance(plan, Unpivot):
        return f"Unpivot[{','.join(plan.value_columns)}]"
    if isinstance(plan, Coerce):
        return f"Coerce[{','.join(column for column, _ in plan.column_types)}]"
    if isinstance(plan, Aggregate):
        funcs = ",".join(spec.alias for spec in plan.aggregates)
        return f"Aggregate[{','.join(plan.group_by)}: {funcs}]"
    if isinstance(plan, Sort):
        keys = ",".join(("" if asc else "-") + col for col, asc in plan.keys)
        return f"Sort[{keys}]"
    if isinstance(plan, TopK):
        keys = ",".join(("" if asc else "-") + col for col, asc in plan.keys)
        return f"TopK[{keys} limit {plan.count}]"
    if isinstance(plan, Limit):
        return f"Limit[{plan.count}]"
    return type(plan).__name__


# Unforgeable tag segregating booleans from their hash-equal integers in
# grouping/join keys; no user value can ever equal a tuple holding it.
_BOOL_TAG = object()

# Types canonical_key maps to themselves (note ``type(True) is bool``, never
# ``int``).  Hot per-row loops check ``type(v) in _IDENTITY_KEY_TYPES``
# inline to skip the function call for the common case.
_IDENTITY_KEY_TYPES = frozenset((int, float, str))


def canonical_key(value: object) -> object:
    """Hash/equality key for one value under SQL semantics.

    Python's ``hash(True) == hash(1)`` (and ``True == 1``) would silently
    merge a BOOLEAN column's ``TRUE`` with an INTEGER ``1`` in group-by,
    distinct, COUNT_DISTINCT, and hash-join keys — but ``sql_equal``
    distinguishes them, so the keys must too.  Booleans are tagged with a
    private sentinel; unhashable containers collapse to their ``repr``.
    Both executors (interpreter and batch) share this one function so
    their grouping/join semantics can never diverge.
    """
    if isinstance(value, bool):
        return (_BOOL_TAG, value)
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def _sort_key(value: object) -> tuple[int, object]:
    """Total order with NULLs first and types segregated.

    ``Decimal`` sorts in the numeric band: Python compares Decimal with
    int/float natively, and stringifying it (the old fallback) would have
    ordered ``Decimal("9")`` after ``Decimal("10")``.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float, Decimal)):
        return (2, value)
    return (3, str(value))


def _aggregate(spec: AggregateSpec, rows: Sequence[Row]) -> object:
    func = spec.func.upper()
    if func == "COUNT" and spec.column is None:
        return len(rows)
    if spec.column is None:
        raise QueryError(f"{func} requires a column")
    column = spec.column
    values = [v for row in rows if (v := row.get(column)) is not None]
    return _aggregate_values(func, values, spec.func)


def _aggregate_values(func: str, values: list[object], name: str) -> object:
    """Finalize one aggregate over a column's non-NULL values (row order).

    Shared by the interpreter (via :func:`_aggregate`) and the batch
    executor's grouped accumulation, so both produce identical
    results by construction.  ``func`` is already upper-cased; ``name`` is
    the spec's original spelling, for error messages.  COUNT(*) is handled
    by the callers (it needs the row count, not a column).
    """
    if func == "COUNT":
        return len(values)
    if func == "COUNT_DISTINCT":
        return len({canonical_key(value) for value in values})
    if func == "STRING_AGG":
        # Joins in input row order; callers sort upstream for canonical order.
        return ";".join(str(value) for value in values) if values else None
    if not values:
        return None
    if func == "SUM":
        return sum(values)  # type: ignore[arg-type]
    if func == "AVG":
        return sum(values) / len(values)  # type: ignore[arg-type]
    if func == "MIN":
        return min(values)  # type: ignore[type-var]
    if func == "MAX":
        return max(values)  # type: ignore[type-var]
    raise QueryError(f"unknown aggregate function {name!r}")


# The batch kernels import the node classes above, so the executor binds
# last; the package imports this module before ``vectorize``.
from repro.relational.vectorize import execute_vectorized  # noqa: E402
