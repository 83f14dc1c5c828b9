"""Executor contracts: the copy boundary, batch-granular early stop, memo.

The batch executor pipelines batches from node to node, so a ``Limit``
stops pulling from its child after the batch that satisfies it; the span
tree of a traced run counts what each node produced.
"""

from dataclasses import dataclass

from repro.expr.ast import BinaryOp, Identifier, Literal
from repro.obs import explain_analyze
from repro.relational import (
    BATCH_SIZE,
    Database,
    DataType,
    IndexLookup,
    Limit,
    Plan,
    Project,
    Scan,
    Select,
    Sort,
    TableSchema,
)
from repro.relational.algebra import ExecContext


def _db(n: int = 10) -> Database:
    db = Database("stream")
    db.create_table(
        TableSchema.build("t", [("id", DataType.INTEGER), ("v", DataType.INTEGER)])
    )
    db.insert("t", [{"id": i, "v": i * 2} for i in range(n)])
    db.table("t").create_index(("id",))
    return db


def _scan_span(plan, db):
    """The Scan node's span from one traced, unoptimized execution."""
    report = explain_analyze(plan, db, optimized=False)
    (span,) = [span for node, span in report.node_spans() if isinstance(node, Scan)]
    return report.rows, span


class TestCopyBoundary:
    """``execute`` must hand back rows the caller can freely mutate."""

    def _assert_result_is_detached(self, plan, db):
        before = [dict(row) for row in db.table("t").rows()]
        result = plan.execute(db)
        for row in result:
            row.clear()
            row["junk"] = object()
        assert [dict(r) for r in db.table("t").rows()] == before

    def test_scan_results_detached(self):
        # A bare Scan returns the read-only snapshot rows, never the
        # table's storage: even a mutating caller cannot reach the extent.
        self._assert_result_is_detached(Scan("t"), _db())

    def test_select_over_scan_detached(self):
        plan = Select(Scan("t"), BinaryOp(">=", Identifier.of("v"), Literal(4)))
        self._assert_result_is_detached(plan, _db())

    def test_index_lookup_detached(self):
        self._assert_result_is_detached(IndexLookup("t", (("id", 3),)), _db())

    def test_sort_over_scan_detached(self):
        self._assert_result_is_detached(Sort(Scan("t"), (("v", False),)), _db())

    def test_limit_over_scan_detached(self):
        self._assert_result_is_detached(Limit(Scan("t"), 4), _db())

    def test_project_builds_fresh_rows(self):
        db = _db()
        snapshot = db.table("t").snapshot_rows()
        rows = Project(Scan("t"), ("id", "v")).execute(db)
        assert rows == snapshot
        assert all(row is not shared for row, shared in zip(rows, snapshot))
        self._assert_result_is_detached(Project(Scan("t"), ("id",)), db)


class TestLaziness:
    def test_limit_stops_pulling_from_child(self):
        db = _db(3 * BATCH_SIZE)
        rows, scan = _scan_span(Limit(Scan("t"), 5), db)
        assert len(rows) == 5
        # One batch was pulled from the scan, not all three.
        assert scan.attrs["batches"] == 1
        assert scan.attrs["rows_out"] == BATCH_SIZE

    def test_limit_zero_pulls_nothing(self):
        db = _db(100)
        rows, scan = _scan_span(Limit(Scan("t"), 0), db)
        assert rows == []
        assert scan.attrs.get("rows_out", 0) == 0

    def test_select_streams_through_limit(self):
        # Limit(Select(Scan)) stops after the batch in which enough rows
        # pass the filter.
        db = _db(3 * BATCH_SIZE)
        predicate = BinaryOp(">=", Identifier.of("id"), Literal(10))
        rows, scan = _scan_span(Limit(Select(Scan("t"), predicate), 3), db)
        assert [row["id"] for row in rows] == [10, 11, 12]
        assert scan.attrs["batches"] == 1

    def test_negative_limit_keeps_slice_semantics(self):
        db = _db(10)
        assert [r["id"] for r in Limit(Scan("t"), -3).execute(db)] == list(range(7))


class TestExecContextMemo:
    def test_columns_computed_once_per_node(self):
        db = _db()
        calls = []

        @dataclass(frozen=True, eq=False)
        class Probed(Scan):
            def _columns(self, ctx):
                calls.append(self)
                return super()._columns(ctx)

        node = Probed("t")
        ctx = ExecContext(db)
        deep: Plan = node
        for _ in range(20):
            deep = Project(deep, ("id", "v"))
        # Resolving the deep plan's schema touches the scan exactly once.
        assert ctx.columns(deep) == ("id", "v")
        assert ctx.columns(node) == ("id", "v")
        assert len(calls) == 1

    def test_distinct_contexts_do_not_share_state(self):
        db = _db()
        node = Scan("t")
        assert ExecContext(db).columns(node) == ExecContext(db).columns(node)
