"""Batch executor ≡ interpreted, on randomized plans.

The batch executor is the engine's one executor, so it carries the
tentpole guarantee: bit-identical rows (values *and* order) against the
reference interpreter on every database — including NULL-heavy columns,
mixed bool/int keys, EAV round trips through the Unpivot and Pivot
kernels, and index probes (IndexLookup, InLookup, with and without a
matching index) as leaves or roots.  Randomized plans run at several
batch sizes, so each example feeds its kernels zero, one or several
batches.  When the interpreter raises, the batch executor must raise an
error of the same family; the *originating row* may differ (column-major
vs row-major evaluation order), which is the one documented divergence.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError, QueryError, ReproError, TypeMismatchError
from repro.expr.ast import BinaryOp, Identifier, InList, IsNull, Literal, UnaryOp
from repro.expr.parser import parse
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Coerce,
    Compute,
    Database,
    DataType,
    Distinct,
    IndexLookup,
    InLookup,
    Join,
    Limit,
    Pivot,
    Plan,
    Project,
    Rename,
    Scan,
    Select,
    Sort,
    TableSchema,
    TopK,
    Union,
    Unpivot,
    Values,
    execute_interpreted,
    optimize,
)
from repro.relational import vectorize as vectorize_mod
from repro.relational.batch import BATCH_SIZE
from repro.relational.vectorize import _KERNELS

_NAMES = ["ann", "bob", "cal", None]

# NULL-heavy and type-mixed on purpose: ``age`` mixes integers, booleans,
# and NULLs so grouping/join/distinct keys exercise the canonical-key rules.
_patient_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.integers(0, 12),
            "age": st.one_of(st.integers(0, 5), st.none(), st.booleans()),
            "name": st.sampled_from(_NAMES),
            "smoker": st.one_of(st.booleans(), st.none()),
        }
    ),
    max_size=30,
)

_visit_rows = st.lists(
    st.fixed_dictionaries(
        {
            "visit_id": st.integers(0, 40),
            "patient_id": st.one_of(st.integers(0, 12), st.none(), st.booleans()),
            "score": st.one_of(st.integers(-3, 9), st.none()),
        }
    ),
    max_size=30,
)


def _load(patients, visits) -> Database:
    db = Database("vec")
    db.create_table(
        TableSchema.build(
            "patients",
            [
                ("patient_id", DataType.INTEGER),
                ("age", DataType.INTEGER),
                ("name", DataType.TEXT),
                ("smoker", DataType.BOOLEAN),
            ],
        )
    )
    db.create_table(
        TableSchema.build(
            "visits",
            [
                ("visit_id", DataType.INTEGER),
                ("patient_id", DataType.INTEGER),
                ("score", DataType.INTEGER),
            ],
        )
    )
    db.insert("patients", patients)
    db.insert("visits", visits)
    db.table("patients").create_index(("name",))
    db.table("patients").create_index(("age",))
    db.table("visits").create_index(("patient_id",))
    return db


def _outcome(fn):
    """(\"ok\", rows) or (\"err\", exception type) — types compare, rows match.

    ``TypeError`` is engine behaviour too: SUM/AVG over non-numeric values
    raise it from the shared ``_aggregate_values`` on every executor.
    """
    try:
        return ("ok", fn())
    except (ReproError, TypeError) as exc:
        return ("err", type(exc))


def _assert_batch_agrees(plan, db) -> None:
    """Interpreter (spec) and batch execution agree."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    batch = _outcome(lambda: plan.execute(db))
    if reference[0] == "err":
        # Error parity is by type only: the batch path may trip on a
        # different row of the same doomed column.
        assert batch[0] == "err"
        assert issubclass(batch[1], (ReproError, TypeError))
    else:
        assert batch == reference


# -- random plan generation ----------------------------------------------------

_PATIENT_COLS = ("patient_id", "age", "name", "smoker")
_VISIT_COLS = ("visit_id", "patient_id", "score")

_literals = st.one_of(
    st.integers(-2, 6),
    st.sampled_from(["ann", "bob", "a%", ""]),
    st.booleans(),
    st.none(),
    st.floats(0, 3),
)


@st.composite
def _predicates(draw, columns):
    """A predicate over ``columns`` (may legitimately raise 3VL type errors)."""
    column = Identifier.of(draw(st.sampled_from(columns)))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return BinaryOp(op, column, Literal(draw(_literals)))
    if kind == 1:
        return IsNull(column, negated=draw(st.booleans()))
    if kind == 2:
        items = tuple(Literal(draw(_literals)) for _ in range(draw(st.integers(1, 3))))
        return InList(column, items, negated=draw(st.booleans()))
    if kind == 3:
        return BinaryOp("LIKE", column, Literal(draw(st.sampled_from(["a%", "%b%", "c__"]))))
    left = draw(_predicates(columns))
    right = draw(_predicates(columns))
    if kind == 4:
        return BinaryOp(draw(st.sampled_from(["AND", "OR"])), left, right)
    return UnaryOp("NOT", left)


_probe_literals = st.one_of(
    st.integers(0, 12), st.sampled_from(["ann", "bob", "zed"]), st.booleans(), st.none()
)


@st.composite
def _leaves(draw):
    """A base-table access path: a scan or an index probe.

    Probes target indexed and unindexed columns (the scan fallback), and
    NULL and bool literals (the residual re-checks: NULL never equals, a
    bool never equals an INTEGER).
    """
    kind = draw(st.integers(0, 3))
    if kind == 0:
        table = draw(st.sampled_from(["patients", "visits"]))
        return Scan(table), _PATIENT_COLS if table == "patients" else _VISIT_COLS
    if kind == 1:
        columns = draw(st.sets(st.sampled_from(_PATIENT_COLS), min_size=1, max_size=2))
        items = tuple((column, draw(_probe_literals)) for column in sorted(columns))
        return IndexLookup("patients", items), _PATIENT_COLS
    table, columns = draw(
        st.sampled_from([("patients", _PATIENT_COLS), ("visits", _VISIT_COLS)])
    )
    column = draw(st.sampled_from(columns))
    values = tuple(draw(st.lists(_probe_literals, max_size=4)))
    return InLookup(table, column, values), columns


@st.composite
def _plans(draw, depth=2):
    """(plan, output columns), tracking columns so wrappers stay valid."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_leaves())
    child, columns = draw(_plans(depth=depth - 1))
    kind = draw(st.integers(0, 8))
    if kind == 0:
        return Select(child, draw(_predicates(columns))), columns
    if kind == 1:
        keep = draw(st.sets(st.sampled_from(columns), min_size=1))
        kept = tuple(c for c in columns if c in keep)
        return Project(child, kept), kept
    if kind == 2:
        column = draw(st.sampled_from(columns))
        derived = BinaryOp(
            draw(st.sampled_from(["+", "-", "*", "/", "%"])),
            Identifier.of(column),
            Literal(draw(st.one_of(st.integers(-2, 4), st.none()))),
        )
        return Compute(child, (("derived", derived),)), columns + ("derived",)
    if kind == 3:
        return Distinct(child), columns
    if kind == 4:
        keys = tuple(
            (c, draw(st.booleans()))
            for c in draw(st.sets(st.sampled_from(columns), min_size=1))
        )
        if draw(st.booleans()):
            return Sort(child, keys), columns
        return TopK(child, keys, draw(st.integers(0, 8))), columns
    if kind == 5:
        return Limit(child, draw(st.integers(-4, 12))), columns
    if kind == 6:
        group = tuple(draw(st.sets(st.sampled_from(columns), max_size=2)))
        value_column = draw(st.sampled_from(columns))
        func = draw(st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG", "COUNT_DISTINCT"]))
        specs = (
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec(func, value_column, "agg"),
        )
        return Aggregate(child, group, specs), group + ("n", "agg")
    if kind == 7:
        ids = tuple(draw(st.sets(st.sampled_from(columns), max_size=2)))
        values = tuple(draw(st.lists(st.sampled_from(columns), max_size=3)))
        # The attribute/value names may collide with an id column.
        attribute = draw(st.sampled_from(["attribute", columns[0]]))
        value = draw(st.sampled_from(["value", "attribute"]))
        plan = Unpivot(child, ids, values, attribute, value)
        return plan, tuple(dict.fromkeys(ids + (attribute, value)))
    return Union((child, child)), columns


class _batch_size:
    """Run with ``BATCH_SIZE`` patched to ``size`` rows per batch."""

    def __init__(self, size: int):
        self.size = size

    def __enter__(self):
        self.saved = vectorize_mod.BATCH_SIZE
        vectorize_mod.BATCH_SIZE = self.size
        return self

    def __exit__(self, *exc):
        vectorize_mod.BATCH_SIZE = self.saved
        return False


#: One row per batch, a few rows per batch, and everything in one batch.
_batch_sizes = st.sampled_from([1, 4, BATCH_SIZE])


class TestRandomizedPlans:
    @given(_patient_rows, _visit_rows, _plans(), _batch_sizes)
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_interpreter(self, patients, visits, drawn, size):
        plan, _ = drawn
        db = _load(patients, visits)
        with _batch_size(size):
            _assert_batch_agrees(plan, db)

    @given(_patient_rows, _visit_rows, _predicates(_PATIENT_COLS))
    @settings(max_examples=120, deadline=None)
    def test_random_predicates_over_join(self, patients, visits, predicate):
        db = _load(patients, visits)
        plan = Select(
            Join(
                Scan("patients"),
                Rename(Scan("visits"), (("visit_id", "vid"),)),
                (("patient_id", "patient_id"),),
                how="left",
            ),
            predicate,
        )
        _assert_batch_agrees(plan, db)

    @given(_patient_rows)
    @settings(max_examples=80, deadline=None)
    def test_optimized_plan_matches_interpreter(self, patients):
        # End-to-end: whatever access path the planner picks must agree.
        db = _load(patients, [])
        plan = Project(
            Select(Scan("patients"), parse("age >= 2 OR smoker = TRUE")),
            ("patient_id", "age"),
        )
        reference = execute_interpreted(plan, db)
        assert optimize(plan, db).execute(db) == reference


class TestFallbackSubtrees:
    """Unpivot and the index probes inside batch pipelines."""

    @given(_patient_rows)
    @settings(max_examples=60, deadline=None)
    def test_unpivot_pivot_fallback_inside_batch(self, patients):
        unique = list({row["patient_id"]: row for row in patients}.values())
        db = _load(unique, [])
        unpivoted = Unpivot(
            Scan("patients"),
            id_columns=("patient_id",),
            value_columns=("age", "name"),
            attribute_column="attribute",
            value_column="value",
        )
        pivoted = Pivot(
            unpivoted,
            key_columns=("patient_id",),
            attribute_column="attribute",
            value_column="value",
            attributes=("age", "name"),
        )
        # The Unpivot kernel fans rows out; the Pivot kernel folds them back.
        assert {Unpivot, Pivot} <= set(_KERNELS)
        plan = Sort(Select(pivoted, parse("age IS NOT NULL")), (("patient_id", True),))
        for size in (1, 3, BATCH_SIZE):
            with _batch_size(size):
                _assert_batch_agrees(plan, db)

    @given(_visit_rows, st.integers(-3, 9))
    @settings(max_examples=60, deadline=None)
    def test_index_probe_leaf_inside_batch(self, visits, score):
        db = _load([], visits)
        db.table("visits").create_index(("score",))
        plan = Select(Scan("visits"), parse(f"score = {score}"))
        optimized = optimize(plan, db)
        assert isinstance(optimized, IndexLookup)
        reference = execute_interpreted(plan, db)
        # At the root the probe emits rows directly; under another
        # operator it feeds the kernels batches.
        assert optimized.execute(db) == reference
        wrapped = Project(optimized, ("visit_id", "patient_id", "score"))
        for size in (1, 2, BATCH_SIZE):
            with _batch_size(size):
                assert wrapped.execute(db) == reference

    def test_root_probe_rows_are_private(self):
        db = _load([], [{"visit_id": 1, "patient_id": 2, "score": 3}])
        for probe in (IndexLookup("visits", (("patient_id", 2),)), InLookup("visits", "patient_id", (2,))):
            rows = probe.execute(db)
            rows[0]["score"] = 99
            assert probe.execute(db) == [{"visit_id": 1, "patient_id": 2, "score": 3}]


class TestShortCircuitParity:
    def test_and_suppresses_right_errors_like_row_path(self):
        # ``name < age`` raises (str vs int ordering) — but only for rows
        # that survive the left conjunct.  With no survivors, no executor
        # may raise.
        db = _load([{"patient_id": 1, "age": 3, "name": "ann", "smoker": False}], [])
        plan = Select(Scan("patients"), parse("smoker = TRUE AND name < age"))
        assert execute_interpreted(plan, db) == []
        assert plan.execute(db) == []

    def test_or_suppresses_right_errors_like_row_path(self):
        db = _load([{"patient_id": 1, "age": 3, "name": "ann", "smoker": True}], [])
        plan = Select(Scan("patients"), parse("smoker = TRUE OR name < age"))
        rows = execute_interpreted(plan, db)
        assert len(rows) == 1
        assert plan.execute(db) == rows

    def test_undecided_rows_still_raise(self):
        db = _load(
            [
                {"patient_id": 1, "age": 3, "name": "ann", "smoker": False},
                {"patient_id": 2, "age": 4, "name": "bob", "smoker": True},
            ],
            [],
        )
        plan = Select(Scan("patients"), parse("smoker = TRUE AND name < age"))
        with pytest.raises(EvaluationError):
            execute_interpreted(plan, db)
        with pytest.raises(EvaluationError):
            plan.execute(db)

    def test_sub_batch_short_circuit_mixed_rows(self):
        # Half the rows decide on the left, half need the right operand —
        # the lazy sub-batch gather must evaluate the right side only where
        # it is legal, exactly like the row path.
        patients = [
            {"patient_id": i, "age": i % 5, "name": "ann" if i % 2 else "bob", "smoker": i % 2 == 0}
            for i in range(20)
        ]
        db = _load(patients, [])
        plan = Select(Scan("patients"), parse("smoker = FALSE AND age >= 2"))
        _assert_batch_agrees(plan, db)


class TestErrorParity:
    def test_unknown_projection_column(self):
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        plan = Project(Scan("patients"), ("patient_id", "nope"))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
        ):
            with pytest.raises(QueryError, match="unknown column"):
                executor()

    def test_join_collision(self):
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        plan = Join(Scan("patients"), Scan("patients"), (("patient_id", "patient_id"),))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
        ):
            with pytest.raises(QueryError, match="collide"):
                executor()

    def test_union_column_mismatch(self):
        db = _load([], [])
        plan = Union((Scan("patients"), Scan("visits")))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
        ):
            with pytest.raises(QueryError, match="disagree"):
                executor()

    def test_unknown_plan_node_is_refused(self):
        @dataclass(frozen=True)
        class Opaque(Plan):
            def _columns(self, ctx):
                return ()

        db = _load([], [])
        with pytest.raises(QueryError, match="interpreter cannot execute"):
            execute_interpreted(Opaque(), db)
        with pytest.raises(QueryError, match="no batch kernel"):
            Opaque().execute(db)


class TestZeroCopyScanContract:
    """Bare whole-table batch scans are zero-copy; everything else is fresh.

    The shared snapshot is what makes the ``scan`` benchmark case ~20×
    instead of ~1.2× — any defensive variant pays one dict per row.  The
    flip side, pinned here, is that the sharing stops at bare ``Scan``
    roots: results of every non-trivial plan are freshly built dicts, so
    caller-side mutation can never leak into later executions.
    """

    def test_bare_scan_shares_the_snapshot(self):
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        rows = Scan("patients").execute(db)
        # The row dicts are the snapshot's own (zero-copy); the outer list
        # is the caller's, so reshaping it cannot reach the cache.
        assert rows[0] is db.table("patients").snapshot_rows()[0]
        rows.pop()
        assert len(Scan("patients").execute(db)) == 1

    def test_non_trivial_results_are_private(self):
        patients = [
            {"patient_id": i, "age": i % 7, "name": "ann", "smoker": False}
            for i in range(50)
        ]
        db = _load(patients, [])
        plan = Select(Scan("patients"), parse("age >= 0"))
        reference = execute_interpreted(plan, db)
        rows = plan.execute(db)
        rows[0]["age"] = 999
        rows.pop()
        assert plan.execute(db) == reference
        assert db.table("patients").rows()[0]["age"] == 0

    def test_table_mutation_refreshes_the_snapshot(self):
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        first = Scan("patients").execute(db)
        db.insert("patients", [{"patient_id": 2, "age": 3, "name": "bob", "smoker": False}])
        second = Scan("patients").execute(db)
        assert second is not first
        assert len(second) == 2


class TestBatchBoundaries:
    def test_multi_batch_inputs_agree(self):
        # More rows than BATCH_SIZE so every kernel crosses batch seams.
        patients = [
            {"patient_id": i % 700, "age": i % 9, "name": f"n{i % 13}", "smoker": i % 3 == 0}
            for i in range(2500)
        ]
        visits = [
            {"visit_id": i, "patient_id": i % 700, "score": i % 17}
            for i in range(3000)
        ]
        db = _load(patients, visits)
        plan = Aggregate(
            Select(
                Join(
                    Scan("patients"),
                    Rename(Scan("visits"), (("visit_id", "vid"),)),
                    (("patient_id", "patient_id"),),
                ),
                parse("score >= 4"),
            ),
            ("name",),
            (AggregateSpec("COUNT", None, "n"), AggregateSpec("AVG", "score", "mean")),
        )
        _assert_batch_agrees(plan, db)

    def test_values_and_limit_cross_batches(self):
        db = _load([], [])
        rows = tuple((i, f"v{i}") for i in range(2100))
        plan = Limit(Values(("a", "b"), rows), 1500)
        _assert_batch_agrees(plan, db)


# -- Pivot and Coerce kernels -------------------------------------------------


def _exact_outcome(fn):
    """(\"ok\", rows as (type, repr) cells) or (\"err\", type, message)."""
    try:
        rows = fn()
    except (ReproError, TypeError) as exc:
        return ("err", type(exc), str(exc))
    return (
        "ok",
        [[(name, type(v), repr(v)) for name, v in row.items()] for row in rows],
    )


def _assert_exact_agreement(plan, db) -> None:
    """Both executors agree on values, types, order and the error raised."""
    reference = _exact_outcome(lambda: execute_interpreted(plan, db))
    assert _exact_outcome(lambda: plan.execute(db)) == reference


_EAV_COLUMNS = ("k1", "k2", "attribute", "value")

# Keys that alias under dict equality (1/True/1.0), NULLs, and attribute
# values that are not declared names, not str, or not hashable.
_eav_rows = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, True, 1.0, None]),
        st.sampled_from(["x", "y", None]),
        st.sampled_from(["age", "name", "flag", "other", 1, None, ("age",), ["age"]]),
        st.one_of(
            st.none(),
            st.sampled_from(["1", "2", " 3 ", "x", "true", "0", "", "2.5"]),
            st.sampled_from([0, 1, True, False, 0.0, -0.0, 2.5]),
        ),
    ),
    max_size=40,
)

_ATTRIBUTES = ("age", "name", "flag")

_column_types = st.lists(
    st.tuples(
        st.sampled_from(_ATTRIBUTES + ("k1", "absent")),
        st.sampled_from(list(DataType)),
    ),
    max_size=4,
).map(tuple)


class TestPivotCoerceKernels:
    """The EAV read path's kernels against the interpreter, exactly."""

    @given(_eav_rows, st.sampled_from([("k1",), ("k1", "k2"), ()]))
    @settings(max_examples=120, deadline=None)
    def test_pivot_matches_interpreter(self, rows, keys):
        plan = Pivot(Values(_EAV_COLUMNS, tuple(rows)), keys, "attribute", "value", _ATTRIBUTES)
        _assert_exact_agreement(plan, _load([], []))

    @given(_eav_rows, _column_types)
    @settings(max_examples=120, deadline=None)
    def test_coerce_over_pivot_matches_interpreter(self, rows, column_types):
        hashable = [row for row in rows if not isinstance(row[2], list)]
        pivoted = Pivot(Values(_EAV_COLUMNS, tuple(hashable)), ("k1",), "attribute", "value", _ATTRIBUTES)
        _assert_exact_agreement(Coerce(pivoted, column_types), _load([], []))

    def test_duplicate_key_attribute_keeps_the_last_value(self):
        rows = (
            (1, None, "age", "1"),
            (2, None, "age", "5"),
            (1, None, "age", "2"),
            (True, None, "name", "ann"),
            (1, None, "age", None),
        )
        plan = Pivot(Values(_EAV_COLUMNS, rows), ("k1",), "attribute", "value", _ATTRIBUTES)
        out = plan.execute(_load([], []))
        assert out == [
            {"k1": 1, "age": None, "name": "ann", "flag": None},
            {"k1": 2, "age": "5", "name": None, "flag": None},
        ]
        assert type(out[0]["k1"]) is int  # the first-seen key object
        _assert_exact_agreement(plan, _load([], []))

    def test_undeclared_and_unhashable_attributes_are_ignored(self):
        rows = (
            (1, "x", 1, "a"),
            (1, "x", ["age"], "b"),
            (1, "x", None, "c"),
            (1, "y", "other", "d"),
            (1, "y", "flag", "e"),
        )
        plan = Pivot(Values(_EAV_COLUMNS, rows), ("k1", "k2"), "attribute", "value", _ATTRIBUTES)
        assert plan.execute(_load([], [])) == [
            {"k1": 1, "k2": "x", "age": None, "name": None, "flag": None},
            {"k1": 1, "k2": "y", "age": None, "name": None, "flag": "e"},
        ]
        _assert_exact_agreement(plan, _load([], []))

    def test_unhashable_key_raises_like_the_row_path(self):
        rows = ((0, None, "age", "1"), ([1], None, "age", "2"))
        plan = Pivot(Values(_EAV_COLUMNS, rows), ("k1",), "attribute", "value", _ATTRIBUTES)
        _assert_exact_agreement(plan, _load([], []))
        assert _exact_outcome(lambda: plan.execute(_load([], [])))[0] == "err"

    def test_empty_input(self):
        plan = Coerce(
            Pivot(Values(_EAV_COLUMNS, ()), ("k1",), "attribute", "value", _ATTRIBUTES),
            (("age", DataType.INTEGER),),
        )
        assert plan.execute(_load([], [])) == []
        _assert_exact_agreement(plan, _load([], []))

    def test_null_heavy_values(self):
        rows = tuple(
            (i % 5, None, _ATTRIBUTES[i % 3], None if i % 4 else str(i))
            for i in range(60)
        )
        plan = Coerce(
            Pivot(Values(_EAV_COLUMNS, rows), ("k1",), "attribute", "value", _ATTRIBUTES),
            (("age", DataType.INTEGER), ("name", DataType.TEXT), ("flag", DataType.FLOAT)),
        )
        _assert_exact_agreement(plan, _load([], []))

    def test_coerce_raises_the_first_bad_value_in_row_then_column_order(self):
        db = _load([], [])
        both = (("a", DataType.INTEGER), ("b", DataType.INTEGER))
        # Column b fails on an earlier row than column a: row order wins.
        rows = (("1", "2"), ("2", "x"), ("bad", "3"))
        plan = Coerce(Values(("a", "b"), rows), both)
        with pytest.raises(TypeMismatchError, match="'x'"):
            plan.execute(db)
        _assert_exact_agreement(plan, db)
        # Both columns fail on the same row: the declared order decides.
        rows = (("1", "2"), ("oops", "x"))
        for column_types, culprit in ((both, "'oops'"), (both[::-1], "'x'")):
            plan = Coerce(Values(("a", "b"), rows), column_types)
            with pytest.raises(TypeMismatchError, match=culprit):
                plan.execute(db)
            _assert_exact_agreement(plan, db)

    def test_coerce_repeated_column_and_later_batch_errors(self):
        rows = tuple((str(i % 7), "-0.0" if i % 2 else "0.0") for i in range(BATCH_SIZE + 300))
        bad = rows[: BATCH_SIZE + 5] + (("nope", "1"),) + rows[BATCH_SIZE + 5 :]
        for data in (rows, bad):
            plan = Coerce(
                Values(("a", "b"), data),
                (
                    ("a", DataType.INTEGER),
                    ("b", DataType.FLOAT),
                    ("a", DataType.TEXT),
                    ("b", DataType.TEXT),
                ),
            )
            _assert_exact_agreement(plan, _load([], []))

    def test_coerce_over_dictionary_encoded_column(self):
        # Enough low-cardinality text rows for the scan to dictionary-encode
        # ``name``: the kernel reads the values, not the codes.
        db = Database("coded")
        db.create_table(TableSchema.build("t", [("id", DataType.INTEGER), ("name", DataType.TEXT)]))
        db.insert("t", [{"id": i, "name": ["1", "0", None, "2"][i % 4]} for i in range(600)])
        to_int = Coerce(Scan("t"), (("name", DataType.INTEGER),))
        _assert_exact_agreement(to_int, db)
        to_bool = Coerce(Scan("t"), (("name", DataType.BOOLEAN),))
        with pytest.raises(TypeMismatchError, match="'2'"):
            to_bool.execute(db)
        _assert_exact_agreement(to_bool, db)

    def test_cori_generic_read_plan_is_fully_vectorizable(self, world):
        # The CORI feed lays its procedure form out through the Generic
        # (EAV) pattern: its optimized read plan runs as one batch
        # pipeline, Pivot and Coerce included.
        from repro.guava.query import GTreeQuery
        from repro.guava.source import translate_query

        source = world.source("cori_warehouse_feed")
        plan = optimize(
            translate_query(GTreeQuery(source.gtree("procedure")), source.chain),
            source.db,
        )
        assert {type(node) for node in plan.walk()} >= {Pivot, Coerce}
        assert all(type(node) in _KERNELS for node in plan.walk())
        assert plan.execute(source.db) == execute_interpreted(plan, source.db)
