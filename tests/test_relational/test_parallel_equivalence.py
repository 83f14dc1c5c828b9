"""Morsel-parallel executor ≡ serial batch ≡ interpreted, randomized.

The parallel executor is the fourth implementation of plan semantics and
inherits the strictest guarantee: bit-identical rows (values *and* order)
against the reference interpreter, for any worker count, any morsel size,
any partitioning scheme on the underlying tables — including NULL
partition keys, operators with no batch kernel (forced row-wise fallback
inside the tree), and merge-sensitive operators (Aggregate group order,
AVG summation order, left-join NULL padding).

Shrunken morsels: the suite patches ``BATCH_SIZE``/``MORSEL_BATCHES`` down
so even 30-row hypothesis examples split across several morsels and
actually exercise claiming, merging, and morsel-order concatenation.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Compute,
    Database,
    DataType,
    Distinct,
    HashPartitioning,
    Join,
    Limit,
    Pivot,
    Project,
    RangePartitioning,
    Scan,
    Select,
    Sort,
    TableSchema,
    TopK,
    Union,
    Unpivot,
    Vectorized,
    execute_interpreted,
)
from repro.relational import parallel as parallel_mod
from repro.relational import vectorize as vectorize_mod
from repro.relational.parallel import (
    ThreadWorkerPool,
    set_worker_pool_factory,
)
from repro.expr.parser import parse

_SCHEMES = [
    None,
    HashPartitioning("patient_id", 2),
    HashPartitioning("patient_id", 5),
    RangePartitioning("patient_id", (3, 7)),
    RangePartitioning("patient_id", (1, 5, 9)),
]

_patient_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.one_of(st.integers(0, 12), st.none()),
            "age": st.one_of(st.integers(0, 5), st.none(), st.booleans()),
            "name": st.sampled_from(["ann", "bob", "cal", None]),
        }
    ),
    max_size=30,
)

_visit_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.one_of(st.integers(0, 12), st.none()),
            "score": st.one_of(st.integers(-3, 9), st.none()),
        }
    ),
    max_size=30,
)


def _load(patients, visits, scheme) -> Database:
    db = Database("par")
    db.create_table(
        TableSchema.build(
            "patients",
            [
                ("patient_id", DataType.INTEGER),
                ("age", DataType.INTEGER),
                ("name", DataType.TEXT),
            ],
            partition_by=scheme,
        )
    )
    db.create_table(
        TableSchema.build(
            "visits",
            [("patient_id", DataType.INTEGER), ("score", DataType.INTEGER)],
        )
    )
    db.insert("patients", patients)
    db.insert("visits", visits)
    return db


def _outcome(fn):
    try:
        return ("ok", fn())
    except (ReproError, TypeError) as exc:
        return ("err", type(exc))


def _assert_parallel_agrees(plan, db, workers) -> None:
    """Interpreter, serial batch, and morsel-parallel execution agree."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    serial = _outcome(lambda: Vectorized(plan).execute(db))
    par = _outcome(lambda: Vectorized(plan).execute(db, parallel=workers))
    if reference[0] == "err":
        assert serial[0] == par[0] == "err"
    else:
        assert serial == reference
        assert par == reference


def _tiny_morsels():
    """Context manager shrinking batches/morsels for multi-morsel coverage."""

    class _Patch:
        def __enter__(self):
            self.batch = vectorize_mod.BATCH_SIZE
            self.morsel = parallel_mod.MORSEL_BATCHES
            vectorize_mod.BATCH_SIZE = 7
            parallel_mod.MORSEL_BATCHES = 1
            return self

        def __exit__(self, *exc):
            vectorize_mod.BATCH_SIZE = self.batch
            parallel_mod.MORSEL_BATCHES = self.morsel
            return False

    return _Patch()


_PLANS = [
    lambda: Select(Scan("patients"), parse("age >= 2 OR name LIKE 'a%'")),
    lambda: Project(
        Select(Scan("patients"), parse("patient_id IS NOT NULL")),
        ("patient_id", "name"),
    ),
    lambda: Compute(
        Select(Scan("patients"), parse("age >= 0")),
        (("bump", parse("age + 1")),),
    ),
    lambda: Aggregate(
        Select(Scan("patients"), parse("age IS NOT NULL")),
        ("name",),
        (
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("AVG", "age", "mean_age"),
        ),
    ),
    lambda: Aggregate(
        Scan("patients"),
        ("patient_id", "name"),
        (AggregateSpec("MAX", "age", "top"),),
    ),
    # No group-by over a possibly-empty selection: the one-row empty-input
    # case must survive the partial-merge path too.
    lambda: Aggregate(
        Select(Scan("patients"), parse("age > 99")),
        (),
        (AggregateSpec("COUNT", None, "n"),),
    ),
    lambda: Join(
        Select(Scan("patients"), parse("patient_id IS NOT NULL")),
        Scan("visits"),
        (("patient_id", "patient_id"),),
        how="inner",
    ),
    lambda: Join(
        Scan("patients"),
        Scan("visits"),
        (("patient_id", "patient_id"),),
        how="left",
    ),
    lambda: Sort(
        Select(Scan("patients"), parse("age >= 1")),
        (("patient_id", True), ("name", False)),
    ),
    lambda: Distinct(Project(Scan("patients"), ("name",))),
    lambda: Limit(Select(Scan("patients"), parse("age >= 0")), 5),
    lambda: TopK(Scan("visits"), (("score", False),), 4),
    lambda: Union(
        (
            Select(Scan("patients"), parse("age >= 2")),
            Select(Scan("patients"), parse("age < 2")),
        )
    ),
]


class TestRandomizedParallelEquivalence:
    @given(
        _patient_rows,
        _visit_rows,
        st.integers(0, len(_SCHEMES) - 1),
        st.integers(0, len(_PLANS) - 1),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_three_way_equivalence(
        self, patients, visits, scheme_i, plan_i, workers
    ):
        db = _load(patients, visits, _SCHEMES[scheme_i])
        plan = _PLANS[plan_i]()
        with _tiny_morsels():
            _assert_parallel_agrees(plan, db, workers)

    @given(_patient_rows, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_forced_rowwise_fallback_inside_parallel_tree(
        self, patients, workers
    ):
        # Unpivot has no batch kernel and Pivot is not record-wise: the
        # parallel executor runs both serially over the parallel scan and
        # must still agree.
        unique = list({row["patient_id"]: row for row in patients}.values())
        db = _load(unique, [], HashPartitioning("patient_id", 3))
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
        plan = Sort(
            Select(pivoted, parse("age IS NOT NULL")), (("patient_id", True),)
        )
        with _tiny_morsels():
            _assert_parallel_agrees(plan, db, workers)

    @given(_patient_rows, _visit_rows, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_pruned_partition_scan_under_parallel(
        self, patients, visits, workers
    ):
        from repro.relational import optimize

        db = _load(patients, visits, HashPartitioning("patient_id", 4))
        plan = Select(Scan("patients"), parse("patient_id = 7"))
        optimized = optimize(plan, db)
        reference = execute_interpreted(plan, db)
        with _tiny_morsels():
            assert optimized.execute(db, parallel=workers) == reference


class TestDeterminism:
    def test_parallel_rows_are_bit_identical_across_worker_counts(self):
        rows = [
            {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
            for i in range(3000)
        ]
        db = _load(rows, [], HashPartitioning("patient_id", 8))
        plan = Aggregate(
            Select(Scan("patients"), parse("age >= 1")),
            ("name",),
            (
                AggregateSpec("COUNT", None, "n"),
                AggregateSpec("AVG", "age", "mean_age"),
            ),
        )
        serial = Vectorized(plan).execute(db)
        for workers in (1, 2, 3, 8):
            assert Vectorized(plan).execute(db, parallel=workers) == serial


class TestWorkerPool:
    def test_results_come_back_in_task_order(self):
        pool = ThreadWorkerPool(4)
        results, stats = pool.run([lambda i=i: i * i for i in range(20)])
        assert results == [i * i for i in range(20)]
        assert sum(stat.morsels for stat in stats) == 20

    def test_lowest_index_error_wins(self):
        def boom(i):
            raise ValueError(i)

        tasks = [lambda: 1, lambda: boom(1), lambda: boom(2)]
        with pytest.raises(ValueError) as err:
            ThreadWorkerPool(3).run(tasks)
        assert err.value.args == (1,)

    def test_single_worker_runs_inline(self):
        ident = []
        ThreadWorkerPool(1).run(
            [lambda: ident.append(threading.get_ident())]
        )
        assert ident == [threading.get_ident()]

    def test_factory_is_pluggable(self):
        calls = []

        class RecordingPool(ThreadWorkerPool):
            def run(self, tasks):
                calls.append(len(tasks))
                return super().run(tasks)

        rows = [{"patient_id": i % 5, "age": i % 3, "name": "x"} for i in range(40)]
        db = _load(rows, [], None)
        plan = Select(Scan("patients"), parse("age >= 1"))
        try:
            set_worker_pool_factory(RecordingPool)
            with _tiny_morsels():
                out = Vectorized(plan).execute(db, parallel=2)
        finally:
            set_worker_pool_factory(None)
        assert calls, "custom pool factory was never used"
        assert out == execute_interpreted(plan, db)
