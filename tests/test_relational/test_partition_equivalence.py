"""Partitioned tables: interpreted ≡ authored batch ≡ optimized batch.

The batch executor must return bit-identical rows (values *and* order)
against the reference interpreter for any partitioning scheme on the
underlying tables, on the authored plan and on its optimized (pruned,
cost-planned) form — including NULL partition keys, EAV round trips
through the Unpivot and Pivot kernels, pruned ``PartitionScan`` leaves,
and order-sensitive operators (Aggregate group order, AVG summation
order, left-join NULL padding).

Shrunken batches: the suite patches ``BATCH_SIZE`` down so even 30-row
hypothesis examples split across several batches and exercise the
batch-seam and multi-partition gather paths.
"""

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
    execute_interpreted,
    optimize,
)
from repro.relational import vectorize as vectorize_mod
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
    db = Database("part")
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


def _assert_executors_agree(plan, db) -> None:
    """Interpreter, authored batch, and optimized batch execution agree."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    authored = _outcome(lambda: plan.execute(db))
    optimized = _outcome(lambda: optimize(plan, db).execute(db))
    if reference[0] == "err":
        assert authored[0] == optimized[0] == "err"
    else:
        assert authored == reference
        assert optimized == reference


class _tiny_batches:
    """Shrink ``BATCH_SIZE`` so small tables span several batches."""

    def __enter__(self):
        self.batch = vectorize_mod.BATCH_SIZE
        vectorize_mod.BATCH_SIZE = 7
        return self

    def __exit__(self, *exc):
        vectorize_mod.BATCH_SIZE = self.batch
        return False


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
    # case must survive the batch kernel too.
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


@given(
    _patient_rows,
    _visit_rows,
    st.integers(0, len(_SCHEMES) - 1),
    st.integers(0, len(_PLANS) - 1),
)
@settings(max_examples=150, deadline=None)
def test_random_schemes_three_way(patients, visits, scheme_i, plan_i):
    db = _load(patients, visits, _SCHEMES[scheme_i])
    plan = _PLANS[plan_i]()
    with _tiny_batches():
        _assert_executors_agree(plan, db)


@given(_patient_rows)
@settings(max_examples=40, deadline=None)
def test_forced_rowwise_fallback_in_batch_tree(patients):
    # An EAV round trip over a partitioned table: the Unpivot kernel fans
    # each wide row out across tiny batches and the Pivot kernel folds
    # them back; it must agree with the interpreter.
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
    plan = Sort(Select(pivoted, parse("age IS NOT NULL")), (("patient_id", True),))
    with _tiny_batches():
        _assert_executors_agree(plan, db)


@given(_patient_rows, _visit_rows)
@settings(max_examples=40, deadline=None)
def test_pruned_partition_scan(patients, visits):
    db = _load(patients, visits, HashPartitioning("patient_id", 4))
    plan = Select(Scan("patients"), parse("patient_id = 7"))
    reference = execute_interpreted(plan, db)
    pruned = optimize(plan, db)
    assert "PartitionScan" in repr(pruned)
    with _tiny_batches():
        assert pruned.execute(db) == reference
        assert plan.execute(db) == reference
