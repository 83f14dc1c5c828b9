"""Plan cache: memoized optimize() keyed by (fingerprint, Database.epoch).

The cache exists for GUAVA pattern chains, which re-translate structurally
identical plans on every pull.  The invariants under test:

* a repeat ``optimize`` at the same epoch returns the *same plan object*
  and applies zero rewrites (observable as an ``optimize`` span with
  ``plan_cache="hit"`` and no ``rewrite.*`` counters);
* every mutation class — insert, update, delete, index create/drop,
  table create/drop — bumps :attr:`Database.epoch`, so a mutate-then-query
  sequence can never be served a stale plan;
* the epoch never rewinds, even when ``drop_table`` discards a table whose
  versions contributed to it.
"""

import pytest

from repro.obs import explain_analyze, tracing
from repro.relational import (
    Database,
    DataType,
    IndexLookup,
    Plan,
    Query,
    TableSchema,
    optimize,
    plan_fingerprint,
)


def _db(rows: int = 8) -> Database:
    db = Database("cache")
    db.create_table(
        TableSchema.build(
            "patients",
            [("patient_id", DataType.INTEGER), ("age", DataType.INTEGER)],
        )
    )
    db.insert(
        "patients",
        [{"patient_id": i, "age": 20 + i % 5} for i in range(rows)],
    )
    return db


def _contains(plan: Plan, node_type: type) -> bool:
    if isinstance(plan, node_type):
        return True
    return any(_contains(child, node_type) for child in plan.children())


class TestFingerprint:
    def test_structurally_identical_plans_share_a_fingerprint(self):
        a = Query.table("patients").where("age >= 30").select("patient_id").plan
        b = Query.table("patients").where("age >= 30").select("patient_id").plan
        assert a is not b
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_different_plans_differ(self):
        base = Query.table("patients")
        assert plan_fingerprint(base.where("age >= 30").plan) != plan_fingerprint(
            base.where("age >= 31").plan
        )
        assert plan_fingerprint(base.plan) != plan_fingerprint(
            Query.table("visits").plan
        )

    def test_literal_types_are_distinguished(self):
        # TRUE vs 1 compare differently at runtime, so their plans must not
        # collide in the cache either.
        true_plan = Query.table("patients").where("age = TRUE").plan
        one_plan = Query.table("patients").where("age = 1").plan
        assert plan_fingerprint(true_plan) != plan_fingerprint(one_plan)


class TestCacheHits:
    def test_repeat_optimize_returns_cached_object(self):
        db = _db()
        plan = Query.table("patients").where("age >= 30").plan
        first = optimize(plan, db)
        second = optimize(plan, db)
        assert second is first
        # A structurally identical but distinct plan object also hits.
        third = optimize(Query.table("patients").where("age >= 30").plan, db)
        assert third is first

    def test_cache_hit_skips_rewrites_observably(self):
        db = _db()
        db.table("patients").create_index(("patient_id",))
        query = (
            Query.table("patients")
            .where("patient_id = 3")
            .where("age >= 20")
            .select("patient_id")
            .plan
        )
        warm = explain_analyze(query, db)
        assert warm.optimize_span is not None
        assert warm.optimize_span.attrs.get("plan_cache") == "miss"
        assert warm.rewrites_applied()  # lowering actually ran

        cached = explain_analyze(query, db)
        assert cached.optimize_span is not None
        assert cached.optimize_span.attrs.get("plan_cache") == "hit"
        assert cached.rewrites_applied() == {}
        assert cached.rows == warm.rows

    def test_no_database_means_no_cache(self):
        plan = Query.table("patients").where("age >= 30").plan
        assert optimize(plan) is not optimize(plan)
        with tracing() as tracer:
            optimize(plan)
        (span,) = [root for root in tracer.roots if root.name == "optimize"]
        assert span.attrs.get("plan_cache") == "off"


class TestInvalidation:
    def test_insert_bumps_epoch_and_invalidates(self):
        db = _db()
        plan = Query.table("patients").where("age >= 30").plan
        first = optimize(plan, db)
        before = db.epoch
        db.insert("patients", [{"patient_id": 99, "age": 44}])
        assert db.epoch > before
        assert optimize(plan, db) is not first

    def test_mutate_then_query_sees_new_rows(self):
        db = _db()
        query = Query.table("patients").where("age >= 100")
        assert query.execute(db) == []
        db.insert("patients", [{"patient_id": 99, "age": 120}])
        assert [row["patient_id"] for row in query.execute(db)] == [99]

    def test_update_and_delete_bump_epoch(self):
        db = _db()
        table = db.table("patients")
        before = db.epoch
        table.update(lambda row: row["patient_id"] == 0, {"age": 99})
        after_update = db.epoch
        assert after_update > before
        table.delete(lambda row: row["patient_id"] == 0)
        assert db.epoch > after_update

    def test_index_create_and_drop_bump_epoch(self):
        db = _db()
        table = db.table("patients")
        before = db.epoch
        table.create_index(("age",))
        created = db.epoch
        assert created > before
        # Idempotent re-create of an existing index changes nothing.
        table.create_index(("age",))
        assert db.epoch == created
        table.drop_index(("age",))
        assert db.epoch > created

    def test_table_create_and_drop_bump_epoch(self):
        db = _db()
        before = db.epoch
        db.create_table(TableSchema.build("extra", [("x", DataType.INTEGER)]))
        created = db.epoch
        assert created > before
        db.drop_table("extra")
        assert db.epoch > created

    def test_epoch_never_rewinds_on_drop_table(self):
        # The dropped table's version/index contributions fold into the
        # structure version, so the epoch stays strictly monotone.
        db = _db()
        db.create_table(TableSchema.build("scratch", [("x", DataType.INTEGER)]))
        db.insert("scratch", [{"x": i} for i in range(10)])
        db.table("scratch").create_index(("x",))
        peak = db.epoch
        db.drop_table("scratch")
        assert db.epoch > peak


class TestStaleIndexRegression:
    def test_dropped_index_plan_is_not_served(self):
        """A cached IndexLookup plan must be re-lowered after drop_index."""
        db = _db()
        db.table("patients").create_index(("patient_id",))
        plan = Query.table("patients").where("patient_id = 3").plan
        lowered = optimize(plan, db)
        assert _contains(lowered, IndexLookup)
        assert [row["patient_id"] for row in lowered.execute(db)] == [3]

        db.table("patients").drop_index(("patient_id",))
        relowered = optimize(plan, db)
        assert relowered is not lowered
        assert not _contains(relowered, IndexLookup)
        assert [row["patient_id"] for row in relowered.execute(db)] == [3]

    def test_prepare_stream_plan_settles_into_the_cache(self):
        # ``prepare_stream_plan`` may *create* a supporting index, bumping
        # the epoch mid-call; its re-optimize then stores a fresh entry, so
        # subsequent plain ``optimize`` calls hit it.
        from repro.relational import prepare_stream_plan

        db = _db()
        plan = Query.table("patients").where("patient_id = 3").plan
        prepared = prepare_stream_plan(plan, db)
        assert _contains(prepared, IndexLookup)
        assert optimize(plan, db) is prepared


class TestCacheBounds:
    def test_cache_clears_at_capacity(self):
        db = _db()
        plan = Query.table("patients").where("age >= 30").plan
        first = optimize(plan, db)
        for i in range(Database.PLAN_CACHE_LIMIT):
            optimize(Query.table("patients").where(f"age >= {i + 100}").plan, db)
        # The flood evicted the original entry; re-optimize yields a new one.
        assert optimize(plan, db) is not first

    def test_plan_cache_clear(self):
        db = _db()
        plan = Query.table("patients").where("age >= 30").plan
        first = optimize(plan, db)
        db.plan_cache_clear()
        assert optimize(plan, db) is not first
