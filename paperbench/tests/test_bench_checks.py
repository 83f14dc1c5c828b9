"""Every correctness check trips on a deliberately corrupted output."""

from __future__ import annotations

from pathlib import Path

import pytest

from paperbench import checks
from paperbench.run import run_benchmark
from paperbench.tests.test_bench_runs import TINY

# -- the checks themselves -------------------------------------------------------


def test_fingerprints():
    assert checks.same_fingerprints(["ab", "cd"], ["ab", "cd"]) == []
    assert checks.same_fingerprints(["ab", "cd"], ["ab", "ce"])
    assert checks.same_fingerprints(["ab", "cd"], ["ab"])


def test_counts():
    assert checks.same_counts({"a": 3, "b": 1}, {"a": 3, "b": 1}) == []
    assert checks.same_counts({"a": 3, "b": 1}, {"a": 2, "b": 1})
    assert checks.same_counts({"a": 3}, {"a": 3, "b": 1})


def test_funnel_off_by_one():
    from repro.analysis.studies import run_study1, study1_truth_funnel
    from repro.clinical.sources import build_world

    world = build_world(60, seed=3)
    measured = run_study1(world)
    truth = study1_truth_funnel(world)
    assert checks.same_funnel(measured, truth) == []
    measured.transient_hypoxia += 1
    assert checks.same_funnel(measured, truth)


def test_study2_off_by_one():
    assert checks.same_study2("1y", (7, 2), (7, 2)) == []
    assert checks.same_study2("1y", (7, 3), (7, 2))


def test_rows_dropped_or_changed():
    rows = [{"record_id": i, "source": "s", "v": i % 3} for i in range(5)]
    columns, key = ("record_id", "source", "v"), ("source", "record_id")
    assert checks.same_rows("t", list(reversed(rows)), rows, columns, key) == []
    assert checks.same_rows("t", rows[1:], rows, columns, key)
    changed = [dict(row) for row in rows]
    changed[2]["v"] = 99
    assert checks.same_rows("t", changed, rows, columns, key)


# -- the checks inside a run, against corrupted program output -------------------


def _failed_run(tmp_path: Path, workload: str) -> dict:
    result = run_benchmark(
        workload, seed=3, seconds=0.05, trace=0, sizes=TINY, out_dir=tmp_path
    )
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    return result


def _mentions(result: dict, text: str) -> bool:
    return any(text in problem for problem in result["problems"])


def test_studies_trip_on_a_dropped_row(tmp_path, monkeypatch):
    """One qualifying row fewer puts a funnel or a Study 2 count off by one."""
    from repro.multiclass.study import Study

    original = Study.run

    def corrupted(study):
        result = original(study)
        rows = result.tables["Procedure"]
        for index, row in enumerate(rows):
            if (
                row.get("ProcedureType_proc_type") == "Upper GI endoscopy"
                or row.get("ExSmoker_flag") is True
            ):
                del rows[index]
                break
        return result

    monkeypatch.setattr(Study, "run", corrupted)
    result = _failed_run(tmp_path, "studies")
    assert _mentions(result, "study 1 funnel")
    assert _mentions(result, "study 2")


def test_refresh_trips_on_a_row_dropped_from_the_refreshed_table(
    tmp_path, monkeypatch
):
    from repro.warehouse.materialize import MaterializationStrategy

    original = MaterializationStrategy.build

    def corrupted(strategy, incremental=False):
        original(strategy, incremental)
        if incremental:
            table = strategy.warehouse.table(strategy.job.table_name())
            victim = next(iter(table.rows()))
            table.delete(lambda row: row["record_id"] == victim["record_id"])

    monkeypatch.setattr(MaterializationStrategy, "build", corrupted)
    assert _mentions(_failed_run(tmp_path, "refresh"), "incremental refresh")


def test_refresh_trips_on_a_row_dropped_from_the_etl_load(tmp_path, monkeypatch):
    from repro.etl.components import Load

    original = Load.run

    def corrupted(load, inputs):
        return original(load, [inputs[0][:-1]])

    monkeypatch.setattr(Load, "run", corrupted)
    assert _mentions(_failed_run(tmp_path, "refresh"), "ETL load vs Study.run")


def test_refresh_trips_on_a_wrong_query_answer(tmp_path, monkeypatch):
    from repro.warehouse.querying import StudyTableQuery

    original = StudyTableQuery.run

    def corrupted(query):
        return original(query)[1:]

    monkeypatch.setattr(StudyTableQuery, "run", corrupted)
    assert _mentions(_failed_run(tmp_path, "refresh"), "query")


@pytest.mark.parametrize("workload", ["entry", "refresh"])
def test_reopen_trips_on_a_torn_last_commit(tmp_path, monkeypatch, workload):
    """A lost final commit makes the reopened store differ from the live one."""
    from repro.storage.engine import DurableStore

    original = DurableStore.close

    def corrupted(store, commit=True):
        original(store, commit)
        wal = store.directory / "wal.log"
        size = wal.stat().st_size
        if size:
            with open(wal, "r+b") as handle:
                handle.truncate(size - 3)

    monkeypatch.setattr(DurableStore, "close", corrupted)
    assert _mentions(_failed_run(tmp_path, workload), "reopened fingerprint")


def test_entry_trips_on_a_short_read_back(tmp_path, monkeypatch):
    from repro.guava.source import GuavaSource

    original = GuavaSource.execute

    def corrupted(source, query, record_ids=None):
        return original(source, query, record_ids)[:-1]

    monkeypatch.setattr(GuavaSource, "execute", corrupted)
    assert _mentions(_failed_run(tmp_path, "entry"), "read back")
