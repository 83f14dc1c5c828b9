"""Equivalence tests for the batched ETL engine.

The serial path (``Workflow.run()`` with default arguments) is the
oracle: every batch size must produce row-identical outputs, identical
quarantine contents, identical warehouse tables, and identical per-step
row counts.
"""

from __future__ import annotations

import pytest

from repro.analysis import build_study2
from repro.errors import WorkflowError
from repro.clinical import build_world
from repro.etl import compile_study
from repro.etl.workflow import RunReport, StepRun
from repro.multiclass import CleaningRule
from repro.relational import Database


@pytest.fixture(scope="module")
def small_world():
    """A private world: engine tests only read, so module scope is safe."""
    return build_world(60, seed=5)


@pytest.fixture(scope="module")
def cleaned_study(small_world):
    study = build_study2(small_world, "ever")
    for rule_source, condition in (
        ("cori_warehouse_feed", "packs_per_day >= 3"),
        ("endopro_clinic", "cigarettes_per_day >= 60"),
        ("medscribe_clinic", "packs_daily >= 3"),
    ):
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of(
                f"heavy_{rule_source.split('_')[0]}",
                condition,
                reason="protocol excludes very heavy smokers",
                source=rule_source,
            ),
        )
    study.add_cleaning_rule(
        "Procedure",
        CleaningRule.of(
            "unclassified_smoking",
            "ExSmoker_flag IS NULL",
            reason="smoking question unanswered",
            scope="study",
        ),
    )
    return study


def run_study(study, **kwargs):
    """Compile and run; returns (outputs, report, quarantine, warehouse)."""
    warehouse = Database("wh")
    workflow = compile_study(study, warehouse)
    outputs, report = workflow.run(**kwargs)
    return outputs, report, workflow.context["quarantine"], warehouse


def table_dump(db: Database) -> dict:
    return {name: db.table(name).rows() for name in db.table_names()}


ENGINE_CONFIGS = [
    {"batch_size": 64},
    {"batch_size": 7},
    # Larger than any step's input: every unit streams a single chunk.
    {"batch_size": 100_000},
    {"batch_size": 32},
    {"batch_size": 1},
]


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def oracle(self, cleaned_study):
        return run_study(cleaned_study)

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_outputs_identical(self, cleaned_study, oracle, config):
        outputs, _, _, _ = run_study(cleaned_study, **config)
        assert outputs == oracle[0]

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_report_row_counts_identical(self, cleaned_study, oracle, config):
        _, report, _, _ = run_study(cleaned_study, **config)
        serial_counts = {r.step: (r.rows_in, r.rows_out) for r in oracle[1].steps}
        engine_counts = {r.step: (r.rows_in, r.rows_out) for r in report.steps}
        assert engine_counts == serial_counts

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_quarantine_identical(self, cleaned_study, oracle, config):
        _, _, quarantine, _ = run_study(cleaned_study, **config)
        assert quarantine.rows == oracle[2].rows

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_warehouse_tables_identical(self, cleaned_study, oracle, config):
        _, _, _, warehouse = run_study(cleaned_study, **config)
        assert table_dump(warehouse) == table_dump(oracle[3])

    def test_step_order_in_report_matches_serial(self, cleaned_study, oracle):
        _, report, _, _ = run_study(cleaned_study, batch_size=16)
        assert [r.step for r in report.steps] == [r.step for r in oracle[1].steps]

    def test_units_run_in_topological_order(self, cleaned_study):
        workflow = compile_study(cleaned_study, Database("wh"))
        units = workflow._fuse()
        fused = [step.name for unit in units for step in unit.steps]
        assert sorted(fused) == sorted(step.name for step in workflow.steps)
        produced: set[str] = set()
        for unit in units:
            assert all(name in produced for name in unit.head.inputs)
            for previous, step in zip(unit.steps, unit.steps[1:]):
                assert step.inputs == (previous.name,)
            produced.add(unit.tail.name)

    def test_out_of_order_unit_is_refused(self, cleaned_study):
        workflow = compile_study(cleaned_study, Database("wh"))
        units = workflow._fuse()
        workflow._fuse = lambda: units[::-1]
        with pytest.raises(WorkflowError, match="before its inputs"):
            workflow.run(batch_size=8)


class TestRunArguments:
    def test_default_is_serial(self, cleaned_study):
        outputs, report, _, _ = run_study(cleaned_study)
        assert outputs and report.steps



class TestReportSummary:
    def test_summary_has_seconds_column(self):
        report = RunReport(
            steps=[StepRun(step="s", stage="extract", rows_in=1, rows_out=2, seconds=0.5)]
        )
        lines = report.summary().splitlines()
        assert "seconds" in lines[0]
        assert "0.5000" in lines[1]

    def test_engine_reports_timings(self, cleaned_study):
        _, report, _, _ = run_study(cleaned_study, batch_size=32)
        assert all(run.seconds >= 0 for run in report.steps)
        assert any(run.seconds > 0 for run in report.steps)


class TestExtractRowOwnership:
    """A bare-Scan extract hands its chain rows the chain may mutate."""

    @pytest.mark.parametrize("kwargs", [{}, {"batch_size": 7}])
    def test_derive_after_scan_extract_leaves_the_table_unchanged(self, kwargs):
        from repro.etl.components import DeriveColumn, Extract
        from repro.etl.workflow import Workflow
        from repro.relational import DataType, Scan, TableSchema

        db = Database("src")
        db.create_table(
            TableSchema.build("t", [("id", DataType.INTEGER), ("v", DataType.INTEGER)])
        )
        db.insert("t", [{"id": i, "v": i * 3} for i in range(20)])
        before = Scan("t").execute(db)
        expected = [dict(row) for row in before]

        workflow = Workflow("own")
        workflow.add("extract", Extract(db, Scan("t")))
        workflow.add("derive", DeriveColumn("w", "v + 1"), inputs=("extract",))
        # Only the tail is an output, so the engine fuses both steps and
        # the derive step writes into the extracted rows in place.
        workflow.outputs = ["derive"]
        outputs, _ = workflow.run(**kwargs)

        assert [row["w"] for row in outputs["derive"]] == [i * 3 + 1 for i in range(20)]
        assert Scan("t").execute(db) == expected
        assert before == expected
