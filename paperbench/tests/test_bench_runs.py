"""Each workload runs at a tiny size and reports the declared metrics."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from paperbench import layers as layer_module
from paperbench.run import run_benchmark
from paperbench.workloads import Sizes

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = Sizes(
    entry_round=12, reopens=2, world=60, delta=2, cycles=4, etl_every=2, setups=2
)


def _run(tmp_path: Path, workload: str, trace: int) -> dict:
    return run_benchmark(
        workload, seed=3, seconds=0.05, trace=trace, sizes=TINY, out_dir=tmp_path
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = _run(tmp_path, workload, trace=0)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value in result["metrics"].values())
    assert not list(tmp_path.glob("work-*")), "work stores left behind"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    result = _run(tmp_path, workload, trace=1)
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    tree = json.loads((tmp_path / f"trace-{workload}-seed3.json").read_text())
    assert tree["spans"] and all(s["name"].startswith("op:") for s in tree["spans"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_account_for_traced_time(tmp_path, workload):
    m = _run(tmp_path, workload, trace=1)["metrics"]
    layers = (
        m["ui.enter_self_ms"]
        + m["patterns.write_ms"]
        + m["storage.wal_append_ms"]
        + m["storage.commit_ms"]
        + m["storage.snapshot_ms"]
        + m["storage.recover_ms"]
        + m["guava.translate_ms"]
        + m["relational.execute_ms"]
        + m["multiclass.classify_ms"]
        + m["multiclass.study_self_ms"]
        + m["etl.self_ms"]
        + m["warehouse.self_ms"]
    )
    assert layers + m["unattributed_ms"] == pytest.approx(m["traced_op_ms"], rel=1e-9)
    assert m["traced_op_ms"] > 0


EXPECTED_LAYERS = {
    "entry": {"ui", "patterns", "storage"},
    "studies": {"guava", "relational", "multiclass"},
    "refresh": set(layer_module.LAYERS),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_run_where_the_workload_says(tmp_path, workload):
    m = _run(tmp_path, workload, trace=1)["metrics"]
    busy = {
        "ui": m["ui.enter_calls"],
        "patterns": m["patterns.writes"],
        "storage": m["storage.wal_appends"],
        "guava": m["guava.translate_calls"],
        "relational": m["relational.rows_out"],
        "multiclass": m["multiclass.classify_calls"],
        "etl": m["etl.rows_loaded"],
        "warehouse": m["warehouse.build_ms"] + m["warehouse.query_ms"],
    }
    assert {layer for layer, amount in busy.items() if amount > 0} == (
        EXPECTED_LAYERS[workload]
    )


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from repro.multiclass.classifier import Classifier
    from repro.storage.wal import WriteAheadLog
    from repro.ui.session import DataEntrySession

    before = (
        DataEntrySession.__dict__["enter"],
        Classifier.__dict__["classify"],
        WriteAheadLog.__dict__["append"],
    )
    _run(tmp_path, "refresh", trace=1)
    after = (
        DataEntrySession.__dict__["enter"],
        Classifier.__dict__["classify"],
        WriteAheadLog.__dict__["append"],
    )
    assert after == before


def test_command_prints_the_result_line_last(tmp_path):
    """The command's last line is the result, with BENCHMARK.json's units."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for part in ("src", "paperbench"):
        shutil.copytree(
            ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__")
        )
    done = subprocess.run(
        [*SPEC["command"], "--workload", "entry", "--seed", "2",
         "--seconds", "0.05", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert not list((tmp_path / ".paperbench-out").glob("work-*"))


def test_fails_without_the_program_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "paperbench",
        tmp_path / "paperbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", "entry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
