"""Paper-pipeline benchmark: the command that runs one workload.

Run from the repository root:

    python3 paperbench/run.py --workload entry --seed 1 --seconds 15 --trace 0

Workloads: ``entry``, ``studies``, ``refresh`` (see NOTES.md).  With
``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it measures half the time untraced and half traced
and reports the per-layer metrics.  Human-readable lines (provenance,
the workload's operations under their own names) come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results document and, for
traced runs, the span tree are written under ``.paperbench-out/``.

Exit status: 0 when every correctness check passed, 1 when a check
failed or the run raised, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".paperbench-out"
WORKLOADS = ("entry", "studies", "refresh")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(workload: str, seed: int, seconds: float, trace: int, sizes: Any) -> dict:
    """Where and on what a number was measured."""
    from paperbench.workloads import FSYNC

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "world_procedures": sizes.world,
        "delta_encounters": sizes.delta,
        "entry_round_encounters": sizes.entry_round,
        "refresh_cycles_per_epoch": sizes.cycles,
        "etl_every_cycles": sizes.etl_every,
        "fsync": FSYNC,
        "clients": 1,
        "loop": "closed",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    sizes: Any = None,
    out_dir: Path = OUT_DIR,
) -> dict[str, Any]:
    """Run one workload; returns the result document (metrics, checks)."""
    from paperbench import workloads as w
    from paperbench.layers import LayerTracer
    from paperbench.speed import REFERENCE_S, SpeedProbe

    sizes = sizes or w.DEFAULT_SIZES
    probe = SpeedProbe()
    workdir = out_dir / f"work-{os.getpid()}"
    prepared = None
    setup_s: list[float] = []

    def measure(budget: float, layers: LayerTracer | None = None) -> w.Phase:
        phase = w.Phase(budget, probe, layers)
        if workload == "entry":
            w.run_entry(phase, seed, sizes, workdir)
        elif workload == "studies":
            w.run_studies(phase, prepared)
        else:
            w.run_refresh(phase, seed, sizes, workdir)
        return phase

    try:
        if workload == "studies":
            setups = 1 if trace else sizes.setups
            setup_s, prepared = w.prepare_studies(seed, sizes, setups, probe)
        if not trace:
            phase = measure(seconds)
            phases = [phase]
            metrics = w.end_to_end(
                workload, phase, sizes, setup_s or phase.setup_s, peak_rss_mb()
            )
        else:
            untraced = measure(seconds / 2)
            layers = LayerTracer().install()
            try:
                phase = measure(seconds / 2, layers)
            finally:
                layers.remove()
            phases = [untraced, phase]
            metrics = w.per_layer(workload, phase, layers, untraced)
            layers.write_tree(out_dir / f"trace-{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [problem for p in phases for problem in p.problems]
    return {
        "provenance": provenance(workload, seed, seconds, trace, sizes),
        "correct": not problems and not any(p.failed for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
        "named": w.named_metrics(workload, phases[0], sizes),
        "samples": {
            kind: len(values) for kind, values in sorted(phases[0].samples.items())
        },
        "measured_p50_ms": {
            kind: w.percentile(values, 0.5) * 1000
            for kind, values in sorted(phases[0].raw.items())
        },
        "speed": {
            "reference_kernel_s": REFERENCE_S,
            "kernel_samples": probe.samples,
            "last_factor": probe.factor,
        },
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from paperbench.workloads import NAMED_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(NAMED_UNITS)
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2))
    report(result, units)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def report(result: dict[str, Any], units: dict[str, str]) -> None:
    """Human-readable lines: provenance, named metrics, samples, problems."""
    prov = result["provenance"]
    print(
        "# {workload} seed={seed} trace={trace} nproc={nproc} python={python} "
        "commit={commit} src={src} world={world_procedures} "
        "delta={delta_encounters} fsync={fsync}".format(
            src=prov["source_sha256"][:12], **prov
        )
    )
    for name, value in result["named"].items():
        print(f"#   {name} = {value:.4f} {units[name]}")
    for name, value in result["metrics"].items():
        print(f"#   [{name}] = {value:.4f} {units[name]}")
    print("#   samples: " + ", ".join(f"{k}={n}" for k, n in result["samples"].items()))
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
