"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload, then prints, per
metric, the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 paperbench/spread.py --workloads entry studies refresh --seeds 1-10

Each run is a separate process, started with the command BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = 0.0
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, check=False
            )
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed} done", file=sys.stderr, flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, share / bound)
            print(
                f"{workload:8} {name:18} median={median:12.4f} "
                f"iqr/median={share:7.4f} bound={bound} "
                f"values={[round(v, 4) for v in series]}"
            )
    print(f"worst spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
