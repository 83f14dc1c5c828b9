"""Shared helpers for benchmark JSON payloads and output paths.

Two concerns the bench scripts used to mishandle:

* **Baseline clobbering** — bare runs overwrote the committed
  ``BENCH_*.json`` files even when the box was noisy.  Scripts now write
  to a scratch path (``benchmarks/reports/<name>.latest.json``) unless
  ``--json`` is passed explicitly, which promotes the run to the
  committed baseline (or to the path given after the flag).
* **Provenance** — payloads record the python version, the CPU cores the
  process may run on, and the git commit, so a committed baseline says
  what produced it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Any

_HERE = os.path.dirname(os.path.abspath(__file__))
REPORTS_DIR = os.path.join(_HERE, "reports")


def available_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def environment() -> dict[str, str | int]:
    """Provenance stamp: python version, cores, and (when available) commit."""
    env: dict[str, str | int] = {
        "python_version": platform.python_version(),
        "cores": available_cores(),
    }
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if probe.returncode == 0 and probe.stdout.strip():
            env["commit"] = probe.stdout.strip()
    except OSError:
        pass
    return env


def resolve_json_path(argv: list[str], benchmark: str) -> tuple[str, bool]:
    """(output path, promoted?) for one bench invocation.

    Without ``--json`` the run lands in the scratch path; ``--json``
    promotes it to the committed ``BENCH_<benchmark>.json`` baseline, and
    ``--json PATH`` to an explicit path.
    """
    if "--json" not in argv:
        return os.path.join(REPORTS_DIR, f"{benchmark}.latest.json"), False
    index = argv.index("--json")
    if index + 1 < len(argv) and not argv[index + 1].startswith("-"):
        return os.path.normpath(argv[index + 1]), True
    return (
        os.path.normpath(os.path.join(_HERE, "..", f"BENCH_{benchmark}.json")),
        True,
    )


def write_payload(path: str, payload: dict[str, Any]) -> str:
    """Write ``payload`` (stamped with :func:`environment`) to ``path``."""
    stamped = dict(payload)
    stamped.setdefault("environment", environment())
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(stamped, handle, indent=2)
        handle.write("\n")
    return path
