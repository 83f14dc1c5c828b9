"""Correctness checks on the benchmark's outputs.

Every check takes the program's output and the expected value, and
returns a list of problems (empty when the output is correct).  They run
outside the timed region; a non-empty list fails the run and counts the
operations the check covers as failed.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

Row = Mapping[str, object]


def same_fingerprints(live: Sequence[str], reopened: Sequence[str]) -> list[str]:
    """Each reopened store must fingerprint exactly like the live one."""
    if len(live) != len(reopened):
        return [f"{len(reopened)} stores reopened, {len(live)} were live"]
    return [
        f"store {index}: reopened fingerprint {after[:12]} != live {before[:12]}"
        for index, (before, after) in enumerate(zip(live, reopened))
        if before != after
    ]


def same_counts(
    entered: Mapping[str, int], read_back: Mapping[str, int]
) -> list[str]:
    """Each source must read back exactly the records entered into it."""
    problems = []
    for name in sorted(set(entered) | set(read_back)):
        want, got = entered.get(name, 0), read_back.get(name, 0)
        if want != got:
            problems.append(f"{name}: read back {got} record(s), entered {want}")
    return problems


def same_funnel(measured: object, truth: object) -> list[str]:
    """A Study 1 funnel must equal the ground-truth funnel stage by stage."""
    if measured == truth:
        return []
    return [f"study 1 funnel {measured} != truth {truth}"]


def same_study2(
    definition: str, measured: tuple[int, int], truth: tuple[int, int]
) -> list[str]:
    """Study 2 (ex-smokers, ex-smokers with hypoxia) must equal truth."""
    if measured == truth:
        return []
    return [f"study 2 ({definition}) counts {measured} != truth {truth}"]


def same_rows(
    what: str,
    actual: Iterable[Row],
    expected: Iterable[Row],
    columns: Sequence[str],
    key: Sequence[str],
) -> list[str]:
    """Two row sets must hold the same rows on ``columns``, in any order."""

    def canonical(rows: Iterable[Row]) -> list[tuple]:
        picked = [tuple(row.get(column) for column in columns) for row in rows]
        positions = [columns.index(column) for column in key]
        return sorted(picked, key=lambda t: tuple(repr(t[p]) for p in positions))

    got, want = canonical(actual), canonical(expected)
    if got == want:
        return []
    missing = len([row for row in want if row not in got])
    extra = len([row for row in got if row not in want])
    return [
        f"{what}: {len(got)} row(s) vs {len(want)} expected "
        f"({missing} missing, {extra} unexpected)"
    ]
