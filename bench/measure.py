"""Pure helpers of the benchmark: order statistics, span self times and
output checks.  Nothing here imports stampset, so the helpers can be
tested on their own (see test_measure.py)."""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence

TAIL_BEYOND = 10


def tail_percentile(
    samples: Sequence[float], beyond: int = TAIL_BEYOND
) -> tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns (percentile, value, sample count).  With n sorted samples the
    value is the (n - beyond)-th smallest, which is the 100*(n-beyond)/n
    percentile.  With no more than ``beyond`` samples no such percentile
    exists; the maximum is returned as the 100th percentile.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    if n <= beyond:
        return 100.0, ordered[-1], n
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], n


def self_times(
    spans: Iterable[tuple[str, float, float, int]],
) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds].

    ``spans`` holds (name, start, end, parent) with ``parent`` the index of
    the enclosing span in the same sequence, or -1.  A span's self time is
    its duration minus the part of its interval that its child spans cover.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, list[float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return totals


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mismatches(observed: Mapping[str, object], expected: Mapping[str, object]) -> list[str]:
    """One line per expected key whose observed value differs."""
    return [
        f"{key}: expected {expected[key]!r}, got {observed.get(key)!r}"
        for key in expected
        if observed.get(key) != expected[key]
    ]


def check_analysis(
    payload: Mapping, elements: Sequence[int], bound: int | None, all_n: bool
) -> list[str]:
    """Problems with one ``stampset analyze --json`` payload.

    Every normalized set must reach its threshold by max(1, b - ell) and
    satisfy the description there (the default N of ``analyze``).  A
    sparse-family instance must also meet its printed threshold ``bound``,
    and the families that hold at every N must say so.
    """
    b = elements[-1]
    anchor = max(1, b - (len(elements) - 2))
    report = payload.get("report", {})
    problems = []
    if payload.get("set") != list(elements):
        problems.append(f"set echoed as {payload.get('set')}")
    threshold = payload.get("min_threshold")
    if not isinstance(threshold, int) or threshold > anchor:
        problems.append(f"min_threshold {threshold} above b-ell={anchor}")
    if report.get("n") != anchor or report.get("holds") is not True:
        problems.append(f"description does not hold at N={anchor}")
    if bound is not None and isinstance(threshold, int) and threshold > bound:
        problems.append(f"min_threshold {threshold} above the printed bound {bound}")
    if all_n and payload.get("holds_for_all_n") is not True:
        problems.append("holds_for_all_n is not true")
    return problems
