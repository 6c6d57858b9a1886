"""Exhaustive verification of the interval description over small moduli.

For each modulus b the harness walks the subsets of the interior
{1, ..., b-1} with a size in the ell window (as bitmasks, bit j standing
for element j+1), keeps the sets with gcd 1, and checks the interval
description of the N-fold sumset over a window of N values that provably
decides the minimal threshold:

* ``delta = 0`` certifies the unconditional guarantee: no normalized set
  may fail at any N >= max(1, b - ell).
* ``delta = 1`` widens the window by one step and compares the observed
  failures against the two-family catalog of
  :func:`~stampset.families.classify_exceptional_family`.
* ``delta = 2`` widens by two steps, restricts to b >= 9 and ell >= 5
  (the regime the deeper catalog covers), and compares against the
  six-family catalog.

Any disagreement - a failure the catalog misses, a cataloged set that
never fails, or worst of all a failure inside the guaranteed range - is
collected as a catalog mismatch and raised as
:class:`~stampset.errors.CatalogMismatchError` with the full result
attached, so callers can both see the report and treat the run as a
hard failure.

Sets come in mirror pairs {A, b-A}: the mask of b-A is that of A
reversed over b-1 bits.  Since n lies in NA exactly when bN - n lies in
N(b-A), both fail at the same N with the same missing count, the
witnesses of b-A are bN - w for the largest missing w of A, and one
classification of the pair labels both sets.  So only the canonical
member of a pair, the one whose mask is not above its mirror's, is
analyzed; it emits the records of both, and a set that is its own
mirror is emitted once.  Both members get the window
[max(1, b - ell - delta), b - ell], since b-A has the b and ell of A.

One stream, ``_masks_of_size``, yields the masks with s bits in
increasing order from any rank on.  A shard is a size s, the ell of its
sets, and a range of ranks among its C(b-1, s) masks, so a narrow ell
window visits only the masks it holds.  Shards are the same at every
worker count: they run in turn at one worker and on a process pool at
more.  Every shard reports how many sets it analyzed and skipped for gcd
reasons (each counting the mirror of every canonical set it holds, even
one in another shard) and the sum of the masks it visited; the merge
checks those against closed-form totals, so a lost or duplicated shard
cannot go unnoticed.  Shards return finished records, and a quiet pair,
one with no failure in its window and no catalog label, emits none and
costs only its check; the merge sorts the records by b, interior mask
and N, so reports are byte-identical across worker counts.  Pool workers
ignore Ctrl-C; the parent takes it, cancels the pending shards and shuts
the pool down.  The parent holds SIGINT back while it submits shards,
since that is when workers start.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import time
from dataclasses import dataclass, field, fields
from itertools import islice
from math import comb, gcd, inf
from typing import Iterator

from .core import FiniteIntegerSet, _bit_list, _known_set, _require_index, _reverse_bits, _set_str
from .errors import CatalogMismatchError
from .families import _classify
from .verifier import DEFAULT_WITNESS_CAP, _analyze

__all__ = [
    "ScanConfig",
    "FailureRecord",
    "MismatchRecord",
    "ScanResult",
    "enumerate_sets",
    "scan_theorems",
    "render_report",
    "emit_report",
]


def _plain(value: int | None, name: str) -> int | None:
    """``value`` as a plain int, through ``operator.index``; None stays None."""
    if value is None:
        return None
    return _require_index(value, -inf, inf, ValueError, f"{name} must be an integer")


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of one exhaustive scan.

    The ell window [ell_min, ell_max] bounds the masks the scan visits,
    not only the sets it analyzes: a narrow window costs what it holds.
    At delta 2 the scan raises the bounds to b >= 9 and ell >= 5, the
    regime of the deeper catalog, so a window outside them scans nothing.
    """

    b_min: int
    b_max: int
    ell_min: int | None = None
    ell_max: int | None = None
    delta: int = 0
    parallelism: int = 1
    witness_cap: int = DEFAULT_WITNESS_CAP

    def __post_init__(self) -> None:
        for name in (item.name for item in fields(self)):  # every field is an int or None
            object.__setattr__(self, name, _plain(getattr(self, name), name))
        if not 2 <= self.b_min <= self.b_max:
            raise ValueError(
                f"need 2 <= b_min <= b_max, got [{self.b_min}, {self.b_max}]"
            )
        ells = [x for x in (self.ell_min, self.ell_max) if x is not None]
        if any(x < 0 for x in ells) or ells != sorted(ells):
            raise ValueError(
                f"need 0 <= ell_min <= ell_max, got [{self.ell_min}, {self.ell_max}]"
            )
        if self.delta not in (0, 1, 2):
            raise ValueError(f"delta must be 0, 1 or 2, got {self.delta}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.witness_cap < 1:
            raise ValueError("witness_cap must be at least 1")


@dataclass(frozen=True)
class FailureRecord:
    """One (set, N) pair where the description was strictly larger."""

    b: int
    elements: tuple[int, ...]
    n_summands: int
    witnesses: tuple[int, ...]
    witness_count: int
    labels: tuple[str, ...]


@dataclass(frozen=True)
class MismatchRecord:
    """A set on which observed failures and the catalog disagree."""

    b: int
    elements: tuple[int, ...]
    kind: str
    detail: str


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    sets_scanned: int
    skipped_gcd: int
    failures: tuple[FailureRecord, ...]
    catalog_mismatches: tuple[MismatchRecord, ...]
    timing: dict[int, float] = field(default_factory=dict, compare=False)


def enumerate_sets(
    b: int, ell_min: int | None = None, ell_max: int | None = None
) -> Iterator[FiniteIntegerSet]:
    """Every normalized set with endpoints 0 and b, in bitmask order.

    Subsets of {1, ..., b-1} are encoded as bitmasks (bit j set means
    element j+1 is present) and visited in increasing numeric order, so
    the stream is deterministic.  Subsets whose elements share a factor
    with b are skipped.  An optional interior-size window [ell_min,
    ell_max] narrows the stream.  The masks are the scan's sized stream,
    one per wanted size, merged, so a narrowed window costs what it yields.
    """
    b = _require_index(b, 2, inf, ValueError, "modulus must be at least 2")
    ell_min, ell_max = _plain(ell_min, "ell_min"), _plain(ell_max, "ell_max")
    lo = 0 if ell_min is None else max(ell_min, 0)
    hi = b - 1 if ell_max is None else min(ell_max, b - 1)
    for mask in heapq.merge(*(_masks_of_size(ell, b - 1) for ell in range(lo, hi + 1))):
        interior = _bit_list(mask << 1)  # bit j of the mask stands for element j + 1
        if gcd(b, *interior) == 1:
            yield FiniteIntegerSet((0, *interior, b))


def _masks_of_size(size: int, width: int, rank: int = 0) -> Iterator[int]:
    """The masks below 2**width with ``size`` <= width bits set, in
    increasing order, from the one of the given rank on.

    Bits c_1 < ... < c_size have rank C(c_1, 1) + ... + C(c_size, size) in
    that order (Knuth, TAOCP 4A, 7.2.1.3), so the first mask is unranked
    greedily from the top bit down; each step after it is Gosper's hack.
    """
    mask, top = 0, width
    for i in range(size, 0, -1):  # c_i is the largest c with C(c, i) <= rank
        top -= 1
        while comb(top, i) > rank:
            top -= 1
        rank -= comb(top, i)
        mask |= 1 << top
    while mask >> width == 0:
        yield mask
        if not mask:
            return
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


def _scan_unit(b: int, size: int, rank_lo: int, rank_hi: int, delta: int, witness_cap: int):
    """Scan the masks of ``size`` bits ranked in [rank_lo, rank_hi) into records.

    Only the canonical member of each pair {A, b-A}, the one whose mask is
    not above its mirror's, goes further.  Since gcd(b, x) = gcd(b, b - x),
    it is tested and counted for both, and it emits the records of both.
    """
    analyzed = skipped = mask_sum = 0
    failures, mismatches = [], []
    for mask in islice(_masks_of_size(size, b - 1, rank_lo), rank_hi - rank_lo):
        mask_sum += mask
        mirror_mask = _reverse_bits(mask, b - 1)
        if mirror_mask < mask:
            continue  # counted and emitted with its mirror
        pair = 1 if mirror_mask == mask else 2
        interior = _bit_list(mask << 1)  # bit j of the mask stands for element j + 1
        if gcd(b, *interior) != 1:
            skipped += pair
            continue
        analyzed += pair
        a_set = _known_set((0, *interior, b))
        analysis = _analyze(a_set)
        guaranteed = b - size  # the same for b-A
        window_lo = max(1, guaranteed - delta)
        fails = analysis.failures(window_lo, witness_cap)
        labels, mirror_labels = _classify(a_set, analysis.mirror, delta) if delta else ((), ())
        if not (fails or labels):
            continue  # quiet: b-A has labels exactly when A has, and the same failures
        sides = [(a_set.elements, labels), (analysis.mirror.elements, mirror_labels)][:pair]
        failing = [n for n, *_ in fails]
        hard = [n for n in failing if n >= guaranteed]
        for side, (side_elements, side_labels) in enumerate(sides):
            label_strs = tuple(str(label) for label in side_labels)
            failures.extend(
                FailureRecord(b, side_elements, n, witnesses[side], count, label_strs)
                for n, count, *witnesses in fails
            )
            if hard:
                detail = f"fails at N={hard} inside the guaranteed range N >= {guaranteed}"
                mismatches.append(MismatchRecord(b, side_elements, "identity_violation", detail))
            if delta and bool(fails) != bool(label_strs):
                if fails:
                    kind = "failure_without_family"
                    detail = (
                        f"fails at N={failing} but matches no "
                        f"cataloged family at delta={delta}"
                    )
                else:
                    kind = "family_without_failure"
                    detail = (
                        f"matches {'+'.join(label_strs)} but holds at every "
                        f"N in [{window_lo}, {guaranteed}]"
                    )
                mismatches.append(MismatchRecord(b, side_elements, kind, detail))
    return analyzed, skipped, mask_sum, failures, mismatches


def _set_order(record: FailureRecord | MismatchRecord) -> tuple[int, int]:
    """(b, interior mask) of a record's set: the order in which sets are walked."""
    return record.b, sum(1 << (x - 1) for x in record.elements[1:-1])


def _ignore_interrupts() -> None:
    """Pool initializer: Ctrl-C reaches the parent, which shuts the pool down.

    A worker starts with SIGINT blocked (see ``_map_units``); it ignores
    the signal before unblocking it, so one sent meanwhile is dropped.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def _map_units(pool, unit_args: list[tuple]) -> list:
    """``_scan_unit`` over the units on the pool, in order.

    The first submit starts the workers and the pool's manager thread.
    SIGINT is blocked while the units are submitted, so that neither a
    worker that has not yet run ``_ignore_interrupts`` nor a half-started
    pool takes it; a Ctrl-C sent meanwhile arrives once submission is done.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        results = pool.map(_scan_unit, *zip(*unit_args))
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    return list(results)


def _units_for(b: int, sizes: range) -> list[tuple[int, int, int]]:
    """Shards (size, rank_lo, rank_hi): each size's masks cut into rank
    ranges of a 512th of all the sizes' masks, and at least 64."""
    counts = {size: comb(b - 1, size) for size in sizes}
    unit = max(64, sum(counts.values()) // 512)
    return [(s, lo, min(lo + unit, n)) for s, n in counts.items() for lo in range(0, n, unit)]


def scan_theorems(config: ScanConfig) -> ScanResult:
    """Run the configured scan and cross-check failures against the catalog.

    At delta 2 only sets with b >= 9 and ell >= 5 are scanned; a window
    outside those bounds scans no set and returns a clean result.  Returns
    the collected :class:`ScanResult` when observation and catalog agree
    everywhere.  Raises :class:`CatalogMismatchError` (with the
    result attached as ``.result``) when any set disagrees, since that
    either contradicts a proved statement or exposes a catalog gap.
    """
    all_failures = []
    all_mismatches = []
    sets_scanned = 0
    skipped_gcd = 0
    timing: dict[int, float] = {}

    b_lo, b_hi = config.b_min, config.b_max
    ell_lo = config.ell_min if config.ell_min is not None else 0
    if config.delta == 2:
        # the deeper catalog is only claimed for b >= 9 and ell >= 5
        b_lo = max(b_lo, 9)
        ell_lo = max(ell_lo, 5)

    pool = None
    if config.parallelism > 1:
        # imported here: a one-worker scan never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(config.parallelism, initializer=_ignore_interrupts)
    try:
        for b in range(b_lo, b_hi + 1):
            started = time.perf_counter()
            ell_hi = config.ell_max if config.ell_max is not None else b - 1
            sizes = range(ell_lo, min(b - 1, ell_hi) + 1)
            unit_args = [
                (b, size, lo, hi, config.delta, config.witness_cap)
                for size, lo, hi in _units_for(b, sizes)
            ]
            if pool is None:
                outcomes = [_scan_unit(*args) for args in unit_args]
            else:
                outcomes = _map_units(pool, unit_args)

            analyzed = skipped = mask_sum = 0
            for unit_analyzed, unit_skipped, unit_mask_sum, fails, mismatches in outcomes:
                analyzed += unit_analyzed
                skipped += unit_skipped
                mask_sum += unit_mask_sum
                all_failures += fails
                all_mismatches += mismatches

            # C(b-1, s) masks have size s; each bit is set in C(b-2, s-1) of them
            masks = sum(comb(b - 1, size) for size in sizes)
            bit_sets = sum(comb(b - 2, size - 1) for size in sizes if size)
            if mask_sum != bit_sets * ((1 << (b - 1)) - 1) or analyzed + skipped != masks:
                raise RuntimeError(
                    f"work partition for b={b} dropped or duplicated a shard"
                )
            sets_scanned += analyzed
            skipped_gcd += skipped
            timing[b] = time.perf_counter() - started
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    all_failures.sort(key=lambda record: (*_set_order(record), record.n_summands))
    all_mismatches.sort(key=_set_order)  # stable: a set's mismatches keep their order
    result = ScanResult(
        config=config,
        sets_scanned=sets_scanned,
        skipped_gcd=skipped_gcd,
        failures=tuple(all_failures),
        catalog_mismatches=tuple(all_mismatches),
        timing=timing,
    )
    if result.catalog_mismatches:
        first = result.catalog_mismatches[0]
        raise CatalogMismatchError(
            f"{len(result.catalog_mismatches)} set(s) disagree with the catalog, "
            f"first: {_set_str(first.elements)} ({first.kind}: {first.detail})",
            result=result,
        )
    return result


def render_report(result: ScanResult, *, include_timing: bool = False) -> str:
    """Serialize a result as canonical JSON.

    Sorted keys, no whitespace, one trailing newline, and no
    scheduling-dependent values (timing stays empty and the echoed config
    omits the worker count) unless ``include_timing`` asks for wall-clock
    numbers.
    """
    payload = {
        "config": {
            "b_min": result.config.b_min,
            "b_max": result.config.b_max,
            "ell_min": result.config.ell_min,
            "ell_max": result.config.ell_max,
            "delta": result.config.delta,
            "witness_cap": result.config.witness_cap,
        },
        "sets_scanned": result.sets_scanned,
        "skipped_gcd": result.skipped_gcd,
        "failures": [
            {
                "b": record.b,
                "set": _set_str(record.elements),
                "n": record.n_summands,
                "witnesses": list(record.witnesses),
                "witness_count": record.witness_count,
                "labels": list(record.labels),
            }
            for record in result.failures
        ],
        "catalog_mismatches": [
            {
                "b": record.b,
                "set": _set_str(record.elements),
                "kind": record.kind,
                "detail": record.detail,
            }
            for record in result.catalog_mismatches
        ],
        "timing": (
            {str(b): round(seconds, 6) for b, seconds in sorted(result.timing.items())}
            if include_timing
            else {}
        ),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def emit_report(result: ScanResult, destination: str) -> None:
    """Write the rendered report to a file (UTF-8).

    The text goes to a new file beside the destination, which then replaces
    it in one step, so a failed write leaves an existing report intact.
    """
    text = render_report(result)
    partial = f"{destination}.{os.getpid()}.tmp"
    handle = open(partial, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(partial, destination)
    except BaseException:
        os.remove(partial)
        raise
