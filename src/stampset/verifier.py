"""Verify the interval description of N-fold sumsets and locate thresholds.

For a normalized set A (min 0, gcd 1, top element b) the candidate
description of the N-fold sumset is

    NA == {0, 1, ..., bN}  minus  E(A)  minus  (bN - E(b-A)),

gaps of A cut away at the bottom, reflected gaps of b-A cut away at the
top.  Equivalently, per non-zero residue class a mod b the description is
the arithmetic progression

    first_reachable_A(a) <= n <= bN - first_reachable_{b-A}(b-a),
    n = a (mod b),

together with all multiples of b in [0, bN].  The left-hand side NA is
always contained in the description; the question is for which N the two
agree.  Facts this module relies on and re-derives per call:

  * the description holds for every N >= b - ell (ell = interior count);
  * if it holds at an anchor N0 at least as large as every per-class
    minimal summand count, it holds for all N >= N0 -- so scanning
    N = 1 .. max(b - ell, max_summands) determines the exact threshold;
  * it holds at every N >= 1 if and only if, for every class a,
    first_A(a) + first_{b-A}(b-a) equals b times min_summands_A(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .core import (
    ExceptionalProfile,
    FiniteIntegerSet,
    _iter_bits,
    _iter_nfold,
    _require_normalized,
    exceptional_profile,
    n_fold_sumset,
    reflect,
)
from .modular import growth_profile, residues_mod_b

__all__ = [
    "StructureReport",
    "PlacementCheck",
    "check_structure",
    "min_threshold",
    "all_n_criterion",
    "placement_check",
    "DEFAULT_WITNESS_CAP",
]

DEFAULT_WITNESS_CAP = 64


def _spaced_ones(count: int, spacing: int) -> int:
    """Bitmask with ``count`` ones at positions 0, spacing, 2*spacing, ..."""
    if count <= 0:
        return 0
    return ((1 << (spacing * count)) - 1) // ((1 << spacing) - 1)


def _description_mask(
    prof: ExceptionalProfile, prof_reflected: ExceptionalProfile, n_summands: int
) -> int:
    """The candidate description of NA as a bitmask over [0, b*N]."""
    b = prof.modulus
    top = b * n_summands
    mask = _spaced_ones(n_summands + 1, b)  # multiples of b are always sums
    first = prof.first_reachable
    first_r = prof_reflected.first_reachable
    for a in range(1, b):
        lo = first[a - 1]
        hi = top - first_r[b - a - 1]
        if lo <= hi:
            mask |= _spaced_ones((hi - lo) // b + 1, b) << lo
    return mask


def _checked_description(
    a_set: FiniteIntegerSet,
    prof: ExceptionalProfile,
    prof_r: ExceptionalProfile,
    sumset: int,
    n_summands: int,
) -> int:
    """The description mask at N, after the containment check of check_structure."""
    description = _description_mask(prof, prof_r, n_summands)
    if sumset & ~description:
        raise RuntimeError(
            f"sumset escapes its description for {a_set} at N={n_summands}; "
            "this contradicts a theorem and indicates a bug"
        )
    return description


def _witnesses(diff: int, cap: int) -> tuple[int, ...]:
    return tuple(islice(_iter_bits(diff), cap))


@dataclass(frozen=True)
class StructureReport:
    """Outcome of comparing NA against its interval description at one N.

    ``missing_witnesses`` lists the smallest elements of the description
    that are not sums of N elements (capped at ``witness_cap`` entries;
    ``missing_count`` is the full count).  ``holds`` means the description
    is exact.
    """

    subject: FiniteIntegerSet
    n_summands: int
    holds: bool
    missing_witnesses: tuple[int, ...]
    missing_count: int
    rhs_size: int
    witness_cap: int


def check_structure(
    a_set: FiniteIntegerSet, n_summands: int, witness_cap: int = DEFAULT_WITNESS_CAP
) -> StructureReport:
    """Compare the N-fold sumset with its interval description, exactly.

    The containment NA inside the description is a theorem; if it ever
    failed the computation itself is wrong, so that direction raises
    RuntimeError instead of being reported.
    """
    _require_normalized(a_set)
    if witness_cap < 1:
        raise ValueError("witness_cap must be at least 1")
    sumset = n_fold_sumset(a_set, n_summands).bits
    prof = exceptional_profile(a_set)
    prof_r = exceptional_profile(reflect(a_set))
    description = _checked_description(a_set, prof, prof_r, sumset, n_summands)
    diff = description & ~sumset
    return StructureReport(
        subject=a_set,
        n_summands=n_summands,
        holds=diff == 0,
        missing_witnesses=_witnesses(diff, witness_cap),
        missing_count=diff.bit_count(),
        rhs_size=description.bit_count(),
        witness_cap=witness_cap,
    )


def _failure_scan(
    a_set: FiniteIntegerSet,
    prof: ExceptionalProfile,
    prof_r: ExceptionalProfile,
    n_lo: int,
    n_hi: int,
    witness_cap: int,
) -> list[tuple[int, tuple[int, ...], int]]:
    """All N in [n_lo, n_hi] where the description is strict, with witnesses.

    Shares one incremental sumset mask across the whole range, so the scan
    costs O(n_hi * |A|) shift-ors total.
    """
    failures: list[tuple[int, tuple[int, ...], int]] = []
    steps = _iter_nfold(a_set.elements)
    for n_summands in range(1, n_hi + 1):
        sumset = next(steps)
        if n_summands < n_lo:
            continue
        description = _checked_description(a_set, prof, prof_r, sumset, n_summands)
        diff = description & ~sumset
        if diff:
            failures.append(
                (n_summands, _witnesses(diff, witness_cap), diff.bit_count())
            )
    return failures


def min_threshold(a_set: FiniteIntegerSet) -> int:
    """The least N0 >= 1 such that the description is exact for all N >= N0.

    Scans N = 1 .. max(b - ell, max_summands): beyond b - ell the
    description always holds, and holding at the top of the scanned range
    (which dominates every per-class minimal summand count) propagates to
    all larger N, so the scan range is sufficient.
    """
    _require_normalized(a_set)
    prof = exceptional_profile(a_set)
    prof_r = exceptional_profile(reflect(a_set))
    upper = max(a_set.b - a_set.ell, prof.max_summands)
    failures = _failure_scan(a_set, prof, prof_r, 1, upper, witness_cap=1)
    if not failures:
        return 1
    last_bad = failures[-1][0]
    if last_bad >= upper:
        raise RuntimeError(
            f"description fails at the anchor N={upper} for {a_set}; "
            "this contradicts the threshold theorem and indicates a bug"
        )
    return last_bad + 1


def all_n_criterion(a_set: FiniteIntegerSet) -> bool:
    """Exact test for the description holding at every N >= 1.

    True iff for each class a the least class-a member of P(A) and the
    least class-(b-a) member of P(b-A) sit at opposite ends of a common
    sumset layer: first_A(a) + first_{b-A}(b-a) == b * min_summands_A(a).
    """
    _require_normalized(a_set)
    prof = exceptional_profile(a_set)
    prof_r = exceptional_profile(reflect(a_set))
    b = a_set.b
    for a in range(1, b):
        lhs = prof.first_reachable[a - 1] + prof_r.first_reachable[b - a - 1]
        if lhs != b * prof.min_summands[a - 1]:
            return False
    return True


@dataclass(frozen=True)
class PlacementCheck:
    """Outcome of the kB-growth placement test for one class and one k.

    When ``hypothesis_met`` is false (|kB| < b - min_summands(a)) the test
    asserts nothing and ``holds`` is vacuously true.
    """

    holds: bool
    hypothesis_met: bool
    target: int
    n_summands: int
    kb_size: int


def placement_check(a_set: FiniteIntegerSet, residue: int, k: int) -> PlacementCheck:
    """Check that first_reachable(a) + (k-1)b is a sum of few elements.

    Once the k-fold modular sumset kB is large enough (|kB| >= b minus the
    minimal summand count of class a), the member first_reachable(a) of
    P(A) can be pushed k-1 levels up: the target lies in NA already for
    N = max(1, 2k + b - |kB| - 1).
    """
    _require_normalized(a_set)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    b = a_set.b
    prof = exceptional_profile(a_set)
    target = prof.first_reachable_in(residue) + (k - 1) * b
    kb_size = growth_profile(residues_mod_b(a_set)).size_of(k)
    n_summands = max(1, 2 * k + b - kb_size - 1)
    if kb_size < b - prof.min_summands_for(residue):
        return PlacementCheck(
            holds=True,
            hypothesis_met=False,
            target=target,
            n_summands=n_summands,
            kb_size=kb_size,
        )
    layers = _iter_nfold(a_set.elements, bit_limit=target)
    mask = next(islice(layers, n_summands - 1, None))
    return PlacementCheck(
        holds=(mask >> target) & 1 == 1,
        hypothesis_met=True,
        target=target,
        n_summands=n_summands,
        kb_size=kb_size,
    )
