"""Verify the interval description of N-fold sumsets and locate thresholds.

For a normalized set A (min 0, gcd 1, top element b) the candidate
description of the N-fold sumset is

    D(N) = {0, 1, ..., bN}  minus  E(A)  minus  (bN - E(b-A)),

gaps of A cut away at the bottom, reflected gaps of b-A cut away at the
top.  Equivalently, per non-zero residue class a mod b the description is
the arithmetic progression

    first_reachable_A(a) <= n <= bN - first_reachable_{b-A}(b-a),
    n = a (mod b),

together with all multiples of b in [0, bN].  NA is always contained in
the description; the question is for which N the two agree.

Every entry point but ``placement_check`` reads one per-set analysis:
A's first-member mask F, and the gap masks of A and of b-A.
``placement_check`` builds neither F nor a layer: it reads the one class
it tests off A's excess staircase, ``core._staircase``.  The mask of
E(b-A) is bit-reversed once, so one shift places each gap g at bN - g.
The one walk over the layers NA, ``core._walk``, does the rest, and is
F's only reader: each reader goes over it and folds what it needs.  A
layer clears the first members of A it reaches (the threshold and report
record each with its layer, which is A's profile), and is checked
against D(N) without building it: the gaps of A against the bottom of
the layer, the mirrored gaps of b-A against its top, and one count of NA
against |D(N)| = bN + 1 - |gaps inside [0, bN]|, counted on the narrow
gap masks.  D(N) itself, and D(N) minus NA, are built only at failing
layers whose witnesses are wanted.  Every reader stops at N = b - ell,
or at a requested N beyond it.  Facts this module relies on:

  * the description holds for every N >= b - ell (ell = interior count);
  * every first member is a sum of at most b - ell non-zero elements, so
    none is pending at N = b - ell (the walk raises if one is);
  * if the description holds at an N0 at least as large as every
    per-class minimal summand count, it holds for all N >= N0 -- so
    scanning N = 1 .. b - ell determines the exact threshold, and the
    check at N = b - ell tests the first fact where it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import inf

from .core import (
    ExceptionalProfile,
    FiniteIntegerSet,
    _bit_list,
    _first_members,
    _iter_bits,
    _profile,
    _require_index,
    _require_normalized,
    _require_residue,
    _require_summands,
    _reverse_bits,
    _staircase,
    _walk,
    reflect,
)
from .modular import _growth_layers, _require_k

__all__ = [
    "StructureReport",
    "PlacementCheck",
    "check_structure",
    "min_threshold",
    "all_n_criterion",
    "placement_check",
]

DEFAULT_WITNESS_CAP = 64


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


@dataclass(frozen=True)
class _Analysis:
    """The first members of A, the gaps of A and of b-A, and what entry points
    read off A's layers.

    ``mirror`` is b-A, built once; the scan classifies it and emits its
    records.  ``first_mask`` and ``gap_mask`` are F and the gap mask of A,
    the first step of its profile.  F is read only by the one walk over
    A's layers, ``core._walk``, which every reader goes over itself; the
    threshold walk records each first member with its minimal summand
    count there, and the profile is built from that record.  ``mirrored``
    is the gap mask of b-A reversed over [0, mirror_width], where
    mirror_width is its largest gap (-1 without gaps): gap g sits at bit
    mirror_width - g, so a shift by bN - mirror_width moves it to bN - g.
    """

    a_set: FiniteIntegerSet
    mirror: FiniteIntegerSet
    first_mask: int
    gap_mask: int
    mirrored: int
    mirror_width: int

    @property
    def reflected_gaps(self) -> tuple[int, ...]:
        """E(b-A) in increasing order."""
        return _bit_list(_reverse_bits(self.mirrored, self.mirror_width + 1))

    def description(self, n_summands: int) -> int:
        """D(N) over [0, bN], built only where witnesses are wanted."""
        top = self.a_set.b * n_summands
        shift = top - self.mirror_width
        mirrored = self.mirrored << shift if shift >= 0 else self.mirrored >> -shift
        return ((1 << (top + 1)) - 1) & ~(self.gap_mask | mirrored)

    def _missing(self, n_summands: int, sumset: int) -> int:
        """|D(N)| - |NA|, after checking that NA (``sumset``) lies inside D(N).

        Besides one count of NA only narrow masks are touched: the gaps of A
        against the bottom of the layer, the mirrored gaps of b-A against its
        top, and |D(N)| = bN + 1 - |cut|, the cut being both sets of gaps
        inside [0, bN], counted on those masks.
        """
        top = self.a_set.b * n_summands
        gaps, mirrored = self.gap_mask, self.mirrored
        shift = top - self.mirror_width  # where bit 0 of ``mirrored`` lands
        if shift >= 0:
            at_top = (sumset >> shift) & mirrored
            overlap = (gaps >> shift) & mirrored
        else:  # the gaps of b-A above bN would land below 0
            mirrored >>= -shift
            at_top = sumset & mirrored
            overlap = gaps & mirrored
        if sumset & gaps or at_top or sumset.bit_length() > top + 1:
            raise RuntimeError(
                f"sumset escapes its description for {self.a_set} at N={n_summands}; "
                "this contradicts a theorem and indicates a bug"
            )
        if gaps.bit_length() > top + 1:
            gaps &= (1 << (top + 1)) - 1
        cut = gaps.bit_count() + mirrored.bit_count() - overlap.bit_count()
        return top + 1 - cut - sumset.bit_count()

    def _report(
        self, n_summands: int, sumset: int, missing: int, witness_cap: int
    ) -> StructureReport:
        diff = self.description(n_summands) & ~sumset if missing else 0
        return StructureReport(
            subject=self.a_set,
            n_summands=n_summands,
            holds=not missing,
            missing_witnesses=_witnesses(diff, witness_cap),
            missing_count=missing,
            rhs_size=sumset.bit_count() + missing,
            witness_cap=witness_cap,
        )

    def report(self, n_summands: int, witness_cap: int) -> StructureReport:
        """NA against D(N) at one N."""
        n_summands, witness_cap = _check_request(n_summands, witness_cap)
        layers = _walk(self.a_set.elements, self.first_mask)
        _, sumset, _ = next(islice(layers, n_summands - 1, None))
        missing = self._missing(n_summands, sumset)
        return self._report(n_summands, sumset, missing, witness_cap)

    def failures(
        self, n_lo: int, witness_cap: int
    ) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
        """Every N from n_lo to b - ell where the description is strict.

        The walk goes to b - ell, checks the layers from n_lo on, and clears
        F as a mask but records no first members.  Each failure is
        (N, missing count, witnesses of A, witnesses of b-A).  Since n lies
        in NA exactly when bN - n lies in N(b-A), b-A fails at the same N
        with the same count, and its witnesses are bN - w for the largest
        missing w of A.
        """
        b, floor = self.a_set.b, self.a_set.b - self.a_set.ell
        found = []
        for n, sumset, _ in islice(_walk(self.a_set.elements, self.first_mask), floor):
            missing = self._missing(n, sumset) if n >= n_lo else 0
            if missing:
                diff = self.description(n) & ~sumset
                mirror = _reverse_bits(diff, b * n + 1)
                found.append(
                    (n, missing, _witnesses(diff, witness_cap), _witnesses(mirror, witness_cap))
                )
        return found

    def threshold_and_report(
        self, n_summands: int | None = None, witness_cap: int = DEFAULT_WITNESS_CAP
    ) -> tuple[int, StructureReport | None, ExceptionalProfile]:
        """The least N0 >= 1 from which the description holds, the report at N,
        and the full profile of A.

        One walk checks every layer up to b - ell, recording each first
        member with its minimal summand count on the way, and goes on to N
        if N lies beyond it, checking only N there.  Without N the report is
        None.  The profile is built from the walk's record.
        """
        if n_summands is not None:
            n_summands, witness_cap = _check_request(n_summands, witness_cap)
        b, floor = self.a_set.b, self.a_set.b - self.a_set.ell
        firsts = [(0, 0)] * (b - 1)
        layers = _walk(self.a_set.elements, self.first_mask, firsts)
        last_bad = 0
        report = None
        for n, sumset, _ in islice(layers, max(floor, n_summands or 0)):
            missing = self._missing(n, sumset) if n <= floor or n == n_summands else 0
            if n == n_summands:
                report = self._report(n, sumset, missing, witness_cap)
            if missing and n <= floor:
                last_bad = n
        if last_bad >= floor:
            raise RuntimeError(
                f"description fails at the anchor N={floor} for {self.a_set}; "
                "this contradicts the threshold theorem and indicates a bug"
            )
        return last_bad + 1, report, _profile(b, firsts, self.gap_mask)


def _check_request(n_summands: int, witness_cap: int) -> tuple[int, int]:
    """N and the witness cap as plain ints, each checked against its rule."""
    cap = _require_index(witness_cap, 1, inf, ValueError, "witness_cap must be at least 1")
    return _require_summands(n_summands), cap


def _analyze(a_set: FiniteIntegerSet) -> _Analysis:
    """Find the first members and gaps of A (so unnormalized input names A) and
    the gaps of b - A, building b - A once."""
    _require_normalized(a_set)
    mirror = reflect(a_set)
    _, gaps_r = _first_members(mirror.elements)
    width = gaps_r.bit_length()
    first, gaps = _first_members(a_set.elements)
    return _Analysis(a_set, mirror, first, gaps, _reverse_bits(gaps_r, width), width - 1)


def check_structure(
    a_set: FiniteIntegerSet, n_summands: int, witness_cap: int = DEFAULT_WITNESS_CAP
) -> StructureReport:
    """Compare the N-fold sumset with its interval description, exactly.

    The containment NA inside the description is a theorem; if it ever
    failed the computation itself is wrong, so that direction raises
    RuntimeError instead of being reported.
    """
    return _analyze(a_set).report(n_summands, witness_cap)


def min_threshold(a_set: FiniteIntegerSet) -> int:
    """The least N0 >= 1 such that the description is exact for all N >= N0.

    Scans N = 1 .. b - ell: beyond b - ell the description always holds,
    and holding at b - ell (which dominates every per-class minimal summand
    count) propagates to all larger N, so the scan range is sufficient.
    """
    return _analyze(a_set).threshold_and_report()[0]


def all_n_criterion(a_set: FiniteIntegerSet) -> bool:
    """Exact test for the description holding at every N >= 1.

    The verdict is read off the minimal threshold: the description holds at
    every N >= 1 exactly when that threshold is 1.  Equivalently, for each
    class a the least class-a member of P(A) and the least class-(b-a)
    member of P(b-A) sit at opposite ends of a common sumset layer:
    first_A(a) + first_{b-A}(b-a) == b * min_summands_A(a).
    """
    return min_threshold(a_set) == 1


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

    |kB| comes from the raw growth kernel ``modular._growth_layers`` on A's
    residue mask, run to saturation, so the growth-law assertion covers
    every layer of every call; a normalized A already contains 0 and
    generates Z/bZ.  Class a is read off A's excess staircase,
    ``core._staircase``, whose row R_E[q] holds the classes with
    e_A(qb + a) = s(qb + a) - q - 1 <= E.  The first row q0 of the final
    level that holds a gives the first member q0*b + a, and the least
    level E0 whose row q0 holds a gives its minimal summand count
    q0 + 1 + E0, and with it the hypothesis.  The target (q0 + k - 1)b + a
    lies in NA exactly when its excess is at most N - (q0 + k - 1) - 1:
    one bit, and false when that bound is negative.  It never is: class a
    lies in (k + b - |kB|)B, since each step grows kB until it saturates,
    so q0 <= k + b - |kB| - 1 <= N - k.
    """
    _require_normalized(a_set)
    k = _require_k(k)
    elements = a_set.elements
    b = elements[-1]
    residue = _require_residue(residue, b)
    levels, bit = _staircase(elements), 1 << residue
    for first_row, row in enumerate(levels[-1]):  # the final level's last row holds every class
        if row & bit:
            break
    for first_excess, level in enumerate(levels):
        if _row(level, first_row) & bit:
            break
    residue_bits = 0
    for x in elements[:-1]:  # b is the residue 0, already there as the element 0
        residue_bits |= 1 << x
    layers = _growth_layers(residue_bits, b)
    kb_size = layers[k - 1].bit_count() if k <= len(layers) else b
    n_summands = max(1, 2 * k + b - kb_size - 1)
    hypothesis_met = kb_size >= b - (first_row + 1 + first_excess)
    target_row = first_row + k - 1
    excess = n_summands - target_row - 1  # the most the target's excess may be
    holds = excess >= 0 and _row(levels[min(excess, len(levels) - 1)], target_row) & bit != 0
    return PlacementCheck(
        holds=holds or not hypothesis_met,  # vacuously true without the hypothesis
        hypothesis_met=hypothesis_met, target=target_row * b + residue,
        n_summands=n_summands, kb_size=kb_size,
    )


def _row(level: list[int], q: int) -> int:
    """Row q of a staircase level; rows past its end repeat its last."""
    return level[min(q, len(level) - 1)]
