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

Every entry point reads one per-set analysis: the full profile of A and,
for b-A, only its first members and gap mask (its summand counts are
never read).  The mask of E(b-A) is bit-reversed once, so one shift
places each gap g at bN - g, and D(N) is [0, bN] with both masks
cleared: a few big-integer operations per N.  One walk over the layers
NA gives both the threshold and the report at a requested N, so
``analyze`` builds each layer once.  Facts this module relies on:

  * the description holds for every N >= b - ell (ell = interior count);
  * if it holds at an anchor N0 at least as large as every per-class
    minimal summand count, it holds for all N >= N0 -- so scanning
    N = 1 .. max(b - ell, max_summands) determines the exact threshold;
  * it holds at every N >= 1 if and only if, for every class a,
    first_A(a) + first_{b-A}(b-a) equals b times min_summands_A(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator

from .core import (
    ExceptionalProfile,
    FiniteIntegerSet,
    _first_members,
    _gap_list,
    _iter_bits,
    _iter_nfold,
    _require_normalized,
    _reverse_bits,
    exceptional_profile,
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
    """The profile of A, the first members of b-A, and what entry points read off them.

    ``mirrored`` is the gap mask of b-A reversed over [0, mirror_width],
    where mirror_width is its largest gap (-1 without gaps): gap g sits at
    bit mirror_width - g, so a shift by bN - mirror_width moves it to bN - g.
    """

    a_set: FiniteIntegerSet
    profile: ExceptionalProfile
    reflected_first: tuple[int, ...]
    mirrored: int
    mirror_width: int

    @property
    def anchor(self) -> int:
        """max(b - ell, max_summands): holding there means holding for all larger N."""
        return max(self.a_set.b - self.a_set.ell, self.profile.max_summands)

    @property
    def reflected_gaps(self) -> tuple[int, ...]:
        """E(b-A) in increasing order."""
        return _gap_list(self.a_set.b, self.reflected_first)

    def description(self, n_summands: int, sumset: int) -> int:
        """D(N) over [0, bN], after checking that NA (``sumset``) lies inside it."""
        top = self.a_set.b * n_summands
        shift = top - self.mirror_width
        mirrored = self.mirrored << shift if shift >= 0 else self.mirrored >> -shift
        description = ((1 << (top + 1)) - 1) & ~(self.profile.gap_mask | mirrored)
        if sumset & ~description:
            raise RuntimeError(
                f"sumset escapes its description for {self.a_set} at N={n_summands}; "
                "this contradicts a theorem and indicates a bug"
            )
        return description

    def _walk(self, wanted: Iterable[int]) -> Iterator[tuple[int, int, int]]:
        """(N, D(N), D(N) minus NA) for each N of the increasing ``wanted``.

        One pass over the layers NA from N = 1: every layer is built once,
        and only the wanted ones are described.
        """
        layers, built = _iter_nfold(self.a_set.elements), 0
        for n_summands in wanted:
            sumset = next(islice(layers, n_summands - built - 1, None))
            built = n_summands
            description = self.description(n_summands, sumset)
            yield n_summands, description, description & ~sumset

    def _report(
        self, n_summands: int, description: int, diff: int, witness_cap: int
    ) -> StructureReport:
        return StructureReport(
            subject=self.a_set,
            n_summands=n_summands,
            holds=diff == 0,
            missing_witnesses=_witnesses(diff, witness_cap),
            missing_count=diff.bit_count(),
            rhs_size=description.bit_count(),
            witness_cap=witness_cap,
        )

    def report(self, n_summands: int, witness_cap: int) -> StructureReport:
        """NA against D(N) at one N."""
        _check_request(n_summands, witness_cap)
        (layer,) = self._walk((n_summands,))
        return self._report(*layer, witness_cap)

    def failures(
        self, n_lo: int, n_hi: int, witness_cap: int
    ) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
        """All N in [n_lo, n_hi] where the description is strict.

        Each is (N, missing count, witnesses of A, witnesses of b-A).  Since
        n lies in NA exactly when bN - n lies in N(b-A), b-A fails at the
        same N with the same count, and its witnesses are bN - w for the
        largest missing w of A.
        """
        b = self.a_set.b
        return [
            (
                n_summands,
                diff.bit_count(),
                _witnesses(diff, witness_cap),
                _witnesses(_reverse_bits(diff, b * n_summands + 1), witness_cap),
            )
            for n_summands, _, diff in self._walk(range(n_lo, n_hi + 1))
            if diff
        ]

    def threshold_and_report(
        self, n_summands: int | None = None, witness_cap: int = DEFAULT_WITNESS_CAP
    ) -> tuple[int, StructureReport | None]:
        """The least N0 >= 1 from which the description holds, and the report at N.

        One walk describes every layer up to the anchor; past the anchor
        it only builds layers, up to N.  Without N the report is None.
        """
        upper = self.anchor
        wanted: Iterable[int] = range(1, upper + 1)
        if n_summands is not None:
            _check_request(n_summands, witness_cap)
            if n_summands > upper:
                wanted = chain(wanted, (n_summands,))
        last_bad, report = 0, None
        for layer in self._walk(wanted):
            n, _, diff = layer
            if diff and n <= upper:
                last_bad = n
            if n == n_summands:
                report = self._report(*layer, witness_cap)
        if last_bad >= upper:
            raise RuntimeError(
                f"description fails at the anchor N={upper} for {self.a_set}; "
                "this contradicts the threshold theorem and indicates a bug"
            )
        return last_bad + 1, report

    def threshold(self) -> int:
        """The least N0 >= 1 from which the description holds, scanning up to the anchor."""
        return self.threshold_and_report()[0]

    def holds_for_all_n(self) -> bool:
        """first_A(a) + first_{b-A}(b-a) == b * min_summands_A(a) for every class a."""
        b, prof, first_r = self.a_set.b, self.profile, self.reflected_first
        for a in range(1, b):
            lhs = prof.first_reachable[a - 1] + first_r[b - a - 1]
            if lhs != b * prof.min_summands[a - 1]:
                return False
        return True


def _check_request(n_summands: int, witness_cap: int) -> None:
    if witness_cap < 1:
        raise ValueError("witness_cap must be at least 1")
    if n_summands < 1:
        raise ValueError(f"number of summands must be >= 1, got {n_summands}")


def _analyze(a_set: FiniteIntegerSet) -> _Analysis:
    """Profile A (so unnormalized input names A), then find b - A's first members."""
    profile = exceptional_profile(a_set)
    first_r, _, gaps_r = _first_members(reflect(a_set).elements)
    mirrored = _reverse_bits(gaps_r, gaps_r.bit_length())
    return _Analysis(a_set, profile, first_r, mirrored, gaps_r.bit_length() - 1)


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

    Scans N = 1 .. max(b - ell, max_summands): beyond b - ell the
    description always holds, and holding at the top of the scanned range
    (which dominates every per-class minimal summand count) propagates to
    all larger N, so the scan range is sufficient.
    """
    return _analyze(a_set).threshold()


def all_n_criterion(a_set: FiniteIntegerSet) -> bool:
    """Exact test for the description holding at every N >= 1.

    True iff for each class a the least class-a member of P(A) and the
    least class-(b-a) member of P(b-A) sit at opposite ends of a common
    sumset layer: first_A(a) + first_{b-A}(b-a) == b * min_summands_A(a).
    """
    return _analyze(a_set).holds_for_all_n()


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
    hypothesis_met = kb_size >= b - prof.min_summands_for(residue)
    holds = True  # vacuously, unless the hypothesis is met
    if hypothesis_met:
        layers = _iter_nfold(a_set.elements, bit_limit=target)
        holds = (next(islice(layers, n_summands - 1, None)) >> target) & 1 == 1
    return PlacementCheck(
        holds=holds, hypothesis_met=hypothesis_met, target=target,
        n_summands=n_summands, kb_size=kb_size,
    )
