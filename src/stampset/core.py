"""Exact arithmetic for N-fold sumsets of finite integer sets.

For a finite set A of non-negative integers the N-fold sumset is

    NA = { a_1 + a_2 + ... + a_N : a_i in A },

sums of exactly N elements with repetition allowed.  When 0 is in A the
sumsets are nested (NA is contained in (N+1)A) and their union

    P(A) = union of NA over all N >= 1

is the numerical semigroup generated by A.  If additionally gcd(A) = 1,
P(A) contains every sufficiently large integer; the finitely many positive
integers it misses form the exceptional set (the "gaps")

    E(A) = { n >= 1 : n not in P(A) }.

Any finite set with at least two elements can be brought into this shape:
A = g*B + tau for a unique normalized B with min B = 0 and gcd(B) = 1, and
then NA = g*NB + N*tau, so nothing is lost by working with normalized sets.

Throughout, b denotes max(A) and ell the number of interior elements
(|A| - 2).  Per non-zero residue class a mod b the profile records

    first_reachable[a] = least n >= 1 with n in P(A) and n = a (mod b),
    min_summands[a]    = least N with first_reachable[a] in NA,

which pin down E(A) exactly: the class-a gaps are the positive n = a (mod b)
below first_reachable[a].

Sets of reachable sums are held as Python integers used as bitmasks
(bit n set <=> n reachable), so one shift-or applies a summand to every
partial sum at once.  The first members are found as one mask F with one
producer, ``_first_members``, and one reader, the walk of the layers NA,
``_walk``: it meets each member in the layer that first reaches it, which
gives the profile both its first_reachable and its min_summands.  Every
first member is a sum of at most b - ell non-zero elements, so a member
still pending at N = b - ell makes the walk raise; the walk reads F only
while some member is pending.  F is built inside Schur's bound on the
Frobenius number, which caps every first member.  The walk is the one
generator of layers: the verifier's per-set analysis, ``n_fold_sumset``
and ``represent`` go over it as well.

The excess staircase, ``_staircase``, answers the same questions from
b-bit rows instead of layers: row q of level E holds the classes a whose
member qb + a is a sum of at most q + E + 1 non-zero elements.  Its final
level gives each class's first member, the level at which the class
enters that row gives the member's minimal summand count, and one bit
answers whether qb + a lies in NA.  The placement check reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice
from math import gcd, inf
from operator import index
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DegenerateSetError,
    InvalidResidueError,
    InvalidSetError,
    NotRepresentableError,
)

__all__ = [
    "FiniteIntegerSet",
    "Normalization",
    "ReachabilityMask",
    "ExceptionalProfile",
    "RepresentationCertificate",
    "normalize",
    "reflect",
    "n_fold_sumset",
    "exceptional_profile",
    "represent",
]


@dataclass(frozen=True)
class FiniteIntegerSet:
    """A finite set of non-negative integers, stored strictly increasing as plain ints.

    ``b`` is the largest element and ``ell`` the number of interior
    elements (everything except min and max).  Analysis operations
    require the normalized form: min 0 and gcd 1.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.elements) < 2:
            raise DegenerateSetError(
                f"need at least two elements, got {list(self.elements)}"
            )
        object.__setattr__(self, "elements", _require_integers(self.elements))
        if self.elements[0] < 0:
            raise InvalidSetError("elements must be non-negative")
        if any(x >= y for x, y in zip(self.elements, self.elements[1:])):
            raise InvalidSetError("elements must be strictly increasing")

    @classmethod
    def of(cls, values: Iterable[int]) -> "FiniteIntegerSet":
        return cls(tuple(sorted(set(_require_integers(list(values))))))

    @property
    def b(self) -> int:
        return self.elements[-1]

    @property
    def ell(self) -> int:
        return len(self.elements) - 2

    @property
    def is_normalized(self) -> bool:
        return self.elements[0] == 0 and gcd(*self.elements) == 1

    def __contains__(self, n: int) -> bool:
        return index(n) in self.elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return _set_str(self.elements)


def _set_str(values: Iterable[int]) -> str:
    """Render integers as a brace-enclosed list without spaces: {0,3,5}."""
    return "{" + ",".join(str(x) for x in values) + "}"


def _iter_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _reverse_bits(bits: int, width: int) -> int:
    """Mirror ``bits`` (below 2**width) over [0, width - 1]: bit j moves to width-1-j."""
    # bin() lists bits high to low: its reversed digits put bit 0 first
    return int(bin(bits)[:1:-1], 2) << (width - bits.bit_length())


class Normalization(NamedTuple):
    g: int
    tau: int
    set: FiniteIntegerSet


def normalize(raw: Iterable[int]) -> Normalization:
    """Write the input as g*B + tau with B normalized; return (g, tau, B).

    tau is the minimum of the input and g the gcd of the shifted set, so
    that every sumset question about the input reduces to one about B via
    N(g*B + tau) = g*NB + N*tau.
    """
    values = sorted(set(_require_integers(list(raw))))
    if len(values) < 2:
        raise DegenerateSetError(f"need at least two distinct values, got {values}")
    tau = values[0]
    shifted = [x - tau for x in values]
    g = gcd(*shifted)
    return Normalization(g, tau, FiniteIntegerSet(tuple(x // g for x in shifted)))


def reflect(a_set: FiniteIntegerSet) -> FiniteIntegerSet:
    """The reflected set b - A = {b - a : a in A}.

    Reflection is an involution that preserves normalization, and it pairs
    the two ends of every sumset: n lies in NA exactly when bN - n lies in
    N(b - A).
    """
    b = a_set.b
    return _known_set(tuple(b - x for x in reversed(a_set.elements)))


def _known_set(elements: tuple[int, ...]) -> FiniteIntegerSet:
    """A FiniteIntegerSet of elements already known to be valid, built
    without checking them again (the mirror of a valid set, a scanned mask)."""
    a_set = object.__new__(FiniteIntegerSet)
    object.__setattr__(a_set, "elements", elements)
    return a_set


def _require_integers(values: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """The values as plain ints, through ``operator.index``, so the bit
    arithmetic never runs in a fixed-width or other foreign integer type."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise InvalidSetError(f"elements must be integers, got {list(values)}") from None


def _require_normalized(a_set: FiniteIntegerSet) -> None:
    if not a_set.is_normalized:
        raise InvalidSetError(f"set {a_set} is not normalized (min 0, gcd 1)")


def _require_index(value: int, low: int, high: float, error: type, rule: str) -> int:
    """``value`` as a plain int if ``operator.index`` takes it and it lies in
    [low, high]; otherwise ``error``, naming the rule it breaks."""
    try:
        if low <= (plain := index(value)) <= high:
            return plain
    except TypeError:
        pass
    raise error(f"{rule}, got {value}")


def _require_summands(n_summands: int) -> int:
    return _require_index(n_summands, 1, inf, ValueError, "number of summands must be >= 1")


def _require_residue(residue: int, b: int) -> int:
    rule = f"residue must be in 1..{b - 1}"
    return _require_index(residue, 1, b - 1, InvalidResidueError, rule)


@dataclass(frozen=True)
class ReachabilityMask:
    """A set of integers inside [0, bound], packed into one bitmask int."""

    bound: int
    bits: int

    def __contains__(self, n: int) -> bool:
        n = index(n)  # a foreign integer type would shift in fixed width
        return 0 <= n <= self.bound and (self.bits >> n) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.bits)

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)


def n_fold_sumset(a_set: FiniteIntegerSet, n_summands: int) -> ReachabilityMask:
    """The exact N-fold sumset NA as a mask over [0, b*N], layer N of the walk."""
    n_summands = _require_summands(n_summands)
    _, mask, _ = next(islice(_walk(a_set.elements), n_summands - 1, None))
    return ReachabilityMask(a_set.b * n_summands, mask)


def _semigroup_mask(elements: tuple[int, ...], bound: int) -> int:
    """Bitmask of P(A) on [0, bound]: closure of {0} under adding elements.

    Closing under one summand c uses shifts by c, 2c, 4c, ... so the whole
    computation is O(|A| log bound) shift-ors.  The elements come in
    increasing order, and one that is already a sum of smaller ones adds
    nothing, so it is skipped.
    """
    cap = (1 << (bound + 1)) - 1
    mask = 1
    for c in elements:
        if (mask >> c) & 1:  # also skips c = 0
            continue
        step = c
        while step <= bound:
            mask |= (mask << step) & cap
            step <<= 1
    return mask


# maps the digits of bin() to the bytes 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _bit_list(bits: int) -> tuple[int, ...]:
    """Positions of the set bits of a non-negative int, lowest first.

    One pass over bin() in C: for dense masks such as a gap mask.
    """
    flags = bin(bits)[:1:-1].encode().translate(_DIGIT_VALUES)  # flag n is bit n
    return tuple(compress(range(len(flags)), flags))


def _first_members(elements: tuple[int, ...]) -> tuple[int, int]:
    """The first step of a profile: F and the gap mask of E(A).

    ``elements`` are those of a normalized set A; F is the first members
    as one bitmask.  P(A) is closed under adding b, so n > 0 is its class's
    first member exactly when n is in P(A) and n - b is not: F is
    P & ~(P << b) without 0.  F has one reader, ``_walk``, which meets each
    member in the layer that first reaches it.

    Both masks are built inside [0, bound], which cuts (b-1)^2 (see
    ``exceptional_profile``) at Schur's bound on the Frobenius number
    (Brauer 1942): g(A) <= (a_1 - 1)(b - 1) - 1, a_1 the least non-zero
    element, and every {0, a, b} attains it.  Every gap is at most g(A)
    and every first member at most g(A) + b, so a class with no member
    inside the bound raises.
    """
    b = elements[-1]
    bound = min((b - 1) ** 2, (elements[1] - 1) * (b - 1) - 1 + b)
    semigroup = _semigroup_mask(elements, bound)
    first_mask = semigroup & ~(semigroup << b | 1)
    if first_mask.bit_count() != b - 1:  # impossible for a normalized set
        raise RuntimeError(f"some class mod {b} has no member below {bound}")
    gap_mask = ((1 << (bound + 1)) - 1) & ~semigroup
    return first_mask, gap_mask


def _walk(
    elements: tuple[int, ...],
    first_mask: int = 0,
    firsts: list[tuple[int, int]] | None = None,
    bit_limit: int | None = None,
) -> Iterator[tuple[int, int, int]]:
    """(N, NA, pending) for N = 1, 2, ..., each layer built once, in one frame.

    This is the one generator of the layers NA, for any finite set A: each
    layer is the or of the one before shifted by every element of A, the
    lowest included.  With ``bit_limit`` set, layers are truncated to
    [0, bit_limit]; membership below the limit stays exact because
    summands only move bits upward.

    ``first_mask`` is F, the first members of a normalized A, and the walk
    is its one reader.  Every layer clears the first members it reaches
    from F, and ``pending`` is what is left; with ``firsts`` given (b - 1
    slots) it also records each of them with N, its minimal summand
    count, as (member, N) at index a-1 for class a.  Every first member is
    a sum of at most b - ell non-zero elements, so one still pending at
    N = b - ell raises.  F is read only while something is pending: once
    every member is reached, or without F, a layer costs only its shifts.
    """
    low, shifts, b = elements[0], elements[1:], elements[-1]
    floor = b - len(elements) + 2  # b - ell
    cap = None if bit_limit is None else (1 << (bit_limit + 1)) - 1
    pending = first_mask
    sumset = 1
    for n_summands in count(1):
        # x << 0 copies the whole int, so a lowest element 0 adds no shift
        layer = sumset << low if low else sumset
        for a in shifts:
            layer |= sumset << a
        if cap is not None:
            layer &= cap
        sumset = layer
        if pending:
            reached = sumset & pending
            if reached:
                pending ^= reached
                if firsts is not None:
                    for n in _iter_bits(reached):
                        firsts[n % b - 1] = (n, n_summands)
            if pending and n_summands >= floor:
                raise RuntimeError("minimal summand counts did not stabilize")
        yield n_summands, sumset, pending


def _staircase(elements: tuple[int, ...]) -> list[list[int]]:
    """The excess staircase of a normalized set A: levels E = 0, 1, ... of rows.

    Let s(n) be the least number of non-zero elements of A summing to n;
    the excess of n = qb + a is e_A(n) = s(n) - q - 1, and n is in NA
    exactly when s(n) <= N.  Row R_E[q] is the b-bit mask of the classes
    a with e_A(qb + a) <= E; bit 0, the multiples of b, is in every row,
    which starts the recursion at R_{-1}[q] = {0}.  Dropping one summand
    from a minimal sum makes R_E[q] the or, over the interior elements c,
    of R_{E-1}[q], (R_{E-1}[q] << c) cut to b bits, R_E[q-1] and
    R_E[q-1] >> (b - c): the money-changing shortest path on residues
    (Nijenhuis 1979; Boecker and Liptak 2007), indexed by excess.  Both
    shifts by c are one window of the word R_{E-1}[q] << b | R_E[q-1],
    shifted right by b - c.

    Rows grow with q and levels with E, and both stop by one rule: at the
    first that repeats the one before.  A level is stored up to its last
    new row: once a row repeats past the last row of the level before, all
    later rows do, and a full row stays full.  Level E depends on level
    E - 1 alone, so once a level repeats the one before, every later level
    does too, and the levels stop before the repeat: the last stored level
    is the final one.  A row q or a level E past the end reads the last.

    Every first member is a sum of at most b - ell non-zero elements, so
    a level past the first b - ell, or a row past the first b - ell, means
    the stop failed: that raises RuntimeError instead of growing the rows
    without end.
    """
    b = elements[-1]
    full = (1 << b) - 1
    offsets = [b - c for c in elements[1:-1]]
    bound = b - len(offsets)  # b - ell
    levels: list[list[int]] = []
    previous = [1]  # R_{-1}
    while True:
        level, below, q, last = [], 0, 0, len(previous) - 1
        while True:
            above = previous[q if q < last else last]
            window = above << b | below
            row = above | below
            for offset in offsets:
                row |= window >> offset
            row &= full
            if row == below and q >= last:
                break
            level.append(row)
            if row == full:
                break
            below = row
            q += 1
        if levels and level == previous:  # R_{-1} is not stored: {0, 1} keeps its level 0 = [1]
            return levels
        if len(levels) == bound or len(level) > bound:
            raise RuntimeError("excess staircase did not stabilize")
        levels.append(level)
        previous = level


@dataclass(frozen=True)
class ExceptionalProfile:
    """Per-residue reachability data for a normalized set, plus its gaps.

    Index a-1 of the tuples holds the data for residue class a (mod b),
    a = 1 .. b-1.  ``gap_mask`` holds E(A) (bit n set <=> n is a gap) and
    ``gaps`` lists it in increasing order.  For the trivial set {0, 1} all
    tuples are empty and the mask is 0.
    """

    modulus: int
    first_reachable: tuple[int, ...]
    min_summands: tuple[int, ...]
    gap_mask: int

    def first_reachable_in(self, residue: int) -> int:
        """Least positive member of P(A) congruent to residue mod b."""
        return self.first_reachable[_require_residue(residue, self.modulus) - 1]

    def min_summands_for(self, residue: int) -> int:
        """Least N such that first_reachable_in(residue) is a sum of N elements."""
        return self.min_summands[_require_residue(residue, self.modulus) - 1]

    @property
    def gaps(self) -> tuple[int, ...]:
        """E(A) in increasing order, read off the gap mask."""
        return _bit_list(self.gap_mask)

    @property
    def max_summands(self) -> int:
        """The largest min_summands entry (0 for the trivial set {0, 1})."""
        return max(self.min_summands, default=0)


def _profile(b: int, firsts: list[tuple[int, int]], gap_mask: int) -> ExceptionalProfile:
    """The profile from the (member, N) pairs a walk recorded and the gap mask."""
    return ExceptionalProfile(
        b, tuple(n for n, _ in firsts), tuple(s for _, s in firsts), gap_mask
    )


def exceptional_profile(a_set: FiniteIntegerSet) -> ExceptionalProfile:
    """Compute first_reachable, min_summands and the gap mask of E(A).

    Two steps: ``_first_members`` reads the first members, as a mask, and
    the gap mask off the semigroup mask, and ``_walk`` goes over the layers
    NA until each first member has appeared, recording it with its layer.
    The first step works inside [0, (b-1)^2], cut further at Schur's
    bound: a minimal representative of a non-zero class never uses the
    summand b (dropping it would yield a smaller member of the same class)
    and needs at most b-1 summands, each at most b-1, so every
    first_reachable value, and with it every gap, fits under that bound.
    """
    _require_normalized(a_set)
    elements = a_set.elements
    b = elements[-1]
    first_mask, gap_mask = _first_members(elements)
    firsts = [(0, 0)] * (b - 1)
    for _, _, pending in _walk(elements, first_mask, firsts):
        if not pending:
            break
    return _profile(b, firsts, gap_mask)


@dataclass(frozen=True)
class RepresentationCertificate:
    """A verified decomposition: ``parts`` are exactly N elements of the set
    (zeros included) summing to ``target``."""

    target: int
    parts: tuple[int, ...]

    @property
    def n_summands(self) -> int:
        return len(self.parts)


def represent(n: int, a_set: FiniteIntegerSet, n_summands: int) -> RepresentationCertificate:
    """Produce a certificate that n is a sum of exactly n_summands elements.

    Raises NotRepresentableError when n is not in the N-fold sumset.  The
    decomposition is deterministic: walking from N summands down to none,
    each step takes the smallest element that still leaves a representable
    remainder, read off the walk's layers kA for k < N.
    """
    n_summands = _require_summands(n_summands)
    n = _require_index(n, -inf, inf, NotRepresentableError, "the target must be an integer")
    if n < 0 or n > a_set.b * n_summands:
        raise NotRepresentableError(
            f"{n} is not a sum of {n_summands} elements of {a_set}"
        )
    # reach[k] = bitmask of kA, truncated to [0, n] (enough to answer
    # membership of remainders, which never exceed n).
    layers = islice(_walk(a_set.elements, bit_limit=n), n_summands)
    reach = [1, *(sumset for _, sumset, _ in layers)]
    if not (reach[n_summands] >> n) & 1:
        raise NotRepresentableError(
            f"{n} is not a sum of {n_summands} elements of {a_set}"
        )
    parts = []
    remainder = n
    for k in range(n_summands, 0, -1):
        for a in a_set.elements:
            lower = remainder - a
            if lower >= 0 and (reach[k - 1] >> lower) & 1:
                parts.append(a)
                remainder = lower
                break
        else:  # pragma: no cover - contradicts the membership test above
            raise RuntimeError("certificate walk lost the representation")
    if remainder != 0:  # pragma: no cover
        raise RuntimeError("certificate walk ended off zero")
    return RepresentationCertificate(n, tuple(sorted(parts)))
