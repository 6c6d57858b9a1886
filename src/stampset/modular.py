"""Sumset arithmetic in the cyclic group Z/bZ.

The reduction B = A mod b of a normalized set A (top element b, so b and 0
collapse) drives all threshold bounds: how fast the iterated sumsets kB
grow in Z/bZ controls how soon NA fills out its interval description.  The
key growth facts:

  * |U + V| >= |U + H| + |V + H| - |H| for the stabilizer
    H = { g : g + (U+V) = U+V }  (Kneser's bound for cyclic groups);
  * if B contains 0, generates, and has at least two non-zero residues,
    then |kB| >= min(b, |(k-1)B| + 2) for every k >= 2;
  * |2B| >= min(b, ell + 3) always, and |2B| >= min(b, ell + 4) outside
    six explicit one-parameter families of sets (K1..K6, the sparse shapes
    tabled in :mod:`stampset.families`).

Only the second, the growth law, is asserted here at runtime, on every
layer ``_growth_layers`` builds.  Kneser's bound is checked by
``tests/test_properties.py::test_sumset_size_respects_the_kneser_lower_bound``,
and the two |2B| bounds by ``tests/test_modular.py`` and acceptance
criterion 6.

Residue sets are bitmasks over b bits; a modular sumset is an or of
rotations, and subgroups of Z/bZ are enumerated as dZ/bZ for divisors d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf
from operator import index
from typing import Iterable, Iterator

from .core import (
    FiniteIntegerSet,
    _bit_list,
    _iter_bits,
    _require_index,
    _require_normalized,
    _set_str,
)
from .errors import (
    EmptySetError,
    ModulusMismatchError,
    NotGeneratingError,
    TooSmallError,
)
from .families import _match_sparse_shape

__all__ = [
    "ResidueSet",
    "StabilizerSubgroup",
    "GrowthStep",
    "GrowthProfile",
    "DoublingMatch",
    "residues_mod_b",
    "mod_sumset",
    "stabilizer",
    "growth_profile",
    "small_doubling_families",
]


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z/bZ held as a bitmask over bits 0..b-1."""

    modulus: int
    bits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", _require_modulus(self.modulus))
        bits = _require_index(self.bits, -inf, inf, ValueError, "bitmask must be an integer")
        object.__setattr__(self, "bits", bits)
        if bits < 0 or bits >> self.modulus:
            raise ValueError("bitmask has bits outside 0..modulus-1")

    @classmethod
    def of(cls, values: Iterable[int], modulus: int) -> "ResidueSet":
        modulus = _require_modulus(modulus)  # before reducing by it
        bits = 0
        for v in values:
            v = _require_index(v, -inf, inf, ValueError, "values must be integers")
            bits |= 1 << (v % modulus)
        return cls(modulus, bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, residue: int) -> bool:
        return (self.bits >> (index(residue) % self.modulus)) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.bits)

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return f"{_set_str(self)} mod {self.modulus}"


def _require_modulus(modulus: int) -> int:
    return _require_index(modulus, 1, inf, ValueError, "modulus must be positive")


def _require_k(k: int, name: str = "k") -> int:
    return _require_index(k, 1, inf, ValueError, f"{name} must be >= 1")


def residues_mod_b(a_set: FiniteIntegerSet) -> ResidueSet:
    """Reduce a finite integer set mod its own largest element b."""
    return ResidueSet.of(a_set.elements, a_set.b)


def _rotate(bits: int, shift: int, modulus: int) -> int:
    """Cyclic left rotation of a b-bit mask: residue r maps to r + shift."""
    shift %= modulus
    full = (1 << modulus) - 1
    return ((bits << shift) | (bits >> (modulus - shift))) & full if shift else bits


def mod_sumset(u: ResidueSet, v: ResidueSet) -> ResidueSet:
    """The exact sumset U + V inside Z/bZ."""
    if u.modulus != v.modulus:
        raise ModulusMismatchError(
            f"cannot add subsets of Z/{u.modulus} and Z/{v.modulus}"
        )
    acc = 0
    for r in u:
        acc |= _rotate(v.bits, r, u.modulus)
    return ResidueSet(u.modulus, acc)


@dataclass(frozen=True)
class StabilizerSubgroup:
    """The subgroup H = dZ/bZ of translations fixing a residue set.

    ``generator`` is the least positive divisor d of b with d + W = W;
    d = b encodes the trivial subgroup {0}, d = 1 the full group.
    """

    modulus: int
    generator: int

    @property
    def order(self) -> int:
        return self.modulus // self.generator

    def members(self) -> tuple[int, ...]:
        return tuple(range(0, self.modulus, self.generator))


def stabilizer(w: ResidueSet) -> StabilizerSubgroup:
    """Compute H(W) = { g in Z/bZ : g + W = W }.

    Every subgroup of Z/bZ is dZ/bZ for a divisor d, and the set of
    stabilizing translations is a subgroup, so it suffices to try each
    divisor in increasing order and keep the first that fixes W.
    """
    if w.bits == 0:
        raise EmptySetError("stabilizer of the empty set is undefined here")
    b = w.modulus
    for d in range(1, b + 1):
        if b % d == 0 and _rotate(w.bits, d, b) == w.bits:
            return StabilizerSubgroup(b, d)
    raise RuntimeError("unreachable: d = b always stabilizes")  # pragma: no cover


@dataclass(frozen=True)
class GrowthStep:
    k: int
    size: int
    stabilizer: StabilizerSubgroup


@dataclass(frozen=True)
class GrowthProfile:
    """Sizes and stabilizers of the iterated sumsets kB in Z/bZ.

    ``entries`` stops at saturation (|kB| = b) or at the requested k_max,
    whichever comes first, and computes its stabilizers on each access.
    ``smallest_k(delta)`` returns the least K >= 2 with
    |KB| >= min(b, 2K + ell + delta - 1), where ell is the number of
    non-zero residues of B; saturation guarantees this terminates by K = b.
    """

    residues: ResidueSet
    _layers: tuple[int, ...]  # the mask of kB at index k-1, always reaching saturation
    k_max: int | None = None

    @property
    def entries(self) -> tuple[GrowthStep, ...]:
        b = self.residues.modulus
        return tuple(
            GrowthStep(k, layer.bit_count(), stabilizer(ResidueSet(b, layer)))
            for k, layer in enumerate(self._layers[: self.k_max], start=1)
        )

    def size_of(self, k: int) -> int:
        k = _require_k(k)
        if k <= len(self._layers):
            return self._layers[k - 1].bit_count()
        return self.residues.modulus  # saturated from here on

    def smallest_k(self, delta: int) -> int:
        delta = _require_index(delta, -inf, inf, ValueError, "delta must be an integer")
        b = self.residues.modulus
        ell = self.residues.size - 1
        for k in range(2, b + 2):
            if self.size_of(k) >= min(b, 2 * k + ell + delta - 1):
                return k
        raise RuntimeError(  # pragma: no cover - saturation forces a hit
            f"no admissible k below the cap for {self.residues}"
        )


def _growth_layers(bits: int, b: int) -> tuple[int, ...]:
    """The masks of kB for k = 1, 2, ... up to saturation, B given as ``bits``.

    B must contain 0 and generate Z/bZ.  Since 0 is in B, kB is (k-1)B
    or-ed with its rotations by the non-zero residues r of B, each a pair of
    shifts (left by r, right by b - r) worked out once.  The two-per-step
    growth law |kB| >= min(b, |(k-1)B| + 2) is asserted on every layer when
    B has at least two non-zero residues; B is rendered as a ResidueSet
    only for the error.
    """
    full = (1 << b) - 1
    shifts = [(r, b - r) for r in _bit_list(bits)[1:]]  # bit 0 is the residue 0
    layer, size = bits, bits.bit_count()
    law = size >= 3  # at least two non-zero residues
    layers = [layer]
    while size < b:
        k = len(layers) + 1
        if k > b:
            raise RuntimeError(  # pragma: no cover - generating sets saturate
                f"{ResidueSet(b, bits)} failed to saturate within k <= {b}"
            )
        grown = layer
        for left, right in shifts:
            grown |= layer << left | layer >> right
        layer = grown & full
        grown_size = layer.bit_count()
        if law and grown_size < min(b, size + 2):
            raise RuntimeError(
                f"growth law violated at k={k} for {ResidueSet(b, bits)}: "
                f"|kB|={grown_size} < min({b}, {size}+2)"
            )
        layers.append(layer)
        size = grown_size
    return tuple(layers)


def growth_profile(residues: ResidueSet, k_max: int | None = None) -> GrowthProfile:
    """Track |kB| and its stabilizer for k = 1, 2, ... up to saturation.

    Requires 0 in B and that B generate Z/bZ.  The layers come from one
    raw b-bit kernel, ``_growth_layers``, which asserts the two-per-step
    growth law |kB| >= min(b, |(k-1)B| + 2) on every layer for sets with
    at least two non-zero residues; a violation would disprove the
    underlying theorem, so it raises RuntimeError rather than a package
    error.  The layers always run to saturation (``smallest_k`` needs
    them); ``entries`` stop at k_max when one is given.
    """
    if residues.bits == 0:
        raise EmptySetError("growth profile of the empty set is undefined")
    if 0 not in residues:
        raise NotGeneratingError(f"{residues} must contain the residue 0")
    b = residues.modulus
    if gcd(b, *residues) != 1:
        raise NotGeneratingError(f"{residues} does not generate Z/{b}")
    if k_max is not None:
        k_max = _require_k(k_max, "k_max")
    return GrowthProfile(residues, _growth_layers(residues.bits, b), k_max)


@dataclass(frozen=True)
class DoublingMatch:
    """A structural match against one of the small-doubling families."""

    label: str
    h: int


def small_doubling_families(a_set: FiniteIntegerSet) -> tuple[DoublingMatch, ...]:
    """Match A against the families whose doubling stalls at |2B| = ell + 3.

    These are the sparse shapes K1..K6 of :mod:`stampset.families`, the
    same sets as the sufficiency families A1..A6.  Matches are only
    reported when b >= ell + 4.  Below that the stronger
    bound min(b, ell + 4) collapses to b, every admissible set already
    attains |2B| = b, and no set is exceptional even when its elements
    happen to line up with one of the patterns.  From b >= ell + 4 on no
    set fits two shapes, so the result holds at most one match.

    Requires a normalized set with at least two interior elements.
    """
    _require_normalized(a_set)
    if a_set.ell < 2:
        raise TooSmallError(
            f"small-doubling families need at least 2 interior elements, "
            f"got {a_set.ell}"
        )
    if a_set.b < a_set.ell + 4:
        return ()
    matched = _match_sparse_shape(a_set)
    if matched is None:
        return ()
    _, label, _, h, _ = matched
    return (DoublingMatch(label, h),)
