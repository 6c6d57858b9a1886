"""The catalogs of exceptional families of the structure identity.

Most normalized sets ``A = {0, ..., b}`` satisfy the interval description
of ``NA`` well below the guaranteed bound ``N = b - ell``.  The sets that
do not are rare and completely cataloged, and every catalog entry is an
explicit shape in one or two integer parameters:

Failure catalogs (:func:`classify_exceptional_family`):

* ``F1``: ``{0, ..., b} \\ {a}`` with ``2 <= a <= b - 2``.  The identity
  first holds at ``N = b - ell = 2``, one step later than generic sets.
* ``F2``: ``{0, 1, a+1, ..., b}`` with ``2 <= a <= b - 2``.  First holds
  at ``N = b - ell = a``.
* ``G1``: ``{0, 1, b}`` joined with ``{a+1, ..., b-1}`` minus one element
  ``d`` (``2 <= a <= b - 2``, ``a + 2 <= d <= b - 1``), subject to ``a``
  not being a sum of ``a - 1`` elements of the set.
* ``G2``: ``{0, ..., b} \\ {a, c}`` with ``2 <= a < c <= b - 2``.
* ``G3``: ``{0, 1, 2, 6, ..., b}`` with ``5`` not a sum of two elements.
* ``G4``: ``{0, 1, 3, 6, ..., b}`` with ``5`` not a sum of two elements.

``F1`` and ``F2`` are exactly the sets that still fail somewhere at or
above ``N = b - ell - 1``; adding ``G1`` through ``G4`` gives the sets
failing at or above ``N = b - ell - 2`` (for ``b >= 9`` and ``ell >= 5``).
Both catalogs are closed under the question "is ``A`` *or* its reflection
``b - A`` of this shape", so the catalog is read once off each, and
those reads label both sets: a match on ``A`` is a reflected match of
``b - A`` and vice versa.

Sufficiency catalog (:func:`appendix_family_threshold`): six parametrized
shapes with two or three nonzero elements below ``b`` whose thresholds
are known exactly or near-exactly.  The same six shapes are the sets whose
doubling mod ``b`` stalls at ``|2B| = ell + 3``, listed there as ``K1``..``K6``
(:func:`~stampset.modular.small_doubling_families`); the one table
``_SPARSE_SHAPES`` serves both views:

* ``A1 = K1``: ``{0, a, 2a, b}``, ``gcd(a, b) = 1`` - holds for every ``N``.
* ``A2 = K2``: ``{0, 2a - b, a, b}``, ``gcd(a, b) = 1`` - holds for every ``N``.
* ``A3 = K4``: ``{0, h, b/2, b}``, ``gcd(h, b/2) = 1`` - holds for every ``N``.
* ``A4 = K3``: ``{0, h, b - h, b}``, ``gcd(h, b) = 1`` - holds for
  ``N >= b - 1 - h``.
* ``A5 = K5``: ``{0, a, a + b/2, b}``, ``gcd(a, b/2) = 1`` - holds for
  ``N >= b/2``.
* ``A6 = K6``: ``{0, a, b/2, a + b/2, b}``, ``gcd(a, b/2) = 1`` - holds for
  ``N >= b/2 - 1``.

The printed side conditions (the ``gcd`` requirements and the sumset
non-membership clauses) follow from the shapes on normalized input:

* ``F2``, ``G1``: ``elements[2] = a + 1``, so only 0 and 1 are ``<= a``,
  and a sum of ``a - 1`` of them is at most ``a - 1 < a``.
* ``G1``'s ``d``: ``a + 1`` is in ``A``, so ``d >= a + 2``; ``b`` is in
  ``A``, so ``d <= b - 1``.
* ``G3``, ``G4``: the elements ``<= 5`` are ``{0, 1, 2}`` or ``{0, 1, 3}``,
  whose pairwise sums ``<= 5`` are ``{0, ..., 4}``, so ``5`` is not one.
* ``A1``..``A6``: the gcd of a shape's elements is its printed gcd, which
  is 1 because ``A`` is normalized; only that ``b/2`` is whole is left.

So classification builds no sumset.  A failure shape is one test on
``out``, the mask of what ``A`` leaves out of ``{0, ..., b - 1}``; ``top`` is
its highest bit, ``rest`` is ``out`` without ``top``, and ``low`` is the
highest bit of ``rest``:

========  ===================  ==================================================
family    left out             test on ``out``
========  ===================  ==================================================
F1(a)     {a}                  single bit, 2 <= top <= b - 2
F2(a)     {2, ..., a}          out & (out + 4) == 0, 2 <= top <= b - 2
G1(a, d)  {2, ..., a} and d    rest != 0, rest & (rest + 4) == 0, low + 2 <= top
G2(a, c)  {a, c}               rest a single bit, 2 <= low, top <= b - 2
G3        {3, 4, 5}            out == 0b111000
G4        {2, 4, 5}            out == 0b110100
========  ===================  ==================================================

Every failure shape leaves out only elements ``>= 2``, so it keeps 1: a
set without 1 fits none, and is told so by one comparison.

``x & (x + 4) == 0`` for a non-zero ``x`` says that its bits are one run
starting at 2: adding 4 carries through the run and clears it.  A sparse
shape needs its interior, and an even ``b`` where it names ``b/2``.  The
tests check both readers against the printed catalog, side clauses
included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FiniteIntegerSet, _require_index, _require_normalized, reflect

__all__ = [
    "FamilyLabel",
    "classify_exceptional_family",
    "appendix_family_threshold",
]


@dataclass(frozen=True)
class FamilyLabel:
    """A recognized exceptional family, with its parameter values.

    ``kind`` is one of ``F1``, ``F2``, ``G1``..``G4`` (failure catalogs)
    or ``A1``..``A6`` (sufficiency catalog).  ``parameters`` maps the
    family's printed parameter names to their values, as a sorted tuple
    of pairs so labels stay hashable.  ``reflected`` marks matches found
    on ``b - A`` rather than ``A`` itself.
    """

    kind: str
    parameters: tuple[tuple[str, int], ...] = field(default=())
    reflected: bool = False

    def parameter(self, name: str) -> int:
        for key, value in self.parameters:
            if key == name:
                return value
        raise KeyError(name)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.parameters)
        tag = f"{self.kind}({inner})" if inner else self.kind
        return tag + ("~" if self.reflected else "")


def _failure_shapes(
    subject: FiniteIntegerSet, delta: int
) -> list[tuple[str, tuple[tuple[str, int], ...]]]:
    """The failure shapes the set fits at ``delta``, in catalog order, as
    (kind, parameters), each read off what the set leaves out of {0, ..., b}."""
    elements = subject.elements
    if elements[1] != 1:
        return []  # every shape keeps 1
    b = elements[-1]
    out = (2 << b) - 1 - sum(map((1).__lshift__, elements))  # b is in A: bits 0..b-1
    if not out:
        return []  # the whole interval
    top = out.bit_length() - 1
    rest = out ^ (1 << top)
    low = rest.bit_length() - 1
    shapes = []
    if not rest and 2 <= top <= b - 2:  # {a}
        shapes.append(("F1", (("a", top),)))
    if not out & (out + 4) and 2 <= top <= b - 2:  # {2, ..., a}
        shapes.append(("F2", (("a", top),)))
    if delta == 2:
        if rest and not rest & (rest + 4) and low + 2 <= top:  # {2, ..., a} and d
            shapes.append(("G1", (("a", low), ("d", top))))
        if rest and not rest & (rest - 1) and 2 <= low and top <= b - 2:  # {a, c}
            shapes.append(("G2", (("a", low), ("c", top))))
        if out == 0b111000:  # {3, 4, 5}
            shapes.append(("G3", ()))
        if out == 0b110100:  # {2, 4, 5}
            shapes.append(("G4", ()))
    return shapes


def classify_exceptional_family(
    a_set: FiniteIntegerSet, delta: int = 1
) -> tuple[FamilyLabel, ...]:
    """Report every failure-catalog family that A or its reflection matches.

    With ``delta=1`` the catalog is {F1, F2}: exactly the sets that fail
    the interval description at some N >= max(1, b - ell - 1).  With
    ``delta=2`` the catalog grows by {G1, G2, G3, G4}, covering failures
    at some N >= max(1, b - ell - 2) whenever b >= 9 and ell >= 5.  An
    empty result means the set is generic at that depth.

    Matches on the reflection b - A are re-verified on the reflected set
    and carry ``reflected=True``; a self-symmetric shape therefore shows
    up twice, once per side.
    """
    _require_normalized(a_set)
    delta = _require_index(delta, 1, 2, ValueError, "delta must be 1 or 2")
    return _classify(a_set, reflect(a_set), delta)[0]


def _classify(
    a_set: FiniteIntegerSet, mirror: FiniteIntegerSet, delta: int
) -> tuple[tuple[FamilyLabel, ...], tuple[FamilyLabel, ...]]:
    """The labels of a normalized A and of its reflection ``mirror``, which
    the caller has built already, from one read of the failure catalog off
    each (:func:`_failure_shapes`).

    Each side lists its own matches first; a match on one side is the
    other side's reflected match.  So both sides are () together, as for
    almost every set, and then no label is built.
    """
    on_a, on_mirror = _failure_shapes(a_set, delta), _failure_shapes(mirror, delta)
    if not (on_a or on_mirror):
        return (), ()
    return tuple(
        tuple(
            FamilyLabel(kind, parameters, reflected)
            for reflected, matches in ((False, own), (True, other))
            for kind, parameters in matches
        )
        for own, other in ((on_a, on_mirror), (on_mirror, on_a))
    )


# The sparse shapes of the module docstring, one row each, in the order
# appendix_family_threshold tries them ({0,1,2,3} fits both A1 and A4).
# Columns: sufficiency family, doubling family, parameter name, m (b must be
# a multiple of m; h coprime to b/m follows from normalization), the
# interior as a function of (b, h), and the threshold as a function of (b, h).
_SPARSE_SHAPES = (
    ("A1", "K1", "a", 1, lambda b, h: (h, 2 * h), lambda b, h: 1),
    ("A2", "K2", "a", 1, lambda b, h: (2 * h - b, h), lambda b, h: 1),
    ("A3", "K4", "h", 2, lambda b, h: tuple(sorted((h, b // 2))), lambda b, h: 1),
    ("A4", "K3", "h", 1, lambda b, h: (h, b - h), lambda b, h: b - 1 - h),
    ("A5", "K5", "a", 2, lambda b, h: (h, h + b // 2), lambda b, h: b // 2),
    ("A6", "K6", "a", 2, lambda b, h: (h, b // 2, h + b // 2), lambda b, h: b // 2 - 1),
)


def _match_sparse_shape(a_set: FiniteIntegerSet) -> tuple[str, str, str, int, int] | None:
    """The first sparse shape A fits, as (sufficiency family, doubling family,
    parameter name, parameter, threshold); None when no shape fits."""
    b = a_set.b
    interior = a_set.elements[1:-1]
    for kind, doubling, name, m, shape, threshold in _SPARSE_SHAPES:
        for h in interior:
            if b % m == 0 and shape(b, h) == interior:
                return kind, doubling, name, h, threshold(b, h)
    return None


def appendix_family_threshold(
    a_set: FiniteIntegerSet,
) -> tuple[FamilyLabel, int] | None:
    """Match A against the six sufficiency shapes and return the threshold.

    The returned integer is the N from which the interval description is
    guaranteed to hold for that family (1 for A1-A3, b - 1 - h for A4,
    b/2 for A5, b/2 - 1 for A6).  It is an upper bound for
    :func:`~stampset.verifier.min_threshold`, and equal to it on every
    A1-A6 set with 4 <= b <= 60 but one shape: the A4 sets
    {0, h, h+1, 2h+1}, with b = 2h + 1, hold at every N (threshold 1)
    while the printed bound is h.
    Patterns are tried in order A1..A6 and the first match wins; returns
    None when no shape fits.
    """
    _require_normalized(a_set)
    matched = _match_sparse_shape(a_set)
    if matched is None:
        return None
    kind, _, name, h, threshold = matched
    return FamilyLabel(kind, ((name, h),)), threshold
