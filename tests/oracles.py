"""Independent brute-force reference implementations used to freeze and
cross-check expected values.  Everything here is deliberately naive:
itertools enumeration and per-element set arithmetic, no bitmasks, no
shortcuts shared with the package code, and nothing imported from it.

The module also holds what the test modules share: the set streams
``normalized_sets`` (every normalized set, in a fixed order) and
``random_normalized_sets`` (seeded samples), the description oracle
``brute_description`` with its cached profiles, ``staircase_row`` for
reading the package's excess staircase, and ``_IndexOnly``, an
integer-like probe."""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement
from math import gcd
from random import Random


def normalized_sets(b_values, ell_min=0, ell_max=None):
    """Every normalized set (0, *interior, b) with b in b_values, ell_min <=
    |interior| <= ell_max and gcd(b, *interior) = 1, as an element tuple,
    in (b, interior size, lexicographic interior) order."""
    for b in b_values:
        top = b - 1 if ell_max is None else min(b - 1, ell_max)
        for size in range(ell_min, top + 1):
            for interior in combinations(range(1, b), size):
                if gcd(b, *interior) == 1:
                    yield (0, *interior, b)


def random_normalized_sets(seed, count, b_values, sizes):
    """count normalized sets drawn by Random(seed), as element tuples: b
    uniform in b_values, an interior size uniform in sizes capped at b - 1,
    that many interior elements sampled from 1 .. b - 1; a draw with
    gcd(b, *interior) > 1 is dropped."""
    rng = Random(seed)
    drawn = []
    while len(drawn) < count:
        b = rng.randint(b_values[0], b_values[-1])
        interior = rng.sample(range(1, b), rng.randint(sizes[0], min(sizes[-1], b - 1)))
        if gcd(b, *interior) == 1:
            drawn.append((0, *sorted(interior), b))
    return drawn


class _IndexOnly:
    """An integer-like value that offers nothing but ``__index__``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def brute_nfold(elements, n_summands):
    """All sums of exactly n_summands elements, by direct enumeration."""
    return {sum(combo) for combo in combinations_with_replacement(elements, n_summands)}


def brute_sums_up_to(elements, max_summands):
    """All sums of at most max_summands elements (0 summands gives 0)."""
    reachable = {0}
    frontier = {0}
    for _ in range(max_summands):
        frontier = {r + a for r in frontier for a in elements}
        reachable |= frontier
    return reachable


def brute_profile(elements):
    """(first_reachable, min_summands, gaps) per non-zero class mod b.

    Uses sums of at most b-1 elements, which is enough: a minimal class
    representative needs at most b-1 summands.  The elements hold 0, so
    the layers kA are nested: kA is (k-1)A together with A plus the sums
    new in (k-1)A, and each sum is met once, in the least k that has it.
    """
    b = max(elements)
    least = {}  # class a -> least (n, k) with n in kA, n >= 1, n = a (mod b)
    seen = new = {0}
    for k in range(1, b):
        new = {r + a for r in new for a in elements} - seen
        seen = seen | new
        for n in new:
            if n % b:
                least[n % b] = min(least.get(n % b, (n, k)), (n, k))
    first = [least[a][0] for a in range(1, b)]
    summands = [least[a][1] for a in range(1, b)]
    gaps = sorted(
        n for a in range(1, b) for n in range(a, first[a - 1], b)
    )
    return tuple(first), tuple(summands), tuple(gaps)


cached_brute_profile = cache(brute_profile)


def brute_first_reachable(elements):
    """first_reachable of A and of b - A, from brute-force profiles."""
    b = max(elements)
    reflected = tuple(sorted(b - x for x in elements))
    return cached_brute_profile(elements)[0], cached_brute_profile(reflected)[0]


def brute_description(elements, n_summands):
    """Oracle for the interval description, from brute-force profiles."""
    b = max(elements)
    first, first_r = brute_first_reachable(elements)
    top = b * n_summands
    keep = {n for n in range(0, top + 1, b)}
    for a in range(1, b):
        lo, hi = first[a - 1], top - first_r[b - a - 1]
        keep.update(range(lo, hi + 1, b))
    return keep


def brute_min_summands(elements, bound):
    """For n = 0 .. bound, the least number of non-zero elements summing
    to n, or None where no sum of them is n: breadth first over the sums,
    each met in the first round that reaches it."""
    least = {0: 0}
    frontier = {0}
    summands = 0
    while frontier:
        summands += 1
        frontier = {
            r + a for r in frontier for a in elements if a and r + a <= bound
        } - least.keys()
        least.update(dict.fromkeys(frontier, summands))
    return [least.get(n) for n in range(bound + 1)]


def staircase_row(levels, excess, q):
    """R_E[q]: a level or a row past the end of the staircase repeats its last."""
    level = levels[min(excess, len(levels) - 1)]
    return level[min(q, len(level) - 1)]


def brute_mod_sumset(u_residues, v_residues, modulus):
    return {(u + v) % modulus for u in u_residues for v in v_residues}


def brute_stabilizer(w_residues, modulus):
    w = {r % modulus for r in w_residues}
    return {
        g
        for g in range(modulus)
        if {(g + r) % modulus for r in w} == w
    }


def count_normalized_sets(b):
    """Number of normalized sets with largest element b, via inclusion-
    exclusion over the divisors of b (Moebius)."""

    def mu(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        if n > 1:
            result = -result
        return result

    total = 0
    for d in range(1, b + 1):
        if b % d == 0:
            total += mu(d) * 2 ** (b // d - 1)
    return total


def brute_layers(elements):
    """NA for N = 1, 2, ... without end: every sum plus every element."""
    layer = {0}
    while True:
        layer = {r + a for r in layer for a in elements}
        yield layer


def brute_catalog(b, delta):
    """The failure catalog for top element b, read literally off the
    ``families`` module docstring.

    Maps each cataloged set (a frozenset) to its (kind, parameters)
    entries in catalog order.  Every shape is built from its parameters
    as set algebra inside {0, ..., b}, and the sumset clauses are tested
    with brute_nfold.  delta 1 lists F1 and F2; delta 2 adds G1 to G4.
    """
    full = set(range(b + 1))
    shapes = []
    for a in range(2, b - 1):  # F1: {0, ..., b} minus {a}
        shapes.append(("F1", (("a", a),), full - {a}))
    for a in range(2, b - 1):  # F2: {0, 1, a+1, ..., b}
        shapes.append(("F2", (("a", a),), {0, 1} | set(range(a + 1, b + 1))))
    if delta == 2:
        for a in range(2, b - 1):  # G1: {0, 1, b} with {a+1, ..., b-1} minus {d}
            for d in range(a + 2, b):
                shape = ({0, 1, b} | set(range(a + 1, b))) - {d}
                if a not in brute_nfold(sorted(shape), a - 1):
                    shapes.append(("G1", (("a", a), ("d", d)), shape))
        for a in range(2, b - 1):  # G2: {0, ..., b} minus {a, c}
            for c in range(a + 1, b - 1):
                shapes.append(("G2", (("a", a), ("c", c)), full - {a, c}))
        if b >= 6:  # G3 and G4: a head, then {6, ..., b}
            for kind, head in (("G3", {0, 1, 2}), ("G4", {0, 1, 3})):
                shape = head | set(range(6, b + 1))
                if 5 not in brute_nfold(sorted(shape), 2):
                    shapes.append((kind, (), shape))
    catalog = {}
    for kind, parameters, shape in shapes:
        catalog.setdefault(frozenset(shape), []).append((kind, parameters))
    return catalog


def brute_sparse_catalog(b):
    """The sparse-shape catalog for top element b, read literally off the
    six ``A``/``K`` rows of the ``families`` module docstring.

    Maps each cataloged set (a frozenset) to its (sufficiency family,
    doubling family, parameter name, parameter, threshold) entries, rows
    in A1..A6 order and parameters ascending within a row, so the first
    entry is the first printed match.  A row's elements must be distinct
    and lie in {0, ..., b} with top b; its gcd clause is tested as printed.
    Rows that name b/2 are skipped for odd b.
    """
    q = b // 2  # b/2, read only when b is even
    rows = (  # family, doubling family, name, uses b/2, elements, gcd, threshold
        ("A1", "K1", "a", False, lambda a: (0, a, 2 * a, b), lambda a: gcd(a, b), lambda a: 1),
        ("A2", "K2", "a", False, lambda a: (0, 2 * a - b, a, b), lambda a: gcd(a, b), lambda a: 1),
        ("A3", "K4", "h", True, lambda h: (0, h, q, b), lambda h: gcd(h, q), lambda h: 1),
        ("A4", "K3", "h", False, lambda h: (0, h, b - h, b), lambda h: gcd(h, b),
         lambda h: b - 1 - h),
        ("A5", "K5", "a", True, lambda a: (0, a, a + q, b), lambda a: gcd(a, q), lambda a: q),
        ("A6", "K6", "a", True, lambda a: (0, a, q, a + q, b), lambda a: gcd(a, q),
         lambda a: q - 1),
    )
    catalog = {}
    for kind, doubling, name, uses_half, shape, clause, threshold in rows:
        if uses_half and b % 2:
            continue
        for h in range(1, b):
            printed = shape(h)
            elements = frozenset(printed)
            if len(elements) < len(printed) or min(elements) < 0 or max(elements) != b:
                continue
            if clause(h) == 1:
                catalog.setdefault(elements, []).append((kind, doubling, name, h, threshold(h)))
    return catalog
