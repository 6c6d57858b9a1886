"""Randomized invariant checks for the whole stack.

Each property here is a statement that must hold for every admissible
input, so hypothesis shrinks any counterexample to a small witness.  The
deeper structure theorems are exercised exhaustively elsewhere; these
tests cover the algebraic bedrock (normalization, reflection, sumset
nesting, certificates, modular growth) on wider random inputs.
"""

from __future__ import annotations

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from stampset import (
    FiniteIntegerSet,
    NotRepresentableError,
    all_n_criterion,
    check_structure,
    exceptional_profile,
    growth_profile,
    min_threshold,
    mod_sumset,
    n_fold_sumset,
    normalize,
    reflect,
    represent,
    residues_mod_b,
    stabilizer,
)
from stampset.core import _walk
from stampset.modular import ResidueSet

from oracles import brute_nfold


@st.composite
def raw_sets(draw, max_value=60, max_size=9):
    values = draw(
        st.sets(
            st.integers(min_value=0, max_value=max_value),
            min_size=2,
            max_size=max_size,
        )
    )
    return sorted(values)


@st.composite
def normalized_sets(draw, max_value=60, max_size=9):
    return normalize(draw(raw_sets(max_value=max_value, max_size=max_size))).set


@given(raw=raw_sets())
def test_normalize_reconstructs_the_input(raw):
    g, tau, a_set = normalize(raw)
    assert a_set.is_normalized
    assert tau == min(raw)
    assert g == math.gcd(*(x - tau for x in raw if x != tau))
    assert [g * m + tau for m in a_set] == raw


@given(a_set=normalized_sets(max_value=40), n=st.integers(min_value=1, max_value=5))
def test_reflection_duality_of_sumsets(a_set, n):
    total = a_set.b * n
    forward = set(n_fold_sumset(a_set, n))
    mirrored = {total - m for m in n_fold_sumset(reflect(a_set), n)}
    assert forward == mirrored


@given(a_set=normalized_sets(max_value=40), n=st.integers(min_value=1, max_value=5))
def test_sumsets_are_nested_and_span_the_interval(a_set, n):
    smaller = set(n_fold_sumset(a_set, n))
    larger = set(n_fold_sumset(a_set, n + 1))
    assert smaller <= larger
    assert min(smaller) == 0
    assert max(smaller) == a_set.b * n
    assert smaller <= set(range(0, a_set.b * n + 1))


@given(a_set=normalized_sets())
def test_profile_bounds_hold_for_every_class(a_set):
    b = a_set.b
    prof = exceptional_profile(a_set)
    for a in range(1, b):
        first = prof.first_reachable_in(a)
        count = prof.min_summands_for(a)
        assert first % b == a % b
        assert first <= (b - 1) ** 2
        assert 1 <= count <= b - 1
        assert first in n_fold_sumset(a_set, count)
        if count > 1:
            assert first not in n_fold_sumset(a_set, count - 1)


@given(a_set=normalized_sets(max_value=30), n=st.integers(min_value=1, max_value=4))
def test_representation_certificates_are_sound(a_set, n):
    reachable = set(n_fold_sumset(a_set, n))
    sample = sorted(reachable)[:: max(1, len(reachable) // 12)]
    for target in sample:
        cert = represent(target, a_set, n)
        assert cert.target == target
        assert cert.n_summands == n
        assert sum(cert.parts) == target
        assert all(part in a_set for part in cert.parts)
    for target in range(0, a_set.b * n + 1):
        if target not in reachable:
            with pytest.raises(NotRepresentableError):
                represent(target, a_set, n)
            break


@given(raw=raw_sets(max_value=40), n=st.integers(min_value=1, max_value=4))
def test_sumsets_and_certificates_of_unnormalized_sets(raw, n):
    # N(g*B + tau) = g*NB + N*tau, on the raw set itself
    g, tau, normalized = normalize(raw)
    a_set = FiniteIntegerSet.of(raw)
    reachable = set(n_fold_sumset(a_set, n))
    assert reachable == {g * m + n * tau for m in n_fold_sumset(normalized, n)}
    assert reachable == brute_nfold(raw, n)
    for target in sorted(reachable)[:: max(1, len(reachable) // 12)]:
        cert = represent(target, a_set, n)
        assert (cert.target, cert.n_summands) == (target, n)
        assert sum(cert.parts) == target
        assert len(cert.parts) == n
        assert all(part in a_set for part in cert.parts)
    missing = next((t for t in range(a_set.b * n + 1) if t not in reachable), None)
    if missing is not None:
        with pytest.raises(NotRepresentableError):
            represent(missing, a_set, n)


@given(raw=raw_sets(max_value=40), limit=st.integers(min_value=0, max_value=250))
def test_truncated_layers_are_the_full_layers_cut_at_the_limit(raw, limit):
    # represent reads remainders up to n off layers truncated to [0, n]
    elements = tuple(raw)
    full = islice(_walk(elements), 6)
    truncated = islice(_walk(elements, bit_limit=limit), 6)
    for (n, layer, _), (m, cut, _) in zip(full, truncated, strict=True):
        assert (m, cut) == (n, layer & ((1 << (limit + 1)) - 1)), (raw, limit, n)


@given(a_set=normalized_sets(max_value=18, max_size=8))
@settings(max_examples=60, deadline=None)
def test_threshold_is_exact_on_random_sets(a_set):
    t = min_threshold(a_set)
    assert t >= 1
    assert check_structure(a_set, t).holds
    assert check_structure(a_set, t + 1).holds
    if t > 1:
        assert not check_structure(a_set, t - 1).holds
    assert all_n_criterion(a_set) == (t == 1)


@given(a_set=normalized_sets(max_value=18, max_size=8))
@settings(max_examples=60, deadline=None)
def test_threshold_is_reflection_invariant(a_set):
    assert min_threshold(a_set) == min_threshold(reflect(a_set))


@given(a_set=normalized_sets(max_value=40))
def test_modular_growth_is_monotone_and_caps_at_saturation(a_set):
    residues = residues_mod_b(a_set)
    profile = growth_profile(residues)
    b = residues.modulus
    previous = residues.size
    for k in range(2, b + 2):
        size = profile.size_of(k)
        assert previous <= size <= b
        if residues.size >= 3 and size < b:
            assert size >= previous + 2
        previous = size
    assert profile.size_of(b + 1) == b


@given(
    a_set=normalized_sets(max_value=40),
    delta=st.integers(min_value=0, max_value=2),
)
def test_smallest_k_is_minimal_and_bounded(a_set, delta):
    residues = residues_mod_b(a_set)
    profile = growth_profile(residues)
    b = residues.modulus
    ell = residues.size - 1
    k = profile.smallest_k(delta)
    assert 2 <= k <= b + 1
    assert profile.size_of(k) >= min(b, 2 * k + ell + delta - 1)
    for smaller in range(2, k):
        assert profile.size_of(smaller) < min(b, 2 * smaller + ell + delta - 1)


def test_sumset_size_respects_the_kneser_lower_bound():
    rng = random.Random(20260825)
    for _ in range(10_000):
        b = rng.randint(2, 64)
        u = ResidueSet.of(
            rng.sample(range(b), rng.randint(1, b)), b
        )
        v = ResidueSet.of(
            rng.sample(range(b), rng.randint(1, b)), b
        )
        total = mod_sumset(u, v)
        h = stabilizer(total)
        h_set = ResidueSet.of(h.members(), b)
        lhs = total.size
        rhs = mod_sumset(u, h_set).size + mod_sumset(v, h_set).size - h.order
        assert lhs >= rhs, (b, u.to_tuple(), v.to_tuple())
