from __future__ import annotations

import random

import pytest

from stampset import (
    EmptySetError,
    FiniteIntegerSet,
    ModulusMismatchError,
    NotGeneratingError,
    TooSmallError,
    appendix_family_threshold,
    placement_check,
)
from stampset import modular
from stampset.modular import (
    ResidueSet,
    growth_profile,
    mod_sumset,
    residues_mod_b,
    small_doubling_families,
    stabilizer,
)

from oracles import brute_mod_sumset, brute_stabilizer, normalized_sets


def rs(values, modulus):
    return ResidueSet.of(values, modulus)


@pytest.mark.parametrize("modulus, bits", [(0, 0), (5, -1), (5, 1 << 5), (3, 0b1001)])
def test_residue_set_rejects_a_bad_modulus_or_bits(modulus, bits):
    with pytest.raises(ValueError):
        ResidueSet(modulus, bits)


@pytest.mark.parametrize("modulus", [0, -3])
def test_residue_set_of_rejects_a_bad_modulus_before_reducing(modulus):
    with pytest.raises(ValueError, match=f"^modulus must be positive, got {modulus}$"):
        ResidueSet.of([1, 2], modulus)


def test_reduction_folds_top_element():
    reduced = residues_mod_b(FiniteIntegerSet((0, 3, 5)))
    assert reduced.modulus == 5
    assert reduced.to_tuple() == (0, 3)
    assert reduced.size == 2


def test_mod_sumset_frozen_examples():
    assert mod_sumset(rs({0, 3, 5}, 7), rs({0, 3, 5}, 7)).to_tuple() == (0, 1, 3, 5, 6)
    assert mod_sumset(rs({0, 1, 6}, 7), rs({0, 1, 6}, 7)).to_tuple() == (0, 1, 2, 5, 6)


def test_mod_sumset_modulus_mismatch():
    with pytest.raises(ModulusMismatchError):
        mod_sumset(rs({0, 1}, 6), rs({0, 1}, 7))


def test_mod_sumset_matches_oracle_random():
    rng = random.Random(20240817)
    for _ in range(300):
        b = rng.randrange(1, 40)
        u = {rng.randrange(b) for _ in range(rng.randrange(1, 6))}
        v = {rng.randrange(b) for _ in range(rng.randrange(1, 6))}
        got = mod_sumset(rs(u, b), rs(v, b))
        assert set(got) == brute_mod_sumset(u, v, b)


def test_stabilizer_frozen_example():
    sub = stabilizer(rs({0, 3}, 6))
    assert sub.generator == 3
    assert sub.order == 2
    assert sub.members() == (0, 3)


def test_stabilizer_full_and_trivial():
    assert stabilizer(rs(range(6), 6)).order == 6
    assert stabilizer(rs({0, 1}, 6)).order == 1
    assert stabilizer(rs({0}, 1)).order == 1


def test_stabilizer_empty_set_rejected():
    with pytest.raises(EmptySetError):
        stabilizer(ResidueSet(6, 0))


def test_stabilizer_matches_brute_force():
    for b in range(1, 13):
        for bits in range(1, 1 << b):
            w = ResidueSet(b, bits)
            assert set(stabilizer(w).members()) == brute_stabilizer(set(w), b)


def test_growth_profile_frozen_example():
    prof = growth_profile(rs({0, 1, 6}, 7))
    assert [(e.k, e.size) for e in prof.entries] == [(1, 3), (2, 5), (3, 7)]
    assert prof.smallest_k(0) == 2
    assert prof.entries[-1].stabilizer.order == 7


def test_growth_profile_k_max_truncates_entries_not_sizes():
    prof = growth_profile(rs({0, 1, 6}, 7), k_max=1)
    assert len(prof.entries) == 1
    assert prof.size_of(2) == 5
    assert prof.size_of(50) == 7  # saturated
    assert prof.smallest_k(0) == 2
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        prof.size_of(0)
    with pytest.raises(ValueError, match="k_max must be >= 1, got 0"):
        growth_profile(rs({0, 1, 6}, 7), k_max=0)


def test_growth_profile_rejects_non_generating():
    with pytest.raises(NotGeneratingError):
        growth_profile(rs({0, 2, 4}, 6))
    with pytest.raises(NotGeneratingError):
        growth_profile(rs({1, 2}, 5))
    with pytest.raises(EmptySetError):
        growth_profile(ResidueSet(5, 0))


def test_growth_law_two_per_step_exhaustive_small():
    # |kB| >= min(b, |(k-1)B| + 2) for all generating B with >= 2 non-zero
    # residues; growth_profile raises if the law ever failed.
    for *values, b in normalized_sets(range(3, 13), ell_min=2):
        prof = growth_profile(rs(values, b))
        sizes = [e.size for e in prof.entries]
        for prev, cur in zip(sizes, sizes[1:]):
            assert cur >= min(b, prev + 2)


def test_growth_law_violation_raises(monkeypatch):
    # 2B = {0,1,2,5,6} mod 7 grows by two; hide the residue 6 from the
    # kernel's rotations so that it grows by one
    bit_list = modular._bit_list
    monkeypatch.setattr(modular, "_bit_list", lambda bits: bit_list(bits)[:-1])
    message = r"growth law violated at k=2 for \{0,1,6\} mod 7: \|kB\|=4 < min\(7, 3\+2\)"
    with pytest.raises(RuntimeError, match=message):
        growth_profile(rs({0, 1, 6}, 7))
    # the placement check runs the same kernel on A's residues, for every k
    for k in (1, 7):
        with pytest.raises(RuntimeError, match=message):
            placement_check(FiniteIntegerSet((0, 1, 6, 7)), 1, k)


def test_growth_profile_matches_oracles_for_every_generating_set():
    """Sizes for k <= b + 1 from iterating the brute-force sumset, and every
    stabilizer of ``entries`` from the brute-force stabilizer, b <= 10."""
    from math import gcd

    for b in range(1, 11):
        for bits in range(1, 1 << b, 2):  # every B containing 0
            residues = ResidueSet(b, bits)
            if gcd(b, *residues) != 1:
                continue
            prof = growth_profile(residues)
            layer = set(residues)
            layers = [layer]
            for k in range(1, b + 2):
                assert prof.size_of(k) == len(layer), (residues, k)
                layer = brute_mod_sumset(layer, residues, b)
                layers.append(layer)
            assert prof.entries[-1].size == b, residues
            for step in prof.entries:
                expected = brute_stabilizer(layers[step.k - 1], b)
                assert set(step.stabilizer.members()) == expected, (residues, step.k)


def test_smallest_k_terminates_for_sparse_sets():
    # two-element generating set: growth is one per step, the minimum is
    # only met at saturation
    prof = growth_profile(rs({0, 1}, 9))
    assert prof.smallest_k(0) == 8


def test_small_doubling_frozen_examples():
    matches = small_doubling_families(FiniteIntegerSet((0, 2, 4, 7)))
    assert [(m.label, m.h) for m in matches] == [("K1", 2)]
    matches = small_doubling_families(FiniteIntegerSet((0, 1, 6, 7)))
    assert [(m.label, m.h) for m in matches] == [("K3", 1)]
    assert small_doubling_families(FiniteIntegerSet((0, 2, 3, 7))) == ()


def test_small_doubling_k2_k4_k5_k6():
    assert [m.label for m in small_doubling_families(FiniteIntegerSet((0, 3, 5, 7)))] == ["K2"]
    assert [m.label for m in small_doubling_families(FiniteIntegerSet((0, 3, 4, 8)))] == ["K4"]
    assert [m.label for m in small_doubling_families(FiniteIntegerSet((0, 1, 5, 8)))] == ["K5"]
    assert [m.label for m in small_doubling_families(FiniteIntegerSet((0, 1, 4, 5, 8)))] == ["K6"]


def test_small_doubling_saturated_regime_is_never_exceptional():
    # below b = ell + 4 the doubling always reaches b, so pattern-shaped
    # sets are not exceptions
    assert small_doubling_families(FiniteIntegerSet((0, 1, 2, 3))) == ()
    assert small_doubling_families(FiniteIntegerSet((0, 1, 2, 5))) == ()


def test_small_doubling_requires_two_interior():
    with pytest.raises(TooSmallError):
        small_doubling_families(FiniteIntegerSet((0, 3, 5)))


def test_small_doubling_bound_consistency_exhaustive():
    # label absent => |2B| >= min(b, ell+4); label present => |2B| = ell+3;
    # and the doubling label is the sufficiency family's, renamed
    a_to_k = {"A1": "K1", "A2": "K2", "A3": "K4", "A4": "K3", "A5": "K5", "A6": "K6"}
    for a in map(FiniteIntegerSet, normalized_sets(range(3, 15), ell_min=2)):
        b = a.b
        reduced = residues_mod_b(a)
        two_b = mod_sumset(reduced, reduced).size
        matches = small_doubling_families(a)
        sparse = appendix_family_threshold(a)
        if b >= a.ell + 4 and sparse is not None:
            label = sparse[0]
            expected = [(a_to_k[label.kind], label.parameters[0][1])]
            assert [(m.label, m.h) for m in matches] == expected, a
        elif b >= a.ell + 4:
            assert matches == (), a
        if matches:
            assert two_b == a.ell + 3, a
        else:
            assert two_b >= min(b, a.ell + 4), a
