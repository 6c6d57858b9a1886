from __future__ import annotations

from dataclasses import astuple, replace
from functools import cache
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from stampset import (
    FiniteIntegerSet,
    InvalidSetError,
    exceptional_profile,
    n_fold_sumset,
    reflect,
)
from stampset import verifier
from stampset.core import _staircase, _walk
from stampset.errors import InvalidResidueError
from stampset.verifier import (
    _analyze,
    all_n_criterion,
    check_structure,
    min_threshold,
    placement_check,
)

from conftest import fis
from oracles import (
    brute_description,
    brute_first_reachable,
    brute_layers,
    brute_mod_sumset,
    brute_nfold,
    brute_profile,
    brute_sums_up_to,
    cached_brute_profile,
    normalized_sets,
)


def test_check_structure_failing_example():
    report = check_structure(fis(0, 1, 5, 6), 3)
    assert not report.holds
    assert 4 in report.missing_witnesses
    assert report.missing_count == len(report.missing_witnesses) == 3
    assert report.missing_witnesses == (4, 9, 14)
    assert report.rhs_size == 19


def test_check_structure_holding_examples():
    assert check_structure(fis(0, 3, 5), 2).holds
    assert check_structure(fis(*range(8)), 1).holds
    assert check_structure(fis(0, 1), 5).holds


def test_check_structure_rejects_bad_input():
    with pytest.raises(InvalidSetError):
        check_structure(fis(0, 2, 4), 2)
    with pytest.raises(ValueError):
        check_structure(fis(0, 3, 5), 0)


def test_check_structure_witness_cap():
    report = check_structure(fis(0, 1, 5, 6), 3, witness_cap=1)
    assert report.missing_witnesses == (4,)
    assert report.missing_count == 3


def test_check_structure_matches_oracle_exhaustively():
    cases = [
        (a, n_summands)
        for a in map(FiniteIntegerSet, normalized_sets(range(2, 8)))
        for n_summands in range(1, a.b - a.ell + 3)
    ]
    # Sparse sets up to b = 30: at N = 1 the largest gap of b - A usually
    # lies above bN, at N = b - ell below it, so the reflected gap mask is
    # placed by shifts in both directions.
    cases += [
        (a, n_summands)
        for a in islice(map(FiniteIntegerSet, normalized_sets(range(2, 31), 0, 2)), 0, None, 37)
        for n_summands in (1, 2, a.b - a.ell)
    ]
    for a, n_summands in cases:
        report = check_structure(a, n_summands)
        expected = brute_description(a.elements, n_summands)
        got_sumset = brute_nfold(a.elements, n_summands)
        assert report.holds == (expected == got_sumset), (a, n_summands)
        assert report.rhs_size == len(expected), (a, n_summands)
        assert report.missing_count == len(expected - got_sumset), (a, n_summands)
        assert set(report.missing_witnesses) <= expected - got_sumset


def test_theorem_checks_raise_on_a_corrupted_profile():
    analysis = _analyze(fis(0, 3, 5))
    # 3 is a sum, so marking it a gap makes NA escape the description
    escaping = replace(analysis, gap_mask=1 << 3)
    with pytest.raises(RuntimeError, match="sumset escapes its description"):
        escaping.report(2, 1)
    # 1 is a gap; without it the description is strict at every N
    gapless = replace(analysis, gap_mask=0)
    with pytest.raises(RuntimeError, match="description fails at the anchor N=4"):
        gapless.threshold_and_report()
    # the same checks on the one walk that gives analyze its threshold and report
    with pytest.raises(RuntimeError, match="sumset escapes its description"):
        escaping.threshold_and_report(2, 1)
    with pytest.raises(RuntimeError, match="description fails at the anchor N=4"):
        gapless.threshold_and_report(9, 1)
    # a first member no layer reaches (the gap 1) stops every walk at N = b - ell
    first_mask = analysis.first_mask | 1 << 1
    unreached = replace(analysis, first_mask=first_mask)
    with pytest.raises(RuntimeError, match="minimal summand counts did not stabilize"):
        unreached.failures(1, 1)
    with pytest.raises(RuntimeError, match="minimal summand counts did not stabilize"):
        unreached.threshold_and_report()
    with pytest.raises(RuntimeError, match="minimal summand counts did not stabilize"):
        list(_walk((0, 3, 5), first_mask))
    # with ell = 2, b - ell = 5 comes before b - 1 = 6: with its gap 1 in F,
    # the walk over {0,3,4,7} yields four layers and raises on the fifth
    four = _analyze(fis(0, 3, 4, 7))
    walk = _walk(four.a_set.elements, four.first_mask | 1 << 1)
    assert [n for n, _, _ in islice(walk, 4)] == [1, 2, 3, 4]
    with pytest.raises(RuntimeError, match="minimal summand counts did not stabilize"):
        next(walk)


def test_escape_check_covers_the_top_of_the_layer():
    # 8 = 3 + 5 is in 2A; a gap 2 of b - A would cut 2*5 - 2 = 8 out of D(2)
    escaping = replace(_analyze(fis(0, 3, 5)), mirrored=1, mirror_width=2)
    with pytest.raises(RuntimeError, match="sumset escapes its description"):
        escaping.report(2, 1)
    with pytest.raises(RuntimeError, match="sumset escapes its description"):
        escaping.threshold_and_report(2, 1)


def test_walk_matches_brute_force_layers_and_profiles():
    # every normalized set with b <= 12, every N from 1 to the anchor + 2
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 13))):
        b, elements = a.b, a.elements
        analysis = _analyze(a)
        firsts = [(0, 0)] * (b - 1)
        anchor = 0
        walk = zip(_walk(elements, analysis.first_mask, firsts), brute_layers(elements))
        for (n, sumset, pending), layer in walk:
            missing = analysis._missing(n, sumset)
            if n <= 2:
                assert layer == brute_nfold(elements, n)
            described = brute_description(elements, n)
            assert layer <= described, (a, n)
            assert sumset == sum(1 << s for s in layer), (a, n)
            assert (missing == 0) == (layer == described), (a, n)
            assert missing == len(described - layer), (a, n)
            anchor = anchor or (n if n >= b - a.ell and not pending else 0)
            if anchor and n == anchor + 2:
                break
        first, min_summands, gaps = cached_brute_profile(elements)
        reflected = tuple(sorted(b - x for x in elements))
        assert firsts == list(zip(first, min_summands)), a  # the walk's record
        assert anchor == max(b - a.ell, *min_summands), a
        _, _, profile = analysis.threshold_and_report()
        assert profile == exceptional_profile(a), a
        assert profile.gaps == gaps, a
        assert analysis.reflected_gaps == cached_brute_profile(reflected)[2], a


def test_anchor_of_the_count_free_walk(monkeypatch):
    # the layers the readers' walks yield, recorded by N
    reached = []

    def recording_walk(*args):
        for layer in _walk(*args):
            reached.append(layer[0])
            yield layer

    monkeypatch.setattr(verifier, "_walk", recording_walk)
    # every reader's last layer is b - ell, or N when N lies beyond it
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 13))):
        analysis, floor = _analyze(a), a.b - a.ell
        reached.clear()
        analysis.failures(1, 1)
        assert reached == list(range(1, floor + 1)), a
        for n in (None, 1, floor, floor + 2):
            reached.clear()
            analysis.threshold_and_report(n, 1)
            assert reached == list(range(1, max(floor, n or 0) + 1)), (a, n)


@st.composite
def sparse_normalized_sets(draw, b_max=200):
    b = draw(st.integers(2, b_max))
    interior = draw(st.sets(st.integers(1, b - 1), max_size=min(5, b - 1)))
    a = FiniteIntegerSet((0, *sorted(interior), b))
    if not a.is_normalized:
        a = FiniteIntegerSet((0, 1, *sorted(interior - {1}), b))
    return a


@settings(max_examples=40, deadline=None)
@given(sparse_normalized_sets())
@example(fis(0, 57, 182))
@example(fis(0, 2, 3, 97, 140))
def test_narrow_mask_count_equals_the_full_diff(a):
    # the walk counts each layer on narrow masks; D(N) minus NA counts it in full
    analysis = _analyze(a)
    firsts = [(0, 0)] * (a.b - 1)
    for n, sumset, pending in _walk(a.elements, analysis.first_mask, firsts):
        full_count = (analysis.description(n) & ~sumset).bit_count()
        assert analysis._missing(n, sumset) == full_count, (a, n)
        if n >= a.b - a.ell and not pending:
            break
    first, min_summands, _ = cached_brute_profile(a.elements)
    assert firsts == list(zip(first, min_summands)), a  # the walk's record


def test_witnesses_are_valid():
    for a in [fis(0, 1, 5, 6), fis(0, 1, 3, 4), fis(0, 1, 7, 8)]:
        for n_summands in range(1, a.b):
            report = check_structure(a, n_summands)
            sumset = n_fold_sumset(a, n_summands)
            top = a.b * n_summands
            gaps = set(exceptional_profile(a).gaps)
            gaps_r = set(exceptional_profile(reflect(a)).gaps)
            for w in report.missing_witnesses:
                assert 0 <= w <= top
                assert w not in sumset
                assert w not in gaps
                assert top - w not in gaps_r


def test_min_threshold_frozen_examples():
    assert min_threshold(fis(0, 1, 5, 6)) == 4
    assert min_threshold(fis(0, 3, 5)) == 1
    assert min_threshold(fis(0, 1, 3, 4)) == 2
    assert min_threshold(fis(0, 1)) == 1
    assert min_threshold(fis(*range(10))) == 1


def test_min_threshold_is_exact():
    # the returned N0 holds, N0 - 1 (when >= 1) fails
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 10))):
        n0 = min_threshold(a)
        assert check_structure(a, n0).holds
        if n0 > 1:
            assert not check_structure(a, n0 - 1).holds


def test_threshold_never_exceeds_interval_bound():
    # the description always holds from N = b - ell on
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 11))):
        assert min_threshold(a) <= max(1, a.b - a.ell)


def test_reflection_symmetry_of_the_description():
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 9))):
        mirrored = reflect(a)
        for n_summands in range(1, a.b + 1):
            assert (
                check_structure(a, n_summands).holds
                == check_structure(mirrored, n_summands).holds
            )


def test_all_n_criterion_examples():
    assert all_n_criterion(fis(0, 3, 5))
    assert all_n_criterion(fis(0, 2, 4, 7))
    assert not all_n_criterion(fis(0, 1, 5, 6))
    assert all_n_criterion(fis(0, 1))


def test_all_n_criterion_matches_the_per_class_identity():
    # the description holds at every N >= 1 exactly when, for each class a,
    # first_A(a) + first_{b-A}(b-a) == b * min_summands_A(a)
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 11))):
        b = a.b
        first, first_r = brute_first_reachable(a.elements)
        summands = cached_brute_profile(a.elements)[1]
        identity = all(
            first[c - 1] + first_r[b - c - 1] == b * summands[c - 1] for c in range(1, b)
        )
        assert all_n_criterion(a) == identity, a


def test_placement_check_frozen_example():
    result = placement_check(fis(0, 3, 5), 1, 2)
    assert result.hypothesis_met
    assert result.holds
    assert result.target == 6 + 5
    assert result.kb_size == 3  # {0,3} doubled in Z/5 is {0,1,3}
    result = placement_check(fis(0, 1, 6, 7), 5, 2)
    assert result.hypothesis_met and result.holds
    assert result.target == 5 + 7


def test_placement_check_vacuous_when_hypothesis_unmet():
    # {0,1,9}: B = {0,1}, |2B| = 3 < 9 - min_summands(5) = 9 - 5
    result = placement_check(fis(0, 1, 9), 5, 2)
    assert not result.hypothesis_met
    assert result.holds


def test_placement_check_never_false_small():
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 10), ell_min=1)):
        for residue in range(1, a.b):
            for k in range(1, a.b + 1):
                result = placement_check(a, residue, k)
                assert result.holds, (a, residue, k)


def test_placement_check_matches_oracles_on_every_field():
    """Every field of every check with b <= 8, every residue and k <= b,
    rebuilt from the brute-force oracles.  The sweep reaches the hypothesis
    met and unmet, and a target read from a row past its level's last
    stored row.  It never reaches a negative excess bound: class a lies in
    (k + b - |kB|)B, so the target's row is at most N - 1."""
    reached = set()
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 9))):
        b = a.b
        levels = _staircase(a.elements)
        first, summands, _ = brute_profile(a.elements)
        residues = {x % b for x in a.elements}
        kb_sizes, kb = [], residues
        for _ in range(b):
            kb_sizes.append(len(kb))
            kb = brute_mod_sumset(kb, residues, b)
        sums = cache(lambda n: brute_sums_up_to(a.elements, n))  # NA, since 0 is in A
        for residue in range(1, b):
            for k in range(1, b + 1):
                target = first[residue - 1] + (k - 1) * b
                kb_size = kb_sizes[k - 1]
                n_summands = max(1, 2 * k + b - kb_size - 1)
                hypothesis_met = kb_size >= b - summands[residue - 1]
                holds = not hypothesis_met or target in sums(n_summands)
                row, excess = target // b, n_summands - target // b - 1
                assert excess >= 0, (a, residue, k)
                if hypothesis_met and row >= len(levels[min(excess, len(levels) - 1)]):
                    reached.add("row past the level's last")
                reached.add(("hypothesis met", hypothesis_met))
                expected = (holds, hypothesis_met, target, n_summands, kb_size)
                assert astuple(placement_check(a, residue, k)) == expected, (a, residue, k)
        for residue in (0, b):
            with pytest.raises(InvalidResidueError) as expected_error:
                exceptional_profile(a).first_reachable_in(residue)
            with pytest.raises(InvalidResidueError) as error:
                placement_check(a, residue, 1)
            assert str(error.value) == str(expected_error.value)
    assert reached == {
        "row past the level's last", ("hypothesis met", True), ("hypothesis met", False)
    }


def test_placement_check_rejects_bad_residue():
    with pytest.raises(InvalidResidueError):
        placement_check(fis(0, 3, 5), 5, 2)
    with pytest.raises(InvalidResidueError):
        placement_check(fis(0, 3, 5), 0, 2)
    with pytest.raises(ValueError):
        placement_check(fis(0, 3, 5), 1, 0)
