from __future__ import annotations

import pytest

from stampset import FiniteIntegerSet, InvalidSetError, core
from stampset.errors import CatalogMismatchError
from stampset.families import (
    FamilyLabel,
    _classify,
    appendix_family_threshold,
    classify_exceptional_family,
)
from stampset.core import reflect
from stampset.modular import small_doubling_families
from stampset.scan import ScanConfig, scan_theorems
from stampset.verifier import all_n_criterion, check_structure, min_threshold

from conftest import fis
from oracles import brute_catalog, brute_sparse_catalog, normalized_sets


def kinds_of(labels):
    return {(label.kind, label.parameters, label.reflected) for label in labels}


def test_punctured_interval_is_f1():
    labels = kinds_of(classify_exceptional_family(fis(0, 1, 3, 4), 1))
    # the shape is mirror-symmetric, so it matches on both sides; with
    # a = 2 the punctured interval is also the two-then-tail shape
    assert ("F1", (("a", 2),), False) in labels
    assert ("F1", (("a", 2),), True) in labels
    assert labels <= {
        ("F1", (("a", 2),), False),
        ("F1", (("a", 2),), True),
        ("F2", (("a", 2),), False),
        ("F2", (("a", 2),), True),
    }


def test_two_then_tail_is_f2():
    labels = classify_exceptional_family(fis(0, 1, 4, 5, 6), 1)
    assert kinds_of(labels) == {("F2", (("a", 3),), False)}


def test_f2_detected_through_reflection():
    labels = classify_exceptional_family(fis(0, 1, 2, 5, 6), 1)
    assert kinds_of(labels) == {("F2", (("a", 3),), True)}


def test_generic_sets_get_no_label():
    assert classify_exceptional_family(fis(0, 3, 5), 1) == ()
    assert classify_exceptional_family(fis(0, 3, 5), 2) == ()
    assert classify_exceptional_family(fis(*range(9)), 2) == ()
    # the G3 and G4 heads need b >= 6: their printed shapes contain 6
    assert classify_exceptional_family(fis(0, 1, 2), 2) == ()
    assert classify_exceptional_family(fis(0, 1, 3), 2) == ()


def test_delta_two_catalog_examples():
    labels = classify_exceptional_family(fis(0, 1, 2, 6, 7, 8, 9, 10), 2)
    assert ("G3", (), False) in kinds_of(labels)

    labels = classify_exceptional_family(fis(0, 1, 3, 6, 7, 8, 9, 10), 2)
    assert ("G4", (), False) in kinds_of(labels)

    labels = classify_exceptional_family(fis(0, 1, 3, 4, 6, 7, 8, 9, 10), 2)
    assert ("G1", (("a", 2), ("d", 5)), False) in kinds_of(labels)

    labels = classify_exceptional_family(fis(0, 1, 3, 5, 6), 2)
    assert ("G2", (("a", 2), ("c", 4)), False) in kinds_of(labels)
    assert ("G2", (("a", 2), ("c", 4)), True) in kinds_of(labels)


def test_delta_one_never_reports_g_families():
    labels = classify_exceptional_family(fis(0, 1, 3, 5, 6), 1)
    assert all(label.kind in ("F1", "F2") for label in labels)


@pytest.mark.parametrize("delta", [1, 2])
def test_reflected_labels_are_the_labels_of_the_mirror(delta):
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 15))):
        own, mirrored = _classify(a, reflect(a), delta)
        assert own == classify_exceptional_family(a, delta), a
        assert mirrored == classify_exceptional_family(reflect(a), delta), a


@pytest.mark.parametrize("delta", [1, 2])
def test_classifier_is_the_printed_catalog(delta):
    # every normalized set with b <= 14 against the docstring's set algebra,
    # read on A (own labels) and on b - A (reflected labels)
    labeled = 0
    for b in range(2, 15):
        catalog = brute_catalog(b, delta)
        for a in map(FiniteIntegerSet, normalized_sets(range(b, b + 1))):
            mirror = frozenset(b - x for x in a.elements)
            expected = tuple(
                (kind, parameters, reflected)
                for side, reflected in ((frozenset(a.elements), False), (mirror, True))
                for kind, parameters in catalog.get(side, ())
            )
            got = tuple(
                (label.kind, label.parameters, label.reflected)
                for label in classify_exceptional_family(a, delta)
            )
            assert got == expected, a
            labeled += bool(expected)
    assert labeled > 100  # the sweep reached the catalog


def test_classify_validates_input():
    with pytest.raises(InvalidSetError):
        classify_exceptional_family(fis(0, 2, 4), 1)
    with pytest.raises(ValueError):
        classify_exceptional_family(fis(0, 1, 3, 4), 3)
    with pytest.raises(ValueError, match=r"delta must be 1 or 2, got 2\.0"):
        classify_exceptional_family(fis(0, 1, 3, 4), 2.0)


def test_label_str_and_parameter_access():
    label = FamilyLabel("G1", (("a", 2), ("d", 5)), True)
    assert str(label) == "G1(a=2, d=5)~"
    assert label.parameter("d") == 5
    with pytest.raises(KeyError):
        label.parameter("h")


def test_theorem_catalog_iff_small():
    # failure at some N >= max(1, b - ell - 1) happens exactly on catalog sets
    for a in map(FiniteIntegerSet, normalized_sets(range(4, 11))):
        labeled = bool(classify_exceptional_family(a, 1))
        fails_late = min_threshold(a) > max(1, a.b - a.ell - 1)
        assert labeled == fails_late, a


def test_labeled_sets_fail_exactly_at_the_stated_depth():
    for a in map(FiniteIntegerSet, normalized_sets(range(4, 11))):
        if classify_exceptional_family(a, 1):
            assert not check_structure(a, max(1, a.b - a.ell - 1)).holds, a
            assert check_structure(a, a.b - a.ell).holds, a


def test_delta_two_catalog_gap_is_exactly_the_known_shape():
    """The literal catalog provably misses one shape; pin it precisely.

    Every set {0,...,b} \\ {a, b-1} with 3 <= a <= b-4 (or its mirror
    image {0,...,b} \\ {1, c}) fails the interval description exactly at
    N = b - ell - 2 = 1, yet matches no cataloged shape: the pair
    recognizer's printed range stops at b - 2.  These are the only sets
    on which catalog membership and observed failure disagree.
    """
    observed_gaps = set()
    for a in map(FiniteIntegerSet, normalized_sets(range(9, 11), ell_min=5)):
        labeled = bool(classify_exceptional_family(a, 2))
        fails_late = min_threshold(a) > max(1, a.b - a.ell - 2)
        if labeled != fails_late:
            # every disagreement is a failure the catalog missed, never
            # a cataloged set that holds
            assert fails_late and not labeled, a
            assert min_threshold(a) == 2, a
            observed_gaps.add(a.elements)
    assert observed_gaps == _known_catalog_gap(9) | _known_catalog_gap(10)


def _known_catalog_gap(b):
    """{0,...,b} \\ {a, b-1} for 3 <= a <= b-4, and the mirror of each."""
    gap = set()
    for x in range(3, b - 3):
        shape = tuple(v for v in range(b + 1) if v not in (x, b - 1))
        gap.add(shape)
        gap.add(tuple(sorted(b - v for v in shape)))
    return gap


def test_delta_two_catalog_gap_keeps_its_shape_at_b_16():
    # a delta-2 scan up to b = 20 found exactly this shape at every b
    with pytest.raises(CatalogMismatchError) as excinfo:
        scan_theorems(ScanConfig(16, 16, delta=2))
    mismatches = excinfo.value.result.catalog_mismatches
    assert {m.elements for m in mismatches} == _known_catalog_gap(16)
    assert len(mismatches) == 20
    for mismatch in mismatches:
        assert mismatch.kind == "failure_without_family"
        assert mismatch.detail.startswith("fails at N=[1] "), mismatch


def test_appendix_matches_frozen():
    label, threshold = appendix_family_threshold(fis(0, 2, 4, 7))
    assert (label.kind, dict(label.parameters), threshold) == ("A1", {"a": 2}, 1)

    label, threshold = appendix_family_threshold(fis(0, 1, 3, 5))
    assert (label.kind, dict(label.parameters), threshold) == ("A2", {"a": 3}, 1)

    label, threshold = appendix_family_threshold(fis(0, 3, 4, 8))
    assert (label.kind, dict(label.parameters), threshold) == ("A3", {"h": 3}, 1)

    label, threshold = appendix_family_threshold(fis(0, 3, 7, 10))
    assert (label.kind, dict(label.parameters), threshold) == ("A4", {"h": 3}, 6)

    label, threshold = appendix_family_threshold(fis(0, 1, 5, 8))
    assert (label.kind, dict(label.parameters), threshold) == ("A5", {"a": 1}, 4)

    label, threshold = appendix_family_threshold(fis(0, 3, 5, 8, 10))
    assert (label.kind, dict(label.parameters), threshold) == ("A6", {"a": 3}, 4)


def test_sparse_matcher_is_the_printed_catalog():
    # every normalized set with b <= 14 against the docstring's six rows,
    # gcd clauses included: the first printed match, or none
    matched = set()
    for b in range(2, 15):
        catalog = brute_sparse_catalog(b)
        for a in map(FiniteIntegerSet, normalized_sets(range(b, b + 1))):
            entries = catalog.get(frozenset(a.elements))
            got = appendix_family_threshold(a)
            if entries is None:
                assert got is None, a
                expected_doubling = ()
            else:
                kind, doubling, name, h, threshold = entries[0]
                assert got == (FamilyLabel(kind, ((name, h),)), threshold), a
                expected_doubling = ((doubling, h),) if b >= a.ell + 4 else ()
                matched.add(kind)
            if a.ell >= 2:
                got_doubling = tuple((m.label, m.h) for m in small_doubling_families(a))
                assert got_doubling == expected_doubling, a
    assert matched == {"A1", "A2", "A3", "A4", "A5", "A6"}  # the sweep reached every row


def test_classification_builds_no_sumset(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("classification walked the layers")

    monkeypatch.setattr(core, "_walk", no_walk)
    for a in map(FiniteIntegerSet, normalized_sets(range(2, 13))):
        classify_exceptional_family(a, 1)
        classify_exceptional_family(a, 2)
        appendix_family_threshold(a)
        if a.ell >= 2:
            small_doubling_families(a)


def test_appendix_rejects_other_shapes():
    assert appendix_family_threshold(fis(0, 2, 3, 7)) is None
    assert appendix_family_threshold(fis(0, 3, 5)) is None
    assert appendix_family_threshold(fis(*range(7))) is None


def test_appendix_thresholds_are_sound_small():
    hits = 0
    for a in map(FiniteIntegerSet, normalized_sets(range(4, 13))):
        matched = appendix_family_threshold(a)
        if matched is None:
            continue
        hits += 1
        label, claimed = matched
        assert min_threshold(a) <= claimed, (a, label, claimed)
        if label.kind in ("A1", "A2", "A3"):
            assert all_n_criterion(a), (a, label)
            assert min_threshold(a) == 1
    assert hits > 20  # the sweep actually exercised the matcher
    # the printed bound is exact on every sparse shape up to b = 60 but A4
    # with b = 2h + 1, which holds at every N
    exceptions = 0
    for b in range(4, 61):
        for elements, entries in brute_sparse_catalog(b).items():
            kind, _, _, h, threshold = entries[0]
            exact = min_threshold(fis(*sorted(elements)))
            if kind == "A4" and b == 2 * h + 1:
                assert exact == 1, (elements, threshold)
                exceptions += 1
            else:
                assert exact == threshold, (elements, kind, threshold)
    assert exceptions == 28  # one for each odd b from 5 to 59
