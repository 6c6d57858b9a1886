from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import stampset
from stampset import core, errors, families, modular, scan, verifier
from stampset import (
    DegenerateSetError,
    FiniteIntegerSet,
    InvalidSetError,
    NotRepresentableError,
    exceptional_profile,
    n_fold_sumset,
    normalize,
    reflect,
    represent,
)

from conftest import fis
from oracles import (
    _IndexOnly,
    brute_min_summands,
    brute_nfold,
    brute_profile,
    normalized_sets,
    random_normalized_sets,
    staircase_row,
)


def test_construction_rejects_degenerate_and_unsorted():
    with pytest.raises(DegenerateSetError):
        FiniteIntegerSet((5,))
    with pytest.raises(InvalidSetError):
        FiniteIntegerSet((0, 3, 3))
    with pytest.raises(InvalidSetError):
        FiniteIntegerSet((-1, 3))
    for values in [(0, 1.5, 3), (0, 2.0, 3), (0, "1", 3)]:  # operator.index refuses these
        with pytest.raises(InvalidSetError, match="elements must be integers"):
            FiniteIntegerSet(values)
    with pytest.raises(errors.StampsetError):
        FiniteIntegerSet.of([3, 0, 1.5])


def test_basic_accessors():
    a = fis(0, 3, 5)
    assert a.b == 5
    assert a.ell == 1
    assert a.is_normalized
    assert not fis(0, 2, 4).is_normalized
    assert not fis(1, 3, 5).is_normalized
    assert str(a) == "{0,3,5}"


def test_normalize_scales_and_shifts():
    g, tau, b_set = normalize({6, 12, 21})
    assert (g, tau) == (3, 6)
    assert b_set.elements == (0, 2, 5)


def test_normalize_identity_on_normalized_input():
    g, tau, b_set = normalize([0, 3, 5])
    assert (g, tau) == (1, 0)
    assert b_set.elements == (0, 3, 5)


def test_normalize_handles_negative_values():
    g, tau, b_set = normalize([-4, 2, 8])
    assert (g, tau) == (6, -4)
    assert b_set.elements == (0, 1, 2)


def test_normalize_degenerate():
    with pytest.raises(DegenerateSetError):
        normalize([7])
    with pytest.raises(DegenerateSetError):
        normalize([7, 7])


def test_normalize_rejects_non_integers():
    for values in [(0, 1.5, 3), ("a", "b"), [2, 2.0]]:  # operator.index refuses these
        with pytest.raises(InvalidSetError, match="elements must be integers"):
            normalize(values)


def test_index_only_elements_are_stored_as_plain_ints():
    plain = fis(0, 3, 70)
    wrapped = FiniteIntegerSet(tuple(map(_IndexOnly, plain)))
    assert wrapped == plain and str(wrapped) == "{0,3,70}"
    assert all(type(x) is int for x in wrapped)
    assert exceptional_profile(wrapped) == exceptional_profile(plain)
    assert verifier.check_structure(wrapped, 5) == verifier.check_structure(plain, 5)
    assert n_fold_sumset(wrapped, 3) == n_fold_sumset(plain, 3)
    assert normalize(map(_IndexOnly, (6, 12, 21))) == normalize((6, 12, 21))
    assert str(FiniteIntegerSet((0, True, 3))) == "{0,1,3}"
    assert modular.ResidueSet.of(map(_IndexOnly, (0, 1, 70)), 100).size == 3
    # of() checks before it sorts, as the constructor and normalize() do
    assert FiniteIntegerSet.of([0, _IndexOnly(3), 5]) == fis(0, 3, 5)
    assert FiniteIntegerSet.of(map(_IndexOnly, (5, 0, 3, 0))) == fis(0, 3, 5)
    with pytest.raises(InvalidSetError, match=r"must be integers, got \[0, None, 5\]"):
        FiniteIntegerSet.of([0, None, 5])
    with pytest.raises(InvalidSetError, match="must be integers"):
        FiniteIntegerSet.of((0, 1.5, 5))


def test_index_only_counts_residues_and_moduli_are_taken_as_plain_ints():
    a_set = fis(0, 3, 70)
    assert represent(_IndexOnly(76), a_set, _IndexOnly(3)) == represent(76, a_set, 3)
    assert n_fold_sumset(a_set, _IndexOnly(3)) == n_fold_sumset(a_set, 3)
    mask = n_fold_sumset(a_set, 3)
    assert _IndexOnly(6) in mask and _IndexOnly(7) not in mask and _IndexOnly(-1) not in mask
    assert _IndexOnly(3) in a_set and _IndexOnly(4) not in a_set
    assert verifier.check_structure(a_set, _IndexOnly(5)) == verifier.check_structure(a_set, 5)
    capped = verifier.check_structure(a_set, 5, _IndexOnly(3))
    assert capped == verifier.check_structure(a_set, 5, 3) and type(capped.witness_cap) is int
    checked = verifier.placement_check(a_set, _IndexOnly(3), _IndexOnly(5))
    assert checked == verifier.placement_check(a_set, 3, 5)
    assert type(checked.target) is int and type(checked.n_summands) is int
    residues = modular.ResidueSet.of([0, 1, 70], _IndexOnly(100))
    assert type(residues.modulus) is int and residues.size == 3
    assert str(residues) == "{0,1,70} mod 100"
    assert modular.ResidueSet(_IndexOnly(5), 3) == modular.ResidueSet(5, 3)
    wrapped, plain = modular.ResidueSet(5, _IndexOnly(3)), modular.ResidueSet(5, 3)
    assert wrapped == plain and type(wrapped.bits) is int and str(wrapped) == "{0,1} mod 5"
    assert modular.mod_sumset(wrapped, wrapped) == modular.mod_sumset(plain, plain)
    assert modular.growth_profile(wrapped, 3) == modular.growth_profile(plain, 3)
    assert _IndexOnly(3) in modular.ResidueSet(5, 8) and _IndexOnly(2) not in modular.ResidueSet(5, 8)
    with pytest.raises(ValueError, match=r"bitmask must be an integer, got 1\.5"):
        modular.ResidueSet(5, 1.5)
    with pytest.raises(ValueError, match=r"bitmask has bits outside 0\.\.modulus-1"):
        modular.ResidueSet(5, _IndexOnly(32))
    profile = exceptional_profile(a_set)
    assert profile.first_reachable_in(_IndexOnly(3)) == profile.first_reachable_in(3)
    assert profile.min_summands_for(_IndexOnly(3)) == profile.min_summands_for(3)
    growth = modular.growth_profile(modular.residues_mod_b(a_set), _IndexOnly(2))
    assert growth == modular.growth_profile(modular.residues_mod_b(a_set), 2)
    assert growth.size_of(_IndexOnly(2)) == growth.size_of(2)
    # a value that operator.index refuses breaks the same rule as one out of range
    for call, error in [
        (lambda: n_fold_sumset(a_set, 1.5), ValueError),
        (lambda: represent(3.0, a_set, 1), NotRepresentableError),
        (lambda: profile.min_summands_for(3.0), errors.InvalidResidueError),
        (lambda: verifier.placement_check(a_set, 3, 2.0), ValueError),
        (lambda: modular.ResidueSet.of([0, 1], 2.0), ValueError),
        (lambda: growth.size_of(1.5), ValueError),
        (lambda: growth.smallest_k(0.5), ValueError),
        (lambda: modular.ResidueSet.of([0, None], 5), ValueError),
        (lambda: modular.ResidueSet.of([0, 1.5], 5), ValueError),
    ]:
        with pytest.raises(error):
            call()
    for container in [mask, wrapped, a_set]:  # membership takes its probe through operator.index
        for probe in (1.5, 3.0):
            with pytest.raises(TypeError):
                probe in container


def test_reflect_examples_and_involution():
    assert reflect(fis(0, 3, 5)).elements == (0, 2, 5)
    full = fis(*range(8))
    assert reflect(full).elements == full.elements
    a = fis(0, 1, 4, 9)
    assert reflect(reflect(a)) == a


def test_two_fold_sumset_frozen_example():
    # brute oracle for {0,3,5} at N=2 gives exactly this set
    mask = n_fold_sumset(fis(0, 3, 5), 2)
    assert mask.to_tuple() == (0, 3, 5, 6, 8, 10)
    assert mask.bound == 10


def test_sumset_of_endpoints_is_multiples():
    mask = n_fold_sumset(fis(0, 7), 3)
    assert mask.to_tuple() == (0, 7, 14, 21)


@pytest.mark.parametrize("n_summands", [1, 2, 3, 4, 5])
def test_sumset_matches_oracle(n_summands):
    for elements in [(0, 3, 5), (0, 1, 5, 6), (0, 2, 3, 7), (0, 4, 6, 9, 10)]:
        mask = n_fold_sumset(FiniteIntegerSet(elements), n_summands)
        assert set(mask) == brute_nfold(elements, n_summands)


def test_sumset_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        n_fold_sumset(fis(0, 3, 5), 0)


def test_mask_membership_and_count():
    mask = n_fold_sumset(fis(0, 3, 5), 2)
    assert 6 in mask and 7 not in mask
    assert -1 not in mask and 11 not in mask
    assert mask.count == 6


def test_profile_frozen_example():
    prof = exceptional_profile(fis(0, 3, 5))
    assert prof.modulus == 5
    assert prof.first_reachable == (6, 12, 3, 9)
    assert prof.min_summands == (2, 4, 1, 3)
    assert prof.gaps == (1, 2, 4, 7)
    assert prof.max_summands == 4
    assert prof.first_reachable_in(1) == 6
    assert prof.min_summands_for(1) == 2
    assert prof.first_reachable_in(2) == 12
    assert prof.min_summands_for(2) == 4


def test_profile_of_reflected_example():
    prof = exceptional_profile(fis(0, 2, 5))
    assert prof.gaps == (1, 3)
    assert prof.first_reachable == (6, 2, 8, 4)
    assert prof.min_summands == (3, 1, 4, 2)


def test_profile_gap_free_set():
    prof = exceptional_profile(fis(0, 1, 5, 6))
    assert prof.gaps == ()
    assert prof.max_summands == 4


def test_profile_trivial_set():
    prof = exceptional_profile(fis(0, 1))
    assert prof.modulus == 1
    assert prof.first_reachable == ()
    assert prof.gaps == ()
    assert prof.max_summands == 0


def test_profile_rejects_unnormalized():
    with pytest.raises(InvalidSetError):
        exceptional_profile(fis(0, 2, 4))
    with pytest.raises(InvalidSetError):
        exceptional_profile(fis(1, 3, 5))


def test_profile_matches_oracle_small_sets():
    # few elements and a larger b: long runs of gaps in a class, and
    # minimal summand counts up to b - 1
    sparse = [
        (0, 1, 29), (0, 28, 29), (0, 11, 29), (0, 6, 9, 29),
        (0, 2, 37, 40), (0, 13, 27, 40), (0, 5, 12, 15, 40),
    ]
    for elements in [*normalized_sets(range(2, 9)), *sparse]:
        a = FiniteIntegerSet(elements)
        prof = exceptional_profile(a)
        first, summands, gaps = brute_profile(a.elements)
        assert prof.first_reachable == first, a
        assert prof.min_summands == summands, a
        assert prof.gaps == gaps, a
        assert prof.gap_mask == sum(1 << g for g in gaps), a


def test_first_members_step_matches_the_full_profile():
    from stampset.core import _first_members
    from stampset.verifier import placement_check

    every_reflected = [reflect(fis(*elements)) for elements in normalized_sets(range(2, 13))]
    random_sets = random_normalized_sets(20261018, 200, range(2, 201), range(5))
    for a in [*every_reflected, *map(FiniteIntegerSet, random_sets), fis(0, 7, 60, 800)]:
        prof = exceptional_profile(a)
        first_mask, gap_mask = _first_members(a.elements)
        assert gap_mask == prof.gap_mask, a
        assert first_mask == sum(1 << n for n in prof.first_reachable), a
        for residue in range(1, a.b):  # the first member placement_check reads off the staircase
            target = placement_check(a, residue, 1).target
            assert target == prof.first_reachable_in(residue), (a, residue)


def test_staircase_rows_match_brute_force_summand_counts():
    """Bit a of R_E[q] is set exactly when qb + a is a sum of at most
    q + E + 1 non-zero elements, for q and E up to b, past the stored rows
    and levels; the final level's first row holding a class is its first
    member's row, and the levels stop before the first that repeats the
    one before, within the first b - ell levels and rows."""
    assert core._staircase((0, 1)) == [[1]]  # level 0 reads as R_{-1}, and is stored
    # a repeated 1 overstates ell: {0, 1, 5} has b - ell = 4 levels, so a
    # bound of 1, or of 3, one short, must stop it
    for overstated in [(0, 1, 1, 1, 1, 5), (0, 1, 1, 5)]:
        with pytest.raises(RuntimeError, match="excess staircase did not stabilize"):
            core._staircase(overstated)

    random_sets = random_normalized_sets(20261019, 50, range(11, 41), range(1, 5))
    for a in map(FiniteIntegerSet, [*normalized_sets(range(2, 11)), *random_sets]):
        b = a.b
        levels = core._staircase(a.elements)
        assert len(levels) <= b - a.ell and all(len(level) <= b - a.ell for level in levels), a
        least = brute_min_summands(a.elements, (b + 1) * b - 1)
        for q in range(b + 1):
            entered = [0] * (b + 1)  # the classes whose excess in row q is E, at index E
            for c, s in enumerate(least[q * b:(q + 1) * b]):
                if s is not None:
                    entered[max(s - q - 1, 0)] |= 1 << c  # class 0 has excess -1
            expected = 0
            for excess in range(b + 1):
                expected |= entered[excess]
                assert staircase_row(levels, excess, q) == expected, (a, excess, q)
        for excess in range(1, len(levels)):  # no level is stored twice
            length = max(len(levels[excess - 1]), len(levels[excess]))
            assert any(
                staircase_row(levels, excess - 1, q) != staircase_row(levels, excess, q)
                for q in range(length)
            ), (a, excess)
        first_rows = exceptional_profile(a).first_reachable
        for c in range(1, b):
            q = next(q for q, row in enumerate(levels[-1]) if row >> c & 1)
            assert q == first_rows[c - 1] // b, (a, c)


def test_staircase_transposes_under_reflection():
    # e_A(qb + a) <= E exactly when e_{b-A}(Eb + b - a) <= q
    for a in map(FiniteIntegerSet, normalized_sets(range(3, 11))):
        b = a.b
        levels, mirror = core._staircase(a.elements), core._staircase(reflect(a).elements)
        for q in range(b + 1):
            for excess in range(b + 1):
                row = staircase_row(levels, excess, q)
                transposed = staircase_row(mirror, q, excess)
                for c in range(1, b):
                    assert row >> c & 1 == transposed >> (b - c) & 1, (a, q, excess, c)


def test_represent_frozen_examples():
    cert = represent(10, fis(0, 3, 5), 2)
    assert cert.parts == (5, 5)
    assert cert.target == 10
    with pytest.raises(NotRepresentableError):
        represent(7, fis(0, 3, 5), 5)
    cert = represent(12, fis(0, 3, 5), 4)
    assert cert.parts == (3, 3, 3, 3)


def test_represent_pads_with_zeros():
    cert = represent(5, fis(0, 3, 5), 3)
    assert cert.parts == (0, 0, 5)
    assert sum(cert.parts) == 5
    assert cert.n_summands == 3


def test_represent_out_of_range():
    with pytest.raises(NotRepresentableError):
        represent(16, fis(0, 3, 5), 3)
    with pytest.raises(NotRepresentableError):
        represent(-1, fis(0, 3, 5), 3)


PUBLIC_NAMES = {
    "__version__",
    # core
    "ExceptionalProfile", "FiniteIntegerSet", "Normalization", "ReachabilityMask",
    "RepresentationCertificate", "exceptional_profile", "n_fold_sumset", "normalize",
    "reflect", "represent",
    # errors
    "CatalogMismatchError", "DegenerateSetError", "EmptySetError", "InvalidResidueError",
    "InvalidSetError", "ModulusMismatchError", "NotGeneratingError",
    "NotRepresentableError", "StampsetError", "TooSmallError",
    # families
    "FamilyLabel", "appendix_family_threshold", "classify_exceptional_family",
    # modular
    "DoublingMatch", "GrowthProfile", "GrowthStep", "ResidueSet", "StabilizerSubgroup",
    "growth_profile", "mod_sumset", "residues_mod_b", "small_doubling_families",
    "stabilizer",
    # scan
    "FailureRecord", "MismatchRecord", "ScanConfig", "ScanResult", "emit_report",
    "enumerate_sets", "render_report", "scan_theorems",
    # verifier
    "PlacementCheck", "StructureReport", "all_n_criterion", "check_structure",
    "min_threshold", "placement_check",
}


def test_public_names_are_listed_once_in_their_modules():
    modules = (core, errors, families, modular, scan, verifier)
    owner = {}
    for module in modules:
        for name in module.__all__:
            assert name not in owner, f"{name} in {owner.get(name)} and {module.__name__}"
            owner[name] = module
    assert len(PUBLIC_NAMES) == 48
    assert set(owner) | {"__version__"} == set(stampset.__all__) == PUBLIC_NAMES
    for name, module in owner.items():
        assert getattr(stampset, name) is getattr(module, name)
    star: dict[str, object] = {}
    exec("from stampset import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES


def test_benchmark_layer_names_resolve():
    # the benchmark's per-layer metrics wrap these names; a lost one reads 0
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"
    )
    assert len(layers) == 10
    for module, function in layers:
        target = getattr(importlib.import_module(f"stampset.{module}"), function, None)
        assert callable(target), (module, function)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == stampset.__version__
