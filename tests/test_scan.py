from __future__ import annotations

import errno
import hashlib
import json
import time

import pytest

from stampset import FiniteIntegerSet, exceptional_profile
from stampset import scan
from stampset.errors import CatalogMismatchError
from stampset.families import classify_exceptional_family
from stampset.scan import (
    FailureRecord,
    MismatchRecord,
    ScanConfig,
    ScanResult,
    emit_report,
    enumerate_sets,
    render_report,
    scan_theorems,
)
from stampset.verifier import _Analysis, _analyze, check_structure

from oracles import _IndexOnly, count_normalized_sets, normalized_sets


def test_enumerate_counts_frozen():
    assert len(list(enumerate_sets(4))) == 6
    assert len(list(enumerate_sets(2))) == 1
    assert len(list(enumerate_sets(5, 3, 3))) == 4


def test_enumerate_order_is_bitmask_ascending():
    got = [a.elements for a in enumerate_sets(4)]
    assert got == [
        (0, 1, 4),
        (0, 1, 2, 4),
        (0, 3, 4),
        (0, 1, 3, 4),
        (0, 2, 3, 4),
        (0, 1, 2, 3, 4),
    ]


def test_enumerate_matches_mobius_count():
    for b in range(2, 13):
        assert len(list(enumerate_sets(b))) == count_normalized_sets(b), b


def test_enumerate_narrowed_window_costs_what_it_yields():
    def by_mask(elements):
        return sum(1 << (x - 1) for x in elements[1:-1])

    started = time.perf_counter()
    got = [a.elements for a in enumerate_sets(40, ell_max=2)]
    assert time.perf_counter() - started < 1.0
    assert got == sorted(normalized_sets([40], ell_max=2), key=by_mask)
    full = [a for a in enumerate_sets(14) if 3 <= a.ell <= 5]
    assert list(enumerate_sets(14, 3, 5)) == full
    # every window, open ends included, against the oracle in mask order
    for b in range(2, 10):
        ends = [None, *range(b)]
        for ell_min in ends:
            for ell_max in ends:
                lo = 0 if ell_min is None else ell_min
                hi = b - 1 if ell_max is None else ell_max
                if lo > hi:
                    continue
                oracle = sorted(normalized_sets([b], lo, hi), key=by_mask)
                got = [a.elements for a in enumerate_sets(b, ell_min, ell_max)]
                assert got == oracle, (b, ell_min, ell_max)


def test_enumerate_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        next(enumerate_sets(1))


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(5, 4)
    with pytest.raises(ValueError):
        ScanConfig(1, 4)
    with pytest.raises(ValueError):
        ScanConfig(2, 4, delta=3)
    with pytest.raises(ValueError):
        ScanConfig(2, 4, parallelism=0)
    with pytest.raises(ValueError):
        ScanConfig(2, 4, witness_cap=0)
    for ell_min, ell_max in [(3, 1), (-1, None), (None, -1), (-2, 3)]:  # empty or negative
        with pytest.raises(ValueError, match="need 0 <= ell_min <= ell_max"):
            ScanConfig(2, 4, ell_min=ell_min, ell_max=ell_max)


def test_integer_arguments_are_taken_as_plain_ints():
    wrapped = ScanConfig(_IndexOnly(2), _IndexOnly(6), _IndexOnly(1), _IndexOnly(3), delta=True)
    assert wrapped == ScanConfig(2, 6, 1, 3, delta=1)
    assert all(type(value) is int for value in vars(wrapped).values())
    report = render_report(scan_theorems(wrapped))
    assert report == render_report(scan_theorems(ScanConfig(2, 6, 1, 3, delta=1)))
    assert '"delta":1,' in report
    plain = ScanConfig(2, 4, parallelism=_IndexOnly(1), witness_cap=_IndexOnly(3))
    assert (plain.parallelism, plain.witness_cap) == (1, 3)
    assert list(enumerate_sets(_IndexOnly(6), _IndexOnly(1), _IndexOnly(2))) == list(
        enumerate_sets(6, 1, 2)
    )
    # a value that operator.index refuses is a ValueError, not a late TypeError
    for call in [
        lambda: ScanConfig(2, 6.0),
        lambda: ScanConfig(2, 6, ell_max=1.5),
        lambda: ScanConfig(2, 6, witness_cap=2.0),
        lambda: enumerate_sets(6.0),
        lambda: enumerate_sets(6, 1.5),
    ]:
        with pytest.raises(ValueError):
            list(call())


def test_windowed_scan_reports_are_pinned():
    # interior-size windows, down to one size, with their report bytes
    pinned = {
        (1, 3, 1): (345, "7847242f5b0d747f"),
        (2, 2, 0): (109, "fb3715b0d6885c1e"),
        (0, 0, 0): (0, "dec8d99c0d02659a"),
    }
    for (ell_min, ell_max, delta), (scanned, digest) in pinned.items():
        result = scan_theorems(ScanConfig(2, 10, ell_min=ell_min, ell_max=ell_max, delta=delta))
        assert result.sets_scanned == scanned
        assert hashlib.sha256(render_report(result).encode()).hexdigest()[:16] == digest


def test_delta_zero_scan_is_clean():
    result = scan_theorems(ScanConfig(2, 10, delta=0))
    assert result.failures == ()
    assert result.catalog_mismatches == ()
    assert result.sets_scanned == sum(count_normalized_sets(b) for b in range(2, 11))
    assert result.skipped_gcd == sum(
        (1 << (b - 1)) - count_normalized_sets(b) for b in range(2, 11)
    )


def test_delta_one_failures_are_exactly_the_cataloged_sets():
    result = scan_theorems(ScanConfig(4, 12, delta=1))
    assert result.catalog_mismatches == ()
    assert result.failures
    for record in result.failures:
        # every failure carries a family label, and re-verifies
        assert record.labels
        assert all(label.startswith(("F1", "F2")) for label in record.labels)
        report = check_structure(
            FiniteIntegerSet(record.elements), record.n_summands
        )
        assert not report.holds
        assert report.missing_count == record.witness_count
        assert report.missing_witnesses[: len(record.witnesses)] == record.witnesses


def test_delta_one_failure_depth_is_bounded():
    # cataloged sets fail only below the unconditional bound
    result = scan_theorems(ScanConfig(4, 12, delta=1))
    for record in result.failures:
        a = FiniteIntegerSet(record.elements)
        assert record.n_summands < max(1, a.b - a.ell), record


def test_delta_two_scan_raises_on_the_known_catalog_gap():
    with pytest.raises(CatalogMismatchError) as excinfo:
        scan_theorems(ScanConfig(9, 10, delta=2))
    result = excinfo.value.result
    assert result is not None
    assert len(result.catalog_mismatches) == 14
    for mismatch in result.catalog_mismatches:
        assert mismatch.kind == "failure_without_family"
        b = mismatch.b
        missing = set(range(b + 1)) - set(mismatch.elements)
        straight = {a for a in range(3, b - 3)}
        assert (
            missing - {b - 1} <= straight  # {a, b-1} shape
            or {b - x for x in missing} - {b - 1} <= straight  # its mirror
        ), mismatch


def test_delta_two_restricts_range():
    # below b = 9 or ell = 5 there is nothing to scan at delta 2
    for config in (ScanConfig(2, 8, delta=2), ScanConfig(9, 10, ell_max=3, delta=2)):
        result = scan_theorems(config)
        assert result.sets_scanned == 0, config
        assert result.failures == (), config


def test_failure_inside_the_guaranteed_range_is_an_identity_violation(monkeypatch):
    # no set fails at N >= b - ell; plant one failure of {0,1,5} at N = 4
    failures = _Analysis.failures

    def planted(self, n_lo, witness_cap):
        found = failures(self, n_lo, witness_cap)
        if self.a_set.elements == (0, 1, 5):
            found = [*found, (4, 1, (7,), (13,))]  # 13 = bN - 7 for b - A
        return found

    monkeypatch.setattr(_Analysis, "failures", planted)
    with pytest.raises(CatalogMismatchError, match="identity_violation") as excinfo:
        scan_theorems(ScanConfig(5, 5, delta=0))
    result = excinfo.value.result
    assert result is not None
    assert result.failures == (
        FailureRecord(5, (0, 1, 5), 4, (7,), 1, ()),
        FailureRecord(5, (0, 4, 5), 4, (13,), 1, ()),
    )
    detail = "fails at N=[4] inside the guaranteed range N >= 4"
    assert result.catalog_mismatches == (
        MismatchRecord(5, (0, 1, 5), "identity_violation", detail),
        MismatchRecord(5, (0, 4, 5), "identity_violation", detail),
    )


def test_cataloged_set_that_never_fails_is_a_mismatch(monkeypatch):
    # every cataloged set fails at delta 1; label the generic {0,1,2,5}
    classify = scan._classify

    def planted(a_set, mirror, delta):
        if a_set.elements == (0, 1, 2, 5):
            return ("planted",), ("planted~",)
        return classify(a_set, mirror, delta)

    monkeypatch.setattr(scan, "_classify", planted)
    with pytest.raises(CatalogMismatchError, match="family_without_failure") as excinfo:
        scan_theorems(ScanConfig(5, 5, delta=1))
    result = excinfo.value.result
    assert result is not None
    assert result.catalog_mismatches == (
        MismatchRecord(
            5, (0, 1, 2, 5), "family_without_failure",
            "matches planted but holds at every N in [2, 3]",
        ),
        MismatchRecord(
            5, (0, 3, 4, 5), "family_without_failure",
            "matches planted~ but holds at every N in [2, 3]",
        ),
    )


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize(
    "corrupt", [lambda units: units[:-1], lambda units: units + units[:1]],
    ids=["dropped", "repeated"],
)
def test_shard_checksums_catch_a_lost_or_repeated_shard(monkeypatch, corrupt, parallelism):
    # b = 8 splits into eight shards, one per interior size, at every
    # worker count: a lost last shard drops the mask 127, a repeated first
    # one counts the mask 0 (gcd 8) twice
    units_for = scan._units_for
    monkeypatch.setattr(scan, "_units_for", lambda *args: corrupt(units_for(*args)))
    with pytest.raises(RuntimeError, match="work partition for b=8 dropped or duplicated a shard"):
        scan_theorems(ScanConfig(8, 8, delta=1, parallelism=parallelism))


def test_narrow_windows_cost_what_they_hold():
    # b = 40 with ell <= 2 holds C(39, 0) + C(39, 1) + C(39, 2) masks; the
    # scan's shards cover those and no others of the 2^39
    units = scan._units_for(40, range(3))
    assert sum(hi - lo for _, lo, hi in units) == 1 + 39 + 741 == 781
    sizes = {size: 0 for size in range(3)}
    for size, lo, hi in units:
        assert lo == sizes[size] < hi
        sizes[size] = hi
    assert sizes == {0: 1, 1: 39, 2: 741}
    coprime = list(normalized_sets([40], ell_max=2))
    for delta in (0, 1):
        result = scan_theorems(ScanConfig(40, 40, ell_max=2, delta=delta))
        assert result.sets_scanned == len(coprime) == 568
        assert result.skipped_gcd == 781 - 568 == 213
        if delta == 0:
            assert result.failures == ()
            assert result.catalog_mismatches == ()


def _scan_or_attached(config):
    try:
        return scan_theorems(config)
    except CatalogMismatchError as err:
        return err.result


def test_reports_identical_across_parallelism():
    # from b = 9 on a size holds more than 64 masks, so its rank-range
    # shards split pairs {A, b-A} between workers
    for b_min, b_max, delta in ((2, 10, 1), (9, 12, 2)):
        one = _scan_or_attached(ScanConfig(b_min, b_max, delta=delta, parallelism=1))
        two = _scan_or_attached(ScanConfig(b_min, b_max, delta=delta, parallelism=2))
        assert render_report(one) == render_report(two)


def test_merge_orders_a_sets_failures_by_n(monkeypatch):
    # a shard lists each set's failures by increasing N; the merge's order
    # must not depend on that (at delta 2, 18 sets with b <= 11 fail twice)
    config = ScanConfig(9, 11, delta=2)
    expected = _scan_or_attached(config).failures
    scan_unit = scan._scan_unit

    def reversing_unit(*args):
        *counts, failures, mismatches = scan_unit(*args)
        return (*counts, failures[::-1], mismatches)

    monkeypatch.setattr(scan, "_scan_unit", reversing_unit)
    assert _scan_or_attached(config).failures == expected


@pytest.mark.parametrize("witness_cap", [1, 3])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_paired_scan_matches_an_unpaired_reference(delta, witness_cap):
    # the scan analyzes one set of each pair {A, b-A}; the reference
    # analyzes every set on its own
    failures, mismatches = [], []
    b_min, ell_min = (9, 5) if delta == 2 else (2, 0)
    for b in range(b_min, 13):
        for a_set in enumerate_sets(b, ell_min):
            window_lo = max(1, b - a_set.ell - delta)
            fails = _analyze(a_set).failures(window_lo, witness_cap)
            labels = classify_exceptional_family(a_set, delta) if delta else ()
            labels = tuple(str(label) for label in labels)
            failures.extend(
                FailureRecord(b, a_set.elements, n, witnesses, count, labels)
                for n, count, witnesses, _ in fails
            )
            if delta and bool(fails) != bool(labels):
                kind = "failure_without_family" if fails else "family_without_failure"
                mismatches.append((b, a_set.elements, kind))
    result = _scan_or_attached(ScanConfig(2, 12, delta=delta, witness_cap=witness_cap))
    assert result.failures == tuple(failures)
    assert [(m.b, m.elements, m.kind) for m in result.catalog_mismatches] == mismatches
    assert result.sets_scanned == sum(
        len(list(enumerate_sets(b, ell_min))) for b in range(b_min, 13)
    )


def test_anchor_of_a_set_and_its_mirror_is_b_minus_ell():
    # the paired scan gives b-A the window of A, which ends at b - ell; there
    # every first member of A has been reached (every mirror is enumerated too)
    for b in range(2, 17):
        for a_set in enumerate_sets(b):
            assert exceptional_profile(a_set).max_summands <= b - a_set.ell, a_set


def test_json_report_shape():
    empty = ScanResult(ScanConfig(2, 2), 0, 0, (), (), {2: 0.5})
    text = render_report(empty)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["sets_scanned"] == 0
    assert payload["failures"] == []
    assert payload["catalog_mismatches"] == []
    assert payload["skipped_gcd"] == 0
    assert payload["timing"] == {}  # wall-clock values stay out by default
    assert "parallelism" not in payload["config"]
    assert payload["config"]["b_min"] == 2

    timed = json.loads(render_report(empty, include_timing=True))
    assert timed["timing"] == {"2": 0.5}


def test_report_arguments_beyond_the_result_are_gone(tmp_path):
    # JSON is the one format: a format argument no longer binds to anything
    empty = ScanResult(ScanConfig(2, 2), 0, 0, (), (), {})
    with pytest.raises(TypeError):
        render_report(empty, "csv")
    with pytest.raises(TypeError):
        emit_report(empty, "json", str(tmp_path / "report.json"))
    assert list(tmp_path.iterdir()) == []


def test_catalog_mismatch_error_requires_the_result():
    # the scan always attaches its result, so the error cannot be built without one
    with pytest.raises(TypeError):
        CatalogMismatchError("x")
    empty = ScanResult(ScanConfig(2, 2), 0, 0, (), (), {})
    assert CatalogMismatchError("x", empty).result is empty


def test_emit_report_round_trip(tmp_path):
    result = scan_theorems(ScanConfig(2, 6, delta=1))
    destination = tmp_path / "report.json"
    emit_report(result, str(destination))
    assert json.loads(destination.read_text(encoding="utf-8")) == json.loads(
        render_report(result)
    )


def test_emit_report_bad_destination(tmp_path):
    result = ScanResult(ScanConfig(2, 2), 0, 0, (), (), {})
    with pytest.raises(OSError):
        emit_report(result, str(tmp_path / "missing" / "report.json"))


class _DiskFullHandle:
    """A file handle whose write stores half the text, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_emit_report_failed_write_keeps_existing_report(tmp_path, monkeypatch):
    destination = tmp_path / "report.json"
    destination.write_text("previous report\n", encoding="utf-8")
    real_open = open
    monkeypatch.setattr(
        scan,
        "open",
        lambda *args, **kwargs: _DiskFullHandle(real_open(*args, **kwargs)),
        raising=False,
    )
    result = scan_theorems(ScanConfig(2, 6, delta=1))
    with pytest.raises(OSError):
        emit_report(result, str(destination))
    assert destination.read_text(encoding="utf-8") == "previous report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize(
    "delta, digest",
    [
        (0, "edabd4cf950aa1e527be158878e957cae5ddf608d65b8f7cfc128ca3b62d72fd"),
        (1, "11c7bb466f980160dd40fdaa9759557c36375aa44100be4d370659cab6830166"),
        (2, "b6fde917f305fd58391954541062f5f00fce659b3f868dcbb2a380ca909dbf07"),
    ],
)
def test_report_bytes_are_pinned(delta, digest):
    _assert_report_digest(ScanConfig(2, 12, delta=delta), digest)


@pytest.mark.parametrize(
    "delta, digest",
    [
        (0, "1443422c13815ae5000ca94a574bddccbbd501616495ff0f9a8530d02c5230ba"),
        (1, "a4ae265ea9255e1a328a9d2114a1a50804ea99305bf2bcb73a4f925db1bb151d"),
        (2, "49514c609e8aa1a2b2cd342fde27d928f24eb509223ac679b185ccaff2cad57a"),
    ],
)
def test_report_bytes_are_pinned_up_to_b_16(delta, digest):
    _assert_report_digest(ScanConfig(2, 16, delta=delta), digest)


def _assert_report_digest(config, digest):
    # the delta-2 scan raises on the known catalog gap; its report is the
    # result attached to the error
    try:
        result = scan_theorems(config)
    except CatalogMismatchError as err:
        assert config.delta == 2
        result = err.result
    assert hashlib.sha256(render_report(result).encode()).hexdigest() == digest
