"""Tests of the benchmark's own helpers.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from measure import (  # noqa: E402
    check_analysis,
    mismatches,
    self_times,
    sha256_text,
    tail_percentile,
)
from workloads import (  # noqa: E402
    SCAN_EXPECTED,
    WORKLOADS,
    SPARSE_KINDS,
    normalized_set_count,
    sparse_instance,
)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(1).shuffle(samples)
    assert tail_percentile(samples) == (90.0, 90, 100)
    pct, value, count = tail_percentile(range(1, 12))
    assert (value, count) == (1, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_percentile_of_few_samples_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("mid", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("leaf", 5.0, 6.0, 0),
    ]
    totals = self_times(spans)
    assert totals["root"] == [1, pytest.approx(6.0)]
    assert totals["mid"] == [1, pytest.approx(2.0)]
    assert totals["leaf"] == [2, pytest.approx(2.0)]


def test_self_time_counts_overlapping_or_overhanging_children_once():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("child", 1.0, 5.0, 0),
        ("child", 3.0, 7.0, 0),
        ("child", 8.0, 12.0, 0),
    ]
    assert self_times(spans)["parent"] == [1, pytest.approx(2.0)]


def test_tracer_records_nested_library_calls_and_uninstalls():
    import stampset.verifier as verifier
    from stampset import FiniteIntegerSet
    from tracer import Tracer

    original = verifier.min_threshold
    a_set = FiniteIntegerSet((0, 3, 5))
    expected = original(a_set)
    tracer = Tracer()
    tracer.install()
    try:
        assert verifier.min_threshold(a_set) == expected
    finally:
        tracer.uninstall()
    assert verifier.min_threshold is original
    spans = tracer.spans()
    assert [name for name, *_ in spans] == [
        "verifier.min_threshold",
        "core.exceptional_profile",
        "core.exceptional_profile",
    ]
    assert [parent for *_, parent in spans] == [-1, 0, 0]
    totals = self_times(spans)
    assert totals["core.exceptional_profile"][0] == 2


def test_speed_factor_scales_times_to_the_reference_speed():
    from calibration import REFERENCE_BLOCK_S, speed_factor

    # a machine twice as slow as the reference halves the times it reports
    slow = [2 * REFERENCE_BLOCK_S] * 3 + [100.0]
    assert speed_factor(slow) == pytest.approx(0.5)
    assert speed_factor([REFERENCE_BLOCK_S / 2]) == pytest.approx(2.0)


def test_scan_check_rejects_a_tampered_report_or_count():
    observed = dict(SCAN_EXPECTED)
    assert mismatches(observed, SCAN_EXPECTED) == []
    tampered = dict(observed, report_sha256=sha256_text('{"sets_scanned":1}\n'))
    assert [line.split(":")[0] for line in mismatches(tampered, SCAN_EXPECTED)] == [
        "report_sha256"
    ]
    short = dict(observed, failures=SCAN_EXPECTED["failures"] - 1)
    assert len(mismatches(short, SCAN_EXPECTED)) == 1


def _payload(**changes):
    payload = {
        "set": [0, 7, 12, 20],
        "min_threshold": 9,
        "holds_for_all_n": False,
        "report": {"n": 18, "holds": True},
    }
    payload.update(changes)
    return payload


def test_analysis_check_accepts_a_valid_payload():
    assert check_analysis(_payload(), (0, 7, 12, 20), bound=None, all_n=False) == []
    assert check_analysis(_payload(), (0, 7, 12, 20), bound=9, all_n=False) == []


@pytest.mark.parametrize(
    "changes, bound, all_n",
    [
        ({"min_threshold": 19}, None, False),
        ({"report": {"n": 18, "holds": False}}, None, False),
        ({"report": {"n": 17, "holds": True}}, None, False),
        ({"set": [0, 7, 12, 21]}, None, False),
        ({}, 8, False),
        ({}, None, True),
    ],
)
def test_analysis_check_rejects_a_tampered_payload(changes, bound, all_n):
    assert check_analysis(_payload(**changes), (0, 7, 12, 20), bound, all_n)


def test_set_count_matches_the_package_enumerator():
    from stampset import enumerate_sets

    for b in range(2, 13):
        assert normalized_set_count(b) == sum(1 for _ in enumerate_sets(b))
    assert sum(normalized_set_count(b) for b in range(2, 16)) == 32602


def test_sparse_shapes_match_the_package_catalog():
    from stampset import FiniteIntegerSet, appendix_family_threshold

    rng = random.Random(7)
    for _ in range(20):
        for kind in sorted(set(SPARSE_KINDS)):
            elements, bound, _ = sparse_instance(rng, kind, rng.randint(60, 200))
            a_set = FiniteIntegerSet(elements)
            assert a_set.is_normalized
            if kind != "random":
                label, threshold = appendix_family_threshold(a_set)
                assert (label.kind, threshold) == (kind, bound)


def test_runner_reports_exactly_the_metrics_of_benchmark_json():
    from run import END_TO_END, per_layer_units

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
