"""The benchmark's workloads: input generation, one timed pass, checks.

A workload is built once (its set-up) and then runs passes until the run
has measured long enough.  ``run_pass`` returns a :class:`Pass` holding
the pass's wall time, its op count, how many ops failed their output
check and the per-op latencies.  The package is reached only through the
module object handed in, so the tracer's wrappers are picked up.
"""

from __future__ import annotations

import io
import json
import random
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from math import gcd
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from measure import check_analysis, mismatches, sha256_text


@dataclass
class Pass:
    wall: float
    ops: int
    failed: int
    latencies: array  # seconds per op, in op order
    problems: list[str] = field(default_factory=list)
    scan_result: object = None


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def normalized_set_count(b: int) -> int:
    """Normalized sets with top element b: interiors whose gcd with b is 1.

    Counted by Moebius inversion over the common divisor d of b and the
    interior, independently of the package's enumerator.
    """
    return sum(_mobius(d) * 2 ** (b // d - 1) for d in range(1, b + 1) if b % d == 0)


# ---------------------------------------------------------------- scans

SCAN_B_MAX = 15
# Recorded from render_report of scan_theorems(ScanConfig(2, 15, delta=1))
# at the commit that introduced this benchmark.
SCAN_EXPECTED = {
    "report_sha256": "97bdc06dfc34227f07916c408f2f089180d2d00de9cb115bbb8f97d9f4d88c68",
    "sets_scanned": 32602,
    "failures": 199,
    "catalog_mismatches": 0,
}


class ScanWorkload:
    """``scan_theorems(ScanConfig(2, SCAN_B_MAX, delta=1))``.

    The scan is exhaustive, so the seed does not change its input.  Its
    per-set time is not observable from outside ``scan_theorems``; each
    set is given its modulus's mean, ``ScanResult.timing[b]`` divided by
    the number of sets with that b.
    """

    # Pass times are scaled by the run's speed factor to this power: how
    # strongly the workload's times follow the calibration block's on a
    # drifting host.  Fitted as the slope of log(unscaled time) on
    # log(block time) over twenty runs per workload: 0.91 to 0.95 here,
    # 1.05 to 1.26 for the placement sweep, 0.48 to 0.70 for the sparse
    # stream.
    DRIFT_EXPONENT = 1.0

    def __init__(self, pkg: SimpleNamespace, seed: int) -> None:
        self.pkg = pkg
        self.sets_per_b = {
            b: normalized_set_count(b) for b in range(2, SCAN_B_MAX + 1)
        }

    def run_pass(self, index: int, workers: int = 1) -> Pass:
        scan = self.pkg.scan
        config = scan.ScanConfig(2, SCAN_B_MAX, delta=1, parallelism=workers)
        started = perf_counter()
        try:
            result = scan.scan_theorems(config)
        except Exception as err:  # any raise fails every set of the pass
            wall = perf_counter() - started
            ops = SCAN_EXPECTED["sets_scanned"]
            return Pass(wall, ops, ops, array("d"), [f"scan raised {err!r}"])
        wall = perf_counter() - started
        observed = {
            "report_sha256": sha256_text(scan.render_report(result)),
            "sets_scanned": result.sets_scanned,
            "failures": len(result.failures),
            "catalog_mismatches": len(result.catalog_mismatches),
        }
        problems = mismatches(observed, SCAN_EXPECTED)
        ops = result.sets_scanned
        latencies = array(
            "d", (result.timing[b] / n for b, n in self.sets_per_b.items())
        )
        return Pass(wall, ops, ops if problems else 0, latencies, problems, result)

    def latency_samples(self, passes: list[Pass]) -> list[float]:
        """Per set: its modulus's per-set time, median over the passes."""
        timed = [p.latencies for p in passes if p.latencies]
        samples: list[float] = []
        for column, n in enumerate(self.sets_per_b.values()):
            samples.extend([median([t[column] for t in timed])] * n if timed else [])
        return samples


# ------------------------------------------------------- single sets

SPARSE_B_RANGE = (60, 200)
SPARSE_PER_PASS = 24
# Slot kinds in pass order: half random sets, half sparse-family shapes.
SPARSE_KINDS = ("random", "A1", "random", "A2", "random", "A3",
                "random", "A4", "random", "A5", "random", "A6") * 2
# Digest of the analyze outputs of pass 0 for seed 0.
SPARSE_SEED0_SHA256 = "b99606d79577059f02ad434c0ca4ceaab269c2781e429330f9fc8baad4c07156"


def _coprime_choice(rng: random.Random, lo: int, hi: int, modulus: int) -> int:
    """Uniform x in [lo, hi] with gcd(x, modulus) = 1 (1 always qualifies)."""
    while True:
        x = rng.randint(lo, hi)
        if gcd(x, modulus) == 1:
            return x


def sparse_instance(
    rng: random.Random, kind: str, b: int
) -> tuple[tuple[int, ...], int | None, bool]:
    """(elements, printed threshold or None, holds at every N) for one slot.

    ``random`` is a normalized set with 1 to 3 interior elements; A1..A6
    are the sparse sufficiency shapes with their printed thresholds.
    """
    if kind == "random":
        while True:
            interior = sorted(rng.sample(range(1, b), rng.randint(1, 3)))
            g = b
            for x in interior:
                g = gcd(g, x)
            if g == 1:
                return (0, *interior, b), None, False
    if kind in ("A3", "A5", "A6") and b % 2:
        b += 1
    half = b // 2
    if kind == "A1":
        a = _coprime_choice(rng, 1, (b - 1) // 2, b)
        return (0, a, 2 * a, b), 1, True
    if kind == "A2":
        a = _coprime_choice(rng, half + 1, b - 1, b)
        return (0, 2 * a - b, a, b), 1, True
    if kind == "A3":
        h = half
        while h == half:
            h = _coprime_choice(rng, 1, b - 1, half)
        return tuple(sorted((0, h, half, b))), 1, True
    if kind == "A4":
        h = _coprime_choice(rng, 1, (b - 1) // 2, b)
        return (0, h, b - h, b), b - 1 - h, False
    a = _coprime_choice(rng, 1, half - 1, half)
    if kind == "A5":
        return (0, a, a + half, b), half, False
    if kind == "A6":
        return (0, a, half, a + half, b), half - 1, False
    raise ValueError(f"unknown slot kind {kind!r}")


class SparseWorkload:
    """``stampset analyze <set> --json`` in process, one fresh set per op.

    Every pass has one set for each of SPARSE_PER_PASS moduli spread
    evenly over SPARSE_B_RANGE, so passes cost alike (cost grows about
    like b^4), while the sets themselves are drawn afresh: no set repeats
    within a run.
    """

    # its big-integer arithmetic follows the host's drift about half as
    # much as the calibration block does (see ScanWorkload)
    DRIFT_EXPONENT = 0.5

    def __init__(self, pkg: SimpleNamespace, seed: int) -> None:
        self.pkg = pkg
        self.seed = seed
        self._inputs = {0: self.make_inputs(0)}

    def make_inputs(self, index: int) -> list[tuple[tuple[int, ...], int | None, bool]]:
        rng = random.Random(f"sparse:{self.seed}:{index}")
        lo, hi = SPARSE_B_RANGE
        step = (hi - lo) / (SPARSE_PER_PASS - 1)
        return [
            sparse_instance(rng, kind, lo + round(slot * step))
            for slot, kind in enumerate(SPARSE_KINDS)
        ]

    def run_pass(self, index: int, workers: int = 1) -> Pass:
        inputs = self._inputs.get(index) or self.make_inputs(index)
        main = self.pkg.cli.main
        latencies = array("d")
        outputs: list[str] = []
        failed = 0
        problems: list[str] = []
        started = perf_counter()
        for elements, bound, all_n in inputs:
            argv = ["analyze", ",".join(map(str, elements)), "--json"]
            buffer = io.StringIO()
            op_started = perf_counter()
            try:
                with redirect_stdout(buffer):
                    code = main(argv)
            except Exception as err:
                code, buffer = f"raised {err!r}", io.StringIO()
            latencies.append(perf_counter() - op_started)
            text = buffer.getvalue()
            outputs.append(text)
            try:
                found = (
                    check_analysis(json.loads(text), elements, bound, all_n)
                    if code == 0
                    else [f"exit {code}"]
                )
            except ValueError:
                found = ["output is not JSON"]
            if found:
                failed += 1
                problems.append(f"{elements}: {'; '.join(found)}")
        wall = perf_counter() - started
        if index == 0 and self.seed == 0:
            digest = sha256_text("".join(outputs))
            if digest != SPARSE_SEED0_SHA256:
                problems.append(f"seed-0 output digest {digest}")
                failed = len(inputs)
        # the next pass's inputs are made here, outside its timed region
        self._inputs = {index: inputs, index + 1: self.make_inputs(index + 1)}
        return Pass(wall, len(inputs), failed, latencies, problems)

    def latency_samples(self, passes: list[Pass]) -> list[float]:
        return [t for p in passes for t in p.latencies]


# ---------------------------------------------------- placement sweep

PLACEMENT_B_MAX = 10
PLACEMENT_EXPECTED = {"checks": 73262, "hypothesis_met": 64915}


class PlacementWorkload:
    """``placement_check(A, r, k)`` for every normalized A with b <= 10,
    every residue r and every k <= b.

    The seed shuffles the order of the sets; the checks of one set stay
    together, in (r, k) order, as a caller sweeping one set would make
    them.  Every pass repeats the same checks.
    """

    DRIFT_EXPONENT = 1.0  # see ScanWorkload

    def __init__(self, pkg: SimpleNamespace, seed: int) -> None:
        self.pkg = pkg
        sets = [
            a_set
            for b in range(2, PLACEMENT_B_MAX + 1)
            for a_set in pkg.scan.enumerate_sets(b)
        ]
        random.Random(f"placement:{seed}").shuffle(sets)
        self.checks = [
            (a_set, residue, k)
            for a_set in sets
            for residue in range(1, a_set.b)
            for k in range(1, a_set.b + 1)
        ]

    def run_pass(self, index: int, workers: int = 1) -> Pass:
        check = self.pkg.verifier.placement_check
        latencies = array("d")
        failed = met = 0
        started = perf_counter()
        for a_set, residue, k in self.checks:
            op_started = perf_counter()
            try:
                verdict = check(a_set, residue, k)
            except Exception:
                verdict = None
            latencies.append(perf_counter() - op_started)
            if verdict is None:
                failed += 1
            elif verdict.hypothesis_met:
                met += 1
                if not verdict.holds:
                    failed += 1
        wall = perf_counter() - started
        problems = mismatches(
            {"checks": len(self.checks), "hypothesis_met": met}, PLACEMENT_EXPECTED
        )
        if problems:
            failed = len(self.checks)
        elif failed:
            problems.append(f"{failed} checks failed")
        return Pass(wall, len(self.checks), failed, latencies, problems)

    def latency_samples(self, passes: list[Pass]) -> list[float]:
        """Per check: its latency, median over the passes."""
        return [median(column) for column in zip(*(p.latencies for p in passes))]


WORKLOADS = {
    "scan-exhaustive": ScanWorkload,
    "sparse-large-b": SparseWorkload,
    "placement-sweep": PlacementWorkload,
}
