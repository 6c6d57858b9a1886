"""Benchmark runner for stampset (standard library only).

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the repository root.  The package is imported from ./src, so
nothing needs installing.  With ``--trace 0`` a run prints every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it prints every
per-layer metric, taken from spans the runner records around the
package's public functions.  The last line of output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` (the default) runs each workload in a fresh process,
so that set-up time and peak memory belong to that workload alone, and
prints one table.  Results and spans are also written under bench/out/.
A run measures for BENCHMARK.json's ``run_seconds``; ``--seconds``
overrides it only because the tool that runs BENCHMARK.json's command
passes that value on every call.  End-to-end times are
reported at a reference machine speed, gauged by a
calibration block timed between passes (see calibration.py); the
unscaled figures are printed too.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from calibration import reference_block, speed_factor
from measure import self_times, tail_percentile
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, ScanWorkload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_SAMPLES = 4
MODULES = ("core", "modular", "verifier", "families", "scan", "cli")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
SCAN_TIMED_B = (13, 14, 15)


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module, function in LAYERS:
        if (module, function) in (("scan", "scan_theorems"), ("cli", "main")):
            continue
        units[f"{module}.{function}.calls"] = "count"
        units[f"{module}.{function}.self_s"] = "s"
    units["verifier.placement_check.hypothesis_met_ratio"] = "ratio"
    units["families.classify_exceptional_family.label_ratio"] = "ratio"
    units["cli.analyze.profiles_per_op"] = "count"
    units["cli.main.self_s"] = "s"
    units["scan.residual_self_s"] = "s"
    for name in ("sets_analyzed", "skipped_gcd", "failures"):
        units[f"scan.{name}"] = "count"
    units["scan.gcd_skip_ratio"] = "ratio"
    for b in SCAN_TIMED_B:
        units[f"scan.b{b}.s"] = "s"
    units["scan.pool.wall_2w_s"] = "s"
    units["scan.pool.overhead_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def environment() -> dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "cpu": cpu,
    }


def load_package():
    """Import stampset's public modules; the package object holds them all."""
    for name in MODULES:
        importlib.import_module(f"stampset.{name}")
    return sys.modules["stampset"]


def cold_setup_seconds(name: str, seed: int) -> float:
    """One set-up, timed in a fresh interpreter (see cold_setup.py)."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", str(HERE / "cold_setup.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def measure_end_to_end(
    work, name: str, seed: int, seconds: float
) -> tuple[list, dict, dict]:
    """Rounds of set-ups, a calibration block and a pass, for ``seconds``.

    Set-up samples are taken in fresh processes before every pass and
    after the last, outside the pass times, so that the median set-up
    spans the run like the pass times do.  So is the calibration block
    (calibration.py), whose median gives the speed factor that scales
    every time to the reference speed; pass times take it to the
    workload's ``DRIFT_EXPONENT``.  A round starts only if a round
    as long as the last still fits.
    """
    setups: list[float] = []
    blocks: list[float] = []
    passes = []
    deadline = perf_counter() + seconds
    round_s = 0.0
    while not passes or perf_counter() + round_s < deadline:
        started = perf_counter()
        setups.extend(cold_setup_seconds(name, seed) for _ in range(SETUP_SAMPLES))
        blocks.append(reference_block())
        passes.append(work.run_pass(len(passes)))
        round_s = perf_counter() - started
    setups.extend(cold_setup_seconds(name, seed) for _ in range(SETUP_SAMPLES))
    blocks.append(reference_block())
    samples = work.latency_samples(passes) or [p.wall / p.ops for p in passes]
    pct, tail, count = tail_percentile(samples)
    raw = {
        "setup_s": median(setups),
        "wall_s": median([p.wall for p in passes]),
        "ops_per_s": sum(p.ops for p in passes) / sum(p.wall for p in passes),
        "op_p50_ms": median(samples) * 1000.0,
        "op_tail_ms": tail * 1000.0,
    }
    factor = speed_factor(blocks)
    pass_factor = factor**work.DRIFT_EXPONENT
    metrics = {
        "setup_s": raw["setup_s"] * factor,
        "wall_s": raw["wall_s"] * pass_factor,
        "ops_per_s": raw["ops_per_s"] / pass_factor,
        "op_p50_ms": raw["op_p50_ms"] * pass_factor,
        "op_tail_ms": raw["op_tail_ms"] * pass_factor,
    }
    notes = {
        "op_tail_percentile": pct, "op_samples": count, "setups": len(setups),
        "speed_factor": factor, "pass_factor": pass_factor,
        "block_median_s": median(blocks), "unscaled": raw,
    }
    return passes, metrics, notes


def measure_per_layer(work, seconds: float, spans_path: Path) -> tuple[list, dict, dict]:
    """Rounds of an untraced pass and a traced pass on the same inputs,
    plus, for scans, an untraced two-worker pass for the pool overhead.
    An unused warm-up pass comes first, so that neither side times a cold
    first pass, and the two sides take turns at running first in a round.
    Traced passes run at one worker: pool workers record no spans.  The
    spans of the last traced pass are written to ``spans_path``.  A round
    starts only if a round as long as the last still fits in ``seconds``;
    per-layer times are not scaled to the reference speed."""
    is_scan = isinstance(work, ScanWorkload)
    tracer = Tracer()
    untraced, traced, two_worker = [], [], []
    totals: dict[str, list[float]] = {}
    hits = dict.fromkeys(tracer.hits, 0)
    last_spans: list = []
    deadline = perf_counter() + seconds
    warm_up = work.run_pass(0)
    index = 0
    round_s = 0.0
    while not traced or perf_counter() + round_s < deadline:
        started = perf_counter()
        if index % 2 == 0:
            untraced.append(work.run_pass(index))
        tracer.clear()
        tracer.install()
        try:
            traced.append(work.run_pass(index))
        finally:
            tracer.uninstall()
        if index % 2 == 1:
            untraced.append(work.run_pass(index))
        last_spans = tracer.spans()
        for name, (calls, self_s) in self_times(last_spans).items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, count in tracer.hits.items():
            hits[name] += count
        if is_scan:
            two_worker.append(work.run_pass(index, workers=2))
        index += 1
        round_s = perf_counter() - started

    n = len(traced)
    metrics = dict.fromkeys(per_layer_units(), 0.0)

    def layer(name: str) -> tuple[float, float]:
        calls, self_s = totals.get(name, (0, 0.0))
        return calls / n, self_s / n

    for module, function in LAYERS:
        name = f"{module}.{function}"
        calls, self_s = layer(name)
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
    for name, key in (
        ("verifier.placement_check", "hypothesis_met_ratio"),
        ("families.classify_exceptional_family", "label_ratio"),
    ):
        calls = totals.get(name, (0, 0.0))[0]
        metrics[f"{name}.{key}"] = hits[name] / calls if calls else 0.0
    main_calls, metrics["cli.main.self_s"] = layer("cli.main")
    if main_calls:
        metrics["cli.analyze.profiles_per_op"] = (
            layer("core.exceptional_profile")[0] / main_calls
        )
    metrics["scan.residual_self_s"] = layer("scan.scan_theorems")[1]
    results = [p.scan_result for p in untraced if p.scan_result is not None]
    if results:
        first = results[0]
        metrics["scan.sets_analyzed"] = first.sets_scanned
        metrics["scan.skipped_gcd"] = first.skipped_gcd
        metrics["scan.failures"] = len(first.failures)
        metrics["scan.gcd_skip_ratio"] = first.skipped_gcd / (
            first.sets_scanned + first.skipped_gcd
        )
        for b in SCAN_TIMED_B:
            metrics[f"scan.b{b}.s"] = median([r.timing[b] for r in results])
    one_worker = median([p.wall for p in untraced])
    if two_worker:
        metrics["scan.pool.wall_2w_s"] = median([p.wall for p in two_worker])
        metrics["scan.pool.overhead_s"] = metrics["scan.pool.wall_2w_s"] - one_worker / 2
    metrics["trace.overhead_frac"] = median([p.wall for p in traced]) / one_worker - 1
    write_spans(spans_path, last_spans)
    return [warm_up, *untraced, *traced, *two_worker], metrics, {"traced_passes": n}


def write_spans(path: Path, spans: list) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("index,name,start,end,parent\n")
        for index, (name, start, end, parent) in enumerate(spans):
            handle.write(f"{index},{name},{start!r},{end!r},{parent}\n")


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    OUT.mkdir(exist_ok=True)
    work = WORKLOADS[name](load_package(), seed)
    if trace:
        passes, metrics, notes = measure_per_layer(
            work, seconds, OUT / f"{name}.spans.csv.gz"
        )
        units = per_layer_units()
    else:
        passes, metrics, notes = measure_end_to_end(work, name, seed, seconds)
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        units = END_TO_END
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [line for p in passes for line in p.problems]
    env = environment()

    print(f"workload {name}  seed {seed}  trace {trace}  passes {len(passes)}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key, unit in units.items():
        print(f"  {key:<48} {metrics[key]:>14.6g} {unit}")
    if not trace:
        print(
            f"  op_tail_ms is p{notes['op_tail_percentile']:.3f} "
            f"of {notes['op_samples']} samples"
        )
        print(
            f"  times above are at the reference speed: speed factor "
            f"{notes['speed_factor']:.4f} (calibration block median "
            f"{notes['block_median_s']:.4f} s), pass times scaled by "
            f"{notes['pass_factor']:.4f}; unscaled: "
            + "  ".join(f"{k} {v:.6g}" for k, v in notes["unscaled"].items())
        )
    print(f"  ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for line in problems[:20]:
        print(f"  check failed: {line}")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "env": env, "notes": notes, "problems": problems[:100],
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    (OUT / f"{name}.trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    code = 0
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        try:
            done = subprocess.run(
                argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=seconds * 4 + 120,
            )
        except subprocess.TimeoutExpired:
            print(f"workload {name} timed out")
            code = 1
            continue
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name} printed no result (exit {done.returncode})")
            code = 1
            continue
        if done.returncode != 0 or not results[name]["correct"]:
            code = 1
    if results:
        metric_names = list(next(iter(results.values()))["metrics"])
        print()
        print(f"{'metric':<48}" + "".join(f"{w:>20}" for w in results))
        for metric in metric_names:
            row = "".join(
                f"{r['metrics'][metric]['value']:>20.6g}" for r in results.values()
            )
            unit = next(iter(results.values()))["metrics"][metric]["unit"]
            print(f"{metric:<48}{row}  {unit}")
        print(f"{'ops_failed_frac':<48}" + "".join(
            f"{r['failed'] / r['attempted']:>20.6g}" for r in results.values()))
    OUT.mkdir(exist_ok=True)
    (OUT / f"all.trace{trace}.json").write_text(
        json.dumps({"env": environment(), "seed": seed, "results": results}, indent=1)
        + "\n"
    )
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    if not (ROOT / "src" / "stampset" / "__init__.py").is_file():
        sys.stderr.write(f"stampset sources not found under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
