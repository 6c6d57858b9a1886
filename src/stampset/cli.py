"""Command line front end for single-set analysis and exhaustive scans.

Four subcommands cover the library surface:

* ``analyze <set>``: exceptional sets on both sides, per-class minimal
  elements and summand counts, the minimal threshold, and the interval
  description verdict at a chosen N.
* ``scan --bmax B --delta D``: exhaustive verification over all
  normalized sets up to B, emitting the deterministic JSON report.
* ``classify <set>``: failure-catalog families and sufficiency-family
  threshold for one set.
* ``kneser <set>``: growth of the iterated residue sumsets kB and the
  small-doubling family classification.

Sets are written as comma-separated integers ("0,3,5").  Input sets are
normalized automatically (shift by the minimum, divide by the gcd) with
a notice showing the applied (g, tau).  Exit codes: 0 success, 2 bad
input, 3 a scan contradicted the expected catalogs, 4 report I/O error,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import FiniteIntegerSet, _set_str, normalize
from .errors import (
    CatalogMismatchError,
    DegenerateSetError,
    InvalidSetError,
    TooSmallError,
)
from .families import appendix_family_threshold, classify_exceptional_family
from .modular import growth_profile, residues_mod_b, small_doubling_families
from .scan import ScanConfig, emit_report, render_report, scan_theorems
from .verifier import DEFAULT_WITNESS_CAP, _analyze

__all__ = ["main"]


def _parse_set_literal(text: str) -> tuple[int, int, FiniteIntegerSet]:
    """Parse "0,3,5" into the (g, tau) applied and the normalized set."""
    tokens = [token.strip() for token in text.split(",")]
    try:
        values = [int(token) for token in tokens]
    except ValueError:
        raise InvalidSetError(f"not a comma-separated integer list: {text!r}")
    if len(values) != len(set(values)):
        raise InvalidSetError(f"duplicate elements in {text!r}")
    return normalize(values)


def _print_notice(out, normalized: FiniteIntegerSet, g: int, tau: int) -> None:
    if g != 1 or tau != 0:
        out.write(f"normalized input to {normalized} (g={g}, tau={tau})\n")


def _cmd_analyze(args) -> int:
    g, tau, a_set = _parse_set_literal(args.set)
    n_summands = args.N if args.N is not None else max(1, a_set.b - a_set.ell)
    if n_summands < 1:
        raise InvalidSetError(f"N must be at least 1, got {n_summands}")
    analysis = _analyze(a_set)
    threshold, report, prof = analysis.threshold_and_report(n_summands, args.witness_cap)
    gaps_r = analysis.reflected_gaps

    if args.json:
        payload = {
            "set": list(a_set.elements),
            "g": g,
            "tau": tau,
            "b": a_set.b,
            "ell": a_set.ell,
            "gaps": list(prof.gaps),
            "reflected_gaps": list(gaps_r),
            "first_reachable": list(prof.first_reachable),
            "min_summands": list(prof.min_summands),
            "max_summands": prof.max_summands,
            "min_threshold": threshold,
            "holds_for_all_n": threshold == 1,
            "report": {
                "n": report.n_summands,
                "holds": report.holds,
                "witnesses": list(report.missing_witnesses),
                "witness_count": report.missing_count,
                "rhs_size": report.rhs_size,
            },
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return 0

    out = sys.stdout
    _print_notice(out, a_set, g, tau)
    out.write(f"set {a_set}  b={a_set.b}  ell={a_set.ell}\n")
    out.write(f"E(A)   = {_set_str(prof.gaps)}\n")
    out.write(f"E(b-A) = {_set_str(gaps_r)}\n")
    for a in range(1, a_set.b):
        out.write(
            f"class {a}: first reachable {prof.first_reachable_in(a)} "
            f"using {prof.min_summands_for(a)} summands\n"
        )
    out.write(f"max summands over classes: {prof.max_summands}\n")
    out.write(f"minimal threshold: {threshold}\n")
    verdict = "holds" if report.holds else "fails"
    out.write(
        f"description at N={report.n_summands}: {verdict} "
        f"(described size {report.rhs_size})\n"
    )
    if not report.holds:
        shown = ",".join(str(w) for w in report.missing_witnesses)
        out.write(
            f"missing elements ({report.missing_count} total): {shown}\n"
        )
    return 0


def _cmd_classify(args) -> int:
    g, tau, a_set = _parse_set_literal(args.set)
    out = sys.stdout
    _print_notice(out, a_set, g, tau)
    labels = classify_exceptional_family(a_set, args.delta)
    rendered = ", ".join(str(label) for label in labels) if labels else "none"
    out.write(f"set {a_set}\n")
    out.write(f"exceptional families (delta={args.delta}): {rendered}\n")
    matched = appendix_family_threshold(a_set)
    if matched is None:
        out.write("sufficiency family: none\n")
    else:
        label, threshold = matched
        out.write(f"sufficiency family: {label} holds from N={threshold}\n")
    return 0


def _cmd_kneser(args) -> int:
    g, tau, a_set = _parse_set_literal(args.set)
    out = sys.stdout
    _print_notice(out, a_set, g, tau)
    residues = residues_mod_b(a_set)
    profile = growth_profile(residues, k_max=args.kmax)
    out.write(f"residues mod {residues.modulus}: {_set_str(residues)}\n")
    for step in profile.entries:
        out.write(
            f"k={step.k}: |kB|={step.size}, stabilizer order {step.stabilizer.order}\n"
        )
    try:
        matches = small_doubling_families(a_set)
    except TooSmallError:
        out.write("doubling families: not applicable (needs ell >= 2)\n")
        return 0
    if matches:
        rendered = ", ".join(f"{m.label}(h={m.h})" for m in matches)
    else:
        rendered = "none"
    out.write(f"doubling families: {rendered}\n")
    return 0


def _cmd_scan(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be a positive integer, got '{args.jobs}'")
    config = ScanConfig(
        b_min=2,
        b_max=args.bmax,
        delta=args.delta,
        parallelism=args.jobs,
    )
    code = 0
    try:
        result = scan_theorems(config)
    except CatalogMismatchError as err:
        result = err.result
        code = 3
        sys.stderr.write(f"catalog mismatch: {err}\n")
    if args.out:
        try:
            emit_report(result, args.out)
        except OSError as err:
            sys.stderr.write(f"cannot write report: {err}\n")
            return 4
    else:
        sys.stdout.write(render_report(result))
    return code


_SET_HELP = (
    'comma-separated integers, e.g. "0,3,5"; a set that starts with a minus '
    'sign goes last, after --, as in "-- -3,0,2"'
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="stampset",
        description="structure of N-fold sumsets of finite integer sets",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="profile one set and check the interval description"
    )
    analyze.add_argument("set", help=_SET_HELP)
    analyze.add_argument("--N", type=int, default=None, help="summand count to check")
    analyze.add_argument("--json", action="store_true", help="machine-readable output")
    analyze.add_argument("--witness-cap", type=int, default=DEFAULT_WITNESS_CAP)
    analyze.set_defaults(handler=_cmd_analyze)

    scan = commands.add_parser("scan", help="verify the description exhaustively")
    scan.add_argument("--bmax", type=int, required=True, help="largest modulus")
    scan.add_argument("--delta", type=int, choices=(0, 1, 2), default=0)
    scan.add_argument("--jobs", type=int, default=1, help="worker processes")
    scan.add_argument("--out", default=None, help="write the JSON report here")
    scan.set_defaults(handler=_cmd_scan)

    classify = commands.add_parser("classify", help="match one set against catalogs")
    classify.add_argument("set", help=_SET_HELP)
    classify.add_argument("--delta", type=int, choices=(1, 2), default=1)
    classify.set_defaults(handler=_cmd_classify)

    kneser = commands.add_parser("kneser", help="growth of residue sumsets kB")
    kneser.add_argument("set", help=_SET_HELP)
    kneser.add_argument("--kmax", type=int, default=None)
    kneser.set_defaults(handler=_cmd_kneser)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InvalidSetError, DegenerateSetError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (OverflowError, MemoryError):
        sys.stderr.write("error: input too large for exact arithmetic\n")
        return 2
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return 130
