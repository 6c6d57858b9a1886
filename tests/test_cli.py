from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from itertools import chain, islice

import pytest

from stampset import FiniteIntegerSet, exceptional_profile
from stampset.cli import _build_parser, main
from stampset.scan import enumerate_sets
from stampset.verifier import check_structure, min_threshold

from oracles import normalized_sets


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_motivating_example(capsys):
    code, out, _ = run_cli(capsys, "analyze", "0,3,5")
    assert code == 0
    assert "E(A)   = {1,2,4,7}" in out
    assert "E(b-A) = {1,3}" in out
    assert "minimal threshold: 1" in out
    assert "holds" in out


def test_analyze_failing_set_lists_witnesses(capsys):
    code, out, _ = run_cli(capsys, "analyze", "0,1,5,6", "--N", "3")
    assert code == 0
    assert "fails" in out
    assert "missing elements (3 total): 4,9,14" in out


def test_analyze_normalization_notice(capsys):
    code, out, _ = run_cli(capsys, "analyze", "6,12,21")
    assert code == 0
    assert "normalized input to {0,2,5} (g=3, tau=6)" in out


def test_set_starting_with_a_minus_sign_goes_after_double_dash(capsys):
    # argparse reads "-3,0,2" as an option, so the positional set is missing
    with pytest.raises(SystemExit) as exited:
        main(["analyze", "-3,0,2"])
    assert exited.value.code == 2
    assert "the following arguments are required: set" in capsys.readouterr().err
    notice = "normalized input to {0,3,5} (g=1, tau=-3)\n"
    for argv in (
        ("analyze", "--", "-3,0,2"),
        ("analyze", "--N", "2", "--", "-3,0,2"),
        ("classify", "--", "-3,0,2"),
        ("kneser", "--kmax", "2", "--", "-3,0,2"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith(notice), argv
    for command in ("analyze", "classify", "kneser"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert '"-- -3,0,2"' in " ".join(capsys.readouterr().out.split()), command


def test_analyze_rejects_bad_literals(capsys):
    assert run_cli(capsys, "analyze", "0,0,5")[0] == 2
    assert run_cli(capsys, "analyze", "0,x,5")[0] == 2
    assert run_cli(capsys, "analyze", "5")[0] == 2
    assert run_cli(capsys, "analyze", "0,3,5", "--N", "0")[0] == 2
    assert run_cli(capsys, "analyze", "0,1,5,6", "--witness-cap", "0")[0] == 2
    # a mask of about b**2 bits cannot even be asked for; nothing is allocated
    code, out, err = run_cli(capsys, "analyze", "99999999999999999999,0,1")
    assert (code, out) == (2, "")
    assert err == "error: input too large for exact arithmetic\n"


def test_analyze_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "0,1,5,6", "--json")
    assert code == 0
    first = json.loads(out)
    assert first["min_threshold"] == 4
    assert first["gaps"] == []

    literal = ",".join(str(x) for x in first["set"])
    code, out, _ = run_cli(capsys, "analyze", literal, "--json")
    assert code == 0
    second = json.loads(out)
    for key in (
        "set",
        "b",
        "ell",
        "gaps",
        "reflected_gaps",
        "first_reachable",
        "min_summands",
        "max_summands",
        "min_threshold",
        "holds_for_all_n",
        "report",
    ):
        assert first[key] == second[key], key


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("0,1,60",
         "ffd88165259b6f92800ec6b5c4b59c48129f1db5e843ea44d7a7ddb8df370685"),
        ("0,13,97",
         "2077b0e36cdd9f7867d4274308d0ff01453b1511f53b5319ee2c7db879e7c005"),
        ("0,57,182",
         "dcbf1245b57f0deb56c6108aa1c4ff067a307d6636e404948e0eea83224e85a8"),
        ("0,5,11,123",
         "0aa4ee13c4fbed3a3298339256473000391e0ade8bde8edd1b348c67c21dd1bb"),
        ("0,100,101,400",
         "aa8f52928e7649b4f917fe7df414b61a0edcd906522465f12ecc165162a6ee13"),
        ("0,7,60,800",
         "eedd7f4502e75ba769c5d4759beb9b0c5c8a66106cb8deaa59dd4ca629fa82db"),
        ("0,3,40,77,150",
         "330bc4850124fefe6017c0b320026fcd46def1f9663e295cb8bd0aa8f8e6abd5"),
        ("0,2,9,31,64,211",
         "b42fc6c292772e4e833f64580181558c56b3b7705f91caa56704ee1e35a93906"),
        ("0,1,59,60,61,120",
         "c620527f04d72a252cef6c8d82779a89b964d5be54b5d9bb964965978369f470"),
        ("0,1,99,100 --N 50",
         "e437a7751b00910b92c906248d43747675843a9e4d9aba30424339f4905d8d3b"),
        ("0,2,3,97,140 --N 20 --witness-cap 3",
         "ae9ab7af27dd2a6fe0f2a2980253c670aa2bdf53180d88f0f2676820e9593374"),
        ("0,7,60,800 --N 68",
         "eef87a28a8a35e4d7e219ebd94dd9b6b7bc20aa01844d499a4b96c147ffa9832"),
        ("0,57,182 --N 400",
         "6eed7e79bfe1fad0cfe4f63fe801f506debd114a6a290b1054d592f3e524e3c3"),
    ],
)
def test_analyze_json_bytes_are_pinned(capsys, argv, digest):
    # b from 60 to 800 and ell from 1 to 4, some at an N where the description fails
    code, out, _ = run_cli(capsys, "analyze", *argv.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_main_reuses_one_parser_without_leaking_state(capsys):
    first = run_cli(capsys, "analyze", "0,1,5,6", "--json")
    assert first[0] == 0
    assert run_cli(capsys, "analyze", "0,x,5", "--N", "3", "--witness-cap", "1")[0] == 2
    code, out, _ = run_cli(capsys, "scan", "--bmax", "5")
    assert code == 0
    json.loads(out)
    assert run_cli(capsys, "analyze", "0,1,5,6", "--json") == first
    assert _build_parser() is _build_parser()


def test_analyze_report_matches_check_structure(capsys):
    # every set with b <= 8, and every 37th set with ell <= 2 and b <= 40
    small = chain.from_iterable(enumerate_sets(b) for b in range(2, 9))
    sparse = islice(map(FiniteIntegerSet, normalized_sets(range(9, 41), ell_max=2)), 0, None, 37)
    for a_set in chain(small, sparse):
        literal = ",".join(map(str, a_set.elements))
        threshold = min_threshold(a_set)
        guaranteed = a_set.b - a_set.ell
        anchor = max(guaranteed, exceptional_profile(a_set).max_summands)
        for n in sorted({1, threshold - 1, guaranteed, anchor, anchor + 3} - {0}):
            code, out, _ = run_cli(capsys, "analyze", literal, "--json", "--N", str(n))
            assert code == 0
            payload = json.loads(out)
            expected = check_structure(a_set, n)
            assert payload["min_threshold"] == threshold, (a_set, n)
            assert payload["report"] == {
                "n": n,
                "holds": expected.holds,
                "witnesses": list(expected.missing_witnesses),
                "witness_count": expected.missing_count,
                "rhs_size": expected.rhs_size,
            }, (a_set, n)


def test_scan_stdout_json(capsys):
    code, out, err = run_cli(capsys, "scan", "--bmax", "8", "--delta", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["catalog_mismatches"] == []
    assert payload["sets_scanned"] > 0
    assert payload["failures"]
    assert all(record["labels"] for record in payload["failures"])


def test_scan_writes_report_file(capsys, tmp_path):
    destination = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "scan", "--bmax", "6", "--delta", "0", "--out", str(destination)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(destination.read_text(encoding="utf-8"))
    assert payload["failures"] == []


def test_scan_bad_destination_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "scan",
        "--bmax",
        "4",
        "--out",
        str(tmp_path / "no" / "dir" / "r.json"),
    )
    assert code == 4
    assert "cannot write report" in err


def test_scan_catalog_mismatch_exit_code(capsys, tmp_path):
    destination = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys,
        "scan",
        "--bmax",
        "9",
        "--delta",
        "2",
        "--out",
        str(destination),
    )
    assert code == 3
    assert "catalog mismatch" in err
    payload = json.loads(destination.read_text(encoding="utf-8"))
    assert payload["catalog_mismatches"]


@pytest.mark.parametrize("delta, expected_code", [("1", 0), ("2", 3)])
def test_scan_report_file_holds_the_printed_bytes(capsys, tmp_path, delta, expected_code):
    # delta 2 exits 3 on the known catalog gap, with or without --out
    destination = tmp_path / "report.json"
    argv = ("scan", "--bmax", "9", "--delta", delta)
    printed_code, printed, _ = run_cli(capsys, *argv)
    written_code, out, _ = run_cli(capsys, *argv, "--out", str(destination))
    assert printed_code == written_code == expected_code
    assert out == ""
    assert destination.read_bytes() == printed.encode("utf-8")


def test_scan_worker_count_is_set_by_jobs_alone(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "scan", "--bmax", "6", "--jobs", "2")
    assert code == 0
    json.loads(out)

    code, _, err = run_cli(capsys, "scan", "--bmax", "3", "--jobs", "0")
    assert code == 2
    assert "--jobs must be a positive integer" in err

    # the environment does not choose the worker count
    monkeypatch.setenv("SUMSET_JOBS", "x")
    code, out, _ = run_cli(capsys, "scan", "--bmax", "3")
    assert code == 0
    json.loads(out)


def test_scan_rejects_bad_bmax(capsys):
    assert run_cli(capsys, "scan", "--bmax", "1")[0] == 2


def test_classify_reports_families(capsys):
    code, out, _ = run_cli(capsys, "classify", "0,1,4,5,6")
    assert code == 0
    assert "exceptional families (delta=1): F2(a=3)" in out

    code, out, _ = run_cli(capsys, "classify", "0,2,4,7")
    assert code == 0
    assert "exceptional families (delta=1): none" in out
    assert "sufficiency family: A1(a=2) holds from N=1" in out

    code, out, _ = run_cli(capsys, "classify", "0,1,2,6,7,8,9,10", "--delta", "2")
    assert code == 0
    assert "G3" in out


def test_kneser_prints_growth_and_families(capsys):
    code, out, _ = run_cli(capsys, "kneser", "0,1,6,7")
    assert code == 0
    assert "residues mod 7: {0,1,6}\n" in out
    assert "k=1: |kB|=3, stabilizer order 1" in out
    assert "k=2: |kB|=5" in out
    assert "doubling families: K3(h=1)" in out

    code, out, _ = run_cli(capsys, "kneser", "0,3,5")
    assert code == 0
    assert "not applicable" in out

    code, out, _ = run_cli(capsys, "kneser", "0,1,2,4")
    assert code == 0
    assert out.endswith("doubling families: none\n")


def test_kneser_respects_kmax(capsys):
    code, out, _ = run_cli(capsys, "kneser", "0,1,9", "--kmax", "2")
    assert code == 0
    assert "k=2:" in out
    assert "k=3:" not in out


def test_module_entry_point_subprocess(package_env):
    completed = subprocess.run(
        [sys.executable, "-m", "stampset", "analyze", "0,3,5"],
        capture_output=True,
        text=True,
        env=package_env,
        timeout=60,
    )
    assert completed.returncode == 0
    assert "E(A)   = {1,2,4,7}" in completed.stdout


def test_import_and_one_worker_scan_load_no_pool_machinery(package_env):
    # -I -S as in bench/cold_setup.py: the package path comes in as arguments
    code = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import stampset, stampset.cli\n"
        "stampset.scan_theorems(stampset.ScanConfig(2, 8))\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, *package_env["PYTHONPATH"].split(os.pathsep)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "[]\n"


def test_scan_interrupt_shuts_the_pool_down_cleanly(package_env):
    # Ctrl-C signals the whole foreground process group: parent and workers
    process = subprocess.Popen(
        [sys.executable, "-m", "stampset", "scan", "--bmax", "22", "--jobs", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=package_env,
        start_new_session=True,
    )
    try:
        time.sleep(2)
        os.killpg(process.pid, signal.SIGINT)
        _, err = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    assert process.returncode == 130
    assert err == "interrupted\n"
