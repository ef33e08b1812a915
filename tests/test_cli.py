import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from primecycles import exact_enum, verify
from primecycles.analytic import PhiSplitSums
from primecycles.cli import main, parse_spec
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import InvalidArgumentError
from primecycles.exact_enum import build_table
from primecycles.primes import SEGMENT_SIZE, NthPrimes, build_sieve, nth_primes
from primecycles.sampler import Sampler
from primecycles.verify import PhiEstimateRow, parse_report


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_spec_forms(sieve_small):
    assert parse_spec("primes", sieve_small).kind == "primes"
    assert parse_spec("all").describe() == "all"
    assert parse_spec("odd").describe() == "mod:2:1"
    assert parse_spec("even").describe() == "mod:2:0"
    assert parse_spec("mod:5:1,4").describe() == "mod:5:1,4"
    assert parse_spec("set:2,3,10").describe() == "set:2,3,10"
    single = parse_spec("set:7")
    assert single.steps == (7,) and single.period is None
    assert single.contains(7)
    for bad in ("primes",):
        with pytest.raises(InvalidArgumentError):
            parse_spec(bad)  # no sieve table supplied
    for bad in ("bogus", "mod:5", "mod:a:1", "set:x", "mod:1:2"):
        with pytest.raises(InvalidArgumentError):
            parse_spec(bad)


def test_count_exact(capsys):
    rc, out, err = run(capsys, "count", "--n", "5")
    assert rc == 0 and out == "44\n" and err == ""
    rc, out, _ = run(capsys, "count", "--n", "6")
    assert rc == 0 and out == "55\n"
    rc, out, _ = run(capsys, "count", "--spec", "odd", "--n", "6")
    assert rc == 0 and out == "225\n"
    rc, out, _ = run(capsys, "count", "--spec", "all", "--n", "10")
    assert rc == 0 and out == f"{math.factorial(10)}\n"


def test_count_float(capsys):
    rc, out, _ = run(capsys, "count", "--mode", "float", "--n", "5")
    assert rc == 0 and out == "44\n"
    rc, out, _ = run(capsys, "count", "--mode", "float", "--n", "2000")
    assert rc == 0
    mant, _, exp = out.strip().partition("e+")
    assert 1.0 <= float(mant) < 10.0 and int(exp) > 300


def test_count_float_past_the_largest_double_factorial(capsys):
    # 200! is beyond every double, P_200 of set:1,2 (about 3.7e192) is not
    rc, out, err = run(capsys, "count", "--spec", "set:1,2", "--mode", "float",
                       "--n", "200")
    assert rc == 0 and err == ""
    exact = exact_enum.count_exact(CycleClassSpec.explicit((1, 2)), 200)
    assert abs(float(out) / exact - 1.0) <= 1e-10


def test_count_domain_error(capsys):
    rc, out, err = run(capsys, "count", "--n", "3000")
    assert rc == 1 and out == ""
    assert err.startswith("error:")


def test_sample_large_n_keeps_structural_zeros(capsys):
    # 20002 is not a multiple of 3, so no such permutation exists
    rc, out, err = run(capsys, "sample", "--spec", "mod:3:0", "--n", "20002",
                       "--seed", "1")
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "no permutation" in err


def test_float_underflow_is_refused(capsys):
    # a_400 = 1/(2^200 200!) for set:2 is below the smallest double
    rc, out, err = run(capsys, "count", "--spec", "set:2", "--mode", "float",
                       "--n", "400")
    assert rc == 1 and out == "" and err.startswith("error:")
    # beyond the exact cap, sample has only the float table to draw from
    rc, out, err = run(capsys, "sample", "--spec", "set:2", "--n", "2002",
                       "--seed", "1")
    assert rc == 1 and out == "" and "underflow" in err


def test_sample_explicit_set_uses_exact_table(capsys):
    rc, out, err = run(capsys, "sample", "--spec", "set:2", "--n", "400",
                       "--seed", "1")
    assert rc == 0 and err == ""
    assert out == ",".join(["2"] * 200) + "\n"


def test_sample_honours_exact_cap(capsys):
    # a raised --exact-cap gives set:2 an exact table past the default cap
    rc, out, err = run(capsys, "sample", "--spec", "set:2", "--n", "2100",
                       "--exact-cap", "3000", "--seed", "1")
    assert rc == 0 and err == ""
    assert out == ",".join(["2"] * 1050) + "\n"
    # a lowered one leaves it the float table, which underflows at a_400
    rc, out, err = run(capsys, "sample", "--spec", "set:2", "--n", "400",
                       "--exact-cap", "100", "--seed", "1")
    assert rc == 1 and out == "" and "underflow" in err


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "count")[0] == 2
    assert run(capsys, "count", "--n", "-3")[0] == 2
    assert run(capsys, "count", "--fast", "--n", "5")[0] == 2
    assert run(capsys, "count", "--sieve-limit", "200", "--n", "5")[0] == 2
    for argv in (("count", "--n", "5"), ("table", "--n-max", "5"),
                 ("sum", "--n", "5"), ("sample", "--n", "5", "--seed", "1")):
        rc, out, err = run(capsys, *argv, "--spec", "bogus")
        assert rc == 2 and out == "" and "bogus" in err
    assert run(capsys, "count", "--spec", "mod:a:1", "--n", "5")[0] == 2
    assert run(capsys, "table", "--n-max", "6", "--mode", "both")[0] == 2
    assert run(capsys, "sample", "--n", "0", "--seed", "1")[0] == 2
    assert run(capsys, "sample", "--n", "5", "--seed", "1",
               "--count", "0")[0] == 2
    for argv in (("constants", "--k-max", "5"),
                 ("constants", "--method", "direct", "--limit", "1"),
                 ("count", "--n", "5", "--exact-cap", "-1"),
                 ("verify", "--which", "partial-sum", "--n-grid", "1,100")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and "must be >=" in err
    rc, out, err = run(capsys, "verify", "--which", "phi", "--t-grid", "0.5")
    assert rc == 2 and out == "" and "t must lie in" in err
    assert run(capsys)[0] == 2


def test_help(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "count" in out and "verify" in out


def test_constants_json(capsys):
    rc, out, _ = run(capsys, "constants")
    assert rc == 0
    blob = json.loads(out)
    assert set(blob) == {"euler_gamma", "mertens_c", "e_to_c",
                         "method", "tail_bound"}
    assert blob["mertens_c"] == pytest.approx(0.26149721284764278, abs=1e-14)
    assert blob["e_to_c"] == pytest.approx(1.2988733214090304, rel=1e-14)
    assert "prime-zeta" in blob["method"]


def test_constants_direct(capsys):
    rc, out, _ = run(capsys, "constants", "--method", "direct",
                     "--limit", "100000")
    assert rc == 0
    blob = json.loads(out)
    assert blob["mertens_c"] == pytest.approx(0.26149721284764278, abs=2e-5)
    assert blob["tail_bound"] == pytest.approx(1e-5, rel=1e-3)
    assert "direct" in blob["method"]


def test_constants_direct_builds_no_prime_table(capsys):
    # the direct sum streams its primes one segment at a time: 6 MB traced
    # peak, against 30 MB for a sieve to 10^7 and its index
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, "constants", "--method", "direct",
                         "--limit", "10000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    blob = json.loads(out)
    assert abs(blob["mertens_c"] - 0.26149721284764278) <= blob["tail_bound"]
    assert peak < 10 * 2**20


def test_sum(capsys):
    rc, out, _ = run(capsys, "sum", "--n", "5")
    assert rc == 0 and out == "93/40\n"
    rc, out, _ = run(capsys, "sum", "--n", "5", "--mode", "float")
    assert rc == 0 and out == "2.3250000000000002\n"
    rc, out, _ = run(capsys, "sum", "--spec", "all", "--n", "10")
    assert rc == 0 and out == "11\n"


def test_table_stdout(capsys):
    rc, out, _ = run(capsys, "table", "--n-max", "6")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,P_n,a_n,T_n"
    assert lines[1] == "0,1,1,1"
    assert lines[6] == "5,44,0.36666666666666664,2.3250000000000002"


def test_table_to_an_unwritable_path(tmp_path, capsys):
    dest = tmp_path / "missing" / "t.csv"
    rc, out, err = run(capsys, "table", "--n-max", "5", "--out", str(dest))
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "No such file" in err


def test_table_file(tmp_path, capsys):
    dest = tmp_path / "t.csv"
    rc, out, _ = run(capsys, "table", "--n-max", "6", "--mode", "float",
                     "--out", str(dest))
    assert rc == 0 and out == ""
    lines = dest.read_text().splitlines()
    assert lines[0] == "n,a_n,T_n"
    assert len(lines) == 8


def test_sample_deterministic(capsys):
    rc, out1, _ = run(capsys, "sample", "--n", "5", "--seed", "42",
                      "--count", "3")
    assert rc == 0
    rc, out2, _ = run(capsys, "sample", "--n", "5", "--seed", "42",
                      "--count", "3")
    assert out1 == out2
    lines = out1.splitlines()
    assert len(lines) == 3
    sieve = build_sieve(1000)
    for line in lines:
        ks = [int(v) for v in line.split(",")]
        assert sum(ks) == 5
        assert all(sieve.is_prime(k) for k in ks)


def test_sample_matches_library(capsys):
    rc, out, _ = run(capsys, "sample", "--n", "50", "--seed", "7",
                     "--count", "2")
    assert rc == 0
    spec = CycleClassSpec.primes(build_sieve(1000))
    sam = Sampler(build_table(spec, 50, mode="exact"), 7)
    expect = [",".join(str(k) for k in sam.sample(50).lengths)
              for _ in range(2)]
    assert out.splitlines() == expect


def test_phi_outputs(capsys):
    rc, out, _ = run(capsys, "phi", "--z", "0.5")
    assert rc == 0 and out == "0.17408707176097937\n"
    rc, out, _ = run(capsys, "phi", "--z", "0.5", "--f")
    assert rc == 0 and float(out) == pytest.approx(1.190159190565471, rel=1e-13)
    rc, out, _ = run(capsys, "phi", "--z", "0.5", "--order", "2")
    assert rc == 0 and float(out) == pytest.approx(2.713526991405582, rel=1e-13)
    rc, out, _ = run(capsys, "phi", "--split", "--t", "0.001")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,cutoff,phi1,phi2,phi3"
    t, cutoff, p1, p2, p3 = (float(v) for v in lines[1].split(","))
    assert t == 0.001 and p1 > 0 > p2 and p3 > 0
    from primecycles.analytic import phi_eval
    assert p1 + p2 + p3 == pytest.approx(phi_eval(math.exp(-0.001)), abs=1e-9)


def test_phi_errors(capsys):
    rc, _, err = run(capsys, "phi", "--z", "1.0")
    assert rc == 1 and err.startswith("error:")
    assert run(capsys, "phi")[0] == 2
    assert run(capsys, "phi", "--split")[0] == 2
    rc, _, err = run(capsys, "phi", "--split", "--t", "0.5")
    assert rc == 1 and err.startswith("error:")
    # below the split's floor the error names t and its bound, not z
    rc, _, err = run(capsys, "phi", "--split", "--t", "1e-12")
    assert rc == 1 and err.startswith("error: t must lie in")
    assert "1.0000000005000001e-09" in err and "z must" not in err


@pytest.mark.parametrize("argv", [
    ("--z", "0.5", "--f", "--order", "2"),
    ("--z", "0.5", "--order", "2", "--split", "--t", "0.001"),
    ("--z", "0.5", "--f", "--split", "--t", "0.001"),
], ids=["f-order", "order-split", "f-split"])
def test_phi_modes_are_exclusive(capsys, argv):
    rc, out, err = run(capsys, "phi", *argv)
    assert rc == 2 and out == "" and "not allowed with" in err


@pytest.mark.parametrize("argv, message", [
    (("--z", "0.5", "--split", "--t", "0.001"), "--split takes --t, not --z"),
    (("--z", "0.5", "--t", "0.001"), "--t is read only with --split"),
], ids=["z-with-split", "t-without-split"])
def test_phi_refuses_an_option_its_mode_ignores(capsys, argv, message):
    rc, out, err = run(capsys, "phi", *argv)
    assert rc == 2 and out == "" and message in err


def test_verify_ok_paths(capsys):
    rc, out, err = run(capsys, "verify", "--which", "partial-sum",
                       "--n-grid", "100,1000")
    assert rc == 0 and err == ""
    assert out == "partial-sum: ok\n"
    rc, out, _ = run(capsys, "verify", "--which", "slowvar")
    assert rc == 0 and out == "slowvar: ok\n"
    rc, out, _ = run(capsys, "verify", "--which", "phi",
                     "--t-grid", "0.001,0.0001")
    assert rc == 0 and out == "phi: ok\n"
    rc, out, _ = run(capsys, "verify", "--which", "pnt")
    assert rc == 0 and out == "pnt: ok\n"


def test_verify_pnt_builds_no_prime_table(capsys):
    # p_k comes from the prime stream, one segment at a time: 4.6 MB traced
    # peak, against 32 MB for a sieve to 1.2 * 10^6 ln 10^6 and its index
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, "verify", "--which", "pnt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0 and out == "pnt: ok\n"
    assert peak < 10 * 2**20


def test_verify_reads_the_primes_once_for_phi_and_pnt(tmp_path, capsys,
                                                      record_streams):
    # the bench grids: one stream, to the phi limit, feeds the count
    # table's members, the hlk model's four series and the phi and pnt
    # checks, whose limits all lie below it
    prefix = tmp_path / "bench"
    rc, out, _ = run(capsys, "verify", "--n-grid", "100,1000,10000,50000",
                     "--t-grid", "1e-4,1e-5,1e-6,3e-7", "--out", str(prefix))
    assert rc == 0 and "phi: ok" in out and "pnt: ok" in out
    phi_limit = PhiSplitSums((1e-4, 1e-5, 1e-6, 3e-7)).limit
    pnt_limit = NthPrimes(verify.PNT_GRID_DEFAULT).limit
    assert phi_limit > pnt_limit
    assert record_streams == [[phi_limit, phi_limit // SEGMENT_SIZE + 1]]
    rows = parse_report(str(prefix) + "-pnt.csv", "csv")
    assert [r.exact for r in rows] == nth_primes(verify.PNT_GRID_DEFAULT)
    rows = parse_report(str(prefix) + "-phi.csv", "csv", PhiEstimateRow)
    assert [r.t for r in rows] == [1e-4, 1e-5, 1e-6, 3e-7]


def test_verify_detects_departure(capsys):
    # at n = 4 and 6 the partial sum is nowhere near its n -> inf model
    rc, out, err = run(capsys, "verify", "--which", "hlk",
                       "--n-grid", "4,6")
    assert rc == 1
    assert "hlk: FAIL" in out
    assert "failed checks: hlk" in err


def test_verify_emits_reports(tmp_path, capsys):
    prefix = tmp_path / "rep"
    rc, _, _ = run(capsys, "verify", "--which", "partial-sum",
                   "--n-grid", "100,1000", "--format", "json",
                   "--out", str(prefix))
    assert rc == 0
    rows = parse_report(str(prefix) + "-partial-sum.json", "json")
    assert [r.x for r in rows] == [100.0, 1000.0]


def test_verify_bad_grid(capsys):
    # a grid entry out of range is a usage error
    rc, out, err = run(capsys, "verify", "--which", "partial-sum",
                       "--n-grid", "1,10")
    assert rc == 2 and out == "" and "must be >= 2, got 1" in err


@pytest.mark.parametrize("argv, message", [
    (("--which", "partial-sum", "--n-grid", "1,3000000"),
     "error: argument --n-grid: grid entries must be >= 2, got 1\n"),
    (("--which", "hlk", "--n-grid", "-5"),
     "error: argument --n-grid: grid entries must be >= 2, got -5\n"),
    (("--t-grid", "1e-3,1e-12"), "error: argument --t-grid: t must lie in"),
], ids=["n-grid-small-entry", "n-grid-negative", "t-grid-out-of-domain"])
def test_verify_refuses_a_bad_grid_before_any_work(capsys, monkeypatch,
                                                   argv, message):
    # a bad grid entry is a usage error, found as the arguments are parsed
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the grids were checked")

    monkeypatch.setattr(verify, "build_table", refuse)
    monkeypatch.setattr(verify, "iter_prime_blocks", refuse)
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 2 and out == ""
    assert "primecycles verify: " + message in err


def test_verify_bench_grids_print_the_lines_the_benchmark_parses(capsys):
    # the benchmark's verify workload fails a pass whose "name: value" lines
    # are not exactly these five, each "ok"
    rc, out, err = run(capsys, "verify", "--n-grid", "100,1000,10000,50000",
                       "--t-grid", "1e-4,1e-5,1e-6,3e-7")
    assert rc == 0 and err == ""
    assert out == ("partial-sum: ok\nhlk: ok\nphi: ok\npnt: ok\n"
                   "slowvar: ok\n")


def test_verify_to_an_unwritable_prefix(tmp_path, capsys):
    prefix = tmp_path / "missing" / "p"
    rc, out, err = run(capsys, "verify", "--which", "pnt", "--out", str(prefix))
    assert rc == 1 and out == "pnt: ok\n"
    assert err.startswith("error:") and "No such file" in err


def test_module_entry_point():
    # the child imports the package from this checkout's src, as pytest does
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "primecycles.cli", "count", "--n", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "44\n"


def test_package_entry_point():
    # python -m primecycles runs the same command line as primecycles.cli
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "primecycles", "phi", "--z", "0.5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "0.17408707176097937\n"
