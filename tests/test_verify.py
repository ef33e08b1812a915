import ast
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from primecycles import analytic, primes
from primecycles import verify as verify_module
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import InvalidArgumentError, ResourceLimitError
from primecycles.exact_enum import (
    FLOAT_CAP_DEFAULT,
    build_table,
    partial_sum,
    partial_sums,
)
from primecycles.primes import (
    NthPrimes,
    PrimesUpTo,
    feed_primes,
    iter_prime_blocks,
    nth_primes,
)
from primecycles.verify import (
    CHECK_NAMES,
    CHECKS,
    HLK_RATIO_BOUND,
    N_GRID_DEFAULT,
    PARTIAL_SUM_RESIDUAL_BOUND,
    PHI_SAFETY_FACTOR,
    T_GRID_DEFAULT,
    ConvergenceRow,
    Check,
    PhiEstimateRow,
    Verdict,
    emit_report,
    hlk_comparison_table,
    hlk_verdict,
    make_row,
    parse_report,
    partial_sum_table,
    partial_sum_verdict,
    phi_estimate_table,
    phi_verdict,
    pnt_table,
    pnt_verdict,
    run_verify,
    slow_variation_check,
)

ALL = CycleClassSpec.all_lengths()
BENCH_N_GRID = (100, 1000, 10_000, 50_000)
BENCH_T_GRID = (1e-4, 1e-5, 1e-6, 3e-7)


def test_make_row():
    r = make_row(10, 3.0, 2.0, 0.25)
    assert r == ConvergenceRow(x=10.0, exact=3.0, model=2.0,
                               ratio=1.5, scaled_residual=0.25)


def test_partial_sum_rows(float_table_1e5, constants):
    rows = partial_sum_table(float_table_1e5, (100, 1000, 10_000), constants)
    assert [r.x for r in rows] == [100.0, 1000.0, 10_000.0]
    for r in rows:
        n = int(r.x)
        assert r.exact == partial_sum(float_table_1e5, n)
        assert r.model == constants.e_to_c * math.log(n)
        assert r.ratio == r.exact / r.model
        expected = (r.exact / math.log(n) - constants.e_to_c) \
            * math.log(math.log(n))
        assert r.scaled_residual == expected
        assert abs(r.scaled_residual) <= PARTIAL_SUM_RESIDUAL_BOUND
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios)
    assert all(0.8 < q < 1.0 for q in ratios)


def test_partial_sum_table_validation(float_table_1e5, constants,
                                     refuses_non_integers):
    all_tab = build_table(ALL, 100, "float")
    with pytest.raises(InvalidArgumentError):
        partial_sum_table(all_tab, (10,), constants)
    with pytest.raises(InvalidArgumentError):
        partial_sum_table(float_table_1e5, (1, 10), constants)
    for table in (partial_sum_table, hlk_comparison_table):
        refuses_non_integers(
            lambda n: table(float_table_1e5, (10, n), constants))
        assert (table(float_table_1e5, (np.int64(10),), constants)
                == table(float_table_1e5, (10,), constants))


def test_tables_take_the_grid_sums(float_table_1e5, constants):
    grid = (1000, 100, 10_000)
    sums = partial_sums(float_table_1e5, grid)
    for table in (partial_sum_table, hlk_comparison_table):
        rows = table(float_table_1e5, grid, constants)
        assert [r.x for r in rows] == list(grid)
        assert [r.exact for r in rows] == sums


def test_run_verify_refuses_bad_arguments(monkeypatch, refuses_non_integers):
    with pytest.raises(InvalidArgumentError, match="nonempty"):
        run_verify((), T_GRID_DEFAULT, ("partial-sum",))
    with pytest.raises(InvalidArgumentError, match="unknown checks"):
        run_verify(N_GRID_DEFAULT, T_GRID_DEFAULT, ("partial-sum", "bogus"))

    # an empty t grid would leave phi nothing to judge; it is refused before
    # any table is built or any prime streamed
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the t grid was checked")

    for name in ("build_table", "iter_prime_blocks"):
        monkeypatch.setattr(verify_module, name, refuse)
    for which in (("phi", "pnt"), ("partial-sum", "phi")):
        with pytest.raises(InvalidArgumentError, match="t grid must be nonempty"):
            run_verify((100,), (), which)
        with pytest.raises(InvalidArgumentError, match="t grid must be nonempty"):
            run_verify((100,), iter(()), which)
    # so is an n past the float table's cap, which the stream would reach
    # long before the table refused it
    for which in (("partial-sum",), ("hlk",)):
        with pytest.raises(ResourceLimitError, match="float n_max"):
            run_verify((100, FLOAT_CAP_DEFAULT + 1), T_GRID_DEFAULT, which)
    # so is an n that is not an integer
    for which in (("partial-sum",), ("hlk",)):
        refuses_non_integers(
            lambda n: run_verify((100 * n, 1000), T_GRID_DEFAULT, which))


def test_run_verify_sieves_to_the_largest_grid_entry(monkeypatch, constants):
    # the count table's members come off the shared stream, cut at
    # max(n_grid)
    limits = []

    class Recording(primes.PrimesUpTo):
        def __init__(self, limit):
            limits.append(limit)
            super().__init__(limit)

    # and the two checks share the one float count table built from them
    built = []

    def building(*args, **kwargs):
        built.append(args[1:])
        return build_table(*args, **kwargs)

    monkeypatch.setattr(verify_module, "PrimesUpTo", Recording)
    monkeypatch.setattr(verify_module, "build_table", building)
    run = run_verify((300, 100), T_GRID_DEFAULT, ("partial-sum", "hlk"))
    assert limits == [300]
    assert built == [(300,)]
    # the tables read no member past max(n_grid), so a longer sieve gives
    # the same rows; the hlk model's series, read off the shared stream,
    # is the double odlyzko_sum_model sums on its own
    longer = build_table(CycleClassSpec.primes(primes.build_sieve(1000)), 300,
                         "float")
    assert run.tables == {
        "partial-sum": partial_sum_table(longer, (300, 100), constants),
        "hlk": hlk_comparison_table(longer, (300, 100), constants)}


def test_run_verify_streams_the_primes_once(record_streams):
    # the bench grids: every check reads its primes off one stream, to the
    # largest limit of its readers, the phi grid's
    run = run_verify(BENCH_N_GRID, BENCH_T_GRID, CHECK_NAMES)
    assert all(v.reason is None for v in run.verdicts)
    limit = analytic.PhiSplitSums(BENCH_T_GRID).limit
    assert record_streams == [[limit, limit // primes.SEGMENT_SIZE + 1]]
    assert limit <= 1.03e8


def test_bench_keeps_the_check_names_of_the_records():
    # perfbench/workloads.py keeps its own copy of the names, VERIFY_CHECKS,
    # and fails a verify pass whose names differ from it; read the copy
    # with ast, without importing the bench, until the bench reads ours
    source = (Path(__file__).resolve().parent.parent / "perfbench"
              / "workloads.py").read_text()
    values = [node.value for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["VERIFY_CHECKS"]]
    assert len(values) == 1
    assert ast.literal_eval(values[0]) == CHECK_NAMES


def test_dropping_a_record_leaves_the_other_checks_as_they_were(monkeypatch):
    # deleting slowvar is deleting its record: the other four run as before
    whole = run_verify(BENCH_N_GRID, BENCH_T_GRID, CHECK_NAMES)
    kept = tuple(check for check in CHECKS if check.name != "slowvar")
    monkeypatch.setattr(verify_module, "CHECKS", kept)
    rest = run_verify(BENCH_N_GRID, BENCH_T_GRID, [c.name for c in kept])
    assert rest.verdicts == tuple(
        v for v in whole.verdicts if v.name != "slowvar")
    assert len(rest.verdicts) == 4
    assert rest.tables == whole.tables
    with pytest.raises(InvalidArgumentError, match="unknown checks"):
        run_verify(BENCH_N_GRID, BENCH_T_GRID, ("slowvar",))


def test_a_new_record_reads_the_one_stream(monkeypatch, record_streams):
    # a record that brings its own accumulator is fed from the stream the
    # other checks read; here the stream runs to the stub's limit, twice
    # the phi grid's, so its table holds pi(limit) and the last prime
    t_grid = BENCH_T_GRID[:2]
    limit = 2 * analytic.PhiSplitSums(t_grid).limit

    def stub_rows(run, found):
        return [make_row(limit, found.prime_count(limit), found.primes()[-1],
                         0.0)]

    stub = Check("stub", lambda rows: Verdict("stub", None, None, None),
                 readers=lambda run: [PrimesUpTo(limit)], rows=stub_rows)
    monkeypatch.setattr(verify_module, "CHECKS", CHECKS + (stub,))
    run = run_verify(BENCH_N_GRID, t_grid, ("stub", "phi", "hlk"))
    assert record_streams == [[limit, limit // primes.SEGMENT_SIZE + 1]]
    assert [v.name for v in run.verdicts] == ["hlk", "phi", "stub"]
    assert all(v.reason is None for v in run.verdicts)
    assert run.tables["stub"] == stub_rows(None, primes.build_sieve(limit))


def test_hlk_all_lengths_is_exact(constants):
    tab = build_table(ALL, 1000, "float")
    rows = hlk_comparison_table(tab, (4, 10, 100, 1000), constants)
    for r in rows:
        n = int(r.x)
        assert r.exact == n + 1.0
        assert r.model == float(n)
        assert r.ratio == (n + 1.0) / n


def test_hlk_primes_rows(float_table_1e5, constants):
    rows = hlk_comparison_table(float_table_1e5, (100, 1000, 10_000), constants)
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert all(1.0 < q < 1.2 for q in ratios)
    for r in rows:
        n = int(r.x)
        assert r.scaled_residual == (r.ratio - 1.0) * math.log(math.log(n))


def test_hlk_validation(float_table_1e5, constants):
    with pytest.raises(InvalidArgumentError):
        hlk_comparison_table(float_table_1e5, (1,), constants)


def test_slow_variation_identity():
    verdict = slow_variation_check([1.0], (1e2, 1e4, 1e6))
    assert verdict.name == "slowvar" and verdict.reason is None
    assert verdict.share == 0.0


def test_slow_variation_extremes():
    verdict = slow_variation_check([0.1, 1.0, 10.0], (1e2, 1e4, 1e6))
    # ln(10 * 1e6)/ln(1e6) = 7/6, so the deviation meets the bound exactly;
    # the bound's 1e-15 of room for rounding keeps it within
    assert verdict.reason is None
    assert verdict.bound == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert verdict.share == pytest.approx(1.0, rel=1e-12)
    assert verdict.share <= 1.0


def test_slow_variation_validation():
    with pytest.raises(InvalidArgumentError):
        slow_variation_check([], (1e2, 1e6))
    with pytest.raises(InvalidArgumentError):
        slow_variation_check([0.01], (1e2, 1e6))
    with pytest.raises(InvalidArgumentError):
        slow_variation_check([11.0], (1e2, 1e6))
    with pytest.raises(InvalidArgumentError):
        slow_variation_check([1.0], (1e6, 1e2))
    with pytest.raises(InvalidArgumentError):
        slow_variation_check([1.0], (1e2, 1e5))


def test_phi_estimate_rows(constants):
    rows = phi_estimate_table(analytic.phi_split_grid((1e-3, 1e-4)), constants)
    for row in rows:
        assert abs(row.recombined - row.direct) <= 1e-9
        log_inv = math.log(1.0 / row.t)
        loglog = math.log(log_inv)
        assert abs(row.phi1_scaled) <= PHI_SAFETY_FACTOR * (1.0 + 1.0 / loglog)
        assert -1.0 < row.phi2_scaled < 0.0
        assert 0.0 < row.phi3_scaled < 1.0
        assert row.phi1_scaled == pytest.approx(
            (row.phi1 - loglog - constants.mertens_c) * log_inv / loglog,
            rel=1e-12)
        envelope = math.exp(-row.cutoff * row.t) / (row.cutoff * row.t)
        assert row.phi3_scaled == pytest.approx(row.phi3 / envelope, rel=1e-12)


def test_phi_estimate_table_streams_once(constants, monkeypatch):
    limits = []

    def counting(limit, *args, **kwargs):
        limits.append(limit)
        return iter_prime_blocks(limit, *args, **kwargs)

    monkeypatch.setattr(analytic, "iter_prime_blocks", counting)
    rows = phi_estimate_table(analytic.phi_split_grid((1e-3, 1e-4, 1e-5)),
                              constants)
    assert len(rows) == 3
    assert limits == [analytic._series_limit(math.exp(-1e-5))]


def test_pnt_rows():
    rows = pnt_table((25, 100, 1000), nth_primes((25, 100, 1000)))
    assert rows[0].exact == 97.0
    assert rows[0].ratio == pytest.approx(1.2053897730456469, rel=1e-12)
    assert rows[0].scaled_residual == rows[0].ratio - 1.0
    ratios = [r.ratio for r in rows]
    assert all(q > 1.0 for q in ratios)
    assert ratios == sorted(ratios, reverse=True)
    with pytest.raises(InvalidArgumentError):
        pnt_table((1,), [2])


def test_pnt_table_alone_stops_at_the_block_of_its_largest_k(monkeypatch):
    # in 2^18-integer segments p_(10^6) = 15485863 lies in block 59 and
    # Rosser's bound for k = 10^6, 16441303, in block 62
    segment = 2**18
    read = []

    def recording(limit):
        for block in iter_prime_blocks(limit, segment=segment):
            read.append(int(block[-1]))
            yield block

    monkeypatch.setattr(primes, "iter_prime_blocks", recording)
    grid = (1000, 10_000, 100_000, 1_000_000)
    rows = pnt_table(grid, nth_primes(grid))
    assert rows[-1].exact == 15_485_863.0
    assert len(read) == 15_485_863 // segment + 1
    assert NthPrimes([10**6]).limit // segment + 1 > len(read)


def test_tables_take_primes_read_elsewhere(constants):
    # one stream shared by the phi and pnt accumulators gives the tables
    # what each one's own stream gives
    grid, ks = (1e-3, 1e-4), (25, 100, 1000)
    sums, kth = analytic.PhiSplitSums(grid), NthPrimes(ks)
    splits, found = feed_primes(iter_prime_blocks(sums.limit), sums, kth)
    assert phi_estimate_table(splits, constants) == \
        phi_estimate_table(analytic.phi_split_grid(grid), constants)
    assert pnt_table(ks, found) == pnt_table(ks, [97, 541, 7919])
    with pytest.raises(ValueError):
        pnt_table(ks, [97, 541])


def _rows(*ratios, residual=0.0):
    return [make_row(10 ** (i + 2), q, 1.0, residual)
            for i, q in enumerate(ratios)]


_PHI_OK = PhiEstimateRow(t=1e-3, cutoff=5e4, phi1=2.0, phi2=-0.1, phi3=0.01,
                         recombined=1.91, direct=1.91, phi1_scaled=1.0,
                         phi2_scaled=-0.5, phi3_scaled=0.5)


def _phi(**changes):
    return [_PHI_OK, dataclasses.replace(_PHI_OK, t=1e-4, **changes)]


class _Skewed(float):
    """A u of 10 that passes slow_variation_check's range check but
    multiplies t into t^1.2: |ln u|/ln t never exceeds the bound for a true
    u in [0.1, 10], so only such a u reaches the failing verdict."""

    def __mul__(self, t):
        return t ** 1.2


@pytest.mark.parametrize("verdict, args, reason", [
    (partial_sum_verdict, (_rows(0.9, 0.95),), None),
    (partial_sum_verdict, (_rows(0.9, 0.95, residual=2.5),),
     "scaled residual beyond 2.0 at x=100"),
    (partial_sum_verdict, (_rows(0.95, 0.9),),
     "ratio not converging toward 1 across the grid"),
    (hlk_verdict, (_rows(1.05, 1.01),), None),
    (hlk_verdict, (_rows(1.05, 1.2),), "|ratio-1| = 0.2 > 0.1 at the last row"),
    (hlk_verdict, (_rows(1.01, 1.05),),
     "ratio not converging toward 1 across the grid"),
    (phi_verdict, (_phi(),), None),
    (phi_verdict, ([],), None),
    (phi_verdict, (_phi(recombined=1.91 * (1.0 + 1e-8)),),
     "recombination off at t=0.0001"),
    (phi_verdict, (_phi(phi1_scaled=-5.5),),
     "phi1 residual beyond safety factor at t=0.0001"),
    (phi_verdict, (_phi(phi2_scaled=5.5),),
     "phi2 beyond safety factor at t=0.0001"),
    (phi_verdict, (_phi(phi3_scaled=-0.1),),
     "phi3 beyond envelope safety factor at t=0.0001"),
    (phi_verdict, (_phi(phi3_scaled=5.5),),
     "phi3 beyond envelope safety factor at t=0.0001"),
    (pnt_verdict, (_rows(1.2, 1.1),), None),
    (pnt_verdict, (_rows(1.2, 1.0),), "ratio not in (1, inf) at k=1000"),
    (pnt_verdict, (_rows(1.2, math.inf),), "ratio not in (1, inf) at k=1000"),
    (pnt_verdict, (_rows(1.1, 1.2),), "ratio not strictly decreasing at k=1000"),
    (slow_variation_check, ((0.1, 1.0, 10.0), (1e6,)), None),
    (slow_variation_check, ((0.1, _Skewed(10.0)), (1e6,)),
     "max deviation 0.2 beyond 0.167"),
    (slow_variation_check, ((math.nan,), (1e6,)),
     "max deviation nan beyond 0.167"),
], ids=["partial-sum-ok", "partial-sum-residual", "partial-sum-diverging",
        "hlk-ok", "hlk-bound", "hlk-diverging", "phi-ok", "phi-empty",
        "phi-recombination",
        "phi-phi1", "phi-phi2", "phi-phi3-negative", "phi-phi3-large",
        "pnt-ok", "pnt-ratio", "pnt-infinite", "pnt-increasing",
        "slowvar-ok", "slowvar-bound", "slowvar-nan"])
def test_verdicts(verdict, args, reason):
    assert verdict(*args).reason == reason


def test_verdicts_of_the_default_grids_as_data(default_verify_run):
    # every verdict's bound and share, read off the run, not its printout
    verdicts = {v.name: v for v in default_verify_run.verdicts}
    assert [v.name for v in default_verify_run.verdicts] == list(CHECK_NAMES)
    # every record but those that keep the default rows, which give none
    assert list(default_verify_run.tables) == [
        check.name for check in CHECKS if check.rows is not Check.rows]
    bounds = {"partial-sum": PARTIAL_SUM_RESIDUAL_BOUND,
              "hlk": HLK_RATIO_BOUND, "phi": PHI_SAFETY_FACTOR,
              "slowvar": math.log(10.0) / math.log(1e6) + 1e-15}
    for name, bound in bounds.items():
        v = verdicts[name]
        assert v.reason is None and v.bound == bound, v
        assert 0.0 <= v.share <= 1.0, v
    assert (verdicts["pnt"].reason, verdicts["pnt"].bound,
            verdicts["pnt"].share) == (None, None, None)
    # each share is the worst row's use of its bound
    tables = default_verify_run.tables
    assert verdicts["partial-sum"].share == max(
        abs(r.scaled_residual) for r in tables["partial-sum"]) \
        / PARTIAL_SUM_RESIDUAL_BOUND
    assert verdicts["hlk"].share == \
        abs(tables["hlk"][-1].ratio - 1.0) / HLK_RATIO_BOUND
    assert verdicts["phi"].share == max(
        max(abs(r.phi1_scaled), abs(r.phi2_scaled), abs(r.phi3_scaled))
        for r in tables["phi"]) / PHI_SAFETY_FACTOR


def _sample_rows(float_table_1e5, constants):
    return partial_sum_table(float_table_1e5, (100, 1000), constants)


def test_report_roundtrip_csv(float_table_1e5, constants):
    rows = _sample_rows(float_table_1e5, constants)
    buf = io.StringIO()
    emit_report(rows, "csv", buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "x,exact,model,ratio,scaled_residual"
    assert parse_report(text, "csv") == rows


def test_report_roundtrip_json(float_table_1e5, constants):
    rows = _sample_rows(float_table_1e5, constants)
    buf = io.StringIO()
    emit_report(rows, "json", buf)
    parsed = json.loads(buf.getvalue())
    assert len(parsed) == 2 and set(parsed[0]) == {
        "x", "exact", "model", "ratio", "scaled_residual"}
    assert parse_report(buf.getvalue(), "json") == rows


def test_report_roundtrip_phi_rows(constants):
    rows = phi_estimate_table(analytic.phi_split_grid((1e-3, 1e-4)), constants)
    names = [f.name for f in dataclasses.fields(PhiEstimateRow)]
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        emit_report(rows, fmt, buf)
        text = buf.getvalue()
        assert parse_report(text, fmt, PhiEstimateRow) == rows
        # a phi table is not read as a ConvergenceRow table
        with pytest.raises(InvalidArgumentError):
            parse_report(text, fmt)
        columns = (text.splitlines()[0].split(",") if fmt == "csv"
                   else list(json.loads(text)[0]))
        assert columns == names


def test_report_file_paths(tmp_path, float_table_1e5, constants):
    rows = _sample_rows(float_table_1e5, constants)
    for fmt, name in (("csv", "r.csv"), ("json", "r.json")):
        dest = tmp_path / name
        emit_report(rows, fmt, str(dest))
        assert parse_report(str(dest), fmt) == rows
        emit_report(rows, fmt, tmp_path / ("path-" + name))
        assert parse_report(tmp_path / ("path-" + name), fmt) == rows


def test_report_paths_with_commas(tmp_path, float_table_1e5, constants):
    rows = _sample_rows(float_table_1e5, constants)
    folder = tmp_path / "d,1"
    folder.mkdir()
    for fmt, name in (("csv", "r.csv"), ("json", "r.json")):
        dest = str(folder / name)
        assert "," in dest
        emit_report(rows, fmt, dest)
        assert parse_report(dest, fmt) == rows


def test_report_validation(float_table_1e5, constants):
    rows = _sample_rows(float_table_1e5, constants)
    with pytest.raises(InvalidArgumentError):
        emit_report([], "csv", io.StringIO())
    with pytest.raises(InvalidArgumentError):
        emit_report(rows, "xml", io.StringIO())
    with pytest.raises(InvalidArgumentError):
        parse_report("not,a,header\n1,2,3,4,5\n", "csv")
    header = "x,exact,model,ratio,scaled_residual\n"
    for text, fmt in ((header + "1,2\n", "csv"),
                      (header + "1,2,3,4,five\n", "csv"),
                      ('[{"x": 1}]', "json"),
                      ('{"x": 1}\n', "json"),
                      ('[{"x": 1, "exact"', "json"),
                      ('[{"x": "one", "exact": 2, "model": 3, "ratio": 4, '
                       '"scaled_residual": 5}]', "json")):
        with pytest.raises(InvalidArgumentError):
            parse_report(text, fmt)
    with pytest.raises(InvalidArgumentError):
        parse_report("x,y\n", "yaml")
    with pytest.raises(OSError):
        emit_report(rows, "csv", "/nonexistent-dir-zz/out.csv")


def test_tables_are_bit_reproducible(float_table_1e5, constants):
    a = partial_sum_table(float_table_1e5, (100, 10_000), constants)
    b = partial_sum_table(float_table_1e5, (100, 10_000), constants)
    assert a == b
