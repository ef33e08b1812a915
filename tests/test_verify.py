import dataclasses
import io
import json
import math

import pytest

from primecycles import analytic, primes
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import InvalidArgumentError
from primecycles.exact_enum import build_table, partial_sum, partial_sums
from primecycles.primes import NthPrimes, iter_prime_blocks
from primecycles.verify import (
    PARTIAL_SUM_RESIDUAL_BOUND,
    PHI_SAFETY_FACTOR,
    ConvergenceRow,
    PhiEstimateRow,
    check_hlk,
    check_partial_sum,
    check_phi,
    check_pnt,
    check_slowvar,
    emit_report,
    hlk_comparison_table,
    make_row,
    parse_report,
    partial_sum_table,
    phi_estimate_table,
    pnt_table,
    slow_variation_check,
)

ALL = CycleClassSpec.all_lengths()


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


def test_partial_sum_table_validation(float_table_1e5, constants):
    all_tab = build_table(ALL, 100, "float")
    with pytest.raises(InvalidArgumentError):
        partial_sum_table(all_tab, (10,), constants)
    with pytest.raises(InvalidArgumentError):
        partial_sum_table(float_table_1e5, (1, 10), constants)


def test_tables_take_the_grid_sums(float_table_1e5, constants):
    grid = (1000, 100, 10_000)
    sums = partial_sums(float_table_1e5, grid)
    for table in (partial_sum_table, hlk_comparison_table):
        rows = table(float_table_1e5, grid, constants)
        assert [r.x for r in rows] == list(grid)
        assert [r.exact for r in rows] == sums


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
    out = slow_variation_check([1.0], (1e2, 1e4, 1e6))
    assert out["max_deviation"] == 0.0
    assert out["ok"] is True
    assert out["per_u"] == [(1.0, 0.0)]


def test_slow_variation_extremes():
    out = slow_variation_check([0.1, 1.0, 10.0], (1e2, 1e4, 1e6))
    # ln(10 * 1e6)/ln(1e6) = 7/6, so the deviation meets the bound exactly
    assert out["max_deviation"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert out["bound"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert out["ok"] is True


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
    rows = phi_estimate_table((1e-3, 1e-4), constants)
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
    rows = phi_estimate_table((1e-3, 1e-4, 1e-5), constants)
    assert len(rows) == 3
    assert limits == [analytic._series_limit(math.exp(-1e-5))]


def test_pnt_rows():
    rows = pnt_table((25, 100, 1000))
    assert rows[0].exact == 97.0
    assert rows[0].ratio == pytest.approx(1.2053897730456469, rel=1e-12)
    assert rows[0].scaled_residual == rows[0].ratio - 1.0
    ratios = [r.ratio for r in rows]
    assert all(q > 1.0 for q in ratios)
    assert ratios == sorted(ratios, reverse=True)
    with pytest.raises(InvalidArgumentError):
        pnt_table((1,))


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
    rows = pnt_table((1000, 10_000, 100_000, 1_000_000))
    assert rows[-1].exact == 15_485_863.0
    assert len(read) == 15_485_863 // segment + 1
    assert NthPrimes([10**6]).limit // segment + 1 > len(read)


def test_tables_take_primes_read_elsewhere(constants):
    grid = (1e-3, 1e-4)
    splits = analytic.phi_split_grid(grid)
    assert phi_estimate_table(grid, constants, splits) == \
        phi_estimate_table(grid, constants)
    # splits for other t's are refused, not read in place of the grid
    for other in ((1e-3,), (1e-4, 1e-3), (1e-3, 1e-4, 1e-5)):
        with pytest.raises(InvalidArgumentError):
            phi_estimate_table(other, constants, splits)
    with pytest.raises(InvalidArgumentError):
        phi_estimate_table((1e-3,), constants,
                           analytic.phi_split_grid((1e-4,)))
    ks = (25, 100, 1000)
    assert pnt_table(ks, [97, 541, 7919]) == pnt_table(ks)
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


@pytest.mark.parametrize("check, rows, reason", [
    (check_partial_sum, _rows(0.9, 0.95), None),
    (check_partial_sum, _rows(0.9, 0.95, residual=2.5),
     "scaled residual beyond 2.0 at x=100"),
    (check_partial_sum, _rows(0.95, 0.9),
     "ratio not converging toward 1 across the grid"),
    (check_hlk, _rows(1.05, 1.01), None),
    (check_hlk, _rows(1.05, 1.2), "|ratio-1| = 0.2 > 0.1 at the last row"),
    (check_hlk, _rows(1.01, 1.05),
     "ratio not converging toward 1 across the grid"),
    (check_phi, _phi(), None),
    (check_phi, _phi(recombined=1.91 * (1.0 + 1e-8)),
     "recombination off at t=0.0001"),
    (check_phi, _phi(phi1_scaled=-5.5),
     "phi1 residual beyond safety factor at t=0.0001"),
    (check_phi, _phi(phi2_scaled=5.5),
     "phi2 beyond safety factor at t=0.0001"),
    (check_phi, _phi(phi3_scaled=-0.1),
     "phi3 beyond envelope safety factor at t=0.0001"),
    (check_phi, _phi(phi3_scaled=5.5),
     "phi3 beyond envelope safety factor at t=0.0001"),
    (check_pnt, _rows(1.2, 1.1), None),
    (check_pnt, _rows(1.2, 1.0), "ratio not in (1, inf) at k=1000"),
    (check_pnt, _rows(1.2, math.inf), "ratio not in (1, inf) at k=1000"),
    (check_pnt, _rows(1.1, 1.2), "ratio not strictly decreasing at k=1000"),
    (check_slowvar, slow_variation_check((0.1, 1.0, 10.0), (1e6,)), None),
    (check_slowvar, {"max_deviation": 0.2, "bound": 1 / 6, "ok": False},
     "max deviation 0.2 beyond 0.167"),
], ids=["partial-sum-ok", "partial-sum-residual", "partial-sum-diverging",
        "hlk-ok", "hlk-bound", "hlk-diverging", "phi-ok", "phi-recombination",
        "phi-phi1", "phi-phi2", "phi-phi3-negative", "phi-phi3-large",
        "pnt-ok", "pnt-ratio", "pnt-infinite", "pnt-increasing",
        "slowvar-ok", "slowvar-bound"])
def test_verdicts(check, rows, reason):
    assert check(rows) == reason


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
    rows = phi_estimate_table((1e-3, 1e-4), constants)
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
