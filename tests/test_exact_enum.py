import gc
import io
import math
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfRangeError,
    ResourceLimitError,
)
from primecycles.exact_enum import (
    _build_float_baseline,
    _build_float_fast,
    big_str,
    build_table,
    count_brute_force,
    count_by_cycle_types,
    count_exact,
    count_exact_upto,
    dump_table,
    int_log,
    kahan_sum,
    partial_sum,
)
from primecycles.primes import build_sieve

ODD = CycleClassSpec.residue_classes(2, (1,))
EVEN = CycleClassSpec.residue_classes(2, (0,))
ALL = CycleClassSpec.all_lengths()

GOLDEN_PRIMES_6 = (
    "n,P_n,a_n,T_n\n"
    "0,1,1,1\n"
    "1,0,0,1\n"
    "2,1,0.5,1.5\n"
    "3,2,0.33333333333333331,1.8333333333333333\n"
    "4,3,0.125,1.9583333333333333\n"
    "5,44,0.36666666666666664,2.3250000000000002\n"
    "6,55,0.076388888888888895,2.401388888888889\n"
)


def test_prime_cycle_counts(primes_spec):
    tab = build_table(primes_spec, 5, "exact")
    assert tab.p_exact == [1, 0, 1, 2, 3, 44]
    assert [Fraction(p, math.factorial(n)) for n, p in enumerate(tab.p_exact)] == [
        Fraction(1), Fraction(0), Fraction(1, 2),
        Fraction(1, 3), Fraction(1, 8), Fraction(11, 30)]


def test_odd_cycle_counts():
    P = count_exact_upto(ODD, 6)
    assert P == [1, 1, 1, 3, 9, 45, 225]


def test_all_lengths_counts():
    tab = build_table(ALL, 8, "both")
    assert tab.p_exact == [math.factorial(n) for n in range(9)]
    assert all(Fraction(p, math.factorial(n)) == 1
               for n, p in enumerate(tab.p_exact))
    assert np.allclose(tab.a_float, 1.0, rtol=1e-12)


def test_fixed_point_only():
    tab = build_table(CycleClassSpec.singleton(1), 6, "exact")
    # only the identity permutation has all cycles of length 1
    assert tab.p_exact == [1] * 7
    assert Fraction(tab.p_exact[4], math.factorial(4)) == Fraction(1, 24)


def test_table_invariants(table300, primes_spec_big):
    a_exact = [Fraction(p, math.factorial(n))
               for n, p in enumerate(table300.p_exact)]
    assert a_exact[0] == 1
    assert all(0 <= a <= 1 for a in a_exact)
    # recurrence n*a_n = sum a_{n-k} over members k <= n, exactly
    for n in list(range(1, 41)) + [100, 250, 300]:
        ks = primes_spec_big.members_upto(n).tolist()
        rhs = sum((a_exact[n - k] for k in ks), Fraction(0))
        assert n * a_exact[n] == rhs


def test_float_tracks_exact(table300):
    for n in range(301):
        exact = float(Fraction(table300.p_exact[n], math.factorial(n)))
        got = table300.a_float[n]
        if exact == 0.0:
            assert got == 0.0
        else:
            assert abs(got - exact) <= 1e-12 * exact


def test_three_routes_agree_small(primes_spec):
    for spec in (primes_spec, ODD, CycleClassSpec.explicit({2, 3, 10})):
        for n in range(8):
            r = count_exact(spec, n)
            assert r == count_by_cycle_types(spec, n)
            assert r == count_brute_force(spec, n)


def test_partition_route_agrees_to_30(primes_spec):
    for n in (10, 17, 23, 30):
        assert count_exact(primes_spec, n) == count_by_cycle_types(primes_spec, n)
        assert count_exact(ODD, n) == count_by_cycle_types(ODD, n)


def test_count_examples(primes_spec):
    assert count_exact(primes_spec, 6) == 55
    assert count_by_cycle_types(primes_spec, 7) == 1434
    assert count_brute_force(ALL, 5) == 120


def test_caps(primes_spec):
    with pytest.raises(ResourceLimitError):
        count_exact(primes_spec, 2001)
    with pytest.raises(ResourceLimitError):
        count_by_cycle_types(primes_spec, 81)
    with pytest.raises(ResourceLimitError):
        count_brute_force(primes_spec, 10)
    with pytest.raises(ResourceLimitError):
        build_table(ALL, 101, "float", float_cap=100)
    with pytest.raises(InvalidArgumentError):
        count_exact(primes_spec, -1)
    with pytest.raises(InvalidArgumentError):
        count_by_cycle_types(primes_spec, -1)
    with pytest.raises(InvalidArgumentError):
        count_brute_force(primes_spec, -1)
    with pytest.raises(InvalidArgumentError):
        build_table(primes_spec, -1, "exact")


def test_cap_overrides(primes_spec):
    with pytest.raises(ResourceLimitError):
        count_exact(primes_spec, 50, exact_cap=40)
    assert count_exact(primes_spec, 40, exact_cap=40) > 0


def test_mode_validation(primes_spec):
    with pytest.raises(InvalidArgumentError):
        build_table(primes_spec, 5, "EXACT")
    with pytest.raises(InvalidArgumentError):
        build_table(primes_spec, 5, "rational")


def test_support_too_small():
    from primecycles.primes import build_sieve
    tiny = CycleClassSpec.primes(build_sieve(10))
    with pytest.raises(OutOfRangeError):
        build_table(tiny, 300, "float")


def test_partial_sum_exact(table300):
    assert partial_sum(table300, 5) == Fraction(93, 40)
    assert partial_sum(table300, 0) == 1
    assert partial_sum(table300, 1) == 1


def test_partial_sum_all_lengths():
    tab = build_table(ALL, 20, "exact")
    for n in range(21):
        assert partial_sum(tab, n) == n + 1


def test_partial_sum_float_matches_exact(table300):
    ftab = build_table(table300.spec, 300, "float")
    for n in (5, 50, 300):
        exact = float(partial_sum(table300, n))
        got = partial_sum(ftab, n)
        assert abs(got - exact) <= 1e-12 * exact


def test_partial_sum_domain(table300):
    with pytest.raises(OutOfRangeError):
        partial_sum(table300, 301)
    with pytest.raises(InvalidArgumentError):
        partial_sum(table300, -1)


def test_even_spec_parity_zeros():
    tab = build_table(EVEN, 41, "both")
    for n in range(1, 42, 2):
        assert tab.p_exact[n] == 0
        assert tab.a_float[n] == 0.0


def test_fast_path_matches_baseline(primes_spec):
    base = _build_float_baseline(primes_spec.members_upto(500), 500)
    fast = build_table(primes_spec, 500, "float")
    nz = base != 0.0
    rel = np.abs(fast.a_float[nz] - base[nz]) / base[nz]
    assert rel.max() <= 1e-9
    assert (fast.a_float >= 0.0).all()


@pytest.mark.parametrize("n_max", [0, 1, 2, 31, 32, 33, 63, 64, 65, 511, 512,
                                   513, 1023, 1024, 1025, 4097, 30000])
def test_fast_path_matches_baseline_at_switch_over_sizes(n_max):
    # leaf, matrix-vector and middle-product nodes each meet their
    # neighbours around these sizes
    members = CycleClassSpec.primes(build_sieve(30_000)).members_upto(n_max)
    base = _build_float_baseline(members, n_max)
    fast = _build_float_fast(members, n_max)
    assert fast.shape == base.shape
    nz = base != 0.0
    rel = np.abs(fast[nz] - base[nz]) / base[nz]
    assert rel.size == 0 or rel.max() <= 1e-9
    if n_max >= 1:
        assert fast[1] == 0.0
    assert (fast >= 0.0).all()


def test_fast_path_leaves_no_garbage_for_the_cycle_collector():
    n = 200_000
    spec = CycleClassSpec.primes(build_sieve(n))
    build_table(spec, n, "float")  # warm the members and numpy's caches
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = build_table(spec, n, "float")
        del table
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert after - before <= 8 * (n + 1)


def test_fast_path_even_spec_stays_clean():
    fast = build_table(EVEN, 300, "float")
    assert (fast.a_float >= 0.0).all()
    odd_entries = fast.a_float[1::2]
    assert (odd_entries == 0.0).all()


def test_fast_path_refuses_negative_coefficients():
    # the FFT's roundoff is absolute, so mod:3:0's structural zeros go
    # negative (first at n = 500); that must raise, not be clamped away
    members = CycleClassSpec.residue_classes(3, (0,)).members_upto(2000)
    with pytest.raises(InternalConsistencyError, match="negative"):
        _build_float_fast(members, 2000)


def test_dump_golden(primes_spec):
    tab = build_table(primes_spec, 6, "both")
    buf = io.StringIO()
    dump_table(tab, buf)
    assert buf.getvalue() == GOLDEN_PRIMES_6


def test_dump_float_mode_columns(primes_spec):
    tab = build_table(primes_spec, 4, "float")
    buf = io.StringIO()
    dump_table(tab, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,a_n,T_n"
    assert lines[1] == "0,1,1"
    assert lines[3] == "2,0.5,1.5"


def test_dump_to_path(tmp_path, primes_spec):
    tab = build_table(primes_spec, 6, "both")
    dest = tmp_path / "out.csv"
    dump_table(tab, str(dest))
    assert dest.read_text() == GOLDEN_PRIMES_6


def test_dump_roundtrip_precision(primes_spec):
    tab = build_table(primes_spec, 50, "float")
    buf = io.StringIO()
    dump_table(tab, buf)
    for line in buf.getvalue().splitlines()[1:]:
        n_s, a_s, t_s = line.split(",")
        assert float(a_s) == tab.a_float[int(n_s)]


def test_big_str():
    limit = sys.get_int_max_str_digits()
    x = 10 ** 4600
    s = big_str(x)
    assert len(s) == 4601
    assert s[0] == "1" and set(s[1:]) == {"0"}
    assert big_str(7) == "7"
    # the interpreter-wide digit cap is left as it was
    assert sys.get_int_max_str_digits() == limit


def test_int_log():
    assert int_log(2 ** 10000) == pytest.approx(10000 * math.log(2), rel=1e-12)
    assert int_log(10) == pytest.approx(math.log(10), rel=1e-15)
    assert int_log(math.factorial(400)) == pytest.approx(
        math.lgamma(401), rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        int_log(0)


def test_kahan_sum():
    vals = [1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16]
    assert kahan_sum(vals) == 1.0000000000000004 or kahan_sum(vals) > 1.0
    assert kahan_sum([]) == 0.0
    assert kahan_sum([2.0, 3.0]) == 5.0


def test_table_is_frozen(table300):
    with pytest.raises(FrozenInstanceError):
        table300.n_max = 5
    with pytest.raises(ValueError):
        table300.a_float[0] = 2.0
