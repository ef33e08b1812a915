import gc
import io
import math
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from primecycles import exact_enum
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfRangeError,
    ResourceLimitError,
)
from primecycles.exact_enum import (
    FAST_PATH_BASE,
    PARTITION_CAP,
    _build_float_baseline,
    _build_float_fast,
    _build_float_steps,
    _solve_block,
    big_str,
    build_table,
    count_brute_force,
    count_by_cycle_types,
    count_exact,
    count_exact_upto,
    dump_table,
    partial_sum,
    partial_sums,
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
    assert tab.p_exact == (1, 0, 1, 2, 3, 44)
    assert [Fraction(p, math.factorial(n)) for n, p in enumerate(tab.p_exact)] == [
        Fraction(1), Fraction(0), Fraction(1, 2),
        Fraction(1, 3), Fraction(1, 8), Fraction(11, 30)]


def test_odd_cycle_counts():
    P = count_exact_upto(ODD, 6)
    assert P == [1, 1, 1, 3, 9, 45, 225]


def test_all_lengths_counts():
    tab = build_table(ALL, 8, "both")
    assert tab.p_exact == tuple(math.factorial(n) for n in range(9))
    assert all(Fraction(p, math.factorial(n)) == 1
               for n, p in enumerate(tab.p_exact))
    assert np.allclose(tab.a_float, 1.0, rtol=1e-12)


def test_fixed_point_only():
    tab = build_table(CycleClassSpec.singleton(1), 6, "exact")
    # only the identity permutation has all cycles of length 1
    assert tab.p_exact == (1,) * 7
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


def test_caps(primes_spec, monkeypatch):
    with pytest.raises(ResourceLimitError):
        count_exact(primes_spec, 2001)
    with pytest.raises(ResourceLimitError):
        count_by_cycle_types(primes_spec, PARTITION_CAP + 1)
    with pytest.raises(ResourceLimitError):
        count_brute_force(primes_spec, 10)
    monkeypatch.setattr(exact_enum, "FLOAT_CAP_DEFAULT", 100)
    with pytest.raises(ResourceLimitError):
        build_table(ALL, 101, "float")
    assert build_table(ALL, 100, "float").n_max == 100
    for n in (-1, 5.0, 5.5):
        with pytest.raises(InvalidArgumentError):
            count_exact(primes_spec, n)
        with pytest.raises(InvalidArgumentError):
            count_by_cycle_types(primes_spec, n)
        with pytest.raises(InvalidArgumentError):
            count_brute_force(primes_spec, n)
        with pytest.raises(InvalidArgumentError):
            build_table(primes_spec, n, "exact")
    with pytest.raises(InvalidArgumentError, match="integer"):
        build_table(ALL, 5.0, "float")
    # a numpy integer is the int it equals
    assert count_exact(primes_spec, np.int64(7)) == count_exact(primes_spec, 7)
    assert count_by_cycle_types(primes_spec, np.int64(7)) == 1434
    assert count_brute_force(ALL, np.int64(5)) == 120
    assert build_table(primes_spec, np.int64(7), "both").n_max == 7


def test_over_cap_table_is_refused_before_it_allocates(primes_spec,
                                                       monkeypatch):
    def refuse(self, n):
        raise AssertionError("members_upto ran before the caps were checked")

    monkeypatch.setattr(CycleClassSpec, "members_upto", refuse)
    for spec in (ALL, primes_spec):
        for mode in ("float", "both"):
            with pytest.raises(ResourceLimitError, match="float"):
                build_table(spec, 2 * 10 ** 7, mode)
        for mode in ("exact", "both"):
            with pytest.raises(ResourceLimitError, match="exact"):
                build_table(spec, 10 ** 6, mode)


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


def test_partial_sums_one_pass_matches_each_n(table300, float_table_1e5):
    ns = [50_000, 7, 100_000, 0, 7, 1000]
    a = float_table_1e5.a_float
    # bit-identical to a separate exact sum of a_0..a_n, rounded once
    assert partial_sums(float_table_1e5, ns) == \
        [math.fsum(a[: n + 1].tolist()) for n in ns]
    assert partial_sums(table300, [300, 5, 0, 5]) == \
        [partial_sum(table300, n) for n in (300, 5, 0, 5)]
    assert partial_sums(float_table_1e5, []) == []
    assert partial_sums(table300, iter([5, 1])) == [Fraction(93, 40), 1]
    with pytest.raises(OutOfRangeError):
        partial_sums(float_table_1e5, [10, 100_001])
    with pytest.raises(InvalidArgumentError):
        partial_sums(table300, [5, -1])


def test_partial_sum_domain(table300, float_table_1e5, refuses_non_integers):
    with pytest.raises(OutOfRangeError):
        partial_sum(table300, 301)
    with pytest.raises(InvalidArgumentError):
        partial_sum(table300, -1)
    for table in (table300, float_table_1e5):
        refuses_non_integers(lambda n: partial_sum(table, n))
        refuses_non_integers(lambda n: partial_sums(table, [7, n]))
        assert partial_sums(table, [np.int64(7)]) == partial_sums(table, [7])


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


# the ends of the doubling levels for a power-of-two base (128) and two
# 5-smooth ones (120, 125): a table of size n_max + 1 = e ends a level
# exactly, one of e - 1 cuts its last block short, and one of e + 1 picks
# another base.  The widths where earlier routes switched stay as cases.
EDGES = [d * 2 ** k for d in (FAST_PATH_BASE, 120, 125) for k in (0, 1, 3, 5)]


@pytest.mark.parametrize("n_max", sorted(
    {0, 1, 2, 31, 32, 33, 63, 64, 65, 511, 512, 513, 30000}
    | {e + j for e in EDGES for j in (-2, -1, 0, 1)}))
def test_fast_path_matches_baseline_at_switch_over_sizes(n_max):
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


def _forward_substitution(members, pend, lo):
    # (lo + i) x_i = pend_i + sum of x_{i-k} over members k <= i
    x = []
    for i, p in enumerate(pend.tolist()):
        x.append((p + sum(x[i - k] for k in members if k <= i)) / (lo + i))
    return np.array(x)


@pytest.mark.parametrize("lo", [FAST_PATH_BASE, 1000, 10 ** 5])
def test_block_closed_form_matches_forward_substitution(lo):
    # s and r to 120, a 5-smooth base, and blocks of widths up to it
    small = CycleClassSpec.primes(build_sieve(120)).members_upto(119).tolist()
    s = _build_float_steps(small, None, 119)
    r = _build_float_steps(small, None, 119, -1.0)
    s_hat = np.fft.rfft(s, 240)
    rng = np.random.default_rng(lo)
    for w in (120, 75, 61, 1):
        pend = rng.random(w)
        want = _forward_substitution(small, pend, lo)
        got, _ = _solve_block(s_hat, r, pend, lo)
        assert (np.abs(got - want) <= 1e-13 * want).all()


@pytest.mark.parametrize("n_max", [128, 3839, 10 ** 5])
def test_doubling_series_are_inverse(monkeypatch, n_max):
    # every r a level solves with is the inverse of the table's head:
    # (a r)[:len(r)] = 1, on the base and after each Newton step
    seen = []

    def spy(s_hat, r, pend, lo, r_hat=None):
        seen.append(r.copy())
        return _solve_block(s_hat, r, pend, lo, r_hat)

    monkeypatch.setattr(exact_enum, "_solve_block", spy)
    members = CycleClassSpec.primes(build_sieve(n_max)).members_upto(n_max)
    a = _build_float_fast(members, n_max)
    assert seen and [r.size for r in seen] == [seen[0].size * 2 ** j
                                               for j in range(len(seen))]
    d = seen[0].size
    base = _build_float_baseline(members[members < d], d - 1)
    assert np.abs(a[:d] - base).max() <= 1e-15 * base.max()
    for r in seen:
        k = r.size
        product = np.fft.irfft(np.fft.rfft(a[:k], 2 * k) * np.fft.rfft(r, 2 * k),
                               2 * k)[:k]
        product[0] -= 1.0
        assert np.abs(product).max() <= 1e-14


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


def test_fast_path_memory_at_1e6():
    # the last level sets the traced peak, 5.6 tables here: the table, the
    # spectrum of a[:m] (m about half the table, at size 2m), two
    # transforms of the block solve, and half-size r, pending sums and y.
    # One more full-size temporary kept alive across the solve would
    # pass 6
    n = 10 ** 6
    spec = CycleClassSpec.primes(build_sieve(n))
    tracemalloc.start()
    try:
        table = build_table(spec, n, "float")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.a_float.size == n + 1
    assert peak <= 6 * 8 * (n + 1)


def test_fast_path_even_spec_stays_clean():
    fast = build_table(EVEN, 300, "float")
    assert (fast.a_float >= 0.0).all()
    odd_entries = fast.a_float[1::2]
    assert (odd_entries == 0.0).all()


def test_fast_path_refuses_negative_coefficients():
    # the FFT's roundoff is absolute, so mod:3:0's structural zeros go
    # negative (first at n = 155); that must raise, not be clamped away
    members = CycleClassSpec.residue_classes(3, (0,)).members_upto(2000)
    with pytest.raises(InternalConsistencyError, match="negative"):
        _build_float_fast(members, 2000)


def test_fast_path_refuses_non_finite_coefficients(monkeypatch):
    # a NaN passes every comparison with 0, so it needs its own refusal
    monkeypatch.setattr(exact_enum, "_solve_block",
                        lambda s_hat, r, pend, lo, r_hat=None: (
                            np.full(pend.size, np.nan), np.full(pend.size, np.nan)))
    members = CycleClassSpec.primes(build_sieve(1000)).members_upto(1000)
    with pytest.raises(InternalConsistencyError, match="non-finite"):
        _build_float_fast(members, 1000)


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
    for dest in (str(tmp_path / "out.csv"), tmp_path / "out-path.csv"):
        dump_table(tab, dest)
        assert open(dest).read() == GOLDEN_PRIMES_6


def _dumped_sums(table) -> list:
    buf = io.StringIO()
    dump_table(table, buf)
    return [float(line.rsplit(",", 1)[1])
            for line in buf.getvalue().splitlines()[1:]]


def test_dump_agrees_with_partial_sum(primes_spec):
    # every dumped T_n is the double partial_sum gives, and for a float
    # table that is the exact sum of a_0..a_n rounded once
    exact = build_table(primes_spec, 700, "exact")
    assert _dumped_sums(exact) == [float(t) for t in
                                   partial_sums(exact, range(701))]
    table = build_table(primes_spec, 10_000, "float")
    a = table.a_float.tolist()
    sums = partial_sums(table, range(10_001))
    assert _dumped_sums(table) == sums
    assert sums == [math.fsum(a[:n + 1]) for n in range(10_001)]


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


def test_table_is_frozen(table300):
    with pytest.raises(FrozenInstanceError):
        table300.n_max = 5
    with pytest.raises(ValueError):
        table300.a_float[0] = 2.0
    # the exact counts too: partial_sum and every Sampler read them
    with pytest.raises(TypeError):
        table300.p_exact[6] = 0
    assert table300.p_exact[6] == 55
