import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from primecycles import analytic, mellin
from primecycles.analytic import (
    EULER_GAMMA,
    T_DOMAIN_CAP,
    Constants,
    f_eval,
    make_constants,
    mertens_direct,
    mertens_zeta,
    model_f_asym,
    odlyzko_sum_model,
    partial_sum_log_model,
    phi_deriv,
    phi_eval,
    phi_split,
    phi_split_grid,
    prime_zeta,
    yakimiv_log_model,
    zeta,
    zeta_minus_1,
)
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfDomainError,
    UnsupportedSpecError,
)
from primecycles.exact_enum import count_exact
from primecycles.primes import (
    SEGMENT_SIZE,
    NthPrimes,
    feed_primes,
    iter_prime_blocks,
)
from primecycles.verify import T_GRID_DEFAULT

ODD = CycleClassSpec.residue_classes(2, (1,))
ALL = CycleClassSpec.all_lengths()


def test_euler_gamma_matches_numpy():
    assert EULER_GAMMA == np.euler_gamma


def test_zeta_values():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-14)
    assert zeta(1.5) == pytest.approx(2.6123753486854883, rel=1e-14)
    assert zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-14)
    assert zeta_minus_1(30.0) == pytest.approx(9.313274324196682e-10, rel=1e-13)
    # far right the sum is 2^-s plus a (2/3)^s-relative correction
    assert zeta_minus_1(50.0) == pytest.approx(2.0 ** -50, rel=1e-8)


def test_zeta_domain():
    with pytest.raises(OutOfDomainError):
        zeta(1.49)
    with pytest.raises(OutOfDomainError):
        zeta_minus_1(1.0)
    assert zeta(1.5) > zeta(1.6) > zeta(2.0) > 1.0


def test_prime_zeta_value():
    assert prime_zeta(2.0) == pytest.approx(0.4522474200410655, abs=1e-13)
    with pytest.raises(OutOfDomainError):
        prime_zeta(1.99)


def test_prime_zeta_against_direct_sum(sieve_big):
    ps = sieve_big.primes().astype(np.float64)
    for s, tol in ((2.0, 1e-7), (3.0, 1e-12), (4.5, 1e-13)):
        direct = float(np.sum(ps ** -s))
        assert abs(prime_zeta(s) - direct) <= tol


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 5.0, 10.0, 20.0])
def test_prime_zeta_against_mpmath(s):
    # mpmath is an independent high-precision oracle; the bound is the
    # docstring's 1e-13 absolute error
    assert abs(prime_zeta(s) - float(mpmath.primezeta(s))) <= 1e-13


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0, 10.0, 30.0, 50.0, 64.0])
def test_zeta_minus_1_against_mpmath(s):
    # 1 + 2^-s takes s log10(2) digits before zeta - 1 has any: at mpmath's
    # default 15, zeta(30) - 1 is off by 3e-8, and at 30, zeta(64) - 1
    # keeps 11 digits
    with mpmath.workdps(40):
        ref = mpmath.zeta(s) - 1
        assert abs(zeta_minus_1(s) - ref) <= 2.0 ** -50 * ref


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 5.0, 10.0, 20.0, 40.0, 64.0])
def test_prime_zeta_within_its_bound(monkeypatch, s):
    # within the bound _prime_zeta_1p returns for prime_zeta's node, plus
    # rounding: at a complex node the powers n^-s are exp(-s ln n), which
    # carry the rounding of ln n times s, up to 0.23 s ulps of P
    bounds, inner = [], mellin._prime_zeta_1p

    def recording(node, tol):
        p, bound = inner(node, tol)
        bounds.append(float(np.max(bound)))
        return p, bound

    monkeypatch.setattr(mellin, "_prime_zeta_1p", recording)
    got = prime_zeta(s)
    with mpmath.workdps(30):
        ref = mpmath.primezeta(s)
        assert abs(got - ref) <= bounds[0] + s * 2.0 ** -53 * ref


def test_mertens_zeta_within_its_stated_bound():
    # rounding, up to 2^-53, is outside the stated bound
    with mpmath.workdps(30):
        ref = mpmath.mertens
        for k in range(10, 81):
            assert abs(mertens_zeta(k) - ref) <= 2 * 2.0 ** -k + 2.0 ** -53, k
    # past k_max = 79 the zeta rows' own bound, under 1.8e-24, outweighs
    # 2 * 2^-k_max, and the stated bound takes it in
    assert make_constants(k_max=79).tail_bound == 2 * 2.0 ** -79
    for k in (80, 100):
        assert 1.7e-24 < make_constants(k_max=k).tail_bound < 1.9e-24


def test_mertens_constant_against_mpmath():
    assert abs(make_constants().mertens_c - float(mpmath.mertens)) <= 1e-13


def test_mertens_constant_via_zeta(refuses_non_integers):
    c = mertens_zeta(60)
    assert c == pytest.approx(0.26149721284764278, abs=1e-15)
    assert EULER_GAMMA - c == pytest.approx(0.3157184520538901, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        mertens_zeta(9)
    # 20.0 and 20.5, above the least k_max
    refuses_non_integers(lambda k: mertens_zeta(k + 15))
    refuses_non_integers(lambda k: make_constants(k_max=k + 15))
    assert mertens_zeta(np.int64(60)) == c


def test_mertens_direct_smallest_case(refuses_non_integers):
    est, tail = mertens_direct(2)
    assert est == pytest.approx(EULER_GAMMA + math.log(0.5) + 0.5, rel=1e-15)
    assert tail == 1.0
    with pytest.raises(InvalidArgumentError):
        mertens_direct(1)
    refuses_non_integers(mertens_direct)
    assert mertens_direct(np.int64(2)) == (est, tail)


def test_mertens_zeta_takes_each_zeta_once(monkeypatch):
    # every zeta - 1 in the package is a row of analytic._zeta_rows:
    # mertens_zeta takes its ln zeta(m) from one call whose rows are the 36
    # squarefree m in [2, 60], for the same double; zeta and prime_zeta
    # make one call each, and phi_mellin's nodes one per chunk
    calls, rows = [], analytic._zeta_rows

    def counting(w, js, tol):
        calls.append(list(js))
        return rows(w, js, tol)

    monkeypatch.setattr(analytic, "_zeta_rows", counting)
    monkeypatch.setattr(mellin, "_zeta_rows", counting)
    assert mertens_zeta(60) == 0.2614972128476428
    squarefree = [m for m in range(2, 61)
                  if all(m % (d * d) for d in range(2, 8))]
    assert len(squarefree) == 36
    assert calls == [squarefree]
    calls.clear()
    assert make_constants().mertens_c == 0.2614972128476428
    assert calls == [squarefree]
    calls.clear()
    assert zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-14)
    assert calls == [[1]]
    calls.clear()
    assert prime_zeta(2.0) == pytest.approx(0.4522474200410654985, rel=1e-14)
    assert len(calls) == 1
    mellin.mellin_nodes.cache_clear()
    try:
        calls.clear()
        nodes = mellin.mellin_nodes()[2].size
        assert len(calls) == math.ceil(nodes / mellin._MELLIN_CHUNK)
    finally:
        mellin.mellin_nodes.cache_clear()


def test_mertens_routes_agree():
    ref = mertens_zeta(60)
    for limit in (10 ** 4, 10 ** 5, 10 ** 7):
        est, tail = mertens_direct(limit)
        assert abs(est - ref) <= tail + 1e-12


def test_mertens_read_off_a_shared_stream(record_streams):
    # a MertensSum cut mid-block from a stream shared with NthPrimes, which
    # reads on to p_300000 = 4256233, gives mertens_direct's double; its
    # limit, 2097169, is the first prime past the first segment, so the cut
    # keeps one prime of the second block, and mertens_direct's own stream
    # reads two blocks; the limit is checked before any prime is streamed
    limit = 2_097_169
    assert limit - SEGMENT_SIZE == 17
    acc, kth = analytic.MertensSum(limit), NthPrimes([300_000, 10])
    assert feed_primes(acc, kth) == [mertens_direct(limit), [4_256_233, 29]]
    assert record_streams[-1] == [limit, 2]
    with pytest.raises(InvalidArgumentError):
        analytic.MertensSum(1)


def test_make_constants(constants):
    assert constants.mertens_c == pytest.approx(0.26149721284764278, abs=1e-15)
    assert constants.e_to_c == pytest.approx(1.2988733214090304, rel=1e-15)
    assert f"{constants.mertens_c:.6f}" == "0.261497"
    assert f"{constants.e_to_c:.6f}" == "1.298873"
    assert constants.euler_gamma == EULER_GAMMA
    assert "prime-zeta series" in constants.provenance
    assert "tail bound" in constants.provenance
    assert constants.tail_bound <= 2e-18


def test_make_constants_direct():
    c = make_constants("direct", limit=10 ** 6)
    assert abs(c.mertens_c - 0.26149721284764278) <= c.tail_bound
    assert c.tail_bound == pytest.approx(1e-6, rel=1e-4)
    assert "direct prime sum" in c.provenance


def test_make_constants_validation():
    with pytest.raises(InvalidArgumentError):
        make_constants("direct")
    with pytest.raises(InvalidArgumentError):
        make_constants("bogus")


def test_phi_values():
    assert phi_eval(0.0) == 0.0
    assert phi_eval(0.3) == pytest.approx(0.054517416246016132, rel=1e-14)
    assert phi_eval(0.5) == pytest.approx(0.17408707176097937, rel=1e-14)
    assert phi_eval(0.9) == pytest.approx(0.9075741460288752, rel=1e-13)
    assert f_eval(0.5) == pytest.approx(1.190159190565471, rel=1e-13)
    assert f_eval(0.9) == pytest.approx(2.4783032336246117, rel=1e-13)


def test_phi_dominated_by_log():
    for z in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        assert 0.0 < phi_eval(z) < -math.log(1.0 - z)


def test_phi_domain():
    for z in (-0.1, 1.0, 1.0 - 1e-10, 2.0):
        with pytest.raises(OutOfDomainError):
            phi_eval(z)
        with pytest.raises(OutOfDomainError):
            phi_deriv(z, 1)


def test_phi_deriv_values():
    assert phi_deriv(0.5, 1) == pytest.approx(0.8293650197022233, rel=1e-13)
    assert phi_deriv(0.5, 2) == pytest.approx(2.713526991405582, rel=1e-13)
    assert phi_deriv(0.5, 3) == pytest.approx(7.375241561470856, rel=1e-13)
    assert phi_deriv(0.0, 1) == 0.0
    assert phi_deriv(0.0, 2) == 1.0
    assert phi_deriv(0.0, 3) == 2.0
    with pytest.raises(InvalidArgumentError):
        phi_deriv(0.5, 4)
    with pytest.raises(InvalidArgumentError):
        phi_deriv(0.5, 0)
    # a float order gave a value at z = 0 and a TypeError elsewhere
    for z in (0.0, 0.5):
        with pytest.raises(InvalidArgumentError):
            phi_deriv(z, 2.0)
        assert phi_deriv(z, np.int64(2)) == phi_deriv(z, 2)


def test_phi_deriv_finite_differences():
    h = 1e-5
    for z in (0.1, 0.3, 0.5, 0.7, 0.9):
        fd1 = (phi_eval(z + h) - phi_eval(z - h)) / (2 * h)
        assert fd1 == pytest.approx(phi_deriv(z, 1), rel=1e-6)
        fd2 = (phi_deriv(z + h, 1) - phi_deriv(z - h, 1)) / (2 * h)
        assert fd2 == pytest.approx(phi_deriv(z, 2), rel=1e-6)
        fd3 = (phi_deriv(z + h, 2) - phi_deriv(z - h, 2)) / (2 * h)
        assert fd3 == pytest.approx(phi_deriv(z, 3), rel=1e-6)


def _dropped_tail(z, order, limit):
    """math.fsum of the order-th derivative's terms over the primes in
    (limit, 2 limit]: the part of the tail a sum to twice the limit adds.
    It reads one block's terms at a time."""
    def block_terms(block):
        kf = block[block > limit].astype(np.float64)
        falling = 1.0 / kf if order == 0 else np.ones_like(kf)
        for j in range(1, order):
            falling *= kf - j
        return memoryview(falling * np.exp((kf - order) * math.log(z)))

    return math.fsum(itertools.chain.from_iterable(
        map(block_terms, iter_prime_blocks(2 * limit))))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_series_drop_under_their_budget(order):
    # each series stops where at most 2^-53 of itself, under one ulp, is
    # left; for phi also at the bench grid's least t, where verify's
    # stream ends
    zs = (0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-5, 1.0 - 1e-6)
    for z in zs + ((1.0 - 3e-7,) if order == 0 else ()):
        whole = phi_deriv(z, order) if order else phi_eval(z)
        limit = analytic._series_limit(z, order)
        assert _dropped_tail(z, order, limit) <= 2.0 ** -53 * whole


@pytest.mark.parametrize("spec, order, z", [
    *((None, order, z) for order in range(4)
      for z in (0.5, 0.999, 1.0 - 1e-5)),
    (ODD, 0, 0.999),
    (CycleClassSpec.explicit({2, 3, 10}), 0, 0.999),
])
def test_series_is_the_rounded_exact_sum(spec, order, z):
    # the streamed blocks' terms, added exactly and rounded once, give the
    # same double as the same terms computed in one array
    limit = analytic._series_limit(z, order, spec)
    if spec is None:
        members = np.concatenate(list(iter_prime_blocks(limit)))
    else:
        members = spec.members_upto(limit)
    terms = analytic._power_terms(members.astype(np.float64), math.log(z), order)
    assert analytic._series(z, order, spec) == math.fsum(terms.tolist())


def test_series_read_off_a_shared_stream():
    # SeriesSum accumulators cut from one longer stream, which a MertensSum
    # to twice their limits extends, give the doubles their own streams give
    sums = [analytic.SeriesSum(0.999), analytic.SeriesSum(0.9999, 2),
            analytic.SeriesSum(0.99, 0, ODD)]
    with pytest.raises(OutOfDomainError):
        analytic.SeriesSum(1.0)
    longest = max(acc.limit for acc in sums[:2])
    got = feed_primes(*sums[:2], analytic.MertensSum(2 * longest))
    assert got[:2] == [phi_eval(0.999), phi_deriv(0.9999, 2)]
    sums[2].add(ODD.members_upto(sums[2].limit))
    assert sums[2].result() == analytic._series(0.99, 0, ODD)


def test_phi_limit_is_no_longer_than_its_budget_needs():
    # u = L(1 - z) for phi on the default and the bench t grids: the
    # prime-counting bound on the tail takes it from 32.7 to 31.8-30.5
    for t in T_GRID_DEFAULT + (1e-4, 1e-5, 1e-6, 3e-7):
        z = math.exp(-t)
        u = analytic._series_limit(z) * (1.0 - z)
        assert u <= 32.0
        if t <= 1e-6:
            assert u <= 31.0


def _series_limit_by_bisection(z, order=0, spec=None):
    """_series_limit's search as it was before its secant guess: the head
    sum's budget, then doubling and bisection from the floor.  Kept only
    as the reference for the faster search."""
    lnz = math.log(z)
    head = analytic._series_head(spec)
    over_primes = spec is None or spec.kind == "primes"
    floor = max(analytic._SERIES_FLOOR, head[-1])
    logs = [analytic._log_term(k, lnz, order) for k in head if k > order - 1]
    top = max(logs)
    log_lower = top + math.log(math.fsum(math.exp(x - top) for x in logs))
    gap = 1.0 - z
    big_m = 1.0 / gap
    if over_primes and 2.0 * big_m >= analytic._PI_LOWER_FROM:
        count = (2.0 * big_m / math.log(2.0 * big_m)
                 - analytic._PI_UPPER * big_m / math.log(big_m))
        if count > 0.0:
            least = min(analytic._log_term(big_m, lnz, order),
                        analytic._log_term(2.0 * big_m, lnz, order))
            log_lower = max(log_lower, math.log(count) + least)
            floor = max(floor, math.ceil(2.0 * big_m))
    budget = log_lower + analytic._LOG_BUDGET

    def within(L):
        margin = min(gap, ((L + 1) * gap + (1 - order)) / (L + 2 - order))
        if margin <= 0.0:
            return False
        if analytic._log_term(L + 1.0, lnz, order) - math.log(margin) <= budget:
            return True
        if not (over_primes and L >= analytic._PI_TIGHT_FROM
                and analytic._log_term_slope(L, lnz, order) <= 0.0):
            return False
        lnl = math.log(L)
        factor = (L / lnl ** 2
                  + (1.0 / lnl + 0.5 / lnl ** 2) * (1.0 + 1.0 / margin))
        return analytic._log_term(float(L), lnz, order) + math.log(factor) <= budget

    if within(floor):
        return floor
    lo, hi = floor, 2 * floor
    while not within(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid
    return hi


BENCH_T_GRID = (1e-4, 1e-5, 1e-6, 3e-7)
BENCH_N_GRID = (100, 1000, 10_000, 50_000)
LIMIT_ZS = sorted({
    0.1, 0.5, 0.9, 0.999, 1.0 - 1e-5,
    # where L leaves the floor of 100, which the head's first term alone
    # may accept
    *(j / 100 for j in range(60, 81)),
    *(math.exp(-t) for t in T_GRID_DEFAULT + BENCH_T_GRID),
    *(1.0 - 1.0 / n for n in BENCH_N_GRID),
    # and a sweep between them, three points a decade in t
    *(math.exp(-10.0 ** (-j / 3)) for j in range(3, 25)),
})


@pytest.mark.parametrize("spec, orders", [
    (None, range(4)),
    (ODD, (0,)),
    (CycleClassSpec.explicit((150, 400)), (0,)),
    (CycleClassSpec.residue_classes(500, (0,)), (0,)),
], ids=["primes", "odd", "set:150,400", "mod:500:0"])
def test_series_limit_matches_the_bisection_search(spec, orders):
    for order in orders:
        for z in LIMIT_ZS:
            assert analytic._series_limit(z, order, spec) == \
                _series_limit_by_bisection(z, order, spec), (order, z)


def test_log_term_slope_is_the_derivative():
    # the prime tail bound needs T decreasing past L, read off this slope
    for order in range(4):
        for z, k in ((0.9, 50.0), (1.0 - 1e-4, 3.0e5), (0.999, 2.5)):
            lnz, h = math.log(z), 1e-4
            if k <= order - 1 + h:
                continue
            numeric = (analytic._log_term(k + h, lnz, order)
                       - analytic._log_term(k - h, lnz, order)) / (2 * h)
            assert analytic._log_term_slope(k, lnz, order) == \
                pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_exact_sum_rounds_like_fsum():
    # one exact sum, rounded once: math.fsum's double, however the terms
    # are cut into blocks, for signs, spans, subnormals and ties alike
    rng = np.random.default_rng(3)
    cases = [
        np.array([1.0, 2.0 ** -53]),  # a tie, to even: 1.0
        np.array([1.0, 2.0 ** -53, 2.0 ** -120]),  # just past it: up
        np.array([1e308, -1e308, 5e-324, 5e-324]),
        np.array([0.0, -0.0]),
        rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000),
        np.ldexp(rng.random(3000), rng.integers(-1080, -1000, 3000)),
        np.exp(-rng.random(4000) * 700.0) / rng.integers(1, 10 ** 9, 4000),
    ]
    for x in cases:
        for parts in (1, 3, 7):
            acc = analytic._ExactSum()
            for block in np.array_split(x, parts):
                acc.add(block)
            assert acc.value() == math.fsum(x.tolist())
    assert analytic._ExactSum().value() == 0.0


def test_phi_split_recombines():
    for t in (1e-3, 1e-4):
        sp = phi_split(t)
        whole = phi_eval(math.exp(-t))
        assert abs(sp.phi1 + sp.phi2 + sp.phi3 - whole) <= 1e-9
        assert sp.t == t
        assert sp.phi1 > 0 and sp.phi2 < 0 and sp.phi3 > 0


def test_phi_split_structure():
    t = 1e-4
    sp = phi_split(t)
    log_inv = math.log(1.0 / t)
    loglog = math.log(log_inv)
    assert sp.cutoff == pytest.approx((1 / t) * log_inv / loglog, rel=1e-15)
    # head follows the prime harmonic asymptotic at the cutoff
    assert abs(sp.phi1 - (math.log(math.log(sp.cutoff)) + 0.2614972)) <= 0.05
    # deficit and tail obey their coarse bounds
    assert abs(sp.phi2) <= 2.0 / loglog
    assert 0.0 < sp.phi3 <= 1.0


def test_phi_split_domain():
    for t in (0.0, -1e-3, T_DOMAIN_CAP, 0.07, 1.0):
        with pytest.raises(OutOfDomainError):
            phi_split(t)
    # below the floor, e^-t passes phi's z cap; t itself is refused
    with pytest.raises(OutOfDomainError, match=r"^t must lie in \[-ln"):
        phi_split(1e-12)
    # just inside the cap is fine
    assert phi_split(T_DOMAIN_CAP * 0.999).phi1 > 0


def test_phi_split_grid_matches_per_t_calls():
    # Same terms, other blocks: each sum adds same-sign terms in at most
    # ~25 block sums of pairwise-summed blocks, so the two orders differ by
    # under 2 * (25 + 20) eps < 1e-14 relative.  direct is phi_mellin at
    # t' = -ln(fl(e^-t)), as verify takes it; taking it at t itself would
    # move it by 4e-13 at t = 1e-6.
    grid = (1e-3, 1e-4, 1e-5, 1e-6)
    results = phi_split_grid(grid)
    assert len(results) == len(grid)
    whole = analytic.phi_mellin([-math.log(math.exp(-t)) for t in grid])
    for t, sp, direct in zip(grid, results, whole):
        one = phi_split(t)
        assert sp.t == t and sp.cutoff == one.cutoff
        for got, want in ((sp.phi1, one.phi1), (sp.phi2, one.phi2),
                          (sp.phi3, one.phi3)):
            assert got == pytest.approx(want, rel=1e-14)
        assert direct == pytest.approx(phi_eval(math.exp(-t)), rel=1e-14)


def test_phi_split_grid_row_depends_on_its_t_alone():
    # block edges sit at multiples of the segment whatever the stream's
    # limit, so a row is summed in the same order on any grid; t = 1e-5
    # streams to 4e6, past the first edge, and its last block is cut
    wide = phi_split_grid((1e-6, 1e-3, 1e-5, 1e-4))
    for t, row in zip((1e-3, 1e-5), (wide[1], wide[2])):
        assert phi_split_grid((t,))[0] == row
        assert phi_split_grid((t, 1e-4))[0] == row


def test_phi_split_grid_at_the_cap_edge():
    # t' = -ln(fl(e^-t)) reaches e^-e from each of the 4 floats below it,
    # so phi_mellin's domain reaches a little past the split's
    grid, t = [], T_DOMAIN_CAP
    for _ in range(6):
        t = math.nextafter(t, 0.0)
        grid.append(t)
    t_primes = [-math.log(math.exp(-t)) for t in grid]
    assert max(t_primes) >= T_DOMAIN_CAP
    whole = analytic.phi_mellin(t_primes)
    for t, sp, direct in zip(grid, phi_split_grid(grid), whole):
        assert direct == pytest.approx(phi_eval(math.exp(-t)), rel=1e-14)
        assert sp.phi1 + sp.phi2 + sp.phi3 == pytest.approx(direct, rel=1e-13)


def test_phi_split_reads_no_phi_mellin(monkeypatch):
    def refuse(t_grid):
        raise AssertionError("phi_split called phi_mellin")

    want = phi_split_grid((1e-3,))[0]
    monkeypatch.setattr(analytic, "phi_mellin", refuse)
    assert phi_split(1e-3) == want
    assert phi_split_grid((1e-3, 1e-4))[0] == want


def test_phi_split_grid_checks_every_t_before_streaming(record_streams):
    # out of the split's domain [-ln(1 - 1e-9), e^-e) last in the grid
    for grid in ((1e-3, 1e-4, T_DOMAIN_CAP), (1e-3, 0.0), (1e-4, 1e-10)):
        with pytest.raises(OutOfDomainError):
            phi_split_grid(grid)
    assert record_streams == []
    # an empty grid's stream ends at 0 and reads no block
    assert phi_split_grid(()) == []
    assert record_streams == [[0, 0]]


def test_phi_mellin_matches_phi_eval_on_both_verify_grids(streamed_phi):
    # at t' = -ln(fl(e^-t)), the t that phi_eval's double z encodes; the
    # route reads no primes, the series reads nothing else
    assert sorted(streamed_phi) == sorted(set(T_GRID_DEFAULT + BENCH_T_GRID))
    for t, phi in streamed_phi.items():
        t_prime = -math.log(math.exp(-t))
        assert analytic.phi_mellin([t_prime])[0] == \
            pytest.approx(phi, rel=1e-14), t


def test_phi_mellin_matches_the_series_where_t_is_large():
    # z = 1 - 1/n on the bench n grid: t from 1.0e-2 down to 2e-5
    for n in BENCH_N_GRID:
        z = 1.0 - 1.0 / n
        series = feed_primes(analytic.SeriesSum(z))[0]
        assert analytic.phi_mellin([-math.log(z)])[0] == \
            pytest.approx(series, rel=1e-14), n


def test_phi_mellin_value_depends_on_its_t_alone():
    grid = [1e-3, 3e-7, T_DOMAIN_CAP * 0.999, analytic.T_MELLIN_FLOOR]
    assert analytic.phi_mellin(grid) == \
        [analytic.phi_mellin([t])[0] for t in grid]


def test_phi_mellin_sums_its_nodes_with_fsum(monkeypatch):
    calls, fsum = [], math.fsum

    def counting(values):
        calls.append(len(values))
        return fsum(values)

    nodes = mellin.mellin_nodes()[2].size
    monkeypatch.setattr(analytic.math, "fsum", counting)
    analytic.phi_mellin(BENCH_T_GRID)
    assert calls == [nodes] * len(BENCH_T_GRID)


@pytest.mark.parametrize("y", [0.0, 0.5, 3.0, 10.0, 20.0])
def test_mellin_gamma_and_prime_zeta_against_mpmath(y):
    h, sigma, log_gamma, prime_zeta = mellin.mellin_nodes()
    k = round(y / h)
    node = complex(sigma, h * k)
    with mpmath.workdps(30):
        lg = complex(mpmath.loggamma(mpmath.mpc(node.real, node.imag)))
        p = complex(mpmath.primezeta(mpmath.mpc(1.0 + node.real, node.imag)))
    # the branch continuous from the real axis, to a few ulps of its size
    assert abs(log_gamma[k] - lg) <= 1e-15 * (1.0 + abs(lg))
    # P within its own bound, plus rounding; the kept node near y = 0,
    # where the integrand is largest, to about an ulp
    got, bound = mellin._prime_zeta_1p(np.array([node]), 1e-20)
    assert abs(got[0] - p) <= bound[0] + 1e-15
    if y <= 3.0:
        assert abs(prime_zeta[k] - p) <= 1e-15


def test_zeta_rows_bound_is_inf_without_room():
    # far up the line Euler-Maclaurin's remainder outgrows the room
    # (Re x - 1)/Re x that the bound on ln zeta needs, and the bound is inf
    near = analytic._zeta_rows(np.array([1.5 + 3j, 1.5 + 30j]), [1], 1e-20)[1]
    assert near.tolist() == pytest.approx([3.8e-23, 1.3e-12], rel=0.1)
    assert analytic._zeta_rows(np.array([1.5 + 300j]), [1], 1e-20)[1] == \
        math.inf


def test_phi_mellin_domain():
    for t in (0.0, -1e-3, analytic.T_MELLIN_FLOOR / 2, analytic.T_MELLIN_CAP,
              1.0, math.nan):
        with pytest.raises(OutOfDomainError, match=r"^t must lie in"):
            analytic.phi_mellin([1e-4, t])
    assert analytic.phi_mellin([]) == []
    # the t' of the split's least t lies a little below it, in the route's
    # domain
    t = -math.log(math.exp(-analytic.T_DOMAIN_FLOOR))
    assert t < analytic.T_DOMAIN_FLOOR
    assert analytic.phi_mellin([t])[0] > 3.0


def test_phi_mellin_memory_on_the_bench_grid():
    # the nodes' zeta tables pass 128 nodes at a time
    mellin.mellin_nodes.cache_clear()
    tracemalloc.start()
    try:
        analytic.phi_mellin(BENCH_T_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def test_phi_mellin_refuses_nodes_beyond_its_budget(monkeypatch):
    # too few Euler-Maclaurin terms: the nodes' error bound outgrows the
    # budget, and the route refuses rather than answer
    mellin.mellin_nodes.cache_clear()
    monkeypatch.setattr(analytic, "_EM_TERMS", 3)
    try:
        with pytest.raises(InternalConsistencyError, match="budget"):
            analytic.phi_mellin([1e-4])
    finally:
        mellin.mellin_nodes.cache_clear()


def test_partial_sum_log_model(constants, refuses_non_integers):
    got = partial_sum_log_model(10 ** 5, constants)
    assert got == pytest.approx(14.953831737820485, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        partial_sum_log_model(1, constants)
    refuses_non_integers(lambda n: partial_sum_log_model(n, constants))
    assert partial_sum_log_model(np.int64(10 ** 5), constants) == got


def test_model_f_asym(constants):
    got = model_f_asym(math.exp(-10.0), constants)
    assert got == pytest.approx(12.988733214090303, rel=1e-12)
    with pytest.raises(OutOfDomainError):
        model_f_asym(0.5, constants)
    with pytest.raises(OutOfDomainError):
        model_f_asym(0.0, constants)


def test_yakimiv_all_lengths_consistency(constants):
    # density 1: the model must reproduce ln n! up to the harmonic remainder
    n = 10 ** 5
    model = yakimiv_log_model(ALL, n, constants)
    assert math.exp(model - math.lgamma(n + 1.0)) == pytest.approx(1.0, abs=1e-4)


def test_yakimiv_odd_matches_exact(constants):
    n = 500
    p = count_exact(ODD, n)
    ratio = math.exp(math.log(p) - yakimiv_log_model(ODD, n, constants))
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_yakimiv_rejects_density_zero(primes_spec, constants,
                                      refuses_non_integers):
    with pytest.raises(UnsupportedSpecError):
        yakimiv_log_model(primes_spec, 100, constants)
    with pytest.raises(UnsupportedSpecError):
        yakimiv_log_model(CycleClassSpec.explicit({2, 3}), 100, constants)
    with pytest.raises(InvalidArgumentError):
        yakimiv_log_model(ODD, 1, constants)
    refuses_non_integers(lambda n: yakimiv_log_model(ODD, n, constants))
    assert (yakimiv_log_model(ODD, np.int64(100), constants)
            == yakimiv_log_model(ODD, 100, constants))


def test_odlyzko_all_lengths_exact(constants):
    assert odlyzko_sum_model(ALL, 17, constants) == 17.0
    assert odlyzko_sum_model(ALL, 1000, constants) == 1000.0


def test_odlyzko_odd_matches_closed_form(constants):
    # sum over odd k of z^k/k is atanh(z), so f = sqrt((1+z)/(1-z))
    n = 1000
    got = odlyzko_sum_model(ODD, n, constants)
    f_closed = math.sqrt(1999.0)
    assert got * math.exp(math.lgamma(1.5)) == pytest.approx(f_closed, rel=1e-10)


def test_odlyzko_sets_with_no_member_below_the_floor(constants):
    # the truncation budget then rests on the smallest member alone
    n = 1000
    z = 1.0 - 1.0 / n
    got = odlyzko_sum_model(CycleClassSpec.explicit((150, 400)), n, constants)
    assert got == pytest.approx(math.exp(z ** 150 / 150 + z ** 400 / 400),
                                rel=1e-14)
    # sum over k = 500j of z^k/k is -ln(1 - z^500)/500
    got = odlyzko_sum_model(CycleClassSpec.residue_classes(500, (0,)), n,
                            constants)
    f_closed = (1.0 - z ** 500) ** (-1.0 / 500)
    assert got * math.exp(math.lgamma(1.002)) == pytest.approx(f_closed,
                                                              rel=1e-12)


def test_odlyzko_refuses_the_empty_set(constants):
    with pytest.raises(InvalidArgumentError, match="empty set"):
        odlyzko_sum_model(CycleClassSpec.explicit(()), 10, constants)


def test_odlyzko_primes_matches_phi_route(primes_spec, primes_spec_big,
                                          constants):
    # one series, one limit, Gamma(1) = 1: the same double.  The primes
    # stream past the spec's sieve, so a sieve to 10^4 serves n = 10^4
    for spec, n in ((primes_spec_big, 100), (primes_spec_big, 1000),
                    (primes_spec, 10 ** 4)):
        assert odlyzko_sum_model(spec, n, constants) == f_eval(1.0 - 1.0 / n)


def test_series_share_one_truncation_limit(primes_spec, constants,
                                           record_streams):
    t = 1e-4
    z = math.exp(-t)
    phi_eval(z)
    for order in (1, 2, 3):
        phi_deriv(z, order)
    phi_split_grid((t,))
    # phi and the split share the order-0 limit; each derivative has its own
    own = [analytic._series_limit(z, order) for order in range(4)]
    assert [limit for limit, _ in record_streams] == own + own[:1]
    assert len(set(own)) == 4
    record_streams.clear()
    n = 1000
    z = 1.0 - 1.0 / n
    phi_eval(z)
    for order in (1, 2, 3):
        phi_deriv(z, order)
    odlyzko_sum_model(primes_spec, n, constants)
    own = [analytic._series_limit(z, order) for order in range(4)]
    assert [limit for limit, _ in record_streams] == own + own[:1]
    assert len(set(own)) == 4


def test_odlyzko_validation(primes_spec, constants, refuses_non_integers):
    with pytest.raises(InvalidArgumentError):
        odlyzko_sum_model(ALL, 1, constants)
    for spec in (primes_spec, ALL, ODD):
        refuses_non_integers(lambda n: odlyzko_sum_model(spec, n, constants))
        assert (odlyzko_sum_model(spec, np.int64(100), constants)
                == odlyzko_sum_model(spec, 100, constants))


def test_constants_record_is_frozen(constants):
    assert isinstance(constants, Constants)
    with pytest.raises(Exception):
        constants.mertens_c = 0.0
