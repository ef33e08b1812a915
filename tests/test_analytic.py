import math

import mpmath
import numpy as np
import pytest

from primecycles import analytic
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
    InvalidArgumentError,
    OutOfDomainError,
    OutOfRangeError,
    UnsupportedSpecError,
)
from primecycles.exact_enum import count_exact, int_log
from primecycles.primes import iter_prime_blocks

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


def test_mertens_constant_against_mpmath():
    assert abs(make_constants().mertens_c - float(mpmath.mertens)) <= 1e-13


def test_mertens_constant_via_zeta():
    c = mertens_zeta(60)
    assert c == pytest.approx(0.26149721284764278, abs=1e-15)
    assert EULER_GAMMA - c == pytest.approx(0.3157184520538901, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        mertens_zeta(9)


def test_mertens_direct_smallest_case(sieve_small):
    est, tail = mertens_direct(sieve_small, 2)
    assert est == pytest.approx(EULER_GAMMA + math.log(0.5) + 0.5, rel=1e-15)
    assert tail == 1.0
    with pytest.raises(InvalidArgumentError):
        mertens_direct(sieve_small, 1)
    with pytest.raises(OutOfRangeError):
        mertens_direct(sieve_small, 20_000)


def test_mertens_routes_agree(sieve_big):
    ref = mertens_zeta(60)
    for limit in (10 ** 4, 10 ** 5, 10 ** 7):
        est, tail = mertens_direct(sieve_big, limit)
        assert abs(est - ref) <= tail + 1e-12


def test_make_constants(constants):
    assert constants.mertens_c == pytest.approx(0.26149721284764278, abs=1e-15)
    assert constants.e_to_c == pytest.approx(1.2988733214090304, rel=1e-15)
    assert f"{constants.mertens_c:.6f}" == "0.261497"
    assert f"{constants.e_to_c:.6f}" == "1.298873"
    assert constants.euler_gamma == EULER_GAMMA
    assert "prime-zeta series" in constants.provenance
    assert "tail bound" in constants.provenance
    assert constants.tail_bound <= 2e-18


def test_make_constants_direct(sieve_big):
    c = make_constants("direct", table=sieve_big, limit=10 ** 6)
    assert abs(c.mertens_c - 0.26149721284764278) <= c.tail_bound
    assert c.tail_bound == pytest.approx(1e-6, rel=1e-4)
    assert "direct prime sum" in c.provenance


def test_make_constants_validation(sieve_small):
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


def test_phi_deriv_finite_differences():
    h = 1e-5
    for z in (0.1, 0.3, 0.5, 0.7, 0.9):
        fd1 = (phi_eval(z + h) - phi_eval(z - h)) / (2 * h)
        assert fd1 == pytest.approx(phi_deriv(z, 1), rel=1e-6)
        fd2 = (phi_deriv(z + h, 1) - phi_deriv(z - h, 1)) / (2 * h)
        assert fd2 == pytest.approx(phi_deriv(z, 2), rel=1e-6)
        fd3 = (phi_deriv(z + h, 2) - phi_deriv(z - h, 2)) / (2 * h)
        assert fd3 == pytest.approx(phi_deriv(z, 3), rel=1e-6)


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
    # just inside the cap is fine
    assert phi_split(T_DOMAIN_CAP * 0.999).phi1 > 0


def test_phi_split_grid_matches_per_t_calls():
    # Same terms, other blocks: each sum adds same-sign terms in at most
    # ~25 block sums of pairwise-summed blocks, so the two orders differ by
    # under 2 * (25 + 20) eps < 1e-14 relative.  Taking ln z as -t instead
    # of ln(e^-t) would move the direct sum by 4e-13 at t = 1e-6.
    grid = (1e-3, 1e-4, 1e-5, 1e-6)
    results = phi_split_grid(grid)
    assert len(results) == len(grid)
    for t, (sp, direct) in zip(grid, results):
        one = phi_split(t)
        assert sp.t == t and sp.cutoff == one.cutoff
        for got, want in ((sp.phi1, one.phi1), (sp.phi2, one.phi2),
                          (sp.phi3, one.phi3)):
            assert got == pytest.approx(want, rel=1e-14)
        assert direct == pytest.approx(phi_eval(math.exp(-t)), rel=1e-14)


def test_phi_split_grid_checks_every_t_before_streaming(monkeypatch):
    calls = []

    def counting(limit, *args, **kwargs):
        calls.append(limit)
        return iter_prime_blocks(limit, *args, **kwargs)

    monkeypatch.setattr(analytic, "iter_prime_blocks", counting)
    # out of (0, e^-e) last in the grid; below the z cap of phi_eval
    for grid in ((1e-3, 1e-4, T_DOMAIN_CAP), (1e-3, 0.0), (1e-4, 1e-10)):
        with pytest.raises(OutOfDomainError):
            phi_split_grid(grid)
    assert calls == []
    assert phi_split_grid(()) == []
    assert calls == []


def test_partial_sum_log_model(constants):
    got = partial_sum_log_model(10 ** 5, constants)
    assert got == pytest.approx(14.953831737820485, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        partial_sum_log_model(1, constants)


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
    ratio = math.exp(int_log(p) - yakimiv_log_model(ODD, n, constants))
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_yakimiv_rejects_density_zero(primes_spec, constants):
    with pytest.raises(UnsupportedSpecError):
        yakimiv_log_model(primes_spec, 100, constants)
    with pytest.raises(UnsupportedSpecError):
        yakimiv_log_model(CycleClassSpec.explicit({2, 3}), 100, constants)
    with pytest.raises(InvalidArgumentError):
        yakimiv_log_model(ODD, 1, constants)


def test_odlyzko_all_lengths_exact(constants):
    assert odlyzko_sum_model(ALL, 17, constants) == 17.0
    assert odlyzko_sum_model(ALL, 1000, constants) == 1000.0


def test_odlyzko_odd_matches_closed_form(constants):
    # sum over odd k of z^k/k is atanh(z), so f = sqrt((1+z)/(1-z))
    n = 1000
    got = odlyzko_sum_model(ODD, n, constants)
    f_closed = math.sqrt(1999.0)
    assert got * math.exp(math.lgamma(1.5)) == pytest.approx(f_closed, rel=1e-10)


def test_odlyzko_primes_matches_phi_route(primes_spec_big, constants):
    for n in (100, 1000):
        got = odlyzko_sum_model(primes_spec_big, n, constants)
        ref = f_eval(1.0 - 1.0 / n)
        assert got == pytest.approx(ref, rel=1e-9)


def test_odlyzko_validation(primes_spec, constants):
    with pytest.raises(InvalidArgumentError):
        odlyzko_sum_model(ALL, 1, constants)


def test_constants_record_is_frozen(constants):
    assert isinstance(constants, Constants)
    with pytest.raises(Exception):
        constants.mertens_c = 0.0
