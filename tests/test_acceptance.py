"""End-to-end acceptance checklist: ten numbered criteria, one test each,
plus the check of the exact counts to the exact cap against the exponential
formula mod q.

Run with `pytest -v tests/test_acceptance.py` to get one line per criterion;
each test also prints its own pass/fail line (visible with -s or -rA).
Tolerances here are contractual; nothing is tuned to force a pass.  Several
criteria are deliberately heavy (prime streaming to 3.05e9, an FFT table to
1e6, the exact counts of eleven specs to n = 2000): the module takes about
15 s and the whole suite about 35 s on a 2-vCPU Xeon.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from fingerprint import check_exact_counts
from primecycles.analytic import (
    mertens_direct,
    phi_deriv,
    yakimiv_log_model,
)
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import EmptySupportError
from primecycles.exact_enum import (
    EXACT_CAP_DEFAULT,
    _build_float_baseline,
    build_table,
    count_brute_force,
    count_by_cycle_types,
    count_exact,
    count_exact_upto,
    partial_sum,
)
from primecycles.sampler import (
    Sampler,
    expand_type_distribution,
    uniform_type_distribution,
)
from primecycles.verify import (
    N_GRID_DEFAULT,
    T_GRID_DEFAULT,
    hlk_comparison_table,
    partial_sum_table,
)

ODD = CycleClassSpec.residue_classes(2, (1,))
EVEN = CycleClassSpec.residue_classes(2, (0,))
MOD3 = CycleClassSpec.residue_classes(3, (1, 2))
ALL = CycleClassSpec.all_lengths()


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_01_oracle_equivalence(primes_spec):
    started = time.monotonic()
    with criterion("criterion 01 (three counting routes agree)"):
        specs = [primes_spec, ODD, EVEN, ALL, CycleClassSpec.singleton(1)]
        for spec in specs:
            exact = count_exact_upto(spec, 60)
            for n in range(10):
                assert exact[n] == count_brute_force(spec, n), (spec, n)
            for n in range(61):
                assert exact[n] == count_by_cycle_types(spec, n), (spec, n)
        assert time.monotonic() - started < 60.0


def test_criterion_02_known_small_values(table300):
    with criterion("criterion 02 (known small values)"):
        assert table300.p_exact[:6] == (1, 0, 1, 2, 3, 44)
        assert partial_sum(table300, 5) == Fraction(279, 120)


def test_criterion_03_constants_digits(constants):
    started = time.monotonic()
    with criterion("criterion 03 (constants to six decimals, dual route)"):
        assert f"{constants.mertens_c:.6f}" == "0.261497"
        assert f"{constants.e_to_c:.6f}" == "1.298873"
        est, tail = mertens_direct(10 ** 7)
        assert abs(est - constants.mertens_c) <= tail + 1e-12
        assert time.monotonic() - started < 60.0


def test_criterion_04_partial_sum_asymptotic(float_table_1e5, constants,
                                             primes_spec_big):
    with criterion("criterion 04 (partial sums track e^c ln n)"):
        rows = partial_sum_table(float_table_1e5, N_GRID_DEFAULT, constants)
        assert all(abs(r.scaled_residual) <= 2.0 for r in rows)
        dev = {int(r.x): abs(r.ratio - 1.0) for r in rows}
        assert dev[100_000] <= dev[10_000] <= dev[1000]

        fast = build_table(primes_spec_big, 10 ** 6, mode="float")
        rows6 = partial_sum_table(fast, N_GRID_DEFAULT + (10 ** 6,), constants)
        assert all(abs(r.scaled_residual) <= 2.0 for r in rows6)
        dev6 = {int(r.x): abs(r.ratio - 1.0) for r in rows6}
        assert dev6[100_000] <= dev6[10_000] <= dev6[1000]
        assert dev6[10 ** 6] <= dev6[100_000]


def test_criterion_05_hlk_comparison(float_table_1e5, constants):
    with criterion("criterion 05 (partial sums vs generating function)"):
        rows = hlk_comparison_table(float_table_1e5,
                                    (10 ** 3, 10 ** 4, 10 ** 5), constants)
        dev = {int(r.x): abs(r.ratio - 1.0) for r in rows}
        assert dev[10 ** 4] <= 0.1
        assert dev[10 ** 5] < dev[10 ** 3]

        all_tab = build_table(ALL, 1000, "float")
        for r in hlk_comparison_table(all_tab, (4, 10, 100, 1000), constants):
            n = int(r.x)
            assert r.ratio == (n + 1.0) / n


def test_criterion_06_phi_split_estimates(constants, default_verify_run):
    with criterion("criterion 06 (three-way split of phi(e^-t))"):
        # the phi table of `primecycles verify` on its default t grid
        rows = default_verify_run.tables["phi"]
        assert [r.t for r in rows] == list(T_GRID_DEFAULT)
        for r in rows:
            log_inv = math.log(1.0 / r.t)
            loglog = math.log(log_inv)
            assert abs(r.recombined - r.direct) <= 1e-9 * abs(r.direct)
            assert abs(r.phi1 - loglog - constants.mertens_c) \
                <= 5.0 * loglog / log_inv + 5.0 / log_inv
            assert abs(r.phi2) <= 5.0 / loglog
            envelope = math.exp(-r.cutoff * r.t) / (r.cutoff * r.t)
            assert r.phi3 <= 5.0 * envelope


def test_criterion_07_derivative_asymptotics():
    with criterion("criterion 07 (derivative growth rates near z = 1)"):
        scale_const = {1: 1.0, 2: 1.0, 3: 2.0}

        def scaled(z, k):
            eps = 1.0 - z
            return (phi_deriv(z, k) * eps ** k * math.log(1.0 / eps)
                    / scale_const[k])

        for k in (1, 2, 3):
            near = scaled(1.0 - 1e-6, k)
            far = scaled(1.0 - 1e-3, k)
            assert 0.5 < near < 1.5, k
            assert abs(near - 1.0) < abs(far - 1.0), k


def test_criterion_08_positive_density_model(constants):
    with criterion("criterion 08 (positive-density count model)"):
        for spec in (ODD, MOD3):
            counts = count_exact_upto(spec, 2000)
            ratio = {}
            for n in (500, 1000, 2000):
                model = yakimiv_log_model(spec, n, constants)
                ratio[n] = math.exp(model - math.log(counts[n]))
            assert 0.9 < ratio[1000] < 1.1, spec
            assert abs(ratio[2000] - 1.0) < abs(ratio[500] - 1.0), spec


def test_exact_counts_match_the_exponential_formula_mod_q(primes_spec):
    # both exact routes and every spec kind, to the cap, against P_n mod q
    # from f_A = prod_{k in A} exp(x^k/k), an identity neither route uses
    specs = [primes_spec, ALL, ODD, EVEN,
             CycleClassSpec.residue_classes(3, (0,)), MOD3,
             CycleClassSpec.residue_classes(6, (1, 5)),
             CycleClassSpec.explicit((2, 3, 10)),
             CycleClassSpec.explicit((1, 2)), CycleClassSpec.singleton(7),
             CycleClassSpec.explicit(())]
    with criterion(f"exact counts to n = {EXACT_CAP_DEFAULT} match the "
                   "exponential formula mod q"):
        for spec in specs:
            assert check_exact_counts(spec, EXACT_CAP_DEFAULT) is None, spec


def test_criterion_09_sampler_exactness(table300, primes_spec):
    with criterion("criterion 09 (sampler matches the exact distribution)"):
        for n in (0, 2, 3, 4, 5, 6, 7):
            assert expand_type_distribution(table300, n) == \
                uniform_type_distribution(primes_spec, n)
        with pytest.raises(EmptySupportError):
            expand_type_distribution(table300, 1)
        with pytest.raises(EmptySupportError):
            uniform_type_distribution(primes_spec, 1)

        sam = Sampler(table300, seed=20260819)
        rounds = 100_000
        hits = sum(1 for _ in range(rounds) if sam.sample(5).lengths == (5,))
        p = 6.0 / 11.0
        three_sigma = 3.0 * math.sqrt(p * (1.0 - p) / rounds)
        assert abs(hits / rounds - p) <= three_sigma


def test_criterion_10_float_exact_agreement(table300, float_table_1e5,
                                            primes_spec_big):
    with criterion("criterion 10 (float recurrence and fast path agree)"):
        for n in range(301):
            exact = Fraction(table300.p_exact[n], math.factorial(n))
            got = float(table300.a_float[n])
            if exact == 0:
                assert got == 0.0
            else:
                assert abs(got - float(exact)) <= 1e-10 * float(exact), n
        # the primes' float tables take the FFT; the direct sum is its reference
        base = _build_float_baseline(primes_spec_big.members_upto(10 ** 5), 10 ** 5)
        fast = float_table_1e5.a_float
        nz = base != 0.0
        rel = np.abs(fast[nz] - base[nz]) / base[nz]
        assert float(rel.max()) <= 1e-9
        assert fast[1] == 0.0
