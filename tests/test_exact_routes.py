"""Differential tests: the two exact routes of count_exact_upto against the
general recurrence (test-only), the partition oracle at every n and brute
force, and the float routes of build_table against the exact counts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from general_recurrence import count_general_upto
from primecycles import exact_enum
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import InternalConsistencyError
from primecycles.exact_enum import (
    _count_scaled,
    build_table,
    count_brute_force,
    count_by_cycle_types_upto,
    count_exact_upto,
)

ROUTE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                          database=None)


@st.composite
def residue_specs(draw):
    m = draw(st.integers(1, 7))
    residues = draw(st.sets(st.integers(0, m - 1), min_size=1))
    return CycleClassSpec.residue_classes(m, residues)


periodic_specs = st.one_of(residue_specs(), st.just(CycleClassSpec.all_lengths()))


finite_specs = st.one_of(
    st.sets(st.integers(1, 30), max_size=8).map(CycleClassSpec.explicit),
    st.integers(1, 30).map(CycleClassSpec.singleton),
)


def check_against_oracles(spec, n_max, n_brute):
    counts = count_exact_upto(spec, n_max)
    assert type(counts) is list
    assert all(type(p) is int for p in counts)
    assert counts == count_general_upto(spec, n_max), spec
    assert counts == count_by_cycle_types_upto(spec, n_max), spec
    for n in range(min(n_brute, n_max) + 1):
        assert counts[n] == count_brute_force(spec, n), (spec, n)
    a_float = build_table(spec, n_max, "float").a_float
    for n, p in enumerate(counts):
        exact = p / math.factorial(n)
        if p == 0:
            assert a_float[n] == 0.0, (spec, n)
        else:
            assert abs(a_float[n] - exact) <= 1e-10 * exact, (spec, n)


@ROUTE_SETTINGS
@given(spec=periodic_specs, n_max=st.integers(0, 120), n_brute=st.integers(0, 8))
def test_periodic_route_matches_oracles(spec, n_max, n_brute):
    check_against_oracles(spec, n_max, n_brute)


@ROUTE_SETTINGS
@given(spec=finite_specs, n_max=st.integers(0, 120), n_brute=st.integers(0, 8))
def test_scaled_route_matches_oracles(spec, n_max, n_brute):
    # finite sets take the step route; the scaled route, which only the
    # primes take, must agree with it on the same members
    check_against_oracles(spec, n_max, n_brute)
    members = spec.members_upto(n_max).tolist()
    assert _count_scaled(members, n_max) == count_exact_upto(spec, n_max), spec


def test_explicit_sets_take_the_step_route(monkeypatch):
    # the scaled route is kept for the primes; a finite set's B_n carries
    # as many digits as N!, which made set:2,3,10 5x slower there
    def refuse(*args):
        raise AssertionError("explicit sets do not take this route")

    monkeypatch.setattr(exact_enum, "_count_scaled", refuse)
    monkeypatch.setattr(exact_enum, "_build_float_baseline", refuse)
    # the values themselves are checked by test_scaled_route_matches_oracles
    spec = CycleClassSpec.explicit((2, 3, 10))
    assert count_exact_upto(spec, 200) == count_general_upto(spec, 200)
    assert build_table(spec, 200, "float").a_float[200] > 0.0


def test_primes_route_matches_general(primes_spec):
    for n_max in (0, 1, 2, 5, 300):
        assert count_exact_upto(primes_spec, n_max) == \
            count_general_upto(primes_spec, n_max)


@pytest.mark.parametrize("length, b0, message", [
    # 2*B_2 = B_0 = 1 leaves a remainder
    (2, 1, r"multiple of 2$"),
    # 3*B_3 = B_0 = 3 divides, but P_0 = B_0 / 3! does not
    (3, 3, r"multiple of 3!/0!$"),
], ids=["forward-division", "back-division"])
def test_scaled_route_refuses_a_remainder(length, b0, message, monkeypatch):
    # B_0 = N! is the scale; a wrong one must not come out as a count
    monkeypatch.setattr(math, "factorial", lambda n: b0)
    with pytest.raises(InternalConsistencyError, match=message):
        _count_scaled([length], length)


def test_partition_oracle_refuses_a_remainder(monkeypatch):
    # one 2-cycle on 2 points is 2!/(0! 2^1 1!) = 1 way; a falling factor
    # of 1 instead of 2 leaves 1/2, which must not come out as a count
    monkeypatch.setattr(math, "perm", lambda n, k: 1)
    with pytest.raises(InternalConsistencyError, match=r"not a multiple of 2$"):
        count_by_cycle_types_upto(CycleClassSpec.singleton(2), 2)
