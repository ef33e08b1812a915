"""Differential tests: the two exact routes of count_exact_upto against the
partition oracle at every n and brute force, the fingerprint check (P_n mod
q by the exponential formula, tests/fingerprint.py) against the partition
oracle and against planted faults, and the float routes of build_table
against the exact counts.  The module takes about 10 s on a 2-vCPU Xeon."""

import inspect
import math
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerprint import MODULI, check_exact_counts, counts_mod
from primecycles import exact_enum
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import InternalConsistencyError
from primecycles.exact_enum import (
    EXACT_CAP_DEFAULT,
    PARTITION_CAP,
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
    assert count_exact_upto(spec, 200) == count_by_cycle_types_upto(spec, 200)
    assert build_table(spec, 200, "float").a_float[200] > 0.0


def test_primes_route_matches_partition_oracle(primes_spec):
    for n_max in (0, 1, 2, 5, PARTITION_CAP):
        assert count_exact_upto(primes_spec, n_max) == \
            count_by_cycle_types_upto(primes_spec, n_max)


@pytest.mark.parametrize("n_max", [*range(28, 33), *range(58, 63),
                                   *range(88, 93), PARTITION_CAP])
def test_scaled_route_where_the_wheel_wraps(n_max, primes_spec):
    # the ring of the last 30 U_n is first read back at n = 30, 60, 90
    members = primes_spec.members_upto(n_max).tolist()
    assert _count_scaled(members, n_max) == \
        count_by_cycle_types_upto(primes_spec, n_max)


@pytest.mark.parametrize("values", [
    (1, 2, 6, 7, 10, 15, 30, 49),  # 1, wheel primes, shared factors, 7^2
    (1,), (2, 3, 5), (7, 11, 13, 17, 19, 23, 29), (30, 60), (49, 77, 91),
], ids=str)
def test_scaled_route_on_the_wheels_own_numbers(values):
    spec = CycleClassSpec.explicit(values)
    for n_max in (0, 1, 29, 30, 31, 61, 100):
        members = spec.members_upto(n_max).tolist()
        assert _count_scaled(members, n_max) == \
            count_by_cycle_types_upto(spec, n_max), n_max


def test_scaled_route_memory_at_the_cap(primes_spec):
    # the back division turns B into P in place, so the peak holds B
    # alone: 1.024 times its integers' size, with the ring of 30 U_n.
    # Holding P beside B took it to 1.49, and keeping every U_n would add
    # about 4.8 MB to the 5 MB.  The bound is 3% over 1.004, the ratio of
    # B and P together when the sum ran directly
    n_max = EXACT_CAP_DEFAULT
    tracemalloc.start()
    try:
        counts = count_exact_upto(primes_spec, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scale, held = 1, sys.getsizeof(counts)
    for n in range(n_max, -1, -1):
        held += sys.getsizeof(counts[n] * scale)  # B_n = P_n N!/n!
        scale *= n or 1
    assert peak <= 1.03 * 1.004 * held


@pytest.mark.parametrize("name", ["primes", "odd", "set:2,3,10"])
def test_fingerprint_matches_partition_oracle(name, primes_spec):
    spec = {"primes": primes_spec,
            "odd": CycleClassSpec.residue_classes(2, (1,)),
            "set:2,3,10": CycleClassSpec.explicit((2, 3, 10))}[name]
    fingerprint = counts_mod(spec.members_upto(PARTITION_CAP).tolist(),
                             PARTITION_CAP)
    counts = count_by_cycle_types_upto(spec, PARTITION_CAP)
    for row, q in zip(fingerprint.tolist(), MODULI):
        assert row == [p % q for p in counts], (name, q)


def _mutated(func, old, new, occurrence):
    """func compiled from its own source with the occurrence-th ``old``
    replaced by ``new``, in its module's globals."""
    source = textwrap.dedent(inspect.getsource(func))
    parts = source.split(old)
    assert len(parts) > occurrence + 1, (old, func.__name__)
    source = (old.join(parts[:occurrence + 1]) + new
              + old.join(parts[occurrence + 1:]))
    namespace = dict(func.__globals__)
    exec(compile(source, f"<mutated {func.__name__}>", "exec"), namespace)
    return namespace[func.__name__]


def test_fingerprint_check_reports_a_planted_count(primes_spec, monkeypatch):
    def one_too_many(members, n_max):
        counts = _count_scaled(members, n_max)
        counts[1500] += 1
        return counts

    monkeypatch.setattr(exact_enum, "_count_scaled", one_too_many)
    assert check_exact_counts(primes_spec, EXACT_CAP_DEFAULT) == 1500


def test_fingerprint_check_reports_a_dropped_member(primes_spec, monkeypatch):
    # the route loses prime 2; the fingerprint reads the spec's own members
    def without_two(members, n_max):
        return _count_scaled([k for k in members if k != 2], n_max)

    monkeypatch.setattr(exact_enum, "_count_scaled", without_two)
    assert check_exact_counts(primes_spec, EXACT_CAP_DEFAULT) == 2


@pytest.mark.parametrize("old, new, first_wrong", [
    # 1 is coprime to 30 but no prime, so n = 1 must take it away
    ("range(1, n_max + 1)", "range(2, n_max + 1)", 1),
    ("range(1, WHEEL)", "range(1, WHEEL - 1)", 29),
    # U_{n-30} read from the next slot, which holds it only while it is 0
    ("total = ring[n % WHEEL]", "total = ring[(n + 1) % WHEEL]", 30),
    ("k not in member_set", "k not in member_set and k != 49", 49),
], ids=["one-kept", "residue-29-dropped", "ring-slot-off", "49-kept"])
def test_fingerprint_check_reports_a_wheel_fault(old, new, first_wrong,
                                                 primes_spec, monkeypatch):
    monkeypatch.setattr(exact_enum, "_count_scaled", _mutated(
        exact_enum._count_scaled, old, new, 0))
    assert check_exact_counts(primes_spec, EXACT_CAP_DEFAULT) == first_wrong


@pytest.mark.parametrize("occurrence, spec, first_wrong", [
    # a step r = 2 first needs the factor n - 1, at n = 2
    (0, CycleClassSpec.explicit((2, 3, 10)), 2),
    # the period's extra factors first run at n = 4 = period + 1
    (1, CycleClassSpec.residue_classes(3, (1, 2)), 4),
], ids=["step-factor", "period-factor"])
def test_fingerprint_check_reports_a_wrong_falling_factor(
        occurrence, spec, first_wrong, monkeypatch):
    monkeypatch.setattr(exact_enum, "_count_steps", _mutated(
        exact_enum._count_steps, "ff *= n - j", "ff *= n - j + 1", occurrence))
    assert check_exact_counts(spec, EXACT_CAP_DEFAULT) == first_wrong


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
