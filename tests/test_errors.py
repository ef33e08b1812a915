import numpy as np
import pytest

from primecycles import errors, exact_enum
from primecycles.analytic import phi_deriv
from primecycles.cycle_classes import CycleClassSpec
from primecycles.exact_enum import (
    build_table,
    count_brute_force,
    count_by_cycle_types_upto,
    count_exact_upto,
    partial_sums,
)
from primecycles.primes import build_sieve
from primecycles.sampler import Sampler, expand_type_distribution

ALL = CycleClassSpec.all_lengths()


def test_every_error_is_a_primecycles_error():
    public = [
        errors.InvalidArgumentError,
        errors.OutOfRangeError,
        errors.OutOfDomainError,
        errors.ResourceLimitError,
        errors.UnsupportedSpecError,
        errors.EmptySupportError,
        errors.InternalConsistencyError,
    ]
    for cls in public:
        assert issubclass(cls, errors.PrimecyclesError)
        assert issubclass(cls, Exception)
    # one except-clause at the CLI boundary catches the whole family
    with pytest.raises(errors.PrimecyclesError):
        raise errors.EmptySupportError("x")


def test_consistency_error_is_a_runtime_error():
    assert issubclass(errors.InternalConsistencyError, RuntimeError)


def test_value_errors_stay_catchable_as_such():
    assert issubclass(errors.InvalidArgumentError, ValueError)
    assert issubclass(errors.OutOfDomainError, ValueError)


def test_integer_refuses_non_integers_and_values_below_minimum():
    for x in (5.0, "5"):
        with pytest.raises(errors.InvalidArgumentError, match="integer"):
            errors._integer(x, "k")
    assert errors._integer(3, "k", 3) == 3
    with pytest.raises(errors.InvalidArgumentError,
                       match=r"^k must be >= 3, got 2$"):
        errors._integer(2, "k", 3)


def test_integer_maximum_raises_the_class_it_is_given():
    assert errors._integer(7, "n", 0, 7) == 7
    with pytest.raises(errors.OutOfRangeError, match=r"^n must be <= 7, got 8$"):
        errors._integer(8, "n", 0, 7)
    with pytest.raises(errors.ResourceLimitError,
                       match=r"^exact n_max must be <= 7, got 8$"):
        errors._integer(8, "exact n_max", 0, 7, errors.ResourceLimitError)
    # a numpy integer or a bool is the int it equals, at the bound too
    value = errors._integer(np.int64(7), "n", 0, 7)
    assert value == 7 and type(value) is int
    with pytest.raises(errors.OutOfRangeError):
        errors._integer(np.int64(8), "n", 0, 7)
    assert errors._integer(True, "flag", 0, 1) == 1
    with pytest.raises(errors.OutOfRangeError):
        errors._integer(True, "flag", 0, 0)


def test_integer_without_maximum_is_unbounded():
    assert errors._integer(10 ** 400, "n", 0) == 10 ** 400
    assert errors._integer(10 ** 400, "n", 0, None) == 10 ** 400


def test_every_upper_bound_takes_the_bound_and_refuses_one_more(monkeypatch):
    # the caps too costly to reach are lowered; build_sieve's 2^31 cap is
    # refused in test_primes and never reached
    monkeypatch.setattr(exact_enum, "FLOAT_CAP_DEFAULT", 40)
    monkeypatch.setattr(exact_enum, "PARTITION_CAP", 12)
    monkeypatch.setattr(exact_enum, "BRUTE_FORCE_CAP", 6)
    sieve = build_sieve(100)  # 25 primes
    spec = CycleClassSpec.primes(sieve)
    exact = build_table(spec, 20, "exact")
    floats = build_table(spec, 20, "float")
    sites = [
        (sieve.is_prime, 100, errors.OutOfRangeError),
        (sieve.prime_count, 100, errors.OutOfRangeError),
        (sieve.nth_prime, 25, errors.OutOfRangeError),
        (spec.members_upto, 100, errors.OutOfRangeError),
        (lambda n: count_exact_upto(ALL, n, exact_cap=30), 30,
         errors.ResourceLimitError),
        (lambda n: build_table(ALL, n, "float"), 40, errors.ResourceLimitError),
        (lambda n: count_by_cycle_types_upto(ALL, n), 12,
         errors.ResourceLimitError),
        (lambda n: count_brute_force(ALL, n), 6, errors.ResourceLimitError),
        (lambda n: partial_sums(floats, [n]), 20, errors.OutOfRangeError),
        (lambda n: Sampler(floats, 7).sample(n), 20, errors.OutOfRangeError),
        (lambda n: Sampler(exact, 7).sample(n), 20, errors.OutOfRangeError),
        (lambda n: expand_type_distribution(exact, n), 20,
         errors.OutOfRangeError),
        (lambda n: phi_deriv(0.5, n), 3, errors.InvalidArgumentError),
    ]
    for call, bound, above in sites:
        assert repr(call(np.int64(bound))) == repr(call(bound))
        with pytest.raises(above):
            call(bound + 1)
