import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from primecycles.analytic import odlyzko_sum_model
from primecycles.cli import parse_spec
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import InvalidArgumentError, OutOfRangeError
from primecycles.exact_enum import count_exact_upto
from primecycles.primes import build_sieve

ODD = CycleClassSpec.residue_classes(2, (1,))
EVEN = CycleClassSpec.residue_classes(2, (0,))
MOD3 = CycleClassSpec.residue_classes(3, (1, 2))
ALL = CycleClassSpec.all_lengths()


def test_contains_examples(primes_spec):
    assert primes_spec.contains(7)
    assert not ODD.contains(4)
    assert not CycleClassSpec.explicit({1}).contains(2)
    assert CycleClassSpec.singleton(5).contains(5)
    assert not CycleClassSpec.singleton(5).contains(10)
    assert ALL.contains(123)
    assert EVEN.contains(4) and not EVEN.contains(7)


def test_contains_domain(primes_spec):
    with pytest.raises(InvalidArgumentError):
        ALL.contains(0)
    with pytest.raises(OutOfRangeError):
        primes_spec.contains(10_001)


def test_density(primes_spec):
    assert primes_spec.density() == 0
    assert ALL.density() == 1
    assert ODD.density() == Fraction(1, 2)
    assert MOD3.density() == Fraction(2, 3)
    assert CycleClassSpec.explicit({2, 4, 6}).density() == 0
    assert CycleClassSpec.singleton(3).density() == 0


def test_constructor_validation():
    with pytest.raises(InvalidArgumentError):
        CycleClassSpec.residue_classes(0, (0,))
    with pytest.raises(InvalidArgumentError):
        CycleClassSpec.residue_classes(3, ())
    with pytest.raises(InvalidArgumentError):
        CycleClassSpec.residue_classes(3, (3,))
    with pytest.raises(InvalidArgumentError):
        CycleClassSpec.explicit({0, 2})
    with pytest.raises(InvalidArgumentError):
        CycleClassSpec.singleton(0)
    # a non-integer is refused, never truncated
    for build in (lambda: CycleClassSpec.explicit((2.5, 3)),
                  lambda: CycleClassSpec.singleton(2.7),
                  lambda: CycleClassSpec.residue_classes(2, (1.9,)),
                  lambda: CycleClassSpec.residue_classes(2.5, (1,)),
                  lambda: CycleClassSpec.residue_classes(2, ("1",))):
        with pytest.raises(InvalidArgumentError):
            build()
    # numpy integers still pass
    assert CycleClassSpec.explicit(np.array([3, 2])).describe() == "set:2,3"
    assert CycleClassSpec.residue_classes(
        np.int64(3), (np.int32(1), 2)).describe() == "mod:3:1,2"
    assert CycleClassSpec.singleton(np.int64(4)).steps == (4,)


@pytest.mark.parametrize("spec", [ODD, EVEN, MOD3, ALL,
                                  CycleClassSpec.explicit({2, 3, 10})])
def test_members_match_contains(spec):
    members = set(spec.members_upto(50).tolist())
    for k in range(1, 51):
        assert (k in members) == spec.contains(k)


def test_members_upto_primes(primes_spec, refuses_non_integers):
    assert primes_spec.members_upto(10).tolist() == [2, 3, 5, 7]
    assert primes_spec.members_upto(0).size == 0
    with pytest.raises(OutOfRangeError):
        primes_spec.members_upto(10_001)
    # a float is refused, not truncated, and a numpy integer is its int
    for spec in (primes_spec, ODD, ALL, CycleClassSpec.explicit((2, 3))):
        refuses_non_integers(spec.members_upto)
        refuses_non_integers(spec.contains)
        refuses_non_integers(spec.harmonic_offset)
        assert spec.contains(np.int64(3)) is True
        assert spec.harmonic_offset(np.int64(10)) == spec.harmonic_offset(10)
    assert primes_spec.members_upto(np.int64(10)).tolist() == [2, 3, 5, 7]


def test_residue_density_scan():
    # |A(n)|/n stays within 1/n of the declared density
    for n in range(1, 201):
        count = ODD.members_upto(n).size
        assert abs(count / n - 0.5) <= 1.0 / n


def test_harmonic_offset_all_converges_to_euler_gamma():
    h = ALL.harmonic_offset(10**6)
    assert 0.57721 < h < 0.57722
    assert abs(h - 0.5772156) <= 1e-5


def test_harmonic_offset_cauchy_decay():
    for n in (10, 100, 1000, 10_000):
        gap = ALL.harmonic_offset(n) - ALL.harmonic_offset(2 * n)
        assert abs(gap) <= 1.0 / n


def test_harmonic_offset_primes_matches_mertens():
    table = build_sieve(1_000_000)
    spec = CycleClassSpec.primes(table)
    target = math.log(math.log(10**6)) + 0.2614972
    assert abs(spec.harmonic_offset(10**6) - target) <= 0.01


def test_harmonic_offset_empty_set():
    assert CycleClassSpec.explicit(()).harmonic_offset(5) == 0.0


def test_harmonic_offset_small_values():
    # odd members <= 5 are {1, 3, 5}; density 1/2
    expect = 1.0 + 1.0 / 3.0 + 1.0 / 5.0 - 0.5 * math.log(5)
    assert ODD.harmonic_offset(5) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(InvalidArgumentError):
        ODD.harmonic_offset(0)


def test_describe(primes_spec):
    assert primes_spec.describe() == "primes"
    assert ALL.describe() == "all"
    assert ODD.describe() == "mod:2:1"
    assert MOD3.describe() == "mod:3:1,2"
    assert CycleClassSpec.explicit({3, 1}).describe() == "set:1,3"
    assert CycleClassSpec.singleton(4).describe() == "set:4"


def test_specs_refuse_assignment():
    # `all` with period 2 assigned became mod:2:1, without a word
    specs = [CycleClassSpec.primes(build_sieve(100)),
             CycleClassSpec.all_lengths(),
             CycleClassSpec.residue_classes(3, (1, 2)),
             CycleClassSpec.explicit((2, 3, 10))]
    for spec in specs:
        before = (spec.describe(), spec.members_upto(100).tolist())
        for name in CycleClassSpec.__slots__:
            with pytest.raises(AttributeError):
                setattr(spec, name, 2)
            with pytest.raises(AttributeError):
                delattr(spec, name)
        assert (spec.describe(), spec.members_upto(100).tolist()) == before
        for twin in (copy.copy(spec), copy.deepcopy(spec),
                     pickle.loads(pickle.dumps(spec))):
            assert (twin.describe(), twin.members_upto(100).tolist()) == before


def test_all_lengths_built_four_ways_behave_alike(constants):
    specs = [ALL, CycleClassSpec.residue_classes(1, (0,)),
             parse_spec("all"), parse_spec("mod:1:0")]
    counts = count_exact_upto(ALL, 50)
    assert counts == [math.factorial(n) for n in range(51)]
    for spec in specs:
        assert spec.describe() == "all"
        assert spec.members_upto(50).tolist() == list(range(1, 51))
        assert spec.density() == 1
        assert count_exact_upto(spec, 50) == counts
        for n in (17, 1000):
            assert odlyzko_sum_model(spec, n, constants) == float(n)
