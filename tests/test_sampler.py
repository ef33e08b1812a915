import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import (
    EmptySupportError,
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfRangeError,
)
from primecycles.exact_enum import CountTable, build_table
from primecycles.sampler import (
    CycleTypeSample,
    Sampler,
    expand_type_distribution,
    first_cycle_distribution,
    sample_cycle_type,
    uniform_type_distribution,
)

ODD = CycleClassSpec.residue_classes(2, (1,))


def test_first_cycle_distribution_exact(table300):
    pairs = first_cycle_distribution(table300, 5)
    assert pairs == [(2, Fraction(2, 11)), (3, Fraction(3, 11)),
                     (5, Fraction(6, 11))]
    assert first_cycle_distribution(table300, 2) == [(2, Fraction(1))]
    # k=2 would leave a single fixed point, impossible, so only k=3 survives
    assert first_cycle_distribution(table300, 3) == [(3, Fraction(1))]


def test_first_cycle_distribution_sums_to_one(table300):
    for n in (4, 10, 50, 300):
        pairs = first_cycle_distribution(table300, n)
        assert sum(p for _, p in pairs) == 1
        assert all(p > 0 for _, p in pairs)
        ks = [k for k, _ in pairs]
        assert ks == sorted(ks)


def test_first_cycle_distribution_float(primes_spec):
    ftab = build_table(primes_spec, 60, "float")
    etab = build_table(primes_spec, 60, "exact")
    for n in (5, 20, 60):
        fp = dict(first_cycle_distribution(ftab, n))
        ep = dict(first_cycle_distribution(etab, n))
        assert set(fp) == set(ep)
        for k, p in ep.items():
            assert fp[k] == pytest.approx(float(p), abs=1e-12)
        assert math.fsum(fp.values()) == pytest.approx(1.0, abs=1e-12)


def test_empty_support(table300, primes_spec):
    with pytest.raises(EmptySupportError):
        first_cycle_distribution(table300, 1)
    ftab = build_table(primes_spec, 10, "float")
    with pytest.raises(EmptySupportError):
        first_cycle_distribution(ftab, 1)


def test_inconsistent_float_table_detected():
    broken = CountTable(spec=CycleClassSpec.all_lengths(), n_max=1,
                        mode="float", p_exact=None,
                        a_float=np.array([1.0, 0.9]))
    with pytest.raises(InternalConsistencyError):
        first_cycle_distribution(broken, 1)


def test_distribution_domain(table300):
    with pytest.raises(InvalidArgumentError):
        first_cycle_distribution(table300, 0)
    with pytest.raises(OutOfRangeError):
        first_cycle_distribution(table300, 301)


def test_sampling_reproducible(table300):
    a = sample_cycle_type(table300, 50, seed=123)
    b = sample_cycle_type(table300, 50, seed=123)
    assert a == b
    assert a.n == 50 and a.seed == 123
    types = {sample_cycle_type(table300, 50, seed=s).lengths
             for s in range(30)}
    assert len(types) >= 2


def test_sample_validity(table300):
    for seed in range(10):
        s = sample_cycle_type(table300, 97, seed=seed)
        assert sum(s.lengths) == 97
        assert list(s.lengths) == sorted(s.lengths)
        assert all(table300.spec.contains(k) for k in s.lengths)


def test_sample_forced_type(table300):
    # 4 = 2+2 is the only prime partition
    for seed in (0, 7, 99):
        assert sample_cycle_type(table300, 4, seed=seed).lengths == (2, 2)
    assert sample_cycle_type(table300, 2, seed=0).lengths == (2,)


def test_sampler_stream_differs_from_restart(table300):
    sam = Sampler(table300, seed=5)
    first = sam.sample(30)
    second = sam.sample(30)
    assert first.seed == second.seed == 5
    # fresh sampler replays the first draw
    assert Sampler(table300, seed=5).sample(30) == first


def test_sampler_float_table(primes_spec):
    ftab = build_table(primes_spec, 400, "float")
    s = Sampler(ftab, seed=11).sample(400)
    assert sum(s.lengths) == 400
    assert all(primes_spec.contains(k) for k in s.lengths)


def test_expansion_matches_uniform(table300, primes_spec):
    for n in (0, 2, 3, 4, 5, 6, 7):
        assert expand_type_distribution(table300, n) == \
            uniform_type_distribution(primes_spec, n)
    odd_tab = build_table(ODD, 8, "exact")
    for n in range(1, 9):
        assert expand_type_distribution(odd_tab, n) == \
            uniform_type_distribution(ODD, n)


def test_uniform_distribution_values(primes_spec):
    d5 = uniform_type_distribution(primes_spec, 5)
    assert d5 == {(5,): Fraction(6, 11), (2, 3): Fraction(5, 11)}
    d7 = uniform_type_distribution(primes_spec, 7)
    assert d7 == {(7,): Fraction(120, 239), (2, 5): Fraction(84, 239),
                  (2, 2, 3): Fraction(35, 239)}
    assert uniform_type_distribution(primes_spec, 0) == {(): Fraction(1)}
    with pytest.raises(EmptySupportError):
        uniform_type_distribution(primes_spec, 1)


def test_expansion_needs_exact_table(primes_spec):
    ftab = build_table(primes_spec, 10, "float")
    with pytest.raises(InvalidArgumentError):
        expand_type_distribution(ftab, 5)
    with pytest.raises(OutOfRangeError):
        expand_type_distribution(build_table(primes_spec, 5, "exact"), 6)


def test_empirical_frequencies(table300):
    sam = Sampler(table300, seed=20260819)
    hits = 0
    rounds = 2000
    for _ in range(rounds):
        if sam.sample(5).lengths == (5,):
            hits += 1
    # 3 sigma at 2000 draws is about 0.033
    assert abs(hits / rounds - 6 / 11) <= 0.05


def test_sample_record_is_frozen(table300):
    s = sample_cycle_type(table300, 5, seed=1)
    with pytest.raises(FrozenInstanceError):
        s.n = 7
    assert isinstance(s, CycleTypeSample)
