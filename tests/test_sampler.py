import bisect
import functools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import (
    EmptySupportError,
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfRangeError,
)
from primecycles import sampler as sampler_module
from primecycles.exact_enum import CountTable, build_table
from primecycles.primes import build_sieve
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
                        p_exact=None, a_float=np.array([1.0, 0.9]))
    with pytest.raises(InternalConsistencyError):
        first_cycle_distribution(broken, 1)


def test_nan_in_a_float_table_is_refused(primes_spec):
    # the renormalisation check and the a_n check both fail on a NaN; a
    # true zero (a_1 for the primes) stays an empty support
    a = build_table(primes_spec, 101, "float").a_float.copy()
    a[50] = math.nan
    broken = CountTable(spec=primes_spec, n_max=101, p_exact=None, a_float=a)
    for n in (53, 50):  # a_50 feeds a_53's first cycle of length 3
        with pytest.raises(InternalConsistencyError):
            first_cycle_distribution(broken, n)
        with pytest.raises(InternalConsistencyError):
            Sampler(broken, 1).sample(n)
    with pytest.raises(EmptySupportError):
        first_cycle_distribution(broken, 1)
    with pytest.raises(EmptySupportError):
        Sampler(broken, 1).sample(1)


def test_renormalisation_check_catches_a_scaled_coefficient(primes_spec):
    # a_50 scaled by 1 + 1e-6 stays finite and positive, so only the check of
    # the weights' sum against n * a_n can see it: off by 1.0e-6 at n = 50,
    # and by 1.6e-8 at n = 53, where a_50 is the weight of length 3
    a = build_table(primes_spec, 101, "float").a_float.copy()
    a[50] *= 1 + 1e-6
    broken = CountTable(spec=primes_spec, n_max=101, p_exact=None, a_float=a)
    for n in (50, 53):
        with pytest.raises(InternalConsistencyError):
            first_cycle_distribution(broken, n)
        with pytest.raises(InternalConsistencyError):
            Sampler(broken, 1).sample(n)


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


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_sample_refuses_a_non_integral_n(mode, primes_spec,
                                         refuses_non_integers):
    sam = Sampler(build_table(primes_spec, 20, mode), seed=2)
    for n in (5.0, 7.5, "7", None):
        with pytest.raises(InvalidArgumentError, match="integer"):
            sam.sample(n)
        with pytest.raises(InvalidArgumentError, match="integer"):
            first_cycle_distribution(sam.table, n)
    assert (first_cycle_distribution(sam.table, np.int64(7))
            == first_cycle_distribution(sam.table, 7))
    refuses_non_integers(lambda n: uniform_type_distribution(primes_spec, n))
    assert (uniform_type_distribution(primes_spec, np.int64(7))
            == uniform_type_distribution(primes_spec, 7))
    if mode == "exact":
        refuses_non_integers(lambda n: expand_type_distribution(sam.table, n))
        assert (expand_type_distribution(sam.table, np.int64(7))
                == expand_type_distribution(sam.table, 7))
    # a numpy integer draws as the int it equals, and the record holds an int
    got = sam.sample(np.int64(7))
    assert type(got.n) is int and got.n == 7
    assert got == Sampler(build_table(primes_spec, 20, mode), seed=2).sample(7)
    with pytest.raises(InvalidArgumentError):
        sam.sample(np.int64(0))


def test_sample_record_is_frozen(table300):
    s = sample_cycle_type(table300, 5, seed=1)
    with pytest.raises(FrozenInstanceError):
        s.n = 7
    assert isinstance(s, CycleTypeSample)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_sample_record_equals_the_public_one(mode, primes_spec):
    # Sampler.sample fills the record's fields without the dataclass's
    # __init__; a field it misses fails astuple and repr here, unless its
    # default sits on the class, where __init__ would have read it too
    sam = Sampler(build_table(primes_spec, 300, mode), seed=4)
    for n in (2, 5, 97, 300):
        got = sam.sample(n)
        want = CycleTypeSample(n=n, lengths=got.lengths, seed=4)
        assert type(got) is CycleTypeSample
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert astuple(got) == astuple(want)
        assert sum(got.lengths) == n


# First 20 draws of Sampler(table, seed=7).sample(n_max) for each table,
# each draw written as its (length, multiplicity) pairs.  Recorded from the
# per-coefficient Python sampler that the numpy tables replaced, so they pin
# the draw streams bit for bit.
PINNED_STREAMS = {
    ("primes", 2000, "float"): [
        [(2, 2), (7, 1), (31, 1), (97, 1), (1861, 1)], [(619, 1), (1381, 1)],
        [(2, 1), (3, 1), (7, 2), (13, 1), (419, 1), (1549, 1)],
        [(379, 1), (1621, 1)], [(3, 1), (1997, 1)], [(67, 1), (1933, 1)],
        [(2, 1), (3, 2), (503, 1), (1489, 1)], [(2, 1), (167, 1), (1831, 1)],
        [(13, 1), (1987, 1)], [(3, 2), (5, 1), (11, 1), (71, 1), (1907, 1)],
        [(2, 1), (5, 1), (11, 1), (31, 1), (1951, 1)], [(3, 1), (1997, 1)],
        [(11, 1), (29, 1), (263, 1), (1697, 1)], [(2, 1), (5, 1), (1993, 1)],
        [(2, 1), (3, 1), (13, 1), (859, 1), (1123, 1)],
        [(2, 1), (431, 1), (1567, 1)], [(13, 1), (1987, 1)],
        [(2, 1), (151, 1), (1847, 1)], [(2, 1), (11, 1), (1987, 1)],
        [(3, 1), (1997, 1)],
    ],
    ("odd", 2000, "float"): [
        [(1, 1), (5, 1), (9, 1), (11, 1), (55, 1), (255, 1), (579, 1),
         (1085, 1)],
        [(1, 4), (81, 1), (89, 1), (137, 1), (147, 1), (283, 1), (1259, 1)],
        [(1, 1), (129, 1), (229, 1), (1641, 1)],
        [(3, 1), (5, 2), (7, 1), (21, 1), (1959, 1)],
        [(1, 3), (9, 1), (19, 1), (203, 1), (657, 1), (1109, 1)],
        [(1, 1), (3, 1), (27, 1), (35, 1), (139, 1), (1795, 1)],
        [(3, 1), (5, 1), (77, 1), (1915, 1)], [(1, 1), (5, 1), (445, 1), (1549, 1)],
        [(1, 1), (1999, 1)], [(1, 1), (7, 1), (11, 1), (21, 1), (637, 1), (1323, 1)],
        [(1, 1), (19, 1), (91, 1), (1889, 1)],
        [(1, 2), (3, 1), (25, 1), (157, 1), (1813, 1)],
        [(1, 1), (3, 1), (7, 1), (51, 1), (491, 1), (1447, 1)],
        [(13, 1), (19, 1), (31, 1), (1937, 1)],
        [(3, 3), (5, 1), (35, 1), (85, 1), (89, 1), (171, 1), (249, 1),
         (1357, 1)],
        [(105, 1), (309, 1), (407, 1), (1179, 1)], [(65, 1), (1935, 1)],
        [(1, 2), (145, 1), (209, 1), (685, 1), (959, 1)],
        [(1, 2), (3, 1), (7, 1), (9, 1), (103, 1), (329, 1), (347, 1), (557, 1),
         (643, 1)],
        [(5, 1), (1995, 1)],
    ],
    ("mod:3:0", 999, "float"): [
        [(3, 2), (120, 1), (183, 1), (690, 1)],
        [(3, 2), (18, 1), (42, 1), (189, 1), (744, 1)],
        [(141, 1), (249, 1), (609, 1)], [(15, 1), (300, 1), (327, 1), (357, 1)],
        [(15, 1), (60, 1), (924, 1)], [(3, 1), (135, 1), (861, 1)],
        [(141, 1), (198, 1), (285, 1), (375, 1)], [(39, 1), (450, 1), (510, 1)],
        [(3, 1), (6, 3), (225, 1), (753, 1)], [(3, 1), (57, 1), (126, 1), (813, 1)],
        [(3, 1), (339, 1), (657, 1)], [(3, 1), (30, 1), (399, 1), (567, 1)],
        [(6, 1), (12, 1), (981, 1)], [(135, 1), (315, 1), (549, 1)],
        [(3, 1), (12, 1), (66, 1), (390, 1), (528, 1)], [(78, 1), (921, 1)],
        [(9, 1), (312, 1), (678, 1)], [(12, 1), (60, 1), (927, 1)], [(999, 1)],
        [(3, 2), (138, 1), (855, 1)],
    ],
    ("set:2,3,10", 300, "float"): [
        [(10, 30)], [(2, 2), (3, 2), (10, 29)], [(2, 1), (3, 6), (10, 28)],
        [(2, 7), (3, 2), (10, 28)], [(2, 2), (3, 2), (10, 29)],
        [(2, 2), (3, 2), (10, 29)], [(2, 2), (3, 2), (10, 29)],
        [(2, 2), (3, 2), (10, 29)], [(10, 30)], [(2, 5), (10, 29)], [(10, 30)],
        [(2, 2), (3, 2), (10, 29)], [(2, 2), (3, 2), (10, 29)],
        [(2, 2), (3, 2), (10, 29)], [(2, 2), (3, 2), (10, 29)],
        [(2, 2), (3, 2), (10, 29)], [(2, 2), (3, 2), (10, 29)],
        [(2, 2), (3, 2), (10, 29)], [(10, 30)], [(2, 2), (3, 2), (10, 29)],
    ],
    ("primes", 300, "exact"): [
        [(2, 2), (7, 1), (19, 1), (43, 1), (227, 1)], [(43, 1), (257, 1)],
        [(2, 1), (29, 1), (269, 1)], [(2, 1), (71, 1), (227, 1)],
        [(2, 1), (7, 1), (31, 1), (103, 1), (157, 1)], [(61, 1), (239, 1)],
        [(37, 1), (263, 1)], [(3, 1), (5, 1), (11, 1), (29, 1), (53, 1), (199, 1)],
        [(29, 1), (271, 1)], [(61, 1), (239, 1)],
        [(43, 1), (47, 1), (101, 1), (109, 1)],
        [(2, 1), (5, 1), (11, 1), (31, 1), (251, 1)], [(7, 1), (293, 1)],
        [(109, 1), (191, 1)], [(31, 1), (269, 1)], [(2, 2), (13, 1), (283, 1)],
        [(2, 1), (47, 1), (251, 1)], [(3, 1), (5, 1), (29, 1), (263, 1)],
        [(29, 1), (271, 1)], [(73, 1), (227, 1)],
    ],
}


def _spec(name, primes_spec):
    if name == "primes":
        return primes_spec
    if name == "odd":
        return ODD
    if name == "mod:3:0":
        return CycleClassSpec.residue_classes(3, (0,))
    return CycleClassSpec.explicit([int(v) for v in name[4:].split(",")])


@pytest.mark.parametrize("name,n,mode", sorted(PINNED_STREAMS))
def test_pinned_draw_streams(name, n, mode, primes_spec):
    sam = Sampler(build_table(_spec(name, primes_spec), n, mode), seed=7)
    draws = [sorted(Counter(sam.sample(n).lengths).items()) for _ in range(20)]
    assert draws == PINNED_STREAMS[(name, n, mode)]


class _FixedRng:
    """Stands in for random.Random: random() returns the given values, then 0."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 0.0


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_draw_at_the_last_edge_takes_the_last_length(mode, primes_spec):
    # u = 1.0 * cum[-1] lies below no edge, so the largest surviving length
    # is chosen: 53 at n = 60 (a_1 = 0 rules out 59), then 7
    sam = Sampler(build_table(primes_spec, 60, mode), seed=0)
    sam._rng = _FixedRng(1.0, 1.0)
    assert sam.sample(60).lengths == (7, 53)


def test_draw_on_an_edge_takes_the_next_length(table300):
    # at n = 7 the lengths are 2, 3, 5, 7; u equal to the second edge picks 5,
    # after which u = 0 picks 2 (the next length down, 3, would give 2+2+3)
    (_, p2), (_, p3), _, _ = first_cycle_distribution(table300, 7)
    sam = Sampler(table300, seed=0)
    sam._rng = _FixedRng(float(p2) + float(p3))
    assert sam.sample(7).lengths == (2, 5)


def _cached_size(sam):
    return sum(len(entry[0]) for entry in sam._cum.values())


def test_cache_bound_keeps_draws(primes_spec, monkeypatch):
    table = build_table(primes_spec, 2000, "float")
    free = Sampler(table, seed=3)
    expected = [free.sample(2000) for _ in range(200)]
    cap = 1000
    assert _cached_size(free) > 5 * cap  # so the bound below bites
    monkeypatch.setattr(sampler_module, "CACHE_MAX_COEFFS", cap)
    bounded = Sampler(table, seed=3)
    for want in expected:
        assert bounded.sample(2000) == want
        assert _cached_size(bounded) <= cap
        assert bounded._cached == _cached_size(bounded)


def test_cache_evicts_least_recently_used(table300, monkeypatch):
    # |A(m)| for m = 10, 11, 13 is 4, 5, 6; a cap of 11 holds two of them
    monkeypatch.setattr(sampler_module, "CACHE_MAX_COEFFS", 11)
    sam = Sampler(table300, seed=0)
    for m in (10, 11, 10, 13):
        sam._cumulative(m, False)
    assert list(sam._cum) == [10, 13]
    # an entry above the cap alone is used but not kept, even at a draw's n
    sam._cumulative(300, True)
    assert list(sam._cum) == [10, 13]


def test_sampler_cache_memory_at_1e5():
    # one 8-byte cumulative array per cached size, and of the arrays of more
    # than ADMIT_AT_ONCE_COEFFS lengths only n's own: a traced peak of about
    # 1.3 MB for these draws, where caching every array on its first
    # request took 6.1 MB
    n = 100_000
    table = build_table(CycleClassSpec.primes(build_sieve(n)), n, "float")
    tracemalloc.start()
    try:
        sam = Sampler(table, seed=1)
        for _ in range(600):
            sam.sample(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_long_stream_at_1e5_keeps_few_lengths_cached(float_table_1e5):
    # the inner sizes of draws at n spread roughly log-uniformly, so a cache
    # of the sizes requested twice held 0.80M-0.86M lengths after these
    # draws; n's array and the small sizes' arrays are about 0.5M
    sam = Sampler(float_table_1e5, seed=1)
    for _ in range(5000):
        sam.sample(100_000)
    assert sam._cached == _cached_size(sam) < 650_000


def test_draws_own_size_is_cached_after_one_draw():
    n = 10_000
    sam = Sampler(build_table(CycleClassSpec.primes(build_sieve(n)), n,
                              "float"), seed=0)
    sam.sample(n)
    assert len(sam._cum[n][0]) == 1229


def test_inner_large_size_is_never_cached():
    # odd lengths: A(m) has (m + 1) // 2 members, 1025 at m = 2049
    table = build_table(ODD, 3000, "float")
    sam = Sampler(table, seed=0)
    assert sampler_module.ADMIT_AT_ONCE_COEFFS == 1024
    first = sam._cumulative(2049, False)
    assert len(first[0]) == 1025
    second = sam._cumulative(2049, False)
    assert list(sam._cum) == []
    assert second[0].tolist() == first[0].tolist()
    assert second[1] == first[1]
    # as a draw's own size it is cached
    own = sam._cumulative(2049, True)
    assert list(sam._cum) == [2049]
    assert own[0].tolist() == first[0].tolist()
    assert sam._cumulative(2049, False) is own


def test_small_sizes_are_cached_on_their_first_request(table300):
    # 1024 lengths at m = 2047, at the threshold; every prime size to 300
    sam = Sampler(build_table(ODD, 3000, "float"), seed=0)
    sam._cumulative(2047, False)
    assert list(sam._cum) == [2047]
    sam = Sampler(table300, seed=0)
    for m in (2, 10, 300):
        sam._cumulative(m, False)
    assert list(sam._cum) == [2, 10, 300]


def test_long_stream_at_many_n_stays_within_the_cap(monkeypatch):
    # a long stream of draws at many n draws as a sampler that caches every
    # array at once, and keeps no inner size's array of more lengths than
    # ADMIT_AT_ONCE_COEFFS
    table = build_table(ODD, 6000, "float")
    rng = random.Random(1)
    ns = [rng.randrange(1, 6001) for _ in range(300)]
    monkeypatch.setattr(sampler_module, "ADMIT_AT_ONCE_COEFFS", 1 << 21)
    eager = Sampler(table, seed=9)
    expected = [eager.sample(n) for n in ns]
    cap = 10_000
    assert _cached_size(eager) > 20 * cap  # so the cap bites
    monkeypatch.setattr(sampler_module, "ADMIT_AT_ONCE_COEFFS", 16)
    monkeypatch.setattr(sampler_module, "CACHE_MAX_COEFFS", cap)
    sam = Sampler(table, seed=9)
    drawn = set()
    for n, want in zip(ns, expected):
        assert sam.sample(n) == want
        drawn.add(n)
        assert sam._cached == _cached_size(sam) <= cap
        assert all(len(cum) <= 16 or m in drawn
                   for m, (cum, _) in sam._cum.items())


class _ScriptedRng:
    """random() returns the given values first, then those of Random(seed)."""

    def __init__(self, values, seed):
        self.values = list(values)
        self.rest = random.Random(seed)

    def random(self):
        return self.values.pop(0) if self.values else self.rest.random()


def _filtered_array_draws(table, n, rng, count):
    """Reference sampler that keeps, for each size m, only the lengths with
    a_{m-k} > 0 and their cumulative probabilities, and clamps a u that
    rounds up to the total onto the last of them."""
    arrays = {}
    draws = []
    for _ in range(count):
        lengths = []
        m = n
        while m > 0:
            if m not in arrays:
                if table.p_exact is None:
                    a = table.a_float
                    if a[m] <= 0.0:
                        raise EmptySupportError(m)
                    ks = table.spec.members_upto(m)
                    raw = a[m - ks] / (m * a[m])
                    total = math.fsum(raw.tolist())
                    keep = raw > 0.0
                    ks, p = ks[keep], raw[keep] / total
                else:
                    pairs = first_cycle_distribution(table, m)
                    ks = np.array([k for k, _ in pairs], dtype=np.int64)
                    p = np.array([float(q) for _, q in pairs])
                cum = np.cumsum(p)
                arrays[m] = (ks.tolist(), cum.tolist())
            ks, cum = arrays[m]
            i = bisect.bisect_right(cum, rng.random() * cum[-1])
            lengths.append(ks[min(i, len(ks) - 1)])
            m -= lengths[-1]
        draws.append(tuple(sorted(lengths)))
    return draws


_PROPERTY_SPECS = {
    "primes": CycleClassSpec.primes(build_sieve(1000)),
    "odd": ODD,
    "mod:3:0": CycleClassSpec.residue_classes(3, (0,)),
    "set:2,3,10": CycleClassSpec.explicit((2, 3, 10)),
}
# below n = 1168, where the float table of set:2,3,10 underflows
_PROPERTY_N_MAX = {"float": 1000, "exact": 300}


@functools.lru_cache(maxsize=None)
def _property_table(name, mode):
    return build_table(_PROPERTY_SPECS[name], _PROPERTY_N_MAX[mode], mode)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(_PROPERTY_SPECS)),
       mode=st.sampled_from(["float", "exact"]),
       n=st.integers(1, 1000),
       seed=st.integers(0, 2**32 - 1),
       forced=st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
                       max_size=8))
def test_draws_match_filtered_arrays(name, mode, n, seed, forced):
    # the sampler's zero-width steps change no draw, not even at u = total,
    # which a forced 1.0 reaches
    table = _property_table(name, mode)
    n = 1 + (n - 1) % table.n_max
    sam = Sampler(table, seed=0)
    sam._rng = _ScriptedRng(forced, seed)
    ref_rng = _ScriptedRng(forced, seed)
    try:
        want = _filtered_array_draws(table, n, ref_rng, 3)
    except EmptySupportError:
        with pytest.raises(EmptySupportError):
            sam.sample(n)
        return
    assert [sam.sample(n).lengths for _ in range(3)] == want
