"""Exact sampling of cycle types conditioned on allowed cycle lengths.

A uniform random permutation of [n] with every cycle length in A can be
generated cycle by cycle: the cycle through element 1 has length k with
probability a_{n-k} / (n * a_n), after which the remaining n-k elements pose
the same problem again.  Only the cycle type (the multiset of lengths) is
emitted here; the method is rejection-free and exact.

A Sampler reads the lengths it can draw from one member array, every
member up to the table's n_max; for the primes that array is a view of the
prime table's array.  For each remaining size m it meets it caches one
float64 array of cumulative first-cycle weights over all members <= m.
From a float table that is one gather of the a_{m-k} and one cumsum in
place, whose last entry is checked against m * a_m; from an exact table it
is the cumsum of the probabilities, each correctly rounded by int division.
A length k with a_{m-k} = 0 stays in the array as a zero-width step, which
bisection never lands on.  A draw bisects a memoryview of the cumulative
array for a uniform fraction of its last entry and reads the length at that
index from a memoryview of the member array, so it makes no numpy scalars.

The cache is least-recently-used and holds at most CACHE_MAX_COEFFS lengths
in total.  A new array is cached if it has at most ADMIT_AT_ONCE_COEFFS
lengths or its size is the draw's own n; a larger array for an inner size
is built, used for that draw and dropped.  For the primes a_m is about
e^c/m, so the first cycle leaves a size m with probability about
proportional to 1/m: the inner sizes spread roughly log-uniformly, and
apart from n itself only the small sizes come back.  The cache so holds
what is read again, and a long stream of draws runs in bounded memory.

The RNG is the standard library's Mersenne Twister (random.Random), seeded
explicitly; identical seeds give identical samples.
"""

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import (
    EmptySupportError,
    InternalConsistencyError,
    InvalidArgumentError,
    _integer,
)
from primecycles.exact_enum import CountTable

RENORM_TOLERANCE = 1e-9
# most lengths one Sampler caches, summed over its sizes: 16 MB as one
# 8-byte array, far above the about 0.11M a run of 600 draws at n = 10^5
# holds (its own n's array and the small sizes' arrays)
CACHE_MAX_COEFFS = 1 << 21
# an inner size's array of more lengths than this (8 KB) is never cached;
# the draw's own size's array is, however long, up to CACHE_MAX_COEFFS
ADMIT_AT_ONCE_COEFFS = 1024

_new = object.__new__


@dataclass(frozen=True)
class CycleTypeSample:
    """One sampled cycle type: lengths sorted ascending, the seed that made it."""

    n: int
    lengths: tuple
    seed: int


def _empty_support(n: int) -> EmptySupportError:
    return EmptySupportError(
        f"no permutation of [{n}] has all cycle lengths allowed"
    )


def _float_cumulative(table: CountTable, n: int, ks: np.ndarray) -> np.ndarray:
    """Cumulative first-cycle weights from a float table over the members ks,
    all k in A with k <= n, ascending: entry i is a_{n-k_0} + ... + a_{n-k_i},
    so length k_i has probability (cum[i] - cum[i-1]) / cum[-1], a zero-width
    step where a_{n-k_i} = 0.  The last entry is checked against n * a_n,
    which it equals in exact arithmetic; a running sum of nonnegative terms
    is within about len(ks) * eps of its exact value."""
    n = _integer(n, "n", 1, table.n_max)
    a = table.a_float
    # both tests are written so that a NaN fails them
    if not a[n] > 0.0:
        if a[n] <= 0.0:
            raise _empty_support(n)
        raise InternalConsistencyError(f"float table has a_{n} = {a[n]!r}")
    cum = a[n - ks]
    np.cumsum(cum, out=cum)
    total = cum[-1] if len(cum) else 0.0
    if not abs(total / (n * a[n]) - 1.0) <= RENORM_TOLERANCE:
        raise InternalConsistencyError(
            f"first-cycle weights at n={n} sum to {total!r}, "
            f"not n * a_n = {n * a[n]!r}"
        )
    return cum


def _exact_first_cycle(table: CountTable, n: int, ks: np.ndarray):
    """(numerators, P_n) for the members ks, as for _float_cumulative: length
    k has probability P_{n-k} (n-1)!/(n-k)! / P_n = a_{n-k} / (n * a_n)."""
    n = _integer(n, "n", 1, table.n_max)
    P = table.p_exact
    if P[n] == 0:
        raise _empty_support(n)
    nums = []
    ff = 1  # (n-1)(n-2)...(n-j+1)
    j = 1
    for k in ks.tolist():
        while j < k:
            ff *= n - j
            j += 1
        nums.append(P[n - k] * ff)
    return nums, P[n]


def first_cycle_distribution(table: CountTable, n: int):
    """Pairs (k, Pr[cycle through element 1 has length k]) for k in A, ascending.

    Exact tables give Fraction probabilities summing to 1 exactly; float
    tables give the steps of the cumulative weights a Sampler bisects, over
    their total.  Zero-probability lengths are omitted.
    """
    ks = table.spec.members_upto(n)
    if table.p_exact is None:
        cum = _float_cumulative(table, n, ks)
        p = np.diff(cum, prepend=0.0)
        p /= cum[-1]
        keep = p > 0.0
        return list(zip(ks[keep].tolist(), p[keep].tolist()))
    nums, total = _exact_first_cycle(table, n, ks)
    return [(k, Fraction(q, total)) for k, q in zip(ks.tolist(), nums) if q]


class Sampler:
    """Holds a table reference plus RNG state; one sampler per thread."""

    def __init__(self, table: CountTable, seed: int):
        self.table = table
        self.seed = seed
        self._rng = random.Random(seed)
        self._ks = table.spec.members_upto(table.n_max)
        self._ks_view = memoryview(self._ks)
        self._cum = {}  # m -> (cum, cum[-1]), least recently used first
        self._cached = 0  # total len(cum) over the cache

    def _cumulative(self, m: int, keep: bool):
        """(cum, cum[-1]) for size m; cum[i] / cum[-1] is the probability
        that the first cycle is no longer than the i-th member.

        A new entry is cached, as the most recently used, if keep is true
        (m is the draw's own n) or it has at most ADMIT_AT_ONCE_COEFFS
        lengths; otherwise it is returned uncached.  An entry of more than
        CACHE_MAX_COEFFS lengths is never cached.
        """
        cache = self._cum
        entry = cache.pop(m, None)
        if entry is None:
            ks = self._ks[: bisect.bisect_right(self._ks_view, m)]
            if self.table.p_exact is None:
                cum = _float_cumulative(self.table, m, ks)
            else:
                # int / int is correctly rounded, as float(Fraction) is
                nums, total = _exact_first_cycle(self.table, m, ks)
                p = np.array([q / total for q in nums])
                # cumsum adds left to right, as a running sum would, and
                # adding a zero step changes no sum
                cum = np.cumsum(p, out=p)
            cum = memoryview(cum)
            entry = (cum, cum[-1])
            size = len(cum)
            if size > CACHE_MAX_COEFFS:
                return entry
            if size > ADMIT_AT_ONCE_COEFFS and not keep:
                return entry
            while self._cached + size > CACHE_MAX_COEFFS:
                self._cached -= len(cache.pop(next(iter(cache)))[0])
            self._cached += size
        cache[m] = entry
        return entry

    def sample(self, n: int) -> CycleTypeSample:
        n = _integer(n, "n", 1)  # a Python int, also from a numpy integer
        cache = self._cum
        ks = self._ks_view
        draw = self._rng.random
        lengths = []
        m = n
        # a cache hit is taken here and a record built by _new, not through
        # _cumulative and the dataclass __init__: 20 000 draws at n = 5 took
        # 26 ms, against 45 ms through them (2-vCPU Xeon, medians of 21
        # alternating runs)
        while m > 0:
            entry = cache.pop(m, None)
            if entry is None:
                entry = self._cumulative(m, m == n)
            else:
                cache[m] = entry
            cum, total = entry
            # the first edge above u, which is never a zero-width step.  u
            # can round up to total; then the first edge to reach total is
            # the last length with mass
            i = bisect.bisect_right(cum, draw() * total)
            if i == len(cum):
                i = bisect.bisect_left(cum, total)
            chosen = ks[i]
            lengths.append(chosen)
            m -= chosen
        lengths.sort()
        # the record as CycleTypeSample(n=..., lengths=..., seed=...) builds
        # it, without the per-field setattr of a frozen dataclass __init__
        record = _new(CycleTypeSample)
        fields = record.__dict__
        fields["n"] = n
        fields["lengths"] = tuple(lengths)
        fields["seed"] = self.seed
        return record


def sample_cycle_type(table: CountTable, n: int, seed: int) -> CycleTypeSample:
    """One cycle type distributed as that of a uniform allowed permutation."""
    return Sampler(table, seed).sample(n)


def expand_type_distribution(table: CountTable, n: int):
    """Distribution over cycle types induced by the recursive first-cycle
    method, fully expanded with no randomness: dict  type tuple -> Fraction.

    Requires an exact table; intended for small n where the expansion is
    feasible (the number of types is the number of partitions into allowed
    parts).
    """
    if table.p_exact is None:
        raise InvalidArgumentError("expansion requires an exact-mode table")
    n = _integer(n, "n", 0, table.n_max)

    memo = {0: {(): Fraction(1)}}

    def dist(m):
        known = memo.get(m)
        if known is not None:
            return known
        out = {}
        for k, p in first_cycle_distribution(table, m):
            for sub, q in dist(m - k).items():
                key = tuple(sorted(sub + (k,)))
                out[key] = out.get(key, Fraction(0)) + p * q
        memo[m] = out
        return out

    return dist(n)


def uniform_type_distribution(spec: CycleClassSpec, n: int):
    """Reference distribution: each cycle type with all parts in A gets
    probability (n! / prod(l^m_l * m_l!)) / P_n, in exact rationals."""
    n = _integer(n, "n", 0)
    parts = sorted((int(k) for k in spec.members_upto(n)), reverse=True)
    nf = math.factorial(n)
    weights = {}

    def rec(rem, i, denom, chosen):
        if rem == 0:
            weights[tuple(sorted(chosen))] = nf // denom
            return
        for j in range(i, len(parts)):
            l = parts[j]
            if l > rem:
                continue
            d = denom
            r = rem
            fm = 1
            m = 0
            picked = []
            while r >= l:
                m += 1
                fm *= m
                r -= l
                d *= l
                picked.append(l)
                rec(r, j + 1, d * fm, chosen + picked)

    rec(n, 0, 1, [])
    total = sum(weights.values())
    if total == 0:
        raise _empty_support(n)
    return {t: Fraction(w, total) for t, w in weights.items()}
