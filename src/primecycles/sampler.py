"""Exact sampling of cycle types conditioned on allowed cycle lengths.

A uniform random permutation of [n] with every cycle length in A can be
generated cycle by cycle: the cycle through element 1 has length k with
probability a_{n-k} / (n * a_n), after which the remaining n-k elements pose
the same problem again.  Only the cycle type (the multiset of lengths) is
emitted here; the method is rejection-free and exact.

A Sampler caches, for each remaining size m it meets, the allowed lengths
and their cumulative first-cycle probabilities as an int64 and a float64
array, built in numpy from the float table (or from the exact table's
Fractions), and draws each cycle by bisection on the cumulative array.  The
cache is least-recently-used and holds at most CACHE_MAX_COEFFS lengths in
total, so a long stream of draws runs in bounded memory.

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
    OutOfRangeError,
)
from primecycles.exact_enum import CountTable

RENORM_TOLERANCE = 1e-9
# most (k, cumulative probability) pairs one Sampler caches: 32 MB as two
# 8-byte arrays, above the 0.8M a run of 600 draws at n = 10^5 holds
CACHE_MAX_COEFFS = 1 << 21


@dataclass(frozen=True)
class CycleTypeSample:
    """One sampled cycle type: lengths sorted ascending, the seed that made it."""

    n: int
    lengths: tuple
    seed: int


def _check_n(table: CountTable, n: int):
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if n > table.n_max:
        raise OutOfRangeError(f"n={n} beyond table n_max={table.n_max}")


def _empty_support(n: int) -> EmptySupportError:
    return EmptySupportError(
        f"no permutation of [{n}] has all cycle lengths allowed"
    )


def _float_first_cycle(table: CountTable, n: int):
    """Arrays (ks, p) of the lengths k in A with a_{n-k} > 0, ascending, and
    their first-cycle probabilities a_{n-k} / (n * a_n) from a float table,
    renormalized by their sum."""
    _check_n(table, n)
    a = table.a_float
    if a[n] <= 0.0:
        raise _empty_support(n)
    ks = table.spec.members_upto(n)
    raw = a[n - ks] / (n * a[n])
    total = math.fsum(raw.tolist())
    if abs(total - 1.0) > RENORM_TOLERANCE:
        raise InternalConsistencyError(
            f"first-cycle probabilities at n={n} sum to {total!r}"
        )
    keep = raw > 0.0
    return ks[keep], raw[keep] / total


def first_cycle_distribution(table: CountTable, n: int):
    """Pairs (k, Pr[cycle through element 1 has length k]) for k in A, ascending.

    Exact tables give Fraction probabilities summing to 1 exactly; float
    tables give doubles renormalized by their sum.  Zero-probability lengths
    are omitted.
    """
    if table.p_exact is None:
        ks, p = _float_first_cycle(table, n)
        return list(zip(ks.tolist(), p.tolist()))
    _check_n(table, n)
    # a_{n-k} / (n a_n) = P_{n-k} (n-1)!/(n-k)! / P_n
    P = table.p_exact
    if P[n] == 0:
        raise _empty_support(n)
    pairs = []
    ff = 1  # (n-1)(n-2)...(n-j+1)
    j = 1
    for k in table.spec.members_upto(n).tolist():
        while j < k:
            ff *= n - j
            j += 1
        if P[n - k]:
            pairs.append((k, Fraction(P[n - k] * ff, P[n])))
    return pairs


class Sampler:
    """Holds a table reference plus RNG state; one sampler per thread."""

    def __init__(self, table: CountTable, seed: int):
        self.table = table
        self.seed = seed
        self._rng = random.Random(seed)
        self._cum = {}  # m -> (ks, cum, total), least recently used first
        self._cached = 0  # total len(ks) over the cache

    def _cumulative(self, m: int):
        """(ks, cum, cum[-1] as a float) for size m, most recently used last."""
        cache = self._cum
        entry = cache.pop(m, None)
        if entry is None:
            if self.table.p_exact is None:
                ks, p = _float_first_cycle(self.table, m)
            else:
                pairs = first_cycle_distribution(self.table, m)
                ks = np.array([k for k, _ in pairs], dtype=np.int64)
                p = np.array([float(q) for _, q in pairs])
            # cumsum adds left to right, as a running sum would
            cum = np.cumsum(p)
            entry = (ks, cum, cum.item(-1))
            size = len(ks)
            if size > CACHE_MAX_COEFFS:
                return entry
            while self._cached + size > CACHE_MAX_COEFFS:
                self._cached -= len(cache.pop(next(iter(cache)))[0])
            self._cached += size
        cache[m] = entry
        return entry

    def sample(self, n: int) -> CycleTypeSample:
        if n < 1:
            raise InvalidArgumentError(f"n must be >= 1, got {n}")
        lengths = []
        m = n
        while m > 0:
            ks, cum, total = self._cumulative(m)
            # the first edge above u; bisect_right beats searchsorted's call
            # overhead on short arrays.  u can round up to cum[-1], hence min
            i = bisect.bisect_right(cum, self._rng.random() * total)
            chosen = ks.item(min(i, len(ks) - 1))
            lengths.append(chosen)
            m -= chosen
        lengths.sort()
        return CycleTypeSample(n=n, lengths=tuple(lengths), seed=self.seed)


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
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    if n > table.n_max:
        raise OutOfRangeError(f"n={n} beyond table n_max={table.n_max}")

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
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
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
        raise EmptySupportError(
            f"no permutation of [{n}] has all cycle lengths allowed"
        )
    return {t: Fraction(w, total) for t, w in weights.items()}
