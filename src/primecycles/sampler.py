"""Exact sampling of cycle types conditioned on allowed cycle lengths.

A uniform random permutation of [n] with every cycle length in A can be
generated cycle by cycle: the cycle through element 1 has length k with
probability a_{n-k} / (n * a_n), after which the remaining n-k elements pose
the same problem again.  Only the cycle type (the multiset of lengths) is
emitted here; the method is rejection-free and exact.

The RNG is the standard library's Mersenne Twister (random.Random), seeded
explicitly; identical seeds give identical samples.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import (
    EmptySupportError,
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfRangeError,
)
from primecycles.exact_enum import CountTable

RENORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CycleTypeSample:
    """One sampled cycle type: lengths sorted ascending, the seed that made it."""

    n: int
    lengths: tuple
    seed: int


def first_cycle_distribution(table: CountTable, n: int):
    """Pairs (k, Pr[cycle through element 1 has length k]) for k in A, ascending.

    Exact tables give Fraction probabilities summing to 1 exactly; float
    tables give doubles renormalized by their sum.  Zero-probability lengths
    are omitted.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if n > table.n_max:
        raise OutOfRangeError(f"n={n} beyond table n_max={table.n_max}")
    ks = [int(k) for k in table.spec.members_upto(n)]
    if table.p_exact is not None:
        # a_{n-k} / (n a_n) = P_{n-k} (n-1)!/(n-k)! / P_n
        P = table.p_exact
        if P[n] == 0:
            raise EmptySupportError(
                f"no permutation of [{n}] has all cycle lengths allowed"
            )
        pairs = []
        ff = 1  # (n-1)(n-2)...(n-j+1)
        j = 1
        for k in ks:
            while j < k:
                ff *= n - j
                j += 1
            if P[n - k]:
                pairs.append((k, Fraction(P[n - k] * ff, P[n])))
        return pairs
    a = table.a_float
    if a[n] <= 0.0:
        raise EmptySupportError(
            f"no permutation of [{n}] has all cycle lengths allowed"
        )
    raw = [(k, a[n - k] / (n * a[n])) for k in ks]
    total = math.fsum(p for _, p in raw)
    if abs(total - 1.0) > RENORM_TOLERANCE:
        raise InternalConsistencyError(
            f"first-cycle probabilities at n={n} sum to {total!r}"
        )
    return [(k, p / total) for k, p in raw if p > 0.0]


class Sampler:
    """Holds a table reference plus RNG state; one sampler per thread."""

    def __init__(self, table: CountTable, seed: int):
        self.table = table
        self.seed = seed
        self._rng = random.Random(seed)
        self._cum = {}

    def _cumulative(self, m: int):
        cached = self._cum.get(m)
        if cached is None:
            pairs = first_cycle_distribution(self.table, m)
            ks = [k for k, _ in pairs]
            cum = []
            acc = 0.0
            for _, p in pairs:
                acc += float(p)
                cum.append(acc)
            cached = (ks, cum)
            self._cum[m] = cached
        return cached

    def sample(self, n: int) -> CycleTypeSample:
        if n < 1:
            raise InvalidArgumentError(f"n must be >= 1, got {n}")
        lengths = []
        m = n
        while m > 0:
            ks, cum = self._cumulative(m)
            u = self._rng.random() * cum[-1]
            # linear scan; |A(m)| is small compared to the RNG cost
            chosen = ks[-1]
            for k, edge in zip(ks, cum):
                if u < edge:
                    chosen = k
                    break
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
