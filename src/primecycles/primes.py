"""Prime membership, counting and indexing via a sieve of Eratosthenes.

There is one source of primes, :func:`iter_prime_blocks`, an odd-only
segmented sieve that streams primes in numpy blocks without materializing
a table; prime sums with limits in the billions go through it.
:func:`build_sieve` concatenates the same stream into a table: one
ascending, read-only int64 array of primes, immutable after construction
and safe to share across threads.

Consumers that read the stream block by block are accumulators: an object
with a ``limit`` (the largest prime it reads), ``add(block)`` and
``result()``.  :func:`feed_primes` hands one stream to several of them,
each cut at its own limit, so checks that need the primes to different
limits read them once.  :class:`NthPrimes` is one: it counts block sizes
to find p_k, so its working memory is one segment however large k is.
:class:`PrimesUpTo` is another, the one behind :func:`build_sieve`.

A segment spans ``SEGMENT_SIZE`` = 2^21 integers, whose odd-only mask is
1 MB: it stays in a 2 MB per-core L2 cache while every base prime strikes
it, where a 2^24 segment (an 8 MB mask) spills to L3 on each pass.  Smaller
segments lose again, because each one costs a Python-level pass over the
base primes.  Each segment's mask starts all True and is ANDed with up to
six periodic patterns, one per group of ``PRESIEVED`` primes (every odd
prime below 79), built per stream, so only the base primes from 79 up
strike it one by one.  Those that strike a segment at least
``SPLIT_STRIKES`` times strike only their cofactors 1 and 5 mod 6, as two
progressions, since the multiples of 3 are already struck.  Segments sit
at fixed multiples of the segment size, so a stream's blocks do not
depend on its limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from primecycles.errors import (
    InternalConsistencyError,
    ResourceLimitError,
    _integer,
)

DEFAULT_MEMORY_CAP = 2**31
SEGMENT_SIZE = 1 << 21
# The odd primes below 79 in groups.  A group strikes a segment's mask as
# one AND with its odd-slot pattern, one period (the group's product)
# long: 7429 to 347261 slots, 0.68 MB for all six, built per stream in
# about 0.1 ms.  np.ones and the six ANDs take about 0.25 ms of a 2^21
# segment, in place of 20 strikes.  A group after the first is applied
# only where the stream's slots exceed its period; on a shorter stream
# striking its primes costs less than building and ANDing the pattern.
PRESIEVED = ((3, 5, 7, 11, 13), (17, 19, 23), (29, 31, 37), (41, 43, 47),
             (53, 59, 61), (67, 71, 73))
# A base prime strikes two progressions of stride 3p in odd slots, the
# cofactors 1 and 5 mod 6 (multiples of 3 are presieved), where it strikes
# a segment at least SPLIT_STRIKES times: two thirds of the stores for one
# more call.  In a 2^21 segment these are the primes below 2996; a prime
# with fewer stores a segment keeps one stride p.  Draining the stream to
# 1.03e8 and to 6e8 took, in CPU seconds (2-vCPU Xeon, numpy 2.4, one
# process, medians of 9 and 5 alternating runs):
#   the tiled 30030 pattern, strikes from 17 up   0.165  1.113
#   these patterns, no prime split                0.152  1.065
#   split where strikes >= 750 (p < 1398)         0.140  1.004
#   split where strikes >= 350 (p < 2996)         0.142  1.009
#   split where strikes >= 175 (p < 5991)         0.144  1.009
#   every base prime split                        0.145  1.102
SPLIT_STRIKES = 350


def _simple_mask(limit: int) -> np.ndarray:
    """Boolean membership over [0, limit], plain sieve."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


@dataclass(frozen=True, slots=True, eq=False)
class PrimeTable:
    """Every prime in [2, limit] as one ascending, read-only int64 array.

    A frozen dataclass: assigning or deleting a field raises
    dataclasses.FrozenInstanceError, an AttributeError.
    """

    limit: int
    _primes: np.ndarray

    def __post_init__(self):
        self._primes.flags.writeable = False

    def __reduce__(self):
        # a copied or unpickled array comes back writeable; __post_init__
        # makes it read-only again
        return PrimeTable, (self.limit, self._primes)

    def is_prime(self, k: int) -> bool:
        k = _integer(k, "k", 1, self.limit)
        i = int(np.searchsorted(self._primes, k))
        return i < self._primes.size and int(self._primes[i]) == k

    def primes(self) -> np.ndarray:
        """All primes <= limit as a read-only int64 array."""
        return self._primes

    def prime_count(self, y: int) -> int:
        """pi(y), the number of primes not exceeding y."""
        y = _integer(y, "y", 1, self.limit)
        return int(np.searchsorted(self._primes, y, side="right"))

    def nth_prime(self, k: int) -> int:
        """The k-th smallest prime (1-indexed)."""
        index = self._primes
        return int(index[_integer(k, "k", 1, index.size) - 1])


def _pattern(group: tuple) -> np.ndarray:
    """One period of a PRESIEVED group's odd-slot pattern: slot j stands
    for 2j + 1 and is False where 2j + 1 is a multiple of a prime in the
    group, the prime itself included."""
    pattern = np.ones(math.prod(group), dtype=bool)
    for p in group:
        pattern[(p - 1) // 2 :: p] = False
    return pattern


def _and_pattern(mask, pattern, slot: int) -> None:
    """mask[i] &= pattern[(slot + i) % period] for every i: a head up to
    the first period edge, whole periods as the rows of a 2-D view, and a
    tail."""
    period = pattern.size
    offset = slot % period
    head = min(period - offset, mask.size)
    mask[:head] &= pattern[offset : offset + head]
    rows = (mask.size - head) // period
    if rows:
        body = mask[head : head + rows * period].reshape(rows, period)
        body &= pattern
    tail = mask[head + rows * period :]
    if tail.size:
        tail &= pattern[: tail.size]


def iter_prime_blocks(limit: int, segment: int = SEGMENT_SIZE):
    """Yield int64 arrays that together hold every prime <= limit, in order.

    Streams an odd-only segmented sieve; working memory is O(segment), so
    limits far above any sensible table size (10^9 and beyond) are fine.
    Block i holds the primes in [i*segment, (i+1)*segment), the last one cut
    at limit, and empty blocks are skipped.  The edges do not depend on
    limit, so every block of a shorter stream but its last is also a block
    of a longer one, and a sum taken block by block over the primes up to
    some y comes out the same, bit for bit, whatever the stream's limit.

    Each segment's mask starts all True and takes the PRESIEVED patterns:
    the first group's, and each later group's that holds a prime
    <= sqrt(limit) and whose period is shorter than the stream's odd
    slots, (limit + 1)//2; the first segment puts their primes back.  Every
    other odd base prime strikes its odd multiples from max(p^2, the
    segment's start): as the two progressions of cofactors 1 and 5 mod 6
    where it strikes a whole segment at least SPLIT_STRIKES times, else as
    one.
    """
    limit = _integer(limit, "limit")
    segment = _integer(segment, "segment", 1)
    if limit < 2:
        return
    root = math.isqrt(limit)
    slots = (limit + 1) // 2
    # the first group, and each later one that holds a prime <= root and
    # whose period the stream's slots exceed: a prefix of PRESIEVED
    groups = [group for i, group in enumerate(PRESIEVED) if group[0] <= root
              and (i == 0 or math.prod(group) < slots)]
    patterns = [_pattern(group) for group in groups]
    presieved = [p for group in groups for p in group]
    base = np.flatnonzero(_simple_mask(max(root, 2)))
    # 2 never strikes in odd-only segments; it heads the first block
    odd_base = base[base > max(presieved, default=2)].astype(np.int64)
    squares = odd_base * odd_base
    split = int(np.searchsorted(
        odd_base, min(segment, limit + 1) // 2 // SPLIT_STRIKES))
    strides = 3 * odd_base[:split]
    for lo in range(0, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        start = max(lo | 1, 3)
        mask = np.ones(max((hi - start + 1) // 2, 0), dtype=bool)
        for pattern in patterns:
            _and_pattern(mask, pattern, (start - 1) // 2)
        # the patterns struck the presieved primes themselves
        for p in presieved:
            if start <= p < hi:
                mask[(p - start) // 2] = True
        # the least cofactor k with p*k >= max(p^2, start), per striking prime
        count = int(np.searchsorted(squares, hi))
        ps = odd_base[:count]
        k = np.maximum(ps, (start + ps - 1) // ps)
        s = min(count, split)
        small, ks = ps[:s], k[:s]
        ones = (small * (ks + (1 - ks) % 6) - start) // 2
        fives = (small * (ks + (5 - ks) % 6) - start) // 2
        for i, j, step in zip(ones.tolist(), fives.tolist(),
                              strides[:s].tolist()):
            mask[i::step] = False
            mask[j::step] = False
        large = ps[s:]
        firsts = (large * (k[s:] | 1) - start) // 2
        for i, p in zip(firsts.tolist(), large.tolist()):
            mask[i::p] = False
        block = np.flatnonzero(mask)
        block *= 2
        block += start
        if lo == 0:
            block = np.concatenate((np.array([2], dtype=np.int64), block))
        if block.size:
            yield block


def feed_primes(blocks, *accumulators) -> list:
    """Hand each block of one prime stream to every accumulator, cut at
    that accumulator's limit; [acc.result() for acc in accumulators].

    blocks is a stream from iter_prime_blocks to at least the largest
    limit.  An accumulator gets no more blocks once the stream has passed
    its limit or its ``add`` has returned True (it has all it needs), and
    the stream is left unread once no accumulator wants more.
    """
    active = list(accumulators)
    for block in blocks:
        last = int(block[-1])
        for acc in list(active):
            part = block
            if last > acc.limit:
                part = block[: int(np.searchsorted(block, acc.limit, side="right"))]
            if (part.size and acc.add(part)) or last >= acc.limit:
                active.remove(acc)
        if not active:
            break
    return [acc.result() for acc in accumulators]


class NthPrimes:
    """Accumulator for [p_k for k in ks], in the caller's order.

    Its limit is Rosser's bound p_k < k(ln k + ln ln k), which holds for
    k >= 6, for the largest k; it counts block sizes, and ``add`` returns
    True at the block that holds the largest k.
    """

    def __init__(self, ks):
        self.ks = [_integer(k, "k", 1) for k in ks]
        kmax = max(self.ks, default=0)
        self.limit = 11  # p_5
        if kmax >= 6:
            # +1 absorbs rounding in the float bound
            self.limit = int(kmax * (math.log(kmax) + math.log(math.log(kmax)))) + 1
        self._pending = sorted(set(self.ks), reverse=True)
        self._found = {}
        self._count = 0

    def add(self, block) -> bool:
        pending = self._pending
        count = self._count
        end = count + block.size
        while pending and pending[-1] <= end:
            k = pending.pop()
            self._found[k] = int(block[k - count - 1])
        self._count = end
        return not pending

    def result(self) -> list:
        if self._pending:
            raise InternalConsistencyError(
                f"prime stream to {self.limit} ended after {self._count} "
                f"primes, short of k={self._pending[-1]}"
            )
        return [self._found[k] for k in self.ks]


class PrimesUpTo:
    """Accumulator for build_sieve(limit): it keeps the blocks up to limit
    and joins them into a PrimeTable.

    Raises InvalidArgumentError for limit < 2 and ResourceLimitError above
    ``DEFAULT_MEMORY_CAP`` on construction, so before any prime is streamed.
    """

    def __init__(self, limit: int):
        self.limit = _integer(limit, "sieve limit", 2, DEFAULT_MEMORY_CAP,
                              ResourceLimitError)
        self._blocks = []

    def add(self, block) -> bool:
        # a copy: a block cut at the limit is a view that would keep the
        # stream's whole block alive
        self._blocks.append(block.copy())
        return False

    def result(self) -> PrimeTable:
        return PrimeTable(self.limit, np.concatenate(self._blocks))


def build_sieve(limit: int) -> PrimeTable:
    """The table of all primes up to ``limit`` (inclusive): the
    one-accumulator case of :class:`PrimesUpTo`."""
    acc = PrimesUpTo(limit)
    return feed_primes(iter_prime_blocks(acc.limit), acc)[0]


def nth_primes(ks) -> list:
    """[p_k for k in ks], in the caller's order, from the prime stream.

    The one-accumulator case of :class:`NthPrimes`: it streams to Rosser's
    bound for the largest k and stops at the block that holds it.  No
    table is built, so memory stays at one segment.
    """
    acc = NthPrimes(ks)
    if not acc.ks:
        return []
    return feed_primes(iter_prime_blocks(acc.limit), acc)[0]
