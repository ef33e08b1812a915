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
base primes.  Each segment's mask starts as a copy of the multiples of 3,
5, 7, 11 and 13 already struck, a pattern of period 2*3*5*7*11*13 = 30030
tiled once per stream, so only the base primes from 17 up strike it.
Segments sit at fixed multiples of the segment size, so a stream's blocks
do not depend on its limit.
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
# the odd primes whose multiples every segment's mask starts with struck
PRESIEVED = (3, 5, 7, 11, 13)
# odd-only slots in one period 2*3*5*7*11*13 = 30030 of their pattern
PATTERN_PERIOD = math.prod(PRESIEVED)


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


def _presieved_pattern(width: int) -> np.ndarray:
    """Odd-only mask over at least width + PATTERN_PERIOD slots, slot j
    standing for 2j + 1, False where 2j + 1 is a multiple of a PRESIEVED
    prime (the prime itself included).  It repeats every PATTERN_PERIOD
    slots, so the odd numbers from s on start at slot
    (s - 1)//2 % PATTERN_PERIOD."""
    pattern = np.ones(PATTERN_PERIOD, dtype=bool)
    for p in PRESIEVED:
        pattern[(p - 1) // 2 :: p] = False
    return np.tile(pattern, width // PATTERN_PERIOD + 2)


def iter_prime_blocks(limit: int, segment: int = SEGMENT_SIZE):
    """Yield int64 arrays that together hold every prime <= limit, in order.

    Streams an odd-only segmented sieve; working memory is O(segment), so
    limits far above any sensible table size (10^9 and beyond) are fine.
    Block i holds the primes in [i*segment, (i+1)*segment), the last one cut
    at limit, and empty blocks are skipped.  The edges do not depend on
    limit, so every block of a shorter stream but its last is also a block
    of a longer one, and a sum taken block by block over the primes up to
    some y comes out the same, bit for bit, whatever the stream's limit.
    """
    limit = _integer(limit, "limit")
    if limit < 2:
        return
    base = np.flatnonzero(_simple_mask(max(math.isqrt(limit), 2)))
    # 2 never strikes in odd-only segments; it heads the first block.  The
    # pattern has struck the PRESIEVED primes, so the rest start past them
    odd_base = base[1 + len(PRESIEVED):].astype(np.int64)
    squares = odd_base * odd_base
    pattern = _presieved_pattern(min(segment, limit + 1) // 2 + 1)
    for lo in range(0, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        start = max(lo | 1, 3)
        offset = (start - 1) // 2 % PATTERN_PERIOD
        mask = pattern[offset : offset + max((hi - start + 1) // 2, 0)].copy()
        # the pattern struck the PRESIEVED primes themselves
        for p in PRESIEVED:
            if start <= p < hi:
                mask[(p - start) // 2] = True
        # first odd multiple of each striking prime at or past max(p^2, start)
        ps = odd_base[: int(np.searchsorted(squares, hi))]
        first = np.maximum(squares[: ps.size], (start + ps - 1) // ps * ps)
        first += (first & 1 == 0) * ps
        for i, p in zip(((first - start) // 2).tolist(), ps.tolist()):
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
