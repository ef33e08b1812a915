import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from primecycles import primes
from primecycles.errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfRangeError,
    ResourceLimitError,
)
from primecycles.primes import (
    PRESIEVED,
    SEGMENT_SIZE,
    SPLIT_STRIKES,
    _simple_mask,
    build_sieve,
    iter_prime_blocks,
    nth_primes,
)


def trial_division(k):
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def test_build_examples():
    table = build_sieve(10)
    assert table.primes().tolist() == [2, 3, 5, 7]
    assert build_sieve(2).primes().tolist() == [2]


def test_build_domain_errors(refuses_non_integers):
    with pytest.raises(InvalidArgumentError):
        build_sieve(1)
    with pytest.raises(ResourceLimitError):
        build_sieve(2**31 + 1)
    refuses_non_integers(build_sieve)
    assert build_sieve(np.int64(10)).primes().tolist() == [2, 3, 5, 7]


def test_is_prime(sieve_small, refuses_non_integers):
    assert sieve_small.is_prime(2)
    assert not sieve_small.is_prime(1)
    assert not sieve_small.is_prime(91)  # 7 * 13
    with pytest.raises(InvalidArgumentError):
        sieve_small.is_prime(0)
    with pytest.raises(OutOfRangeError):
        sieve_small.is_prime(10_001)
    refuses_non_integers(sieve_small.is_prime)
    # a numpy integer is answered as the int it equals, with a Python bool
    assert sieve_small.is_prime(np.int64(7)) is True
    assert sieve_small.is_prime(np.int64(91)) is False


def test_membership_matches_trial_division(sieve_small):
    for k in range(1, 10_001):
        assert sieve_small.is_prime(k) == trial_division(k), k


def test_prime_count(sieve_small, refuses_non_integers):
    assert sieve_small.prime_count(10) == 4
    assert sieve_small.prime_count(1) == 0
    assert sieve_small.prime_count(100) == 25
    with pytest.raises(OutOfRangeError):
        sieve_small.prime_count(10_001)
    with pytest.raises(InvalidArgumentError):
        sieve_small.prime_count(0)
    refuses_non_integers(sieve_small.prime_count)
    assert sieve_small.prime_count(np.int64(10)) == 4


def test_prime_count_matches_direct_scan(sieve_small):
    rng = np.random.default_rng(20260819)
    for y in rng.integers(1, 10_000, size=25):
        y = int(y)
        direct = sum(1 for k in range(2, y + 1) if sieve_small.is_prime(k))
        assert sieve_small.prime_count(y) == direct


def test_nth_prime(sieve_small, refuses_non_integers):
    assert sieve_small.nth_prime(1) == 2
    assert sieve_small.nth_prime(4) == 7
    assert sieve_small.nth_prime(25) == 97
    with pytest.raises(OutOfRangeError):
        sieve_small.nth_prime(10_000)
    with pytest.raises(InvalidArgumentError):
        sieve_small.nth_prime(0)
    refuses_non_integers(sieve_small.nth_prime)
    assert sieve_small.nth_prime(np.int64(4)) == 7


def test_nth_prime_inverts_prime_count(sieve_small):
    for p in sieve_small.primes().tolist():
        assert sieve_small.nth_prime(sieve_small.prime_count(p)) == p


def test_index_is_strictly_increasing(sieve_small):
    idx = sieve_small.primes()
    assert (np.diff(idx) > 0).all()
    assert idx.size == sieve_small.prime_count(sieve_small.limit)


def test_pnt_trend(sieve_big):
    """p_k / (k ln k) decreases toward 1 over k = 10^3..10^6."""
    ratios = []
    for k in (10**3, 10**4, 10**5, 10**6):
        ratios.append(sieve_big.nth_prime(k) / (k * math.log(k)))
    assert all(1.0 < r < 1.3 for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_segmented_construction_matches_simple():
    n = 10_000_019  # five segments, the last one partial
    assert np.array_equal(build_sieve(n).primes(),
                          np.flatnonzero(_simple_mask(n)))


@pytest.mark.parametrize("limit", [2, 3, 10, 97, 10_000, 1_000_000,
                                   3 * SEGMENT_SIZE + 5])
def test_iter_prime_blocks_matches_table(limit):
    streamed = np.concatenate(list(iter_prime_blocks(limit)))
    assert np.array_equal(streamed, np.flatnonzero(_simple_mask(limit)))


def test_iter_prime_blocks_small_segments():
    # force many segment boundaries
    streamed = np.concatenate(list(iter_prime_blocks(10_000, segment=64)))
    assert np.array_equal(streamed, np.flatnonzero(_simple_mask(10_000)))


def test_iter_prime_blocks_edges_do_not_depend_on_the_limit():
    # every block but the last of a shorter stream is a block of a longer one
    for segment in (64, 1000):
        longer = list(iter_prime_blocks(10_000, segment=segment))
        for limit in (2, 64, 997, 1000, 1001, 5000, 9999):
            shorter = list(iter_prime_blocks(limit, segment=segment))
            for got, want in zip(shorter[:-1], longer):
                assert np.array_equal(got, want)
            last = longer[len(shorter) - 1]
            assert np.array_equal(shorter[-1], last[last <= limit])


def _assert_blocks_match_the_plain_sieve(limit, segment):
    """iter_prime_blocks(limit, segment) is _simple_mask's primes cut at
    the multiples of segment, empty pieces dropped, each an int64 array."""
    table = np.flatnonzero(_simple_mask(limit))
    cut = np.split(table, np.searchsorted(
        table, np.arange(segment, limit + 1, segment)))
    want = [block for block in cut if block.size]
    got = list(iter_prime_blocks(limit, segment=segment))
    assert len(got) == len(want), (segment, limit)
    for block, expected in zip(got, want):
        assert block.dtype == np.int64
        assert np.array_equal(block, expected), (segment, limit)


PERIODS = [math.prod(group) for group in PRESIEVED]
FLAT_PRESIEVED = {p for group in PRESIEVED for p in group}
# the first base prime that strikes a 2^21 segment on one progression
SPLIT_BOUND = SEGMENT_SIZE // 2 // SPLIT_STRIKES
FIRST_SINGLE = next(p for p in range(SPLIT_BOUND, 2 * SPLIT_BOUND)
                    if trial_division(p))


@pytest.mark.parametrize("segment", [64, 30030, 30032, 1 << 16, SEGMENT_SIZE])
def test_presieved_blocks_match_the_plain_sieve(segment):
    # each segment's mask starts from periodic patterns that strike the
    # PRESIEVED primes themselves, so the first block must put them back
    # and every later period must still strike them: 30043 = 13 * 2311.
    # Segments shorter than a period cut its pattern into heads and
    # tails, and past 2 * 347261 every group is presieved at every
    # segment size here.
    limits = list(range(2, 15)) + [30029, 30030, 30031, 73**2, 79**2,
                                   3 * segment + 5, 2 * PERIODS[-1] + 3]
    for limit in limits:
        _assert_blocks_match_the_plain_sieve(limit, segment)
    first = next(iter_prime_blocks(79**2, segment=segment))
    assert {p for p in FLAT_PRESIEVED if p < segment} <= set(first.tolist())


@pytest.mark.parametrize("limit", sorted(
    [2 * period + d for period in PERIODS for d in (-1, 1)]
    + [FIRST_SINGLE**2 + d for d in (-2, 0, 2)]))
def test_blocks_match_at_pattern_periods_and_the_split(limit):
    # a group after the first is presieved only where the stream's odd
    # slots, (limit + 1)//2, exceed its period P, from 2P + 1 on, so its
    # pattern wraps there; and the square of the first base prime that
    # strikes a 2^21 segment as one progression of stride p, not two of 3p
    _assert_blocks_match_the_plain_sieve(limit, SEGMENT_SIZE)


def test_iter_prime_blocks_refuses_a_bad_segment(refuses_non_integers):
    for segment in (0, -64):
        with pytest.raises(InvalidArgumentError):
            list(iter_prime_blocks(100, segment=segment))
    refuses_non_integers(
        lambda segment: list(iter_prime_blocks(100, segment=segment)))
    assert [b.tolist() for b in iter_prime_blocks(10, segment=1)] == \
        [[2], [3], [5], [7]]


def test_iter_prime_blocks_memory():
    # one segment's mask, 1 MB, its block, about as large, and the
    # stream's patterns, 0.68 MB, at a time: 4.24 MB peak, 4.62 MB with
    # a tiled 30030 pattern of 1.06 MB
    tracemalloc.start()
    try:
        for _ in iter_prime_blocks(10**7):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10**6


def test_iter_prime_blocks_empty_below_two(refuses_non_integers):
    for limit in (1, 0, -5, np.int64(1)):
        assert list(iter_prime_blocks(limit)) == []
    # a generator: the limit is checked when the stream is first read
    refuses_non_integers(lambda limit: list(iter_prime_blocks(limit)))
    assert [b.tolist() for b in iter_prime_blocks(np.int64(10))] == [[2, 3, 5, 7]]


def test_table_immutable(sieve_small):
    with pytest.raises(ValueError):
        sieve_small.primes()[0] = 4
    # a raised limit made is_prime(101) False and P_110 of the primes wrong
    table = build_sieve(100)
    for name in ("limit", "_primes"):
        with pytest.raises(AttributeError):
            setattr(table, name, 1000)
        with pytest.raises(AttributeError):
            delattr(table, name)
    with pytest.raises(OutOfRangeError):
        table.is_prime(101)
    for twin in (copy.copy(table), copy.deepcopy(table),
                 pickle.loads(pickle.dumps(table))):
        assert twin.limit == 100
        assert twin.primes().tolist() == table.primes().tolist()
        assert not twin.primes().flags.writeable


def test_nth_primes_matches_table_to_2000():
    table = build_sieve(20_000)  # p_2000 = 17389
    ks = list(range(1, 2001))
    assert nth_primes(ks) == [table.nth_prime(k) for k in ks]
    # each k alone, so every small-k stream limit is exercised too
    assert [nth_primes([k])[0] for k in range(1, 40)] == \
        [table.nth_prime(k) for k in range(1, 40)]


@pytest.mark.parametrize("segment, kmax", [(256, 1200),
                                            (SEGMENT_SIZE, 500_000)])
def test_nth_primes_at_segment_edges(monkeypatch, segment, kmax):
    # 256-integer segments put many block boundaries below p_1200 = 9733;
    # full segments give three below p_500000 = 7368787
    seen = []

    def recording(limit):
        for block in iter_prime_blocks(limit, segment=segment):
            seen.append(block[-1])
            yield block

    monkeypatch.setattr(primes, "iter_prime_blocks", recording)
    nth_primes([kmax])
    assert len(seen) > 3
    table = build_sieve(int(seen[-1]))
    edges = []
    for last in seen:
        count = table.prime_count(int(last))
        edges += [count, count + 1]  # last prime of a block, first of the next
    edges = [k for k in edges if k <= kmax] + [1, kmax]
    assert nth_primes(edges) == [table.nth_prime(k) for k in edges]


def test_nth_primes_order_and_duplicates(sieve_small):
    ks = [1000, 3, 1000, 1, 250, 3, 2]
    assert nth_primes(ks) == [sieve_small.nth_prime(k) for k in ks]
    assert nth_primes(iter(ks)) == nth_primes(ks)
    assert nth_primes([10**6, 10**3]) == [15_485_863, 7919]


def test_tables_read_off_a_shared_stream():
    # PrimesUpTo accumulators cut from one longer stream, one of them past
    # a segment edge, give build_sieve's tables; the limit is checked
    # before any prime is streamed
    limits = (100, SEGMENT_SIZE + 5, 10)
    accs = [primes.PrimesUpTo(limit) for limit in limits]
    tables = primes.feed_primes(iter_prime_blocks(3 * SEGMENT_SIZE), *accs)
    for limit, table in zip(limits, tables):
        assert table.limit == limit
        assert table.primes().tolist() == build_sieve(limit).primes().tolist()
        assert not table.primes().flags.writeable
    with pytest.raises(InvalidArgumentError):
        primes.PrimesUpTo(1)
    with pytest.raises(ResourceLimitError):
        primes.PrimesUpTo(2**31 + 1)


def test_nth_primes_domain(refuses_non_integers):
    assert nth_primes([]) == []
    for bad in ([0], [5, -1], [3, 0, 7]):
        with pytest.raises(InvalidArgumentError):
            nth_primes(bad)
    refuses_non_integers(lambda k: nth_primes([3, k]))
    assert nth_primes([np.int64(4), 2]) == [7, 3]


def test_nth_primes_refuses_a_short_stream(monkeypatch):
    def first_block_only(limit):
        yield next(iter_prime_blocks(limit))

    monkeypatch.setattr(primes, "iter_prime_blocks", first_block_only)
    assert nth_primes([1, 2]) == [2, 3]
    # p_200000 = 2750159 lies past the first block, [0, SEGMENT_SIZE)
    with pytest.raises(InternalConsistencyError):
        nth_primes([200_000])
