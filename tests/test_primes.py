import copy
import math
import pickle

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


def test_build_domain_errors():
    with pytest.raises(InvalidArgumentError):
        build_sieve(1)
    with pytest.raises(ResourceLimitError):
        build_sieve(2**31 + 1)


def test_is_prime(sieve_small):
    assert sieve_small.is_prime(2)
    assert not sieve_small.is_prime(1)
    assert not sieve_small.is_prime(91)  # 7 * 13
    with pytest.raises(InvalidArgumentError):
        sieve_small.is_prime(0)
    with pytest.raises(OutOfRangeError):
        sieve_small.is_prime(10_001)


def test_membership_matches_trial_division(sieve_small):
    for k in range(1, 10_001):
        assert sieve_small.is_prime(k) == trial_division(k), k


def test_prime_count(sieve_small):
    assert sieve_small.prime_count(10) == 4
    assert sieve_small.prime_count(1) == 0
    assert sieve_small.prime_count(100) == 25
    with pytest.raises(OutOfRangeError):
        sieve_small.prime_count(10_001)
    with pytest.raises(InvalidArgumentError):
        sieve_small.prime_count(0)


def test_prime_count_matches_direct_scan(sieve_small):
    rng = np.random.default_rng(20260819)
    for y in rng.integers(1, 10_000, size=25):
        y = int(y)
        direct = sum(1 for k in range(2, y + 1) if sieve_small.is_prime(k))
        assert sieve_small.prime_count(y) == direct


def test_nth_prime(sieve_small):
    assert sieve_small.nth_prime(1) == 2
    assert sieve_small.nth_prime(4) == 7
    assert sieve_small.nth_prime(25) == 97
    with pytest.raises(OutOfRangeError):
        sieve_small.nth_prime(10_000)
    with pytest.raises(InvalidArgumentError):
        sieve_small.nth_prime(0)


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


@pytest.mark.parametrize("segment", [64, 30030, 30032, SEGMENT_SIZE])
def test_presieved_blocks_match_the_plain_sieve(segment):
    # each segment's mask starts from a 30030-periodic pattern that strikes
    # 3, 5, 7, 11 and 13 themselves, so the first block must put them back
    # and every later period must still strike them: 30043 = 13 * 2311
    limits = list(range(2, 15)) + [30029, 30030, 30031, 3 * segment + 5]
    for limit in limits:
        table = np.flatnonzero(_simple_mask(limit))
        cut = np.split(table, np.searchsorted(
            table, np.arange(segment, limit + 1, segment)))
        want = [block for block in cut if block.size]
        got = list(iter_prime_blocks(limit, segment=segment))
        assert len(got) == len(want), (segment, limit)
        for block, expected in zip(got, want):
            assert block.dtype == np.int64
            assert np.array_equal(block, expected), (segment, limit)
    first = next(iter_prime_blocks(3 * segment + 5, segment=segment))
    assert set(PRESIEVED) <= set(first.tolist())


def test_iter_prime_blocks_empty_below_two():
    assert list(iter_prime_blocks(1)) == []


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


def test_nth_primes_domain():
    assert nth_primes([]) == []
    for bad in ([0], [5, -1], [3, 0, 7]):
        with pytest.raises(InvalidArgumentError):
            nth_primes(bad)


def test_nth_primes_refuses_a_short_stream(monkeypatch):
    def first_block_only(limit):
        yield next(iter_prime_blocks(limit))

    monkeypatch.setattr(primes, "iter_prime_blocks", first_block_only)
    assert nth_primes([1, 2]) == [2, 3]
    # p_200000 = 2750159 lies past the first block, [0, SEGMENT_SIZE)
    with pytest.raises(InternalConsistencyError):
        nth_primes([200_000])
