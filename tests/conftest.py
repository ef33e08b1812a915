import math
import sys

import pytest

from primecycles import primes, verify
from primecycles.analytic import SeriesSum, make_constants
from primecycles.cycle_classes import CycleClassSpec
from primecycles.errors import InvalidArgumentError
from primecycles.exact_enum import build_table
from primecycles.primes import build_sieve
from primecycles.verify import (
    CHECK_NAMES,
    N_GRID_DEFAULT,
    T_GRID_DEFAULT,
    run_verify,
)


@pytest.fixture(scope="session")
def refuses_non_integers():
    """check(call): call(5.0) and call(5.5) each raise InvalidArgumentError
    naming "integer", so a whole float is refused rather than truncated."""
    def check(call):
        for x in (5.0, 5.5):
            with pytest.raises(InvalidArgumentError, match="integer"):
                call(x)
    return check


@pytest.fixture(scope="session")
def sieve_small():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def sieve_big():
    # covers nth_prime(1e6) = 15485863
    return build_sieve(16_000_000)


@pytest.fixture(scope="session")
def primes_spec(sieve_small):
    return CycleClassSpec.primes(sieve_small)


@pytest.fixture(scope="session")
def primes_spec_big(sieve_big):
    return CycleClassSpec.primes(sieve_big)


@pytest.fixture(scope="session")
def constants():
    return make_constants()


@pytest.fixture(scope="session")
def table300(primes_spec):
    return build_table(primes_spec, 300, mode="both")


@pytest.fixture(scope="session")
def float_table_1e5(primes_spec_big):
    return build_table(primes_spec_big, 100_000, mode="float")


# the t grid of the benchmark's verify workload
BENCH_T_GRID = (1e-4, 1e-5, 1e-6, 3e-7)


@pytest.fixture(scope="session")
def _default_stream():
    """run_verify on the default grids, and phi_eval(e^-t) for t on the
    default and bench t grids, as SeriesSum accumulators read off the run's
    own stream, which ends at their largest limit, near 3.05e9."""
    ts = sorted(set(T_GRID_DEFAULT + BENCH_T_GRID))
    series = [SeriesSum(math.exp(-t)) for t in ts]
    feed = verify.feed_primes

    def feed_series_too(*accumulators):
        return feed(*accumulators, *series)[:len(accumulators)]

    verify.feed_primes = feed_series_too
    try:
        run = run_verify(N_GRID_DEFAULT, T_GRID_DEFAULT, CHECK_NAMES)
    finally:
        verify.feed_primes = feed
    return run, {t: acc.result() for t, acc in zip(ts, series)}


@pytest.fixture(scope="session")
def default_verify_run(_default_stream):
    # every check on the default grids: the phi check streams the primes to
    # about 3.05e9, so the tests that read this run share it
    return _default_stream[0]


@pytest.fixture(scope="session")
def streamed_phi(_default_stream):
    """{t: phi_eval(e^-t)} for t on the default and bench t grids."""
    return _default_stream[1]


@pytest.fixture
def record_streams(monkeypatch):
    """Swap every binding of iter_prime_blocks in the package for one that
    records each stream as [limit, blocks read]; the list of records."""
    streams = []
    original = primes.iter_prime_blocks

    def recording(limit, *args, **kwargs):
        stream = [limit, 0]
        streams.append(stream)
        for block in original(limit, *args, **kwargs):
            stream[1] += 1
            yield block

    for name, module in list(sys.modules.items()):
        if name.startswith("primecycles"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    return streams
