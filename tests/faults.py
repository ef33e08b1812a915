"""Planted faults: each is a context manager that monkeypatches the
package while it is open and never edits it, tagged with the route it
breaks and the check meant to catch it.  Tests apply a fault and assert
that its check fails, and that the same check passes without it.
"""

import contextlib
from dataclasses import dataclass
from typing import Callable, ContextManager

from primecycles import verify


@contextlib.contextmanager
def prime_dropped(p: int):
    """verify's shared prime stream with the prime p filtered out of every
    block, so every check that reads the stream misses it."""
    stream = verify.iter_prime_blocks

    def without_p(*args, **kwargs):
        for block in stream(*args, **kwargs):
            yield block[block != p]

    verify.iter_prime_blocks = without_p
    try:
        yield
    finally:
        verify.iter_prime_blocks = stream


@dataclass(frozen=True)
class Fault:
    name: str
    route: str  # what the fault breaks
    check: str  # what is meant to catch it
    plant: Callable[[], ContextManager]


FAULTS = (
    # phi(e^-t) loses 1/2 e^-2t, caught at every t
    Fault("prime 2 dropped", "the prime stream", "verify: phi",
          lambda: prime_dropped(2)),
    # the largest prime below 1/t at t = 3e-7, the bench grid's least t:
    # phi(e^-t) loses about 1.1e-7, caught where the split is that exact
    Fault("prime 3333331 dropped", "the prime stream", "verify: phi",
          lambda: prime_dropped(3_333_331)),
)
