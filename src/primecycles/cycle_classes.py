"""Cycle-length sets: membership, exact density, and harmonic sums.

A cycle-length set selects which cycle lengths a permutation may use.  Kinds
are enumerated rather than accepting arbitrary predicates, so every kind
carries an exact density.  There are two:

* the primes (density 0), backed by a sieve table;
* steps S with an optional period m.  With a period the set is every
  k >= 1 with (k - 1) % m + 1 in S, the union of residue classes mod m
  (density |S|/m), each residue r stored as its least member, r or m; all
  positive integers are the class 0 mod 1, the step 1 with period 1.
  Without one it is the finite set S itself (density 0); a single fixed
  length is a set of one.

Both recurrences read the steps form as it is stored.  Specs are immutable
values and safe to share.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from primecycles.errors import InvalidArgumentError, _integer
from primecycles.primes import PrimeTable

KIND_PRIMES = "primes"
KIND_STEPS = "steps"


@dataclass(frozen=True, slots=True, eq=False)
class CycleClassSpec:
    """One cycle-length set, with membership, density and member iteration.

    A primes spec holds its sieve table; any other holds steps, a sorted
    tuple, and period, an int or None (the module docstring has the form).
    A frozen dataclass: assigning or deleting a field raises
    dataclasses.FrozenInstanceError, an AttributeError.
    """

    kind: str
    table: Optional[PrimeTable] = None
    steps: Optional[tuple] = None
    period: Optional[int] = None

    @classmethod
    def primes(cls, table: PrimeTable) -> "CycleClassSpec":
        return cls(KIND_PRIMES, table=table)

    @classmethod
    def all_lengths(cls) -> "CycleClassSpec":
        return cls.residue_classes(1, (0,))

    @classmethod
    def explicit(cls, values) -> "CycleClassSpec":
        vals = tuple(sorted({_integer(v, "explicit set member", 1) for v in values}))
        return cls(KIND_STEPS, steps=vals)

    @classmethod
    def residue_classes(cls, modulus: int, residues) -> "CycleClassSpec":
        modulus = _integer(modulus, "modulus", 1)
        rset = tuple(sorted({_integer(r, "residue") for r in residues}))
        if not rset:
            raise InvalidArgumentError("residue set must be nonempty")
        if any(r < 0 or r >= modulus for r in rset):
            raise InvalidArgumentError(
                f"residues must lie in [0, {modulus}), got {rset}"
            )
        return cls(KIND_STEPS, steps=tuple(sorted(r or modulus for r in rset)),
                   period=modulus)

    @classmethod
    def singleton(cls, k: int) -> "CycleClassSpec":
        k = _integer(k, "singleton length", 1)
        return cls.explicit((k,))

    # -- membership ---------------------------------------------------------

    def contains(self, k: int) -> bool:
        """True iff k belongs to the set.  Out-of-range is an error, never False."""
        k = _integer(k, "k", 1)
        if self.kind == KIND_PRIMES:
            return self.table.is_prime(k)
        if self.period is None:
            return k in self.steps
        return (k - 1) % self.period + 1 in self.steps

    def members_upto(self, n: int) -> np.ndarray:
        """All members <= n, ascending, as an int64 array."""
        if self.kind == KIND_PRIMES:
            n = _integer(n, "n", 0, self.table.limit)
            idx = self.table.primes()
            return idx[: int(np.searchsorted(idx, n, side="right"))]
        n = _integer(n, "n", 0)
        if self.period is None:
            steps = np.asarray(self.steps, dtype=np.int64)
            return steps[steps <= n]
        merged = np.concatenate([np.arange(s, n + 1, self.period, dtype=np.int64)
                                 for s in self.steps])
        merged.sort()
        return merged

    # -- density and harmonic sums -------------------------------------------

    def density(self):
        """Limit of |members <= n| / n as an exact Fraction."""
        if self.kind == KIND_PRIMES or self.period is None:
            return Fraction(0)
        return Fraction(len(self.steps), self.period)

    def harmonic_offset(self, n: int) -> float:
        """Sum of 1/k over members k <= n, minus density * ln(n).

        The reciprocals are doubles, added exactly by math.fsum and rounded
        once.
        """
        n = _integer(n, "n", 1)
        rho = self.density()
        members = self.members_upto(n)
        return math.fsum(memoryview(1.0 / members)) - float(rho) * math.log(n)

    # -- presentation ---------------------------------------------------------

    def describe(self) -> str:
        if self.kind == KIND_PRIMES:
            return "primes"
        if self.period is None:
            return "set:" + ",".join(str(v) for v in self.steps)
        if self.period == 1:
            return "all"
        residues = sorted(s % self.period for s in self.steps)
        return f"mod:{self.period}:" + ",".join(str(r) for r in residues)

    def __repr__(self):
        return f"CycleClassSpec({self.describe()})"
