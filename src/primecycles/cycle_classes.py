"""Cycle-length sets: membership, exact density, and harmonic sums.

A cycle-length set selects which cycle lengths a permutation may use.  Kinds
are enumerated rather than accepting arbitrary predicates, so every kind
carries an exact density: the primes (density 0, backed by a sieve table),
all positive integers (density 1), a finite explicit set (density 0), a
union of residue classes mod m (density |R|/m).  A single fixed length is
an explicit set of one.  Specs are immutable values and safe to share.
"""

import math
import operator
from fractions import Fraction

import numpy as np

from primecycles.errors import InvalidArgumentError, OutOfRangeError
from primecycles.primes import PrimeTable

KIND_PRIMES = "primes"
KIND_ALL = "all"
KIND_EXPLICIT = "explicit"
KIND_RESIDUES = "residues"


def _integer(x, what: str) -> int:
    """x as an int by operator.index, so numpy ints pass and a float is
    refused rather than truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidArgumentError(f"{what} must be an integer, got {x!r}") from None


class CycleClassSpec:
    """One cycle-length set, with membership, density and member iteration."""

    __slots__ = ("kind", "table", "values", "modulus", "residues", "_value_set")

    def __init__(self, kind, table=None, values=None, modulus=None, residues=None):
        self.kind = kind
        self.table = table
        self.values = values
        self.modulus = modulus
        self.residues = residues
        self._value_set = frozenset(values) if values is not None else None

    @classmethod
    def primes(cls, table: PrimeTable) -> "CycleClassSpec":
        return cls(KIND_PRIMES, table=table)

    @classmethod
    def all_lengths(cls) -> "CycleClassSpec":
        # the residue class 0 mod 1, for the routes that take residues
        return cls(KIND_ALL, modulus=1, residues=(0,))

    @classmethod
    def explicit(cls, values) -> "CycleClassSpec":
        vals = tuple(sorted({_integer(v, "explicit set member") for v in values}))
        if any(v < 1 for v in vals):
            raise InvalidArgumentError("explicit set members must be >= 1")
        return cls(KIND_EXPLICIT, values=vals)

    @classmethod
    def residue_classes(cls, modulus: int, residues) -> "CycleClassSpec":
        modulus = _integer(modulus, "modulus")
        if modulus < 1:
            raise InvalidArgumentError(f"modulus must be >= 1, got {modulus}")
        rset = tuple(sorted({_integer(r, "residue") for r in residues}))
        if not rset:
            raise InvalidArgumentError("residue set must be nonempty")
        if any(r < 0 or r >= modulus for r in rset):
            raise InvalidArgumentError(
                f"residues must lie in [0, {modulus}), got {rset}"
            )
        return cls(KIND_RESIDUES, modulus=modulus, residues=rset)

    @classmethod
    def singleton(cls, k: int) -> "CycleClassSpec":
        k = _integer(k, "singleton length")
        if k < 1:
            raise InvalidArgumentError(f"singleton length must be >= 1, got {k}")
        return cls.explicit((k,))

    # -- membership ---------------------------------------------------------

    def contains(self, k: int) -> bool:
        """True iff k belongs to the set.  Out-of-range is an error, never False."""
        if k < 1:
            raise InvalidArgumentError(f"k must be a positive integer, got {k}")
        if self.kind == KIND_PRIMES:
            return self.table.is_prime(k)
        if self.kind == KIND_ALL:
            return True
        if self.kind == KIND_RESIDUES:
            return (k % self.modulus) in self.residues
        return k in self._value_set

    @property
    def support_limit(self):
        """Largest k with decidable membership, or None when unbounded."""
        if self.kind == KIND_PRIMES:
            return self.table.limit
        return None

    def members_upto(self, n: int) -> np.ndarray:
        """All members <= n, ascending, as an int64 array."""
        if n < 0:
            raise InvalidArgumentError(f"n must be >= 0, got {n}")
        if self.kind == KIND_PRIMES:
            if n > self.table.limit:
                raise OutOfRangeError(
                    f"n={n} exceeds prime table limit {self.table.limit}"
                )
            idx = self.table.primes()
            return idx[: int(np.searchsorted(idx, n, side="right"))]
        if self.kind == KIND_ALL:
            return np.arange(1, n + 1, dtype=np.int64)
        if self.kind == KIND_RESIDUES:
            parts = []
            for r in self.residues:
                start = r if r >= 1 else self.modulus
                parts.append(np.arange(start, n + 1, self.modulus, dtype=np.int64))
            merged = np.concatenate(parts) if parts else np.empty(0, np.int64)
            merged.sort()
            return merged
        vals = np.asarray(self.values, dtype=np.int64)
        return vals[vals <= n]

    # -- density and harmonic sums -------------------------------------------

    def density(self):
        """Limit of |members <= n| / n as an exact Fraction."""
        if self.kind == KIND_ALL:
            return Fraction(1)
        if self.kind == KIND_RESIDUES:
            return Fraction(len(self.residues), self.modulus)
        # the primes and finite sets
        return Fraction(0)

    def harmonic_offset(self, n: int) -> float:
        """Sum of 1/k over members k <= n, minus density * ln(n).

        The reciprocals are doubles, added exactly by math.fsum and rounded
        once.
        """
        if n < 1:
            raise InvalidArgumentError(f"n must be >= 1, got {n}")
        rho = self.density()
        members = self.members_upto(n)
        return math.fsum(memoryview(1.0 / members)) - float(rho) * math.log(n)

    # -- presentation ---------------------------------------------------------

    def describe(self) -> str:
        if self.kind == KIND_PRIMES:
            return "primes"
        if self.kind == KIND_ALL:
            return "all"
        if self.kind == KIND_RESIDUES:
            return f"mod:{self.modulus}:" + ",".join(str(r) for r in self.residues)
        return "set:" + ",".join(str(v) for v in self.values)

    def __repr__(self):
        return f"CycleClassSpec({self.describe()})"
