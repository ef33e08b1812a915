"""Exact and floating-point enumeration of cycle-constrained permutations.

P_n counts permutations of [n] whose every cycle length lies in a fixed set
A, and a_n = P_n/n! is the probability a uniform permutation qualifies.  The
coefficients satisfy n*a_n = sum over k in A, k <= n of a_{n-k}.

count_exact_upto picks one of two exact routes from the spec's kind:

* steps (residue classes mod m, all lengths as m = 1, and finite sets):
  with the spec's steps S and period m, as the spec stores them,

      P_n = sum_{r in S, r <= n} (n-1)...(n-r+1) * P_{n-r}
            + [n > m] (n-1)(n-2)...(n-m) * P_{n-m},

  which follows from (1 - x^m) f' = N(x) f for f = exp(sum_{k in A} x^k/k).
  A finite set has no period m and no last term: f' = N(x) f.  Each
  term costs O(max S) small-by-big multiplies.
* scaled integers (primes): with N = n_max and B_n = P_n * N!/n!,
  n*B_n = sum_{k in A, k <= n} B_{n-k}, and P_n = B_n / (N!/n!) at the
  end.  The sum runs through the wheel of the numbers coprime to 30,

      sum_{k in A} B_{n-k} = sum_{k in A, gcd(k,30) > 1} B_{n-k} + U_n
                             - sum_{k not in A, gcd(k,30) = 1} B_{n-k},

  all over k <= n, where U_n, the sum of B_{n-k} over every k <= n
  coprime to 30, is U_{n-30} plus its 8 terms at the residues 1, 7, ...,
  29; a ring keeps the last 30 of the U_n.  For the primes each term
  costs 11 big additions (2, 3, 5 and the wheel) and one subtraction for
  1 and for each composite coprime to 30 up to n, against pi(n) additions
  summed directly: 27.2k in place of 48.0k to N = 700, 232k in place of
  329k to N = 2000.  Every division is checked and a remainder raises.

build_table picks the float route from the spec's kind in the same way:

* steps: the same recurrence on a_n in doubles,
  n*a_n = [n > m] (n-m)*a_{n-m} + sum_{r in S, r <= n} a_{n-r}.  Every
  term is nonnegative, so a structural zero comes out as exactly 0.0, and
  a steeply falling coefficient keeps its relative precision.
* primes: a doubling solve in the table's own array (_build_float_fast
  derives it).  The step recurrence gives the head of exp(phi),
  phi = sum_{k in A} x^k/k, and of its inverse exp(-phi).  Each level
  doubles both: a middle product FFT gives its rows' pending sums, a
  block solve in closed form through the Toeplitz matrices of exp(phi)
  and exp(-phi) its coefficients, and a Newton step exp(-phi).  Its
  absolute error is about eps times a block's largest coefficient, which
  is harmless only because prime coefficients decay slowly and never
  vanish past n = 1; a negative or non-finite coefficient is refused.

A float table whose coefficients reach the subnormal range is refused
rather than rounded to a false zero.  The exact routes are checked against
oracles that share no code or identity with them: the exponential formula
f_A = prod_{k in A} exp(x^k/k) expanded one part at a time, in big
integers to n = 300 (count_by_cycle_types_upto) and, in the tests, mod two
primes near 2^31 to the exact cap; and a full enumeration of S_n for
n <= 9 (count_brute_force).  _build_float_baseline, the a_n recurrence by
direct summation, is kept only as the tests' reference for the FFT.
"""

import array
import contextlib
import decimal
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from primecycles.cycle_classes import KIND_PRIMES, CycleClassSpec
from primecycles.errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfRangeError,
    ResourceLimitError,
    _integer,
)

EXACT_CAP_DEFAULT = 2000
FLOAT_CAP_DEFAULT = 10_000_000
PARTITION_CAP = 300
BRUTE_FORCE_CAP = 9
# _count_scaled's wheel: to N = 700 it takes 17% off the primes' time, where
# mod 6, with more composites to subtract, and mod 210, with 48 residues to
# add, took 2%
WHEEL = 30
# _build_float_fast's widest base, from the step recurrence (0.3 ms at 128);
# bases of 64 and 256 were no faster at n = 3*10^4 to 10^5
FAST_PATH_BASE = 128
# 2^-1074 is the smallest subnormal, so every finite double is a whole
# number of these units, and so is any sum of doubles
_SUBNORMAL_UNITS = 1 << 1074


@dataclass(frozen=True)
class CountTable:
    """Immutable coefficient table for one cycle-length set.

    p_exact[n] is the integer count P_n (so a_n = P_n/n! exactly), a
    tuple, a_float the double-precision coefficients from the recurrence
    run in floating point, read-only; either is None when not built.
    """

    spec: CycleClassSpec
    n_max: int
    p_exact: Optional[tuple]
    a_float: Optional[np.ndarray]


def big_str(x: int) -> str:
    """Decimal form of an integer of any size.

    Past the interpreter's int-to-str digit cap it goes through Decimal,
    which the cap does not apply to, so the cap is left as it is.  Below
    the cap str() is the faster of the two.
    """
    try:
        return str(x)
    except ValueError:
        return format(decimal.Decimal(x), "f")


# -- recurrence routes --------------------------------------------------------


def _count_steps(steps, period: Optional[int], n_max: int) -> list:
    """P_0..P_{n_max} by the step recurrence of the module docstring."""
    P = [0] * (n_max + 1)
    P[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        ff = 1  # (n-1)(n-2)...(n-j+1), extended as j grows
        j = 1
        for r in steps:
            if r > n:
                break
            while j < r:
                ff *= n - j
                j += 1
            total += ff * P[n - r]
        if period is not None and n > period:
            while j <= period:
                ff *= n - j
                j += 1
            total += ff * P[n - period]
        P[n] = total
    return P


def _count_scaled(members: list, n_max: int) -> list:
    """P_0..P_{n_max} through B_n = P_n * N!/n!, which needs only additions.

    With N = n_max and members ascending, n*B_n = sum of B_{n-k} over
    members k <= n, summed through the wheel mod WHEEL of the module
    docstring: the members that share a factor with WHEEL, plus U_n, the
    sum over every k <= n coprime to WHEEL, less the numbers coprime to
    WHEEL that are not members.  Each of the three lists is read up to its
    first entry above n.
    ring[n % WHEEL] holds U_{n-WHEEL} until U_n replaces it, so the
    memory beyond B is WHEEL integers, and the back division turns B into
    P in place.  Both divisions are exact in exact arithmetic, so a
    remainder can only mean a fault in this code, and it is raised rather
    than rounded away.
    """
    B = [0] * (n_max + 1)
    B[0] = math.factorial(n_max)
    wheel = [r for r in range(1, WHEEL) if math.gcd(r, WHEEL) == 1]
    shared = [k for k in members if math.gcd(k, WHEEL) > 1]
    member_set = set(members)
    missing = [k for k in range(1, n_max + 1)
               if math.gcd(k, WHEEL) == 1 and k not in member_set]
    ring = [0] * WHEEL
    for n in range(1, n_max + 1):
        total = ring[n % WHEEL]
        for r in wheel:
            if r > n:
                break
            total += B[n - r]
        ring[n % WHEEL] = total
        for k in shared:
            if k > n:
                break
            total += B[n - k]
        for k in missing:
            if k > n:
                break
            total -= B[n - k]
        B[n], rem = divmod(total, n)
        if rem:
            raise InternalConsistencyError(
                f"scaled count at n={n} is not a multiple of {n}"
            )
    scale = 1  # N!/n!; B_n becomes P_n in place, so B and P never coexist
    for n in range(n_max, -1, -1):
        B[n], rem = divmod(B[n], scale)
        if rem:
            raise InternalConsistencyError(
                f"scaled count at n={n} is not a multiple of {n_max}!/{n}!"
            )
        scale *= n or 1
    return B


def count_exact_upto(spec: CycleClassSpec, n_max: int,
                     exact_cap: int = EXACT_CAP_DEFAULT) -> list:
    """P_0..P_{n_max} as exact integers, by the route that suits spec.kind.

    The primes take the scaled-integer recurrence; every other spec takes
    the step recurrence on its steps and period.
    """
    n_max = _integer(n_max, "exact n_max", 0, exact_cap, ResourceLimitError)
    if spec.kind == KIND_PRIMES:
        return _count_scaled(spec.members_upto(n_max).tolist(), n_max)
    return _count_steps(spec.steps, spec.period, n_max)


def count_exact(spec: CycleClassSpec, n: int,
                exact_cap: int = EXACT_CAP_DEFAULT) -> int:
    """|S_{n,A}| as an exact big integer."""
    return count_exact_upto(spec, n, exact_cap=exact_cap)[n]


def _build_float_steps(steps, period: Optional[int], n_max: int,
                       sign: float = 1.0) -> np.ndarray:
    """a_0..a_{n_max} by the float form of _count_steps.  A flat array of
    doubles rather than a list keeps the table at 8 bytes per coefficient.

    With period None and sign -1.0 it gives exp(-phi) instead, the inverse
    series whose head _build_float_fast's doubling starts from.
    """
    a = array.array("d", bytes(8 * (n_max + 1)))
    a[0] = 1.0
    for n in range(1, n_max + 1):
        total = 0.0
        for r in steps:
            if r > n:
                break
            total += a[n - r]
        if period is not None and n > period:
            total += (n - period) * a[n - period]
        a[n] = sign * total / n
    return np.frombuffer(a, dtype=np.float64)


def _build_float_baseline(members: np.ndarray, n_max: int) -> np.ndarray:
    """a_0..a_{n_max} by direct summation of n*a_n = sum of a_{n-k}; the
    tests' reference for _build_float_fast."""
    a = np.zeros(n_max + 1)
    a[0] = 1.0
    ptr = 0
    for n in range(1, n_max + 1):
        while ptr < members.size and members[ptr] <= n:
            ptr += 1
        if ptr:
            a[n] = a[n - members[:ptr]].sum() / n
    return a


def _smooth_at_least(k: int) -> int:
    """The least 5-smooth number (2^i 3^j 5^l) at least k >= 1; k is one
    when it divides 30^e, e = k.bit_length() > each of its exponents."""
    while 30 ** k.bit_length() % k:
        k += 1
    return k


def _solve_block(s_hat: np.ndarray, r: np.ndarray, pend: np.ndarray,
                 lo: int, r_hat: Optional[np.ndarray] = None):
    """(x, y): x = a[lo:lo + w] from its pending sums, lo > 0, as T(s) y,
    y = (T(r) pend) / (lo + j); _build_float_fast derives it.  s_hat is
    rfft(s[:L], 2L) for some L >= w, r holds at least w terms of
    exp(-phi), and both products are cut to w terms.  r_hat, if given, is
    rfft(r[:w], 2L), which is then not taken again.
    """
    size = 2 * s_hat.size - 2
    w = pend.size
    spec = np.fft.rfft(pend, size)
    spec *= np.fft.rfft(r[:w], size) if r_hat is None else r_hat
    # a copy, so the transform's full-size output is freed at once
    y = np.fft.irfft(spec, size)[:w].copy()
    y /= np.arange(lo, lo + w)
    spec = np.fft.rfft(y, size)
    spec *= s_hat
    return np.fft.irfft(spec, size)[:w], y


def _double(a: np.ndarray, members: np.ndarray, r: np.ndarray,
            m: int) -> np.ndarray:
    """Fill a[m:2m], cut at the table's end, from a[:m] and r[:m]; return
    r[:2m], or r once the table is full.  Each temporary is dropped once
    used: the last level's set the peak memory, 5.6 tables at n = 10^6.
    Below the last level w = m, so the solve's T(r) and the Newton step
    share one spectrum of r; at the last level the solve takes its own,
    freed as soon as it is read, so that the peak does not rise.
    """
    size = 2 * m
    w = min(m, a.size - m)
    s_hat = np.fft.rfft(a[:m], size)
    g = np.zeros(size)
    g[members[members < size]] = 1.0
    spec = np.fft.rfft(g, size)
    del g
    spec *= s_hat
    pend = np.fft.irfft(spec, size)[m:m + w].copy()
    del spec
    last = m + w == a.size
    r_hat = None if last else np.fft.rfft(r, size)
    a[m:m + w], y = _solve_block(s_hat, r, pend, m, r_hat)
    if last:
        return r
    s_hat *= r_hat  # now the spectrum of a[:m] r[:m]
    e = np.fft.irfft(s_hat, size)[m:] + y
    spec = np.fft.rfft(e, size)
    spec *= r_hat
    return np.concatenate((r, -np.fft.irfft(spec, size)[:m]))


def _build_float_fast(members: np.ndarray, n_max: int) -> np.ndarray:
    """n*a_n = sum of a_{n-k} by doubling, one block solve per level;
    matches the baseline to ~1e-14 for the primes.

    s = exp(phi), phi = sum of x^k/k over the members k, is the table's
    series, r = exp(-phi) its inverse, g the members' indicator and T(c)
    the lower Toeplitz matrix of c.  The step recurrence gives the first d
    terms of s and r, d the least 5-smooth number >= size/2^K, K the least
    integer with FAST_PATH_BASE * 2^K >= size = n_max + 1.  Each level
    (_double) then takes a[:m] and r[:m] to a[m:m + w], w = min(m,
    size - m), by FFTs of size 2m:

    * pending sums: pend_j = sum of a_i g_{m+j-i} over i < m.  The cyclic
      convolution of a[:m] with g[:2m] wraps linear indices >= 2m onto
      indices <= m - 2, so its outputs [m, m + w) come out clean.
    * block solve: rows [m, m + w) read (m*I + K) x = pend with
      K = diag(0, ..., w-1) - T(g).  Column j of T(s) is an eigenvector of
      K for eigenvalue j: its entry i > j is s_{i-j}, and (i - j)*s_{i-j}
      = sum of s_{i-j-k} over the members k is row i of K v = j v.  So
      K = T(s) D T(r), and x = T(s) y, y = (T(r) pend) / (m + j).
    * Newton's step for the inverse, at every level but the last:
      r[m:2m] = -(r[:m] e)[:m], e = (a[:2m] r[:m])[m:2m], which is
      (a[:m] r[:m])[m:2m] plus T(r) x = T(r) T(s) y = y.

    Transform sizes are 2d * 2^k, 5-smooth, and the last ends at most
    12.5% past size, where a power-of-two base could waste half of it.

    Its absolute error is about eps times the largest coefficient of a
    block, so a coefficient that is zero or far below its neighbours comes
    out as roundoff.  A negative one proves that, and is refused, as is a
    NaN or infinite one.
    """
    size = n_max + 1
    # the table outlives the call, so it is made before the temporaries;
    # made after them, it sat above them in the heap, and float-sample's
    # peak RSS rose by 2 MB
    a = np.zeros(size)
    levels = ((size - 1) // FAST_PATH_BASE).bit_length()
    d = _smooth_at_least(-(-size >> levels))
    small = members[members < d].tolist()
    a[:min(d, size)] = _build_float_steps(small, None, min(d, size) - 1)
    r = _build_float_steps(small, None, d - 1, -1.0)
    m = d
    while m < size:
        r = _double(a, members, r, m)
        m *= 2

    bad = np.flatnonzero(~(np.isfinite(a) & (a >= 0.0)))
    if bad.size:
        i = int(bad[0])
        raise InternalConsistencyError(
            f"FFT float table has a negative or non-finite coefficient "
            f"a_{i} = {float(a[i])!r}"
        )
    return a


def _build_float(spec: CycleClassSpec, n_max: int) -> np.ndarray:
    if spec.kind == KIND_PRIMES:
        # raises if the prime table is too short for n_max
        return _build_float_fast(spec.members_upto(n_max), n_max)
    return _build_float_steps(spec.steps, spec.period, n_max)


def build_table(spec: CycleClassSpec, n_max: int, mode: str = "exact",
                exact_cap: int = EXACT_CAP_DEFAULT) -> CountTable:
    """Coefficient table a_0..a_{n_max} in the requested mode.

    mode is one of "exact", "float", "both".  The float route follows
    spec.kind, as the module docstring explains: the FFT convolution for
    the primes, the step recurrence for every other spec.  The caps, the
    exact cap and FLOAT_CAP_DEFAULT, are checked before anything is
    allocated.

    A float coefficient in the subnormal range raises OutOfRangeError.  A
    nonzero a_n is at least a_{n-k}/n for some nonzero a_{n-k}, and up to
    FLOAT_CAP_DEFAULT that factor is far inside the 2^52 span of the
    subnormals, so a coefficient on its way to underflow is caught there
    before it could round to a false 0.
    """
    if mode not in ("exact", "float", "both"):
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    n_max = _integer(n_max, "n_max" if exact else "float n_max", 0,
                     None if exact else FLOAT_CAP_DEFAULT, ResourceLimitError)
    p_exact = a_float = None
    if mode in ("exact", "both"):
        # count_exact_upto checks the exact cap before it allocates
        p_exact = tuple(count_exact_upto(spec, n_max, exact_cap=exact_cap))
    if mode in ("float", "both"):
        a_float = _build_float(spec, n_max)
        tiny = np.flatnonzero((a_float > 0.0) & (a_float < np.finfo(float).tiny))
        if tiny.size:
            raise OutOfRangeError(
                f"float coefficient a_{int(tiny[0])} of {spec.describe()} "
                "underflows; use exact mode"
            )
        a_float.flags.writeable = False
    return CountTable(spec=spec, n_max=n_max, p_exact=p_exact, a_float=a_float)


# -- independent oracles ------------------------------------------------------


def count_by_cycle_types_upto(spec: CycleClassSpec, n_max: int) -> list:
    """P_0..P_{n_max} by the exponential formula, one factor of
    f_A = prod_{k in A} exp(x^k/k) at a time.

    The factor for k puts m k-cycles on j points in
    w_m = j!/((j-km)! k^m m!) ways, beside a permutation of the other j-km
    points by the members below k; j runs downward, so P[j-km] has no
    k-cycle yet.  w_m is w_{m-1} times k falling factors over k*m, an exact
    division, so a remainder can only mean a fault here and is raised.
    """
    n_max = _integer(n_max, "partition n_max", 0, PARTITION_CAP,
                     ResourceLimitError)
    P = [1] + [0] * n_max
    for k in spec.members_upto(n_max).tolist():
        for j in range(n_max, k - 1, -1):
            w = 1
            for m in range(1, j // k + 1):
                w, rem = divmod(w * math.perm(j - k * (m - 1), k), k * m)
                if rem:
                    raise InternalConsistencyError(
                        f"{k}-cycles on {j} points: not a multiple of {k * m}")
                P[j] += w * P[j - k * m]
    return P


def count_by_cycle_types(spec: CycleClassSpec, n: int) -> int:
    """Sum of n!/prod(l^m_l * m_l!) over partitions of n with all parts in A."""
    return count_by_cycle_types_upto(spec, n)[n]


@lru_cache(maxsize=None)
def _cycle_type_census(n: int) -> dict:
    """Cycle-type multiplicities over all n! permutations, by full enumeration.

    perms holds each permutation of range(n) once, built by putting k in
    each of the k + 1 places of each permutation of range(k).  A point's
    cycle length is one more than the steps it stays away from home.
    """
    perms = np.zeros((1, 0), np.int8)
    for k in range(n):
        perms = np.concatenate([np.insert(perms, p, k, axis=1)
                                for p in range(k + 1)])
    length = np.ones_like(perms)
    away = np.ones(perms.shape, bool)
    image = perms
    for _ in range(n - 1):
        away &= image != np.arange(n, dtype=np.int8)
        length += away
        image = np.take_along_axis(perms, image, axis=1)
    # digit l-1 of a row's key counts the points on l-cycles, l * m_l,
    # which n <= BRUTE_FORCE_CAP keeps below 10
    keys, mult = np.unique((np.int32(10) ** (length - 1)).sum(axis=1),
                           return_counts=True)
    census = {}
    for key, c in zip(keys.tolist(), mult.tolist()):
        lengths = []
        for l in range(1, n + 1):
            lengths += [l] * (key // 10 ** (l - 1) % 10 // l)
        census[tuple(lengths)] = c
    return census


def count_brute_force(spec: CycleClassSpec, n: int) -> int:
    """Exhaustive count over all permutations of [n]; n is capped at 9."""
    n = _integer(n, "brute force n", 0, BRUTE_FORCE_CAP, ResourceLimitError)
    total = 0
    for lengths, mult in _cycle_type_census(n).items():
        if all(spec.contains(l) for l in lengths):
            total += mult
    return total


# -- partial sums and table output ---------------------------------------------


def _exact_sums(p_exact: tuple):
    """Yield (P_n, n!, num_n) for n = 0, 1, ..., with T_n = num_n / n!
    exactly: num_n = n*num_{n-1} + P_n sums P_k * n!/k! over k <= n."""
    num = 0
    fact = 1
    for n, p in enumerate(p_exact):
        fact *= n or 1
        num = n * num + p
        yield p, fact, num


def partial_sums(table: CountTable, ns) -> list:
    """[T_n for n in ns], T_n = a_0 + ... + a_n, in the caller's order.

    Exact tables give Fractions, read off one ascending pass of _exact_sums
    to max(ns).  Float tables give math.fsum of a_0..a_n for each distinct
    n: the exact sum of the doubles, rounded once, so the same double on
    every IEEE machine.  That costs the sum of the distinct n, not the
    largest n.
    """
    ns = [_integer(n, "n", 0, table.n_max) for n in ns]
    if not ns:
        return []
    if table.p_exact is None:
        a = table.a_float
        found = {n: math.fsum(memoryview(a[:n + 1])) for n in set(ns)}
    else:
        want = set(ns)
        found = {n: Fraction(num, fact) for n, (_, fact, num)
                 in zip(range(max(ns) + 1), _exact_sums(table.p_exact))
                 if n in want}
    return [found[n] for n in ns]


def partial_sum(table: CountTable, n: int):
    """T_n = a_0 + ... + a_n; an exact Fraction when the table has exact
    values, otherwise the exact sum of the doubles rounded once."""
    return partial_sums(table, (n,))[0]


def dump_table(table: CountTable, dest) -> None:
    """CSV dump: columns n, P_n (exact tables only), a_n, T_n.

    a_n and T_n carry 17 significant digits; P_n is full decimal, never
    scientific.  Each T_n is its exact value rounded once, an int / int
    division, so it is the double partial_sum(table, n) gives: num_n / n!
    for an exact table, and for a float one the exact running sum of the
    a_n, an integer in units of 2^-1074, over 2^1074.  dest is a writable
    text file object or a path.
    """
    with (open(dest, "w") if isinstance(dest, (str, bytes, os.PathLike))
          else contextlib.nullcontext(dest)) as out:
        if table.p_exact is not None:
            out.write("n,P_n,a_n,T_n\n")
            for n, (p, fact, num) in enumerate(_exact_sums(table.p_exact)):
                # int / int is correctly rounded, whatever the operands' size
                out.write(f"{n},{big_str(p)},{p / fact:.17g},{num / fact:.17g}\n")
        else:
            out.write("n,a_n,T_n\n")
            total = 0  # the exact sum so far, in units of 2^-1074
            for n, a in enumerate(table.a_float.tolist()):
                num, den = a.as_integer_ratio()  # den: a power of 2, <= 2^1074
                total += num * _SUBNORMAL_UNITS // den
                out.write(f"{n},{a:.17g},{total / _SUBNORMAL_UNITS:.17g}\n")
