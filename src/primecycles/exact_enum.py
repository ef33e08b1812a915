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
  n*B_n = sum_{k in A, k <= n} B_{n-k}, so each term costs |A(n)| big
  additions and one division by n; P_n = B_n / (N!/n!) at the end.
  Every division is checked and a remainder raises.

build_table picks the float route from the spec's kind in the same way:

* steps: the same recurrence on a_n in doubles,
  n*a_n = [n > m] (n-m)*a_{n-m} + sum_{r in S, r <= n} a_{n-r}.  Every
  term is nonnegative, so a structural zero comes out as exactly 0.0, and
  a steeply falling coefficient keeps its relative precision.
* primes: an online convolution of the a_n recurrence, one left-to-right
  loop over leaves of 128 coefficients in the table's own array.  Before
  the leaf starting at mid is solved, the block [mid - h, mid) with
  h = lowbit(mid) adds its share to the pending coefficients
  [mid, mid + h), cut at the table's end: by a middle-product FFT of
  size 2h with the spectra of g, the members' indicator, cached per size,
  or by a product with a block of g's Toeplitz matrix when the span from
  mid - h to the end of the pending range is at most 512.  A leaf is
  solved in closed form: the eigenvectors of its triangular system are
  the shifted columns of the Toeplitz matrix of the series exp(phi),
  phi = sum_{k in A} x^k/k, and the inverse of that matrix is the
  Toeplitz matrix of exp(-phi), so each leaf is two triangular
  matrix-vector products (_build_float_fast derives it).  Its absolute error is about eps times
  a block's largest coefficient, which is harmless only because prime
  coefficients decay slowly and never vanish past n = 1; a negative or
  non-finite coefficient is refused.

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
)

EXACT_CAP_DEFAULT = 2000
FLOAT_CAP_DEFAULT = 10_000_000
PARTITION_CAP = 300
BRUTE_FORCE_CAP = 9
# _build_float_fast's widths: leaves of FAST_PATH_LEAF coefficients are
# solved in closed form by two triangular products; a block's share that
# spans up to FAST_PATH_DIRECT is added by a Toeplitz block, a wider one by
# FFT.  Tuned on the primes at n = 3*10^4 to 2*10^5: leaves of 64 and 256,
# or direct widths of 256 and 1024, were no faster.
FAST_PATH_LEAF = 128
FAST_PATH_DIRECT = 512
# 2^-1074 is the smallest subnormal, so every finite double is a whole
# number of these units, and so is any sum of doubles
_SUBNORMAL_UNITS = 1 << 1074


@dataclass(frozen=True)
class CountTable:
    """Immutable coefficient table for one cycle-length set.

    p_exact[n] is the integer count P_n (so a_n = P_n/n! exactly), a_float
    the double-precision coefficients from the recurrence run in floating
    point; either is None when not built.
    """

    spec: CycleClassSpec
    n_max: int
    p_exact: Optional[list]
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

    With N = n_max, n*B_n = sum of B_{n-k} over members k <= n.  Both
    divisions are exact in exact arithmetic, so a remainder can only mean
    a fault in this code, and it is raised rather than rounded away.
    """
    B = [0] * (n_max + 1)
    B[0] = math.factorial(n_max)
    count = 0
    for n in range(1, n_max + 1):
        while count < len(members) and members[count] <= n:
            count += 1
        total = 0
        for k in members[:count]:
            total += B[n - k]
        B[n], rem = divmod(total, n)
        if rem:
            raise InternalConsistencyError(
                f"scaled count at n={n} is not a multiple of {n}"
            )
    P = [0] * (n_max + 1)
    scale = 1  # N!/n!
    for n in range(n_max, -1, -1):
        P[n], rem = divmod(B[n], scale)
        if rem:
            raise InternalConsistencyError(
                f"scaled count at n={n} is not a multiple of {n_max}!/{n}!"
            )
        scale *= n or 1
    return P


def count_exact_upto(spec: CycleClassSpec, n_max: int,
                     exact_cap: int = EXACT_CAP_DEFAULT) -> list:
    """P_0..P_{n_max} as exact integers, by the route that suits spec.kind.

    The primes take the scaled-integer recurrence; every other spec takes
    the step recurrence on its steps and period.
    """
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    if n_max > exact_cap:
        raise ResourceLimitError(
            f"exact enumeration capped at n <= {exact_cap}, got {n_max}"
        )
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
    series _build_float_fast's leaves need.
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


def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    """The d x d lower triangular Toeplitz matrix of c[:d]: M[i, j] = c[i - j]
    for i >= j, else 0.  Row i is a sliding window over [0]*(d-1) + c,
    read backwards."""
    d = c.size
    padded = np.concatenate((np.zeros(d - 1), c))
    windows = np.lib.stride_tricks.sliding_window_view(padded, d)
    return np.ascontiguousarray(windows[:, ::-1])


def _solve_leaf(t_s: np.ndarray, t_r: np.ndarray, pend: np.ndarray,
                lo: int) -> np.ndarray:
    """a[lo:lo + w] from its pending sums, lo > 0, as T(s) ((T(r) pend) /
    (lo + j)); _build_float_fast derives it."""
    w = pend.size
    y = t_r[:w, :w] @ pend
    y /= np.arange(lo, lo + w)
    return t_s[:w, :w] @ y


def _build_float_fast(members: np.ndarray, n_max: int) -> np.ndarray:
    """Online convolution of n*a_n = sum of a_{n-k}, one step per leaf;
    matches the baseline to ~2e-15 for the primes.

    It walks the leaves [128j, min(128j + 128, size)), size = n_max + 1,
    left to right (128 is FAST_PATH_LEAF).  They are the leaves of a
    divide-and-conquer tree whose node of width w > 128 splits at h, the
    largest power of two below w, so every node's lo is a multiple of 2h.
    Hence when the leaf ending at mid is final, exactly one node has just
    finished its left half [lo, mid): the one with h = lowbit(mid),
    lo = mid - h and hi = min(mid + h, size).  Its left half's share of
    the right half, outputs [h, w) of the convolution of a[lo:mid] with
    g[:w], w = hi - lo, is added to ``a[mid:hi]``, which holds the pending
    sums of the coefficients not yet solved.  Nodes finish in the order
    of their mid, so each coefficient gets its shares in the same order,
    and from the same operations, as in a recursive walk of the tree.

    * w <= FAST_PATH_DIRECT: a matrix-vector product with a block of the
      strictly lower Toeplitz matrix of g, built once per call.
    * larger w: a middle product of a[lo:mid] with all of g[:2h], by a
      cyclic transform of size 2h >= w, about half the usual
      next_pow2(h + w - 1).  Output j in [h, w) gets g[k] only for
      k = j - i <= j < w, as it should; terms with k >= w land at w or
      above, and linear indices >= 2h wrap onto indices <= h - 2, so
      outputs [h, w) come out clean.  The spectrum of g is cached per
      size, so g is transformed once for each power of two.
    * the next leaf [lo, lo + w) solves (lo*I + K) x = a[lo:lo + w] with
      K = diag(0, 1, ..., w-1) - T(g), T(c) the lower Toeplitz matrix of c.
      Let s be the series exp(phi), whose coefficients are a_0, a_1, ...
      Column j of T(s) is an eigenvector of K for eigenvalue j: its entry
      m > j is s_{m-j}, and (m - j)*s_{m-j} = sum of s_{m-j-k} over the
      members k is exactly row m of K v = j v.  So K = T(s) D T(s)^-1, and
      T(s)^-1 = T(r) with r the series exp(-phi).  Each leaf is then two
      triangular products, x = T(s) ((T(r) pending) / (lo + j)), in closed
      form; the first leaf, with nothing pending, is s itself.  s and r
      come from the step recurrence, once per call.

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
    g = np.zeros(size)
    g[members[members <= n_max]] = 1.0
    toeplitz = _lower_toeplitz(g[:min(FAST_PATH_DIRECT, size)])
    d = min(FAST_PATH_LEAF, size)
    small = members[members < d].tolist()
    s = _build_float_steps(small, None, d - 1)
    t_s = _lower_toeplitz(s)
    t_r = _lower_toeplitz(_build_float_steps(small, None, d - 1, -1.0))
    spectra = {}

    a[:d] = s
    for mid in range(FAST_PATH_LEAF, size, FAST_PATH_LEAF):
        h = mid & -mid
        lo, hi = mid - h, min(mid + h, size)
        w = hi - lo
        if w <= FAST_PATH_DIRECT:
            a[mid:hi] += toeplitz[h:w, :h] @ a[lo:mid]
        else:
            g_hat = spectra.get(h)
            if g_hat is None:
                g_hat = spectra[h] = np.fft.rfft(g[:2 * h], 2 * h)
            conv = np.fft.irfft(np.fft.rfft(a[lo:mid], 2 * h) * g_hat, 2 * h)
            a[mid:hi] += conv[h:w]
        end = min(mid + FAST_PATH_LEAF, size)
        a[mid:end] = _solve_leaf(t_s, t_r, a[mid:end], mid)

    bad = np.flatnonzero(~(np.isfinite(a) & (a >= 0.0)))
    if bad.size:
        i = int(bad[0])
        raise InternalConsistencyError(
            f"FFT float table has a negative or non-finite coefficient "
            f"a_{i} = {float(a[i])!r}"
        )
    return a


def _build_float(spec: CycleClassSpec, members: np.ndarray,
                 n_max: int) -> np.ndarray:
    if spec.kind == KIND_PRIMES:
        return _build_float_fast(members, n_max)
    return _build_float_steps(spec.steps, spec.period, n_max)


def build_table(spec: CycleClassSpec, n_max: int, mode: str = "exact",
                exact_cap: int = EXACT_CAP_DEFAULT,
                float_cap: int = FLOAT_CAP_DEFAULT) -> CountTable:
    """Coefficient table a_0..a_{n_max} in the requested mode.

    mode is one of "exact", "float", "both".  The float route follows
    spec.kind, as the module docstring explains: the FFT convolution for
    the primes, the step recurrence for every other spec.

    A float coefficient in the subnormal range raises OutOfRangeError.  A
    nonzero a_n is at least a_{n-k}/n for some nonzero a_{n-k}, and up to
    the float cap that factor is far inside the 2^52 span of the
    subnormals, so a coefficient on its way to underflow is caught there
    before it could round to a false 0.
    """
    if mode not in ("exact", "float", "both"):
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    members = spec.members_upto(n_max)  # raises if support too small
    p_exact = a_float = None
    if mode in ("exact", "both"):
        p_exact = count_exact_upto(spec, n_max, exact_cap=exact_cap)
    if mode in ("float", "both"):
        if n_max > float_cap:
            raise ResourceLimitError(
                f"float enumeration capped at n <= {float_cap}, got {n_max}"
            )
        a_float = _build_float(spec, members, n_max)
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
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    if n_max > PARTITION_CAP:
        raise ResourceLimitError(
            f"partition enumeration capped at n <= {PARTITION_CAP}, got {n_max}"
        )
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
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    if n > BRUTE_FORCE_CAP:
        raise ResourceLimitError(
            f"brute force capped at n <= {BRUTE_FORCE_CAP}, got {n}"
        )
    total = 0
    for lengths, mult in _cycle_type_census(n).items():
        if all(spec.contains(l) for l in lengths):
            total += mult
    return total


# -- partial sums and table output ---------------------------------------------


def _exact_sums(p_exact: list):
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
    ns = list(ns)
    for n in ns:
        if n < 0:
            raise InvalidArgumentError(f"n must be >= 0, got {n}")
        if n > table.n_max:
            raise OutOfRangeError(f"n={n} beyond table n_max={table.n_max}")
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
    close = isinstance(dest, (str, bytes, os.PathLike))
    if close:
        dest = open(dest, "w")
    try:
        if table.p_exact is not None:
            dest.write("n,P_n,a_n,T_n\n")
            for n, (p, fact, num) in enumerate(_exact_sums(table.p_exact)):
                # int / int is correctly rounded, whatever the operands' size
                dest.write(f"{n},{big_str(p)},{p / fact:.17g},{num / fact:.17g}\n")
        else:
            dest.write("n,a_n,T_n\n")
            total = 0  # the exact sum so far, in units of 2^-1074
            for n, a in enumerate(table.a_float.tolist()):
                num, den = a.as_integer_ratio()  # den: a power of 2, <= 2^1074
                total += num * _SUBNORMAL_UNITS // den
                dest.write(f"{n},{a:.17g},{total / _SUBNORMAL_UNITS:.17g}\n")
    finally:
        if close:
            dest.close()
