"""Exact and floating-point enumeration of cycle-constrained permutations.

P_n counts permutations of [n] whose every cycle length lies in a fixed set
A, and a_n = P_n/n! is the probability a uniform permutation qualifies.  The
coefficients satisfy n*a_n = sum over k in A, k <= n of a_{n-k}.

count_exact_upto picks one of two exact routes from the spec's kind:

* periodic (residue classes mod m, and all lengths as m = 1): with the
  residues R' taken in [1, m] (0 stands for m),

      P_n = sum_{r in R', r <= n} (n-1)...(n-r+1) * P_{n-r}
            + [n > m] (n-1)(n-2)...(n-m) * P_{n-m},

  which follows from (1 - x^m) f' = N(x) f for f = exp(sum_{k in A} x^k/k).
  Each term costs O(m) small-by-big multiplies.
* scaled integers (primes and explicit sets): with N = n_max and
  B_n = P_n * N!/n!, n*B_n = sum_{k in A, k <= n} B_{n-k}, so each term
  costs |A(n)| big additions and one division by n; P_n = B_n / (N!/n!)
  at the end.  Every division is checked and a remainder raises.

build_table picks the float route from the spec's kind in the same way:

* periodic: the same order-m recurrence on a_n in doubles,
  n*a_n = (n-m)*a_{n-m} + sum_{r in R', r <= n} a_{n-r}.  Every term is
  nonnegative, so a structural zero comes out as exactly 0.0.
* primes: a divide-and-conquer online convolution of the a_n recurrence.
  Each node adds its finished left half's share to the right half: by a
  middle-product FFT of size next_pow2(width) with the spectra of g
  cached per width, by a product with a block of g's Toeplitz matrix for
  widths up to 512, and leaves of 32 finish the recurrence on Python
  floats.  Its absolute error is about eps times a block's largest
  coefficient, which is harmless only because prime coefficients decay
  slowly and never vanish past n = 1; a negative coefficient is refused.
* explicit sets: the a_n recurrence by direct summation, whose values may
  fall to any size; the FFT would bury them in roundoff.

A float table whose coefficients reach the subnormal range is refused
rather than rounded to a false zero.  Two independent oracles
check the exact routes: a partition-type sum n!/prod(l^m_l * m_l!) and a
full enumeration of S_n for tiny n.  They share no code with the routes or
with each other.  The general recurrence P_n = sum_{k in A, k <= n}
(n-1)...(n-k+1) * P_{n-k}, at |A(n)| big multiplies per term, lives only in
the tests, as a third cross-check.
"""

import array
import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Optional

import numpy as np

from primecycles.cycle_classes import (
    KIND_ALL,
    KIND_PRIMES,
    KIND_RESIDUES,
    CycleClassSpec,
)
from primecycles.errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    OutOfRangeError,
    ResourceLimitError,
)

EXACT_CAP_DEFAULT = 2000
FLOAT_CAP_DEFAULT = 10_000_000
PARTITION_CAP = 80
BRUTE_FORCE_CAP = 9
FAST_PATH_LEAF = 32
FAST_PATH_DIRECT = 512


@dataclass(frozen=True)
class CountTable:
    """Immutable coefficient table for one cycle-length set.

    p_exact[n] is the integer count P_n (so a_n = P_n/n! exactly), a_float
    the double-precision coefficients from the recurrence run in floating
    point.  mode records which are present.
    """

    spec: CycleClassSpec
    n_max: int
    mode: str
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


def int_log(x: int) -> float:
    """Natural log of a positive integer too large for float conversion."""
    if x <= 0:
        raise InvalidArgumentError(f"int_log needs a positive integer, got {x}")
    bits = x.bit_length()
    if bits <= 900:
        return math.log(x)
    shift = bits - 64
    return math.log(x >> shift) + shift * math.log(2.0)


# -- recurrence routes --------------------------------------------------------


def _count_periodic(modulus: int, residues, n_max: int) -> list:
    """P_0..P_{n_max} for A = {k >= 1 : k mod m in R}, by the order-m recurrence.

    Residue 0 stands for m itself, so the steps r lie in [1, m].  Each term
    takes O(m) small-by-big multiplies.
    """
    steps = sorted(r if r else modulus for r in residues)
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
        if n > modulus:
            while j <= modulus:
                ff *= n - j
                j += 1
            total += ff * P[n - modulus]
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

    Residue classes and all lengths take the order-m periodic recurrence;
    primes and finite sets take the scaled-integer recurrence.
    """
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    if n_max > exact_cap:
        raise ResourceLimitError(
            f"exact enumeration capped at n <= {exact_cap}, got {n_max}"
        )
    if spec.kind == KIND_ALL:
        return _count_periodic(1, (0,), n_max)
    if spec.kind == KIND_RESIDUES:
        return _count_periodic(spec.modulus, spec.residues, n_max)
    members = [int(k) for k in spec.members_upto(n_max)]
    return _count_scaled(members, n_max)


def count_exact(spec: CycleClassSpec, n: int,
                exact_cap: int = EXACT_CAP_DEFAULT) -> int:
    """|S_{n,A}| as an exact big integer."""
    return count_exact_upto(spec, n, exact_cap=exact_cap)[n]


def _build_float_periodic(modulus: int, residues, n_max: int) -> np.ndarray:
    """a_0..a_{n_max} for A = {k >= 1 : k mod m in R}, by the order-m recurrence.

    The float form of _count_periodic: n*a_n = (n-m)*a_{n-m} plus a_{n-r}
    for each step r <= n, residue 0 standing for m.  A flat array of
    doubles rather than a list keeps the table at 8 bytes per coefficient.
    """
    steps = sorted(r if r else modulus for r in residues)
    a = array.array("d", bytes(8 * (n_max + 1)))
    a[0] = 1.0
    for n in range(1, n_max + 1):
        total = 0.0
        for r in steps:
            if r > n:
                break
            total += a[n - r]
        if n > modulus:
            total += (n - modulus) * a[n - modulus]
        a[n] = total / n
    return np.frombuffer(a, dtype=np.float64)


def _build_float_baseline(members: np.ndarray, n_max: int) -> np.ndarray:
    a = np.zeros(n_max + 1)
    a[0] = 1.0
    ptr = 0
    for n in range(1, n_max + 1):
        while ptr < members.size and members[ptr] <= n:
            ptr += 1
        if ptr:
            a[n] = a[n - members[:ptr]].sum() / n
    return a


def _build_float_fast(members: np.ndarray, n_max: int) -> np.ndarray:
    """Divide-and-conquer online convolution; matches the baseline to ~1e-15
    for the primes.

    The range [0, n_max] is halved down to leaves of at most FAST_PATH_LEAF
    coefficients, walked left to right on an explicit stack.  Once a
    node's left half [lo, mid) is final, its contribution to the right
    half is added to ``pending[mid:hi]``: with h = mid - lo and w = hi - lo
    that is outputs [h, w) of the convolution of a[lo:mid] with g[:w].

    * w <= FAST_PATH_DIRECT: a matrix-vector product with a block of the
      strictly lower Toeplitz matrix of g, built once per call.
    * larger w: a middle product.  A cyclic transform of size
      next_pow2(w) >= w wraps only linear indices >= size, onto indices
      <= h + w - 2 - size < h, so outputs [h, w) come out clean at about
      half the usual size next_pow2(h + w - 1).  The spectrum of g[:w] is
      cached per w, since the size follows from w and each level has at
      most two widths.
    * a leaf finishes each coefficient from its pending sum and the
      members below the leaf width, on Python floats.

    Its absolute error is about eps times the largest coefficient of a
    block, so a coefficient that is zero or far below its neighbours comes
    out as roundoff.  A negative one proves that, and is refused.
    """
    g = np.zeros(n_max + 1)
    g[members[members <= n_max]] = 1.0
    a = np.zeros(n_max + 1)
    a[0] = 1.0
    pending = np.zeros(n_max + 1)
    small = members[members < FAST_PATH_LEAF].tolist()
    # toeplitz[i, j] = g[i - j] for i > j, else 0: row i of the sliding
    # windows over [0]*(d-1) + g[:d], read backwards
    d = min(FAST_PATH_DIRECT, n_max + 1)
    padded = np.concatenate((np.zeros(d - 1), g[:d]))
    windows = np.lib.stride_tricks.sliding_window_view(padded, d)
    toeplitz = np.ascontiguousarray(windows[:, ::-1])
    spectra = {}

    stack = [(0, n_max + 1, False)]
    while stack:
        lo, hi, left_done = stack.pop()
        w = hi - lo
        if w <= FAST_PATH_LEAF:
            blk = a[lo:hi].tolist()
            pend = pending[lo:hi].tolist()
            for i in range(1 if lo == 0 else 0, w):
                s = pend[i]
                for k in small:
                    if k > i:
                        break
                    s += blk[i - k]
                blk[i] = s / (lo + i)
            a[lo:hi] = blk
            continue
        mid = (lo + hi) // 2
        if not left_done:
            stack.append((lo, hi, True))
            stack.append((lo, mid, False))
            continue
        h = mid - lo
        if w <= FAST_PATH_DIRECT:
            pending[mid:hi] += toeplitz[h:w, :h] @ a[lo:mid]
        else:
            size = 1 << (w - 1).bit_length()
            g_hat = spectra.get(w)
            if g_hat is None:
                g_hat = spectra[w] = np.fft.rfft(g[:w], size)
            conv = np.fft.irfft(np.fft.rfft(a[lo:mid], size) * g_hat, size)
            pending[mid:hi] += conv[h:w]
        stack.append((mid, hi, False))

    negative = np.flatnonzero(a < 0.0)
    if negative.size:
        n = int(negative[0])
        raise InternalConsistencyError(
            f"FFT float table has a negative coefficient a_{n} = {float(a[n])!r}"
        )
    return a


def _build_float(spec: CycleClassSpec, members: np.ndarray,
                 n_max: int) -> np.ndarray:
    if spec.kind == KIND_ALL:
        return _build_float_periodic(1, (0,), n_max)
    if spec.kind == KIND_RESIDUES:
        return _build_float_periodic(spec.modulus, spec.residues, n_max)
    if spec.kind == KIND_PRIMES:
        return _build_float_fast(members, n_max)
    return _build_float_baseline(members, n_max)


def build_table(spec: CycleClassSpec, n_max: int, mode: str = "exact",
                exact_cap: int = EXACT_CAP_DEFAULT,
                float_cap: int = FLOAT_CAP_DEFAULT) -> CountTable:
    """Coefficient table a_0..a_{n_max} in the requested mode.

    mode is one of "exact", "float", "both".  The float route follows
    spec.kind, as the module docstring explains: the order-m recurrence for
    residue classes and all lengths, the FFT convolution for the primes,
    direct summation for explicit sets.

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
    return CountTable(spec=spec, n_max=n_max, mode=mode,
                      p_exact=p_exact, a_float=a_float)


# -- independent oracles ------------------------------------------------------


def count_by_cycle_types(spec: CycleClassSpec, n: int) -> int:
    """Sum of n!/prod(l^m_l * m_l!) over partitions of n with all parts in A."""
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    if n > PARTITION_CAP:
        raise ResourceLimitError(
            f"partition enumeration capped at n <= {PARTITION_CAP}, got {n}"
        )
    parts = [int(k) for k in spec.members_upto(n)[::-1]]  # descending
    nf = math.factorial(n)
    total = 0

    def rec(rem, i, denom):
        nonlocal total
        if rem == 0:
            total += nf // denom
            return
        for j in range(i, len(parts)):
            l = parts[j]
            if l > rem:
                continue
            d = denom
            r = rem
            fm = 1
            m = 0
            while r >= l:
                m += 1
                fm *= m
                r -= l
                d *= l
                rec(r, j + 1, d * fm)

    rec(n, 0, 1)
    return total


@lru_cache(maxsize=None)
def _cycle_type_census(n: int) -> dict:
    """Cycle-type multiplicities over all n! permutations, by full enumeration."""
    census = {}
    for perm in permutations(range(n)):
        seen = [False] * n
        lengths = []
        for i in range(n):
            if seen[i]:
                continue
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            lengths.append(ln)
        lengths.sort()
        key = tuple(lengths)
        census[key] = census.get(key, 0) + 1
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


def kahan_running_sums(values):
    """Yield the compensated (Kahan) running sums of values, in order."""
    total = 0.0
    comp = 0.0
    for x in values:
        y = x - comp
        s = total + y
        comp = (s - total) - y
        total = s
        yield total


def kahan_sum(values) -> float:
    total = 0.0
    for total in kahan_running_sums(values):
        pass
    return total


def partial_sum(table: CountTable, n: int):
    """T_n = a_0 + ... + a_n; exact Fraction when the table has exact values,
    otherwise a double via ascending Kahan summation."""
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    if n > table.n_max:
        raise OutOfRangeError(f"n={n} beyond table n_max={table.n_max}")
    if table.p_exact is not None:
        # sum P_k * n!/k! over k, then divide once by n!
        num = 0
        mult = 1
        for k in range(n, -1, -1):
            num += table.p_exact[k] * mult
            mult *= k if k else 1
        return Fraction(num, math.factorial(n))
    return kahan_sum(table.a_float[: n + 1].tolist())


def dump_table(table: CountTable, dest) -> None:
    """CSV dump: columns n, P_n (exact tables only), a_n, T_n.

    a_n and T_n carry 17 significant digits; P_n is full decimal, never
    scientific.  dest is a writable text file object or a path.
    """
    close = False
    if isinstance(dest, (str, bytes)):
        dest = open(dest, "w")
        close = True
    try:
        exact = table.p_exact is not None
        if exact:
            dest.write("n,P_n,a_n,T_n\n")
            # int / int is correctly rounded, whatever the operands' size
            a_vals = []
            fact = 1
            for n, p in enumerate(table.p_exact):
                fact *= n or 1
                a_vals.append(p / fact)
        else:
            dest.write("n,a_n,T_n\n")
            a_vals = table.a_float.tolist()
        for n, (a, total) in enumerate(zip(a_vals, kahan_running_sums(a_vals))):
            if exact:
                dest.write(f"{n},{big_str(table.p_exact[n])},{a:.17g},{total:.17g}\n")
            else:
                dest.write(f"{n},{a:.17g},{total:.17g}\n")
    finally:
        if close:
            dest.close()
