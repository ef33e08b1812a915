"""Constants and analytic evaluators behind the asymptotic models.

Covers the Euler and Mertens constants (the latter by two independent
routes), the Riemann and prime zeta functions, the prime harmonic series
phi(z) = sum_p z^p/p with its first three derivatives, the three-way split
of phi(e^-t) used for small-t estimates, phi(e^-t) by a Mellin-Barnes
integral over the prime zeta function (phi_mellin), which reads no primes
and so checks the split, and the closed-form models the verification
harness compares against exact enumeration.

Everything here is a pure function of its arguments; prime sums stream
through iter_prime_blocks so no call materializes a large table, and their
accumulators, MertensSum, SeriesSum and PhiSplitSums, can share one
stream through feed_primes.  phi_mellin keeps its nodes' values, about
40 KB, after the first call.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from primecycles.cycle_classes import KIND_PRIMES, CycleClassSpec
from primecycles.errors import (
    InvalidArgumentError,
    OutOfDomainError,
    UnsupportedSpecError,
    _integer,
)
from primecycles.primes import feed_primes, iter_prime_blocks

# Euler-Mascheroni constant, 25 digits; treated as a known input, not computed
EULER_GAMMA = 0.5772156649015328606065121

# phi and its derivatives are evaluated only on [0, 1 - Z_CAP_GAP]
Z_CAP_GAP = 1e-9

# upper end of the phi_split domain: ln ln(1/t) must exceed 1
T_DOMAIN_CAP = math.exp(-math.e)
# lower end of the phi_split domain: the least t with e^-t <= 1 - Z_CAP_GAP
T_DOMAIN_FLOOR = -math.log1p(-Z_CAP_GAP)

_ZETA_TERMS = 100


# -- zeta and prime zeta --------------------------------------------------------


def zeta_minus_1(s: float) -> float:
    """zeta(s) - 1 without cancellation, for s >= 1.5.

    Direct summation to N plus Euler-Maclaurin corrections; the first
    omitted term is ~ s^5 N^{-s-5}/30240, below 1e-15 relative at s = 1.5.
    """
    if s < 1.5:
        raise OutOfDomainError(f"zeta requires s >= 1.5, got {s}")
    N = float(_ZETA_TERMS)
    total = 0.0
    for n in range(_ZETA_TERMS - 1, 1, -1):
        total += float(n) ** (-s)
    total += N ** (1.0 - s) / (s - 1.0)
    total += 0.5 * N ** (-s)
    total += s / 12.0 * N ** (-s - 1.0)
    total -= s * (s + 1.0) * (s + 2.0) / 720.0 * N ** (-s - 3.0)
    return total


def zeta(s: float) -> float:
    """Riemann zeta for s >= 1.5, to 1e-14 relative."""
    return 1.0 + zeta_minus_1(s)


def _mobius(j: int) -> int:
    m = 1
    d = 2
    while d * d <= j:
        if j % d == 0:
            j //= d
            if j % d == 0:
                return 0
            m = -m
        d += 1
    if j > 1:
        m = -m
    return m


def _log_zeta(s: float) -> float:
    """ln zeta(s), for s >= 1.5."""
    return math.log1p(zeta_minus_1(s))


def _prime_zeta(s: float, log_zeta=_log_zeta) -> float:
    total = 0.0
    j = 1
    while j * s <= 64.0:
        mu = _mobius(j)
        if mu:
            total += mu / j * log_zeta(j * s)
        j += 1
    return total


def prime_zeta(s: float) -> float:
    """P(s) = sum over primes of p^-s, via sum_j mu(j)/j * ln zeta(js).

    Valid for s >= 2; absolute error well under 1e-13 (terms below j*s ~ 60
    are kept, the rest are under 1e-18).
    """
    if s < 2.0:
        raise OutOfDomainError(f"prime_zeta requires s >= 2, got {s}")
    return _prime_zeta(s)


# -- the Mertens constant by two routes ------------------------------------------


class MertensSum:
    """Prime-stream accumulator for mertens_direct(limit): (estimate,
    tail_bound), gamma + sum_{p<=limit} (ln(1-1/p) + 1/p).  limit is
    checked on construction, so before any prime is streamed.

    Each summand is -1/(2p^2) + O(1/p^3), so the absolute tail is below
    sum_{p>limit} 1/p^2 <= 1/(limit-1), which is the returned bound.

    Unlike _series, it adds numpy's pairwise block sums in doubles rather
    than rounding the exact sum once: an exact sum costs about 15 ns a
    term against about 1 ns, and the summands share one sign, so the
    rounding error, below 10^-13 of the sum, is far below the tail bound.
    """

    def __init__(self, limit: int):
        self.limit = _integer(limit, "limit", 2)
        self._total = 0.0

    def add(self, block) -> bool:
        inv = 1.0 / block.astype(np.float64)
        self._total += float(np.sum(np.log1p(-inv) + inv))
        return False

    def result(self):
        return EULER_GAMMA + self._total, 1.0 / (self.limit - 1)


def mertens_direct(limit: int):
    """The one-accumulator case of MertensSum: the primes stream through
    iter_prime_blocks to limit, one sum per block, so no table is built
    and working memory is one segment whatever the limit."""
    acc = MertensSum(limit)
    return feed_primes(iter_prime_blocks(acc.limit), acc)[0]


def mertens_zeta(k_max: int) -> float:
    """The same constant as gamma - sum_{k>=2} P(k)/k, truncated at k_max.

    Tail below 2 * 2^-k_max; k_max = 60 reaches full double precision.
    Each P(k) is prime_zeta's sum, in its order, but ln zeta(m) is taken
    once for each of the 62 integers m = jk <= 64 the sums read, not once
    per read (168 times at k_max = 60).
    """
    k_max = _integer(k_max, "k_max", 10)
    log_zeta = functools.cache(_log_zeta)
    acc = 0.0
    for k in range(k_max, 1, -1):
        acc += _prime_zeta(float(k), log_zeta) / k
    return EULER_GAMMA - acc


@dataclass(frozen=True)
class Constants:
    """The constants every model needs, with the Mertens route recorded."""

    euler_gamma: float
    mertens_c: float
    e_to_c: float
    method: str
    tail_bound: float

    @property
    def provenance(self) -> str:
        return f"{self.method}; tail bound {self.tail_bound:.3e}"


def make_constants(method: str = "zeta", k_max: int = 60,
                   limit: Optional[int] = None) -> Constants:
    """Build the shared constants; method "zeta" (default) or "direct".

    "zeta" sums the prime-zeta series to k_max; "direct" streams the prime
    sum of mertens_direct to limit.
    """
    if method == "zeta":
        c = mertens_zeta(k_max)
        desc = f"prime-zeta series, k_max={k_max}"
        tail = 2.0 * 2.0 ** (-k_max)
    elif method == "direct":
        if limit is None:
            raise InvalidArgumentError("method 'direct' needs a summation limit")
        c, tail = mertens_direct(limit)
        desc = f"direct prime sum to {limit}"
    else:
        raise InvalidArgumentError(f"unknown method {method!r}")
    return Constants(euler_gamma=EULER_GAMMA, mertens_c=c,
                     e_to_c=math.exp(c), method=desc, tail_bound=tail)


# -- phi, f, and derivatives -----------------------------------------------------


def _check_z(z: float) -> None:
    if not (0.0 <= z <= 1.0 - Z_CAP_GAP):
        raise OutOfDomainError(
            f"z must lie in [0, 1 - {Z_CAP_GAP:g}], got {z}; the cap keeps "
            "the prime truncation limit bounded"
        )


# every series sums at least its members up to here, so small z keeps its sums
_SERIES_FLOOR = 100
# the primes every series over them sums, because its limit is >= the floor
_PRIME_HEAD = tuple(next(iter_prime_blocks(_SERIES_FLOOR)).tolist())
# ln of the truncation budget, relative to a lower bound of the whole sum
_LOG_BUDGET = -53.0 * math.log(2.0)
# Rosser & Schoenfeld (1962), (3.5) and (3.6): x/ln x < pi(x) for x >= 17,
# and pi(x) < _PI_UPPER x/ln x for x > 1
_PI_LOWER_FROM = 17.0
_PI_UPPER = 1.25506
# Rosser & Schoenfeld (1962), Theorem 1: x/ln x (1 + 1/(2 ln x)) < pi(x)
# for x >= 59, and pi(x) < x/ln x (1 + 3/(2 ln x)) for x > 1
_PI_TIGHT_FROM = 59


def _log_term(k: float, lnz: float, order: int) -> float:
    """ln of the k-th term of the order-th derivative of sum_k z^k/k at a
    real k > order - 1: k ln z - ln k for order 0, and
    ln((k-1)...(k-order+1)) + (k-order) ln z above."""
    if order == 0:
        return k * lnz - math.log(k)
    return sum(math.log(k - j) for j in range(1, order)) + (k - order) * lnz


def _log_term_slope(k: float, lnz: float, order: int) -> float:
    """d/dk of _log_term(k, lnz, order); above order 0 it falls as k grows,
    and at order 0 it is below ln z < 0 everywhere."""
    if order == 0:
        return lnz - 1.0 / k
    return lnz + sum(1.0 / (k - j) for j in range(1, order))


def _series_head(spec: Optional[CycleClassSpec]) -> tuple:
    """Members that every limit of the series over spec sums: those up to
    _SERIES_FLOOR, or the smallest member, the first step, if none is that
    small.  The empty set has none, so its series has no limit to find,
    and it is refused."""
    if spec is None or spec.kind == KIND_PRIMES:
        return _PRIME_HEAD
    if not spec.steps:
        raise InvalidArgumentError("the series over an empty set has no terms")
    return tuple(spec.members_upto(max(_SERIES_FLOOR, spec.steps[0])).tolist())


def _series_limit(z: float, order: int = 0,
                  spec: Optional[CycleClassSpec] = None) -> int:
    """Smallest L >= _SERIES_FLOOR at which the series of the order-th
    derivative of sum_{k in A} z^k/k, A the members of spec (the primes by
    default), drops a tail of at most 2^-53 times the whole sum, as proven
    by the bounds below; then the tail is under one ulp of the sum.

    Write T(k) for the k-th term (z^k/k, or (k-1)...(k-order+1) z^(k-order)),
    a smooth function of a real k > order - 1.

    - The tail over A is at most the tail over all integers k > L.  There
      T(k+1)/T(k) = z k/(k - order + 1), which is below z for order 0, z
      for order 1, and falls as k grows above.  So for k > L it is at most
      rho = z max(1, (L+1)/(L+2-order)), and where rho < 1 the tail is at
      most the geometric sum T(L+1)/(1 - rho); for order 0 that is
      z^(L+1)/((L+1)(1-z)).
    - Over the primes the tail is also bounded through pi(x).  Rosser &
      Schoenfeld, "Approximate formulas for some functions of prime
      numbers" (Illinois J. Math. 6, 1962), Theorem 1, give V(x) < pi(x)
      for x >= 59 and pi(x) < U(x) for x > 1, with V(x) = x/ln x (1 +
      1/(2 ln x)) and U(x) = x/ln x (1 + 3/(2 ln x)).  Let L >= 59 and T
      decrease on [L, inf), which holds where d ln T/dk <= 0 at L, since
      that slope falls in k (_log_term_slope).  By partial summation, then
      by pi <= U and -T' >= 0, and by parts again,

          sum_{p>L} T(p) = -T(L) pi(L) + int_L^inf pi(x) (-T'(x)) dx
                         <= -T(L) V(L) + T(L) U(L) + int_L^inf U'(x) T(x) dx.

      U(L) - V(L) = L/ln^2 L.  U'(x) = 1/ln x + 1/(2 ln^2 x) - 3/ln^3 x
      falls for x >= 13, so it is at most 1/ln L + 1/(2 ln^2 L) on [L, inf).
      T decreases, so int_L^inf T <= sum_{k>=L} T(k) <= T(L) (1 + 1/(1 -
      rho)), rho as above.  Together, the tail is at most

          T(L) [L/ln^2 L + (1/ln L + 1/(2 ln^2 L)) (1 + 1/(1 - rho))],

      about ln L times below the integer bound, and L is accepted where
      either bound is within the budget.
    - The whole sum is at least its head, the members L always sums
      (_series_head): for the primes, sum_{p<=100} T(p).  For the primes it
      is also at least a count of the primes in (M, 2M], M = 1/(1-z), times
      the least T(k) there.  By Rosser & Schoenfeld (1962), (3.5) and
      (3.6), that count exceeds 2M/ln(2M) - 1.25506 M/ln M for 2M >= 17.
      ln T is concave in k, so the least T(k) on [M, 2M] is at an end; L
      is kept >= 2M so that those primes are summed.  The head alone
      bounds phi's sum well, but not the derivatives', whose terms grow
      towards k ~ order/(1-z).

    Both tail bounds decrease in L where rho < 1 and L is past the terms'
    peak, so L is the least integer at which the smaller one meets the
    budget, found by doubling from the floor and bisecting.  Over the
    primes L lies near u/(1-z), z = e^-t, with u = 31.8 to 30.5 for order
    0 as t runs from 1e-3 to 1e-8 (30.8 at t = 3e-7), and about 40, 43 and
    47 for orders 1-3; the first bound alone gave u = 32.7 for order 0 and
    about 42, 45 and 49 above.
    The bounds are evaluated in floating point, which moves the budget by
    a few ulps of itself, not its order.
    """
    lnz = math.log(z)
    head = _series_head(spec)
    over_primes = spec is None or spec.kind == KIND_PRIMES
    floor = max(_SERIES_FLOOR, head[-1])
    logs = [_log_term(k, lnz, order) for k in head if k > order - 1]
    top = max(logs)
    log_lower = top + math.log(math.fsum(math.exp(x - top) for x in logs))
    gap = 1.0 - z
    big_m = 1.0 / gap
    if over_primes and 2.0 * big_m >= _PI_LOWER_FROM:
        count = (2.0 * big_m / math.log(2.0 * big_m)
                 - _PI_UPPER * big_m / math.log(big_m))
        if count > 0.0:
            least = min(_log_term(big_m, lnz, order),
                        _log_term(2.0 * big_m, lnz, order))
            log_lower = max(log_lower, math.log(count) + least)
            floor = max(floor, math.ceil(2.0 * big_m))
    budget = log_lower + _LOG_BUDGET

    def within(L: int) -> bool:
        # 1 - rho, written without cancelling
        margin = min(gap, ((L + 1) * gap + (1 - order)) / (L + 2 - order))
        if margin <= 0.0:
            return False
        if _log_term(L + 1.0, lnz, order) - math.log(margin) <= budget:
            return True
        if not (over_primes and L >= _PI_TIGHT_FROM
                and _log_term_slope(L, lnz, order) <= 0.0):
            return False
        lnl = math.log(L)
        factor = (L / lnl ** 2
                  + (1.0 / lnl + 0.5 / lnl ** 2) * (1.0 + 1.0 / margin))
        return _log_term(float(L), lnz, order) + math.log(factor) <= budget

    if within(floor):
        return floor
    lo, hi = floor, 2 * floor
    while not within(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _power_terms(kf: np.ndarray, lnz: float, order: int = 0) -> np.ndarray:
    """Terms over members kf (as floats) of the order-th derivative of z^k/k,
    z = e^lnz: z^k/k for order 0, (k-1)...(k-order+1) z^(k-order) above."""
    if order == 0:
        return np.exp(kf * lnz) / kf
    falling = np.ones_like(kf)
    for j in range(1, order):
        falling *= kf - j
    return falling * np.exp((kf - order) * lnz)


class _ExactSum:
    """The exact sum of the doubles added to it, held as one integer per
    binary exponent, so its memory does not grow with the number of terms;
    value() rounds it once, to the nearest double, ties to even.  That is
    the value math.fsum returns for the same doubles in any order, since
    fsum also rounds the exact sum once."""

    # terms per pass: their arrays stay in a core's L2 cache, and their
    # integer halves, each below 2^27, sum below 2^53, where doubles add
    # integers exactly
    _CHUNK = 1 << 14

    def __init__(self):
        self._by_exponent = {}

    def add(self, x: np.ndarray) -> None:
        for lo in range(0, x.size, self._CHUNK):
            # x = q 2^(e-53) with q = m 2^53 an integer below 2^53, split as
            # q = hi 2^26 + low with 0 <= low < 2^26
            m, e = np.frexp(x[lo : lo + self._CHUNK])
            q = np.ldexp(m, 53)
            hi = np.floor(np.ldexp(q, -26))
            low = q - np.ldexp(hi, 26)
            e_min = int(e.min())
            sums = zip(np.bincount(e - e_min, hi).tolist(),
                       np.bincount(e - e_min, low).tolist())
            held = self._by_exponent
            for i, (h, l) in enumerate(sums):
                if h or l:
                    held[e_min + i] = held.get(e_min + i, 0) + (int(h) << 26) + int(l)

    def value(self) -> float:
        if not self._by_exponent:
            return 0.0
        e_min = min(self._by_exponent)
        num = sum(q << (e - e_min) for e, q in self._by_exponent.items())
        # int / int rounds the exact quotient once
        shift = 53 - e_min
        return num / (1 << shift) if shift >= 0 else float(num << -shift)


class SeriesSum:
    """Prime-stream accumulator for _series(z, order, spec): the sum of
    _power_terms over the members k <= _series_limit(z, order, spec) of
    spec, the primes by default, whose dropped tail is at most 2^-53 times
    the whole sum.  z is checked and the limit found on construction, so
    before any prime is streamed.

    The terms are added exactly and the sum rounded once (_ExactSum), so
    the result is the double nearest their sum, the one math.fsum gives, on
    every IEEE machine, however the stream cuts its blocks; its memory is
    a few integers, whatever the limit.
    """

    def __init__(self, z: float, order: int = 0,
                 spec: Optional[CycleClassSpec] = None):
        _check_z(z)
        self.limit = _series_limit(z, order, spec)
        self._lnz = math.log(z)
        self._order = order
        self._sum = _ExactSum()

    def add(self, block) -> bool:
        self._sum.add(_power_terms(block.astype(np.float64), self._lnz,
                                   self._order))
        return False

    def result(self) -> float:
        return self._sum.value()


def _series(z: float, order: int = 0, spec: Optional[CycleClassSpec] = None) -> float:
    """The one-accumulator case of SeriesSum: the primes stream through
    iter_prime_blocks to its limit, so no table caps z; any other spec
    hands it its members up to the limit in one block."""
    acc = SeriesSum(z, order, spec)
    if spec is None or spec.kind == KIND_PRIMES:
        return feed_primes(iter_prime_blocks(acc.limit), acc)[0]
    acc.add(spec.members_upto(acc.limit))
    return acc.result()


def phi_eval(z: float) -> float:
    """sum over primes of z^p / p, truncated at _series_limit(z), which
    drops a tail of at most 2^-53 times phi: the sum of the primes up to
    100 bounds phi below, and a Rosser-Schoenfeld bound on the tail over
    the primes, or the tail over all integers, bounds the dropped one
    above."""
    return _series(z) if z != 0.0 else 0.0


def phi_deriv(z: float, order: int) -> float:
    """Derivative of phi of the given order (1, 2 or 3) at z.

    Term sums: sum_p z^{p-1}, sum_p (p-1)z^{p-2}, sum_p (p-1)(p-2)z^{p-3},
    each truncated at its own _series_limit(z, order), which drops a tail
    of at most 2^-53 times the derivative throughout the domain: partial
    summation against Rosser-Schoenfeld bounds on pi(x), or the ratio
    test, bounds the tail, and a Rosser-Schoenfeld count of the primes in
    (M, 2M], M = 1/(1-z), bounds the derivative below.
    """
    order = _integer(order, "order", 1, 3, InvalidArgumentError)
    if z == 0.0:
        return {1: 0.0, 2: 1.0, 3: 2.0}[order]
    return _series(z, order)


def f_eval(z: float) -> float:
    """exp(phi(z)): the generating function value for prime cycle lengths."""
    return math.exp(phi_eval(z))


@dataclass(frozen=True)
class PhiSplit:
    """phi(e^-t) split at the cutoff y: a pure prime-reciprocal head, the
    head's deficit, and the tail."""

    t: float
    cutoff: float
    phi1: float
    phi2: float
    phi3: float


def _check_t(t: float) -> None:
    if not (T_DOMAIN_FLOOR <= t < T_DOMAIN_CAP):
        raise OutOfDomainError(
            f"t must lie in [-ln(1 - {Z_CAP_GAP:g}) = {T_DOMAIN_FLOOR!r}, "
            f"e^-e = {T_DOMAIN_CAP:.6f}), got {t}"
        )


def _split_cutoff(t: float) -> float:
    log_inv = math.log(1.0 / t)
    return (1.0 / t) * log_inv / math.log(log_inv)


def phi_split(t: float) -> PhiSplit:
    """Split phi(e^-t) = phi1 + phi2 + phi3 at y = ((1/t)ln(1/t))/lnln(1/t).

    phi1 = sum_{p<=y} 1/p, phi2 = -sum_{p<=y} (1-e^{-pt})/p,
    phi3 = sum_{p>y} e^{-pt}/p, the last truncated at phi's own limit
    _series_limit(e^-t), near 31.8/t at t = 1e-3 and 30.5/t at t = 1e-8.
    So phi3's dropped tail is bounded absolutely, by 2^-53 phi(e^-t), not
    relative to phi3: phi3 is small, so its own relative truncation error
    may reach 2^-53 phi/phi3, about 3e-11 at t = 1e-8.  The split of
    phi_split_grid((t,)), without its phi_mellin.
    """
    sums = PhiSplitSums((t,))
    for block in iter_prime_blocks(sums.limit):
        sums.add(block)
    return sums.splits()[0]


class PhiSplitSums:
    """Prime-stream accumulator for phi_split_grid(t_grid): per t, the
    split's three sums over the primes up to that t's own truncation limit,
    phi's _series_limit(e^-t), whose dropped tail is at most 2^-53
    phi(e^-t).  splits() reads them off; result() pairs each with
    phi_mellin's phi(e^-t), which reads no primes, to check it against.

    Every t is checked on construction, so before any prime is streamed.
    The limit is the largest truncation limit on the grid, about 30.8/t
    at t = 3e-7 (1.03e8) and 30.5/t at t = 1e-8 (3.05e9).  Each block's
    reciprocals 1/p are taken once and shared by every t and every sum,
    and every t works in place in one row; the rows are allocated once,
    for the largest block.

    Unlike _series, each sum adds numpy's pairwise block sums in doubles
    rather than rounding the exact sum once.  A verify pass sums tens of
    millions of terms here, where an exact sum costs about 15 ns a term
    against about 1 ns.  The terms of each sum share one sign, so its
    rounding error is below 10^-13 of it, far below the 1e-9 tolerance that
    compares the recombined split with phi_mellin.
    """

    def __init__(self, t_grid):
        ts = list(t_grid)
        for t in ts:
            _check_t(t)
        self.points = [(t, _split_cutoff(t), _series_limit(math.exp(-t)))
                       for t in ts]
        self.limit = max((lim for _, _, lim in self.points), default=0)
        self._sums = [[0.0, 0.0, 0.0] for _ in ts]  # phi1, phi2, phi3
        self._buf = np.empty((3, 0))  # p, 1/p and a work row, per block

    def add(self, block) -> bool:
        n = block.size
        if self._buf.shape[1] < n:
            self._buf = np.empty((3, n))
        pf, inv, buf = self._buf[:, :n]
        np.copyto(pf, block)
        np.divide(1.0, pf, out=inv)
        for (t, y, lim), acc in zip(self.points, self._sums):
            m = int(np.searchsorted(block, lim, side="right"))
            cut = int(np.searchsorted(pf[:m], y, side="right"))
            x = buf[:m]
            # head p <= y: 1/p and expm1(-pt)/p; tail: e^-pt/p
            acc[0] += float(inv[:cut].sum())
            np.multiply(pf[:m], -t, out=x)
            np.expm1(x[:cut], out=x[:cut])
            np.exp(x[cut:], out=x[cut:])
            x *= inv[:m]
            acc[1] += float(x[:cut].sum())
            acc[2] += float(x[cut:].sum())
        return False

    def splits(self) -> list:
        """The PhiSplit of each t, over the primes added so far."""
        return [PhiSplit(t=t, cutoff=y, phi1=acc[0], phi2=acc[1], phi3=acc[2])
                for (t, y, _), acc in zip(self.points, self._sums)]

    def result(self) -> list:
        # phi at t' = -ln(fl(e^-t)), the t that phi_eval(e^-t)'s double z
        # encodes: -t itself differs from ln z in the last bits
        whole = phi_mellin([-math.log(math.exp(-t)) for t, _, _ in self.points])
        return list(zip(self.splits(), whole))


def phi_split_grid(t_grid):
    """[(phi_split(t), phi(e^-t)) for t in t_grid], the splits from one
    prime stream and phi(e^-t) from phi_mellin, which reads no primes.

    The one-accumulator case of PhiSplitSums: every t is checked before any
    prime is streamed, and the stream runs to the largest truncation limit
    on the grid.  Each t takes from every block only the primes up to its
    own limit, so the split covers the same primes as a one-point grid and
    phi_eval.  phi(e^-t) is taken at t' = -ln(fl(e^-t)), the t of
    phi_eval(e^-t)'s double z, and is within 6e-16 relative of
    phi_eval(e^-t) on the verify grids; a prime missing from the stream
    moves the split's sum by e^-pt/p but not phi_mellin's, so comparing
    the two checks the stream as well as the split's own arithmetic.
    """
    sums = PhiSplitSums(t_grid)
    if not sums.points:
        return []
    return feed_primes(iter_prime_blocks(sums.limit), sums)[0]


# -- phi by a Mellin-Barnes integral, reading no primes --------------------------

# phi_mellin's domain [T_MELLIN_FLOOR, T_MELLIN_CAP) holds t' =
# -ln(fl(e^-t)) for every t the split takes: t' may lie a few ulps of 1
# below t near the floor, hence half the floor, and up to an ulp of e^-t
# over e^-t, about 1.2e-16, above t near the cap, hence the cap plus 1e-15
T_MELLIN_FLOOR = T_DOMAIN_FLOOR / 2.0
T_MELLIN_CAP = T_DOMAIN_CAP + 1e-15


def phi_mellin(t_grid) -> list:
    """[phi(e^-t) for t in t_grid] from a Mellin-Barnes integral, reading
    no primes.

    For sigma > 0, e^-x = (1/2 pi i) int_(sigma) Gamma(s) x^-s ds; summed
    over the primes, with P the prime zeta function,

        phi(e^-t) = (1/pi) int_0^inf Re[Gamma(sigma+iy) t^(-sigma-iy)
                                         P(1+sigma+iy)] dy.

    The integral is taken by the trapezoid rule on one set of nodes y = 0,
    h, ..., (K-1)h (mellin.mellin_nodes), the same for every t, so a t's
    value does not depend on the others on its grid: sigma = 4/L, L =
    ln(1/t) at the domain's least t, T_MELLIN_FLOOR, so t^-sigma = e^(sigma
    L) amplifies the nodes' rounding by at most e^4.  The nodes' Gamma
    (mellin._log_gamma) and P(1+s) (mellin._prime_zeta_1p) are taken on
    the first call and kept; each t then costs one exponential over the
    nodes and a math.fsum.  Every t must lie in [T_MELLIN_FLOOR,
    T_MELLIN_CAP), checked before any work.

    Its truncation error, at any t of the domain, is at most the sum of
    - the trapezoid rule's: the integrand f(y) is analytic in the strip
      |Im y| < sigma, so for a < sigma the error is at most M/(pi
      (e^(2 pi a/h) - 1)) with M >= int |f(x+ib)| dx for |b| < a
      (Trefethen and Weideman, "The exponentially convergent trapezoidal
      rule", SIAM Review 56(3), 2014, Theorem 5.1).  For 0 < q <= 1/2,
      |Gamma(q+ix)|^2 = Gamma(q)^2 prod_n (1 + x^2/(n+q)^2)^-1 <=
      Gamma(q)^2/cosh(pi x), whose root integrates to 1.66926 Gamma(q) at
      most, and |P(1+q+ix)| <= P(1+q) <= ln zeta(1+q) <= ln(1 + 1/q); so M
      is 1.66926 times the larger, at q = sigma -+ a, of Gamma(q) ln(1 +
      1/q) e^(qL), a log-convex function of q.  h is the largest step this
      bound allows within a quarter of the budget, a being the best of a
      few fractions of sigma.
    - the dropped nodes': |f(y)| <= Gamma(sigma) ln(1 + 1/sigma)
      e^(sigma L) sqrt(2) e^(-pi y/2), decreasing, so the nodes past
      (K-1)h add at most (1/pi) times its integral from (K-1)h, and K is
      the least that keeps that within a quarter of the budget.
    - each node's error in Gamma, by Stirling's remainder
      (mellin._log_gamma), and in P, by mellin._prime_zeta_1p's bound,
      weighted by (h/pi) |Gamma(s)| e^(sigma L) and |P(1+s)|; each pass of
      128 nodes cuts its sum over j where the truncation takes its share
      of a quarter of the budget.
    The budget is 2^-53 times 0.4, below phi(e^-t) on the domain (1.08 at
    the cap), so the truncation error is under 2^-53 phi;
    mellin.mellin_nodes raises InternalConsistencyError if the nodes'
    summed bound exceeds its half.
    The rest is rounding: near y = 0 the terms are up to about 100 times
    phi, and their rounding errors largely cancel; on the verify grids the
    result is within 6e-16 relative of phi_eval(e^-t) at t' = -ln(fl(e^-t)),
    the t of its double z.
    """
    ts = list(t_grid)
    for t in ts:
        if not (T_MELLIN_FLOOR <= t < T_MELLIN_CAP):
            raise OutOfDomainError(
                f"t must lie in [{T_MELLIN_FLOOR!r}, {T_MELLIN_CAP!r}), "
                f"got {t}")
    if not ts:
        return []
    # imported here, so that a process that never calls phi_mellin never
    # compiles the nodes' code, where bytecode is not cached
    from primecycles.mellin import mellin_nodes

    h, sigma, log_gamma, prime_zeta = mellin_nodes()
    y = h * np.arange(log_gamma.size)
    out = []
    for t in ts:
        # ln Gamma(s) - s ln t at s = sigma + iy
        log_t = math.log(t)
        f = log_gamma - sigma * log_t
        f.imag -= y * log_t
        f = (np.exp(f) * prime_zeta).real
        f[0] *= 0.5
        out.append(h / math.pi * math.fsum(f.tolist()))
    return out


# -- closed-form asymptotic models -----------------------------------------------


def partial_sum_log_model(n: int, constants: Constants) -> float:
    """Model for T_n = sum_{k<=n} P_k/k! with prime cycle lengths: e^c ln n."""
    n = _integer(n, "n", 2)
    return constants.e_to_c * math.log(n)


def model_f_asym(t: float, constants: Constants) -> float:
    """Model for f(e^-t) as t -> 0+: e^c ln(1/t)."""
    _check_t(t)
    return constants.e_to_c * math.log(1.0 / t)


def yakimiv_log_model(spec: CycleClassSpec, n: int, constants: Constants) -> float:
    """ln of the positive-density model for P_{n,A}:

        ln n! + (rho-1) ln n + L(n) - gamma*rho - ln Gamma(rho)

    with L(n) the harmonic offset of the cycle-length set.  Needs rho > 0.
    """
    n = _integer(n, "n", 2)
    rho = spec.density()
    if rho == 0:
        raise UnsupportedSpecError(
            "model requires a spec with strictly positive density"
        )
    r = float(rho)
    offset = spec.harmonic_offset(n)
    return (math.lgamma(n + 1.0) + (r - 1.0) * math.log(n) + offset
            - constants.euler_gamma * r - math.lgamma(r))


def odlyzko_sum_model(spec: CycleClassSpec, n: int, constants: Constants,
                      series: Optional[float] = None) -> float:
    """Partial-sum model f_A(1 - 1/n) / Gamma(rho + 1).

    f_A is exp of the series over members k <= _series_limit(1 - 1/n, 0,
    spec), whose dropped tail is at most 2^-53 times the series, the
    primes streamed as phi_eval streams them, so for the primes the model
    is f_eval(1 - 1/n) exactly; for period 1, all lengths, the closed form
    f_A(z) = 1/(1-z) = n is used instead, making the model exact.  series,
    if given, is that series as SeriesSum(1 - 1/n, spec=spec) fed from a
    shared stream returns it; by default it is summed here.
    """
    n = _integer(n, "n", 2)
    if spec.period == 1:
        f_val = float(n)
    else:
        if series is None:
            series = _series(1.0 - 1.0 / n, spec=spec)
        f_val = math.exp(series)
    return f_val / math.exp(math.lgamma(float(spec.density()) + 1.0))
