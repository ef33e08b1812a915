"""Constants and analytic evaluators behind the asymptotic models.

Covers the Euler and Mertens constants (the latter by two independent
routes), the Riemann and prime zeta functions, the prime harmonic series
phi(z) = sum_p z^p/p with its first three derivatives, the three-way split
of phi(e^-t) used for small-t estimates, and the closed-form models the
verification harness compares against exact enumeration.

Everything here is a pure function of its arguments; prime sums stream
through iter_prime_blocks so no call materializes a large table.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from primecycles.cycle_classes import KIND_ALL, CycleClassSpec
from primecycles.errors import (
    InvalidArgumentError,
    OutOfDomainError,
    OutOfRangeError,
    UnsupportedSpecError,
)
from primecycles.primes import PrimeTable, iter_prime_blocks

# Euler-Mascheroni constant, 25 digits; treated as a known input, not computed
EULER_GAMMA = 0.5772156649015328606065121

# phi and its derivatives are evaluated only on [0, 1 - Z_CAP_GAP]
Z_CAP_GAP = 1e-9

# upper end of the phi_split domain: ln ln(1/t) must exceed 1
T_DOMAIN_CAP = math.exp(-math.e)

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


def prime_zeta(s: float) -> float:
    """P(s) = sum over primes of p^-s, via sum_j mu(j)/j * ln zeta(js).

    Valid for s >= 2; absolute error well under 1e-13 (terms below j*s ~ 60
    are kept, the rest are under 1e-18).
    """
    if s < 2.0:
        raise OutOfDomainError(f"prime_zeta requires s >= 2, got {s}")
    total = 0.0
    j = 1
    while j * s <= 64.0:
        mu = _mobius(j)
        if mu:
            total += mu / j * math.log1p(zeta_minus_1(j * s))
        j += 1
    return total


# -- the Mertens constant by two routes ------------------------------------------


def mertens_direct(table: PrimeTable, limit: int):
    """(estimate, tail_bound): gamma + sum_{p<=limit} (ln(1-1/p) + 1/p).

    Each summand is -1/(2p^2) + O(1/p^3), so the absolute tail is below
    sum_{p>limit} 1/p^2 <= 1/(limit-1), which is the returned bound.
    """
    if limit < 2:
        raise InvalidArgumentError(f"limit must be >= 2, got {limit}")
    if limit > table.limit:
        raise OutOfRangeError(f"limit={limit} exceeds sieve limit {table.limit}")
    ps = table.primes()
    cut = int(np.searchsorted(ps, limit, side="right"))
    pf = ps[:cut].astype(np.float64)
    estimate = EULER_GAMMA + float(np.sum(np.log1p(-1.0 / pf) + 1.0 / pf))
    return estimate, 1.0 / (limit - 1)


def mertens_zeta(k_max: int) -> float:
    """The same constant as gamma - sum_{k>=2} P(k)/k, truncated at k_max.

    Tail below 2 * 2^-k_max; k_max = 60 reaches full double precision.
    """
    if k_max < 10:
        raise InvalidArgumentError(f"k_max must be >= 10, got {k_max}")
    acc = 0.0
    for k in range(k_max, 1, -1):
        acc += prime_zeta(float(k)) / k
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
                   table: Optional[PrimeTable] = None,
                   limit: Optional[int] = None) -> Constants:
    """Build the shared constants; method "zeta" (default) or "direct"."""
    if method == "zeta":
        c = mertens_zeta(k_max)
        desc = f"prime-zeta series, k_max={k_max}"
        tail = 2.0 * 2.0 ** (-k_max)
    elif method == "direct":
        if table is None or limit is None:
            raise InvalidArgumentError(
                "method 'direct' needs a prime table and a summation limit"
            )
        c, tail = mertens_direct(table, limit)
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


def _phi_limit(z: float) -> int:
    return max(100, int(40.0 / (1.0 - z)) + 1)


def _phi_block(pf: np.ndarray, lnz: float) -> float:
    """sum of z^p / p over one block of primes (as floats), z = e^lnz."""
    return float(np.sum(np.exp(pf * lnz) / pf))


def phi_eval(z: float) -> float:
    """sum over primes of z^p / p, truncated with tail below 1e-15.

    The truncation point 40/(1-z) makes the geometric tail z^P/(P(1-z))
    about e^-40/40.
    """
    _check_z(z)
    if z == 0.0:
        return 0.0
    lnz = math.log(z)
    total = 0.0
    for block in iter_prime_blocks(_phi_limit(z)):
        total += _phi_block(block.astype(np.float64), lnz)
    return total


def phi_deriv(z: float, order: int) -> float:
    """Derivative of phi of the given order (1, 2 or 3) at z.

    Term sums: sum_p z^{p-1}, sum_p (p-1)z^{p-2}, sum_p (p-1)(p-2)z^{p-3};
    truncated at 60/(1-z), which leaves the polynomial-times-geometric tail
    under 1e-12 relative throughout the domain.
    """
    if order not in (1, 2, 3):
        raise InvalidArgumentError(f"order must be 1, 2 or 3, got {order}")
    _check_z(z)
    if z == 0.0:
        return {1: 0.0, 2: 1.0, 3: 2.0}[order]
    p_lim = max(100, int(60.0 / (1.0 - z)) + 1)
    lnz = math.log(z)
    total = 0.0
    for block in iter_prime_blocks(p_lim):
        pf = block.astype(np.float64)
        if order == 1:
            terms = np.exp((pf - 1.0) * lnz)
        elif order == 2:
            terms = (pf - 1.0) * np.exp((pf - 2.0) * lnz)
        else:
            terms = (pf - 1.0) * (pf - 2.0) * np.exp((pf - 3.0) * lnz)
        total += float(np.sum(terms))
    return total


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
    if not (0.0 < t < T_DOMAIN_CAP):
        raise OutOfDomainError(
            f"t must lie in (0, e^-e = {T_DOMAIN_CAP:.6f}), got {t}"
        )


def _split_cutoff(t: float) -> float:
    log_inv = math.log(1.0 / t)
    return (1.0 / t) * log_inv / math.log(log_inv)


def _split_limit(t: float) -> int:
    return int(50.0 / t) + 1


def _split_block(pf: np.ndarray, t: float, y: float):
    """(phi1, phi2, phi3) terms of one block of primes (as floats)."""
    cut = int(np.searchsorted(pf, y, side="right"))
    head = pf[:cut]
    tail = pf[cut:]
    phi1 = phi2 = phi3 = 0.0
    if head.size:
        phi1 = float(np.sum(1.0 / head))
        phi2 = float(np.sum(np.expm1(-head * t) / head))
    if tail.size:
        phi3 = float(np.sum(np.exp(-tail * t) / tail))
    return phi1, phi2, phi3


def phi_split(t: float) -> PhiSplit:
    """Split phi(e^-t) = phi1 + phi2 + phi3 at y = ((1/t)ln(1/t))/lnln(1/t).

    phi1 = sum_{p<=y} 1/p, phi2 = -sum_{p<=y} (1-e^{-pt})/p,
    phi3 = sum_{p>y} e^{-pt}/p, the last truncated at 50/t where the
    remaining tail is below e^-50/50.
    """
    _check_t(t)
    y = _split_cutoff(t)
    phi1 = phi2 = phi3 = 0.0
    for block in iter_prime_blocks(_split_limit(t)):
        d1, d2, d3 = _split_block(block.astype(np.float64), t, y)
        phi1 += d1
        phi2 += d2
        phi3 += d3
    return PhiSplit(t=t, cutoff=y, phi1=phi1, phi2=phi2, phi3=phi3)


def phi_split_grid(t_grid):
    """[(phi_split(t), phi_eval(e^-t)) for t in t_grid] from one prime stream.

    Every t is checked before any prime is streamed.  The stream runs to the
    largest truncation limit on the grid; each t takes from every block only
    the primes below its own limits, so the sums cover the same primes as
    the per-t calls and differ from them only in summation order.  The
    direct sum keeps phi_eval's own terms z^p/p, so comparing it with the
    recombined split still checks two different computations.
    """
    ts = list(t_grid)
    for t in ts:
        _check_t(t)
        _check_z(math.exp(-t))
    if not ts:
        return []
    # per t: cutoff, split limit, phi limit, and ln z taken from z = e^-t as
    # phi_eval(e^-t) takes it (not -t, which differs in the last bits)
    points = [(t, _split_cutoff(t), _split_limit(t), _phi_limit(math.exp(-t)),
               math.log(math.exp(-t))) for t in ts]
    sums = [[0.0, 0.0, 0.0, 0.0] for _ in ts]  # phi1, phi2, phi3, direct
    limit = max(max(split_lim, phi_lim) for _, _, split_lim, phi_lim, _ in points)
    for block in iter_prime_blocks(limit):
        pf = block.astype(np.float64)
        for (t, y, split_lim, phi_lim, lnz), acc in zip(points, sums):
            cut = int(np.searchsorted(block, split_lim, side="right"))
            for k, d in enumerate(_split_block(pf[:cut], t, y)):
                acc[k] += d
            cut = int(np.searchsorted(block, phi_lim, side="right"))
            acc[3] += _phi_block(pf[:cut], lnz)
    return [(PhiSplit(t=t, cutoff=y, phi1=acc[0], phi2=acc[1], phi3=acc[2]),
             acc[3]) for (t, y, *_), acc in zip(points, sums)]


# -- closed-form asymptotic models -----------------------------------------------


def partial_sum_log_model(n: int, constants: Constants) -> float:
    """Model for T_n = sum_{k<=n} P_k/k! with prime cycle lengths: e^c ln n."""
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
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
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    rho = spec.density()
    if rho is None or rho == 0:
        raise UnsupportedSpecError(
            "model requires a spec with strictly positive density"
        )
    r = float(rho)
    offset = spec.harmonic_offset(n)
    return (math.lgamma(n + 1.0) + (r - 1.0) * math.log(n) + offset
            - constants.euler_gamma * r - math.lgamma(r))


def odlyzko_sum_model(spec: CycleClassSpec, n: int, constants: Constants) -> float:
    """Partial-sum model f_A(1 - 1/n) / Gamma(rho + 1).

    f_A is evaluated by series over members k <= 30n (geometric tail under
    1e-12); for the all-lengths spec the closed form f_A(z) = 1/(1-z) = n
    is used instead, making the model exact.
    """
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    rho = spec.density()
    if rho is None:
        raise UnsupportedSpecError("model requires a spec with known density")
    if spec.kind == KIND_ALL:
        f_val = float(n)
    else:
        z = 1.0 - 1.0 / n
        members = spec.members_upto(max(100, 30 * n))
        kf = members.astype(np.float64)
        lnz = math.log(z)
        f_val = math.exp(float(np.sum(np.exp(kf * lnz) / kf)))
    return f_val / math.exp(math.lgamma(float(rho) + 1.0))
