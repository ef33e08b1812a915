"""The nodes of analytic.phi_mellin: its complex log-gamma, the prime zeta
function P(1+s) = sum_j mu(j)/j ln zeta(j(1+s)) with zeta by Euler-Maclaurin,
and the trapezoid rule's step and last node, all with the error bounds
phi_mellin's docstring states.  A module of its own, which phi_mellin
imports on its first call: a process that finds no cached bytecode
compiles each module it imports from source, this one in about 2 ms,
and analytic with this code in it kept about 0.45 MB more resident after
import.

The code keeps to numpy loops that a verify pass runs anyway: the first
call of a complex division, an arctan2, a matrix product or arithmetic on
numpy scalars maps in more of numpy's code and keeps it resident, and
together they raised the verify benchmark's peak RSS by about 0.45 MB.
So 1/z is conj(z)/|z|^2 (_inverse), and scalars are Python floats.
"""

import functools
import math

import numpy as np

from primecycles.analytic import T_MELLIN_FLOOR, _mobius
from primecycles.errors import InternalConsistencyError


# B_2, B_4, ..., B_22
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138)
# ln Gamma: Stirling's series with the first 9 of them at s + 10
_GAMMA_SHIFT = 10
_GAMMA_TERMS = 9
_STIRLING = tuple(b / ((2 * k + 2) * (2 * k + 1))
                  for k, b in enumerate(_BERNOULLI))
# zeta: the terms n < 16, then Euler-Maclaurin with the first 10 of them
_EM_N = 16
_EM_TERMS = 10
_EULER_MACLAURIN = tuple(b / math.factorial(2 * k + 2)
                         for k, b in enumerate(_BERNOULLI))
# the largest L = ln(1/t) the nodes serve, and sigma L there
_MELLIN_BIG = -math.log(T_MELLIN_FLOOR)
_MELLIN_SIGMA_L = 4.0
# int over the real line of cosh(pi x)^-1/2, B(1/4, 1/2)/pi = 1.669253...,
# rounded up
_GAMMA_LINE = 1.66926
# the error budget: 2^-53 times 0.4, a lower bound of phi(e^-t) for t < e^-e
_MELLIN_BUDGET = 0.4 * 2.0 ** -53
# nodes per pass through log-gamma and the zeta sums, which bounds their
# tables' memory
_MELLIN_CHUNK = 128


def _log1p(x: np.ndarray) -> np.ndarray:
    """ln(1 + x), principal branch, to a few ulps of |x| for complex x near
    0: numpy's complex log1p rounds 1 + x first.  The argument may take
    1 + x rounded: that moves it by at most an ulp of itself."""
    a, b = x.real, x.imag
    out = np.empty_like(x)
    m = (2.0 + a) * a
    m += b * b
    np.log1p(m, out=m)
    out.real = 0.5 * m
    out.imag = np.log(x + 1.0).imag
    return out


def _inverse(z):
    """1/z, for a float or a complex array, as conj(z)/|z|^2."""
    return z.conjugate() * (1.0 / (z.real * z.real + z.imag * z.imag))


def _stirling(z):
    """sum_k B_2k / (2k (2k-1) z^(2k-1)), k = 1..9: Stirling's series for
    ln Gamma(z) less (z - 1/2) ln z - z + ln(2 pi)/2."""
    inv = _inverse(z)
    sq = inv * inv
    acc = _STIRLING[_GAMMA_TERMS - 1]
    for c in _STIRLING[_GAMMA_TERMS - 2::-1]:
        acc = acc * sq + c
    return acc * inv


def _log_gamma(s: np.ndarray) -> np.ndarray:
    """ln Gamma(s) for complex s with Re s > 0, the branch continuous from
    the real axis: ln Gamma(s + 10) by Stirling's series, less ln s(s+1)...
    (s+9).  Written as s ln 10 + (s + 9.5) ln(1 + s/10) - s + S(s + 10) -
    S(10) - ln s - sum_{i<10} ln(1 + s/i), S being _stirling, so that no
    term is much larger than the result and its error stays a few ulps
    of |ln Gamma(s)| + 1.  Stirling's remainder at z = s + 10 is at most
    the first dropped term, B_20/(380 z^19), times sec^20(arg z / 2), by
    Stieltjes' bound for Re z > 0 (Olver, "Asymptotics and Special
    Functions", 1974, chapter 8)."""
    n = _GAMMA_SHIFT
    out = (s * math.log(n) + (s + (n - 0.5)) * _log1p(s * (1.0 / n)) - s
           + (_stirling(s + n) - _stirling(float(n))) - np.log(s))
    for i in range(1, n):
        out -= _log1p(s * (1.0 / i))
    return out


def _mu_tail(j: int, r: float) -> float:
    """A bound on sum_{i>j} |ln zeta(i w)|/i for Re w = r > 1: ln zeta(x)
    <= zeta(x) - 1 <= 2^-x (1 + 2/(x-1)), a geometric sum in i."""
    x = (j + 1) * r
    return 2.0 ** -x * (1.0 + 2.0 / (x - 1.0)) / ((j + 1) * (1.0 - 2.0 ** -r))


def _dropped(m: int, x: float) -> float:
    """A bound on the change of ln zeta at a point of real part x > 1 when
    its terms n >= m are dropped: they add up to at most d = m^-x (1 +
    m/(x - 1)), and |zeta| >= 1/zeta(x) >= (x - 1)/x, so ln zeta moves by
    at most d/((x - 1)/x - d); inf where d reaches (x - 1)/x."""
    d = m ** -x * (1.0 + m / (x - 1.0))
    room = (x - 1.0) / x - d
    return d / room if room > 0.0 else math.inf


def _prime_zeta_1p(s: np.ndarray, tol: float):
    """(P(1+s), bound) at nodes s sharing one real part sigma > 0: P(w) =
    sum_j mu(j)/j ln zeta(jw), w = 1 + s, and per node a bound on its
    error, from three sources.

    - The sum over j stops at the least J with _mu_tail(J) <= tol.
    - zeta(x) - 1, x = jw, is sum_{2<=n<N} n^-x, N = 16, each power
      n^-jw the previous one times n^-w, plus the Euler-Maclaurin tail
      N^(1-x)/(x-1) + N^-x/2 + sum_{k<=10} B_2k/(2k)! x(x+1)...(x+2k-2)
      N^(1-x-2k), whose remainder is at most |(x+21)/(Re x+21)| times the
      first dropped term (Edwards, "Riemann's Zeta Function", 1974, 6.4).
      Once dropping the terms n >= N moves ln zeta(x) by at most tol/8
      (_dropped), the tail is left out, and the direct sum stops at the
      least n that keeps that so.
    - An error d in zeta(x) moves ln zeta(x) by at most d/(|zeta(x)| - d),
      and |zeta(x)| >= 1/zeta(Re x) >= (Re x - 1)/Re x.
    """
    w = 1.0 + s
    r = 1.0 + float(s[0].real)
    j_max = 1
    while _mu_tail(j_max, r) > tol:
        j_max += 1
    mu = [_mobius(j) for j in range(1, j_max + 1)]
    js = [j for j in range(1, j_max + 1) if mu[j - 1]]
    n = _EM_N
    # Euler-Maclaurin for the first em of js, where n >= N add over tol/8
    em = sum(_dropped(n, j * r) > tol / 8.0 for j in js)
    base = np.exp(-np.log(np.arange(2.0, n + 1))[:, None] * w)  # n^-w, n<=N
    power = base.copy()
    z = np.empty((len(js), s.size), complex)  # zeta(jw) - 1
    last = np.empty((em, s.size), complex)  # N^-jw
    err = _mu_tail(j_max, r)
    top = n - 1  # the largest n summed directly
    i = 0
    for j in range(1, j_max + 1):
        x = j * r
        if i >= em:
            while top > 2 and _dropped(top, x) <= tol / 8.0:
                top -= 1
        if j > 1:
            power[:top - 1] *= base[:top - 1]
            if i < em:
                power[-1] *= base[-1]
        if mu[j - 1]:
            np.add.reduce(power[:top - 1], axis=0, out=z[i])
            if i < em:
                last[i] = power[-1]
            else:
                err += _dropped(top + 1, x) / j
            i += 1
    if em:
        x = np.array(js[:em], float)[:, None] * w
        square = x * x
        rising = x.copy()  # x(x+1)...(x+2k-2)
        tail = n * _inverse(x - 1.0) + 0.5 + _EULER_MACLAURIN[0] / n * rising
        for k in range(1, _EM_TERMS + 1):
            step = x * (4 * k - 1)  # (x+2k-1)(x+2k)
            step += square
            step += 2 * k * (2 * k - 1)
            rising *= step
            if k < _EM_TERMS:
                tail += _EULER_MACLAURIN[k] / n ** (2 * k + 1) * rising
        last *= tail
        z[:em] += last
        xr = np.array(js[:em], float)[:, None] * r  # Re x
        k = 2 * _EM_TERMS + 1
        rem = (np.abs(x + k) / (xr + k) * abs(_EULER_MACLAURIN[_EM_TERMS])
               * np.abs(rising) * n ** (-xr - k))
        room = (xr - 1.0) / xr - rem  # as in _dropped
        err = err + np.add.reduce(np.where(
            room > 0.0, rem / np.maximum(room, 1e-300), np.inf) * (r / xr),
            axis=0)
        # free the tables before _log1p's own temporaries
        del x, square, rising, tail, step, rem
    logs = _log1p(z)
    logs *= np.array([mu[j - 1] / j for j in js])[:, None]
    return np.add.reduce(logs, axis=0), err


@functools.cache
def mellin_nodes():
    """(h, sigma, ln Gamma(s), P(1+s)) at analytic.phi_mellin's nodes s =
    sigma + iy, y = 0, h, ..., (K-1)h, for every t of its domain, with the
    step, the count and the error bound that phi_mellin states; taken once
    and kept, about 40 KB.  Raises InternalConsistencyError if the nodes'
    summed error bound exceeds its half of the budget."""
    big = _MELLIN_BIG
    sigma = _MELLIN_SIGMA_L / big
    quarter = _MELLIN_BUDGET / 4.0

    def peak(q):  # Gamma(q) ln(1 + 1/q) e^(qL) at the largest L
        return math.gamma(q) * math.log1p(1.0 / q) * math.exp(q * big)

    h = max(2.0 * math.pi * a / math.log1p(
        _GAMMA_LINE * max(peak(sigma - a), peak(sigma + a)) / (math.pi * quarter))
        for a in (sigma * f for f in (0.5, 0.7, 0.8, 0.9, 0.95)))
    # past y, the integral of |f| is at most (2 sqrt 2/pi) peak e^(-pi y/2)
    y_end = 2.0 / math.pi * math.log(
        2.0 * math.sqrt(2.0) * peak(sigma) / (math.pi ** 2 * quarter))
    s = sigma + 1j * h * np.arange(math.ceil(y_end / h) + 1)
    log_gamma = np.empty_like(s)
    prime_zeta = np.empty_like(s)
    bound = 0.0
    chunks = range(0, s.size, _MELLIN_CHUNK)
    for lo in chunks:
        part = slice(lo, lo + _MELLIN_CHUNK)
        node = s[part]
        log_gamma[part] = _log_gamma(node)
        # (h/pi) |Gamma(s)| e^(sigma L) per node, the trapezoid's half at
        # y = 0
        weight = np.exp(log_gamma[part].real
                        + (sigma * big + math.log(h / math.pi)))
        if lo == 0:
            weight[0] *= 0.5
        z = np.abs(node + _GAMMA_SHIFT)
        stirling = abs(_STIRLING[_GAMMA_TERMS]) * (
            (2.0 * z / (z + sigma + _GAMMA_SHIFT)) ** 10 / z ** 19
            + _GAMMA_SHIFT ** -19.0)
        # the mu sums' truncation takes a quarter of the budget in all
        tol = quarter / len(chunks) / float(weight.sum())
        prime_zeta[part], err = _prime_zeta_1p(node, tol)
        weight *= err + np.abs(prime_zeta[part]) * np.expm1(stirling)
        bound += float(weight.sum())
    if bound > 2.0 * quarter:
        raise InternalConsistencyError(
            f"phi_mellin's node error bound {bound:.3g} exceeds its budget")
    for kept in (log_gamma, prime_zeta):  # every caller shares them
        kept.flags.writeable = False
    return h, sigma, log_gamma, prime_zeta
