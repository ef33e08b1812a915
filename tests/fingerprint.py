"""P_n mod q by the exponential formula: a fingerprint of the exact counts.

f_A = prod_{k in A} exp(x^k/k) and exp(x^k/k) = sum_m x^{km}/(k^m m!), so
a_n, the coefficient of x^n, is built one factor at a time, one numpy
slice-add per (k, m) on int64 residues, and P_n = n! a_n.  Each modulus is
a prime above every n the exact routes reach, so k^m m! with km <= n and n!
are units mod q, and below 2^31, so a product of two residues fits in
int64.  The moduli are the rows of one array, so one slice serves them all.

This shares no identity with count_exact_upto, whose routes run the
recurrence n*a_n = sum_{k in A} a_{n-k}, or its step form, in big integers.
"""

import numpy as np

from primecycles.exact_enum import count_exact_upto

# primes, each above EXACT_CAP_DEFAULT and below 2^31; a third, 2^31 - 61,
# would add half again to the time
MODULI = (2**31 - 1, 2**31 - 19)


def counts_mod(members, n_max: int) -> np.ndarray:
    """P_0..P_{n_max} mod each of MODULI, one row per modulus."""
    if n_max >= min(MODULI):
        raise ValueError(f"n_max={n_max} must lie below every modulus")
    q = np.array(MODULI, dtype=np.int64)[:, None]
    a = np.zeros((len(MODULI), n_max + 1), dtype=np.int64)
    a[:, 0] = 1
    for k in (int(k) for k in members if k <= n_max):
        b = a.copy()
        c = np.ones_like(q)  # 1/(k^m m!) mod q, extended as m grows
        for m in range(1, n_max // k + 1):
            c = c * [[pow(k * m, -1, p)] for p in MODULI] % q
            # each addend is below 2^31 and there are at most n_max of them
            b[:, k * m:] += a[:, :n_max + 1 - k * m] * c % q
        a = b % q
    fact = np.ones_like(a)  # n! mod q
    for n in range(2, n_max + 1):
        fact[:, n] = fact[:, n - 1] * n % q[:, 0]
    return a * fact % q


def check_exact_counts(spec, n_max: int):
    """The least n at which count_exact_upto(spec, n_max) disagrees with the
    fingerprint under some modulus, or None when every n agrees."""
    counts = count_exact_upto(spec, n_max)
    fingerprint = counts_mod(spec.members_upto(n_max).tolist(), n_max)
    residues = np.array([[p % q for p in counts] for q in MODULI],
                        dtype=np.int64)
    wrong = np.flatnonzero((residues != fingerprint).any(axis=0))
    return int(wrong[0]) if wrong.size else None
