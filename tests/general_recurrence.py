"""The general exact recurrence, kept in the tests as a cross-check.

P_n = sum over k in A, k <= n of (n-1)(n-2)...(n-k+1) * P_{n-k}, with the
falling factorials built incrementally.  It works for every spec kind at
about |A(n)| big-integer multiplies per term, which is why the package
uses the cheaper step and scaled-integer routes instead.
"""


def count_general_upto(spec, n_max: int) -> list:
    """P_0..P_{n_max} by the general recurrence, with no cap."""
    members = [int(k) for k in spec.members_upto(n_max)]
    P = [0] * (n_max + 1)
    P[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        ff = 1
        prev = 1
        for k in members:
            if k > n:
                break
            for j in range(prev, k):
                ff *= n - j
            prev = k
            if P[n - k]:
                total += ff * P[n - k]
        P[n] = total
    return P
