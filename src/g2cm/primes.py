"""Primality and factoring on plain integers.

:func:`is_prime` is exact below 3,317,044,064,679,887,385,961,981: there
it runs Miller–Rabin with a published base set that has no strong
pseudoprime below its bound (Jaeschke 1993; Sorenson–Webster 2015;
the minimal sets of miller-rabin.appspot.com).  Above it, it runs the
strong Baillie–PSW test (Baillie–Wagstaff 1980), which has no known
counterexample.  :func:`factorint` is trial division, enough for the
group orders the oracle enumerates.
"""

from __future__ import annotations

from math import isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

#: (bound, bases): Miller–Rabin with these bases decides every n < bound.
#: A base is reduced mod n, and one that becomes 0 or 1 is skipped; the
#: sets are proven under that rule.
_MR_TABLE = (
    (341_531, (9345883071009581737,)),
    (350_269_456_337,
     (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55_245_642_489_451,
     (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7_999_252_175_582_851,
     (2, 4130806001517, 149795463772692060, 186635894390467037,
      3967304179347715805)),
    (585_226_005_592_931_977,
     (2, 123635709730000, 9233062284813009, 43835965440333360,
      761179012939631437, 1263739024124850375)),
    (18_446_744_073_709_551_616, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318_665_857_834_031_151_167_461, _SMALL_PRIMES[:12]),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES[:13]),
)


def is_prime(n: int) -> bool:
    """True iff n is a (positive) prime."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 53 * 53:  # a composite here would have a factor ≤ 47
        return True
    for bound, bases in _MR_TABLE:
        if n < bound:
            return _miller_rabin(n, bases)
    return _miller_rabin(n, (2,)) and _strong_lucas(n)


def _miller_rabin(n: int, bases) -> bool:
    """True iff odd n > 2 is a strong probable prime to every base."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n − 1 = d·2^s, d odd
    d = n >> s
    for a in bases:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a | n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters.

    For odd n > 1: D is the first of 5, −7, 9, −11, … with (D | n) = −1,
    P = 1 and Q = (1 − D)/4.  No such D exists when n is a square, so a
    square is rejected first.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False  # 1 < gcd(D, n) < n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = k·2^s, k odd
    # U_k, V_k and Q^k mod n by the binary ladder, from U_1 = V_1 = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) % n, (D * U + V) % n, Qk * Q % n
            U = (U + n if U & 1 else U) >> 1  # halve mod odd n
            V = (V + n if V & 1 else V) >> 1
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def factorint(n: int) -> dict[int, int]:
    """The factorisation {prime: exponent} of n ≥ 1, by trial division."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors
