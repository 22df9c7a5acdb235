"""g2cm.primes against sympy, the reference, on ranges and hard cases."""

from __future__ import annotations

import math
import random
import subprocess
import sys
import textwrap

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp, mr

from g2cm.primes import _MR_TABLE, _strong_lucas, factorint, is_prime

#: Strong pseudoprimes to base 2 (OEIS A001262 and the least ones to
#: the first k prime bases, A014233).
STRONG_PSEUDOPRIMES_2 = [
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
    220729, 233017, 252601, 253241, 256999, 271951, 280601, 314821, 357761,
    390937, 458989, 476971, 486737, 1373653, 25326001, 3215031751,
    2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
]

#: Strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027,
]

#: k with 6k + 1, 12k + 1 and 18k + 1 all prime; their product is a
#: Carmichael number (Chernick 1939), the last two above the
#: Miller–Rabin table.
CHERNICK_K = [1, 1025, 1000051, 20000556, 1000000511]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921] + [
    (6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in CHERNICK_K]

MERSENNE = [2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1, (2 ** 127 - 1) ** 2]


def _large_primes():
    rng = random.Random(2024)
    return [sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
            for bits in (40, 41, 48, 64, 65, 80, 96, 128, 160, 200)]


LARGE_PRIMES = _large_primes()


def test_range_matches_sympy():
    assert [n for n in range(-5, 200_001) if is_prime(n)] == \
        [n for n in range(-5, 200_001) if sympy.isprime(n)]


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES_2)
def test_strong_pseudoprimes_to_base_2(n):
    assert mr(n, [2]) and not sympy.isprime(n)  # the data
    assert not is_prime(n)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_strong_lucas_pseudoprimes(n):
    assert is_strong_lucas_prp(n) and not sympy.isprime(n)  # the data
    assert _strong_lucas(n)
    assert not is_prime(n)


def test_carmichael_numbers():
    for k in CHERNICK_K:
        assert all(sympy.isprime(m * k + 1) for m in (6, 12, 18))
    assert [is_prime(n) for n in CARMICHAEL] == \
        [sympy.isprime(n) for n in CARMICHAEL]


def test_around_each_table_bound():
    values = [b + d for b, _ in _MR_TABLE for d in range(-2, 3)]
    assert [is_prime(n) for n in values] == [sympy.isprime(n) for n in values]


def test_large_values():
    values = MERSENNE + [10 ** 29 + 7]
    for q in LARGE_PRIMES:
        values += [q, q * q, q * sympy.nextprime(q)]
    assert [is_prime(n) for n in values] == [sympy.isprime(n) for n in values]


def test_strong_lucas_matches_sympy():
    odd = list(range(3, 20_001, 2)) + [q * sympy.nextprime(q) for q in LARGE_PRIMES]
    assert [_strong_lucas(n) for n in odd] == [is_strong_lucas_prp(n) for n in odd]


def test_strong_lucas_rejects_squares_at_once():
    # No Selfridge parameter exists for a square; a search for one
    # would not end, so this runs with a time limit.
    script = textwrap.dedent(f"""
        from g2cm.primes import _strong_lucas
        print([_strong_lucas(q * q) for q in {LARGE_PRIMES!r}])
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([False] * len(LARGE_PRIMES))


def test_factorint_matches_sympy():
    # a factorisation is unique: prime keys whose powers multiply to n
    primes = set(sympy.primerange(100_000))
    for n in range(1, 100_000):
        factors = factorint(n)
        assert primes.issuperset(factors), n
        assert math.prod(q ** e for q, e in factors.items()) == n, n


@pytest.mark.parametrize("n", [0, -1, -12])
def test_factorint_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        factorint(n)
