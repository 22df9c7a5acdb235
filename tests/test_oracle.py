"""Brute-force Jacobian oracle: counting, Cantor arithmetic, structure."""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import g2cm
from g2cm import (
    GenusTwoCurve,
    cantor_add,
    char_poly_from_counts,
    count_points,
    enumerate_jacobian,
    group_order,
    oracle,
    p_sylow_structure,
    weil_validate,
)
from g2cm.errors import (
    BudgetExceededError,
    InternalInvariantError,
    InvalidCurveError,
)
from g2cm.oracle import (
    MAX_COUNT_PRIME,
    Key,
    _GroupLaw,
    _invariant_factors_from_torsion,
    _torsion_counts,
    _trim,
    _v_solutions,
    all_squarefree_quintics,
    enumerate_divisors,
    poly_derivative,
    poly_eval,
    poly_gcd,
    poly_is_squarefree,
    random_squarefree_quintics,
    squarefree_quintic_count,
)


# ------------------------------------------- F_p[x] references on tuples

def poly_add(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def poly_neg(a, p):
    return tuple((-c) % p for c in a)


def poly_sub(a, b, p):
    return poly_add(a, poly_neg(b, p), p)


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        c = r[-1] * inv_lead % p
        k = len(r) - len(b)
        q[k] = c
        for i, bi in enumerate(b):
            r[k + i] = (r[k + i] - c * bi) % p
    return _trim(q), _trim(r)


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def poly_monic(a, p):
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def poly_gcd_reference(a, b, p):
    """The monic gcd by Euclid on poly_divmod: the reference for poly_gcd."""
    while b:
        a, b = b, poly_mod(a, b, p)
    return poly_monic(a, p)


def poly_powmod(a, n, m, p):
    """a^n mod m, n ≥ 0."""
    out = (1,)
    while n:
        if n & 1:
            out = poly_mod(poly_mul(out, a, p), m, p)
        n >>= 1
        if n:
            a = poly_mod(poly_mul(a, a, p), m, p)
    return out


def irreducible_factor_count(f, p):
    """The number of irreducible factors over F_p of a squarefree f with
    deg f ≤ 5, by distinct-degree gcds.

    gcd(g, x^(p^k) − x) is the product of the factors of degree k of g
    once those of lower degree are divided out.  After k = 1, 2 what is
    left has no factor of degree ≤ 2 and degree ≤ 5, so it is 1 or
    irreducible.
    """
    g, x, h, count = poly_monic(f, p), (0, 1), (0, 1), 0
    for k in (1, 2):
        h = poly_powmod(h, p, g, p)  # x^(p^k) mod g
        d = poly_gcd_reference(g, poly_sub(h, x, p), p)
        count += (len(d) - 1) // k
        g = poly_divmod(g, d, p)[0]
        h = poly_mod(h, g, p)
    return count + (len(g) > 1)


C3 = GenusTwoCurve(p=3, f=(1, 0, 0, 0, 0, 1))     # y² = x⁵ + 1 over F₃


ALL_P3 = [GenusTwoCurve(p=3, f=f) for f in all_squarefree_quintics(3)]


def random_squarefree(p: int, degree: int, rng: random.Random,
                      factor: tuple[int, ...] = (1,)) -> tuple[int, ...]:
    """The first squarefree factor·g over F_p, g drawn with deg g = degree."""
    while True:
        g = tuple(rng.randrange(p) for _ in range(degree)) + (rng.randrange(1, p),)
        f = poly_mul(factor, g, p)
        if poly_is_squarefree(f, p):
            return f


def random_squarefree_quintic(p: int, rng: random.Random) -> GenusTwoCurve:
    return GenusTwoCurve(p=p, f=random_squarefree(p, 5, rng))


def non_residue(p: int) -> int:
    return next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)


def polys(d: Key) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(u, v) as polynomials, low degree first, for the Key d = (u…, v…)."""
    n = len(d) // 2
    return tuple(reversed(d[:n])) + (1,), _trim(list(reversed(d[n:])))


def divisors_reference(curve: GenusTwoCurve) -> list[Key]:
    """Every (u, v) tried against v² ≡ f (mod u): O(p⁴) steps."""
    p, f = curve.p, curve.f
    out: list[Key] = [()]
    for a in range(p):
        fa = poly_eval(f, a, p)
        for b in range(p):
            if b * b % p == fa:
                out.append(((-a) % p, b))
    # deg u = 2: u = x² + u1x + u0; f mod u is linear, v = v1x + v0 must
    # satisfy v² ≡ f (mod u), i.e. with x² ≡ −u1x − u0:
    #   2·v1·v0 − v1²·u1 = (f mod u)[1],  v0² − v1²·u0 = (f mod u)[0]
    for u1 in range(p):
        for u0 in range(p):
            u = (u0, u1, 1)
            fm = poly_mod(f, u, p)
            fm0 = fm[0] if len(fm) > 0 else 0
            fm1 = fm[1] if len(fm) > 1 else 0
            for v1 in range(p):
                w1 = v1 * v1 % p
                t1 = w1 * u1 % p
                t0 = w1 * u0 % p
                for v0 in range(p):
                    if (2 * v1 * v0 - t1) % p == fm1 and (v0 * v0 - t0) % p == fm0:
                        out.append((u1, u0, v1, v0))
    return out


def poly_xgcd(a, b, p):
    """(g, s, t) with g = s·a + t·b and g monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if r0 and r0[-1] != 1:
        scale = (pow(r0[-1], -1, p),)
        r0, s0, t0 = (poly_mul(scale, g, p) for g in (r0, s0, t0))
    return r0, s0, t0


def exact_quotient(a, b, p):
    q, rem = poly_divmod(a, b, p)
    if rem:
        raise InternalInvariantError(f"Cantor division left remainder {rem}")
    return q


def compose_reduce(d1: Key, d2: Key, curve: GenusTwoCurve) -> Key:
    """d1 + d2 by generic Cantor (Cantor 1987) on polynomials: the
    reference for the explicit law."""
    p, f = curve.p, curve.f
    u1, v1 = polys(d1)
    u2, v2 = polys(d2)
    # composition: d = s1·u1 + s2·u2 + s3·(v1 + v2)
    d0, e1, e2 = poly_xgcd(u1, u2, p)
    d, c1, c2 = poly_xgcd(d0, poly_add(v1, v2, p), p)
    s1 = poly_mul(c1, e1, p)
    s2 = poly_mul(c1, e2, p)
    u = exact_quotient(poly_mul(u1, u2, p), poly_mul(d, d, p), p)
    num = poly_add(
        poly_add(poly_mul(s1, poly_mul(u1, v2, p), p),
                 poly_mul(s2, poly_mul(u2, v1, p), p), p),
        poly_mul(c2, poly_add(poly_mul(v1, v2, p), f, p), p), p)
    v = poly_mod(exact_quotient(num, d, p), u, p)
    # reduction to deg u <= 2
    while len(u) - 1 > 2:
        u = poly_monic(exact_quotient(poly_sub(f, poly_mul(v, v, p), p), u, p), p)
        v = poly_mod(poly_neg(v, p), u, p)
    u = poly_monic(u, p)
    n = len(u) - 1
    return tuple(reversed(u[:n])) + tuple(reversed(v + (0,) * (n - len(v))))


def on_curve_reference(d: Key, curve: GenusTwoCurve) -> bool:
    """A tuple of 0, 2 or 4 ints with v² ≡ f (mod u) on polynomials: the
    reference for ``_on_curve``."""
    if not isinstance(d, tuple) or len(d) not in (0, 2, 4) or any(
            not isinstance(c, int) for c in d):
        return False
    u, v = polys(d)
    vv = poly_mul(v, v, curve.p)
    return poly_mod(poly_sub(vv, curve.f, curve.p), u, curve.p) == ()


def count_points_k2_reference(curve: GenusTwoCurve) -> int:
    """#C(F_{p²}) by evaluating f at every x of F_p[t]/(t² − n): O(p²) steps
    of tuple arithmetic, n the smallest quadratic non-residue."""
    p, f = curve.p, curve.f
    n = non_residue(p)

    def mul2(a, b):
        a0, a1 = a
        b0, b1 = b
        return ((a0 * b0 + a1 * b1 * n) % p, (a0 * b1 + a1 * b0) % p)

    counts2: dict[tuple[int, int], int] = {}
    for y in product(range(p), repeat=2):
        z = mul2(y, y)
        counts2[z] = counts2.get(z, 0) + 1
    total = 0
    for x in product(range(p), repeat=2):
        acc = (0, 0)
        for c in reversed(f):
            acc = mul2(acc, x)
            acc = ((acc[0] + c) % p, acc[1])
        total += counts2.get(acc, 0)
    return total + (1 if curve.degree == 5 else counts2.get((f[-1], 0), 0))


def element_order(d: Key, curve: GenusTwoCurve) -> int:
    """Smallest k ≥ 1 with k·d = 0, by repeated generic Cantor addition."""
    k, acc = 1, d
    while acc:
        acc = compose_reduce(acc, d, curve)
        k += 1
    return k


def scalar_mul(k: int, d: Key, curve: GenusTwoCurve) -> Key:
    """k·d by the explicit law, k ≥ 1."""
    return _GroupLaw(curve).mul(k, d)


def abelian_groups(n: int, least: int = 1):
    """Invariant-factor chains (ascending, each dividing the next) of order
    n whose factors are multiples of least."""
    if n == 1:
        yield ()
        return
    for first in sympy.divisors(n):
        if first > 1 and first % least == 0:
            yield from ((first,) + rest
                        for rest in abelian_groups(n // first, first))


def order_histogram(factors: tuple[int, ...]) -> Counter:
    """Counts of element orders in Z/n1 × … × Z/nk."""
    return Counter(
        math.lcm(*(n // math.gcd(a, n) for a, n in zip(t, factors)))
        for t in product(*(range(n) for n in factors))
    )


def torsion_counts(factors: tuple[int, ...], q: int, e: int) -> list[int]:
    """#G[q^k] for k = 1 … e of G = Z/n1 × … × Z/nk, trimmed like the oracle."""
    counts = []
    for k in range(1, e + 1):
        counts.append(math.prod(math.gcd(q ** k, n) for n in factors))
        if counts[-1] == q ** e:
            break
    return counts


#: Draws nonsquarefree_curves takes before it gives up; at p = 3, 5, 7
#: the first three curves of non-squarefree order come within 9 draws.
NONSQUAREFREE_MAX_DRAWS = 100


def nonsquarefree_curves(p: int, n: int) -> list[GenusTwoCurve]:
    """The first n seeded curves at p whose group order is not squarefree."""
    rng, out = random.Random(p), []
    for _ in range(NONSQUAREFREE_MAX_DRAWS):
        c = random_squarefree_quintic(p, rng)
        N = group_order(char_poly_from_counts(count_points(c, 1),
                                              count_points(c, 2), p))
        if any(e > 1 for e in sympy.factorint(N).values()):
            out.append(c)
            if len(out) == n:
                return out
    raise RuntimeError(
        f"only {len(out)} of {n} curves at p = {p} have a non-squarefree "
        f"order in {NONSQUAREFREE_MAX_DRAWS} draws; are the point counts wrong?"
    )


#: Seeded curves at p = 3, 5, 7 and their divisors, for the group-law
#: properties: two of non-squarefree order and one random curve each.
GROUP_LAW = [
    (c, enumerate_divisors(c))
    for p in (3, 5, 7)
    for c in nonsquarefree_curves(p, 2)
    + [random_squarefree_quintic(p, random.Random(-p))]
]


@st.composite
def curve_and_divisors(draw, n: int):
    curve, elems = draw(st.sampled_from(GROUP_LAW))
    return curve, [draw(st.sampled_from(elems)) for _ in range(n)]


class TestCurveValidation:
    def test_rejects_even_characteristic(self):
        with pytest.raises(InvalidCurveError):
            GenusTwoCurve(p=2, f=(1, 0, 0, 0, 0, 1))

    def test_rejects_wrong_degree(self):
        with pytest.raises(InvalidCurveError):
            GenusTwoCurve(p=3, f=(1, 0, 0, 1))

    def test_rejects_repeated_roots(self):
        # f = x⁵ + 2x⁴ + x³ = x³(x + 1)² over F₃
        with pytest.raises(InvalidCurveError):
            GenusTwoCurve(p=3, f=(0, 0, 0, 1, 2, 1))

    @pytest.mark.parametrize("p, f", [
        (7.0, (1, 2, 0, 0, 0, 1)),
        (7, (1, 2.0, 0, 0, 0, 1)),
        (7, (1, 2, 0, 0, 0, 1.0)),
    ])
    def test_rejects_floats(self, p, f):
        with pytest.raises(InvalidCurveError, match="must be ints"):
            GenusTwoCurve(p=p, f=f)

    def test_large_prime_builds_nothing_of_size_p(self):
        p = 2 ** 61 - 1
        start = time.perf_counter()
        c = GenusTwoCurve(p=p, f=(1, 2, 3, 4, 5, 6))
        assert time.perf_counter() - start < 0.1
        assert c.f == (1, 2, 3, 4, 5, 6)
        with pytest.raises(InvalidCurveError, match="repeated root"):
            GenusTwoCurve(p=p, f=(1, 0, -3, 3, -2, 1))  # (x − 1)²·(x³ + 2x + 1)


class TestPolyGcd:
    """The remainder-only Euclid against ``poly_gcd_reference``."""

    def test_every_small_pair_at_three(self):
        every = sorted({_trim(list(c)) for c in product(range(3), repeat=4)})
        assert len(every) == 81
        for a, b in product(every, repeat=2):
            assert poly_gcd(a, b, 3) == poly_gcd_reference(a, b, 3), (a, b)

    def test_every_sextic_and_its_derivative_at_three(self):
        for c in product(range(3), repeat=7):
            a = _trim(list(c))
            da = poly_derivative(a, 3)
            assert poly_gcd(a, da, 3) == poly_gcd_reference(a, da, 3), a
            assert poly_gcd(da, a, 3) == poly_gcd_reference(da, a, 3), a

    def test_seeded_pairs(self):
        rng = random.Random(71)
        for p in (5, 7, 11, 13, 47, 101, 997):
            for _ in range(200):
                a, b = (_trim([rng.randrange(p) for _ in range(rng.randrange(8))])
                        for _ in range(2))
                if rng.randrange(2):  # a common factor
                    g = (rng.randrange(p), rng.randrange(1, p))
                    a, b = poly_mul(a, g, p), poly_mul(b, g, p)
                assert poly_gcd(a, b, p) == poly_gcd_reference(a, b, p), (a, b, p)


class TestSquarefreeQuintics:
    def test_all_at_three(self):
        every = list(product(range(3), repeat=5))
        assert len(ALL_P3) == (3 - 1) * (3 ** 5 - 3 ** 4) == 324
        assert [c.f for c in ALL_P3] == [
            tail + (lead,) for tail in every for lead in (1, 2)
            if poly_is_squarefree(tail + (lead,), 3)]

    def test_predicate_matches_factorization(self):
        # every polynomial of degree ≤ 6 over F₃, so every quintic and sextic
        x = sympy.Symbol("x")
        for f in product(range(3), repeat=7):
            if any(f):
                a = _trim(list(f))
                _, factors = sympy.Poly(f[::-1], x, modulus=3).factor_list()
                expected = all(e == 1 for _, e in factors)
                assert poly_is_squarefree(a, 3) == expected, f
                df = poly_derivative(a, 3)
                assert (len(poly_gcd_reference(a, df, 3)) == 1) == expected, f

    def test_predicate_matches_the_reference_euclid(self):
        rng = random.Random(73)
        reached = Counter()
        for p in (5, 7, 47):
            g = (-non_residue(p) % p, 0, 1)  # x² − d, irreducible
            cases = [((), "zero"), ((1,), "constant"), (g, "g")]
            for _ in range(400):
                degree = rng.choice((5, 6))
                f = random_squarefree(p, degree, rng) if rng.randrange(2) else (
                    tuple(rng.randrange(p) for _ in range(degree))
                    + (rng.randrange(1, p),))
                kind = rng.choice(("drawn", "f(0) = 0", "g²·h"))
                if kind == "f(0) = 0":
                    f = (0,) + f[1:]
                elif kind == "g²·h":
                    f = poly_mul(poly_mul(g, g, p), f[:degree - 3], p)
                cases.append((f, kind))
            for f, kind in cases:
                want = len(poly_gcd_reference(f, poly_derivative(f, p), p)) == 1
                assert poly_is_squarefree(f, p) == want, (f, p)
                reached[kind, want] += 1
                # 5·f5 ≡ 0, so f′ has degree below 4
                reached["quintic at p = 5"] += p == 5 and len(f) == 6
        assert reached["g²·h", False] and not reached["g²·h", True]
        assert all(reached[kind, want] for kind in ("drawn", "f(0) = 0")
                   for want in (True, False)), reached
        assert reached["zero", False] == reached["constant", True] == 3
        assert reached["g", True] == 3 and reached["quintic at p = 5"]

    @pytest.mark.parametrize("p, total", [(3, 324), (5, 10_000)])
    def test_count_is_the_number_generated(self, p, total):
        assert squarefree_quintic_count(p) == total
        assert sum(1 for _ in all_squarefree_quintics(p)) == total

    def test_random_draws_are_fixed_by_the_seed(self):
        drawn = list(random_squarefree_quintics(5, 40, seed=0))
        # the sequence that `g2cm scan -p 5` reports on
        assert drawn[:3] == [(3, 3, 0, 2, 4, 4), (3, 2, 3, 2, 4, 2),
                             (4, 1, 2, 1, 0, 3)]
        assert len(set(drawn)) == 40
        assert all(poly_is_squarefree(f, 5) and f[-1] for f in drawn)
        assert drawn == list(random_squarefree_quintics(5, 40, seed=0))
        every = list(random_squarefree_quintics(3, 324, seed=1))
        assert sorted(every) == sorted(c.f for c in ALL_P3)

    def test_more_draws_than_quintics_raise_before_drawing(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most 324"):
            next(random_squarefree_quintics(3, 325, 0))
        assert time.perf_counter() - start < 0.1


class TestCountPoints:
    def test_f3_quintic_k1(self):
        assert count_points(C3, 1) == 4

    def test_f3_quintic_k2(self):
        assert count_points(C3, 2) == 10

    def test_f3_sextic_k1(self):
        # y² = x⁶ + x + 1 over F₃ (x⁶ + 1 is a cube there, so not a curve);
        # frozen values from an independent brute-force recount
        c = GenusTwoCurve(p=3, f=(1, 1, 0, 0, 0, 0, 1))
        assert count_points(c, 1) == 7
        assert count_points(c, 2) == 13

    def test_f5_sextic_both_infinity_points(self):
        c = GenusTwoCurve(p=5, f=(1, 0, 0, 0, 0, 0, 1))  # y² = x⁶ + 1
        assert count_points(c, 1) == 6
        assert count_points(c, 2) == 46

    def test_f3_sextic_with_cube_rejected(self):
        # x⁶ + 1 = (x² + 1)³ over F₃
        with pytest.raises(InvalidCurveError):
            GenusTwoCurve(p=3, f=(1, 0, 0, 0, 0, 0, 1))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            count_points(C3, 3)

    def test_brute_force_agreement_k1(self):
        # independent recount straight from the definition
        rng = random.Random(7)
        for p in (3, 5, 7):
            for _ in range(5):
                c = random_squarefree_quintic(p, rng)
                affine = sum(
                    1
                    for x in range(p)
                    for y in range(p)
                    if (y * y - sum(c.f[i] * x ** i for i in range(6))) % p == 0
                )
                assert count_points(c, 1) == affine + 1

    def test_count_cap(self):
        assert sympy.nextprime(MAX_COUNT_PRIME) == 1009
        c = GenusTwoCurve(p=1009, f=(1, 0, 0, 0, 0, 1))
        for k in (1, 2):
            with pytest.raises(BudgetExceededError, match="point-counting limit"):
                count_points(c, k)

    def test_field_tables_are_cached_tuples(self):
        for p in (3, 7, 997):
            roots, s, nr = (oracle._sqrt_table(p), oracle._square_counts(p),
                            oracle._non_residues(p))
            assert roots is oracle._sqrt_table(p) and s is oracle._square_counts(p)
            assert nr is oracle._non_residues(p)
            assert all(type(t) is tuple for t in (roots, s, nr, *roots, *nr))
            assert roots == tuple(tuple(y for y in range(p) if y * y % p == z)
                                  for z in range(p))
            assert s == tuple(map(len, roots))
            assert nr == tuple((d, d * d % p, d ** 3 % p) for d in range(1, p)
                               if pow(d, (p - 1) // 2, p) == p - 1)

    def test_shift_by_one(self):
        # every degree ≤ 6 as a padded 7-vector, from negative, unreduced
        # coefficients; g(s − 1) has coefficients Σ_j (−1)^(j−i)·C(j, i)·g_j
        rng = random.Random(79)
        for p in (3, 5, 7, 11, 997):
            for n in range(8):  # n coefficients, so degree n − 1
                for _ in range(3):
                    g = [rng.randrange(-2 * p, 2 * p) for _ in range(n)]
                    if n:  # a top coefficient that is not 0 mod p
                        g[-1] = rng.randrange(1, p) - rng.choice((0, p, 2 * p))
                    g += [0] * (7 - n)
                    shifted = oracle._shifted(*g, p)
                    assert type(shifted) is tuple
                    assert shifted == tuple(
                        sum((-1) ** (j - i) * math.comb(j, i) * g[j]
                            for j in range(i, 7)) % p for i in range(7))
                    assert len(_trim(list(shifted))) == n  # degree kept
                    for x in range(min(p, 13)):
                        want = sum(c * (x - 1) ** i for i, c in enumerate(g)) % p
                        assert poly_eval(shifted, x, p) == want

    def test_weil_bounds_on_counts(self):
        rng = random.Random(11)
        for p in (3, 5, 7):
            for _ in range(5):
                c = random_squarefree_quintic(p, rng)
                for k in (1, 2):
                    nk = count_points(c, k)
                    assert abs(p ** k + 1 - nk) <= 4 * p ** (k / 2) + 1e-9


class TestCountPointsK2:
    """The sum of norms over irreducible quadratics against the reference."""

    @staticmethod
    def check(curve):
        assert count_points(curve, 2) == count_points_k2_reference(curve)

    def test_all_quintics_at_three(self):
        for c in ALL_P3:
            self.check(c)

    @pytest.mark.parametrize("degree", [5, 6])
    def test_seeded_curves(self, degree):
        rng = random.Random(41 + degree)
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            for _ in range(4 if p < 20 else 2):
                self.check(GenusTwoCurve(p=p, f=random_squarefree(p, degree, rng)))

    def test_sextics_with_non_residue_leading_coefficient(self):
        # no point at infinity over F_p, two over F_{p²}
        rng = random.Random(43)
        for p in (3, 5, 7, 11, 13):
            for _ in range(4):
                g = random_squarefree(p, 6, rng)
                f = poly_mul((non_residue(p) * pow(g[-1], -1, p),), g, p)
                c = GenusTwoCurve(p=p, f=f)
                assert count_points(c, 1) == sum(
                    1 for x in range(p) for y in range(p)
                    if (y * y - poly_eval(f, x, p)) % p == 0)
                self.check(c)

    @pytest.mark.parametrize("degree", [5, 6])
    def test_roots_in_f_p(self, degree):
        # f = (x − a)·g: f(a) = 0 gives the single point (a, 0)
        rng = random.Random(47)
        for p in (5, 7, 11, 13):
            for a in range(p):
                f = random_squarefree(p, degree - 1, rng, factor=((-a) % p, 1))
                assert poly_eval(f, a, p) == 0
                self.check(GenusTwoCurve(p=p, f=f))

    @pytest.mark.parametrize("p", [53, 67, 79])
    def test_benchmark_primes(self, p):
        # the primes that the point-count benchmark runs
        rng = random.Random(59 + p)
        for degree in (5, 5, 6, 6):
            self.check(GenusTwoCurve(p=p, f=random_squarefree(p, degree, rng)))

    @pytest.mark.parametrize("p", [53, 79, 997])
    def test_k1_by_euler_criterion(self, p):
        # count_points's Horner reduces once per x: at p = 997 its unreduced
        # value exceeds 2⁶³ on the sextics here
        rng = random.Random(61 + p)
        for degree in (5, 5, 6, 6):
            f = random_squarefree(p, degree, rng)
            values = [sum(c * x ** i for i, c in enumerate(f)) for x in range(p)]
            if p == 997 and degree == 6:
                assert max(values) > 2 ** 63
            # Euler's criterion: z^((p−1)/2) is 0, 1 or p − 1 mod p
            points = {0: 1, 1: 2, p - 1: 0}
            affine = sum(points[pow(z, (p - 1) // 2, p)] for z in values)
            infinity = 1 if degree == 5 else points[pow(f[-1], (p - 1) // 2, p)]
            assert count_points(GenusTwoCurve(p=p, f=f), 1) == affine + infinity

    @pytest.mark.parametrize("degree", [5, 6])
    def test_irreducible_quadratic_factor(self, degree):
        # f = m·g with m = x² + u1x + u0 irreducible: Res(m, f) = 0
        rng = random.Random(53)
        for p in (3, 5, 7, 11, 13):
            n = non_residue(p)
            for u1 in range(p):
                u0 = (u1 * u1 - n) * pow(4, -1, p) % p  # u1² − 4u0 = n
                f = random_squarefree(p, degree - 2, rng, factor=(u0, u1, 1))
                self.check(GenusTwoCurve(p=p, f=f))


class TestCharPolyFromCounts:
    def test_f3_anchor(self):
        P = char_poly_from_counts(4, 10, 3)
        assert P.coeffs == (9, 0, 0, 0, 1)
        assert group_order(P) == 10

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_zero_trace(self, p):
        P = char_poly_from_counts(p + 1, p * p + 1, p)
        assert P.coeffs == (p * p, 0, 0, 0, 1)

    def test_cm_anchor_counts(self):
        P = char_poly_from_counts(4, 54, 7)
        assert tuple(reversed(P.coeffs)) == (1, -4, 10, -28, 49)

    def test_parity_error(self):
        with pytest.raises(InvalidCurveError):
            char_poly_from_counts(4, 11, 3)

    def test_functional_equation_always(self):
        rng = random.Random(13)
        for p in (3, 5, 7):
            for _ in range(8):
                c = random_squarefree_quintic(p, rng)
                P = char_poly_from_counts(count_points(c, 1),
                                          count_points(c, 2), p)
                r = weil_validate(P)
                assert r.constant_term_ok and r.functional_equation_ok


class TestCantorAdd:
    def test_identity(self):
        for d in enumerate_divisors(C3):
            assert cantor_add(d, (), C3) == d

    def test_inverse(self):
        law = _GroupLaw(C3)
        for d in enumerate_divisors(C3):
            assert cantor_add(d, law.neg(d), C3) == ()

    def test_weierstrass_two_torsion(self):
        d = (1, 0)  # x − 2 = x + 1 and v = 0 over F₃
        assert cantor_add(d, d, C3) == ()

    def test_rejects_divisor_off_curve(self):
        bad = (1, 1)
        with pytest.raises(InvalidCurveError):
            cantor_add(bad, bad, C3)

    def test_rejects_degree_six_model(self):
        sextic = GenusTwoCurve(p=3, f=(1, 1, 0, 0, 0, 0, 1))
        with pytest.raises(InvalidCurveError, match="degree-5"):
            cantor_add((), (), sextic)

    def test_rejects_non_int_entries(self):
        c = GenusTwoCurve(p=7, f=(1, 2, 0, 0, 0, 1))  # y² = x⁵ + 2x + 1
        d = (0, 6)  # x and v = 6: 6² = f(0) = 1 over F₇
        point = next(e for e in enumerate_divisors(c) if len(e) == 2 and e[0])
        total = cantor_add(d, point, c)
        assert all(type(x) is int for x in total)
        for bad in ((0.0, 6), (0, 6.0), (0.0, 6.0), (total[0] + 0.0,) + total[1:]):
            with pytest.raises(InvalidCurveError, match="not a Key"):
                cantor_add(bad, point, c)
            with pytest.raises(InvalidCurveError, match="not a Key"):
                cantor_add(point, bad, c)

    def test_fifty_calls_build_the_law_once(self, monkeypatch):
        built = []
        init = _GroupLaw.__init__

        def counting(self, curve):
            built.append(curve)
            init(self, curve)

        c = GenusTwoCurve(p=7, f=(1, 2, 0, 0, 0, 1))  # y² = x⁵ + 2x + 1
        elems = divisors_reference(c)
        monkeypatch.setattr(_GroupLaw, "__init__", counting)
        oracle._group_law.cache_clear()
        rng = random.Random(73)
        sums = [cantor_add(rng.choice(elems), rng.choice(elems), c)
                for _ in range(50)]
        assert built == [c]
        info = oracle._group_law.cache_info()
        assert (info.misses, info.hits) == (1, 49)
        # an equal curve, the enumeration and the structure share that law
        same = GenusTwoCurve(p=7, f=c.f)
        assert set(sums) <= set(enumerate_divisors(same))
        assert enumerate_jacobian(same).order == len(elems)
        assert built == [c]

    def test_on_curve_matches_reference_on_every_divisor_at_three(self):
        for curve in ALL_P3:
            law = oracle._group_law(curve)
            for d in enumerate_divisors(curve):
                assert oracle._on_curve(d, law) and on_curve_reference(d, curve)
                if not d:
                    continue
                # d with unreduced coefficients, and with v0 moved by one
                n = len(d) // 2
                unreduced = tuple(c - 3 for c in d[:n]) + tuple(c + 3 for c in d[n:])
                for e in (unreduced, d[:-1] + ((d[-1] + 1) % 3,)):
                    assert oracle._on_curve(e, law) == on_curve_reference(e, curve)

    def test_on_curve_matches_reference_on_malformed_input(self):
        coeffs = (-1, 0, 1, 2, 5)  # -1 and 5 are unreduced at p = 3 and 5
        keys = [c for n in range(6) for c in product(coeffs, repeat=n)] + \
            [c for c in product(coeffs[1:3], repeat=6)]
        # one entry of a tuple of ints replaced, and a list in place of a tuple
        keys += [k[:i] + (x,) + k[i + 1:] for k in keys[:31]
                 for i in range(len(k)) for x in (1.0, 0.5, "1", None)]
        keys += [list(k) for k in keys[:31]]
        reached = Counter()
        for curve in ALL_P3[:2] + [random_squarefree_quintic(5, random.Random(3))]:
            law = oracle._group_law(curve)
            for d in keys:
                ok = oracle._on_curve(d, law)
                assert ok == on_curve_reference(d, curve), (d, curve)
                if not isinstance(d, tuple):
                    reached["not a tuple"] += 1
                elif len(d) % 2:  # no split into u and v of one length
                    reached["odd length"] += 1
                elif len(d) > 4:
                    reached["deg u > 2"] += 1
                elif any(type(c) is not int for c in d):
                    reached["non-int entry"] += 1
                elif not ok:
                    reached["off curve"] += 1
                elif any(not 0 <= c < curve.p for c in d):
                    reached["unreduced, on curve"] += 1
        assert set(reached) == {"not a tuple", "odd length", "deg u > 2",
                                "non-int entry", "off curve",
                                "unreduced, on curve"}

    def test_commutative_and_associative(self):
        rng = random.Random(17)
        for p in (3, 5):
            c = random_squarefree_quintic(p, rng)
            elems = enumerate_divisors(c)
            for _ in range(40):
                d1, d2, d3 = (rng.choice(elems) for _ in range(3))
                assert cantor_add(d1, d2, c) == cantor_add(d2, d1, c)
                lhs = cantor_add(cantor_add(d1, d2, c), d3, c)
                rhs = cantor_add(d1, cantor_add(d2, d3, c), c)
                assert lhs == rhs

    def test_closure(self):
        elems = set(enumerate_divisors(C3))
        for d1 in elems:
            for d2 in elems:
                assert cantor_add(d1, d2, C3) in elems


class TestEnumerateJacobian:
    def test_f3_anchor(self):
        g = enumerate_jacobian(C3)
        assert g.order == 10
        assert g.invariant_factors == (10,)
        assert g.p_sylow_factors == ()

    def test_f5_matches_counts(self):
        c = GenusTwoCurve(p=5, f=(0, 1, 0, 0, 0, 1))  # y² = x⁵ + x
        g = enumerate_jacobian(c)
        P = char_poly_from_counts(count_points(c, 1), count_points(c, 2), 5)
        assert g.order == group_order(P)

    def test_weil_interval(self):
        rng = random.Random(19)
        for p in (3, 5, 7):
            c = random_squarefree_quintic(p, rng)
            g = enumerate_jacobian(c)
            assert (p ** 0.5 - 1) ** 4 <= g.order <= (p ** 0.5 + 1) ** 4

    def test_element_orders_divide_group_order(self):
        rng = random.Random(23)
        c = random_squarefree_quintic(5, rng)
        g = enumerate_jacobian(c)
        for d in enumerate_divisors(c):
            assert scalar_mul(g.order, d, c) == ()

    def test_invariant_factors_divide_in_chain(self):
        rng = random.Random(29)
        for p in (3, 5, 7):
            c = random_squarefree_quintic(p, rng)
            g = enumerate_jacobian(c)
            factors = g.invariant_factors
            assert __import__("math").prod(factors) == g.order
            for small, big in zip(factors, factors[1:]):
                assert big % small == 0

    def test_rejects_degree_six_model(self):
        sextic = GenusTwoCurve(p=3, f=(1, 1, 0, 0, 0, 0, 1))
        with pytest.raises(InvalidCurveError, match="degree-5"):
            enumerate_jacobian(sextic)
        with pytest.raises(InvalidCurveError, match="degree-5"):
            enumerate_jacobian(sextic, budget=1)  # before the budget

    def test_budget_exceeded(self):
        c = GenusTwoCurve(p=17, f=(1, 1, 0, 0, 0, 1))
        with pytest.raises(BudgetExceededError):
            enumerate_jacobian(c, budget=100)

    def test_budget_refused_before_the_law_is_built(self, monkeypatch):
        # the law's inverse table has p entries: it must not be built, and
        # a call that would build it fails here instead of filling memory
        p = 2 ** 61 - 1
        quintic = GenusTwoCurve(p=p, f=(1, 2, 3, 4, 5, 6))
        sextic = GenusTwoCurve(p=p, f=(1, 2, 3, 4, 5, 6, 7))

        def refuse(q):
            raise AssertionError(f"built the inverse table at p = {q}")

        monkeypatch.setattr(oracle, "_inverses", refuse)
        misses = oracle._group_law.cache_info().misses
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="enumeration budget"):
            enumerate_jacobian(quintic, budget=100)
        with pytest.raises(InvalidCurveError, match="degree-5"):
            enumerate_jacobian(sextic, budget=100)
        assert time.perf_counter() - start < 0.1
        assert oracle._group_law.cache_info().misses == misses

    def test_independent_of_point_counts(self, monkeypatch):
        # the enumeration must not share code with the counting route
        # that scan cross-checks it against
        rng = random.Random(41)
        curves = [random_squarefree_quintic(p, rng) for p in (5, 7, 23)]
        want = [enumerate_jacobian(c) for c in curves]

        def refuse(*args, **kwargs):
            raise AssertionError("enumeration used the counting route")

        for name in ("count_points", "_shifted", "_square_counts",
                     "char_poly_from_counts"):
            monkeypatch.setattr(oracle, name, refuse)
        assert [enumerate_jacobian(c) for c in curves] == want


class TestPSylowStructure:
    def test_ten_at_five(self):
        assert p_sylow_structure([10], 5) == [5]

    def test_ten_at_three(self):
        assert p_sylow_structure([10], 3) == []

    def test_c2_x_c14(self):
        assert p_sylow_structure([2, 14], 7) == [7]

    def test_synthetic_c2_x_c14_group(self):
        # structure recovery from the 2-torsion count of C2 × C14
        two_torsion = sum(1 for i in range(2) for j in range(14)
                          if 2 * i % 2 == 0 and 2 * j % 14 == 0)
        assert two_torsion == 4
        assert _invariant_factors_from_torsion({2: 2, 7: 1},
                                               {2: [two_torsion]}) == (2, 14)


#: Curves of order 2q at p = 23, 29 and 31 with their group orders.
LARGE_CURVES = [
    (23, (10, 7, 3, 21, 14, 15), 346),
    (23, (0, 2, 9, 15, 19, 19), 358),
    (29, (19, 10, 24, 23, 0, 8), 458),
    (31, (15, 1, 27, 2, 26, 14), 622),
]


class TestEnumerateDivisors:
    @staticmethod
    def check(curve):
        got, want = enumerate_divisors(curve), divisors_reference(curve)
        assert len(got) == len(set(got))
        assert set(got) == set(want)
        return got

    def test_all_quintics_at_three(self):
        assert len(ALL_P3) == 324
        for c in ALL_P3:
            self.check(c)

    def test_seeded_curves(self):
        rng = random.Random(37)
        reached = Counter()
        for p in (5, 7, 11, 13):
            for _ in range(3):
                for d in self.check(random_squarefree_quintic(p, rng)):
                    if len(d) == 4:
                        u1, u0, v1, v0 = d
                        disc = (u1 * u1 - 4 * u0) % p
                        if disc == 0:
                            reached["tangent"] += 1
                        elif pow(disc, (p - 1) // 2, p) == 1:
                            reached["chord"] += 1
                        else:
                            reached["irreducible u | f"] += v1 == v0 == 0
                            reached["irreducible, v1 = 0"] += v1 == 0
        # every branch of the enumeration was reached
        branches = ("tangent", "chord", "irreducible u | f",
                    "irreducible, v1 = 0")
        assert all(reached[b] for b in branches), reached

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_v_solutions_brute_force(self, p):
        roots = [[y for y in range(p) if y * y % p == z] for z in range(p)]
        inv = [0] + [pow(z, -1, p) for z in range(1, p)]
        irreducible = [(u1, u0) for u1, u0 in product(range(p), repeat=2)
                       if pow(u1 * u1 - 4 * u0, (p - 1) // 2, p) == p - 1]
        assert len(irreducible) == p * (p - 1) // 2
        for (u1, u0), r1, r0 in product(irreducible, range(p), range(p)):
            want = [(v1, v0) for v1 in range(p) for v0 in range(p)
                    if (2 * v1 * v0 - v1 * v1 * u1 - r1) % p == 0
                    and (v0 * v0 - v1 * v1 * u0 - r0) % p == 0]
            got = _v_solutions(u1, u0, r1, r0, p, roots, inv)
            assert len(got) == len(set(got))
            assert sorted(got) == want

    def test_rejects_sextic(self):
        sextic = GenusTwoCurve(p=7, f=(3, 0, 0, 0, 0, 0, 1))  # y² = x⁶ + 3
        with pytest.raises(InvalidCurveError, match="degree-5"):
            enumerate_divisors(sextic)

    def test_identity_first_and_ints_reduced_mod_p(self):
        for c in ALL_P3[:20]:
            got = enumerate_divisors(c)
            assert got[0] == ()
            assert all(len(d) in (2, 4) and all(type(x) is int and 0 <= x < 3
                                                for x in d) for d in got[1:])

    @pytest.mark.parametrize("p, f, order", LARGE_CURVES)
    def test_large_prime_anchor(self, p, f, order):
        curve = GenusTwoCurve(p=p, f=f)
        got = self.check(curve)
        P = char_poly_from_counts(count_points(curve, 1),
                                  count_points(curve, 2), p)
        assert len(got) == group_order(P) == order


class TestGroupLaw:
    """Cantor's law on enumerated divisors; structure recovery trusts it."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(curve_and_divisors(1))
    def test_identity(self, drawn):
        c, (d,) = drawn
        assert cantor_add(d, (), c) == d == cantor_add((), d, c)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(curve_and_divisors(1))
    def test_inverse(self, drawn):
        c, (d,) = drawn
        assert cantor_add(d, _GroupLaw(c).neg(d), c) == ()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(curve_and_divisors(2))
    def test_commutative(self, drawn):
        c, (d1, d2) = drawn
        assert cantor_add(d1, d2, c) == cantor_add(d2, d1, c)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(curve_and_divisors(3))
    def test_associative(self, drawn):
        c, (d1, d2, d3) = drawn
        assert (cantor_add(cantor_add(d1, d2, c), d3, c)
                == cantor_add(d1, cantor_add(d2, d3, c), c))

    def test_group_order_kills_every_divisor(self):
        for c, elems in GROUP_LAW:
            N = len(elems)
            assert all(scalar_mul(N, d, c) == () for d in elems)


def resultant(u: tuple[int, int], w: tuple[int, int], p: int) -> int:
    """Res(x² + u1x + u0, w1x + w0) for u = (u1, u0), w = (w1, w0)."""
    (u1, u0), (w1, w0) = u, w
    return (w0 * w0 - u1 * w0 * w1 + u0 * w1 * w1) % p


def doubling_case(d: Key, curve: GenusTwoCurve) -> str:
    """The named case of 2·d, read off d and the generic sum."""
    p = curve.p
    if not d:
        return "zero"
    if len(d) == 2:
        return "tangent" if d[1] else "weierstrass point"
    u1, u0, v1, v0 = d
    if v1 == v0 == 0:
        split = pow(u1 * u1 - 4 * u0, (p - 1) // 2, p) != p - 1
        return "weierstrass pair" if split else "irreducible u, v = 0"
    if resultant((u1, u0), (v1, v0), p) == 0:
        return "point plus weierstrass point"
    if len(compose_reduce(d, d, curve)) == 2:
        return "weight-1 result"
    return "tangent pair" if u1 * u1 % p == 4 * u0 % p else "general"


DOUBLING_CASES = ("zero", "weierstrass point", "tangent", "weierstrass pair",
                  "irreducible u, v = 0", "point plus weierstrass point",
                  "weight-1 result", "tangent pair", "general")


def addition_case(d1: Key, d2: Key, curve: GenusTwoCurve) -> str:
    """The named case of d1 + d2, read off the two divisors."""
    p = curve.p
    if not d1 or not d2:
        return "zero"
    if d1 == d2:
        return "equal"
    if d1 == _GroupLaw(curve).neg(d2):
        return "opposite"
    if len(d1) < len(d2):
        d1, d2 = d2, d1
    if len(d1) == 2:
        return "chord"
    u1, u0, v1, v0 = d1
    if len(d2) == 2:
        b, z = -d2[0] % p, d2[1]
        if (b * b + u1 * b + u0) % p:
            return "point plus pair"
        if (v1 * b + v0 + z) % p == 0:
            return "point cancels"
        return "point tripled" if u1 * u1 % p == 4 * u0 % p else "point lifted"
    w1, w0 = d2[:2]
    if resultant((w1, w0), (u1 - w1, u0 - w0), p):
        return "coprime pairs"
    return ("pairs with the same u" if (u1, u0) == (w1, w0)
            else "pairs with a common root")


ADDITION_CASES = ("zero", "equal", "opposite", "chord", "point plus pair",
                  "point cancels", "point lifted", "point tripled",
                  "coprime pairs", "pairs with the same u",
                  "pairs with a common root")


class TestExplicitLaw:
    """The explicit law against generic Cantor (``compose_reduce``)."""

    @staticmethod
    def check_doublings(curve, reached):
        law = _GroupLaw(curve)
        for d in enumerate_divisors(curve):
            assert law.dbl(d) == compose_reduce(d, d, curve), (curve, d)
            reached[doubling_case(d, curve)] += 1

    def test_every_doubling_at_three(self):
        reached = Counter()
        for c in ALL_P3:
            self.check_doublings(c, reached)
        assert all(reached[case] for case in DOUBLING_CASES), reached

    def test_every_doubling_on_seeded_curves(self):
        reached = Counter()
        rng = random.Random(59)
        for p, n in ((5, 3), (7, 3), (23, 2), (47, 1)):
            for _ in range(n):
                self.check_doublings(random_squarefree_quintic(p, rng), reached)
        assert reached["general"] and reached["weight-1 result"], reached

    def test_every_addition_case(self):
        reached = Counter()
        for c, elems in GROUP_LAW[:6]:  # p = 3 and 5
            law = _GroupLaw(c)
            for d1, d2 in product(elems, repeat=2):
                reached[addition_case(d1, d2, c)] += 1
                assert law.add(d1, d2) == compose_reduce(d1, d2, c)
        assert all(reached[case] for case in ADDITION_CASES), reached

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(curve_and_divisors(2))
    def test_sums_match_generic_cantor(self, drawn):
        c, (d1, d2) = drawn
        assert cantor_add(d1, d2, c) == compose_reduce(d1, d2, c)

    def test_scalar_multiples_match_generic_cantor(self):
        rng = random.Random(61)
        for c, elems in GROUP_LAW:
            for d in rng.sample(elems, min(5, len(elems))):
                acc = ()
                for k in range(1, 12):
                    acc = compose_reduce(acc, d, c)
                    assert scalar_mul(k, d, c) == acc

    def test_negation(self):
        for c, elems in GROUP_LAW:
            law = _GroupLaw(c)
            for d in elems:
                u, v = polys(d)
                assert polys(law.neg(d)) == (u, poly_mod(poly_neg(v, c.p), u, c.p))
                assert compose_reduce(d, law.neg(d), c) == ()

    def test_cantor_add_reads_keys_mod_p(self):
        # x + 4 = x + 1 and v = 3 = 0 over F₃
        assert cantor_add((4, 3), (), C3) == (1, 0)

    @staticmethod
    def remainder_reference(d: Key, curve: GenusTwoCurve) -> tuple[int, int]:
        """f − v² mod u on polynomials, as (r1, r0)."""
        u, v = polys(tuple(c % curve.p for c in d))
        r = poly_mod(poly_sub(curve.f, poly_mul(v, v, curve.p), curve.p),
                     u, curve.p) + (0, 0)
        return r[1], r[0]

    def test_remainder_on_every_key_at_three(self):
        for c in ALL_P3:
            law = _GroupLaw(c)
            for d in product(range(3), repeat=4):
                assert law.remainder(*d) == self.remainder_reference(d, c), (c, d)

    def test_remainder_on_unreduced_keys(self):
        rng = random.Random(67)
        reached = Counter()
        for p in (5, 7, 47):
            for _ in range(3):
                c = random_squarefree_quintic(p, rng)
                law = _GroupLaw(c)
                for _ in range(300):
                    d = tuple(rng.randrange(-2 * p, 2 * p) for _ in range(4))
                    assert law.remainder(*d) == self.remainder_reference(d, c)
                    u1, u0 = d[:2]
                    split = pow(u1 * u1 - 4 * u0, (p - 1) // 2, p) != p - 1
                    reached["reducible u" if split else "irreducible u"] += 1
                    reached["unreduced"] += any(not 0 <= x < p for x in d)
        assert set(reached) == {"reducible u", "irreducible u", "unreduced"}

    def test_tangent_slope_is_the_derivative(self):
        rng = random.Random(71)
        points = 0
        for p in (3, 5, 7, 11, 23, 47):
            for _ in range(3):
                c = random_squarefree_quintic(p, rng)
                law, df = _GroupLaw(c), poly_derivative(c.f, p)
                for a, y in product(range(p), range(1, p)):
                    if y * y % p != poly_eval(c.f, a, p):
                        continue
                    u1, u0, v1, v0 = law.tangent(a, y)
                    assert (u1, u0) == (-2 * a % p, a * a % p)
                    assert 2 * y * v1 % p == poly_eval(df, a, p)
                    assert (v1 * a + v0) % p == y
                    points += 1
        assert points > 200


class TestStructureFromTorsion:
    @staticmethod
    def check(curve):
        """The torsion route against brute-force element orders."""
        g = enumerate_jacobian(curve)
        elems = enumerate_divisors(curve)
        orders = Counter(element_order(d, curve) for d in elems)
        matches = [a for a in abelian_groups(len(elems))
                   if order_histogram(a) == orders]
        assert matches == [g.invariant_factors]
        return g

    def test_non_squarefree_orders_at_three(self):
        curves = [c for c in ALL_P3
                  if any(e > 1 for e in
                         sympy.factorint(len(enumerate_divisors(c))).values())]
        assert len(curves) == 168
        for c in curves:
            self.check(c)

    def test_seeded_curves(self):
        shapes = [self.check(c).invariant_factors
                  for p in (5, 7) for c in nonsquarefree_curves(p, 3)]
        assert any(len(inv) > 1 for inv in shapes)

    def test_squarefree_orders_are_cyclic(self):
        # Z/N is the group with some D of order N: (N/q)·D ≠ 0 for all q | N
        rng = random.Random(79)
        curves = ALL_P3 + [random_squarefree_quintic(p, rng)
                           for p in (5, 7, 23) for _ in range(12)]
        cyclic = Counter()
        for c in curves:
            elems = enumerate_divisors(c)
            N = len(elems)
            primes = sympy.factorint(N)
            if any(e > 1 for e in primes.values()):
                continue
            law = _GroupLaw(c)
            assert enumerate_jacobian(c) == oracle.GroupStructure(
                N, (N,), (c.p,) if N % c.p == 0 else ())
            assert any(all(law.mul(N // q, d) for q in primes)
                       for d in elems), c
            cyclic[c.p] += 1
        assert cyclic == {3: 324 - 168, 5: 3, 7: 4, 23: 5}

    def test_squarefree_orders_need_no_torsion_count(self, monkeypatch):
        rng = random.Random(83)
        curves = [(GenusTwoCurve(p=p, f=f), N) for p, f, N in LARGE_CURVES]
        for p in (5, 7):
            for _ in range(12):
                c = random_squarefree_quintic(p, rng)
                N = len(enumerate_divisors(c))
                if max(sympy.factorint(N).values()) == 1:
                    curves.append((c, N))
        assert len(curves) > 10

        def refuse(*args):
            raise AssertionError("a torsion count for a squarefree order")

        monkeypatch.setattr(oracle, "_torsion_counts", refuse)
        for c, N in curves:
            assert enumerate_jacobian(c).invariant_factors == (N,)

    @pytest.mark.parametrize("factors", [
        (), (9,), (3, 9), (2, 2, 4, 12), (4, 8, 8), (6, 6), (2, 2, 10),
        (5, 25, 100),
    ])
    def test_synthetic_groups(self, factors):
        N = math.prod(factors)
        n_factors = {int(q): e for q, e in sympy.factorint(N).items()}
        torsion = {q: torsion_counts(factors, q, e)
                   for q, e in n_factors.items() if e > 1}
        assert _invariant_factors_from_torsion(n_factors, torsion) == factors

    @pytest.mark.parametrize("n_factors, torsion", [
        ({2: 2}, {2: [2]}),          # never reaches the 2-part 4
        ({2: 2}, {2: []}),
        ({2: 2}, {2: [3, 4]}),       # ratio 3 is not a power of 2
        ({2: 2}, {2: [4, 4]}),       # continues past the 2-part
        ({2: 3}, {2: [2, 8]}),       # more factors of order ≥ 4 than ≥ 2
        ({3: 2}, {3: [0, 9]}),
        ({2: 1, 3: 2}, {3: [9, 27]}),
    ])
    def test_inconsistent_counts(self, n_factors, torsion):
        with pytest.raises(InternalInvariantError):
            _invariant_factors_from_torsion(n_factors, torsion)

    @pytest.mark.parametrize("n_factors, torsion, factors", [
        ({}, {}, ()),
        ({7: 1}, {}, (7,)),
        ({2: 2, 3: 1, 5: 1}, {2: [4]}, (2, 30)),
        ({2: 1, 3: 2, 5: 1}, {3: [3, 9]}, (90,)),
        ({2: 1, 3: 1, 5: 1}, {}, (30,)),
    ])
    def test_squarefree_part_goes_into_the_largest_factor(self, n_factors,
                                                          torsion, factors):
        assert _invariant_factors_from_torsion(n_factors, torsion) == factors

    def test_image_outside_the_enumerated_set(self):
        c = GROUP_LAW[0][0]
        keys = enumerate_divisors(c)
        N = len(keys)
        q = next(q for q in (2, 3, 5, 7) if N % (q * q) == 0)
        assert _torsion_counts(keys, q, 2, _GroupLaw(c))
        with pytest.raises(InternalInvariantError, match="left the enumerated"):
            _torsion_counts(keys[1:], q, 2, _GroupLaw(c))  # no identity

    def test_off_curve_composition(self):
        # v² − f is not divisible by u, so reduction leaves a remainder
        d = (0, 0, 1, 0)  # u = x², v = x
        with pytest.raises(InternalInvariantError):
            compose_reduce(d, d, C3)


def two_torsion_keys(elems: list[Key]) -> int:
    """The number of Keys with v = 0, () included."""
    return sum(1 for d in elems if not any(d[len(d) // 2:]))


class TestTwoTorsion:
    """#G[2], the number of Keys with v = 0, is 2^(m−1) with m the number
    of irreducible factors of f over F_p."""

    @staticmethod
    def sympy_factor_count(curve):
        x = sympy.Symbol("x")
        return len(sympy.Poly(curve.f[::-1], x, modulus=curve.p).factor_list()[1])

    def test_factor_count_matches_sympy(self):
        rng = random.Random(67)
        primes = list(sympy.primerange(5, 48))
        curves = ALL_P3 + [random_squarefree_quintic(primes[i % len(primes)], rng)
                           for i in range(100)]
        for c in curves:
            m = irreducible_factor_count(c.f, c.p)
            assert m == self.sympy_factor_count(c), c
            assert two_torsion_keys(enumerate_divisors(c)) == 2 ** (m - 1), c

    def test_doubling_counts_the_same_two_torsion(self):
        skipped = 0
        for c in ALL_P3:
            elems = enumerate_divisors(c)
            e = sympy.multiplicity(2, len(elems))
            if e < 2:
                continue
            two = two_torsion_keys(elems)
            counts = _torsion_counts(elems, 2, e, _GroupLaw(c))
            assert counts[0] == two == 2 ** (irreducible_factor_count(c.f, 3) - 1)
            skipped += two == 2 ** e
        assert skipped  # where the 2-part is elementary, doubling is skipped

    def test_wrong_factor_count_raises(self, monkeypatch):
        doubling = []  # the curves whose 2-part has order ≥ 4 and is not elementary
        for c in ALL_P3:
            elems = enumerate_divisors(c)
            two_part = 2 ** sympy.multiplicity(2, len(elems))
            if two_part >= 4 and two_part != two_torsion_keys(elems):
                doubling.append(c)
        assert doubling
        # every divisor doubles to 0, so the doubling map's #G[2] is N
        monkeypatch.setattr(_GroupLaw, "dbl", lambda self, d: ())
        for c in doubling:
            with pytest.raises(InternalInvariantError, match="by doubling"):
                enumerate_jacobian(c)


def test_every_exported_name_resolves():
    assert len(set(g2cm.__all__)) == len(g2cm.__all__)
    for name in g2cm.__all__:
        assert getattr(g2cm, name) is not None, name
