"""Brute-force ground truth for genus-2 Jacobians over small prime fields.

Point counts over F_p and F_{p²} recover the Frobenius quartic through
the Weil relations, and full divisor enumeration with the group law
recovers the group order and abelian structure directly.  The
enumeration takes the divisors with split u from chords and tangents
through the F_p-points, and those with irreducible u from a square root
of f mod u in F_p[x]/(u).  The two routes are independent of the CM
machinery and of each other.

A reduced divisor is a ``Key``, a tuple of ints mod p: (u1, u0, v1, v0)
for u = x² + u1x + u0, v = v1x + v0; (u0, v0) for u = x + u0, v = v0;
and () for 0.  It is the one form of a divisor here: the enumeration
emits Keys, and ``cantor_add`` takes and returns them.  The group law is
Cantor's (Cantor 1987) written out on Keys for the degree-5 model
(``_GroupLaw``; Lange 2005 gives such formulas for monic f): doubling
and addition compose, then reduce once.  Every case has an explicit
formula, so there is no generic fallback; the polynomial version of
Cantor's algorithm lives in the tests as the reference.

Polynomials over F_p are plain tuples of ints, low degree first, with
no trailing zeros (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .errors import BudgetExceededError, InternalInvariantError, InvalidCurveError
from .frobenius import FrobeniusPoly
from .primes import factorint, is_prime

Poly = tuple[int, ...]

DEFAULT_BUDGET = 4096

#: Largest p that count_points accepts; k = 2 takes about p²/2 steps.
MAX_COUNT_PRIME = 1000


# ---------------------------------------------------------------- F_p[x]

def _trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_eval(a: Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def poly_derivative(a: Poly, p: int) -> Poly:
    return _trim([i * a[i] % p for i in range(1, len(a))])


def _euclid(r: list[int], s: list[int], p: int) -> list[int]:
    """Euclid on int lists with s[-1] ≠ 0: the last nonzero remainder."""
    while s:
        n = len(s) - 1
        inv = pow(s[n], -1, p)
        while len(r) > n:  # cancel the top of r with a multiple of s
            c = r.pop() * inv % p
            if c:
                k = len(r) - n
                for i in range(n):
                    r[k + i] = (r[k + i] - c * s[i]) % p
        while r and not r[-1]:
            r.pop()
        r, s = s, r
    return r


def poly_gcd(a: Poly, b: Poly, p: int) -> Poly:
    """The monic gcd of a and b, by ``_euclid``."""
    r = _euclid(list(a), list(b), p)
    inv = pow(r[-1], -1, p) if r else 0
    return tuple(c * inv % p for c in r)


def poly_is_squarefree(a: Poly, p: int) -> bool:
    """True iff a has no repeated root: gcd(a′, a) is a nonzero constant."""
    da = [i * a[i] % p for i in range(1, len(a))]  # may end in zeros mod p
    return len(_euclid(da, list(a), p)) == 1


# ------------------------------------------------------------------ curve

def check_odd_prime(p: int) -> None:
    """Raise InvalidCurveError unless p is an odd prime."""
    if p < 3 or not is_prime(p):
        raise InvalidCurveError(f"p must be an odd prime, got {p}")


@dataclass(frozen=True)
class GenusTwoCurve:
    """y² = f(x) over F_p with f squarefree of degree 5 or 6, p odd."""

    p: int
    f: Poly

    def __post_init__(self) -> None:
        if not isinstance(p := self.p, int) or not all(
                [isinstance(c, int) for c in self.f]):
            raise InvalidCurveError("p and the coefficients of f must be ints")
        check_odd_prime(p)
        f = _trim([c % p for c in self.f])
        object.__setattr__(self, "f", f)
        if len(f) - 1 not in (5, 6):
            raise InvalidCurveError(
                f"deg f must be 5 or 6, got {len(f) - 1 if f else '-inf'}"
            )
        if not poly_is_squarefree(f, p):
            raise InvalidCurveError("f has a repeated root over F_p")

    @property
    def degree(self) -> int:
        return len(self.f) - 1


def squarefree_quintic_count(p: int) -> int:
    """The number (p − 1)(p⁵ − p⁴) of squarefree quintics over F_p."""
    return (p - 1) * (p ** 5 - p ** 4)


def random_squarefree_quintics(p: int, count: int, seed: int) -> Iterator[Poly]:
    """count distinct random squarefree quintics over F_p, seeded; a count
    above the (p − 1)(p⁵ − p⁴) that exist raises ValueError."""
    if count > (total := squarefree_quintic_count(p)):
        raise ValueError(f"count must be at most {total}, the squarefree "
                         f"quintics over F_{p}, got {count}")
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        f = tuple(rng.randrange(p) for _ in range(5)) + (rng.randrange(1, p),)
        if f not in seen and poly_is_squarefree(f, p):
            seen.add(f)
            yield f


def all_squarefree_quintics(p: int) -> Iterator[Poly]:
    """Every squarefree quintic over F_p, (p − 1)(p⁵ − p⁴) of them."""
    for tail in itertools.product(range(p), repeat=5):
        for lead in range(1, p):
            f = tail + (lead,)
            if poly_is_squarefree(f, p):
                yield f


@functools.lru_cache(maxsize=16)
def _sqrt_table(p: int) -> tuple[tuple[int, ...], ...]:
    """roots[z] = the y in F_p with y² = z, ascending."""
    roots: list[list[int]] = [[] for _ in range(p)]
    for y in range(p):
        roots[y * y % p].append(y)
    return tuple(map(tuple, roots))


@functools.lru_cache(maxsize=16)
def _square_counts(p: int) -> tuple[int, ...]:
    """s[z] = #{y ∈ F_p : y² = z} = 1 + χ(z)."""
    return tuple(map(len, _sqrt_table(p)))


@functools.lru_cache(maxsize=16)
def _non_residues(p: int) -> tuple[tuple[int, int, int], ...]:
    """(d, d², d³) mod p for the non-residues d of F_p, ascending."""
    roots = _sqrt_table(p)
    return tuple((d, d * d % p, d * d * d % p)
                 for d in range(1, p) if not roots[d])


def _shifted(g0: int, g1: int, g2: int, g3: int, g4: int, g5: int, g6: int,
             p: int) -> tuple[int, ...]:
    """Coefficients of g(s − 1) mod p for g = g0 + g1·s + … + g6·s⁶: the
    21 subtractions of a Taylor shift by 1 (Horner's rule, row by row),
    then one reduction per coefficient."""
    g5 -= g6; g4 -= g5; g3 -= g4; g2 -= g3; g1 -= g2; g0 -= g1
    g5 -= g6; g4 -= g5; g3 -= g4; g2 -= g3; g1 -= g2
    g5 -= g6; g4 -= g5; g3 -= g4; g2 -= g3
    g5 -= g6; g4 -= g5; g3 -= g4
    g5 -= g6; g4 -= g5
    g5 -= g6
    return g0 % p, g1 % p, g2 % p, g3 % p, g4 % p, g5 % p, g6 % p


def count_points(curve: GenusTwoCurve, k: int) -> int:
    """#C(F_{p^k}) for the smooth projective model, k ∈ {1, 2}.

    Both counts are exact sums over F_p with s[z] = #{y ∈ F_p : y² = z}
    = 1 + χ(z).  k = 1 adds s[f(x)] over x ∈ F_p.  For k = 2, z ∈ F_{p²}
    is a square iff its norm z^{p+1} is a square in F_p.  So x ∈ F_p
    gives 2 points, or 1 where f(x) = 0.  The other x come in conjugate
    pairs −h ± √δ, h ∈ F_p and δ a non-residue: the roots of the
    irreducible m = (t + h)² − δ.  Writing f(s − h) = E(s²) + s·O(s²),
    the pair's norm f(x)·f(x̄) = Res(m, f) is E(δ)² − δ·O(δ)², and the
    pair gives 2·s[Res] points.  f(s − h) is held in seven locals, and
    ``_shifted`` steps it to f(s − h − 1): 21 subtractions, then mod p.
    At infinity: one point for deg f = 5; for deg f = 6 the square roots
    of the leading coefficient, two over F_{p²}.  Primes above
    MAX_COUNT_PRIME raise BudgetExceededError.
    """
    p, f = curve.p, curve.f
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    if p > MAX_COUNT_PRIME:
        raise BudgetExceededError(
            f"p = {p} exceeds the point-counting limit {MAX_COUNT_PRIME}"
        )
    s = _square_counts(p)
    # f padded to degree 6; for k = 2 these are f(s − h), from h = 0
    g0, g1, g2, g3, g4, g5, g6 = f if len(f) == 7 else f + (0,)
    if k == 1:  # Horner on the locals, reduced once per x
        total = sum([s[((((((g6 * x + g5) * x + g4) * x + g3) * x + g2) * x
                           + g1) * x + g0) % p] for x in range(p)])
        return total + (s[g6] if g6 else 1)  # at infinity
    powers = _non_residues(p)
    total = 2 if g6 else 1
    for _ in range(p):
        total += (2 if g0 else 1) + 2 * sum([
            s[((g0 + g2 * d + g4 * d2 + g6 * d3) ** 2
               - d * (g1 + g3 * d + g5 * d2) ** 2) % p]
            for d, d2, d3 in powers
        ])
        g0, g1, g2, g3, g4, g5, g6 = _shifted(g0, g1, g2, g3, g4, g5, g6, p)
    return total


def char_poly_from_counts(N1: int, N2: int, p: int) -> FrobeniusPoly:
    """Recover P(X) from #C(F_p) and #C(F_{p²}) via the Weil relations.

    s1 = p + 1 − N1 and s2 = (s1² − (p² + 1 − N2)) / 2 give
    P(X) = X⁴ − s1X³ + s2X² − p·s1·X + p².
    """
    s1 = p + 1 - N1
    twice_s2 = s1 * s1 - (p * p + 1 - N2)
    if twice_s2 % 2 != 0:
        raise InvalidCurveError(
            f"inconsistent counts N1={N1}, N2={N2} (odd 2·s2 = {twice_s2})"
        )
    s2 = twice_s2 // 2
    return FrobeniusPoly(p * p, -p * s1, s2, -s1, p)  # a0, a1, a2, a3, p


# ------------------------------------------------ divisors and group law

#: A reduced divisor as a tuple of ints mod p, by weight: () is 0,
#: (u0, v0) is u = x + u0 with v = v0, and (u1, u0, v1, v0) is
#: u = x² + u1x + u0 with v = v1x + v0.
Key = tuple[int, ...]


@functools.lru_cache(maxsize=16)
def _inverses(p: int) -> tuple[int, ...]:
    """inv[z] = z⁻¹ mod p for z ≠ 0, inv[0] = 0."""
    return (0,) + tuple(pow(z, -1, p) for z in range(1, p))


def _require_degree_five(curve: GenusTwoCurve) -> None:
    """The one check that divisor arithmetic has the degree-5 model."""
    if curve.degree != 5:
        raise InvalidCurveError("divisor arithmetic requires the degree-5 "
                                f"model, got deg f = {curve.degree}")


class _GroupLaw:
    """Explicit doubling and addition of Keys on y² = f, deg f = 5.

    Each sum composes U = u₁u₂ and a V ≡ vᵢ (mod uᵢ) with V² ≡ f (mod U):
    by CRT when the u are coprime, and by a Hensel lift V = v + k·u over a
    common root, as in doubling.  One reduction then gives u′ =
    monic((f − V²)/U) and v′ = −V mod u′ (Cantor 1987; Lange 2005 writes
    the steps out for monic f).  f keeps its leading coefficient f5, and
    every inverse comes from a table.  Every case has its formula: a
    point over a root of u either cancels or is lifted, and two weight-2
    divisors with a common root are added one point at a time.
    """

    __slots__ = ("p", "inv", "f", "inv_f5")

    def __init__(self, curve: GenusTwoCurve) -> None:
        _require_degree_five(curve)
        self.p = curve.p
        self.inv = _inverses(curve.p)
        self.f = curve.f
        self.inv_f5 = self.inv[curve.f[5]]

    def neg(self, d: Key) -> Key:
        p = self.p
        if len(d) == 4:
            return (d[0], d[1], -d[2] % p, -d[3] % p)
        return (d[0], -d[1] % p) if d else ()

    def mul(self, k: int, d: Key) -> Key:
        """k·d for k ≥ 1, by doubling and adding from the top bit."""
        acc = d
        for bit in bin(k)[3:]:
            acc = self.dbl(acc)
            if bit == "1":
                acc = self.add(acc, d)
        return acc

    def tangent(self, a: int, y: int) -> Key:
        """2·(a, y) for y ≠ 0: u = (x − a)², v(a) = y, v′(a) = f′(a)/(2y)."""
        p = self.p
        _, f1, f2, f3, f4, f5 = self.f
        slope = (((5 * f5 * a + 4 * f4) * a + 3 * f3) * a + 2 * f2) * a + f1
        v1 = slope % p * self.inv[2 * y % p] % p
        return (-2 * a % p, a * a % p, v1, (y - v1 * a) % p)

    def quotient(self, u1: int, u0: int, v1: int) -> tuple[int, int, int]:
        """(t2, t1, t0), unreduced, with (f − v²)/u = f5x³ + t2x² + t1x + t0:
        the one division by u = x² + u1x + u0; ``remainder`` has the rest."""
        _, _, f2, f3, f4, f5 = self.f
        t2 = f4 - u1 * f5
        t1 = f3 - u1 * t2 - u0 * f5
        return t2, t1, f2 - v1 * v1 - u1 * t1 - u0 * t2

    def remainder(self, u1: int, u0: int, v1: int, v0: int) -> tuple[int, int]:
        """(r1, r0) mod p with f − v² ≡ r1x + r0 (mod u), from the division
        by u in ``quotient``: f mod u for v = 0, (0, 0) iff v² ≡ f."""
        _, t1, t0 = self.quotient(u1, u0, v1)
        f0, f1, p = self.f[0], self.f[1], self.p
        return ((f1 - 2 * v1 * v0 - u1 * t0 - u0 * t1) % p,
                (f0 - v0 * v0 - u0 * t0) % p)

    def dbl(self, d: Key) -> Key:
        p, inv = self.p, self.inv
        if len(d) == 2:  # a point: 0 at a Weierstrass point, else the tangent
            return self.tangent(-d[0] % p, d[1]) if d[1] else ()
        if not d:
            return ()
        u1, u0, v1, v0 = d
        res = (v0 * v0 - u1 * v0 * v1 + u0 * v1 * v1) % p  # Res(u, v)
        if not res:
            if not (v1 or v0):  # u | f: Weierstrass points, 2-torsion
                return ()
            # v1 ≠ 0 (a nonzero constant has no root), and u splits: d is
            # W + Q with W = (c, 0) and c = −v0/v1, so 2d = 2Q.
            b = (v0 * inv[v1] - u1) % p
            return self.tangent(b, (v1 * b + v0) % p)
        # r = (f − v²)/u mod u, and k = r/(2v) mod u, since
        # (v1x + v0)(−v1x + v0 − u1v1) ≡ Res(u, v)
        f5 = self.f[5]
        t2, t1, t0 = self.quotient(u1, u0, v1)
        s = t2 - u1 * f5
        r1 = (t1 - u0 * f5 - u1 * s) % p
        r0 = (t0 - u0 * s) % p
        w0 = v0 - u1 * v1
        i = inv[2 * res % p]
        k1 = (r1 * w0 - r0 * v1 + u1 * r1 * v1) * i % p
        k0 = (r0 * w0 + u0 * r1 * v1) * i % p
        # V = v + k·u, U = u²
        return self.reduce(2 * u1, u1 * u1 + 2 * u0, k1, k0 + k1 * u1,
                           v1 + k1 * u0 + k0 * u1, v0 + k0 * u0)

    def reduce(self, U3: int, U2: int, V3: int, V2: int, V1: int,
               V0: int) -> Key:
        """(u′, v′) for U = x⁴ + U3x³ + U2x² + … and V = V3x³ + … + V0.

        deg(f − V²) is 6 when V3 ≠ 0 and 5 when V3 = 0, so u′ has degree
        2 or 1; only the top three coefficients of f − V² are needed.
        """
        p, inv = self.p, self.inv
        _, _, _, _, f4, f5 = self.f
        if V3 == 0:
            c = (U3 * f5 + V2 * V2 - f4) * self.inv_f5 % p  # root of u′
            return (-c % p, -((V2 * c + V1) * c + V0) % p)
        q2 = -V3 * V3
        q1 = f5 - 2 * V3 * V2 - U3 * q2
        q0 = f4 - V2 * V2 - 2 * V3 * V1 - U3 * q1 - U2 * q2
        i = inv[V3] ** 2
        a1 = -q1 * i % p
        a0 = -q0 * i % p
        s = V2 - a1 * V3
        return (a1, a0, (a0 * V3 + a1 * s - V1) % p, (a0 * s - V0) % p)

    def add(self, d1: Key, d2: Key) -> Key:
        if not d1:
            return d2
        if not d2:
            return d1
        if len(d1) < len(d2):
            d1, d2 = d2, d1
        p, inv = self.p, self.inv
        if len(d1) == 2:  # two points
            (a0, y), (b0, z) = d1, d2
            if a0 != b0:  # the chord: u = (x + a0)(x + b0)
                v1 = (y - z) * inv[(b0 - a0) % p] % p
                return ((a0 + b0) % p, a0 * b0 % p, v1, (y + v1 * a0) % p)
            return self.dbl(d1) if y == z else ()
        u1, u0, v1, v0 = d1
        if len(d2) == 2:  # d1 plus the point (b, z)
            b0, z = d2
            b = -b0
            ub = (b * b + u1 * b + u0) % p
            vb = (v1 * b + v0) % p
            if ub:  # CRT: V = v + s·u with V(b) = z
                s = (z - vb) * inv[ub] % p
            elif (z + vb) % p == 0:  # d2 cancels d1's point over b
                c = (-u1 - b) % p
                return (-c % p, (v1 * c + v0) % p)
            else:  # d2 is d1's point over b: V = v + s·u with
                # (x − b) | (f − V²)/u = t − 2sv − s²u, so s = t(b)/(2z)
                t2, t1, t0 = self.quotient(u1, u0, v1)
                tb = ((self.f[5] * b + t2) * b + t1) * b + t0
                s = tb * inv[2 * z % p] % p
            # U = (x − b)·u has degree 3 and deg V ≤ 2, so u′ = (f − V²)/(f5·U)
            V1, V0 = v1 + s * u1, v0 + s * u0
            _, _, _, f3, f4, f5 = self.f
            U2, U1 = u1 - b, u0 - b * u1
            q1 = f4 - s * s - U2 * f5
            q0 = f3 - 2 * s * V1 - U2 * q1 - U1 * f5
            a1 = q1 * self.inv_f5 % p
            a0 = q0 * self.inv_f5 % p
            return (a1, a0, (a1 * s - V1) % p, (a0 * s - V0) % p)
        w1, w0, z1, z0 = d2
        # u mod w = e1x + e0 and Res(w, u)
        e1, e0 = u1 - w1, u0 - w0
        res = (e0 * e0 - w1 * e0 * e1 + w0 * e1 * e1) % p
        if res:  # CRT: V = v + s·u with s = (z − v)/u mod w
            g1, g0 = z1 - v1, z0 - v0
            h0 = e0 - w1 * e1
            i = inv[res]
            s1 = (g1 * h0 - g0 * e1 + w1 * g1 * e1) * i % p
            s0 = (g0 * h0 + w0 * g1 * e1) * i % p
            return self.reduce(u1 + w1, u0 + w0 + u1 * w1, s1, s0 + u1 * s1,
                               v1 + u1 * s0 + u0 * s1, v0 + u0 * s0)
        if d1 == d2:
            return self.dbl(d1)
        if d2 == self.neg(d1):
            return ()
        # u and w share a root r in F_p: the root of u − w, or, for u = w,
        # of v − z (v1 ≠ z1, else v − z would be a nonzero constant).  So w
        # splits, d2 = (r, z(r)) + (t, z(t)), and d1 takes one at a time.
        r = (-e0 * inv[e1 % p] if e1 else
             (z0 - v0) * inv[(v1 - z1) % p]) % p
        t = (-w1 - r) % p
        return self.add(self.add(d1, (-r % p, (z1 * r + z0) % p)),
                        (-t % p, (z1 * t + z0) % p))


@functools.lru_cache(maxsize=16)
def _group_law(curve: GenusTwoCurve) -> _GroupLaw:
    """The curve's group law, built once per curve."""
    return _GroupLaw(curve)


def _on_curve(d: Key, law: _GroupLaw) -> bool:
    """d is a tuple of 0, 2 or 4 ints and, read mod p, v² ≡ f (mod u):
    for weight 2, the law's one division by u leaves no remainder."""
    if not isinstance(d, tuple) or len(d) not in (0, 2, 4) or not all(
            isinstance(c, int) for c in d):
        return False
    p = law.p
    if len(d) == 2:  # v0² = f(b) at the root b = −u0
        u0, v0 = d
        return (v0 * v0 - poly_eval(law.f, -u0, p)) % p == 0
    return not d or law.remainder(*d) == (0, 0)


def cantor_add(d1: Key, d2: Key, curve: GenusTwoCurve) -> Key:
    """Group law on Jac(C)(F_p) for the odd-degree (deg f = 5) model.

    Checks that both Keys lie on the curve, then adds them, read mod p,
    with the explicit law that the torsion counts use.
    """
    law = _group_law(curve)
    for d in (d1, d2):
        if not _on_curve(d, law):
            raise InvalidCurveError(f"divisor {d!r} is not a Key on the curve")
    p = curve.p
    return law.add(tuple([c % p for c in d1]), tuple([c % p for c in d2]))


def _v_solutions(u1: int, u0: int, r1: int, r0: int, p: int,
                 roots: Sequence[Sequence[int]],
                 inv: Sequence[int]) -> list[tuple[int, int]]:
    """All (v1, v0) with (v1x + v0)² ≡ r1x + r0 (mod u), u = x² + u1x + u0
    irreducible over F_p: u1² − 4u0 must be a non-residue.

    ``roots`` is ``_sqrt_table(p)`` and ``inv[z]`` the inverse of z ≠ 0.

    With x² ≡ −u1x − u0 the congruence reads
        2·v1·v0 − w·u1 = r1,   v0² − w·u0 = r0,   w = v1².
    v1 = 0 forces r1 = 0 and v0² = r0.  For v1 ≠ 0, v0 = (r1 + w·u1)/(2v1)
    and eliminating v0 leaves (u1² − 4u0)w² + (2·r1·u1 − 4·r0)w + r1² = 0,
    whose leading coefficient is nonzero.  F_p[x]/(u) is a field, so there
    are at most two solutions and none is found twice.
    """
    out = [(0, v0) for v0 in roots[r0]] if r1 == 0 else []
    a = (u1 * u1 - 4 * u0) % p
    b = (2 * r1 * u1 - 4 * r0) % p
    inv_2a = inv[2 * a % p]
    for r in roots[(b * b - 4 * a * r1 * r1) % p]:
        w = (r - b) * inv_2a % p
        for v1 in roots[w]:
            if v1:
                out.append((v1, (r1 + w * u1) * inv[2 * v1 % p] % p))
    return out


def enumerate_divisors(curve: GenusTwoCurve) -> list[Key]:
    """All reduced divisors on a degree-5 curve as Keys, in O(p²) steps.

    A reduced divisor of degree ≤ 2 is 0, a point P, a sum P + Q of
    F_p-points with Q ≠ −P, or a conjugate pair over F_{p²} (Cantor
    1987).  The first three come from the affine points (a, y): u = x − a
    and v = y for P; the chord through P and Q for a ≠ b, with
    u = (x − a)(x − b); the tangent at P for y ≠ 0 (``_GroupLaw.tangent``).
    A double root of u lies in F_p, so the rest are the irreducible
    u = x² + u1x + u0: f mod u is the group law's one division by u,
    ``remainder(u1, u0, 0, 0)``, and ``_v_solutions`` takes the square
    root in F_p[x]/(u).
    """
    law = _group_law(curve)
    p, inv = curve.p, law.inv
    f0, f1, f2, f3, f4, f5 = curve.f
    roots = _sqrt_table(p)
    # the x-coordinates of affine points, each with its y, ascending
    fibres = [(a, ys) for a in range(p) if (ys := roots[
        (((((f5 * a + f4) * a + f3) * a + f2) * a + f1) * a + f0) % p])]
    out: list[Key] = [()]
    for i, (a, ys) in enumerate(fibres):
        for y in ys:
            out.append((-a % p, y))
            if y:
                out.append(law.tangent(a, y))
        for b, zs in fibres[i + 1:]:  # chords from (a, y) to (b, z), a < b
            u1, u0 = (-a - b) % p, a * b % p
            inv_ab = inv[(a - b) % p]
            for y in ys:
                for z in zs:
                    v1 = (y - z) * inv_ab % p
                    out.append((u1, u0, v1, (y - v1 * a) % p))
    inv_4 = inv[4 % p]
    non_residues = _non_residues(p)
    for u1 in range(p):
        for d, _, _ in non_residues:  # u1² − 4u0 = d
            u0 = (u1 * u1 - d) * inv_4 % p
            r1, r0 = law.remainder(u1, u0, 0, 0)  # f mod u
            for v1, v0 in _v_solutions(u1, u0, r1, r0, p, roots, inv):
                out.append((u1, u0, v1, v0))
    return out


@dataclass(frozen=True)
class GroupStructure:
    """Abelian invariants of Jac(C)(F_p).

    invariant_factors is ascending with each factor dividing the next;
    p_sylow_factors are the p-parts for the curve's characteristic.
    """

    order: int
    invariant_factors: tuple[int, ...]
    p_sylow_factors: tuple[int, ...]


def p_sylow_structure(invariant_factors: tuple[int, ...] | list[int],
                      p: int) -> list[int]:
    """p-parts of the invariant factors, trivial parts dropped."""
    out = []
    for n in invariant_factors:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            out.append(q)
    return out


def _torsion_counts(elements: list[Key], q: int, e: int,
                    law: _GroupLaw) -> list[int]:
    """[#G[q], #G[q²], …] up to the first count equal to q^e, at most e.

    Computes D ↦ q·D once per pair ±D, as q·(−D) = −(q·D); the higher
    powers are dict lookups.
    """
    times_q: dict[Key, Key] = {}
    for d in elements:
        if d not in times_q:
            qd = times_q[d] = law.mul(q, d)
            times_q[law.neg(d)] = law.neg(qd)
    if len(times_q) != len(elements) or any(
            d not in times_q for d in times_q.values()):
        raise InternalInvariantError(f"{q}·D left the enumerated set")
    counts: list[int] = []
    images = elements
    while len(counts) < e and (not counts or counts[-1] != q ** e):
        images = [times_q[d] for d in images]
        counts.append(images.count(()))
    return counts


def _invariant_factors_from_torsion(
        n_factors: dict[int, int],
        torsion: dict[int, list[int]]) -> tuple[int, ...]:
    """Invariant factors of the abelian group of order ∏ q^e, ascending.

    ``n_factors`` maps each prime q | N to its exponent e; if every e is
    1, the group is Z/N by CRT.  Otherwise ``torsion[q]`` lists #G[q^k],
    k = 1, 2, …, up to the first equal to q^e, for every q with e ≥ 2.
    The rank log_q(#G[q^k] / #G[q^(k−1)]) is the number of cyclic factors
    of order ≥ q^k, which gives the q-parts; the i-th largest invariant
    factor is the product over q of the i-th largest q-part.
    """
    if max(n_factors.values(), default=1) == 1:  # Z/N by CRT
        return (math.prod(n_factors),) if n_factors else ()
    q_parts = []
    for q, e in n_factors.items():
        counts = torsion.get(q, [q])  # #G[q] = q for e = 1
        logs = [0]  # log_q #G[q^k] for k = 0, 1, …; −1 if not a power of q
        for n in counts:
            k = 0
            while n > 1 and n % q == 0:
                n, k = n // q, k + 1
            logs.append(k if n == 1 else -1)
        ranks = [b - a for a, b in zip(logs, logs[1:])]
        if (logs[-1] != e or not ranks or min(ranks) < 1
                or ranks != sorted(ranks, reverse=True)):
            raise InternalInvariantError(
                f"#G[{q}^k] = {counts} are not the torsion counts "
                f"of an abelian group with {q}-part {q ** e}"
            )
        # the i-th largest cyclic q-factor has order q^#{k : ranks[k] > i}
        q_parts.append([q ** sum(1 for r in ranks if r > i)
                        for i in range(ranks[0])])
    width = max((len(parts) for parts in q_parts), default=0)
    return tuple(sorted(
        math.prod(parts[i] for parts in q_parts if i < len(parts))
        for i in range(width)
    ))


def enumerate_jacobian(curve: GenusTwoCurve,
                       budget: int = DEFAULT_BUDGET) -> GroupStructure:
    """Full group structure of Jac(C)(F_p) by exhaustive enumeration.

    The order is the number of enumerated divisors; a squarefree order is
    read off as Z/N, and otherwise the structure comes from q^k-torsion
    counts for the primes q with q² | N.  #G[2] is the number of Keys
    with v = 0, as −(u, v) = (u, −v mod u) and p is odd; it checks the
    doubling map, and replaces it when the 2-part is elementary.
    Requires the degree-5 model and (√p + 1)⁴ within the budget, checked
    before the group law builds its tables of size p.
    """
    _require_degree_five(curve)
    p = curve.p
    # (√p + 1)^4 <= B  <=>  4(p+1)√p <= B - (p² + 6p + 1), squared exactly
    slack = budget - (p * p + 6 * p + 1)
    if slack < 0 or 16 * (p + 1) ** 2 * p > slack * slack:
        raise BudgetExceededError(
            f"(√{p} + 1)^4 exceeds the enumeration budget {budget}"
        )
    elements = enumerate_divisors(curve)
    N = len(elements)
    n_factors = factorint(N)
    torsion: dict[int, list[int]] = {}
    for q, e in n_factors.items():
        if e < 2:
            continue
        if q == 2:  # D = −D exactly when v = 0
            two = sum(not any(d[len(d) // 2:]) for d in elements)
            if two == 2 ** e:
                torsion[2] = [two]
                continue
        torsion[q] = _torsion_counts(elements, q, e, _group_law(curve))
        if q == 2 and torsion[2][0] != two:
            raise InternalInvariantError(
                f"#G[2] = {torsion[2][0]} by doubling, but {two} "
                f"enumerated divisors have v = 0"
            )
    inv = _invariant_factors_from_torsion(n_factors, torsion)
    return GroupStructure(
        order=N,
        invariant_factors=inv,
        p_sylow_factors=tuple(p_sylow_structure(inv, p)),
    )
