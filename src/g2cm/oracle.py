"""Brute-force ground truth for genus-2 Jacobians over small prime fields.

Point counts over F_p and F_{p²} recover the Frobenius quartic through
the Weil relations, and full divisor enumeration with Cantor's group
law recovers the group order and abelian structure directly.  The
enumeration takes the divisors with split u from chords and tangents
through the F_p-points, and those with irreducible u from a square root
of f mod u in F_p[x]/(u).  The two routes are independent of the CM
machinery and of each other.

Polynomials over F_p are plain tuples of ints, low degree first, with
no trailing zeros (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
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


def poly_add(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def poly_neg(a: Poly, p: int) -> Poly:
    return tuple((-c) % p for c in a)


def poly_sub(a: Poly, b: Poly, p: int) -> Poly:
    return poly_add(a, poly_neg(b, p), p)


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_divmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
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


def poly_mod(a: Poly, b: Poly, p: int) -> Poly:
    return poly_divmod(a, b, p)[1]


def poly_monic(a: Poly, p: int) -> Poly:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def poly_gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, poly_mod(a, b, p)
    return poly_monic(a, p)


def poly_xgcd(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly, Poly]:
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
        inv = pow(r0[-1], p - 2, p)
        scale = (inv,)
        r0 = poly_mul(scale, r0, p)
        s0 = poly_mul(scale, s0, p)
        t0 = poly_mul(scale, t0, p)
    return r0, s0, t0


def poly_eval(a: Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def poly_derivative(a: Poly, p: int) -> Poly:
    return _trim([i * a[i] % p for i in range(1, len(a))])


def poly_is_squarefree(a: Poly, p: int) -> bool:
    """True iff a has no repeated root over the algebraic closure of F_p."""
    return len(poly_gcd(a, poly_derivative(a, p), p)) == 1


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
        check_odd_prime(self.p)
        f = _trim([c % self.p for c in self.f])
        object.__setattr__(self, "f", f)
        if len(f) - 1 not in (5, 6):
            raise InvalidCurveError(
                f"deg f must be 5 or 6, got {len(f) - 1 if f else '-inf'}"
            )
        if not poly_is_squarefree(f, self.p):
            raise InvalidCurveError("f has a repeated root over F_p")

    @property
    def degree(self) -> int:
        return len(self.f) - 1


def random_squarefree_quintics(p: int, count: int, seed: int) -> Iterator[Poly]:
    """count distinct random squarefree quintics over F_p, seeded."""
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


def _sqrt_table(p: int) -> list[list[int]]:
    """roots[z] = the y in F_p with y² = z, ascending."""
    roots: list[list[int]] = [[] for _ in range(p)]
    for y in range(p):
        roots[y * y % p].append(y)
    return roots


def _shifted(f: Poly, h: int, p: int) -> list[int]:
    """Coefficients of f(s − h), low degree first (Taylor shift by Horner)."""
    g = list(f)
    for i in range(len(g) - 1):
        for j in range(len(g) - 2, i - 1, -1):
            g[j] = (g[j] - h * g[j + 1]) % p
    return g


def count_points(curve: GenusTwoCurve, k: int) -> int:
    """#C(F_{p^k}) for the smooth projective model, k ∈ {1, 2}.

    Both counts are exact sums over F_p with s[z] = #{y ∈ F_p : y² = z}
    = 1 + χ(z).  k = 1 adds s[f(x)] over x ∈ F_p.  For k = 2, z ∈ F_{p²}
    is a square iff its norm z^{p+1} is a square in F_p.  So x ∈ F_p
    gives 2 points, or 1 where f(x) = 0.  The other x come in conjugate
    pairs −h ± √δ, h ∈ F_p and δ a non-residue: the roots of the
    irreducible m = (t + h)² − δ.  Writing f(s − h) = E(s²) + s·O(s²),
    the pair's norm f(x)·f(x̄) = Res(m, f) is E(δ)² − δ·O(δ)², and the
    pair gives 2·s[Res] points.  At infinity: one point for deg f = 5;
    for deg f = 6 the square roots of the leading coefficient, two over
    F_{p²}.  Primes above MAX_COUNT_PRIME raise BudgetExceededError.
    """
    p, f = curve.p, curve.f
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    if p > MAX_COUNT_PRIME:
        raise BudgetExceededError(
            f"p = {p} exceeds the point-counting limit {MAX_COUNT_PRIME}"
        )
    s = [len(r) for r in _sqrt_table(p)]
    if k == 1:
        total = sum(s[poly_eval(f, x, p)] for x in range(p))
        return total + (1 if curve.degree == 5 else s[f[-1]])
    powers = [(d, d * d % p, d * d * d % p) for d in range(1, p) if not s[d]]
    total = 1 if curve.degree == 5 else 2
    pad = (0,) * (6 - curve.degree)
    for h in range(p):
        g0, g1, g2, g3, g4, g5, g6 = _shifted(f + pad, h, p)
        total += (2 if g0 else 1) + 2 * sum([
            s[((g0 + g2 * d + g4 * d2 + g6 * d3) ** 2
               - d * (g1 + g3 * d + g5 * d2) ** 2) % p]
            for d, d2, d3 in powers
        ])
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
    return FrobeniusPoly(a0=p * p, a1=-p * s1, a2=s2, a3=-s1, p=p)


# --------------------------------------------------------- Mumford/Cantor

@dataclass(frozen=True)
class MumfordDivisor:
    """Reduced divisor (u, v) with u monic, deg u ≤ 2, v² ≡ f (mod u)."""

    u: Poly
    v: Poly

    def is_identity(self) -> bool:
        return self.u == (1,)


IDENTITY = MumfordDivisor(u=(1,), v=())


def _on_curve(d: MumfordDivisor, curve: GenusTwoCurve) -> bool:
    if not d.u or d.u[-1] != 1 or len(d.u) - 1 > 2:
        return False
    if len(d.v) >= len(d.u):
        return False
    vv = poly_mul(d.v, d.v, curve.p)
    return poly_mod(poly_sub(vv, curve.f, curve.p), d.u, curve.p) == ()


def _check_exact(rem: Poly) -> None:
    if rem:
        raise InternalInvariantError(f"Cantor division left remainder {rem}")


def _compose_reduce(d1: MumfordDivisor, d2: MumfordDivisor,
                    curve: GenusTwoCurve) -> MumfordDivisor:
    p, f = curve.p, curve.f
    u1, v1 = d1.u, d1.v
    u2, v2 = d2.u, d2.v
    # composition (Cantor): d = s1·u1 + s2·u2 + s3·(v1 + v2)
    d0, e1, e2 = poly_xgcd(u1, u2, p)
    d, c1, c2 = poly_xgcd(d0, poly_add(v1, v2, p), p)
    s1 = poly_mul(c1, e1, p)
    s2 = poly_mul(c1, e2, p)
    s3 = c2
    u, rem = poly_divmod(poly_mul(u1, u2, p), poly_mul(d, d, p), p)
    _check_exact(rem)
    num = poly_add(
        poly_add(poly_mul(s1, poly_mul(u1, v2, p), p),
                 poly_mul(s2, poly_mul(u2, v1, p), p), p),
        poly_mul(s3, poly_add(poly_mul(v1, v2, p), f, p), p), p)
    v, rem = poly_divmod(num, d, p)
    _check_exact(rem)
    v = poly_mod(v, u, p)
    # reduction to deg u <= 2
    while len(u) - 1 > 2:
        u, rem = poly_divmod(poly_sub(f, poly_mul(v, v, p), p), u, p)
        _check_exact(rem)
        u = poly_monic(u, p)
        v = poly_mod(poly_neg(v, p), u, p)
    return MumfordDivisor(u=poly_monic(u, p), v=v)


def cantor_add(d1: MumfordDivisor, d2: MumfordDivisor,
               curve: GenusTwoCurve) -> MumfordDivisor:
    """Group law on Jac(C)(F_p) for the odd-degree (deg f = 5) model."""
    if curve.degree != 5:
        raise InvalidCurveError(
            "divisor arithmetic requires the degree-5 model"
        )
    for d in (d1, d2):
        if not _on_curve(d, curve):
            raise InvalidCurveError(f"divisor (u={d.u}, v={d.v}) not on curve")
    return _compose_reduce(d1, d2, curve)


def cantor_neg(d: MumfordDivisor, curve: GenusTwoCurve) -> MumfordDivisor:
    return MumfordDivisor(u=d.u, v=poly_mod(poly_neg(d.v, curve.p), d.u, curve.p))


def _scalar_mul(k: int, d: MumfordDivisor, curve: GenusTwoCurve) -> MumfordDivisor:
    acc = IDENTITY
    base = d
    while k:
        if k & 1:
            # base is reduced, so identity + base needs no composition
            acc = base if acc.is_identity() else _compose_reduce(acc, base, curve)
        k >>= 1
        if k:
            base = _compose_reduce(base, base, curve)
    return acc


def _v_solutions(u1: int, u0: int, r1: int, r0: int, p: int,
                 roots: list[list[int]], inv: list[int]) -> list[tuple[int, int]]:
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


def _linear(v0: int, v1: int) -> Poly:
    """v1x + v0 as a trimmed Poly."""
    return (v0, v1) if v1 else (v0,) if v0 else ()


def enumerate_divisors(curve: GenusTwoCurve) -> list[MumfordDivisor]:
    """All reduced Mumford divisors on a degree-5 curve, in O(p²) steps.

    A reduced divisor of degree ≤ 2 is 0, a point P, a sum P + Q of
    F_p-points with Q ≠ −P, or a conjugate pair over F_{p²} (Cantor
    1987).  The first three come from the affine points (a, y): u = x − a
    and v = y for P; the chord through P and Q for a ≠ b, with
    u = (x − a)(x − b); the tangent at P for y ≠ 0, with u = (x − a)²,
    v(a) = y and v′(a) = f′(a)/(2y).  A double root of u lies in F_p, so
    the rest are the irreducible u = x² + u1x + u0: f is reduced mod u
    and ``_v_solutions`` takes the square root in F_p[x]/(u).
    """
    p, f = curve.p, curve.f
    roots = _sqrt_table(p)
    inv = [0] + [pow(z, -1, p) for z in range(1, p)]
    # the x-coordinates of affine points, each with its y, ascending
    fibres = [(a, ys) for a in range(p) if (ys := roots[poly_eval(f, a, p)])]
    df = poly_derivative(f, p)
    out = [IDENTITY]
    for i, (a, ys) in enumerate(fibres):
        for y in ys:
            out.append(MumfordDivisor(u=((-a) % p, 1), v=_linear(y, 0)))
            if y:  # tangent at (a, y)
                v1 = poly_eval(df, a, p) * inv[2 * y % p] % p
                out.append(MumfordDivisor(u=(a * a % p, -2 * a % p, 1),
                                          v=_linear((y - v1 * a) % p, v1)))
        for b, zs in fibres[i + 1:]:  # chords from (a, y) to (b, z), a < b
            u = (a * b % p, (-a - b) % p, 1)
            inv_ab = inv[(a - b) % p]
            for y in ys:
                for z in zs:
                    v1 = (y - z) * inv_ab % p
                    out.append(MumfordDivisor(u=u, v=_linear((y - v1 * a) % p, v1)))
    top = tuple(reversed(f))
    inv_4 = inv[4 % p]
    non_residues = [d for d in range(1, p) if not roots[d]]
    for u1 in range(p):
        for d in non_residues:  # u1² − 4u0 = d
            u0 = (u1 * u1 - d) * inv_4 % p
            # f mod u by Horner on r = r1x + r0:
            #   r·x + c ≡ (r0 − r1u1)x + (c − r1u0)
            r1 = r0 = 0
            for c in top:
                r1, r0 = (r0 - r1 * u1) % p, (c - r1 * u0) % p
            u = (u0, u1, 1)
            for v1, v0 in _v_solutions(u1, u0, r1, r0, p, roots, inv):
                out.append(MumfordDivisor(u=u, v=_linear(v0, v1)))
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


def _torsion_counts(elements: list[MumfordDivisor], q: int, e: int,
                    curve: GenusTwoCurve) -> list[int]:
    """[#G[q], #G[q²], …] up to the first count equal to q^e, at most e.

    Computes D ↦ q·D once per element; the higher powers are dict lookups.
    """
    times_q = {d: _scalar_mul(q, d, curve) for d in elements}
    if any(d not in times_q for d in times_q.values()):
        raise InternalInvariantError(f"{q}·D left the enumerated set")
    counts: list[int] = []
    images = elements
    while len(counts) < e and (not counts or counts[-1] != q ** e):
        images = [times_q[d] for d in images]
        counts.append(sum(1 for d in images if d.is_identity()))
    return counts


def _invariant_factors_from_torsion(
        n_factors: dict[int, int],
        torsion: dict[int, list[int]]) -> tuple[int, ...]:
    """Invariant factors of the abelian group of order ∏ q^e, ascending.

    ``n_factors`` maps each prime q | N to its exponent e.  ``torsion[q]``
    lists #G[q^k] for k = 1, 2, … for every q with e ≥ 2, ending at the
    first #G[q^k] = q^e; a prime with e = 1 contributes Z/q.  The rank
    log_q(#G[q^k] / #G[q^(k−1)]) is the number of cyclic factors of
    order ≥ q^k, which gives the q-parts of the factors; the i-th largest
    invariant factor is the product over q of the i-th largest q-part.
    """
    q_parts = []
    for q, e in n_factors.items():
        logs = [0]  # log_q #G[q^k] for k = 0, 1, …; −1 if not a power of q
        for n in (torsion[q] if e > 1 else [q]):
            k = 0
            while n > 1 and n % q == 0:
                n, k = n // q, k + 1
            logs.append(k if n == 1 else -1)
        ranks = [b - a for a, b in zip(logs, logs[1:])]
        if (logs[-1] != e or not ranks or min(ranks) < 1
                or ranks != sorted(ranks, reverse=True)):
            raise InternalInvariantError(
                f"#G[{q}^k] = {torsion.get(q, [q])} are not the torsion counts "
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

    The order is the number of enumerated divisors; the structure comes
    from q^k-torsion counts for the primes q with q² | N, so a squarefree
    order costs no group operation.  Requires the degree-5 model and
    (√p + 1)⁴ within the budget.
    """
    if curve.degree != 5:
        raise InvalidCurveError(
            "full enumeration requires the degree-5 model"
        )
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
    torsion = {q: _torsion_counts(elements, q, e, curve)
               for q, e in n_factors.items() if e > 1}
    inv = _invariant_factors_from_torsion(n_factors, torsion)
    return GroupStructure(
        order=N,
        invariant_factors=inv,
        p_sylow_factors=tuple(p_sylow_structure(inv, p)),
    )
