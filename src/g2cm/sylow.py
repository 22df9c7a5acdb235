"""p-Sylow analysis of the Jacobian order N = P(1).

Contains the full pipeline verdict (:func:`analyze`), the exact
integer form of the small-prime bound check (:func:`lemma1_check`),
and the exhaustive characteristic p ≤ 5 case enumeration
(:func:`verify_lemma2`).  Every inequality involving a square root is
decided on squared integers; no floating point touches any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cm_field import CMFieldParams, FrobeniusElement
from .errors import CoefficientC2ZeroError, NotPrimitiveError
from .frobenius import FrobeniusPoly, char_poly_product, group_order
from .primes import is_prime

SMALL_PRIMES = (2, 3, 5)

#: Admissible discriminants per branch once c2 ≠ 0 is imposed:
#: c2²D ≤ p ≤ 5 forces D ≤ 5 on the D ≡ 2,3 branch and
#: c2²D ≤ 4p ≤ 20 forces D ≤ 20 on the D ≡ 1 branch.
DISCRIMINANTS_23 = (2, 3)
DISCRIMINANTS_1 = (5, 13, 17)


def p_adic_valuation(N: int, p: int) -> int:
    """Largest v with p^v | N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _valuation(N, p)


def _valuation(N: int, p: int) -> int:
    """p_adic_valuation for N ≥ 1 and a p already known to be prime."""
    v = 0
    while N % p == 0:
        N //= p
        v += 1
    return v


def lemma1_check(p: int) -> bool:
    """True iff (1 + √p)⁴ < 4p², decided exactly.

    Chain: (1 + √p)⁴ < 4p² ⟺ (1 + √p)² < 2p ⟺ 2√p < p − 1
    ⟺ 4p < (p − 1)², i.e. p² − 6p + 1 > 0.  Holds for every prime
    p > 5 and fails for p ∈ {2, 3, 5}; it is what makes 4 | N rule
    out p² | N at large p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p * p - 6 * p + 1 > 0


def _largest_scaled_root(M: int, D: int) -> int:
    """Largest k >= 0 with k²·D <= M, or -1 when even k = 0 fails."""
    if M < 0:
        return -1
    return isqrt(M // D)  # k²·D ≤ M ⟺ k² ≤ ⌊M/D⌋


@dataclass(frozen=True)
class CoefficientBounds:
    """Inclusive rectangular ranges for (c1, c2) in the enumeration."""

    c1_min: int
    c1_max: int
    c2_min: int
    c2_max: int

    def pairs(self):
        for c1 in range(self.c1_min, self.c1_max + 1):
            for c2 in range(self.c2_min, self.c2_max + 1):
                yield c1, c2

    def count(self) -> int:
        return (self.c1_max - self.c1_min + 1) * (self.c2_max - self.c2_min + 1)


def coefficient_bounds(p: int, D: int) -> CoefficientBounds:
    """Squared-integer coefficient ranges for characteristic p ≤ 5.

    D ≡ 2, 3 (mod 4): |c1|² ≤ p and c2²·D ≤ p.
    D ≡ 1 (mod 4): c2²·D ≤ 4p, and c1 ranges over the rectangle
    covering both sign readings of the linear bound |2c1 ± c2| ≤ 2√p,
    i.e. the largest c1 with (2c1 − c2_max)² ≤ 4p.
    """
    if p not in SMALL_PRIMES:
        raise ValueError(f"p must be one of {SMALL_PRIMES}, got {p}")
    if D % 4 == 1:
        c2m = _largest_scaled_root(4 * p, D)
        c1m = 0
        while (2 * (c1m + 1) - c2m) ** 2 <= 4 * p:
            c1m += 1
    else:
        c1m = _largest_scaled_root(p, 1)
        c2m = _largest_scaled_root(p, D)
    return CoefficientBounds(c1_min=-c1m, c1_max=c1m, c2_min=-c2m, c2_max=c2m)


def order_from_factored_form(p: int, c1: int, c2: int, D: int) -> int:
    """N = P(1) via the factored identities.

    (1 + p − 2c1)² − 4c2²D on the D ≡ 2, 3 branch and
    (1 + p − c)² − c2²D with c = 2c1 + c2 on the D ≡ 1 branch;
    both expand the closed-form P at X = 1.
    """
    if D % 4 == 1:
        c = 2 * c1 + c2
        return (1 + p - c) ** 2 - c2 * c2 * D
    return (1 + p - 2 * c1) ** 2 - 4 * c2 * c2 * D


@dataclass(frozen=True)
class Lemma2Row:
    p: int
    D: int
    branch: int
    c1: int
    c2: int
    N: int
    div_p: bool
    div_p2: bool

    def is_counterexample(self) -> bool:
        return self.c2 != 0 and self.div_p2


@dataclass(frozen=True)
class Lemma2Report:
    """Outcome of the exhaustive p ≤ 5 enumeration.

    counterexamples lists rows with c2 ≠ 0 and p² | N; the claim under
    verification is that it is empty.  Rows with c2 = 0 and p² | N are
    retained but excluded (they force a non-primitive field).
    """

    rows: tuple[Lemma2Row, ...]
    counterexamples: tuple[Lemma2Row, ...]
    expected_row_count: int

    def holds(self) -> bool:
        return not self.counterexamples


def verify_lemma2() -> Lemma2Report:
    """Enumerate every admissible (p, D, c1, c2) and check p² ∤ N.

    Enumerates (c1, c2) only: N depends on nothing else, so requiring
    a completing (c3, c4) would only shrink the set — this checks a
    superset of the realizable cases.
    """
    rows = []
    expected = 0
    for p in SMALL_PRIMES:
        for D in DISCRIMINANTS_23 + DISCRIMINANTS_1:
            branch = D % 4
            bounds = coefficient_bounds(p, D)
            expected += bounds.count()
            for c1, c2 in bounds.pairs():
                N = order_from_factored_form(p, c1, c2, D)
                rows.append(
                    Lemma2Row(
                        p=p,
                        D=D,
                        branch=branch,
                        c1=c1,
                        c2=c2,
                        N=N,
                        div_p=N % p == 0,
                        div_p2=N % (p * p) == 0,
                    )
                )
    rows.sort(key=lambda r: (r.p, r.D, r.c1, r.c2))
    return Lemma2Report(
        rows=tuple(rows),
        counterexamples=tuple(r for r in rows if r.is_counterexample()),
        expected_row_count=expected,
    )


@dataclass(frozen=True)
class SylowVerdict:
    p: int
    N: int
    v: int
    sylow_order: int
    theorem_holds: bool
    char_poly: FrobeniusPoly


def analyze(field: CMFieldParams, w: FrobeniusElement) -> SylowVerdict:
    """Full pipeline: norm → P(X) → N = P(1) → v_p(N); the verdict keeps P(X).

    Error precedence is fixed: primitivity of the field, then c2 ≠ 0,
    then primality of the relative norm, which char_poly_product checks.
    """
    if not field.primitive():
        raise NotPrimitiveError(
            f"field (D={field.D}, a={field.a}, b={field.b}) is biquadratic"
        )
    if w.c2 == 0:
        raise CoefficientC2ZeroError(
            "c2 = 0 forces a biquadratic (non-primitive) CM field"
        )
    poly = char_poly_product(w)  # proves p = ωω̄ prime
    N = group_order(poly)  # ≥ (√p − 1)⁴ > 0
    v = _valuation(N, poly.p)
    return SylowVerdict(
        p=poly.p,
        N=N,
        v=v,
        sylow_order=poly.p ** v,
        theorem_holds=v <= 1,
        char_poly=poly,
    )
