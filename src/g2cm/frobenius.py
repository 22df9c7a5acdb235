"""Characteristic polynomial of the Frobenius and the group order P(1).

Two independent routes produce the monic quartic P(X):

* :func:`char_poly_closed` evaluates the closed form in (p, c1, c2, D),
  one formula per D mod 4 branch;
* :func:`char_poly_product` expands ∏(X − ωᵢ) over the four conjugates
  of ω via exact symmetric functions in Z + ξZ.

Their agreement over the whole parameter grid is a core test of the
package.  The Jacobian group order is N = P(1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cm_field import FrobeniusElement, relative_norm, xi_square_rule
from .errors import InternalInvariantError, NormNotPrimeError
from .primes import is_prime


@dataclass(frozen=True)
class FrobeniusPoly:
    """Monic integer quartic P(X) = X⁴ + a3X³ + a2X² + a1X + a0, a0 = p²."""

    a0: int
    a1: int
    a2: int
    a3: int
    p: int

    @property
    def coeffs(self) -> tuple[int, int, int, int, int]:
        """Coefficients low degree first, constant term to X⁴."""
        return (self.a0, self.a1, self.a2, self.a3, 1)

    def __call__(self, x: int) -> int:
        return x ** 4 + self.a3 * x ** 3 + self.a2 * x ** 2 + self.a1 * x + self.a0

    def __str__(self) -> str:
        return (
            f"X^4{self.a3:+d}X^3{self.a2:+d}X^2{self.a1:+d}X{self.a0:+d}"
        )


def char_poly_closed(p: int, c1: int, c2: int, D: int) -> FrobeniusPoly:
    """P(X) from the closed form in (p, c1, c2, D); p must be prime."""
    if not is_prime(p):
        raise NormNotPrimeError(f"p = {p} is not prime")
    return closed_form(p, c1, c2, D)


def closed_form(p: int, c1: int, c2: int, D: int) -> FrobeniusPoly:
    """char_poly_closed for a p already proven prime, e.g. by char_poly_product.

    D ≡ 2, 3 (mod 4):
        X⁴ − 4c1X³ + (2p + 4(c1² − c2²D))X² − 4c1pX + p²
    D ≡ 1 (mod 4), with c = 2c1 + c2:
        X⁴ − 2cX³ + (2p + c² − c2²D)X² − 2cpX + p²
    """
    xi_square_rule(D)  # validates D
    if D % 4 == 1:
        c = 2 * c1 + c2
        a3 = -2 * c
        a2 = 2 * p + c * c - c2 * c2 * D
    else:
        a3 = -4 * c1
        a2 = 2 * p + 4 * (c1 * c1 - c2 * c2 * D)
    return FrobeniusPoly(a0=p * p, a1=a3 * p, a2=a2, a3=a3, p=p)


def char_poly_product(w: FrobeniusElement) -> FrobeniusPoly:
    """P(X) = ∏(X − ωᵢ) via exact symmetric functions in Z + ξZ.

    With α = c1 + c2ξ, the conjugate pairs (ω, ω̄) and (ω₃, ω̄₃)
    contribute, one per real place of K0, the pair sum 2α and pair product
    ωω̄ = p.  The elementary symmetric functions are then

        e1 = 2·Tr(α),  e2 = 2p + 4·N(α),  e3 = 2p·Tr(α),  e4 = p²,

    all rational integers by construction.
    """
    nrm = relative_norm(w)
    if not nrm.is_rational() or not is_prime(nrm.x):
        raise NormNotPrimeError(
            f"relative norm ωω̄ = {nrm} is not a rational prime"
        )
    p = nrm.x
    alpha = w.alpha()
    tr = alpha.trace()
    e1 = 2 * tr
    e2 = 2 * p + 4 * alpha.norm()
    e3 = 2 * p * tr
    e4 = p * p
    poly = FrobeniusPoly(a0=e4, a1=-e3, a2=e2, a3=-e1, p=p)
    if poly.a1 != poly.a3 * p:
        raise InternalInvariantError(
            f"functional equation violated for {poly}"
        )
    return poly


def group_order(P: FrobeniusPoly) -> int:
    """|Jac(C)(F_p)| = P(1)."""
    return P(1)


@dataclass(frozen=True)
class WeilReport:
    """The Weil conditions on a candidate Frobenius quartic, decided exactly."""

    constant_term_ok: bool
    functional_equation_ok: bool
    root_moduli_ok: bool

    def all_ok(self) -> bool:
        return self.root_moduli_ok  # which needs the other two


def weil_validate(P: FrobeniusPoly) -> WeilReport:
    """Check the Weil conditions on P, on integers only.

    Constant term p², the functional equation a1 = a3·p, and every root
    of modulus √p, which forces both.  Given them, P(X) = X²·h(X + p/X)
    with h(t) = t² + a3·t + a2 − 2p, and the roots lie on |z| = √p iff
    h has both roots in [−2√p, 2√p] (Rück 1990; Maisner–Nart 2002):
    |a3| ≤ 4√p and 2|a3|√p − 2p ≤ a2 ≤ a3²/4 + 2p, squared here.
    """
    p, a2, a3 = P.p, P.a2, P.a3
    constant_term_ok = P.a0 == p * p
    functional_equation_ok = P.a1 == a3 * p
    lower = a2 + 2 * p
    return WeilReport(
        constant_term_ok=constant_term_ok,
        functional_equation_ok=functional_equation_ok,
        root_moduli_ok=(
            constant_term_ok
            and functional_equation_ok
            and a3 * a3 <= 16 * p
            and 4 * a2 <= a3 * a3 + 8 * p
            and lower >= 0
            and lower * lower >= 4 * a3 * a3 * p
        ),
    )
