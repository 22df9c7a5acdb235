"""Exact arithmetic in the real quadratic ring Z + ξZ and quartic CM fields.

The ring element ξ depends on the squarefree parameter D:

    ξ = √D            if D ≡ 2, 3 (mod 4),
    ξ = (1 + √D) / 2   if D ≡ 1 (mod 4),

so ξ² = D in the first case and ξ² = ξ + (D − 1)/4 in the second.
A quartic CM field is K = Q(η) with η = i√(a + bξ); its real subfield
is K0 = Q(√D).  All arithmetic is exact over plain Python integers;
the module has no floating point.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .errors import (
    DomainMismatchError,
    InvalidDiscriminantError,
    NotTotallyImaginaryError,
    ReducibleQuarticError,
)
from .primes import factorint


def is_squarefree(n: int) -> bool:
    """True iff n > 0 has no repeated prime factor (trial division)."""
    return n > 0 and all(e == 1 for e in factorint(n).values())


#: Largest accepted D.  It bounds the trial division in is_squarefree
#: to √D / 2 ≈ 5000 steps.
MAX_DISCRIMINANT = 10 ** 8


@functools.lru_cache(maxsize=1024)
def _check_discriminant(D: int) -> None:
    """Reject D unless it is a squarefree integer in (1, MAX_DISCRIMINANT].

    Every RealQuadElem and every product checks its D, so a valid D is
    cached; an exception is never cached, so a bad D raises every time.
    """
    if D > MAX_DISCRIMINANT:
        raise InvalidDiscriminantError(
            f"D must be at most {MAX_DISCRIMINANT}, got {D}"
        )
    if D <= 1 or not is_squarefree(D):
        raise InvalidDiscriminantError(
            f"D must be a squarefree integer > 1, got {D}"
        )


def xi_square_rule(D: int) -> tuple[int, int]:
    """Coefficients (q0, q1) with ξ² = q0 + q1·ξ.

    Returns (D, 0) when D ≡ 2, 3 (mod 4) and ((D − 1)/4, 1) when
    D ≡ 1 (mod 4).
    """
    _check_discriminant(D)
    if D % 4 == 1:
        return ((D - 1) // 4, 1)
    return (D, 0)


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@dataclass(frozen=True)
class RealQuadElem:
    """An element x + y·ξ of the ring of integers of Q(√D)."""

    x: int
    y: int
    D: int

    def __post_init__(self) -> None:
        _check_discriminant(self.D)

    def _require_same_ring(self, other: RealQuadElem) -> None:
        if self.D != other.D:
            raise DomainMismatchError(
                f"mixed discriminants: {self.D} vs {other.D}"
            )

    def __add__(self, other: RealQuadElem) -> RealQuadElem:
        self._require_same_ring(other)
        return RealQuadElem(self.x + other.x, self.y + other.y, self.D)

    def __sub__(self, other: RealQuadElem) -> RealQuadElem:
        self._require_same_ring(other)
        return RealQuadElem(self.x - other.x, self.y - other.y, self.D)

    def __neg__(self) -> RealQuadElem:
        return RealQuadElem(-self.x, -self.y, self.D)

    def __mul__(self, other: RealQuadElem) -> RealQuadElem:
        self._require_same_ring(other)
        q0, q1 = xi_square_rule(self.D)
        yy = self.y * other.y
        x = self.x * other.x + yy * q0
        y = self.x * other.y + self.y * other.x + yy * q1
        return RealQuadElem(x, y, self.D)

    def conjugate(self) -> RealQuadElem:
        """The Galois conjugation ξ ↦ ξ′ of Q(√D), applied coefficient-wise.

        ξ′ = −ξ for D ≡ 2, 3 (mod 4) and ξ′ = 1 − ξ for D ≡ 1 (mod 4).
        """
        if self.D % 4 == 1:
            return RealQuadElem(self.x + self.y, -self.y, self.D)
        return RealQuadElem(self.x, -self.y, self.D)

    def trace(self) -> int:
        """Tr(u) = u + u′, a rational integer."""
        if self.D % 4 == 1:
            return 2 * self.x + self.y
        return 2 * self.x

    def norm(self) -> int:
        """N(u) = u·u′, a rational integer."""
        q0, _ = xi_square_rule(self.D)
        if self.D % 4 == 1:
            return self.x * self.x + self.x * self.y - self.y * self.y * q0
        return self.x * self.x - self.y * self.y * q0

    def is_rational(self) -> bool:
        return self.y == 0

    def is_totally_positive(self) -> bool:
        """u > 0 and u′ > 0 (both real places of Q(√D)), decided exactly."""
        t = self.trace()
        # t/2 +- (y/2)√disc > 0 for both signs <=> t > 0 and t² > y²·disc
        disc = self.D if self.D % 4 == 1 else 4 * self.D
        return t > 0 and t * t > self.y * self.y * disc

    def __str__(self) -> str:
        return f"{self.x}{self.y:+}ξ  (D={self.D})"


class GaloisType(enum.Enum):
    BIQUADRATIC = "Biquadratic"
    CYCLIC = "Cyclic"
    NON_GALOIS = "NonGalois"


@dataclass(frozen=True)
class CMFieldParams:
    """Validated parameters (D, a, b) of the quartic CM field Q(i√(a + bξ)).

    Construct through :func:`validate_field`, which checks total
    positivity of a + bξ and classifies the Galois type.
    """

    D: int
    a: int
    b: int
    galois_type: GaloisType

    def primitive(self) -> bool:
        return self.galois_type is not GaloisType.BIQUADRATIC

    def eta_squared_negated(self) -> RealQuadElem:
        """The totally positive element a + bξ (equal to −η²)."""
        return RealQuadElem(self.a, self.b, self.D)

    def min_poly_coeffs(self) -> tuple[int, int]:
        """(P, Q) with X⁴ + P·X² + Q the quartic polynomial of η.

        P = Tr(a + bξ) and Q = N(a + bξ); spelled out per D mod 4:
        P = 2a, Q = a² − b²D for D ≡ 2, 3 (mod 4), and P = 2a + b,
        Q = a² + ab − b²(D − 1)/4 for D ≡ 1 (mod 4).
        """
        t = self.eta_squared_negated()
        return (t.trace(), t.norm())


def _classify_trinomial(P: int, Q: int) -> GaloisType:
    """Galois type of an irreducible X⁴ + P·X² + Q over Q.

    V4 iff Q is a square; C4 iff Q·(P² − 4Q) is a nonzero square;
    dihedral (here: NonGalois) otherwise.
    """
    if is_perfect_square(Q):
        return GaloisType.BIQUADRATIC
    m = Q * (P * P - 4 * Q)
    if m != 0 and is_perfect_square(m):
        return GaloisType.CYCLIC
    return GaloisType.NON_GALOIS


def _trinomial_is_reducible(P: int, Q: int) -> bool:
    """Whether X⁴ + P·X² + Q factors over Q.

    Either it splits into two quadratics in X² (P² − 4Q a square) or
    as (X² + uX + s)(X² − uX + s) with s² = Q and u² = ±2s − P.
    """
    if is_perfect_square(P * P - 4 * Q):
        return True
    if is_perfect_square(Q):
        s = math.isqrt(Q)
        for t in (2 * s - P, -2 * s - P):
            if t > 0 and is_perfect_square(t):
                return True
    return False


def validate_field(D: int, a: int, b: int) -> CMFieldParams:
    """Validate (D, a, b) and classify the resulting quartic CM field.

    Raises invalid-discriminant, not-totally-imaginary (a + bξ is not
    totally positive, so i√(a + bξ) is not totally imaginary) or
    reducible-quartic.  b = 0 is legal; it always yields a biquadratic
    (non-primitive) field since then Q = a² is a square.
    """
    _check_discriminant(D)
    t = RealQuadElem(a, b, D)
    if not t.is_totally_positive():
        raise NotTotallyImaginaryError(
            f"a + bξ = {t} is not totally positive, so η is not totally imaginary"
        )
    P, Q = t.trace(), t.norm()
    # For b = 0 the quartic degenerates to (X² + a)²; the field
    # K0(i√a) is still a degree-4 biquadratic field, so it is accepted.
    if b != 0 and _trinomial_is_reducible(P, Q):
        raise ReducibleQuarticError(
            f"X⁴ + {P}X² + {Q} is reducible over Q, so [K:Q] < 4"
        )
    return CMFieldParams(D=D, a=a, b=b, galois_type=_classify_trinomial(P, Q))


@dataclass(frozen=True)
class FrobeniusElement:
    """ω = (c1 + c2ξ) + (c3 + c4ξ)η in the order Z[ξ] + Z[ξ]η of K."""

    c1: int
    c2: int
    c3: int
    c4: int
    field: CMFieldParams

    def alpha(self) -> RealQuadElem:
        return RealQuadElem(self.c1, self.c2, self.field.D)

    def beta(self) -> RealQuadElem:
        return RealQuadElem(self.c3, self.c4, self.field.D)


def relative_norm(w: FrobeniusElement) -> RealQuadElem:
    """ω·ω̄ = α² + β²·(a + bξ), exactly in Z + ξZ.

    For ω to act as a p-power Frobenius this must equal the rational
    prime p (ξ-coordinate zero)."""
    alpha = w.alpha()
    beta = w.beta()
    return alpha * alpha + beta * beta * w.field.eta_squared_negated()

