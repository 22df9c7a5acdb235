"""Shared fixtures, including the full (field, ω) verification grid.

The grid covers every primitive validated field with D ≤ 20 and
|a|, |b| ≤ 8, and every ω with |c_i| ≤ 6 whose relative norm
α² + β²·(a + bξ) is a rational prime, computed exactly in Z + ξZ.
Also the float reference :func:`embeddings`, which the package itself
never uses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import pytest

from g2cm import CMFieldParams, FrobeniusElement, RealQuadElem, validate_field
from g2cm.cm_field import is_squarefree
from g2cm.errors import G2CMError
from g2cm.primes import is_prime

GRID_D_MAX = 20
GRID_AB_MAX = 8
GRID_C_MAX = 6

SQUAREFREE_D = [d for d in range(2, GRID_D_MAX + 1) if is_squarefree(d)]


def iter_validated_fields(ab_max: int = GRID_AB_MAX, d_max: int = GRID_D_MAX):
    for D in range(2, d_max + 1):
        if not is_squarefree(D):
            continue
        for a in range(-ab_max, ab_max + 1):
            for b in range(-ab_max, ab_max + 1):
                try:
                    yield validate_field(D, a, b)
                except G2CMError:
                    continue


@dataclass(frozen=True)
class GridCase:
    field: CMFieldParams
    c: tuple[int, int, int, int]
    p: int


def _build_grid() -> list[GridCase]:
    """Every (c1, c2, c3, c4) with α² + β²·(a + bξ) a rational prime.

    The β terms are bucketed by ξ-coordinate, so only the pairs whose
    norm has ξ-coordinate 0 are formed; cases come in (α, β) order.
    """
    c_range = range(-GRID_C_MAX, GRID_C_MAX + 1)
    pairs = [(i, j) for i in c_range for j in c_range]
    cases = []
    for field in iter_validated_fields():
        if not field.primitive():
            continue
        t = field.eta_squared_negated()
        squares = [RealQuadElem(i, j, field.D) * RealQuadElem(i, j, field.D)
                   for i, j in pairs]
        beta_by_y: dict[int, list[tuple[tuple[int, int], int]]] = {}
        for beta, sq in zip(pairs, squares):
            term = sq * t
            beta_by_y.setdefault(term.y, []).append((beta, term.x))
        for alpha, sq in zip(pairs, squares):
            for beta, x in beta_by_y.get(-sq.y, ()):
                p = sq.x + x
                if is_prime(p):
                    cases.append(GridCase(field=field, c=alpha + beta, p=p))
    return cases


def embeddings(w: FrobeniusElement) -> tuple[complex, complex, complex, complex]:
    """The four complex conjugates (ω1, ω̄1, ω3, ω̄3) of ω, in floats.

    A test-only reference, accurate to about 1e-15 per step.
    """
    out = []
    for sqrt_d in (math.sqrt(w.field.D), -math.sqrt(w.field.D)):
        xi = (1 + sqrt_d) / 2 if w.field.D % 4 == 1 else sqrt_d
        eta = 1j * cmath.sqrt(w.field.a + w.field.b * xi)
        w1 = (w.c1 + w.c2 * xi) + (w.c3 + w.c4 * xi) * eta
        out += [w1, w1.conjugate()]
    return tuple(out)


@pytest.fixture(scope="session")
def frobenius_grid() -> list[GridCase]:
    grid = _build_grid()
    assert grid, "verification grid unexpectedly empty"
    return grid


@pytest.fixture(scope="session")
def lemma2_report():
    from g2cm import verify_lemma2

    return verify_lemma2()
