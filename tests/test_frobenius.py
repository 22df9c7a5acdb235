"""Characteristic polynomial construction and the Weil conditions."""

from __future__ import annotations

import itertools
import math
import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from g2cm import (
    FrobeniusElement,
    FrobeniusPoly,
    char_poly_closed,
    char_poly_product,
    group_order,
    validate_field,
    weil_validate,
)
from g2cm.cm_field import is_squarefree
from g2cm.errors import NormNotPrimeError


def coeffs_desc(P: FrobeniusPoly) -> tuple[int, ...]:
    return tuple(reversed(P.coeffs))


def quartic(p: int, a3: int, a2: int) -> FrobeniusPoly:
    """X⁴ + a3X³ + a2X² + a3pX + p², the shape of a Frobenius quartic."""
    return FrobeniusPoly(a0=p * p, a1=a3 * p, a2=a2, a3=a3, p=p)


class TestCharPolyClosed:
    def test_branch_23(self):
        P = char_poly_closed(7, 1, 1, 2)
        assert coeffs_desc(P) == (1, -4, 10, -28, 49)

    def test_branch_23_c2_zero(self):
        P = char_poly_closed(3, -1, 0, 2)
        assert coeffs_desc(P) == (1, 4, 10, 12, 9)

    def test_branch_1(self):
        P = char_poly_closed(11, 1, 1, 5)
        assert coeffs_desc(P) == (1, -6, 26, -66, 121)

    def test_rejects_composite_p(self):
        with pytest.raises(NormNotPrimeError):
            char_poly_closed(6, 1, 1, 2)


class TestCharPolyProduct:
    def test_anchor(self):
        f = validate_field(2, 2, 1)
        w = FrobeniusElement(1, 1, 2, -1, f)
        assert char_poly_product(w) == char_poly_closed(7, 1, 1, 2)

    def test_rational_omega_rejected(self):
        # ωω̄ = c1², never prime
        f = validate_field(2, 2, 1)
        with pytest.raises(NormNotPrimeError):
            char_poly_product(FrobeniusElement(3, 0, 0, 0, f))

    def test_c2_sign_flip_same_poly(self):
        f = validate_field(2, 2, 1)
        w = FrobeniusElement(1, -1, 0, 1, f)
        assert char_poly_product(w) == char_poly_closed(7, 1, 1, 2)

    def test_non_rational_norm_rejected(self):
        f = validate_field(2, 2, 1)
        with pytest.raises(NormNotPrimeError):
            char_poly_product(FrobeniusElement(0, 0, 1, 0, f))


class TestGroupOrder:
    def test_anchor(self):
        assert group_order(char_poly_closed(7, 1, 1, 2)) == 28

    def test_zero_trace_f3(self):
        P = FrobeniusPoly(a0=9, a1=0, a2=0, a3=0, p=3)
        assert group_order(P) == 10

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_zero_trace_general(self, p):
        P = FrobeniusPoly(a0=p * p, a1=0, a2=0, a3=0, p=p)
        assert group_order(P) == p * p + 1

    def test_weil_interval(self):
        p = 7
        P = char_poly_closed(p, 1, 1, 2)
        N = group_order(P)
        assert (p ** 0.5 - 1) ** 4 <= N <= (p ** 0.5 + 1) ** 4


class TestWeilValidate:
    def test_anchor_passes(self):
        assert weil_validate(char_poly_closed(7, 1, 1, 2)).all_ok()

    def test_zero_trace_passes(self):
        assert weil_validate(FrobeniusPoly(a0=9, a1=0, a2=0, a3=0, p=3)).all_ok()

    def test_wrong_constant_term(self):
        report = weil_validate(FrobeniusPoly(a0=1, a1=0, a2=0, a3=0, p=3))
        assert not report.constant_term_ok
        assert not report.all_ok()

    def test_grid_product_polys_pass(self, frobenius_grid):
        """Every P(X) of the grid is a Weil polynomial, c2 = 0 included."""
        for case in frobenius_grid:
            w = FrobeniusElement(*case.c, case.field)
            assert weil_validate(char_poly_product(w)).all_ok(), case

    @pytest.mark.parametrize("p", [2, 3, 7, 199])
    def test_repeated_roots_pass(self, p):
        # (X² − p)², roots ±√p: h(t) = t² − 4p has roots ±2√p, the ends
        assert weil_validate(quartic(p, 0, -2 * p)).all_ok()
        # (X² + p)², roots ±i√p: h(t) = t², a double root at 0
        assert weil_validate(quartic(p, 0, 2 * p)).all_ok()

    def test_double_root_of_h(self):
        # 4a2 = a3² + 8p: P = (X² − X + 7)², h(t) = (t − 1)²
        assert weil_validate(quartic(7, -2, 15)).root_moduli_ok
        # one more and h(t) = t² − 2t + 2 has no real root
        assert not weil_validate(quartic(7, -2, 16)).root_moduli_ok

    def test_below_the_lower_bound(self):
        # X⁴ − 15X² + 49: h(t) = t² − 29 has roots ±√29 beyond ±2√7
        assert not weil_validate(quartic(7, 0, -15)).root_moduli_ok

    @pytest.mark.parametrize("a3", [6, -6])
    def test_trace_just_above_the_bound(self, a3):
        # |a3| = 6 > 4√2 while the other two conditions hold with
        # equality: P = (X ± 1)²(X ± 2)², roots of modulus 1 and 2.
        report = weil_validate(quartic(2, a3, 13))
        assert report.constant_term_ok and report.functional_equation_ok
        assert not report.root_moduli_ok

    def test_broken_functional_equation_fails_moduli(self):
        # roots all of modulus √p would force a1 = a3·p
        P = FrobeniusPoly(a0=49, a1=-27, a2=10, a3=-4, p=7)
        report = weil_validate(P)
        assert not report.functional_equation_ok
        assert not report.root_moduli_ok

    def test_agrees_with_numpy_on_separated_roots(self):
        import numpy as np

        rng = random.Random(2024)
        primes = list(sympy.primerange(2, 400))
        verdicts = []
        while len(verdicts) < 2000:
            p = rng.choice(primes)
            bound = 4 * math.isqrt(p) + 3
            a3, a2 = rng.randint(-bound, bound), rng.randint(-3 * p, 4 * p)
            roots = np.roots([1, a3, a2, a3 * p, p * p])
            gap = min(abs(x - y) for x, y in itertools.combinations(roots, 2))
            if gap < 1e-3 * p ** 0.5:
                continue  # near-repeated roots: floats cannot decide
            numeric = all(abs(abs(r) ** 2 - p) <= 1e-6 * p for r in roots)
            exact = weil_validate(quartic(p, a3, a2)).root_moduli_ok
            assert exact == numeric, (p, a3, a2)
            verdicts.append(exact)
        assert 200 < sum(verdicts) < 1800


def test_factored_order_identities_symbolically():
    """P(1) equals the factored forms driving the p ≤ 5 enumeration."""
    p, c1, c2, D, c = sympy.symbols("p c1 c2 D c")
    # D ≡ 2,3 branch
    P1 = 1 - 4 * c1 + (2 * p + 4 * (c1 ** 2 - c2 ** 2 * D)) - 4 * c1 * p + p ** 2
    assert sympy.expand(P1 - ((1 + p - 2 * c1) ** 2 - 4 * c2 ** 2 * D)) == 0
    # D ≡ 1 branch, c = 2c1 + c2
    P1 = 1 - 2 * c + (2 * p + c ** 2 - c2 ** 2 * D) - 2 * c * p + p ** 2
    assert sympy.expand(P1 - ((1 + p - c) ** 2 - c2 ** 2 * D)) == 0


def test_min_poly_coefficients_symbolically():
    """(P, Q) of X⁴ + PX² + Q match expanding η⁴, η² over {1, √D}."""
    a, b, D = sympy.symbols("a b D", positive=True)
    for xi, expected_P, expected_Q in [
        (sympy.sqrt(D), 2 * a, a ** 2 - b ** 2 * D),
        ((1 + sympy.sqrt(D)) / 2, 2 * a + b,
         a ** 2 + a * b - b ** 2 * (D - 1) / 4),
    ]:
        t = a + b * xi
        tbar = t.subs(sympy.sqrt(D), -sympy.sqrt(D))
        # min poly of η = i√t over Q: (X² + t)(X² + t̄) = X⁴ + Tr(t)X² + N(t)
        assert sympy.expand(t + tbar - expected_P) == 0
        assert sympy.expand(t * tbar - expected_Q) == 0


def test_norm_matches_constant_term(frobenius_grid):
    """N_{K/Q}(ω) = N_{K0/Q}(ωω̄), the constant term of the quartic."""
    from g2cm import relative_norm

    for case in frobenius_grid[::7]:
        w = FrobeniusElement(*case.c, case.field)
        assert relative_norm(w).norm() == char_poly_product(w).a0


def test_product_matches_numeric_conjugate_expansion(frobenius_grid):
    """Exact coefficients equal the rounded numeric ∏(X − ωᵢ) expansion."""
    import numpy as np

    from conftest import embeddings

    for case in frobenius_grid[::17]:
        w = FrobeniusElement(*case.c, case.field)
        exact = char_poly_product(w)
        numeric = np.poly(list(embeddings(w)))  # high degree first
        rounded = tuple(int(round(c.real)) for c in reversed(numeric))
        assert rounded == exact.coeffs
        assert max(abs(c.imag) for c in numeric) < 1e-8


SMALL_PRIMES = list(sympy.primerange(3, 200))
SQUAREFREE = [d for d in range(2, 30) if is_squarefree(d)]


@given(
    p=st.sampled_from(SMALL_PRIMES),
    c1=st.integers(-20, 20),
    c2=st.integers(-20, 20),
    D=st.sampled_from(SQUAREFREE),
)
def test_functional_equation_and_divisibility(p, c1, c2, D):
    P = char_poly_closed(p, c1, c2, D)
    assert P.a0 == p * p
    assert P.a1 == P.a3 * p
    # the paper-level observation: 4 | P(1) at odd p, both branches
    assert group_order(P) % 4 == 0
