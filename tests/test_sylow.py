"""Sylow pipeline, the exact bound check, and the p ≤ 5 enumeration."""

from __future__ import annotations

import pytest
import sympy

from g2cm import (
    FrobeniusElement,
    analyze,
    char_poly_closed,
    char_poly_product,
    coefficient_bounds,
    frobenius,
    group_order,
    lemma1_check,
    p_adic_valuation,
    primes,
    validate_field,
)
from g2cm.cm_field import is_squarefree
from g2cm.errors import CoefficientC2ZeroError, NormNotPrimeError, NotPrimitiveError
from g2cm.sylow import (
    DISCRIMINANTS_1,
    DISCRIMINANTS_23,
    SMALL_PRIMES,
    _largest_scaled_root,
    order_from_factored_form,
)


class TestPAdicValuation:
    @pytest.mark.parametrize("N,p,v", [(28, 7, 1), (10, 3, 0), (49, 7, 2),
                                       (1, 2, 0), (8, 2, 3)])
    def test_examples(self, N, p, v):
        assert p_adic_valuation(N, p) == v

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            p_adic_valuation(0, 3)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            p_adic_valuation(12, 4)


class TestLemma1Check:
    def test_seven(self):
        assert lemma1_check(7)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_small_primes_fail(self, p):
        assert not lemma1_check(p)

    def test_matches_float_inequality(self):
        for p in sympy.primerange(2, 200):
            assert lemma1_check(p) == ((1 + p ** 0.5) ** 4 < 4 * p * p)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            lemma1_check(9)


class TestCoefficientBounds:
    def test_p5_d2(self):
        b = coefficient_bounds(5, 2)
        assert (b.c1_min, b.c1_max) == (-2, 2)
        assert (b.c2_min, b.c2_max) == (-1, 1)

    def test_p3_d3(self):
        b = coefficient_bounds(3, 3)
        assert (b.c1_min, b.c1_max) == (-1, 1)
        assert (b.c2_min, b.c2_max) == (-1, 1)

    def test_p5_d13(self):
        b = coefficient_bounds(5, 13)
        assert (b.c2_min, b.c2_max) == (-1, 1)

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            coefficient_bounds(7, 2)

    def test_largest_scaled_root_brute_force(self):
        for D in range(1, 41):
            k = -1  # largest k with k²·D ≤ M, as M walks up from −5
            for M in range(-5, 2001):
                while (k + 1) ** 2 * D <= M:
                    k += 1
                assert _largest_scaled_root(M, D) == k, (M, D)


def _discriminants_admitting_c2(branches: tuple[int, ...]) -> tuple[int, ...]:
    """Squarefree D ≤ 100 with D mod 4 in branches where some p ≤ 5 allows c2 ≠ 0."""
    return tuple(D for D in range(2, 101)
                 if D % 4 in branches and is_squarefree(D)
                 and any(coefficient_bounds(p, D).c2_max > 0 for p in SMALL_PRIMES))


class TestMaxDiscriminant:
    """verify_lemma2 walks exactly the discriminants where c2 ≠ 0 fits."""

    def test_branch_23(self):
        assert _discriminants_admitting_c2((2, 3)) == DISCRIMINANTS_23

    def test_branch_1(self):
        assert _discriminants_admitting_c2((1,)) == DISCRIMINANTS_1

    def test_p2_effective_filter(self):
        # c2² D ≤ 2 with c2 ≠ 0 forces D = 2 on the 2,3-branch
        b3 = coefficient_bounds(2, 3)
        assert (b3.c2_min, b3.c2_max) == (0, 0)
        b2 = coefficient_bounds(2, 2)
        assert b2.c2_max == 1


class TestVerifyLemma2:
    def test_no_counterexamples(self, lemma2_report):
        assert lemma2_report.holds()
        assert lemma2_report.counterexamples == ()

    def test_row_count_matches_ranges(self, lemma2_report):
        assert len(lemma2_report.rows) == lemma2_report.expected_row_count

    def test_rows_sorted(self, lemma2_report):
        keys = [(r.p, r.D, r.c1, r.c2) for r in lemma2_report.rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_known_nonprimitive_row(self, lemma2_report):
        row = next(r for r in lemma2_report.rows
                   if (r.p, r.D, r.c1, r.c2) == (3, 2, -1, 0))
        assert row.N == 36
        assert row.div_p2
        assert not row.is_counterexample()

    def test_known_primitive_row(self, lemma2_report):
        row = next(r for r in lemma2_report.rows
                   if (r.p, r.D, r.c1, r.c2) == (5, 2, 1, 1))
        assert row.N == 8
        assert p_adic_valuation(8, 5) == 0

    def test_factored_form_matches_closed_form(self, lemma2_report):
        for r in lemma2_report.rows:
            assert r.N == group_order(char_poly_closed(r.p, r.c1, r.c2, r.D))

    def test_factored_form_helper(self):
        assert order_from_factored_form(5, 1, 1, 2) == 8
        assert order_from_factored_form(3, -1, 0, 2) == 36


class TestAnalyze:
    def test_anchor(self):
        f = validate_field(2, 2, 1)
        verdict = analyze(f, FrobeniusElement(1, 1, 2, -1, f))
        assert (verdict.p, verdict.N, verdict.sylow_order) == (7, 28, 7)
        assert verdict.v == 1
        assert verdict.theorem_holds

    def test_keeps_char_poly_and_tests_p_once(self, monkeypatch):
        f = validate_field(2, 2, 1)
        w = FrobeniusElement(1, 1, 2, -1, f)
        tested = []

        def counting(n):
            tested.append(n)
            return primes.is_prime(n)

        monkeypatch.setattr(frobenius, "is_prime", counting)
        verdict = analyze(f, w)
        assert tested == [7]  # in char_poly_product, not again for v_p
        assert verdict.char_poly == char_poly_product(w)

    def test_not_primitive(self):
        f = validate_field(2, 1, 0)
        with pytest.raises(NotPrimitiveError):
            analyze(f, FrobeniusElement(1, 1, 1, 1, f))

    def test_c2_zero_precedes_norm(self):
        f = validate_field(2, 2, 1)
        with pytest.raises(CoefficientC2ZeroError):
            analyze(f, FrobeniusElement(1, 0, 1, 0, f))

    def test_norm_not_prime(self):
        f = validate_field(2, 2, 1)
        with pytest.raises(NormNotPrimeError):
            analyze(f, FrobeniusElement(1, 1, 0, 0, f))

    def test_primitivity_precedes_c2(self):
        f = validate_field(2, 1, 0)
        with pytest.raises(NotPrimitiveError):
            analyze(f, FrobeniusElement(1, 0, 1, 0, f))


def test_lemma1_consequence_weil_scan():
    """For 5 < p < 100 no multiple of 4 in the Weil interval hits p²."""
    for p in sympy.primerange(7, 100):
        lo = (p ** 0.5 - 1) ** 4
        hi = (p ** 0.5 + 1) ** 4
        n = (int(lo) // 4) * 4
        while n < lo:
            n += 4
        while n <= hi:
            assert n % (p * p) != 0, (p, n)
            n += 4
