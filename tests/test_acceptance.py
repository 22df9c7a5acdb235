"""Acceptance suite: one test per exit criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on stdout.
"""

from __future__ import annotations

import time

import sympy

from g2cm import (
    FrobeniusElement,
    analyze,
    char_poly_closed,
    char_poly_product,
    char_poly_from_counts,
    count_points,
    enumerate_jacobian,
    group_order,
    lemma1_check,
    validate_field,
    verify_lemma2,
)
from g2cm.oracle import (
    GenusTwoCurve,
    all_squarefree_quintics,
    random_squarefree_quintics,
)


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE PASS criterion {n}: {text}")


def test_criterion_1_lemma2_enumeration():
    start = time.perf_counter()
    report = verify_lemma2()
    elapsed = time.perf_counter() - start
    assert report.counterexamples == ()
    assert len(report.rows) == report.expected_row_count
    assert {(r.p, r.D) for r in report.rows} == {
        (p, D) for p in (2, 3, 5) for D in (2, 3, 5, 13, 17)
    }
    assert elapsed < 1.0, f"lemma2 took {elapsed:.3f}s"
    _report(1, f"{len(report.rows)} rows, 0 counterexamples, "
               f"{elapsed * 1000:.1f} ms")


def test_criterion_2_lemma1_arithmetic():
    for p in sympy.primerange(2, 1000):
        assert lemma1_check(p) == (p > 5), p
    scanned = 0
    for p in sympy.primerange(7, 100):
        lo = (p ** 0.5 - 1) ** 4
        hi = (p ** 0.5 + 1) ** 4
        n = (int(lo) // 4) * 4
        while n < lo:
            n += 4
        while n <= hi:
            assert n % (p * p) != 0, (p, n)
            scanned += 1
            n += 4
    _report(2, f"lemma1_check exact for p < 1000; {scanned} Weil-interval "
               "multiples of 4 scanned, none divisible by p²")


def test_criterion_3_closed_form_product_agreement(frobenius_grid):
    for case in frobenius_grid:
        w = FrobeniusElement(*case.c, case.field)
        product_poly = char_poly_product(w)
        closed_poly = char_poly_closed(case.p, case.c[0], case.c[1],
                                       case.field.D)
        assert product_poly == closed_poly, case
    _report(3, f"closed form == conjugate product on all "
               f"{len(frobenius_grid)} grid cases")


def test_criterion_4_four_divides_order_at_odd_p(frobenius_grid):
    odd = 0
    for case in frobenius_grid:
        if case.p == 2:
            continue  # the factored form is odd² − 4c2²D ≡ 1 (mod 4) there
        odd += 1
        N = group_order(char_poly_closed(case.p, case.c[0], case.c[1],
                                         case.field.D))
        assert N % 4 == 0, case
    _report(4, f"4 | P(1) on all {odd} odd-p grid cases (p = 2 excluded)")


def test_criterion_5_theorem_on_grid(frobenius_grid):
    checked = 0
    for case in frobenius_grid:
        if case.c[1] == 0:
            continue  # analyze rejects c2 = 0 by contract
        verdict = analyze(case.field, FrobeniusElement(*case.c, case.field))
        assert verdict.sylow_order in (1, verdict.p), case
        assert verdict.theorem_holds
        checked += 1
    _report(5, f"sylow_order ∈ {{1, p}} on all {checked} grid cases")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for p, curves in [
        (3, list(all_squarefree_quintics(3))),
        (5, list(random_squarefree_quintics(5, 50, seed=5))),
        (7, list(random_squarefree_quintics(7, 50, seed=7))),
    ]:
        for f in curves:
            curve = GenusTwoCurve(p=p, f=f)
            order = enumerate_jacobian(curve).order
            P = char_poly_from_counts(count_points(curve, 1),
                                      count_points(curve, 2), p)
            assert order == group_order(P), (p, f, order, P)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _report(6, f"{checked} curves (F₃ exhaustive, 50 each over F₅/F₇), "
               f"order == P(1) everywhere, {elapsed:.1f}s")


def test_criterion_7_concrete_anchor():
    field = validate_field(2, 2, 1)
    w = FrobeniusElement(1, 1, 2, -1, field)
    verdict = analyze(field, w)
    poly = char_poly_product(w)
    assert verdict.p == 7
    assert tuple(reversed(poly.coeffs)) == (1, -4, 10, -28, 49)
    assert verdict.N == 28
    assert verdict.sylow_order == 7
    curve = GenusTwoCurve(p=3, f=(1, 0, 0, 0, 0, 1))
    g = enumerate_jacobian(curve)
    assert g.order == 10
    assert g.p_sylow_factors == ()
    _report(7, "CM anchor gives p=7, N=28, Sylow 7; y²=x⁵+1/F₃ gives "
               "order 10 with trivial 3-Sylow")
