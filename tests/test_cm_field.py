"""Ring arithmetic in Z + ξZ and CM field validation/classification."""

from __future__ import annotations

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols
from sympy.polys.numberfields.galoisgroups import galois_group

from g2cm import (
    FrobeniusElement,
    GaloisType,
    RealQuadElem,
    relative_norm,
    validate_field,
    xi_square_rule,
)
from g2cm import cm_field
from g2cm.cm_field import MAX_DISCRIMINANT, is_squarefree
from g2cm.errors import (
    DomainMismatchError,
    InvalidDiscriminantError,
    NotTotallyImaginaryError,
)
from conftest import embeddings, iter_validated_fields

SQUAREFREE_SMALL = [d for d in range(2, 51) if is_squarefree(d)]

coords = st.integers(min_value=-100, max_value=100)
discs = st.sampled_from(SQUAREFREE_SMALL)


@st.composite
def rq_triples(draw):
    D = draw(discs)
    mk = lambda: RealQuadElem(draw(coords), draw(coords), D)
    return mk(), mk(), mk()


class TestXiSquareRule:
    def test_d2(self):
        assert xi_square_rule(2) == (2, 0)

    def test_d5(self):
        assert xi_square_rule(5) == (1, 1)

    @pytest.mark.parametrize("bad", [4, 1, 0, -3, 12, 18, 25])
    def test_invalid(self, bad):
        with pytest.raises(InvalidDiscriminantError):
            xi_square_rule(bad)

    def test_bounded(self):
        below = next(d for d in range(MAX_DISCRIMINANT, 1, -1) if is_squarefree(d))
        above = next(d for d in count(MAX_DISCRIMINANT + 1) if is_squarefree(d))
        assert xi_square_rule(below)[0] in (below, (below - 1) // 4)
        with pytest.raises(InvalidDiscriminantError, match="at most"):
            xi_square_rule(above)


class TestDiscriminantCheckCache:
    D = 99_999_998  # squarefree, so trial division runs to √D / 2

    @pytest.fixture
    def trial_divisions(self, monkeypatch):
        runs = []

        def counting(n):
            runs.append(n)
            return is_squarefree(n)

        monkeypatch.setattr(cm_field, "is_squarefree", counting)
        cm_field._check_discriminant.cache_clear()
        yield runs
        cm_field._check_discriminant.cache_clear()

    def test_once_per_discriminant(self, trial_divisions):
        u = RealQuadElem(3, 1, self.D)
        v = u
        for _ in range(20):
            v = (v * u - u).conjugate()
            assert u.norm() == 9 - self.D
        assert xi_square_rule(self.D) == (self.D, 0)
        assert trial_divisions == [self.D]

    def test_bad_discriminant_raises_every_time(self, trial_divisions):
        for _ in range(3):
            with pytest.raises(InvalidDiscriminantError):
                RealQuadElem(1, 1, 99_999_999)  # 9 · 11111111
        assert trial_divisions == [99_999_999] * 3


class TestRingArithmetic:
    def test_xi_squared_d2(self):
        xi = RealQuadElem(0, 1, 2)
        assert xi * xi == RealQuadElem(2, 0, 2)

    def test_xi_squared_d5(self):
        xi = RealQuadElem(0, 1, 5)
        assert xi * xi == RealQuadElem(1, 1, 5)

    def test_difference_of_squares(self):
        # (1 + √2)(1 − √2) = −1
        u = RealQuadElem(1, 1, 2)
        v = RealQuadElem(1, -1, 2)
        assert u * v == RealQuadElem(-1, 0, 2)

    def test_mismatched_discriminant(self):
        with pytest.raises(DomainMismatchError):
            RealQuadElem(1, 0, 2) * RealQuadElem(1, 0, 3)

    @given(rq_triples())
    def test_commutative(self, uvw):
        u, v, _ = uvw
        assert u * v == v * u

    @given(rq_triples())
    def test_associative(self, uvw):
        u, v, w = uvw
        assert (u * v) * w == u * (v * w)

    @given(rq_triples())
    def test_distributive(self, uvw):
        u, v, w = uvw
        assert u * (v + w) == u * v + u * w

    @given(rq_triples())
    def test_trace_norm_match_conjugate(self, uvw):
        u, _, _ = uvw
        prod = u * u.conjugate()
        assert prod.y == 0 and prod.x == u.norm()
        s = u + u.conjugate()
        assert s.y == 0 and s.x == u.trace()


class TestConjugate:
    def test_d2(self):
        assert RealQuadElem(3, 1, 2).conjugate() == RealQuadElem(3, -1, 2)

    def test_d5(self):
        # ξ′ = (1 − √5)/2 = 1 − ξ
        assert RealQuadElem(0, 1, 5).conjugate() == RealQuadElem(1, -1, 5)

    @pytest.mark.parametrize("D", [2, 3, 5, 13])
    def test_fixes_rationals(self, D):
        assert RealQuadElem(7, 0, D).conjugate() == RealQuadElem(7, 0, D)

    @given(rq_triples())
    def test_involution(self, uvw):
        u, _, _ = uvw
        assert u.conjugate().conjugate() == u

    @given(rq_triples())
    def test_ring_homomorphism(self, uvw):
        u, v, _ = uvw
        assert (u * v).conjugate() == u.conjugate() * v.conjugate()
        assert (u + v).conjugate() == u.conjugate() + v.conjugate()


class TestValidateField:
    def test_cyclic_example(self):
        f = validate_field(2, 2, 1)
        assert f.galois_type is GaloisType.CYCLIC
        assert f.primitive()
        assert f.min_poly_coeffs() == (4, 2)

    def test_biquadratic_example(self):
        f = validate_field(2, 1, 0)
        assert f.galois_type is GaloisType.BIQUADRATIC
        assert not f.primitive()

    def test_non_galois_example(self):
        f = validate_field(2, 3, 1)
        assert f.galois_type is GaloisType.NON_GALOIS
        assert f.primitive()
        assert f.min_poly_coeffs() == (6, 7)

    def test_not_totally_imaginary(self):
        # 1 − √2 < 0
        with pytest.raises(NotTotallyImaginaryError):
            validate_field(2, 1, 1)

    def test_invalid_discriminant(self):
        with pytest.raises(InvalidDiscriminantError):
            validate_field(4, 1, 1)

    @pytest.mark.parametrize("D", [2, 3, 5, 13])
    @pytest.mark.parametrize("a", [1, 2, 5, 9])
    def test_b_zero_never_primitive(self, D, a):
        f = validate_field(D, a, 0)
        assert f.galois_type is GaloisType.BIQUADRATIC

    def test_min_poly_branches(self):
        # D ≡ 2,3: P = 2a, Q = a² − b²D
        assert validate_field(3, 4, 1).min_poly_coeffs() == (8, 13)
        # D ≡ 1: P = 2a + b, Q = a² + ab − b²(D−1)/4
        assert validate_field(5, 3, 1).min_poly_coeffs() == (7, 11)

    def test_min_poly_annihilates_eta_numerically(self):
        for field in [validate_field(2, 2, 1), validate_field(5, 3, 1),
                      validate_field(13, 2, 1)]:
            w = FrobeniusElement(0, 0, 1, 0, field)  # ω = η
            P, Q = field.min_poly_coeffs()
            for z in embeddings(w):
                assert abs(z ** 4 + P * z ** 2 + Q) < 1e-9


def test_galois_type_matches_sympy_oracle():
    """Trinomial criterion vs sympy's Galois group, full (D ≤ 20, |a|,|b| ≤ 10) grid."""
    x = symbols("x")
    seen: dict[tuple[int, int], GaloisType] = {}
    count = 0
    for field in iter_validated_fields(ab_max=10, d_max=20):
        count += 1
        if field.b == 0:
            # quartic degenerates to (X² + a)²; K = Q(√D, i√a) is biquadratic
            assert field.galois_type is GaloisType.BIQUADRATIC
            continue
        key = field.min_poly_coeffs()
        if key not in seen:
            P, Q = key
            group, _ = galois_group(Poly(x ** 4 + P * x ** 2 + Q, x))
            if group.order() == 4:
                expected = (GaloisType.CYCLIC if group.is_cyclic
                            else GaloisType.BIQUADRATIC)
            else:
                expected = GaloisType.NON_GALOIS
            seen[key] = expected
        assert field.galois_type is seen[key], (field, seen[key])
    assert count > 400


class TestRelativeNorm:
    def test_anchor(self):
        f = validate_field(2, 2, 1)
        w = FrobeniusElement(1, 1, 2, -1, f)
        assert relative_norm(w) == RealQuadElem(7, 0, 2)

    def test_unit(self):
        f = validate_field(2, 2, 1)
        assert relative_norm(FrobeniusElement(1, 0, 0, 0, f)) == RealQuadElem(1, 0, 2)

    def test_eta_itself(self):
        f = validate_field(2, 2, 1)
        nrm = relative_norm(FrobeniusElement(0, 0, 1, 0, f))
        assert nrm == RealQuadElem(2, 1, 2)
        assert not nrm.is_rational()

    def test_totally_positive_on_grid_sample(self):
        f = validate_field(5, 3, 1)
        for c in [(1, 1, 0, 1), (2, -1, 1, 1), (0, 1, 1, 0), (3, 2, -1, 2)]:
            w = FrobeniusElement(*c, f)
            assert relative_norm(w).is_totally_positive()


class TestEmbeddings:
    def test_anchor_moduli(self):
        f = validate_field(2, 2, 1)
        w = FrobeniusElement(1, 1, 2, -1, f)
        for z in embeddings(w):
            assert abs(abs(z) - 7 ** 0.5) < 1e-12

    def test_rational_element(self):
        f = validate_field(2, 2, 1)
        for z in embeddings(FrobeniusElement(1, 0, 0, 0, f)):
            assert abs(z - 1) < 1e-12

    def test_real_quadratic_element(self):
        f = validate_field(2, 2, 1)
        vals = sorted(z.real for z in embeddings(FrobeniusElement(0, 1, 0, 0, f)))
        assert vals[0] == pytest.approx(-(2 ** 0.5), abs=1e-12)
        assert vals[2] == pytest.approx(2 ** 0.5, abs=1e-12)
        assert all(z.imag == 0 for z in embeddings(FrobeniusElement(0, 1, 0, 0, f)))

    def test_conjugate_pairs(self):
        f = validate_field(13, 3, 1)
        w1, w1bar, w3, w3bar = embeddings(FrobeniusElement(1, 1, 1, -1, f))
        assert w1bar == w1.conjugate()
        assert w3bar == w3.conjugate()
