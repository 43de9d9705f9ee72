from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigidtori.polyfields import (COEFFICIENT_BITS_CAP, DEGREE_CAP,
                                  PRECISION_BITS_CAP, THETA_DEGREE_CAP,
                                  PolynomialField, RealEmbeddingPresent,
                                  ReduciblePolynomial, _add, _box_horner,
                                  _charpoly, _divmod, _gcd, _mul, _Residue)


def test_charpoly_small():
    m = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    assert _charpoly(m) == [Fraction(6), Fraction(-5), Fraction(1)]


def test_validation():
    with pytest.raises(ReduciblePolynomial):
        PolynomialField((1, 2, 1))          # (x+1)^2
    with pytest.raises(ReduciblePolynomial):
        PolynomialField((2, 0, 2))          # not monic
    with pytest.raises(ReduciblePolynomial):
        PolynomialField((1,) * (DEGREE_CAP + 2))
    with pytest.raises(RealEmbeddingPresent):
        PolynomialField((-2, 0, 1))         # x^2 - 2 has real roots


def test_coefficient_cap():
    from rigidtori.polarize import polarization_exists
    widest = 2 ** COEFFICIENT_BITS_CAP - 1
    assert PolynomialField((widest, 0, 1)).degree == 2
    for coeffs in ((widest + 1, 0, 1), (1, -widest - 1, 0, 1),
                   (3 * 10 ** 160, 0, 1)):
        with pytest.raises(ReduciblePolynomial, match="bits"):
            polarization_exists(coeffs, [0])


def test_conjugate_pairing_is_an_involution():
    F = PolynomialField((1, 1, 0, 0, 1))
    partner = {}
    for a, b in F.pairs:
        partner[a], partner[b] = b, a
    for i in range(F.degree):
        j = partner[i]
        assert partner[j] == i
        assert j != i
    boxes = [F.root_box(i, 64) for i in range(F.degree)]
    for i, ibar in F.pairs:
        assert abs(boxes[i][0] - boxes[ibar][0]) <= 2 * boxes[i][2]
        assert abs(boxes[i][1] + boxes[ibar][1]) <= 2 * boxes[i][2]


def test_pairs_follow_the_root_order_with_no_certificate(monkeypatch):
    # root_order puts each root right after its conjugate, so building a
    # field certifies no root, and its pairs are the consecutive indices
    fields = {(1, 0, 1): ((0, 1),), (5, 0, 5, 0, 1): ((0, 1), (2, 3)),
              (1, 1, 1, 1, 1, 1, 1): ((0, 1), (2, 3), (4, 5)),
              (3, 0, 0, 0, 0, 0, 1): ((0, 1), (2, 3), (4, 5))}

    def refuse(self, prec_bits):
        raise AssertionError("a root was certified while building a field")

    with monkeypatch.context() as patch:
        patch.setattr(PolynomialField, "_certified_discs", refuse)
        built = {coeffs: PolynomialField(coeffs) for coeffs in fields}
    for coeffs, F in built.items():
        assert F.pairs == fields[coeffs]
        for i, ibar in F.pairs:
            re, im, rad = F.root_box(i, 64)
            re_bar, im_bar, _ = F.root_box(ibar, 64)
            assert abs(re - re_bar) <= 2 * rad and abs(im + im_bar) <= 2 * rad


def test_imaginary_dimensions():
    cases = {
        (1, 0, 1): 1,          # Q(i)
        (1, 1, 1, 1, 1): 2,    # Q(zeta5)
        (1, 1, 0, 0, 1): 0,    # non-CM quartic
        (2, 0, 0, 0, 1): 1,    # x^4 + 2: CM subfield Q(sqrt(-2))
        (1, 0, 0, 1, 0, 0, 1): 3,  # Q(zeta9)
        (1, 0, 0, 0, 1): 2,    # Q(zeta8)
        (1, 0, -1, 0, 1): 2,   # Q(zeta12)
        (1, 1, 1, 1, 1, 1, 1): 3,  # Q(zeta7)
        (3, 0, 1): 1,          # Q(sqrt(-3))
        # not CM (cubic subfield Q(cbrt(-3)) is not totally real), but the
        # CM subfield Q(sqrt(-3)) contributes one imaginary direction
        (3, 0, 0, 0, 0, 0, 1): 1,
    }
    for coeffs, dim in cases.items():
        F = PolynomialField(coeffs)
        assert len(F.imaginary_subspace()) == dim, coeffs


def test_imaginary_subspace_shared_theta():
    # even quartic with two conjugate pairs both at theta = 0: the tower
    # pathway; the field is CM so every designated set is feasible
    import itertools
    from rigidtori.polarize import polarization_exists
    coeffs = (5, 0, 5, 0, 1)
    F = PolynomialField(coeffs)
    basis = F.imaginary_subspace()
    assert len(basis) == 2
    for b in basis:
        assert F.element_is_purely_imaginary(b)
    for designated in itertools.product(*[p for p in F.pairs]):
        cert = polarization_exists(coeffs, designated)
        assert cert.exists
        for i in designated:
            assert cert.witness_signs[i] == 1


def test_membership_oracle_agrees():
    # every basis vector passes the independent characteristic-polynomial
    # test, and generic non-members fail it
    for coeffs in ((1, 0, 1), (1, 1, 1, 1, 1), (2, 0, 0, 0, 1)):
        F = PolynomialField(coeffs)
        basis = F.imaginary_subspace()
        for b in basis:
            assert F.element_is_purely_imaginary(b)
        one = [Fraction(1)] + [Fraction(0)] * (F.degree - 1)
        assert not F.element_is_purely_imaginary(one)
        if basis:
            shifted = [x + y for x, y in zip(one, basis[0])]
            assert not F.element_is_purely_imaginary(shifted)


def test_x4_plus_2_imaginary_generator_is_t_squared():
    F = PolynomialField((2, 0, 0, 0, 1))
    basis = F.imaginary_subspace()
    assert len(basis) == 1
    assert list(basis[0]) in ([0, 0, 1, 0], [0, 0, -1, 0])


def test_sign_certification_consistency():
    F = PolynomialField((1, 1, 1, 1, 1))
    basis = F.imaginary_subspace()
    vec = [a + b for a, b in zip(basis[0], basis[1])]
    signs = [F.sign_imag(vec, i) for i in range(F.degree)]
    for i, ibar in F.pairs:
        assert signs[i] == -signs[ibar] != 0


def test_evaluate_box_contains_truth():
    # x^2+1: the roots are exactly +-i
    F = PolynomialField((1, 0, 1))
    for i in range(2):
        re, im, rad = F.evaluate_box([Fraction(0), Fraction(1)], i, 128)
        assert abs(re) <= rad
        assert abs(abs(im) - 1) <= rad


def test_square_d_quadratics_decide():
    # sympy returns the roots of x^2 + d, d a square, as c * CRootOf(x^2 + 1)
    from rigidtori.polarize import polarization_exists
    for coeffs in ((4, 0, 1), (9, 0, 1)):
        for designated in ([0], [1]):
            cert = polarization_exists(coeffs, designated)
            assert cert.verdict == "exists-with-witness"
            assert cert.witness_signs[designated[0]] == 1


def _mpf_fraction(x):
    from mpmath.libmp import to_rational
    return Fraction(*to_rational(x._mpf_))


# A fixed sample of each benchmark family: Phi_m, x^6 + c, x^2 + d (squares
# included, which sympy rescales), x^4 + a x^2 + b and x^4 + x + c.
FAMILY_SAMPLE = {
    "Phi_m": ((1, 1, 1), (1, 0, 1), (1, 1, 1, 1, 1), (1, 0, 0, 0, 1),
              (1, -1, 1, -1, 1), (1, 0, -1, 0, 1), (1, 1, 1, 1, 1, 1, 1),
              (1, 0, 0, 1, 0, 0, 1), (1, -1, 1, -1, 1, -1, 1),
              (1, 0, 0, -1, 0, 0, 1)),
    "x^6+c": tuple((c, 0, 0, 0, 0, 0, 1) for c in (2, 5, 78, 143, 399)),
    "x^2+d": tuple((d, 0, 1) for d in (2, 4, 7, 9, 49, 598)),
    "x^4+ax^2+b": ((5, 0, 5, 0, 1), (1, 0, 3, 0, 1), (7, 0, 6, 0, 1),
                   (71, 0, 39, 0, 1), (2, 0, 17, 0, 1)),
    "x^4+x+c": tuple((c, 1, 0, 0, 1) for c in (1, 2, 37, 250, 380)),
}


def _sympy_poly(coeffs):
    from sympy import Poly, symbols
    return Poly(list(reversed(coeffs)), symbols("t"))


def test_root_boxes_agree_with_sympy_bisection():
    # one polynomial per benchmark family: Phi_7, x^6 + c, x^2 + d,
    # x^4 + a x^2 + b, x^4 + x + c; the reference is sympy's exact
    # bisection at the same index, so indices keep sympy's order
    eps = Fraction(1, 2 ** 64)
    for coeffs in ((1, 1, 1, 1, 1, 1, 1), (2, 0, 0, 0, 0, 0, 1), (7, 0, 1),
                   (5, 0, 5, 0, 1), (1, 1, 0, 0, 1)):
        F = PolynomialField(coeffs)
        for i, root in enumerate(
                _sympy_poly(coeffs).all_roots(radicals=False)):
            ref = root.eval_rational(dx=eps, dy=eps)
            ref_re, ref_im = (Fraction(int(q.p), int(q.q))
                              for q in ref.as_real_imag())
            re, im, rad = F.root_box(i, 64)
            assert rad == eps
            assert abs(re - ref_re) <= 2 * eps, (coeffs, i)
            assert abs(im - ref_im) <= 2 * eps, (coeffs, i)


def test_root_box_order_matches_all_roots_across_families():
    # the order oracle is sympy's all_roots: its rectangles, pairwise
    # disjoint after its refinement pass, cover the roots, so a certified
    # box that meets only rectangle k holds sympy's root k; the accuracy
    # reference is mpmath's polyroots at 60 digits, whose root in
    # rectangle k must lie within 2 * rad of box k
    import mpmath
    eps = Fraction(1, 2 ** 64)
    for family, sample in FAMILY_SAMPLE.items():
        for coeffs in sample:
            F = PolynomialField(coeffs)
            rectangles = []
            for root in _sympy_poly(coeffs).all_roots(radicals=False):
                # x^2 + d, d a square, comes out as c * CRootOf(x^2 + 1)
                scale, inner = root.as_coeff_Mul()
                iv = inner._get_interval()
                rectangles.append([
                    Fraction(int(scale.p), int(scale.q))
                    * Fraction(int(q.numerator), int(q.denominator))
                    for q in (iv.ax, iv.bx, iv.ay, iv.by)])
            with mpmath.workdps(60):
                refs = [(_mpf_fraction(z.real), _mpf_fraction(z.imag))
                        for z in mpmath.polyroots(list(reversed(coeffs)),
                                                  maxsteps=200,
                                                  extraprec=200)]
            # below 2^-64, above mpmath's error at 60 digits
            slack = Fraction(1, 2 ** 120)
            nearest = []
            for k, (ax, bx, ay, by) in enumerate(rectangles):
                re, im, rad = F.root_box(k, 64)
                assert rad == eps
                met = [j for j, (lx, hx, ly, hy) in enumerate(rectangles)
                       if re - rad <= hx and lx <= re + rad
                       and im - rad <= hy and ly <= im + rad]
                assert met == [k], (family, coeffs, k)
                x, y = min(refs, key=lambda z: abs(z[0] - re) + abs(z[1] - im))
                nearest.append((x, y))
                assert ax - slack <= x <= bx + slack, (family, coeffs, k)
                assert ay - slack <= y <= by + slack, (family, coeffs, k)
                assert abs(re - x) <= 2 * rad, (family, coeffs, k)
                assert abs(im - y) <= 2 * rad, (family, coeffs, k)
            assert len(set(nearest)) == F.degree, (family, coeffs)


@st.composite
def _cm_like_polynomials(draw):
    """Monic g^2 + c h^2 with deg h < deg g in 1 ... 8 and c > 0: no real
    roots, degree 2 to 16, irreducible more often than not."""
    half = draw(st.integers(1, 8))
    g = draw(st.lists(st.integers(-3, 3), min_size=half, max_size=half))
    h = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=half))
    c = draw(st.integers(1, 20))
    return tuple(_add(_mul(g + [1], g + [1]), _mul(h, h), c))


def _argsort(boxes):
    """Root indices by (re, im) of their boxes on the grid 2^-32."""
    return tuple(sorted(range(len(boxes)), key=lambda i: (
        round(boxes[i][0] * 2 ** 32), round(boxes[i][1] * 2 ** 32))))


# The root order of the fields the test below draws (derandomized), as
# `_argsort` of their 64-bit boxes, recorded when mpmath's polish proposed
# the discs
ROOT_ORDERS = {
    (1, 0, 1):
        (0, 1),
    (2, -2, 1):
        (0, 1),
    (2, 2, 1):
        (0, 1),
    (5, -2, 1):
        (0, 1),
    (13, -6, 1):
        (0, 1),
    (49, 2, 1):
        (0, 1),
    (1, 0, 4, 4, 1):
        (0, 1, 2, 3),
    (4, 0, 1, -2, 1):
        (0, 1, 2, 3),
    (9, -36, 40, 4, 1):
        (0, 1, 2, 3),
    (10, 4, -4, -2, 1):
        (0, 1, 2, 3),
    (13, 0, 4, 4, 1):
        (0, 1, 2, 3),
    (17, -8, 0, 4, 1):
        (0, 1, 2, 3),
    (49, 12, 10, 4, 1):
        (0, 1, 2, 3),
    (2, -4, 6, -2, -3, 2, 1):
        (0, 1, 2, 3, 4, 5),
    (2, -2, 3, 0, -1, 2, 1):
        (0, 1, 4, 5, 2, 3),
    (4, 0, 9, -18, 3, 6, 1):
        (0, 1, 2, 3, 4, 5),
    (4, 0, 9, 0, -6, 0, 1):
        (0, 1, 2, 3, 4, 5),
    (15, -4, 4, 2, -4, 0, 1):
        (0, 1, 4, 5, 2, 3),
    (17, 28, 22, -2, -3, 2, 1):
        (0, 1, 2, 3, 4, 5),
    (17, 36, 18, -6, -3, 2, 1):
        (0, 1, 2, 3, 4, 5),
    (17, 60, 70, -2, -3, 2, 1):
        (0, 1, 2, 3, 4, 5),
    (18, -40, 94, -66, 62, 0, 1):
        (0, 1, 2, 3, 4, 5),
    (20, 40, 12, -12, 0, 4, 1):
        (0, 1, 2, 3, 4, 5),
    (49, 100, 56, 10, 6, 0, -3, -2, 1):
        (2, 3, 0, 1, 6, 7, 4, 5),
    (76, -136, 88, 72, -67, -14, 35, -18, 10, -4, 1):
        (0, 1, 2, 3, 4, 5, 8, 9, 6, 7),
    (76, -136, 88, 84, -55, 4, 26, -6, 4, -4, 1):
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    (76, -132, -51, 222, -1, -82, 33, -18, 10, -4, 1):
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    (76, -132, 93, 78, -73, -10, 33, -18, 10, -4, 1):
        (0, 1, 2, 3, 4, 5, 8, 9, 6, 7),
    (76, -132, 237, -66, -1, 62, 33, -18, 10, -4, 1):
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    (4, -12, 14, 2, -1, -24, 23, 4, 8, -4, 14, -4, 1):
        (0, 1, 2, 3, 6, 7, 8, 9, 4, 5, 10, 11),
    (4, -12, 26, 2, -25, -48, -13, 28, 68, 44, 62, -4, 1):
        (0, 1, 2, 3, 6, 7, 4, 5, 10, 11, 8, 9),
    (4, 12, 6, -14, -27, -8, 18, 6, 12, -4, 14, -4, 1):
        (2, 3, 0, 1, 4, 5, 8, 9, 6, 7, 10, 11),
    (4, 12, 6, -14, -25, -8, 15, 4, 8, -4, 14, -4, 1):
        (2, 3, 4, 5, 0, 1, 8, 9, 6, 7, 10, 11),
    (56, -64, 26, 54, 27, 56, -13, 28, 68, 44, 62, -4, 1):
        (2, 3, 4, 5, 0, 1, 8, 9, 6, 7, 10, 11),
    (4, -8, 12, -4, 0, 8, 4, -8, 14, 18, -21, 2, 15, 2, 1):
        (2, 3, 0, 1, 4, 5, 6, 7, 10, 11, 8, 9, 12, 13),
    (4, -8, 12, -4, 12, -4, 28, -8, -10, 18, -21, 2, 15, 2, 1):
        (2, 3, 0, 1, 4, 5, 10, 11, 8, 9, 6, 7, 12, 13),
    (4, -8, 12, -4, 12, 20, 28, 16, -10, -6, -21, 2, 15, 2, 1):
        (2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 12, 13),
    (4, -8, 16, -8, 17, 22, 28, 18, -8, -4, -21, 2, 15, 2, 1):
        (2, 3, 0, 1, 4, 5, 10, 11, 8, 9, 6, 7, 12, 13),
    (4, 0, 4, -8, 0, 4, -3, 0, 2, 6, 3, 2, 3, 2, 1):
        (0, 1, 6, 7, 4, 5, 2, 3, 12, 13, 10, 11, 8, 9),
    (4, 0, 9, -18, 9, -12, 6, 12, -8, 10, -3, 2, 3, -2, 1):
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 10, 11),
    (8, -8, 12, -4, 0, 8, 1, 4, 2, 6, 3, 2, 3, 2, 1):
        (0, 1, 2, 3, 4, 5, 8, 9, 12, 13, 10, 11, 6, 7),
    (19, 6, -17, 6, 7, -32, 22, 26, -27, 12, 7, -20, 3, 6, 1):
        (0, 1, 2, 3, 4, 5, 10, 11, 8, 9, 6, 7, 12, 13),
    (24, 0, 0, 0, 1, 0, 6, -2, 15, -8, 19, -12, 11, -6, 1):
        (0, 1, 2, 3, 4, 5, 10, 11, 8, 9, 6, 7, 12, 13),
    (24, 0, 1, 2, 1, 6, 4, 4, 13, -8, 19, -12, 11, -6, 1):
        (0, 1, 2, 3, 4, 5, 10, 11, 8, 9, 6, 7, 12, 13),
    (24, 48, 24, 0, 1, 0, 6, -2, 15, -8, 19, -12, 11, -6, 1):
        (4, 5, 2, 3, 0, 1, 8, 9, 10, 11, 6, 7, 12, 13),
    (56, 0, -47, 94, -89, -12, 230, -128, 48, 66, -101, 58, 59, -2, 1):
        (0, 1, 2, 3, 6, 7, 8, 9, 4, 5, 12, 13, 10, 11),
    (81, -72, 156, 78, -17, 124, 67, 6, 7, 12, 23, 6, -2, -4, 1):
        (2, 3, 0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
    (4, -8, 64, 20, 4, -36, 1, 34, -1, -22, -5, 0, 4, 10, 5, 2, 1):
        (0, 1, 2, 3, 4, 5, 12, 13, 6, 7, 10, 11, 8, 9, 14, 15),
}


@settings(max_examples=50)
@given(_cm_like_polynomials())
def test_certified_centres_agree_with_polyroots(coeffs):
    # every certified centre lies within eps of mpmath's root at 60 digits,
    # each of a different root, and the root order is the recorded one
    import mpmath
    try:
        F = PolynomialField(coeffs)
    except ReduciblePolynomial:
        assume(False)
    boxes = [F.root_box(i, 64) for i in range(F.degree)]
    with mpmath.workdps(60):
        refs = [(_mpf_fraction(z.real), _mpf_fraction(z.imag))
                for z in mpmath.polyroots(list(reversed(coeffs)),
                                          maxsteps=400, extraprec=400)]
    reach = (Fraction(1, 2 ** 64) + Fraction(1, 2 ** 120)) ** 2
    nearest = []
    for re, im, rad in boxes:
        dist, k = min(((re - x) ** 2 + (im - y) ** 2, k)
                      for k, (x, y) in enumerate(refs))
        assert dist <= reach, coeffs
        nearest.append(k)
    assert len(set(nearest)) == F.degree
    assert _argsort(boxes) == ROOT_ORDERS.get(coeffs, _argsort(boxes))


@pytest.mark.parametrize("coeffs", sorted(ROOT_ORDERS))
def test_root_order_is_the_recorded_one(coeffs):
    F = PolynomialField(coeffs)
    boxes = [F.root_box(i, 64) for i in range(F.degree)]
    assert _argsort(boxes) == ROOT_ORDERS[coeffs]


def test_fields_never_run_the_disjoint_refinement(monkeypatch):
    # all_roots makes every rectangle pairwise disjoint before it returns;
    # the field derives the same order without calling sympy at all
    from sympy.polys.rootoftools import ComplexRootOf

    def refuse(cls, complexes):
        raise AssertionError("disjoint-refinement pass ran")

    monkeypatch.setattr(ComplexRootOf, "_refine_complexes",
                        classmethod(refuse))
    for sample in FAMILY_SAMPLE.values():
        for coeffs in sample[:2]:
            F = PolynomialField(coeffs)
            assert len(F.pairs) == F.degree // 2
            F.root_box(0, 64)


def test_root_order_needs_no_refinement_off_the_lines(monkeypatch):
    # every root of Phi_9 and x^6 + 78 is placed against every bisection
    # line by its first certified disc: the roots of x^6 + 78 on Re z = 0
    # by the exact on-line test, the others by discs missing the line
    calls, refined = [], PolynomialField._refined

    def counted(self, centres, eps):
        calls.append(eps)
        return refined(self, centres, eps)

    monkeypatch.setattr(PolynomialField, "_refined", counted)
    for coeffs in ((1, 0, 0, 1, 0, 0, 1), (78, 0, 0, 0, 0, 0, 1)):
        F = PolynomialField(coeffs)
        for prec in (32, 64, 128):
            F.root_box(0, prec)
    assert calls == []


def test_one_p_modulus_per_theta_polynomial(monkeypatch):
    # conjugate pairs often share theta's minimal polynomial (all three of
    # Q(zeta7)); x^6 + 2 has theta = 0 on one pair and +-2^(1/6) sqrt(3)
    # on the other two
    calls = []
    p_modulus = PolynomialField._p_modulus

    def counted(self, g):
        calls.append(tuple(g))
        return p_modulus(self, g)

    monkeypatch.setattr(PolynomialField, "_p_modulus", counted)
    for coeffs, n_thetas in (((1, 1, 1, 1, 1, 1, 1), 1), ((5, 0, 5, 0, 1), 1),
                             ((1, 1, 0, 0, 1), 1), ((2, 0, 0, 0, 0, 0, 1), 2)):
        calls.clear()
        data = PolynomialField(coeffs).pair_data()
        assert sorted(calls) == sorted({pd.theta_minpoly for pd in data})
        assert len(calls) == n_thetas, coeffs


def test_undecided_sign_gives_no_witness(monkeypatch):
    # a sign still undecided at PRECISION_BITS_CAP bits is no certificate, and
    # polarization_exists ends in its declared PrecisionCapReached
    from rigidtori.polarize import polarization_exists
    from rigidtori.polyfields import PrecisionCapReached
    evaluate = PolynomialField.evaluate_box
    sign_imag = PolynomialField.sign_imag
    inside_sign, tried = [], []

    def straddling(self, coeffs, root_index, prec_bits=64):
        if not inside_sign:
            return evaluate(self, coeffs, root_index, prec_bits)
        tried.append(prec_bits)
        return Fraction(0), Fraction(0), Fraction(1)

    def tracked(self, coeffs, root_index):
        inside_sign.append(root_index)
        try:
            return sign_imag(self, coeffs, root_index)
        finally:
            inside_sign.pop()

    monkeypatch.setattr(PolynomialField, "evaluate_box", straddling)
    monkeypatch.setattr(PolynomialField, "sign_imag", tracked)
    F = PolynomialField((1, 1, 1, 1, 1))
    assert F.sign_imag(F.imaginary_subspace()[0], 0) is None
    assert max(tried) == PRECISION_BITS_CAP
    with pytest.raises(PrecisionCapReached):
        polarization_exists((1, 1, 1, 1, 1), [0, 2])


def test_roots_closer_than_the_requested_radius():
    # (x^2 + N)^2 + 1 has the roots +-sqrt(-N +- i); the two in each half
    # plane are about 1/sqrt(N) = 7e-10 apart, closer than 4 * 2^-32, so
    # the 32-bit boxes overlap and the discs are certified more finely
    import mpmath
    n = 2 * 10 ** 18
    F = PolynomialField((n * n + 1, 0, 2 * n, 0, 1))
    assert F.pairs == ((0, 1), (2, 3))

    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(60):
        truth = [s * mpmath.sqrt(mpmath.mpc(-n, e))
                 for s in (1, -1) for e in (1, -1)]
        for prec in (32, 64):
            found = set()
            for i in range(4):
                re, im, rad = F.root_box(i, prec)
                assert rad == Fraction(1, 2 ** prec)
                inside = {k for k, z in enumerate(truth)
                          if abs(mp(re) - z.real) <= mp(rad)
                          and abs(mp(im) - z.imag) <= mp(rad)}
                assert inside, (prec, i)
                found |= inside
            assert found == set(range(4))
    # sympy's order: real part first, then imaginary part
    assert [F.root_box(i)[0] < 0 for i in range(4)] == [True, True, False,
                                                       False]
    assert [F.root_box(i)[1] > 0 for i in range(4)] == [False, True, False,
                                                       True]


def test_root_order_refines_a_disc_meeting_a_line():
    # x^2 - 2x + 17 has the roots 1 +- 4i, and sympy's first bisection line
    # is Re z = 0.  Discs of radius 1/2 about 1/2 +- 4i hold the roots and
    # touch the line; the exact test finds no root on it, so the discs are
    # refined once, and the upper root comes second
    from rigidtori.intpoly import root_order
    coeffs = (17, -2, 1)
    coarse = [(Fraction(1, 2), Fraction(-4)), (Fraction(1, 2), Fraction(4))]
    exact = [(Fraction(1), Fraction(-4)), (Fraction(1), Fraction(4))]
    calls = []

    def refine(centres, eps):
        calls.append((list(centres), eps))
        return exact, Fraction(1, 64)

    assert root_order(coeffs, coarse, Fraction(1, 2), refine) == [0, 1]
    assert calls == [(coarse, Fraction(1, 2))]
    # with the upper root listed first, the order follows the roots
    assert root_order(coeffs, exact[::-1], Fraction(1, 64), refine) == [1, 0]
    assert len(calls) == 1


# -- the polynomial kernel ----------------------------------------------------

# Q(theta) for theta = sqrt(2) + 1, a root of u^2 - 2u - 1
_THETA_MODULUS = (Fraction(-1), Fraction(-2), Fraction(1))


def _q_theta(*coeffs):
    return _Residue(_THETA_MODULUS, [Fraction(c) for c in coeffs])


def _is_zero_poly(a):
    return not any(a)


_rational_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=5), max_size=7)


@given(_rational_polys, _rational_polys)
def test_divmod_is_division_with_remainder(a, b):
    # kernel polynomials carry no zero on top; _add(x, []) trims x
    b = _add(b, []) or [Fraction(1)]
    q, r = _divmod(a, b)
    assert _add(_mul(q, b), r) == _add(a, [])
    assert len(r) < len(b)
    assert not r or r[-1] != 0


def test_divmod_over_q_theta():
    theta = _q_theta(0, 1)
    a = [_q_theta(3, -1), theta, 0, _q_theta(Fraction(1, 2), 4)]
    b = [_q_theta(1, 1), theta * theta]
    q, r = _divmod(a, b)
    assert len(r) < len(b)
    assert _is_zero_poly(_add(_add(_mul(q, b), r), a, -1))


def _divides(d, a):
    return _is_zero_poly(_divmod(a, d)[1])


@pytest.mark.parametrize("a, b, expected", [
    # (x - 1)(x + 2)^2 and (x + 2)(x - 3) over Q
    ([-4, 0, 3, 1], [-6, -1, 1], [2, 1]),
    # coprime: x^2 + 1 and 2x + 1
    ([1, 0, 1], [1, 2], [1]),
    # x^2 - 2 and 0: the monic x^2 - 2
    ([-2, 0, 1], [], [-2, 0, 1]),
    ([], [], []),
])
def test_gcd_over_q_is_monic_and_divides(a, b, expected):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    d = _gcd(a, b)
    assert d == expected
    if d:
        assert d[-1] == 1
        assert _divides(d, a) and _divides(d, b)


def test_gcd_over_q_theta_is_monic_and_divides():
    # (p - theta)(p + 1) and 3 (p - theta)(p - theta^2) over Q(theta): the
    # gcd is p - theta, whichever order the inputs come in
    theta = _q_theta(0, 1)
    root = [-1 * theta, 1]
    a = _mul(root, [1, 1])
    b = _mul([3 * x for x in root], [-1 * (theta * theta), 1])
    for x, y in ((a, b), (b, a)):
        d = _gcd(x, y)
        assert [c.coeffs for c in d] == [c.coeffs for c in
                                         [_q_theta(0, -1), _q_theta(1)]]
        assert _divides(d, x) and _divides(d, y)


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                min_size=1, max_size=4))
def test_residue_inverse_round_trips(coeffs):
    x = _Residue(_THETA_MODULUS, coeffs)
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert (x * x.inverse()).coeffs == [1]
    assert (Fraction(1) / x).coeffs == x.inverse().coeffs


def test_residue_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        _q_theta().inverse()
    with pytest.raises(ZeroDivisionError):
        _q_theta(-1, -2, 1).inverse()      # the modulus itself is zero


@given(st.sampled_from((2, 4, 6)).flatmap(
    lambda n: st.tuples(st.integers(min_value=1, max_value=9),
                        st.lists(st.integers(min_value=-9, max_value=9),
                                 min_size=n - 1, max_size=n - 1))))
def test_accepted_fields_have_oracle_checked_imaginary_bases(drawn):
    # a monic integer polynomial of degree <= 6 with |coefficient| <= 9 is
    # refused, or its imaginary basis passes the independent charpoly/Sturm
    # oracle and the existence decision ends in a verdict or a declared
    # domain error; the draws have even degree and a positive constant
    # term, as totally imaginary fields do, so that many are accepted
    from rigidtori.cli import DOMAIN_ERRORS
    from rigidtori.polarize import polarization_exists
    constant, middle = drawn
    coeffs = (constant, *middle, 1)
    try:
        F = PolynomialField(coeffs)
    except (ReduciblePolynomial, RealEmbeddingPresent):
        return
    for vec in F.imaginary_subspace():
        assert F.element_is_purely_imaginary(vec), (coeffs, vec)
    try:
        cert = polarization_exists(coeffs, [i for i, _ in F.pairs])
    except DOMAIN_ERRORS:
        return
    assert cert.verdict in ("exists-with-witness", "infeasible")


def test_theta_past_its_degree_cap_is_refused_before_the_tower(
        tmp_path, monkeypatch):
    # x^10 + x + 3 has theta of degree 45 > THETA_DEGREE_CAP = 28, whose
    # tower took 15 s: the polarize request ends in the declared
    # ReduciblePolynomial (exit 1) before _p_modulus would run
    import json

    from rigidtori.cli import main

    def tower(self, g):
        raise AssertionError("_p_modulus ran on a refused theta")

    monkeypatch.setattr(PolynomialField, "_p_modulus", tower)
    inp = tmp_path / "field.json"
    inp.write_text(json.dumps({"polynomial": [3, 1] + [0] * 8 + [1],
                               "designated_roots": [0, 2, 4, 6, 8]}))
    out = tmp_path / "err.json"
    assert main(["polarize", "--input", str(inp), "--output", str(out)]) == 1
    error = json.loads(out.read_text())["error"]
    assert error["error"] == "ReduciblePolynomial"
    assert "degree 45" in error["message"]
    assert THETA_DEGREE_CAP == 28


def test_theta_within_its_degree_cap_is_admitted():
    # x^10 + 2 has degree 10 > 8, but its theta polynomials have degrees 20
    # and 1, so its tower is built
    F = PolynomialField([2] + [0] * 9 + [1])
    assert {len(pd.theta_minpoly) - 1 for pd in F.pair_data()} == {1, 20}


def _box_horner_in_fractions(coeffs, re_lo, re_hi, im_lo, im_hi):
    """The Fraction box Horner that the integer one replaced, kept as its
    oracle."""

    def interval_mul(a_lo, a_hi, b_lo, b_hi):
        vals = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        return min(vals), max(vals)

    rl = rh = il = ih = Fraction(0)
    for c in reversed([Fraction(q) for q in coeffs]):
        p1l, p1h = interval_mul(rl, rh, re_lo, re_hi)
        p2l, p2h = interval_mul(il, ih, im_lo, im_hi)
        p3l, p3h = interval_mul(rl, rh, im_lo, im_hi)
        p4l, p4h = interval_mul(il, ih, re_lo, re_hi)
        rl, rh, il, ih = p1l - p2h + c, p1h - p2l + c, p3l + p4l, p3h + p4h
    return rl, rh, il, ih


_rationals = st.fractions(max_denominator=10**6).filter(
    lambda q: abs(q) < 10**6)


@given(coeffs=st.lists(_rationals, max_size=12),
       centre=st.tuples(_rationals, _rationals),
       bits=st.integers(0, 300), real=st.booleans())
def test_integer_box_horner_matches_fractions(coeffs, centre, bits, real):
    # the same rational bounds on boxes of dyadic or arbitrary rational ends,
    # with a zero imaginary interval (the real Horner) or not
    rad = Fraction(1, 2**bits)
    box = (centre[0] - rad, centre[0] + rad) + (
        (0, 0) if real else (centre[1] - rad, centre[1] + rad))
    got = _box_horner(coeffs, *box)
    assert got == _box_horner_in_fractions(coeffs, *box)
    assert all(type(x) is Fraction for x in got)
