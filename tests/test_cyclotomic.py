import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigidtori.cyclotomic import (ConductorMismatch, CyclotomicField,
                                  SubfieldSpec, _cyclotomic_coeffs, _pack,
                                  _reader, _slot_width)


def from_coeffs(field, coeffs):
    """The element with the given power-basis coordinates (z^i, i < phi(m),
    is the i-th basis element)."""
    assert len(coeffs) <= field.degree
    return field.from_exponent_dict(dict(enumerate(coeffs)))


def random_element(field, rng, span=6):
    return from_coeffs(field, [
        Fraction(rng.randint(-span, span), rng.randint(1, 4))
        for _ in range(field.degree)])


def test_zeta4_squares_to_minus_one():
    F = CyclotomicField(4)
    z = F.zeta()
    assert z * z == F.from_rational(-1)


def test_zeta3_plus_square_is_minus_one():
    F = CyclotomicField(3)
    w = F.zeta()
    assert w + w * w == F.from_rational(-1)


def test_inverse_roundtrip_random():
    rng = random.Random(1)
    for m in (3, 4, 5, 8, 12):
        F = CyclotomicField(m)
        for _ in range(10):
            x = random_element(F, rng)
            if x.is_zero():
                continue
            assert x * x.inverse() == F.one()


def test_inverse_of_zero_raises():
    F = CyclotomicField(5)
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        CyclotomicField(3).zeta() + CyclotomicField(4).zeta()


def test_conjugation_examples():
    F = CyclotomicField(4)
    z = F.zeta()
    assert z.conjugate() == -z
    x = F.from_rational(Fraction(7, 3))
    assert x.conjugate() == x


def test_conjugation_is_involutive_automorphism():
    rng = random.Random(2)
    F = CyclotomicField(12)
    for _ in range(10):
        x = random_element(F, rng)
        y = random_element(F, rng)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def contains(box, x, y):
    """Whether the (re, im, radius) enclosure holds the point x + iy."""
    re, im, radius = box
    return abs(re - x) <= radius and abs(im - y) <= radius


def test_embed_zeta4_encloses_i():
    z = CyclotomicField(4).zeta()
    box = z.embed(1, 64)
    assert contains(box, 0, 1)
    assert box[2] <= Fraction(1, 2 ** 58)


def test_embed_one_is_one():
    F = CyclotomicField(7)
    for a in F.units:
        box = F.one().embed(a, 64)
        assert contains(box, 1, 0)
        assert box[2] <= Fraction(1, 2 ** 58)


def test_embed_zeta3_second_embedding():
    # sigma_2(zeta_3) = -1/2 - (sqrt(3)/2) i
    z = CyclotomicField(3).zeta()
    re, im, radius = z.embed(2, 128)
    assert abs(re + Fraction(1, 2)) <= radius
    sqrt3_over_2 = Fraction(8660254037844386467637231707529362, 10 ** 34)
    assert abs(im + sqrt3_over_2) <= radius + Fraction(1, 10 ** 30)


def test_radius_shrinks_with_precision():
    z = CyclotomicField(7).zeta()
    radii = [z.embed(3, p)[2] for p in (64, 128, 256)]
    assert radii[0] > radii[1] > radii[2]


def test_enclosures_nested_across_precision():
    rng = random.Random(6)
    F = CyclotomicField(9)
    for _ in range(5):
        x = random_element(F, rng)
        lo_re, lo_im, lo_rad = x.embed(2, 64)
        hi_re, hi_im, hi_rad = x.embed(2, 256)
        # both contain the true value, and the tight box sits inside the
        # loose one up to its own (much smaller) radius
        assert abs(hi_re - lo_re) <= lo_rad + hi_rad
        assert abs(hi_im - lo_im) <= lo_rad + hi_rad
        assert hi_rad < lo_rad


def test_embedding_is_multiplicative_within_radius():
    rng = random.Random(3)
    F = CyclotomicField(5)
    for _ in range(5):
        x = random_element(F, rng, span=3)
        y = random_element(F, rng, span=3)
        x_re, x_im, x_rad = x.embed(2, 128)
        y_re, y_im, y_rad = y.embed(2, 128)
        xy_re, xy_im, xy_rad = (x * y).embed(2, 128)
        prod_re = x_re * y_re - x_im * y_im
        prod_im = x_re * y_im + x_im * y_re
        # the true product is in the box of x * y and within the inflated
        # product box
        slack = (x_rad + y_rad + x_rad * y_rad) * 8
        assert abs(xy_re - prod_re) <= xy_rad + slack
        assert abs(xy_im - prod_im) <= xy_rad + slack


def overlap(box, other):
    """Whether two (re, im, radius) enclosures meet."""
    re, im, radius = box
    re2, im2, radius2 = other
    return (abs(re - re2) <= radius + radius2
            and abs(im - im2) <= radius + radius2)


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_embeddings_agree_with_the_standalone_field_of_phi_m(m):
    # zeta_m^a is a root of Phi_m, so sigma_a is evaluation at one root of
    # the standalone field Q[t]/Phi_m: the root box meeting sigma_a(zeta)
    # is unique (and lies at exp(2 pi i a/m)), and both evaluators enclose
    # and sign x there alike
    import cmath

    from rigidtori.polyfields import PolynomialField
    F = CyclotomicField(m)
    P = PolynomialField(_cyclotomic_coeffs(m))
    rng = random.Random(m)
    for a in F.units:
        zeta = F.zeta().embed(a, 128)
        roots = [i for i in range(P.degree)
                 if overlap(P.root_box(i, 128), zeta)]
        assert len(roots) == 1, (m, a, roots)
        i, = roots
        re, im, _ = P.root_box(i, 128)
        assert abs(complex(re, im) - cmath.exp(2j * cmath.pi * a / m)) < 1e-12
        for _ in range(4):
            x = random_element(F, rng)
            assert overlap(x.embed(a, 128), P.evaluate_box(x.coeffs, i, 128))
            sign = x.sign_imag(a)
            assert sign != 0
            assert P.sign_imag(x.coeffs, i) == sign


def test_certified_sign_imag_examples():
    F = CyclotomicField(4)
    z = F.zeta()
    assert z.sign_imag(1) == 1
    assert z.sign_imag(3) == -1
    assert F.one().sign_imag(1) == 0
    assert F.from_rational(Fraction(-5, 7)).sign_imag(3) == 0


def test_sign_imag_antisymmetric_in_embedding():
    rng = random.Random(4)
    F = CyclotomicField(8)
    for _ in range(8):
        x = random_element(F, rng)
        for a in F.units:
            assert x.sign_imag(a) == -x.sign_imag(-a)


def test_signs_past_the_precision_cap_are_a_domain_error(monkeypatch):
    # the one precision ladder starts at 64 bits, so a cap below it leaves
    # every nonzero sign undecided; no CLI request asks for a real sign, so
    # the declared error is checked here and in DOMAIN_ERRORS
    from rigidtori import polyfields
    from rigidtori.cli import DOMAIN_ERRORS
    from rigidtori.polyfields import PrecisionCapReached
    z = CyclotomicField(8).zeta()
    assert (z.sign_real(1), z.sign_imag(1)) == (1, 1)
    monkeypatch.setattr(polyfields, "PRECISION_BITS_CAP", 32)
    for sign in (z.sign_real, z.sign_imag):
        with pytest.raises(PrecisionCapReached):
            sign(1)
    assert issubclass(PrecisionCapReached, DOMAIN_ERRORS)


def test_exact_zero_test_never_uses_floats():
    # totally real elements have imaginary part exactly zero everywhere
    F = CyclotomicField(5)
    z = F.zeta()
    real_elem = z + z.conjugate()
    for a in F.units:
        assert real_elem.imag_is_zero(a)
        assert real_elem.sign_imag(a) == 0


def test_trace_matches_certified_embedding_sum():
    rng = random.Random(5)
    for m in (5, 8, 12):
        F = CyclotomicField(m)
        x = random_element(F, rng)
        exact = SubfieldSpec(F, [1]).field_trace(x)
        total_re = Fraction(0)
        total_rad = Fraction(0)
        for a in F.units:
            re, _, radius = x.embed(a, 128)
            total_re += re
            total_rad += radius
        assert abs(total_re - exact) <= total_rad


def test_subfield_spec_real_subfield_of_q5():
    F = CyclotomicField(5)
    S = SubfieldSpec(F, [1, 4])
    assert S.degree == 2
    assert S.is_totally_real()
    for b in S.basis:
        assert b.conjugate() == b


def test_subfield_coordinates_roundtrip():
    F = CyclotomicField(12)
    S = SubfieldSpec(F, [1, 11])  # real subfield, degree 2
    x = S.element([Fraction(2), Fraction(-3, 5)])
    coords = S.coordinates(x)
    assert coords == [Fraction(2), Fraction(-3, 5)]
    # an element outside the subfield has no coordinates
    assert S.coordinates(F.zeta()) is None


def test_orbit_sum_basis_is_built_on_first_read(monkeypatch):
    F = CyclotomicField(15)
    built = []
    orbit_sums = SubfieldSpec._orbit_sum_basis
    monkeypatch.setattr(SubfieldSpec, "_orbit_sum_basis",
                        lambda self: built.append(1) or orbit_sums(self))
    S = SubfieldSpec(F, [1, 4])
    assert built == [] and S.degree == 4 and not S.is_totally_real()
    assert S.basis is S.basis
    assert built == [1] and len(S.basis) == 4
    assert all(b.galois(4) == b for b in S.basis)


@pytest.mark.parametrize("wrong, message", [
    (lambda F: [F.one()], "length"),
    (lambda F: [F.one(), F.zeta() + F.zeta() ** 3, F.one()], "length"),
    (lambda F: [F.one(), F.zeta()], "not fixed"),
], ids=["short", "long", "not-fixed"])
def test_orbit_sum_basis_is_checked_when_built(monkeypatch, wrong, message):
    # Q(zeta_8)^{1,3} = Q(sqrt(-2)), with basis 1, z + z^3
    F = CyclotomicField(8)
    monkeypatch.setattr(SubfieldSpec, "_orbit_sum_basis",
                        lambda self: wrong(F))
    with pytest.raises(ValueError, match=message):
        SubfieldSpec(F, [1, 3]).basis


def test_field_trace_of_subfield():
    F = CyclotomicField(4)
    S = SubfieldSpec(F, [1])
    assert S.field_trace(F.one()) == 2
    assert S.field_trace(F.zeta()) == 0


def test_cyclotomic_coeffs_match_sympy():
    from sympy import Poly, cyclotomic_poly, symbols
    x = symbols("x")
    for m in range(1, 201):
        expected = Poly(cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert _cyclotomic_coeffs(m) == tuple(int(c) for c in expected)


def test_scalar_products_match_full_products():
    rng = random.Random(3)
    for m in (5, 12, 15):
        F = CyclotomicField(m)
        z = F.zeta()
        for _ in range(5):
            x = random_element(F, rng)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            # both products on the right have no rational operand
            full = x * (F.from_rational(q) + z) - x * z
            for prod in (x * q, q * x, x * F.from_rational(q),
                         F.from_rational(q) * x):
                assert prod == full
                assert all(isinstance(c, Fraction) for c in prod.coeffs)
            assert x * 3 == 3 * x == x + x + x


def test_subfield_coordinates_reduce_the_basis_once(monkeypatch):
    from rigidtori import linalg
    rng = random.Random(5)
    F = CyclotomicField(15)
    S = SubfieldSpec(F, [1, 4])
    calls = []
    inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse",
                        lambda a: calls.append(1) or inverse(a))
    for _ in range(6):
        coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(S.degree)]
        x = S.element(coords)
        assert S.coordinates(x) == coords
        assert S.coordinates(x) == linalg.solve(
            [[b.coeffs[i] for b in S.basis] for i in range(F.degree)],
            list(x.coeffs))
        # outside the subfield: x plus a non-fixed element
        assert S.coordinates(x + F.zeta()) is None
    assert len(calls) == 1


# -- the integer representation against a Fraction reference ---------------

CONDUCTORS = (1, 3, 4, 5, 8, 12, 15, 21, 24)


def _ref_reduce(poly, m):
    """Coefficients of poly mod Phi_m, by long division over Fraction."""
    modulus = _cyclotomic_coeffs(m)
    deg = len(modulus) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * deg
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i, b in enumerate(modulus):
                poly[k - deg + i] -= c * b
    return tuple(poly[:deg])


def _ref_mul(a, b, m):
    conv = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += Fraction(x) * Fraction(y)
    return _ref_reduce(conv, m)


def _ref_galois(a, k, m):
    poly = [Fraction(0)] * m
    for i, c in enumerate(a):
        poly[(k * i) % m] += c
    return _ref_reduce(poly, m)


def _assert_canonical(x):
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    assert len(x.num) == x.field.degree
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(Fraction(n, x.den) for n in x.num)


_small_fractions = st.fractions(min_value=-20, max_value=20,
                                max_denominator=12)


@given(data=st.data())
def test_arithmetic_matches_a_fraction_reference(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    F = CyclotomicField(m)
    coords = st.lists(_small_fractions, min_size=F.degree, max_size=F.degree)
    a, b = data.draw(coords), data.draw(coords)
    q = data.draw(_small_fractions)
    k = data.draw(st.sampled_from(F.units))
    x, y = from_coeffs(F, a), from_coeffs(F, b)
    results = {
        "sum": (x + y, tuple(s + t for s, t in zip(a, b))),
        "difference": (x - y, tuple(s - t for s, t in zip(a, b))),
        "negation": (-x, tuple(-s for s in a)),
        "product": (x * y, _ref_mul(a, b, m)),
        "square": (x * x, _ref_mul(a, a, m)),
        "scaled": (x * q, tuple(s * q for s in a)),
        "int scaled": (3 * x, tuple(3 * s for s in a)),
        "int sum": (x + 2, (a[0] + 2,) + tuple(a[1:])),
        "galois": (x.galois(k), _ref_galois(a, k, m)),
    }
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert got.coeffs == want, name
        assert got == from_coeffs(F, want) and hash(got) == hash(
            from_coeffs(F, want)), name
    if not x.is_zero():
        inv = x.inverse()
        _assert_canonical(inv)
        assert _ref_mul(inv.coeffs, a, m) == (1,) + (0,) * (F.degree - 1)
    assert x.is_zero() == (not any(a))
    assert x.is_rational() == (not any(a[1:]))
    assert x.as_rational() == (a[0] if not any(a[1:]) else None)


def test_zero_and_rationals_are_canonical():
    F = CyclotomicField(12)
    x = from_coeffs(F, [Fraction(1, 2), Fraction(-1, 3), 0, 4])
    for z in (F.zero(), x - x, x * 0, 0 * x, x * Fraction(0)):
        assert z.num == (0,) * F.degree and z.den == 1
    half = F.from_rational(Fraction(2, 4))
    assert (half.num[0], half.den) == (1, 2)
    assert half == Fraction(1, 2) and half != 1 and F.one() == 1
    assert x.den == 6 and x.num == (3, -2, 0, 24)


def test_product_of_irrational_elements_builds_no_fraction(monkeypatch):
    F = CyclotomicField(15)
    a = [Fraction(1, 2), 3, -1, Fraction(2, 3), 0, 0, 5, 1]
    b = [7, Fraction(-5, 4), 0, 1, Fraction(1, 6), 2, 0, -3]
    x, y = from_coeffs(F, a), from_coeffs(F, b)
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    products = [x * y, y * x, x * x, y * y]
    monkeypatch.undo()
    assert made == []
    assert products[0] == products[1]
    assert products[0].coeffs == _ref_mul(a, b, 15)
    assert products[2].coeffs == _ref_mul(a, a, 15)


def test_zeta_box_is_kept_per_embedding_and_precision():
    # every element embedded at sigma_a reads the same rectangle around
    # zeta^a: one integer evaluation per (m, a, precision)
    from rigidtori.cyclotomic import _zeta_box
    F = CyclotomicField(7)
    _zeta_box.cache_clear()
    x, y = F.zeta() + 2, F.zeta(3) * 5 - 1
    boxes = [z.embed(a, 64) for z in (x, y) for a in (1, 2)]
    assert _zeta_box.cache_info().misses == 2
    assert _zeta_box(7, 1, 64) == _zeta_box.__wrapped__(7, 1, 64)
    assert boxes == [z.embed(a, 64) for z in (x, y) for a in (1, 2)]
    assert _zeta_box.cache_info().maxsize is not None


def _mpf_fraction(x):
    from mpmath.libmp import to_rational
    return Fraction(*to_rational(x._mpf_))


@pytest.mark.parametrize("precision", [64, 256, 1024])
def test_zeta_boxes_hold_mpmath_values_and_are_narrow(precision):
    # the reference is mpmath at twice the precision: exp(2 pi i/m) and its
    # powers, each product off by about an ulp of 2 precision + 16 bits,
    # far inside the rectangles' margins of an ulp at p > precision bits
    import mpmath
    from rigidtori.cyclotomic import _zeta_box
    width = Fraction(4, 2 ** precision)
    with mpmath.workprec(2 * precision + 16):
        for m in range(1, 121):
            step, z = mpmath.expjpi(mpmath.mpf(2) / m), mpmath.mpc(1)
            for k in range(m):
                re_lo, re_hi, im_lo, im_hi = _zeta_box.__wrapped__(
                    m, k, precision)
                assert re_lo <= _mpf_fraction(z.real) <= re_hi, (m, k)
                assert im_lo <= _mpf_fraction(z.imag) <= im_hi, (m, k)
                assert re_hi - re_lo <= width and im_hi - im_lo <= width
                z *= step


@pytest.mark.parametrize("precision", [32, 64, 256, 1024])
def test_zeta_boxes_hold_the_exact_points(precision):
    # k = 0, 4k = m, 2k = m and 4k = 3m: 1, i, -1 and -i
    from rigidtori.cyclotomic import _zeta_box
    for m in (4, 8, 12, 60, 120):
        for k, (re, im) in ((0, (1, 0)), (m // 4, (0, 1)), (m // 2, (-1, 0)),
                            (3 * m // 4, (0, -1))):
            re_lo, re_hi, im_lo, im_hi = _zeta_box.__wrapped__(
                m, k, precision)
            assert re_lo <= re <= re_hi and im_lo <= im <= im_hi, (m, k)


# -- the packed-integer kernel ----------------------------------------------


@pytest.mark.parametrize("slots", [2, 3, 8])
@pytest.mark.parametrize("width", [8, 16, 32, 64, 100])
def test_packed_slots_hold_all_peak_entries_and_no_more(width, slots):
    # the least and the largest bound of each width: every reader branch
    # (struct at 8, 16, 32 and 64 bits, shift and mask at 100) reads
    # all-peak entries of both signs back, and one bit less collides
    for bound in (2 ** (width - 2), 2 ** (width - 1) - 1):
        assert _slot_width(bound) == width
        got, read = _reader(bound, slots)
        assert got == width
        for signs in ((1,) * slots, (-1,) * slots,
                      tuple((-1) ** s for s in range(slots))):
            peaks = tuple(sign * bound for sign in signs)
            assert read(_pack(peaks, width)) == peaks
        near = (bound - 2 ** (width - 1), 1) + (0,) * (slots - 2)
        assert max(map(abs, near)) <= bound
        at_bound = (bound,) + (0,) * (slots - 1)
        assert _pack(near, width - 1) == _pack(at_bound, width - 1)
        assert _pack(near, width) != _pack(at_bound, width)


def test_reader_rounds_widths_up_to_whole_machine_words():
    for least in range(1, 70):
        bound = 2 ** (least - 1) - 1
        assert _slot_width(bound) == least
        width, read = _reader(bound, 3)
        assert width == (next(w for w in (8, 16, 32, 64) if w >= least)
                         if least <= 64 else least)
        peaks = (bound, -bound, 0)
        assert read(_pack(peaks, width)) == peaks
