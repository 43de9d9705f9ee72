"""The exact integer-polynomial algorithms of standalone fields against
sympy, which the tests keep as their oracle: the root order against
sympy's complex root isolation, irreducibility and theta's factors against
`factor_list`, the isolation scale against `preprocess_roots`, and real-root
counts against `count_roots`."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigidtori.intpoly import (_isolation_scale, factors_up_to,
                               is_irreducible, pair_sum_polynomial,
                               real_root_count, squarefree_part)
from rigidtori.polyfields import PolynomialField, _add, _mul


def _poly(coeffs, name="t"):
    from sympy import Poly, symbols
    return Poly(list(reversed(coeffs)), symbols(name))


def _sympy_intervals(coeffs):
    """sympy's isolating intervals of f's roots in its order and their
    scale: `preprocess_roots`, then `dup_isolate_complex_roots_sqf` on the
    rescaled polynomial."""
    from sympy.polys.polyroots import preprocess_roots
    from sympy.polys.rootisolation import dup_isolate_complex_roots_sqf
    scale, g = preprocess_roots(_poly(coeffs))
    return (Fraction(int(scale.p), int(scale.q)),
            dup_isolate_complex_roots_sqf(g.rep.to_list(), g.rep.dom,
                                          blackbox=True))


def _q(q, scale):
    return scale * Fraction(int(q.numerator), int(q.denominator))


def _assert_sympy_order(coeffs):
    # each certified box meets sympy's closed rectangle of the same index
    # and, once the rectangles it also meets are bisected further (they
    # may share an edge with a root on it), no other one: index k is
    # sympy's root k
    F = PolynomialField(coeffs)
    scale, intervals = _sympy_intervals(coeffs)
    assert len(intervals) == F.degree
    for k in range(F.degree):
        re, im, rad = F.root_box(k, 64)
        for _ in range(64):
            met = [j for j, iv in enumerate(intervals)
                   if _q(iv.ax, scale) <= re + rad
                   and re - rad <= _q(iv.bx, scale)
                   and _q(iv.ay, scale) <= im + rad
                   and im - rad <= _q(iv.by, scale)]
            if met == [k] or k not in met:
                break
            for j in met:
                intervals[j] = intervals[j].refine()
        assert met == [k], (coeffs, k)


@pytest.mark.parametrize("coeffs", [
    (2, 0, 0, 0, 0, 0, 1), (78, 0, 0, 0, 0, 0, 1),   # roots on Re z = 0
    (32, 0, 16, 0, 1), (49, 0, 1), (4, 0, 1),        # rescaled by 2, 7, 2
    (5, 0, 5, 0, 1), (1, 1, 0, 0, 1), (1, 1, 1, 1, 1, 1, 1),
    (1, 0, 0, 1, 0, 0, 1), (3, 1) + (0,) * 6 + (1,),
])
def test_root_order_matches_sympy_isolation(coeffs):
    _assert_sympy_order(coeffs)


def test_a_root_on_a_horizontal_line_goes_to_the_lower_half():
    # the roots -3 +- 2i, -1 +- i and 3 +- 7i: sympy's bisection meets a
    # horizontal line through one of them while it shares a rectangle with
    # another, and the order depends on which half takes it.  root_order
    # runs on any squarefree f without real roots; these discs are exact
    from rigidtori.intpoly import root_order
    roots = ((-3, 2), (-1, 1), (3, 7))
    f = [1]
    for a, b in roots:
        f = _mul(f, [a * a + b * b, -2 * a, 1])
    centres = [(Fraction(a), Fraction(s * b)) for a, b in roots
               for s in (-1, 1)]

    def refine(centres, eps):
        raise AssertionError("exact discs need no refinement")

    order = root_order(f, centres, Fraction(1, 2 ** 20), refine)
    scale, intervals = _sympy_intervals(f)
    for k, iv in enumerate(intervals):
        re, im = centres[order[k]]
        assert (_q(iv.ax, scale) <= re <= _q(iv.bx, scale)
                and _q(iv.ay, scale) <= im <= _q(iv.by, scale)), k
    assert order == [0, 1, 2, 3, 4, 5]


# g^2 + d has no real root; even g gives an even polynomial, and a scale c
# turns f(x) into c^n f(x/c), which sympy scales back
_no_real_roots = st.tuples(
    st.integers(1, 6), st.booleans(), st.integers(1, 5),
    st.lists(st.integers(-60, 60), min_size=6, max_size=6),
    st.integers(1, 500))


def _from_draw(draw):
    half, even, scale, low, d = draw
    g = [0 if even and k % 2 else low[k] for k in range(half)] + [1]
    f = _add(_mul(g, g), [d])
    n = len(f) - 1
    return tuple(c * scale ** (n - k) for k, c in enumerate(f))


@given(_no_real_roots)
def test_random_root_orders_match_sympy_isolation(draw):
    coeffs = _from_draw(draw)
    factors = _poly(coeffs).factor_list()[1]
    if len(factors) == 1 and factors[0][1] == 1:
        _assert_sympy_order(coeffs)
    else:
        assert not is_irreducible(list(coeffs))


_monic = st.lists(st.integers(-30, 30), min_size=1, max_size=9).map(
    lambda low: low + [1])


@given(_monic)
def test_irreducibility_matches_factor_list(coeffs):
    factors = _poly(coeffs).factor_list()[1]
    assert is_irreducible(coeffs) == (len(factors) == 1
                                      and factors[0][1] == 1)


def _factor_set(poly):
    return sorted(tuple(int(c) for c in reversed(f.all_coeffs()))
                  for f, _ in poly.factor_list()[1])


@given(st.lists(st.integers(-12, 12), min_size=2, max_size=6).map(
    lambda low: low + [1]))
def test_theta_factors_match_factor_list(coeffs):
    # P(u) = prod_{i<j} (u - a_i - a_j): Res_t(f(u - t), f(t)) is
    # +-2^n f(u/2) P(u)^2, and P's distinct factors are factor_list's
    from sympy import Poly, resultant, symbols
    t, u = symbols("t u")
    f = _poly(coeffs).as_expr()
    n = len(coeffs) - 1
    pairs = pair_sum_polynomial(coeffs)
    res = Poly(resultant(f.subs(t, u - t), f, t), u)
    half = _poly([c * 2 ** (n - k) for k, c in enumerate(coeffs)], "u")
    square = _poly(pairs, "u") ** 2
    assert res in (half * square, -half * square)
    sf = squarefree_part(pairs)
    factors, rest, _ = factors_up_to(sf, len(sf) - 1)
    assert rest == [1]
    assert sorted(tuple(g) for g in factors) == _factor_set(
        _poly(pairs, "u"))


def test_factors_beyond_the_cap_stay_in_the_rest():
    # x^10 + x + 3: P has degree 45 and is irreducible, so a cap of 28
    # leaves it whole, and the degree patterns name its degree
    pairs = squarefree_part(pair_sum_polynomial([3, 1] + [0] * 8 + [1]))
    factors, rest, degrees = factors_up_to(pairs, 28)
    assert (factors, rest, degrees) == ([], pairs, (45,))


@pytest.mark.parametrize("coeffs", [
    (49, 0, 1), (64, 0, 0, 0, 0, 0, 1), (2, 0, 0, 0, 0, 0, 1),
    (32, 0, 16, 0, 1), (1024, 512, 0, 0, 0, 1), (144, 0, 12, 0, 1),
    (5 ** 8 * 3, 0, 5 ** 4 * 7, 0, 1), ((2 ** 61 - 1) ** 4, 0,
                                         (2 ** 61 - 1) ** 2 * 3, 0, 1),
    (7 * 11 ** 3, 11 ** 2, 0, 1), (1, 1, 1), (-6, 0, 1),
])
def test_isolation_scale_matches_preprocess_roots(coeffs):
    from sympy.polys.polyroots import preprocess_roots
    scale, _ = preprocess_roots(_poly(coeffs))
    assert _isolation_scale(list(coeffs)) == int(scale)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.integers(2, 12))
def test_random_isolation_scales_match_preprocess_roots(degrees, units,
                                                       base):
    # coefficients built from powers of a common base, as a rescaled
    # polynomial has them
    from sympy.polys.polyroots import preprocess_roots
    n = 8
    coeffs = [0] * n + [1]
    for k, (e, c) in enumerate(zip(degrees, units)):
        coeffs[k] = c * base ** e if c else 0
    if not any(coeffs[:n]):
        coeffs[0] = base
    scale, _ = preprocess_roots(_poly(coeffs))
    assert _isolation_scale(coeffs) == int(scale)


@given(st.lists(st.fractions(min_value=-20, max_value=20,
                             max_denominator=7), min_size=1, max_size=10))
def test_real_root_count_matches_count_roots(coeffs):
    # a Sturm count counts distinct real roots, as count_roots does
    from sympy import Rational
    poly = _add(coeffs, [])
    if poly:
        expected = _poly([Rational(c.numerator, c.denominator)
                          for c in poly]).count_roots()
        assert real_root_count(poly) == expected
