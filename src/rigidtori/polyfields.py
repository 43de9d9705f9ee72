"""Standalone number fields Q[t]/f for the polarization-existence decision.

Only what that decision needs: certified root enclosures, ordered to pair
complex-conjugate roots, and the exact rational subspace of elements that
are purely imaginary under every embedding.  The latter is computed per
conjugate pair through the real subfield Q(theta), theta = alpha + conj(alpha):
the quadratic t^2 - theta t + p divides f, p = alpha * conj(alpha) lies in
Q(theta), and the power sums s_j = alpha^j + conj(alpha)^j obey
s_j = theta s_(j-1) - p s_(j-2), so the condition "sum x_j s_j = 0" becomes
deg(theta) exact rational linear equations on x.  No splitting fields, no
numerics in the kernel computation.

The tower has one arithmetic: a dense-polynomial kernel (add, multiply,
divide with remainder, monic gcd) over any field whose elements support
+ - * and Fraction(1) / x, and one residue class for a polynomial reduced
modulo an irreducible modulus, inverted by extended Euclid on the same
kernel.  Residues mod g are Q(theta); residues mod G whose coefficients
are residues mod g are Q(theta)[p]/G.  Every value the tower keeps (a
monic gcd, an inverse in a field, a reduced remainder) is unique, so it
does not depend on the order of the arithmetic.

Root enclosures come from the inclusion-disc bound (Henrici, Applied and
Computational Complex Analysis I, 6.4): for any z, the disc of radius
n |f(z)/f'(z)| around z holds a root of f.  All n roots start on a circle
of float points, as Aberth's method usually does, and are polished per
precision by Newton steps with Aberth's deflation in Gaussian fixed point,
each approximation an integer triple (a, b, w) standing for (a + bi)/2^w.
Each centre z = (a + bi)/2^e, read off a triple by a shift, is certified
exactly in integer arithmetic at a precision c >= prec:
n^2 |f(z)|^2 <= 4^-c |f'(z)|^2, so the disc has radius at most 2^-c, and
the n centres are more than 4 * 2^-c apart, so the discs are disjoint and
each holds exactly one root.  c starts at prec and doubles while two
centres are too close; the returned radius stays 2^-prec, so boxes of
roots closer than that may overlap.

Root indices follow the order of sympy's `all_roots`, which the conjugate
pairing, designated roots and callers rely on: upper half-plane roots by
the lower-left corners of the rectangles sympy's bisection isolates them
in, each preceded by its conjugate.  `intpoly.root_order` derives it once,
from the first certified discs, by simulating that bisection with exact
decisions.  The discs of every later precision are pinned to those of the
previous one: a disc meets only the disc of its own root among certified
discs at least as large.  Certified centres are cached per precision on
the field.  The conjugate pairs are (0, 1), (2, 3), ... with no
certificate of their own: root_order puts before root k the one centre
within 2 eps of conj(c_k), the conjugate root's, as the others are more
than 4 eps from that one.

Every certified evaluation, here and in `cyclotomic`, is one exact
rational box Horner (`_enclosure`) on a rectangle around a root: a root
box, or the dyadic rectangle around zeta_m^a that `_zeta_rectangle` builds
in integers from Machin's pi and the Taylor series of cos and sin.
The Horner runs in integers, on the coefficients times their common
denominator and the box ends times theirs, and divides its four bounds
once at the end; positive scaling commutes with min and max, so they are
the same rationals as those of a Horner in Fractions.
Its precisions climb one ladder (`_precisions`) to PRECISION_BITS_CAP
bits, and its signs are read by one rule (`_certified_sign`).

Irreducibility over Q (Zassenhaus), the real-root count (Sturm), the root
order and theta's minimal polynomial (a factor of prod_{i<j} (u - a_i - a_j))
are exact integer computations in `intpoly`, which the first field imports,
so importing this module stays cheap.  No computer-algebra system is used.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, cos, gcd, lcm, ldexp, pi, sin

from . import linalg
from .errors import DomainError

__all__ = [
    "PolynomialField",
    "ReduciblePolynomial",
    "RealEmbeddingPresent",
    "DEGREE_CAP",
    "COEFFICIENT_BITS_CAP",
    "THETA_DEGREE_CAP",
    "PRECISION_BITS_CAP",
    "PrecisionCapReached",
]

DEGREE_CAP = 16
# Widest admitted coefficient, in bits: the admission limit on coefficient
# size (x^2 + 3*10^160 once took 5.5 s on a 2-core host).
COEFFICIENT_BITS_CAP = 128
# Highest admitted degree of theta's minimal polynomial g, C(8, 2): every
# field of degree <= 8 passes.  The tower over Q[u]/g costs far more than
# linearly in deg g (2-core host: x^8 + x + 3, deg g = 28, 0.16 s of
# pair_data; x^10 + x + 3, deg g = 45, 15 s; x^16 + x + 3, deg g = 120,
# unbounded), so larger g are refused before the tower is built.
THETA_DEGREE_CAP = comb(8, 2)
# Highest precision, in bits, of every certified evaluation, the top of the
# one ladder `_precisions` (at 65536 bits the root boxes alone take seconds).
PRECISION_BITS_CAP = 4096


class PrecisionCapReached(DomainError, ArithmeticError):
    """A certified evaluation still undecided at PRECISION_BITS_CAP bits."""


def _cap_reached(what):
    return PrecisionCapReached(f"{what} at {PRECISION_BITS_CAP} bits")


def _precisions(start=64):
    """The one precision ladder: start, 2 start, 4 start, ... up to
    PRECISION_BITS_CAP bits."""
    prec = start
    while prec <= PRECISION_BITS_CAP:
        yield prec
        prec *= 2


def _certified_sign(enclose):
    """The sign, 1 or -1, of a nonzero real number whose enclosure
    enclose(prec) = (midpoint, radius) is taken up the ladder until it
    excludes 0; None when it still contains 0 at the cap."""
    for prec in _precisions():
        mid, rad = enclose(prec)
        if mid - rad > 0:
            return 1
        if mid + rad < 0:
            return -1
    return None


# Extra working bits for the Newton polish; doubled when a certificate fails.
_GUARD_BITS = 32


class ReduciblePolynomial(DomainError, ValueError):
    pass


class RealEmbeddingPresent(DomainError, ValueError):
    pass


# -- dense polynomials and residues ------------------------------------------
#
# A polynomial is a list of coefficients, low degree first, with no zero on
# top; the coefficients are Fractions or `_Residue`s, and the int 0 is the
# zero at every level.  Division goes through Fraction(1) / lead, never
# 1 / lead, which for an int lead would give a float.


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, c=1):
    """a + c b."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = out[i] + c * x
    return _trim(out)


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return _trim(out)


def _divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b, for a nonzero b."""
    r = _trim(list(a))
    q = [0] * max(len(r) - len(b) + 1, 0)
    if q:
        # a monic divisor keeps integer coefficients ints, not Fractions
        inv = 1 if b[-1] == 1 else Fraction(1) / b[-1]
    while len(r) >= len(b):
        off = len(r) - len(b)
        f = q[off] = r.pop() * inv
        for i, y in enumerate(b[:-1]):
            r[off + i] = r[off + i] - f * y
        _trim(r)
    return q, r


def _gcd(a, b):
    """The monic gcd of a and b (empty when both are zero)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod(a, b)[1]
    if not a:
        return a
    inv = Fraction(1) / a[-1]
    return [x * inv for x in a]


def _coeffs(x):
    """The coefficient list of a residue, or of a scalar as a constant."""
    return x.coeffs if isinstance(x, _Residue) else _trim([x])


def _vector(x, n):
    """The n coordinates of x, padded with zeros."""
    c = _coeffs(x)
    return c + [0] * (n - len(c))


class _Residue:
    """A polynomial reduced modulo `modulus`: an element of Q[u]/g, or of
    (Q[u]/g)[p]/G when the coefficients are themselves residues mod g.
    Ints, Fractions and residues of the same modulus mix in + - *."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus, coeffs):
        self.modulus = modulus
        self.coeffs = _divmod(coeffs, modulus)[1]

    def __add__(self, other):
        return _Residue(self.modulus, _add(self.coeffs, _coeffs(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return _Residue(self.modulus, _add(self.coeffs, _coeffs(other), -1))

    def __rsub__(self, other):
        return _Residue(self.modulus, _add(_coeffs(other), self.coeffs, -1))

    def __mul__(self, other):
        return _Residue(self.modulus, _mul(self.coeffs, _coeffs(other)))

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __bool__(self):
        return bool(self.coeffs)

    def inverse(self):
        """By extended Euclid against the modulus, which is irreducible."""
        r0, r1 = self.modulus, self.coeffs
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, r = _divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _add(s0, _mul(q, s1), -1)
        if not r1:
            raise ZeroDivisionError("residue is not invertible")
        inv = Fraction(1) / r1[0]
        return _Residue(self.modulus, [x * inv for x in s1])


# -- the field ---------------------------------------------------------------


class ConjugatePairData:
    __slots__ = ("root_indices", "theta_minpoly", "p_modulus")

    def __init__(self, root_indices: tuple, theta_minpoly: tuple,
                 p_modulus: tuple):
        self.root_indices = root_indices    # (i, ibar)
        # Fraction coefficients, low first, monic
        self.theta_minpoly = theta_minpoly
        # monic polynomial over Q(theta) vanishing at p = alpha*conj(alpha);
        # linear in the generic case, of higher degree when several
        # conjugate pairs share the same theta
        self.p_modulus = p_modulus


class PolynomialField:
    """Q[t]/f for a monic irreducible integer polynomial with no real roots."""

    def __init__(self, coefficients):
        coeffs = [int(c) for c in coefficients]
        if not coeffs or coeffs[-1] != 1:
            raise ReduciblePolynomial("polynomial must be monic with integer "
                                      "coefficients (low degree first)")
        self.coeffs = tuple(coeffs)
        self.degree = len(coeffs) - 1
        if self.degree < 1 or self.degree > DEGREE_CAP:
            raise ReduciblePolynomial(
                f"degree must be between 1 and {DEGREE_CAP}")
        if max(abs(c) for c in coeffs).bit_length() > COEFFICIENT_BITS_CAP:
            raise ReduciblePolynomial(
                f"coefficients must have at most {COEFFICIENT_BITS_CAP} bits")
        from . import intpoly
        if not intpoly.is_irreducible(coeffs):
            raise ReduciblePolynomial("polynomial is reducible over Q")
        n_real = intpoly.real_root_count(coeffs)
        if n_real:
            raise RealEmbeddingPresent(
                f"polynomial has {n_real} real roots; field is not totally "
                "imaginary")
        self._approx = _circle(coeffs)
        self._centres = {}
        self._reference = None     # the last certified centres and radius
        # the root order puts each root right after its conjugate
        self.pairs = tuple((i, i + 1) for i in range(0, self.degree, 2))
        self._pair_data = None
        self._im_basis = None

    # -- certified enclosures ---------------------------------------------

    def root_box(self, index: int, prec_bits: int = 64):
        """Certified rational box (re, im, radius) around root `index`:
        the root lies within `radius` = 2^-prec_bits of (re, im)."""
        centres = self._centres.get(prec_bits)
        if centres is None:
            centres = self._centres[prec_bits] = self._certified_centres(
                prec_bits)
        re, im = centres[index]
        return re, im, Fraction(1, 2 ** prec_bits)

    def _certified_centres(self, prec_bits):
        """Centres (re, im) of all roots in root order, each certified to
        lie within 2^-prec_bits of its root (see the module docstring)."""
        centres, eps = self._certified_discs(prec_bits)
        if self._reference is None:
            from . import intpoly
            order = intpoly.root_order(self.coeffs, centres, eps,
                                       self._refined)
        else:
            order = _match(*self._reference, centres, eps)
        self._approx = [self._approx[j] for j in order]
        ordered = tuple(centres[j] for j in order)
        self._reference = (ordered, eps)
        return ordered

    def _certified_discs(self, prec_bits):
        """Centres (re, im) of disjoint discs of radius eps = 2^-cert, each
        certified to hold one root, indexed like self._approx, and eps.
        cert starts at prec_bits and doubles while two centres are within
        4 * 2^-cert of each other; the guard bits of the polish double while
        a disc fails its certificate.  Neither climbs past
        PRECISION_BITS_CAP."""
        cert, guard = prec_bits, _GUARD_BITS
        while max(cert, guard) <= PRECISION_BITS_CAP:
            bits = cert + guard
            self._approx = _polish(self.coeffs, self._approx, bits)
            # centres on the grid 2^-bits
            points = [(_on_grid(a, w, bits), _on_grid(b, w, bits))
                      for a, b, w in self._approx]
            if not all(_inclusion_disc_fits(self.coeffs, a, b, bits, cert)
                       for a, b in points):
                guard *= 2
                continue
            if not _pairwise_apart(points, bits, cert):
                cert *= 2
                continue
            scale = 2 ** bits
            return ([(Fraction(a, scale), Fraction(b, scale))
                     for a, b in points], Fraction(1, 2 ** cert))
        raise _cap_reached(f"could not certify the roots of {self.coeffs}")

    def _refined(self, centres, eps):
        """Discs certified at twice the bits of eps, indexed like
        `centres`."""
        cert = 2 * (eps.denominator.bit_length() - 1)
        if cert > PRECISION_BITS_CAP:
            raise _cap_reached("could not place a root against a bisection "
                               "line")
        finer, finer_eps = self._certified_discs(cert)
        order = _match(centres, eps, finer, finer_eps)
        self._approx = [self._approx[j] for j in order]
        return [finer[j] for j in order], finer_eps

    # -- evaluation --------------------------------------------------------

    def evaluate_box(self, coeffs, root_index: int, prec_bits: int = 64):
        """Certified (re, im, radius) enclosure of x(alpha_i) for rational x,
        by interval Horner with exact rational interval endpoints."""
        re_c, im_c, rad = self.root_box(root_index, prec_bits)
        return _enclosure(coeffs, re_c - rad, re_c + rad,
                          im_c - rad, im_c + rad)

    def sign_imag(self, coeffs, root_index: int) -> int | None:
        """Exact sign of Im(x(alpha_i)) for x in the imaginary subspace:
        nonzero elements there have nonzero imaginary part everywhere.
        None when the sign is still undecided at PRECISION_BITS_CAP bits."""
        if all(Fraction(q) == 0 for q in coeffs):
            return 0
        return _certified_sign(
            lambda prec: self.evaluate_box(coeffs, root_index, prec)[1:])

    # -- the purely-imaginary subspace --------------------------------------

    def pair_data(self):
        if self._pair_data is not None:
            return self._pair_data
        from . import intpoly
        # theta = alpha + conj(alpha) is a root of one irreducible factor of
        # prod_{i<j} (u - a_i - a_j); factors beyond the cap stay unsplit
        sums = intpoly.squarefree_part(intpoly.pair_sum_polynomial(
            list(self.coeffs)))
        factors, rest, rest_degrees = intpoly.factors_up_to(
            sums, THETA_DEGREE_CAP)
        if len(rest) > 1:
            factors.append(rest)
        data = []
        p_moduli = {}      # pairs with the same theta share their p modulus
        for (i, ibar) in self.pairs:
            g = self._identify_factor(factors, i)
            if g is rest:
                degree = (rest_degrees[0] if len(rest_degrees) == 1
                          else f"at least {rest_degrees[0]}")
                raise ReduciblePolynomial(
                    f"theta = alpha + conj(alpha) has degree {degree}; "
                    f"at most {THETA_DEGREE_CAP} is admitted")
            g = tuple(Fraction(c) for c in g)
            if g not in p_moduli:
                p_moduli[g] = tuple(
                    tuple(Fraction(x) for x in _vector(c, len(g) - 1))
                    for c in self._p_modulus(g))
            data.append(ConjugatePairData(
                root_indices=(i, ibar), theta_minpoly=g,
                p_modulus=p_moduli[g]))
        self._pair_data = tuple(data)
        return self._pair_data

    def _identify_factor(self, factors, i):
        """The factor vanishing at theta = 2 Re(alpha_i), among coprime
        integer polynomials whose product vanishes there."""
        for prec in _precisions():
            re, _, rad = self.root_box(i, prec)
            mid, rad = 2 * re, 2 * rad
            alive = []
            for coeffs in factors:
                lo, hi, _, _ = _box_horner(coeffs, mid - rad, mid + rad, 0, 0)
                if lo <= 0 <= hi:
                    alive.append(coeffs)
            if len(alive) == 1:
                return alive[0]
        raise _cap_reached("could not isolate the minimal polynomial of theta")

    def _p_modulus(self, g):
        """A monic polynomial over Q(theta) with p = alpha * conj(alpha)
        among its roots: the gcd of the remainder coefficients b1, b0 of
        f mod (t^2 - theta t + p), as polynomials in p.  Degree one
        generically; higher when distinct conjugate pairs share theta
        (e.g. even polynomials, where both pairs have theta = 0).  When
        b1 = 0 the gcd is the monic b0."""
        theta = _Residue(g, [0, 1])
        # c[k], the coefficient of t^k, as a polynomial in p over Q(theta);
        # t^k = t^(k-2) (theta t - p) from the top down
        c = [[_Residue(g, [a])] for a in self.coeffs]
        for k in range(self.degree, 1, -1):
            lead = c.pop()
            c[k - 1] = _add(c[k - 1], lead, theta)
            c[k - 2] = _add(c[k - 2], [0] + lead, -1)
        gcd = _gcd(c[1], c[0])
        if len(gcd) < 2:
            raise AssertionError("remainder gcd degenerated; no p value")
        return gcd

    def imaginary_subspace(self):
        """Exact rational basis of {x in F : every embedding of x is purely
        imaginary}, as coefficient vectors in the power basis.

        Per conjugate pair the condition "sum_j x_j (alpha^j + conj(alpha)^j)
        vanishes" is expanded over the tower (Q[u]/g)[p]/G; imposing it on
        the whole tower is equivalent for rational x because every point of
        the (g, G) variety is a Galois conjugate of a genuine pair point."""
        if self._im_basis is not None:
            return self._im_basis
        n = self.degree
        rows = []
        seen_moduli = set()
        for pd in self.pair_data():
            key = (pd.theta_minpoly, pd.p_modulus)
            if key in seen_moduli:
                continue
            seen_moduli.add(key)
            g = pd.theta_minpoly
            modulus = [_Residue(g, c) for c in pd.p_modulus]
            theta = _Residue(modulus, [_Residue(g, [0, 1])])
            p = _Residue(modulus, [0, 1])
            s = [_Residue(modulus, [2]), theta]
            while len(s) < n:
                s.append(theta * s[-1] - p * s[-2])
            # each (p-power, theta-power) coordinate gives one rational row
            grids = [[_vector(x, len(g) - 1)
                      for x in _vector(s_j, len(modulus) - 1)] for s_j in s]
            rows.extend([Fraction(grid[i][k]) for grid in grids]
                        for i in range(len(modulus) - 1)
                        for k in range(len(g) - 1))
        basis = linalg.nullspace(rows) if rows else []
        cleaned = []
        for vec in linalg.row_space_basis(basis) if basis else []:
            den = lcm(*(x.denominator for x in vec))
            ints = [int(x * den) for x in vec]
            g = gcd(*ints)
            cleaned.append(tuple(Fraction(x, g if g else 1) for x in ints))
        self._im_basis = tuple(cleaned)
        return self._im_basis

    def element_is_purely_imaginary(self, coeffs) -> bool:
        """Independent exact membership test: the characteristic polynomial
        of multiplication by x must be even/odd with chi(it) real-rooted."""
        charpoly = self._multiplication_charpoly(coeffs)
        n = len(charpoly) - 1
        # all roots purely imaginary => coefficients vanish in alternating
        # positions: chi(t) = +/- chi(-t)
        even_ok = all(charpoly[k] == 0 for k in range(1, n + 1, 2))
        odd_ok = all(charpoly[k] == 0 for k in range(0, n + 1, 2))
        if not (even_ok or odd_ok):
            return False
        # substitute t -> i t and check all roots real via Sturm
        sub = []
        for k, c in enumerate(charpoly):
            # i^k cycle 1, i, -1, -i; drop the overall i-multiple for odd case
            sign = (1, 1, -1, -1)[k % 4]
            sub.append(c * sign)
        from . import intpoly
        poly = _trim(sub)
        if len(poly) <= 1:
            return True
        square_free = _divmod(poly, _gcd(
            poly, _trim([k * c for k, c in enumerate(poly)][1:])))[0]
        return intpoly.real_root_count(square_free) == len(square_free) - 1

    def _multiplication_charpoly(self, coeffs):
        n = self.degree
        cols = [_vector(_Residue(self.coeffs, [0] * j + list(coeffs)), n)
                for j in range(n)]
        mat = [[Fraction(cols[j][i]) for j in range(n)] for i in range(n)]
        return _charpoly(mat)


def _enclosure(coeffs, re_lo, re_hi, im_lo, im_hi):
    """Certified (re, im, radius) enclosure of a rational polynomial's
    values on the box: the midpoints of `_box_horner`'s bounds, and one
    radius that covers both parts."""
    rl, rh, il, ih = _box_horner(coeffs, re_lo, re_hi, im_lo, im_hi)
    mid_re, mid_im = (rl + rh) / 2, (il + ih) / 2
    return mid_re, mid_im, max(rh - mid_re, ih - mid_im)


def _box_horner(coeffs, re_lo, re_hi, im_lo, im_hi):
    """Exact rational interval Horner of a rational polynomial on the box
    [re_lo, re_hi] + i [im_lo, im_hi]: (lo, hi) bounds of the real part of
    its values there, then of the imaginary part.  With im_lo = im_hi = 0
    the imaginary bounds stay 0 and the real ones are those of real
    interval Horner on [re_lo, re_hi].

    It runs in integers: the coefficients are scaled by their common
    denominator C and the box ends by theirs, D, so after j steps the
    accumulator is the true one times C D^(j-1), and the bounds are divided
    once at the end.  Positive scaling commutes with min and max, so they
    are the same rationals as those of the Horner in Fractions."""
    coeffs = [Fraction(q) for q in coeffs]
    if not coeffs:
        return (Fraction(0),) * 4
    box = [Fraction(x) for x in (re_lo, re_hi, im_lo, im_hi)]
    c_den = lcm(*(c.denominator for c in coeffs))
    d = lcm(*(x.denominator for x in box))
    xl, xh, yl, yh = (x.numerator * (d // x.denominator) for x in box)

    def interval_mul(a_lo, a_hi, b_lo, b_hi):
        vals = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        return min(vals), max(vals)

    rl = rh = il = ih = 0
    scale = 1          # D^(j-1) at step j
    for c in reversed(coeffs):
        # acc = acc * z + c, times C D^(j-1)
        c = c.numerator * (c_den // c.denominator) * scale
        p1l, p1h = interval_mul(rl, rh, xl, xh)
        p2l, p2h = interval_mul(il, ih, yl, yh)
        p3l, p3h = interval_mul(rl, rh, yl, yh)
        p4l, p4h = interval_mul(il, ih, xl, xh)
        rl, rh, il, ih = p1l - p2h + c, p1h - p2l + c, p3l + p4l, p3h + p4h
        scale *= d
    den = c_den * scale // d
    return tuple(Fraction(x, den) for x in (rl, rh, il, ih))


def _charpoly(mat):
    """Characteristic polynomial by the Faddeev-LeVerrier recurrence."""
    n = len(mat)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        # M = A*M + c*I ; c = -tr(A*M)/k
        am = linalg.mat_mul(mat, m)
        for i in range(n):
            am[i][i] += c
        m = am
        prod = linalg.mat_mul(mat, m)
        c = -sum(prod[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return coeffs



# -- certified roots ----------------------------------------------------------


def _circle(coeffs):
    """Aberth's usual start: n points on a circle about the origin whose
    radius max |c_k|^(1/(n-k)) is within a factor 2 n of the largest root,
    as triples (a, b, 64) from floats (see `_polish`).  No point is real and
    no two are conjugate: for a real polynomial the iteration would keep
    such points real or conjugate."""
    n = len(coeffs) - 1
    radius = max(abs(c) ** (1 / (n - k))
                 for k, c in enumerate(coeffs[:-1]) if c)
    angles = (pi * (2 * k / n + 0.13) for k in range(n))
    return [(int(ldexp(radius * cos(t), 64)), int(ldexp(radius * sin(t), 64)),
             64) for t in angles]


def _match(old, old_eps, new, new_eps):
    """order[k] = the index in `new` of the disc holding the root of disc k
    in `old`, for two families of certified discs of radii old_eps and
    new_eps, each disc holding one root and the centres of each family more
    than 4 times its radius apart.  A disc meets the disc of its own root in
    the other family, and no second disc there when that family's radius is
    not smaller: two met discs would have centres within 4 times it."""
    reach = (old_eps + new_eps) ** 2

    def met(centre, family):
        k, = [k for k, (re, im) in enumerate(family)
              if (re - centre[0]) ** 2 + (im - centre[1]) ** 2 <= reach]
        return k

    if new_eps > old_eps:
        return [met(centre, new) for centre in old]
    order = [None] * len(old)
    for j, centre in enumerate(new):
        order[met(centre, old)] = j
    return order


def _on_grid(x, w, bits):
    """x / 2^w on the grid 2^-bits: x 2^(bits - w), floored."""
    return x >> (w - bits) if w >= bits else x << (bits - w)


def _polish(coeffs, approx, bits):
    """Newton steps on all roots at once, with Aberth's deflation term so
    that no two approximations converge to the same root, until every step
    is below 2^-bits relative to its root.  Each step about doubles the
    correct bits, so the working precision climbs to `bits` by doubling.
    Certification happens afterwards; this only proposes.

    It runs in Gaussian fixed point: an approximation is a triple (a, b, w)
    standing for (a + bi)/2^w, and a precision level works at w = level + 16
    fractional bits, every product and quotient floored to that grid."""
    ladder = [bits]
    while ladder[-1] > 128:
        ladder.append(ladder[-1] // 2)
    n = len(coeffs) - 1
    z = approx
    for level in reversed(ladder):
        w = level + 16
        lower = [c << w for c in reversed(coeffs[:-1])]    # f is monic
        z = [(_on_grid(a, u, w), _on_grid(b, u, w)) for a, b, u in z]
        for _step in range(8 + 2 * level.bit_length()):
            # the deflation sums of 1/(z_i - z_j), each pair once
            sums = [[0, 0] for _ in z]
            for i, (a, b) in enumerate(z):
                for j in range(i + 1, n):
                    xr, xi = a - z[j][0], b - z[j][1]
                    q = xr * xr + xi * xi
                    if q:
                        xr, xi = (xr << 2 * w) // q, (xi << 2 * w) // q
                        sums[i][0] += xr
                        sums[i][1] -= xi
                        sums[j][0] -= xr
                        sums[j][1] += xi
            moved, small = [], True
            for (a, b), (sr, si) in zip(z, sums):
                # f (vr, vi) and f' (dr, di) by one Horner pass
                vr, vi, dr, di = 1 << w, 0, 0, 0
                for c in lower:
                    dr, di = ((dr * a - di * b >> w) + vr,
                              (dr * b + di * a >> w) + vi)
                    vr, vi = (vr * a - vi * b >> w) + c, vr * b + vi * a >> w
                # f/f' / (1 - f/f' * deflation) = f / (f' - f deflation),
                # kept finite where f' = 0
                dr -= vr * sr - vi * si >> w
                di -= vr * si + vi * sr >> w
                q = dr * dr + di * di
                if q:
                    tr = ((vr * dr + vi * di) << w) // q
                    ti = ((vi * dr - vr * di) << w) // q
                    a, b = a - tr, b - ti
                    # |step| <= 2^-level max(1, |z|), squared, times 4^w
                    small = small and ((tr * tr + ti * ti) << 2 * level
                                       <= max(1 << 2 * w, a * a + b * b))
                moved.append((a, b))
            z = moved
            if small:
                break
        z = [(a, b, w) for a, b in z]
    return z


def _gaussian_horner(coeffs, a, b, s):
    """s^d p(w/s) as a Gaussian integer (re, im), for w = a + bi and an
    integer polynomial p of degree d (coefficients low degree first)."""
    re, im = coeffs[-1], 0
    spow = s
    for c in reversed(coeffs[:-1]):
        re, im = re * a - im * b + c * spow, re * b + im * a
        spow *= s
    return re, im


def _inclusion_disc_fits(coeffs, a, b, bits, prec_bits):
    """Whether n |f(z)/f'(z)| <= 2^-prec_bits at z = (a + bi)/2^bits, so
    the disc of that radius around z holds a root of f.  Exact: with
    s = 2^bits, F = s^n f(z) and D = s^(n-1) f'(z) are Gaussian integers,
    and the test is n^2 |F|^2 4^prec_bits <= |D|^2 4^bits."""
    n = len(coeffs) - 1
    s = 1 << bits
    fr, fi = _gaussian_horner(coeffs, a, b, s)
    dr, di = _gaussian_horner([k * c for k, c in enumerate(coeffs)][1:],
                              a, b, s)
    return ((n * n * (fr * fr + fi * fi)) << (2 * prec_bits)
            <= (dr * dr + di * di) << (2 * bits))


def _pairwise_apart(points, bits, prec_bits):
    """Whether the centres (a + bi)/2^bits are pairwise more than
    4 * 2^-prec_bits apart, so that their discs and boxes of radius
    2^-prec_bits are disjoint."""
    bound = 16 << (2 * (bits - prec_bits))
    return all((a1 - a2) ** 2 + (b1 - b2) ** 2 > bound
               for k, (a1, b1) in enumerate(points)
               for a2, b2 in points[k + 1:])


# -- the rectangle around a root of unity ------------------------------------


@lru_cache(maxsize=16)
def _pi_bounds(p):
    """Integers lo <= pi 2^p <= hi by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239).  Term j of atan(1/x) 2^p is floored
    once, floor(2^p / ((2j + 1) x^(2j+1))), so it is off by under one ulp,
    and the series stops at the first term whose floor is 0, which bounds
    the alternating remainder by one ulp more."""
    total = slack = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, j = (1 << p) // x, 0
        while power:
            term = power // (2 * j + 1)
            total += -weight * term if j % 2 else weight * term
            power //= x * x
            j += 1
        slack += abs(weight) * (j + 1)
    return total - slack, total + slack


def _sin_cos(x, p):
    """(s, c, slack): 2^p sin(x 2^-p) and 2^p cos(x 2^-p) lie within slack
    of s and c, for 0 <= x <= 2^p.  The Taylor terms x^k / k! come from one
    chain t_k = floor(t_(k-1) x / (k 2^p)), whose error e_k is under
    1 + e_(k-1)/k, so under 2 ulps, and stop at the first that floors to 0;
    both series alternate with decreasing terms, so the first omitted one,
    under 2 ulps, bounds each remainder."""
    sums = [1 << p, 0]      # cos, sin
    term, k = 1 << p, 0
    while term:
        k += 1
        term = term * x // k >> p
        sums[k % 2] += -term if k % 4 >= 2 else term
    return sums[1], sums[0], 2 * k


def _zeta_rectangle(m, k, precision):
    """An exact dyadic rectangle (re_lo, re_hi, im_lo, im_hi) around
    exp(2 pi i k/m), each side at most 2^(2 - precision) wide (see
    `cyclotomic._zeta_box` for its error budget)."""
    p = precision + precision.bit_length() + 8
    quarter, rest = divmod(4 * (k % m), m)
    # exp(2 pi i k/m) = i^quarter exp(2 pi i rest/4m); past the octant,
    # exp(2 pi i s) for s in (1/8, 1/4) is (sin, cos) of 2 pi (1/4 - s)
    num = rest if 2 * rest <= m else m - rest
    lo, hi = _pi_bounds(p)
    # the angle 2 pi num/4m in [0, pi/4], where sin rises and cos falls
    s_lo, c_hi, e_lo = _sin_cos(lo * num // (2 * m), p)
    s_hi, c_lo, e_hi = _sin_cos(-(-hi * num // (2 * m)), p)
    re = (c_lo - e_hi, c_hi + e_lo)
    im = (s_lo - e_lo, s_hi + e_hi)
    if num != rest:
        re, im = im, re
    for _ in range(quarter):
        re, im = (-im[1], -im[0]), re
    return tuple(Fraction(x, 1 << p) for x in re + im)
