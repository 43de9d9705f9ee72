"""Exact arithmetic in cyclotomic fields Q(zeta_m) and certified embeddings.

Elements are stored in the power basis 1, z, ..., z^(phi(m)-1) modulo the
m-th cyclotomic polynomial, with arbitrary-precision rational coefficients.
Embeddings sigma_a : z -> exp(2*pi*i*a/m) are evaluated with outward-rounded
interval arithmetic, so every numeric enclosure is certified.  Sign queries
are decided exactly: the zero case is settled by the Galois action (never by
floats), nonzero cases by precision escalation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg

__all__ = [
    "CyclotomicField",
    "CyclotomicNumber",
    "CertifiedComplex",
    "SubfieldSpec",
    "ConductorMismatch",
    "PRECISION_START",
    "PRECISION_CAP",
]

PRECISION_START = 64
PRECISION_CAP = 16384


class ConductorMismatch(ValueError):
    """Raised when combining elements of different cyclotomic fields."""


def _euler_phi(m: int) -> int:
    return sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(m: int) -> tuple:
    """Integer coefficients of Phi_m, low degree first: x^m - 1 divided
    exactly by Phi_d for every proper divisor d of m."""
    quotient = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            divisor = _cyclotomic_coeffs(d)
            top = len(divisor) - 1
            out = [0] * (len(quotient) - top)
            for k in range(len(out) - 1, -1, -1):
                c = out[k] = quotient[k + top]
                if c:
                    for i, b in enumerate(divisor):
                        quotient[k + i] -= c * b
            quotient = out
    return tuple(quotient)


@lru_cache(maxsize=None)
def CyclotomicField(m: int) -> "_Field":
    """The field Q(zeta_m), cached per conductor."""
    return _Field(m)


class _Field:
    """Q(zeta_m) with precomputed reduction data for the power basis."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("conductor must be positive")
        self.m = m
        self.modulus = _cyclotomic_coeffs(m)
        self.degree = len(self.modulus) - 1
        assert self.degree == _euler_phi(m)
        # power_table[k] = coefficients of z^k reduced mod Phi_m, 0 <= k < max(m, 2*deg)
        deg = self.degree
        table = []
        cur = [Fraction(0)] * deg
        cur[0] = Fraction(1)
        span = max(m, 2 * deg)
        for _ in range(span):
            table.append(tuple(cur))
            nxt = [Fraction(0)] * (deg + 1)
            for i, c in enumerate(cur):
                nxt[i + 1] = c
            top = nxt[deg]
            if top:
                for i in range(deg):
                    nxt[i] -= top * self.modulus[i]
            cur = nxt[:deg]
        self.power_table = table
        self.units = tuple(a for a in range(1, m + 1) if gcd(a, m) == 1)

    def __repr__(self):
        return f"CyclotomicField({self.m})"

    def zero(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self, (Fraction(0),) * self.degree)

    def one(self) -> "CyclotomicNumber":
        return self.from_rational(1)

    def zeta(self, power: int = 1) -> "CyclotomicNumber":
        """z^power as a field element."""
        return CyclotomicNumber(self, self.power_table[power % self.m])

    def from_rational(self, q) -> "CyclotomicNumber":
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(q)
        return CyclotomicNumber(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> "CyclotomicNumber":
        """Element from power-basis coordinates (length <= phi(m))."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("too many coefficients")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return CyclotomicNumber(self, tuple(cs))

    def from_exponent_dict(self, exps) -> "CyclotomicNumber":
        """Sum of q * z^k over an {exponent: rational} mapping."""
        acc = [Fraction(0)] * self.degree
        for k, q in exps.items():
            q = Fraction(q)
            for i, c in enumerate(self.power_table[k % self.m]):
                if c:
                    acc[i] += q * c
        return CyclotomicNumber(self, tuple(acc))


class CyclotomicNumber:
    """Immutable element of Q(zeta_m) in canonical power-basis form."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: _Field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)
        self._hash = None

    # -- ring structure -------------------------------------------------

    def _check(self, other) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            if other.field.m != self.field.m:
                raise ConductorMismatch(
                    f"conductor mismatch: {self.field.m} vs {other.field.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(
            self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # O(phi(m)) scaling when an operand is rational; else O(phi(m)^2)
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(
                self.field, tuple(c * other for c in self.coeffs))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not any(b[1:]):
            return CyclotomicNumber(self.field, tuple(c * b[0] for c in a))
        if not any(a[1:]):
            return CyclotomicNumber(self.field, tuple(a[0] * c for c in b))
        deg = self.field.degree
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
        acc = list(conv[:deg])
        table = self.field.power_table
        for k in range(deg, 2 * deg - 1):
            ck = conv[k]
            if ck:
                for i, t in enumerate(table[k]):
                    if t:
                        acc[i] += ck * t
        return CyclotomicNumber(self.field, tuple(acc))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via extended Euclid against Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # work with polynomials as coefficient lists over Fraction
        mod = [Fraction(c) for c in self.field.modulus]
        a = list(self.coeffs)
        g, u = _poly_xgcd_mod(a, mod)
        # g is a nonzero constant since Phi_m is irreducible
        inv_c = Fraction(1) / g
        inv = [c * inv_c for c in u]
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return CyclotomicNumber(self.field, tuple(inv[: self.field.degree]))

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure maps -------------------------------------------------

    def galois(self, a: int) -> "CyclotomicNumber":
        """Image under sigma_a : z -> z^a (requires gcd(a, m) = 1)."""
        m = self.field.m
        a %= m
        if gcd(a, m) != 1:
            raise ValueError(f"embedding index {a} not coprime to {m}")
        if not any(self.coeffs[1:]):
            return self   # rational: fixed by every sigma_a
        acc = [Fraction(0)] * self.field.degree
        table = self.field.power_table
        for i, c in enumerate(self.coeffs):
            if c:
                for j, t in enumerate(table[(a * i) % m]):
                    if t:
                        acc[j] += c * t
        return CyclotomicNumber(self.field, tuple(acc))

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation z -> z^(-1); an involutive field automorphism."""
        return self.galois(-1)

    def trace(self) -> Fraction:
        """Exact trace to Q, as the sum over all Galois conjugates."""
        total = self.field.zero()
        for a in self.field.units:
            total = total + self.galois(a)
        rat = total.as_rational()
        if rat is None:
            raise AssertionError("trace failed to be rational")
        return rat

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self):
        """The element as a Fraction if it lies in Q, else None."""
        if self.is_rational():
            return self.coeffs[0]
        return None

    def is_real(self) -> bool:
        """True iff fixed by conjugation (totally real element)."""
        return self == self.conjugate()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.field.m == other.field.m and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.m, self.coeffs))
        return self._hash

    def __repr__(self):
        return f"Cyclo(m={self.field.m}, {self.as_string()})"

    def as_string(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- certified numerics ----------------------------------------------

    def embed(self, a: int = 1, precision: int = PRECISION_START) -> "CertifiedComplex":
        """Certified enclosure of sigma_a(self) at the given bit precision."""
        from mpmath import iv
        m = self.field.m
        if gcd(a % m if m > 1 else 1, m) != 1:
            raise ValueError(f"embedding index {a} not coprime to {m}")
        old = iv.prec
        try:
            iv.prec = precision
            two_pi = 2 * iv.pi
            re = iv.mpf(0)
            im = iv.mpf(0)
            for i, c in enumerate(self.coeffs):
                if not c:
                    continue
                coeff = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                angle = two_pi * iv.mpf((a * i) % m) / iv.mpf(m)
                re += coeff * iv.cos(angle)
                im += coeff * iv.sin(angle)
            return CertifiedComplex.from_intervals(re, im)
        finally:
            iv.prec = old

    def imag_is_zero(self, a: int = 1) -> bool:
        """Exact test of Im(sigma_a(self)) == 0 via the Galois action."""
        return self.galois(a) == self.galois(-a)

    def sign_imag(self, a: int = 1) -> int:
        """Exact sign (-1, 0, +1) of Im(sigma_a(self)).

        Zero is decided exactly first; nonzero signs by interval escalation,
        which terminates because the value is then provably nonzero.
        """
        if self.imag_is_zero(a):
            return 0
        prec = PRECISION_START
        while prec <= PRECISION_CAP:
            box = self.embed(a, prec)
            s = box.imag_sign()
            if s != 0:
                return s
            prec *= 2
        raise AssertionError("precision cap hit on a provably nonzero value")

    def sign_real(self, a: int = 1) -> int:
        """Exact sign of Re(sigma_a(self)), same strategy as sign_imag."""
        if self.galois(a) == -self.galois(-a):
            return 0
        prec = PRECISION_START
        while prec <= PRECISION_CAP:
            box = self.embed(a, prec)
            s = box.real_sign()
            if s != 0:
                return s
            prec *= 2
        raise AssertionError("precision cap hit on a provably nonzero value")


def _poly_xgcd_mod(a, mod):
    """Extended Euclid for a against the monic modulus; returns (g, u) with
    u*a = g mod `mod` and g a constant (modulus irreducible)."""

    def deg(p):
        d = len(p) - 1
        while d >= 0 and p[d] == 0:
            d -= 1
        return d

    def divmod_poly(num, den):
        num = list(num)
        dd = deg(den)
        lead = den[dd]
        q = [Fraction(0)] * (max(deg(num) - dd, -1) + 1)
        while deg(num) >= dd:
            dn = deg(num)
            f = num[dn] / lead
            q[dn - dd] = f
            for i in range(dd + 1):
                num[dn - dd + i] -= f * den[i]
        return q, num

    r0, r1 = list(mod), list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while deg(r1) > 0:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        # s_new = s0 - q*s1
        prod = [Fraction(0)] * (deg(q) + deg(s1) + 2 if deg(q) >= 0 and deg(s1) >= 0 else 1)
        for i in range(deg(q) + 1):
            if q[i]:
                for j in range(deg(s1) + 1):
                    if s1[j]:
                        prod[i + j] += q[i] * s1[j]
        new_s = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            new_s[i] += c
        for i, c in enumerate(prod):
            new_s[i] -= c
        s0, s1 = s1, new_s
    if deg(r1) < 0:
        raise ZeroDivisionError("element not invertible")
    return r1[0], s1


@dataclass(frozen=True)
class CertifiedComplex:
    """Complex enclosure: exact dyadic-rational midpoints and radius.

    The true value lies within `radius` of (real_mid + i*imag_mid) in each
    coordinate; endpoints come from outward-rounded interval arithmetic.
    """

    real_mid: Fraction
    imag_mid: Fraction
    radius: Fraction

    @staticmethod
    def from_intervals(re, im) -> "CertifiedComplex":
        rlo, rhi = _iv_bounds(re)
        ilo, ihi = _iv_bounds(im)
        rm = (rlo + rhi) / 2
        im_ = (ilo + ihi) / 2
        rad = max(rhi - rm, rm - rlo, ihi - im_, im_ - ilo)
        return CertifiedComplex(rm, im_, rad)

    def real_sign(self) -> int:
        if self.real_mid - self.radius > 0:
            return 1
        if self.real_mid + self.radius < 0:
            return -1
        return 0

    def imag_sign(self) -> int:
        if self.imag_mid - self.radius > 0:
            return 1
        if self.imag_mid + self.radius < 0:
            return -1
        return 0

    def contains(self, re, im) -> bool:
        return (abs(Fraction(re) - self.real_mid) <= self.radius
                and abs(Fraction(im) - self.imag_mid) <= self.radius)

    def to_complex(self) -> complex:
        return complex(self.real_mid) + 1j * complex(self.imag_mid)

    def __repr__(self):
        return (f"CertifiedComplex({float(self.real_mid):.12g} "
                f"{float(self.imag_mid):+.12g}i, rad<={float(self.radius):.3g})")


def _iv_bounds(x):
    """Exact rational bounds of an mpmath interval (endpoints are dyadic)."""
    from mpmath.libmp import to_rational
    lo, hi = x._mpi_
    return Fraction(*to_rational(lo)), Fraction(*to_rational(hi))


class SubfieldSpec:
    """A subfield of Q(zeta_m) described by its fixing subgroup H <= (Z/m)^*.

    Carries an exact Q-basis of the fixed field; embeddings are indexed by
    cosets aH, with sigma_(-a)H the complex conjugate of sigma_aH.
    """

    def __init__(self, field: _Field, fixing_subgroup, basis=None):
        self.field = field
        norm = self._norm
        H = sorted({norm(a) for a in fixing_subgroup})
        if 1 not in H:
            raise ValueError("fixing subgroup must contain 1")
        for a in H:
            if gcd(a % field.m if field.m > 1 else 1, field.m) != 1:
                raise ValueError("fixing subgroup must lie in (Z/mZ)^*")
            for b in H:
                if norm(a * b) not in H:
                    raise ValueError("fixing subgroup not closed under multiplication")
        self.fixing_subgroup = tuple(H)
        self.degree = len(field.units) // len(H)
        self.basis = tuple(basis) if basis is not None else self._orbit_sum_basis()
        self._reduced = None   # (pivot positions, inverse), see coordinates
        if len(self.basis) != self.degree:
            raise ValueError("basis length must equal phi(m)/|H|")
        for b in self.basis:
            for a in self.fixing_subgroup:
                if b.galois(a) != b:
                    raise ValueError("basis element not fixed by the subgroup")

    def _orbit_sum_basis(self):
        """Q-basis from H-orbit sums of the powers of zeta."""
        m = self.field.m
        seen = set()
        sums = []
        for k in range(m):
            if k in seen:
                continue
            orbit = {(a * k) % m for a in self.fixing_subgroup}
            seen |= orbit
            sums.append(self.field.from_exponent_dict({e: 1 for e in orbit}))
        # the first maximal independent subset: the sums independent of the
        # ones before them are the pivot columns of the matrix of all sums
        _, pivots = linalg.rref(
            [[Fraction(s.coeffs[i]) for s in sums]
             for i in range(self.field.degree)])
        basis = [sums[c] for c in pivots]
        if len(basis) != self.degree:
            raise AssertionError("orbit sums failed to span the fixed field")
        return basis

    # -- embeddings -------------------------------------------------------

    def _norm(self, a: int) -> int:
        """Residue normalized to 1..m (identity residue is 1, also for m=1)."""
        m = self.field.m
        if m == 1:
            return 1
        r = a % m
        return r if r else m  # r == 0 impossible for units when m > 1

    def coset_reps(self):
        """One representative per coset aH, smallest member first."""
        seen = set()
        reps = []
        for a in self.field.units:
            a = self._norm(a)
            if a in seen:
                continue
            coset = {self._norm(a * h) for h in self.fixing_subgroup}
            seen |= coset
            reps.append(min(coset))
        return reps

    def conjugate_coset(self, a: int) -> int:
        """Representative of the coset (-a)H."""
        return min(self._norm(-a * h) for h in self.fixing_subgroup)

    def is_real_embedding(self, a: int) -> bool:
        return self.conjugate_coset(a) == self._coset_rep(a)

    def _coset_rep(self, a: int) -> int:
        return min(self._norm(a * h) for h in self.fixing_subgroup)

    def is_totally_real(self) -> bool:
        return self._norm(-1) in self.fixing_subgroup

    def is_cm(self) -> bool:
        """CM iff conjugation moves the field pointwise, i.e. -1 not in H.

        For character fields this dichotomy (totally real or CM) is exact.
        """
        return not self.is_totally_real()

    def contains(self, x: CyclotomicNumber) -> bool:
        return all(x.galois(a) == x for a in self.fixing_subgroup)

    def coordinates(self, x: CyclotomicNumber):
        """Exact coordinates of x in the subfield basis, or None if outside.

        The basis is reduced once: on k power-basis positions where it is
        invertible, the coordinates are one product with the inverse, and
        x lies in the subfield iff they reproduce all of x."""
        if self._reduced is None:
            _, pivots = linalg.rref([list(b.coeffs) for b in self.basis])
            inverse = linalg.inverse(
                [[b.coeffs[p] for b in self.basis] for p in pivots])
            self._reduced = (pivots, inverse)
        pivots, inverse = self._reduced
        coords = [sum(q * x.coeffs[p] for q, p in zip(row, pivots))
                  for row in inverse]
        rebuilt = [0] * self.field.degree
        for q, b in zip(coords, self.basis):
            if q:
                for i, c in enumerate(b.coeffs):
                    if c:
                        rebuilt[i] += q * c
        return coords if tuple(rebuilt) == x.coeffs else None

    def element(self, coords) -> CyclotomicNumber:
        acc = self.field.zero()
        for q, b in zip(coords, self.basis):
            acc = acc + b * Fraction(q)
        return acc

    def rel_trace(self, x: CyclotomicNumber) -> CyclotomicNumber:
        """Trace from Q(zeta_m) down to the subfield."""
        acc = self.field.zero()
        for a in self.fixing_subgroup:
            acc = acc + x.galois(a)
        return acc

    def field_trace(self, x: CyclotomicNumber) -> Fraction:
        """Exact trace of x from the subfield to Q (requires x in the subfield)."""
        if not self.contains(x):
            raise ValueError("element outside the subfield")
        acc = self.field.zero()
        for a in self.coset_reps():
            acc = acc + x.galois(a)
        rat = acc.as_rational()
        if rat is None:
            raise AssertionError("subfield trace failed to be rational")
        return rat

    def __repr__(self):
        return (f"SubfieldSpec(m={self.field.m}, H={self.fixing_subgroup}, "
                f"degree={self.degree})")
