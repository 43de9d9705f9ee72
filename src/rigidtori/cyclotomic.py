"""Exact arithmetic in cyclotomic fields Q(zeta_m) and certified embeddings.

An element is stored in the power basis 1, z, ..., z^(phi(m)-1) modulo the
m-th cyclotomic polynomial Phi_m as integer numerators over one common
denominator: x = (num[0] + num[1] z + ... ) / den.  The form is canonical
(den > 0 and gcd(den, *num) == 1; zero is all zeros over 1), so equality and
hashing compare tuples of ints.  Phi_m is monic with integer coefficients,
so the reduction of z^k is integral and a product is an integer convolution,
one integral reduction and one gcd, with no rational arithmetic per
coordinate.  An embedding sigma_a : z -> exp(2*pi*i*a/m) evaluates x's
power-basis polynomial by `polyfields`' exact box Horner on an exact dyadic
rectangle around z^a, built in integers, so every enclosure is certified.
Sign queries are decided exactly: the zero case is settled by the Galois
action (never by floats), nonzero cases on the one precision ladder.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from struct import Struct

__all__ = [
    "CyclotomicField",
    "CyclotomicNumber",
    "SubfieldSpec",
    "ConductorMismatch",
]


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
        # power_table[k]: z^k reduced mod Phi_m as sparse (position, integer
        # coefficient) pairs, for 0 <= k < max(m, 2*deg)
        deg = self.degree
        table = []
        cur = [1] + [0] * (deg - 1)
        for _ in range(max(m, 2 * deg)):
            table.append(tuple((i, c) for i, c in enumerate(cur) if c))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(deg):
                    cur[i] -= top * self.modulus[i]
        self.power_table = table
        self.units = tuple(a for a in range(1, m + 1) if gcd(a, m) == 1)
        self._zero = _new(self, (0,) * deg, 1)
        self._subfields = {}   # fixing subgroup -> its SubfieldSpec

    @cached_property
    def traces(self) -> tuple:
        """Tr_(Q(zeta_m)/Q)(z^t) for t < phi(m): the sum over the units a of
        the constant coordinate of z^(a t)."""
        return tuple(sum(dict(self.power_table[a * t % self.m]).get(0, 0)
                         for a in self.units) for t in range(self.degree))

    def subfield(self, fixing_subgroup) -> "SubfieldSpec":
        """The fixed field of H <= (Z/m)^*, one SubfieldSpec per H: its
        basis, coset representatives and the rest are built once, however
        many character tables read it.  No caller changes a spec."""
        key = frozenset(a % self.m for a in fixing_subgroup)
        spec = self._subfields.get(key)
        if spec is None:
            spec = self._subfields[key] = SubfieldSpec(self, fixing_subgroup)
        return spec

    def __repr__(self):
        return f"CyclotomicField({self.m})"

    def zero(self) -> "CyclotomicNumber":
        return self._zero

    def one(self) -> "CyclotomicNumber":
        return self.from_rational(1)

    def zeta(self, power: int = 1) -> "CyclotomicNumber":
        """z^power as a field element."""
        num = [0] * self.degree
        for i, c in self.power_table[power % self.m]:
            num[i] = c
        return _new(self, tuple(num), 1)

    def from_rational(self, q) -> "CyclotomicNumber":
        if not isinstance(q, int):
            q = Fraction(q)
            return _new(self, (q.numerator,) + (0,) * (self.degree - 1),
                        q.denominator)
        return _new(self, (q,) + (0,) * (self.degree - 1), 1)

    def from_exponent_dict(self, exps) -> "CyclotomicNumber":
        """Sum of q * z^k over an {exponent: rational} mapping."""
        qs = {k: Fraction(q) for k, q in exps.items()}
        den = lcm(*(q.denominator for q in qs.values()))
        acc = [0] * self.degree
        for k, q in qs.items():
            n = q.numerator * (den // q.denominator)
            for i, c in self.power_table[k % self.m]:
                acc[i] += n * c
        return _reduced(self, acc, den)


class CyclotomicNumber:
    """Immutable element num/den of Q(zeta_m), see the module docstring.

    `num` is a tuple of phi(m) ints and `den` a positive int, in canonical
    form.  `coeffs`, the tuple of Fraction coordinates num[i]/den, is a
    read-only view built on first use and cached: arithmetic never needs
    it, and readers that want rationals get them unchanged.
    """

    __slots__ = ("field", "num", "den", "_coeffs", "_hash")

    def __init__(self, field: _Field, num, den: int = 1):
        num = tuple(num)
        if len(num) != field.degree:
            raise ValueError(f"need {field.degree} numerators, got {len(num)}")
        if den <= 0:
            raise ValueError("denominator must be positive")
        self.field = field
        self.num, self.den = _canonical(num, den)
        self._coeffs = self._hash = None

    @property
    def coeffs(self) -> tuple:
        """Power-basis coordinates as Fractions (a cached view)."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(n, den) for n in self.num)
        return self._coeffs

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
        if isinstance(other, int):
            num = self.num
            return _new(self.field, (num[0] + other * self.den,) + num[1:],
                        self.den)
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def _plus(self, other, sign: int) -> "CyclotomicNumber":
        """self + sign * other, over the least common denominator."""
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _reduced(self.field, [
                a + sign * b for a, b in zip(self.num, other.num)], d1)
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        return _reduced(self.field, [
            a * s1 + b * s2 for a, b in zip(self.num, other.num)], d1 * s1)

    def __neg__(self):
        return _new(self.field, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # O(phi(m)) scaling when an operand is rational; else O(phi(m)^2)
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not any(b[1:]):
            return self._scale(b[0], other.den)
        if not any(a[1:]):
            return other._scale(a[0], self.den)
        return _reduced(self.field, _product(self.field, a, b),
                        self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, p: int, q: int) -> "CyclotomicNumber":
        """self * p/q for coprime p, q with q > 0."""
        if not p:
            return self.field._zero
        return _reduced(self.field, [n * p for n in self.num], self.den * q)

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse: x times P = prod_{a != 1} sigma_a(x) is
        the norm N(x), a nonzero rational, so 1/x = P / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        field = self.field
        prod = field.one().num
        for a in field.units[1:]:
            prod = _product(field, prod, self.galois(a).num)
        # with x = n/d: 1/x = d P(n) / N(n), N(n) in position 0
        norm = _product(field, self.num, prod)[0]
        scale = self.den if norm > 0 else -self.den
        return _reduced(field, [c * scale for c in prod], abs(norm))

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
        num = self.num
        if not any(num[1:]):
            return self   # rational: fixed by every sigma_a
        acc = [0] * self.field.degree
        table = self.field.power_table
        for i, c in enumerate(num):
            if c:
                for j, t in table[(a * i) % m]:
                    acc[j] += c * t
        # sigma_a permutes Z[z], so the numerators keep their content and
        # the form stays canonical
        return _new(self.field, tuple(acc), self.den)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation z -> z^(-1); an involutive field automorphism."""
        return self.galois(-1)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self):
        """The element as a Fraction if it lies in Q, else None."""
        if self.is_rational():
            return Fraction(self.num[0], self.den)
        return None

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return (self.den == other.den and self.num == other.num
                    and self.field.m == other.field.m)
        if isinstance(other, int):
            return (self.den == 1 and self.num[0] == other
                    and not any(self.num[1:]))
        if isinstance(other, Fraction):
            return (self.den == other.denominator
                    and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.m, self.num, self.den))
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

    def embed(self, a: int = 1, precision: int = 64) -> tuple:
        """Certified (re, im, radius) enclosure of sigma_a(self) at the given
        bit precision: sigma_a(self) lies within `radius` of (re, im) in
        each coordinate."""
        from .polyfields import _enclosure
        m = self.field.m
        if gcd(a % m if m > 1 else 1, m) != 1:
            raise ValueError(f"embedding index {a} not coprime to {m}")
        return _enclosure(self.coeffs, *_zeta_box(m, a % m, precision))

    def imag_is_zero(self, a: int = 1) -> bool:
        """Exact test of Im(sigma_a(self)) == 0 via the Galois action."""
        return self.galois(a) == self.galois(-a)

    def sign_imag(self, a: int = 1) -> int:
        """Exact sign (-1, 0, +1) of Im(sigma_a(self)).

        Zero is decided exactly first; nonzero signs on the precision
        ladder, past whose cap PrecisionCapReached.
        """
        if self.imag_is_zero(a):
            return 0
        return self._nonzero_sign(a, 1)

    def sign_real(self, a: int = 1) -> int:
        """Exact sign of Re(sigma_a(self)), same strategy as sign_imag."""
        if self.galois(a) == -self.galois(-a):
            return 0
        return self._nonzero_sign(a, 0)

    def _nonzero_sign(self, a: int, part: int) -> int:
        """Sign of the nonzero real (part 0) or imaginary (part 1) part of
        sigma_a(self)."""
        from .polyfields import _cap_reached, _certified_sign

        def enclose(prec):
            box = self.embed(a, prec)
            return box[part], box[2]
        sign = _certified_sign(enclose)
        if sign is None:
            raise _cap_reached("sign of a nonzero value undecided")
        return sign


_alloc = object.__new__


def _new(field: _Field, num: tuple, den: int) -> CyclotomicNumber:
    """A CyclotomicNumber from numerators already in canonical form."""
    x = _alloc(CyclotomicNumber)
    x.field, x.num, x.den = field, num, den
    x._coeffs = x._hash = None
    return x


def _canonical(num, den: int) -> tuple:
    """(num, den), for den > 0, divided through by gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple([n // g for n in num]), den // g
    return tuple(num), den


def _reduced(field: _Field, num: list, den: int) -> CyclotomicNumber:
    return _new(field, *_canonical(num, den))


def _product(field: _Field, a, b) -> list:
    """Numerators of a * b mod Phi_m: an integer convolution, then
    `_reduce`d."""
    conv = [0] * (2 * field.degree - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                conv[j] += ai * bj
    return _reduce(field, conv)


def _reduce(field: _Field, conv) -> list:
    """The numerators mod Phi_m of the integer polynomial `conv` of degree
    below 2 phi(m) - 1: each z^k with k >= phi(m) replaced by its integral
    reduction."""
    deg = field.degree
    acc = list(conv[:deg])
    table = field.power_table
    for k in range(deg, len(conv)):
        ck = conv[k]
        if ck:
            for i, t in table[k]:
                acc[i] += ck * t
    return acc


# -- packed integers: the one kernel of every exact integer product ---------


def _slot_width(bound: int) -> int:
    """The least b with 2^b > 2 `bound`.  The slot lemma (Kronecker
    substitution; Harvey, J. Symb. Comput. 44, 2009): pack integer vectors c
    as sum_s c_s 2^(b s) (`_pack`).  If all entries are at most X in
    absolute value and 2^b > 2X, two vectors are equal exactly when their
    packings are (a nonzero difference has a lowest nonzero slot, below 2^b
    in absolute value), and each entry reads back as a signed b-bit slot
    once 2^(b - 1) is added to every slot, as then no slot borrows
    (`_reader`); so does any wider slot.  Packed vectors multiply to their
    packed convolution: a consumer states X for its convolution sums."""
    return bound.bit_length() + 1


def _pack(vector, width: int) -> int:
    """sum_s c_s 2^(width s) over the integers c of `vector`."""
    packed = 0
    for c in reversed(vector):
        packed = (packed << width) + c
    return packed


@lru_cache(maxsize=256)
def _reader(bound: int, slots: int):
    """(width, read): `_slot_width(bound)` rounded up to 8, 16, 32 or 64 if
    at most 64, and the reader of the tuple of `slots` signed entries packed
    at that width, by `struct` (each slot's top bit flipped back) or shifts."""
    width = _slot_width(bound)
    if width <= 64:
        width = max(8, 1 << (width - 1).bit_length())
    half = 1 << (width - 1)
    offset = sum(half << width * s for s in range(slots))
    if width <= 64:
        unpack = Struct(f"<{slots}{'bhiq'[width.bit_length() - 4]}").unpack
        size = width // 8 * slots
        return width, lambda value: unpack(
            ((value + offset) ^ offset).to_bytes(size, "little"))
    mask, shifts = (1 << width) - 1, range(0, width * slots, width)
    return width, lambda value: tuple([((value + offset) >> s & mask) - half
                                       for s in shifts])


def _reducer(field: _Field, bound: int):
    """`_reader` for packed polynomials of degree below 2 phi(m) - 1,
    read as their numerators mod Phi_m (`_reduce`)."""
    width, read = _reader(bound, 2 * field.degree - 1)
    return width, lambda value: _reduce(field, read(value))


@lru_cache(maxsize=1024)
def _zeta_box(m: int, k: int, precision: int) -> tuple:
    """`polyfields`' exact dyadic rectangle around exp(2*pi*i*k/m), kept
    per (m, k, precision): the same rectangle serves every element of
    Q(zeta_m) embedded at sigma_k.  Its error budget, in ulps of 2^-p at
    p = precision + bitlen(precision) + 8 bits: k/m reduces exactly, by a
    quarter turn and a reflection in the octant, to an angle 2*pi*r with r
    in [0, 1/8], where cos and sin are monotone, so they are bounded by
    their bounds at the two ends of the angle's interval; pi lies in
    Machin's enclosure, off by under one ulp per floored term of each
    arctangent plus one for its tail, and the ends round outward; cos and
    sin at each end follow their alternating Taylor series, each floored
    term within two ulps and the first omitted term, under two, bounding
    the tail.  Together that stays under 2^(bitlen(precision) + 6) ulps,
    so each side is at most 2^(2 - precision) wide."""
    from .polyfields import _zeta_rectangle
    return _zeta_rectangle(m, k, precision)


class SubfieldSpec:
    """A subfield of Q(zeta_m) described by its fixing subgroup H <= (Z/m)^*.

    Carries an exact Q-basis of the fixed field; embeddings are indexed by
    cosets aH, with sigma_(-a)H the complex conjugate of sigma_aH.  The
    orbit-sum basis is built, and checked, the first time `basis` is read,
    the coset representatives the first time they are read.
    """

    def __init__(self, field: _Field, fixing_subgroup):
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
        self._totally_real = norm(-1) in H
        self._coset_reps = None
        self._basis = None
        self._reduced = None   # (pivot positions, inverse), see coordinates

    @property
    def basis(self) -> tuple:
        """Exact Q-basis of the fixed field (built on first read)."""
        if self._basis is None:
            self._basis = self._checked(self._orbit_sum_basis())
        return self._basis

    def _checked(self, basis) -> tuple:
        basis = tuple(basis)
        if len(basis) != self.degree:
            raise ValueError("basis length must equal phi(m)/|H|")
        for b in basis:
            for a in self.fixing_subgroup:
                if b.galois(a) != b:
                    raise ValueError("basis element not fixed by the subgroup")
        return basis

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
        # ones before them are the pivot columns of the matrix of all sums,
        # whose entries are the sums' integer numerators
        from . import linalg
        _, pivots = linalg.rref(
            [[s.num[i] for s in sums] for i in range(self.field.degree)])
        return [sums[c] for c in pivots]

    # -- embeddings -------------------------------------------------------

    def _norm(self, a: int) -> int:
        """Residue normalized to 1..m (identity residue is 1, also for m=1)."""
        m = self.field.m
        if m == 1:
            return 1
        r = a % m
        return r if r else m  # r == 0 impossible for units when m > 1

    def coset_reps(self) -> list:
        """The smallest member of each coset aH, ascending, as a new list
        (computed once): the units ascend, so each coset is met first at
        its smallest member."""
        if self._coset_reps is None:
            seen = set()
            reps = []
            for a in self.field.units:
                a = self._norm(a)
                if a not in seen:
                    seen |= {self._norm(a * h) for h in self.fixing_subgroup}
                    reps.append(a)
            self._coset_reps = tuple(reps)
        return list(self._coset_reps)

    def conjugate_coset(self, a: int) -> int:
        """Representative of the coset (-a)H."""
        return min(self._norm(-a * h) for h in self.fixing_subgroup)

    def _coset_rep(self, a: int) -> int:
        return min(self._norm(a * h) for h in self.fixing_subgroup)

    def is_totally_real(self) -> bool:
        return self._totally_real

    def contains(self, x: CyclotomicNumber) -> bool:
        return all(x.galois(a) == x for a in self.fixing_subgroup)

    def coordinates(self, x: CyclotomicNumber):
        """Exact coordinates of x in the subfield basis, or None if outside.

        The basis is reduced once: on k power-basis positions where it is
        invertible, the coordinates are one product with the inverse, and
        x lies in the subfield iff they reproduce all of x."""
        if self._reduced is None:
            from . import linalg
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
