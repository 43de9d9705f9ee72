"""Exact character tables, central idempotents, and Galois-orbit data.

The table is computed by the Dixon-Schneider method (Dixon, Numer. Math. 10,
1967; Schneider, J. Symb. Comput. 9, 1990).  The class-sum matrices M_i,
(M_i)[j][k] = a_ijk, commute, and their joint eigenvectors, normalized at
the identity class, are the vectors of central-character values
omega_k = |C_k| chi(g_k) / chi(1), which lie in Z[zeta_m], m = exponent(G).
Each M_i is read one matrix at a time as the sparse rows the class data
stores, coefficients[i][j] = {k: a_ijk}; no d x d x d object is built.

The eigenvectors are split over a prime field.  p is the smallest prime with
p = 1 (mod m) and p > 2 sqrt(|G|).  Then p does not divide |G|, F_p holds
the m-th roots of unity, so the class algebra over F_p is split semisimple
and its d central characters stay distinct mod p; and chi(1) <= sqrt(|G|) <
p/2.  Fix z of order m in F_p, the image of zeta_m under a prime of
Z[zeta_m] above p.  The identity-class vector e_0 equals sum_chi
(chi(1)^2/|G|) w_chi (column orthogonality), with every coefficient nonzero
mod p.  Mod p, each M_k is diagonal on the w_chi, with eigenvalues their
coordinates w_chi(k).  So the minimal polynomial mu of a vector v under M_k,
read off its Krylov sequence, has one simple root lambda per eigenvalue that
v meets, found by evaluating mu at every element of F_p; the component of v
in the lambda-eigenspace is q(M_k) v with q = mu/(x - lambda).  A central
class (|C_k| = 1) needs neither: row j of M_k is {pi(j): 1}, pi(j) the class
of g_k g_j, so M_k permutes the coordinates and M_k^e = 1, e the order of
g_k.  As M_k acts on w_chi by the e-th root of unity lambda_chi =
chi(g_k)/chi(1), sum_(t<e) lambda^(-t) M_k^t v is e times the
lambda-component of v, for lambda = z^((m/e) j), j < e (the sum of the
powers of lambda_chi/lambda != 1 vanishes).  Along a cycle (c_0 ... c_(L-1))
of pi, L | e, it is 0 unless lambda^L = 1, and then (e/L) lambda^r sum_(u<L)
lambda^(-u) v_(c_u) at c_r: one transform of length L per cycle that v
meets, O(e d) per vector, no root search.  e_0 is split by one class matrix,
each component by the next, and so on (Schneider 1990): a component is then
the sum of the c_chi w_chi whose eigenvalues agree on every class used so
far.  The d vectors w_chi are distinct mod p, so a sweep over all classes
leaves d components, each a multiple of one w_chi; the sweep stops as soon
as there are d.  Classes are taken by descending element order, one class
per set of power classes first: Galois-conjugate classes have the same power
classes and tell the same characters apart.  Nothing is drawn at random, and
the components do not depend on the order.

The exact values follow with no tolerance.  Scaled to w_0 = 1, a component
gives chi(1) as the unique integer in [1, sqrt(|G|)] whose square is
|G| / sum_k w_k w_kbar / |C_k| mod p (two such integers would differ by, or
sum to, a nonzero multiple of p).  On a class k of element order e, the
eigenvalue zeta_e^j of rho(g_k) has multiplicity
n_j = (1/e) sum_t chi(g_k^t) z^(-(m/e)jt) mod p, an integer in [0, chi(1)];
as p > chi(1), the residue is n_j itself, and the n_j must sum to chi(1).
They give chi(g_k^t) = sum_j n_j zeta_e^(jt) for every t, so one transform
per class of largest order in its cyclic subgroup fills the whole vector:
omega = (|C| / chi(1)) chi, built exactly.  A multiplicity outside
[0, chi(1)] raises TableComputationError; there is no fallback.  The rows
of each transform, z^(-(m/e)jt)/e mod p, are built once per element order
e and table.  A linear character (chi(1) = 1) needs no transform: chi(g_k)
is a root of unity zeta_m^t, reduced to z^t = w_k / |C_k| mod p, and t < m
is unique as z has order m; so chi(g_k) = zeta_m^t, t read off one table
of discrete logs of the powers of z.  A residue outside <z> raises
TableComputationError.

This recovery runs once per Galois orbit.  For a unit a of Z/m,
sigma_a(chi)(g) = chi(g^a) (Isaacs, Character Theory of Finite Groups),
and the a-th power map on classes keeps their sizes, so the omega of
sigma_a(chi) is omega read through it; so is its component, as reduction
mod p commutes with the permutation.  That component is looked up among
the d, distinct mod p; a miss raises TableComputationError.  Its row and
vector are the representative's, permuted alike and sharing its values.
Which row sigma_a takes each row to is kept.

One exact certificate decides, for d vectors w with w_0 = 1 (an abelian
group takes a cheaper one, below).  A set S of classes is chosen so that
the tuples (w_s), s in S, are pairwise distinct.  Checked exactly:
sum_k a_sjk w_k = w_s w_j for every s in S and every j, and
M_i M_s = M_s M_i, in integers, for every i and every s in S.  Then each
w is a joint eigenvector of {M_s} with eigenvalues (w_s), and d
vectors with pairwise distinct joint eigenvalues are a basis, so every
joint eigenspace of {M_s} is a line.  Each M_i commutes with every M_s, so
it preserves these lines: M_i w = lambda w.  Since a_i0k = delta_ik (class
0 is the identity), lambda = (M_i w)_0 = w_i.  So M_i w = w_i w for every
i: the d vectors are the d central characters.  Their coordinates are
integers (central characters are algebraic integers), so the products are
taken in integers, M_i M_s too, over the sparse rows.

Both checks compare integers packed by `cyclotomic._pack`: vectors with
entries at most X in absolute value are equal exactly when their packings
at a width b with 2^b > 2X are (`cyclotomic._slot_width`'s lemma), and
each check states only its own X.  For the eigen equations, each w_k is
replaced by the integer w_k(2^K), its coordinates packed at width K, and
the sides are compared modulo n = Phi_m(2^K): z -> 2^K is a ring map
Z[z] -> Z/n, so an equation that holds holds mod n, and each equation
costs one integer product and one reduction per w.
Conversely, every coordinate of either side is at most
X = max(R, N B) N in absolute value, where N is the largest sum of
|coordinates| of one w_k, R the largest row sum sum_k |a_sjk| of an M_s,
s in S, and B the largest |coordinate| of z^e, e < 2 phi - 1, reduced
mod Phi_m (so w_s w_j has coordinates at most N^2 B).  With H the
largest |coefficient| of Phi_m and 2^K > 2X + H (`_evaluation_width`), a
nonzero difference D of the two sides has D(2^K) != 0 (its coordinates
are at most 2X < 2^K) and |D(2^K)| <= 2X (2^(K phi) - 1) / (2^K - 1) < n
(as n >= 2^(K phi) - H (2^(K phi) - 1) / (2^K - 1)), so D(2^K) is not
0 mod n.  For the commutation, every entry of M_i M_s and M_s M_i is at
most R'^2 in absolute value, R' the largest row sum of any M_i, and row j
of M_i M_s, for every s in S side by side, is one packed integer at width
b with 2^b > 2 R'^2; so is row j of M_s M_i.  The rows are formed from the
sparse rows of M_i, one multiply-add per nonzero constant, and no
product matrix is built.

An abelian group (d = |G|: every class a singleton, every row linear)
takes a cheaper certificate, on the exponents t of its rows chi = zeta_m^t,
the discrete logs read above (a conjugate row carries them through its
power map).  Checked exactly: t(e) = 0, t(x s) = t(x) + t(s) mod m for
every x and every s in `group.generators`, read on the Cayley table, and
the d rows pairwise distinct.  Every element of the finite G is a product
of generators, so by induction on its length t(x g) = t(x) + t(g) for all
x, g: each row is a homomorphism G -> C^x, a linear and so irreducible
character.  d = |G| distinct irreducible characters are all of them, as G
has one per class (Serre, Linear Representations of Finite Groups, 3.1).
That is |G| #gens d integer comparisons in place of the |S| d^2 packed
products and the commutation above, which every non-abelian table still
takes.

No row needs a degree check of its own.  A recovered w reduces mod p to
its component (the multiplicities invert the transform mod p, and zeta_m^t
reduces to z^t), so when w = omega_psi, psi(1)^2 = chi(1)^2 mod p, both in
[1, sqrt(|G|)]: the row is psi.  A conjugate row, the recovered one
through the a-th power map, is then sigma_a(psi), of degree psi(1).  The
degree squares must sum to |G|.  A failed certificate raises
TableComputationError.  Rows come out in canonical order, so the table
depends on neither p nor z; they are sorted on their integer power-basis
numerators (character values are algebraic integers, so every denominator
is 1).
`CharacterTable.verify` (row orthonormality) stays public as an independent
check but is not part of the computation.

`table_for(group)` is the one table cache, keyed by Cayley-table content.
It always keeps the last group's table, so every step of a request shares
one table; `cli`'s one-entry memo of the last representation document
holds results computed from that table, never a table of its own.  Across
requests it keeps a table only once the table is computed a second time in
the process: a set of hash(Cayley table) fingerprints records what has been
computed (a collision only admits a table early; lookups still compare the
full content).  What it keeps is capped at 16 384 cyclotomic coordinates,
d^2 phi(exp G) per table, least recently used evicted first; one deck of
the benchmark's actions stream needs 9 691.  Admission on reuse keeps the
tables that repeat and no others.  On the benchmark's actions stream
(seed 1), where each of 28 groups comes three times, 84 table computations
become 56.  On its cold-groups stream, where 4 of 94 tables come twice and
none three times, admitting every table on first sight instead raised the
serving process's peak RSS from 21.5 to 25.2 MB and lowered its throughput
from 246 to 235 requests/s (10 alternating pairs on a shared 2-core
host).  `galois_orbits` is computed once per table object and then returns
that same result; its orbits are also the field summands of the centre of
Q[G].  Orbits, stabilizers and coset rows are read off the images the
table keeps, as row indices after the canonical sort.  As a runs over the
units, sigma_a(chi) meets each member of chi's orbit |stabilizer| times,
so sum_psi psi(g) = Tr_Q(zeta_m)/Q(chi(g)) / |stabilizer| over the orbit:
the idempotent's coefficient on g, (1/|G|) sum_psi psi(1) psi(g^-1), is
one trace per class, rational by construction.  The character field's
Q-basis is built only when it is read (`analyze` builds none).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub

from .cyclotomic import (CyclotomicField, SubfieldSpec, _new, _pack,
                         _slot_width)
from .groups import ConjugacyClassData, FiniteGroup

__all__ = [
    "CharacterTable",
    "GaloisOrbit",
    "GaloisOrbitDecomposition",
    "character_table",
    "table_for",
    "galois_orbits",
    "TableComputationError",
]


class TableComputationError(RuntimeError):
    """Internal failure of the eigenspace splitting; indicates a defect."""


# -- the table -------------------------------------------------------------


class CharacterTable:
    """Exact d x d table of irreducible character values over Q(zeta_m)."""

    def __init__(self, group: FiniteGroup, classes: ConjugacyClassData,
                 field, rows, degrees, galois_images):
        self.group = group
        self.classes = classes
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.degrees = tuple(degrees)
        # galois_images[r][u] is the row sigma_a(chi_r), a = field.units[u]
        self.galois_images = tuple(tuple(i) for i in galois_images)
        self._orbits = None   # galois_orbits(self), once computed
        self._embedding = None   # see rounded_decomposition

    @property
    def size(self) -> int:
        return len(self.rows)

    def decompose(self, values):
        """Multiplicities of a class function against the irreducible rows.

        Returns a list of CyclotomicNumber inner products (rational integers
        for genuine characters)."""
        mults = []
        for r in range(self.size):
            acc = self.field.zero()
            for k, size in enumerate(self.classes.sizes):
                acc = acc + values[k] * self.rows[r][k].conjugate() * size
            mults.append(acc * Fraction(1, self.group.order))
        return mults

    def rounded_decomposition(self, values):
        """The inner products of a class function with the rows, in floats
        and rounded to integers, or None where they are not finite.  A
        proposal only: the caller checks it exactly.  The complex
        embedding of the rows, zeta_m -> exp(2 pi i/m), is computed once
        per table."""
        if self._embedding is None:
            import cmath
            m = self.field.m
            zetas = [cmath.exp(2j * cmath.pi * i / m)
                     for i in range(self.field.degree)]
            self._embedding = (zetas, [
                [sum(c * z for c, z in zip(x.num, zetas) if c) for x in row]
                for row in self.rows])
        zetas, rows = self._embedding
        sizes = self.classes.sizes
        try:
            weighted = [size * sum(c * z for c, z in zip(x.num, zetas) if c)
                        / x.den for x, size in zip(values, sizes)]
            return [round((sum(w * v.conjugate() for w, v in zip(weighted, row))
                           / self.group.order).real) for row in rows]
        except (OverflowError, ValueError):
            return None

    def verify(self):
        """Exact row orthonormality and the degree sum; raises on failure.
        Each <chi_a, chi_b> is computed once, for b >= a: <chi_b, chi_a> is
        its conjugate, so it is 0 or 1 with it."""
        weighted = [[x.conjugate() * size
                     for x, size in zip(row, self.classes.sizes)]
                    for row in self.rows]
        for a, row in enumerate(self.rows):
            for b in range(a, self.size):
                acc = self.field.zero()
                for x, y in zip(row, weighted[b]):
                    acc = acc + x * y
                got = acc * Fraction(1, self.group.order)
                if got != int(a == b):
                    raise TableComputationError(
                        f"row orthogonality fails at ({a},{b}): {got}")
        if sum(d * d for d in self.degrees) != self.group.order:
            raise TableComputationError("degree squares do not sum to |G|")

    def verify_columns(self):
        """Exact column orthogonality; raises on failure."""
        d = self.size
        for j in range(d):
            for k in range(d):
                acc = self.field.zero()
                for r in range(d):
                    acc = acc + self.rows[r][j] * self.rows[r][k].conjugate()
                if j != k and not acc.is_zero():
                    raise TableComputationError(
                        f"column orthogonality fails at ({j},{k})")
                if j == k:
                    want = Fraction(self.group.order, self.classes.sizes[j])
                    if acc.as_rational() != want:
                        raise TableComputationError(
                            f"column norm fails at {j}: {acc}")

    # -- idempotents -------------------------------------------------------

    def central_idempotent(self, row: int):
        """e_chi = chi(1)/|G| sum_g chi(g^-1) g, as one coefficient per
        group element (exact cyclotomic values)."""
        g = self.group
        scale = Fraction(self.degrees[row], g.order)
        coeffs = []
        for elem in range(g.order):
            k = self.classes.membership[g.inverse[elem]]
            coeffs.append(self.rows[row][k] * scale)
        return coeffs


def character_table(group: FiniteGroup) -> CharacterTable:
    """Exact character table; canonical row order (degree, then lexicographic
    coefficient order at the canonical class order)."""
    classes = group.conjugacy_classes()
    d = classes.count
    field = CyclotomicField(group.exponent)
    images = []
    rows, degs = _dixon_schneider(classes, field, images)
    if sum(dd * dd for dd in degs) != group.order:
        raise TableComputationError("degree squares do not sum to |G|")
    order = sorted(range(d), key=lambda r: (degs[r], _row_key(rows[r])))
    position = {r: t for t, r in enumerate(order)}
    return CharacterTable(group, classes, field,
                          [rows[r] for r in order],
                          [degs[r] for r in order],
                          [[position[j] for j in images[r]] for r in order])


_LAST = None        # (Cayley table, its CharacterTable) of the last group
_KEPT = {}          # Cayley table -> CharacterTable, least recently used first
_COMPUTED = set()   # hash(Cayley table) of every table computed so far
_KEPT_BUDGET = 16384   # cyclotomic coordinates kept, d^2 phi(exp G) a table


def table_for(group: FiniteGroup) -> CharacterTable:
    """character_table(group), memoized by Cayley-table content (see the
    module docstring): another FiniteGroup with the same table, under
    another name, gets the same table object."""
    global _LAST
    key = group.table
    if _LAST is not None and _LAST[0] == key:
        return _LAST[1]
    fingerprint = hash(key)
    if fingerprint in _COMPUTED:
        table = _KEPT.pop(key, None) or character_table(group)
        _KEPT[key] = table   # (re)inserted as the most recently used
        spent = sum(_cost(t) for t in _KEPT.values())
        for old in list(_KEPT):
            if spent <= _KEPT_BUDGET:
                break
            spent -= _cost(_KEPT.pop(old))
    else:
        table = character_table(group)
        _COMPUTED.add(fingerprint)
    _LAST = (key, table)
    return table


def _cost(table: CharacterTable) -> int:
    return table.size ** 2 * table.field.degree


def _row_key(row):
    """Sort key of a row of cyclotomic values: the (numerators, denominator)
    pairs, which order rows of integral values as their coordinates do."""
    return tuple((c.num, c.den) for c in row)


def _separating_classes(vectors):
    """Classes S whose coordinates (w_s), s in S, tell the vectors apart,
    or None if no set does.  Greedy: each step adds the class that splits
    the vectors into the most groups, the first in class order on ties."""
    n = len(vectors)
    values = {}   # value -> small id
    columns = list(zip(*[[values.setdefault(x, len(values)) for x in w]
                         for w in vectors]))
    base = len(values)
    separating = []
    keys = [0] * n   # the ids of (w_s), s in S, as digits in base len(values)
    groups = 1
    while groups < n:
        splits = [len(set(map(add, keys, column))) for column in columns]
        best = splits.index(max(splits))
        if splits[best] == groups:
            return None
        separating.append(best)
        keys = [(key + v) * base for key, v in zip(keys, columns[best])]
        groups = splits[best]
    return separating


def _certify(classes: ConjugacyClassData, field, coords) -> bool:
    """Exact check that d vectors w, given by the integer power-basis
    coordinates (a tuple per w_k), are the d central characters.

    With S from `_separating_classes`, checked exactly: w_0 = 1,
    sum_k a_sjk w_k = w_s w_j for s in S and every j, and M_i M_s = M_s M_i
    for every i and s in S.  The module docstring shows why this gives
    M_i w = w_i w for every i.  Both sides are compared as packed integers,
    at widths the module docstring shows to decide each equation
    exactly."""
    d = classes.count
    one = (1,) + (0,) * (field.degree - 1)
    if len(coords) != d or any(w[0] != one for w in coords):
        return False
    mats = classes.coefficients
    separating = _separating_classes(coords)
    if separating is None:
        return False
    # each w_k becomes the integer w_k(2^K), and each eigen equation is
    # compared modulo n = Phi_m(2^K), for every w at once
    # values repeat across the vectors: each distinct one is read once
    distinct = {x for w in coords for x in w}
    norm = max(sum(map(abs, x)) for x in distinct)
    bits = _evaluation_width(field, norm, max(
        (sum(map(abs, row.values())) for s in separating for row in mats[s]),
        default=0))
    n = _pack(field.modulus, bits)
    packed = {x: _pack(x, bits) for x in distinct}
    by_class = list(zip(*[[packed[x] for x in w] for w in coords]))
    for s in separating:
        for j, row in enumerate(mats[s]):
            lhs = [0] * d
            for k, a in row.items():
                lhs = list(map(add, lhs, map(a.__mul__, by_class[k])))
            if any(map(n.__rmod__, map(sub, lhs, map(
                    mul, by_class[s], by_class[j])))):
                return False
    # the commutation, for each i and each row j: row j of M_i M_s and of
    # M_s M_i for every s in S side by side, slot (s, k) at width (d s + k)
    row_sum = max(sum(map(abs, row.values())) for m in mats for row in m)
    width = _slot_width(row_sum * row_sum)
    span = width * d
    shift = [width * k for k in range(d)]
    side = [0] * d                     # row l of every M_s, s in S
    stacked = [[] for _ in range(d)]   # (l, a_sjl, slot of s) per row j
    for t, s in enumerate(separating):
        for j, row in enumerate(mats[s]):
            for k, a in row.items():
                side[j] += a << span * t + shift[k]
                stacked[j].append((k, a, span * t))
    # rows are short, so plain loops beat a comprehension per row
    for m in mats:
        rows, lhs, rhs = [], [], []
        for row in m:
            packed = total = 0
            for l, a in row.items():
                packed += a << shift[l]
                total += a * side[l]
            rows.append(packed)
            lhs.append(total)
        for column in stacked:
            total = 0
            for l, a, offset in column:
                total += a * rows[l] << offset
            rhs.append(total)
        if lhs != rhs:
            return False
    return True


def _certify_homomorphisms(classes: ConjugacyClassData, m: int,
                           exponents) -> bool:
    """Exact check, for a group whose d = |G| classes are all singletons,
    that the rows chi = zeta_m^t, given by their exponents (t_k for class k,
    None for a row that is not linear), are the d irreducible characters:
    t(e) = 0, t(x s) = t(x) + t(s) mod m for every x and every generator s,
    read on the Cayley table, and the d rows pairwise distinct.  The module
    docstring shows why this suffices.  |G| #gens d comparisons."""
    group = classes.group
    d = classes.count
    if d != group.order or len(exponents) != d or None in exponents:
        return False
    if len(set(map(tuple, exponents))) != d:
        return False
    membership = classes.membership
    table = group.table
    # per generator s: its class, and the class of g_k s for each class k
    shifts = [(membership[s], [membership[table[g][s]]
                               for g in classes.representatives])
              for s in group.generators]
    for t in exponents:
        if t[0]:
            return False
        for s, shifted in shifts:
            step = t[s]
            if [t[c] for c in shifted] != [(x + step) % m for x in t]:
                return False
    return True


def _evaluation_width(field, norm: int, row_sum: int) -> int:
    """K with 2^K > 2X + H for the eigen equations, where X bounds every
    coordinate of either side and H every coefficient of Phi_m (see the
    module docstring): `norm` bounds the sum of |coordinates| of each
    w_k, and `row_sum` the row sums of the M_s, s in S."""
    reduced = max(abs(c) for power in field.power_table[:2 * field.degree - 1]
                  for _, c in power)
    bound = max(row_sum, norm * reduced) * norm
    return _slot_width(bound + (max(map(abs, field.modulus)) + 1) // 2)


def _dixon_schneider(classes: ConjugacyClassData, field, images=None):
    """(rows, degrees) of the d irreducible characters, by the method of the
    module docstring: one exact recovery per Galois orbit, then the
    certificate (on the rows' exponents for an abelian group).  A list
    passed as `images` receives images[r], the rows sigma_a(chi_r), a in
    field.units.  Raises TableComputationError when a step fails."""
    group = classes.group
    d = classes.count
    m = field.m
    p = _prime(group.order, m)
    z = _root_of_unity(m, p)
    zpow = [pow(z, t, p) for t in range(m)]
    # z^t in the power basis, as (position, integer coefficient) pairs
    power_basis = field.power_table
    powers = classes.power_classes
    # the a-th power map on classes for each unit a: k -> class of g_k^a
    power_maps = [[pw[a % len(pw)] for pw in powers] for a in field.units]
    slot = {a % m: u for u, a in enumerate(field.units)}
    # a class of largest order in its cyclic subgroup first, so that its
    # power classes are filled from its multiplicities
    by_order = sorted(range(d), key=lambda k: -len(powers[k]))
    inverse = [classes.inverse_class(k) for k in range(d)]
    size_inv = [pow(size, -1, p) for size in classes.sizes]
    bound = math.isqrt(group.order)
    transforms = {}   # element order e -> its multiplicity transform
    log = {x: t for t, x in enumerate(zpow)}   # z^t -> t, for linear rows
    roots = [None] * m   # zeta_m^t as integer coordinates, once read
    components = _split_mod_p(classes, p)
    where = {tuple(v): i for i, v in enumerate(components)}
    if len(where) != d:
        raise TableComputationError("two components agree mod p")
    rows, vectors, degrees, found = ([None] * d for _ in range(4))
    exponents = [None] * d   # per linear row, t with chi(g_k) = zeta_m^t_k
    # values repeat across rows: one tuple per distinct value, and one
    # CyclotomicNumber per distinct character value
    shared, numbers = {}, {}
    for i, v in enumerate(components):
        if rows[i] is not None:
            continue   # a Galois conjugate of an orbit already recovered
        norm = sum(v[k] * v[inverse[k]] * size_inv[k] for k in range(d)) % p
        if not norm:
            raise TableComputationError("a component has norm 0 mod p")
        deg_sq = group.order * pow(norm, -1, p) % p
        deg = next((c for c in range(1, bound + 1) if c * c % p == deg_sq),
                   None)
        if deg is None:
            raise TableComputationError("no degree squares to |G|/norm mod p")
        chi = [x * deg * s % p for x, s in zip(v, size_inv)]
        values = [None] * d   # integer power-basis coordinates of chi_k
        logs = None
        if deg == 1:
            # chi(g_k) is a root of unity zeta_m^t, reduced to z^t
            logs = [log.get(x) for x in chi]
            for k, t in enumerate(logs):
                if t is None:
                    raise TableComputationError(
                        f"a linear character's value {chi[k]} mod {p} is not "
                        f"a power of z")
                if roots[t] is None:
                    coords = [0] * field.degree
                    for pos, c in power_basis[t]:
                        coords[pos] = c
                    roots[t] = tuple(coords)
                values[k] = roots[t]
        else:
            for k in by_order:
                if values[k] is not None:
                    continue
                pw = powers[k]
                e = len(pw)
                if e not in transforms:
                    transforms[e] = _multiplicity_transform(e, zpow, p)
                mults = _multiplicities([chi[c] for c in pw], deg,
                                        transforms[e], p)
                # zeta_e^j = z^(m/e j), with its multiplicity, for n_j > 0
                support = [(m // e * j, n) for j, n in enumerate(mults) if n]
                for t, c in enumerate(pw):
                    if values[c] is None:
                        coords = [0] * field.degree
                        for power, n in support:
                            for pos, x in power_basis[power * t % m]:
                                coords[pos] += n * x
                        values[c] = coords
        values = [shared.setdefault(t, t) for t in map(tuple, values)]
        # values are integral, so each row is canonical over 1
        row = []
        for t in values:
            x = numbers.get(t)
            if x is None:
                x = numbers[t] = _new(field, t, 1)
            row.append(x)
        # w_k = |C_k| chi(g_k) / chi(1) is integral for a central character,
        # and is chi(g_k) itself where |C_k| = chi(1)
        w = []
        for t, size in zip(values, classes.sizes):
            if size != deg:
                scaled = [x * size for x in t]
                if any(x % deg for x in scaled):
                    raise TableComputationError(
                        "a central character is not integral")
                t = tuple([x // deg for x in scaled])
                t = shared.setdefault(t, t)
            w.append(t)
        # sigma_a(chi) is chi read through the a-th power map, and so is its
        # component mod p: look it up, and fill its row and vector
        image = []
        for pm in power_maps:
            j = where.get(tuple([v[k] for k in pm]))
            if j is None:
                raise TableComputationError(
                    "a Galois conjugate of a component is not a component")
            if rows[j] is None:
                rows[j], vectors[j] = [row[k] for k in pm], [w[k] for k in pm]
                degrees[j] = deg
                if logs is not None:
                    exponents[j] = [logs[k] for k in pm]
            image.append(j)
        # sigma_a sigma_b = sigma_ab gives the images of every member
        for b, j in zip(field.units, image):
            found[j] = [image[slot[a * b % m]] for a in field.units]
    if d == group.order:
        certified = _certify_homomorphisms(classes, m, exponents)
    else:
        certified = _certify(classes, field, vectors)
    if not certified:
        raise TableComputationError("recovered vectors fail the certificate")
    if images is not None:
        images[:] = found
    return rows, degrees


def _multiplicity_transform(e: int, zpow, p: int):
    """Rows j < e of the inverse transform of length e mod p, scaled by
    1/e: row j holds z_e^(-jt) / e for t < e, where z_e = zpow[m/e] has
    order e."""
    m = len(zpow)
    step = m // e
    inv_e = pow(e, -1, p)
    return [[zpow[-step * j * t % m] * inv_e % p for t in range(e)]
            for j in range(e)]


def _multiplicities(chi_powers, deg, transform, p):
    """The multiplicities n_j = (1/e) sum_t chi(g^t) z_e^(-jt) mod p of the
    eigenvalues zeta_e^j of rho(g), from chi(g^t) mod p for t < e and the
    rows of `_multiplicity_transform(e, ...)`.  Raises
    TableComputationError unless each lies in [0, deg] and they sum to
    deg."""
    mults = [sum(map(mul, row, chi_powers)) % p for row in transform]
    if max(mults) > deg or sum(mults) != deg:
        raise TableComputationError(
            f"eigenvalue multiplicities {mults} mod {p} are not a partition "
            f"of the degree {deg}")
    return mults


def _prime(order: int, exponent: int) -> int:
    """The smallest prime p = 1 (mod exponent) with p > 2 sqrt(order)."""
    p = exponent + 1
    while p * p <= 4 * order or not _is_prime(p):
        p += exponent
    return p


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _root_of_unity(m: int, p: int) -> int:
    """An element of order m in F_p^*, for a prime p = 1 (mod m)."""
    factors = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    for x in range(2, p):
        z = pow(x, (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in factors):
            return z
    raise TableComputationError(f"no element of order {m} mod {p}")


def _split_mod_p(classes: ConjugacyClassData, p: int):
    """The d central characters mod p, each scaled to w_0 = 1: e_0 split
    into eigencomponents by one class matrix at a time until there are d,
    which a sweep over every class reaches (see the module docstring).  A
    central class splits by a transform along its cycles, any other by
    its minimal polynomials."""
    d = classes.count
    powers = classes.power_classes
    by_order = sorted(range(1, d), key=lambda k: -len(powers[k]))
    first = {}   # set of power classes -> its first class in by_order
    for k in by_order:
        first.setdefault(frozenset(powers[k]), k)
    components = [[1] + [0] * (d - 1)]
    zpow = None   # the powers of z, built when a central class needs them
    for k in sorted(by_order,
                    key=lambda k: first[frozenset(powers[k])] != k):
        if len(components) == d:
            break
        mat = classes.coefficients[k]
        if classes.sizes[k] != 1:
            components = [piece for v in components
                          for piece in _eigencomponents(mat, v, p)]
            continue
        if zpow is None:
            m = classes.group.exponent
            z = _root_of_unity(m, p)
            zpow = [pow(z, t, p) for t in range(m)]
        cycles = _cycles([next(iter(row)) for row in mat])
        components = [piece for v in components for piece in
                      _cycle_components(cycles, len(powers[k]), v, zpow, p)]
    out = []
    for v in components:
        if not v[0]:
            raise TableComputationError("a component vanishes at the identity")
        inv = pow(v[0], -1, p)
        out.append([x * inv % p for x in v])
    return out


def _cycles(perm):
    """The cycles (c_0 ... c_(L-1)) of a permutation, perm[c_u] = c_(u+1)."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if not seen[start]:
            cycle = []
            c = start
            while not seen[c]:
                seen[c] = True
                cycle.append(c)
                c = perm[c]
            cycles.append(cycle)
    return cycles


def _cycle_components(cycles, e: int, v, zpow, p: int):
    """The nonzero components of v in the eigenspaces of a central class's
    matrix, which moves coordinate c_(u+1) to c_u along `cycles`, each of
    length L dividing the element order e.  On a cycle, the component for
    lambda is 0 unless lambda^L = 1, that is lambda = z^((m/L) i) for an
    i < L, and then (e/L) lambda^r sum_u lambda^(-u) v_(c_u) at c_r (module
    docstring): one transform of length L per cycle that v meets.
    Components come in the order of the exponent of lambda."""
    m = len(zpow)
    by_power = {}   # exponent of lambda -> its component
    for cycle in cycles:
        met = [(u, v[c]) for u, c in enumerate(cycle) if v[c]]
        if not met:
            continue
        length = len(cycle)
        step = m // length
        scale = e // length
        for i in range(length):
            power = step * i
            total = 0
            for u, x in met:
                total += zpow[-power * u % m] * x
            total = total * scale % p
            if total:
                comp = by_power.get(power)
                if comp is None:
                    comp = by_power[power] = [0] * len(v)
                for r, c in enumerate(cycle):
                    comp[c] = zpow[power * r % m] * total % p
    return [by_power[power] for power in sorted(by_power)]


def _eigencomponents(mat, v, p: int):
    """The nonzero components of v in the eigenspaces of the class matrix
    `mat` (sparse rows {k: a}), mod p: q(mat) v for each root lambda of the
    minimal polynomial mu of v under mat, with q = mu / (x - lambda).  mu
    comes from the Krylov sequence v, mat v, ...; its roots are found by
    trying every element of F_p, and q(mat) v is summed over the
    coordinates of the Krylov vectors, one reduction per coordinate."""
    krylov = [v]
    reduced = []   # (pivot, row, its combination of Krylov vectors)
    while True:
        vec = krylov[-1]
        mu = [0] * (len(krylov) - 1) + [1]
        # each row vanishes mod p at the pivots before its own, so residues
        # may wait until the pivot is read
        for pivot, row, comb in reduced:
            f = vec[pivot] % p
            if f:
                vec = [x - f * y for x, y in zip(vec, row)]
                mu = [a - f * c for a, c in zip(mu, comb)] + mu[len(comb):]
        vec = [x % p for x in vec]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            break   # sum_s mu_s mat^s v = 0, mu monic: the minimal polynomial
        inv = pow(vec[pivot], -1, p)
        reduced.append((pivot, [x * inv % p for x in vec],
                        [c * inv % p for c in mu]))
        last, image = krylov[-1], []
        for row in mat:   # rows are short: a plain loop is fastest
            total = 0
            for k, a in row.items():
                total += a * last[k]
            image.append(total % p)
        krylov.append(image)
    mu = [c % p for c in mu]
    if len(mu) == 2:
        return [v]
    roots = [lam for lam in range(p) if not _evaluate(mu, lam, p)]
    if len(roots) != len(mu) - 1:
        raise TableComputationError(
            "a minimal polynomial does not split into distinct roots mod p")
    columns = list(zip(*krylov))   # coordinate i of v, mat v, ...
    out = []
    for lam in roots:
        q, acc = [0] * (len(mu) - 1), 0
        for s in range(len(mu) - 1, 0, -1):
            acc = (acc * lam + mu[s]) % p
            q[s - 1] = acc
        out.append([sum(map(mul, q, col)) % p for col in columns])
    return out


def _evaluate(poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


# -- Galois orbits ----------------------------------------------------------


class GaloisOrbit:
    """A Galois orbit of irreducible characters with its rational idempotent,
    character field, and totally-real / CM classification.  The character
    fields of the orbits are the field summands of the centre of Q[G]."""

    __slots__ = ("rows", "coset_to_row", "idempotent", "field_spec", "tag")

    def __init__(self, rows: tuple, coset_to_row: tuple, idempotent: tuple,
                 field_spec: SubfieldSpec, tag: str):
        self.rows = rows                  # member rows, representative first
        self.coset_to_row = coset_to_row  # pairs (coset representative, row)
        self.idempotent = idempotent      # |G| exact rational coefficients
        self.field_spec = field_spec
        self.tag = tag                    # "TotallyReal" or "CM"

    @property
    def representative(self) -> int:
        return self.rows[0]

    @property
    def degree(self) -> int:
        return self.field_spec.degree


class GaloisOrbitDecomposition:
    __slots__ = ("table", "orbits")

    def __init__(self, table: CharacterTable, orbits: tuple):
        self.table = table
        self.orbits = orbits


def galois_orbits(table: CharacterTable) -> GaloisOrbitDecomposition:
    """Orbits of the rows under sigma_a, with exact rational idempotents
    e_K(chi) and the character fields F_[chi] as explicit subfields.
    Computed once per table; later calls return the same object."""
    if table._orbits is None:
        table._orbits = _galois_orbits(table)
    return table._orbits


def _galois_orbits(table):
    # images come with the table, idempotents by trace (module docstring)
    field = table.field
    g = table.group
    trace = [sum(dict(field.power_table[a * t % field.m]).get(0, 0)
                 for a in field.units) for t in range(field.degree)]
    assigned = set()
    orbits = []
    for r, image in enumerate(table.galois_images):
        if r in assigned:
            continue
        members = tuple(dict.fromkeys(image))
        assigned.update(members)
        by_unit = dict(zip(field.units, image))
        spec = SubfieldSpec(field, [a for a in field.units if by_unit[a] == r])
        scale = g.order * len(field.units) // len(members)
        # values repeat across the classes: one trace per distinct value
        per_value = {t: Fraction(table.degrees[r] * sum(map(mul, trace, t)),
                                 scale)
                     for t in {x.num for x in table.rows[r]}}
        per_class = [per_value[x.num] for x in table.rows[r]]
        orbits.append(GaloisOrbit(
            rows=members,
            coset_to_row=tuple((a, by_unit[a])
                               for a in sorted(spec.coset_reps())),
            idempotent=tuple(per_class[table.classes.membership[h]]
                             for h in g.inverse),
            field_spec=spec,
            tag="TotallyReal" if spec.is_totally_real() else "CM",
        ))
    return GaloisOrbitDecomposition(table=table, orbits=tuple(orbits))
