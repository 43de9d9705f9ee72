"""Exact character tables, central idempotents, and Galois-orbit data.

The table is computed by the Dixon-Schneider method (Dixon, Numer. Math. 10,
1967; Schneider, J. Symb. Comput. 9, 1990).  The class-sum matrices M_i,
(M_i)[j][k] = a_ijk, commute, and their joint eigenvectors, normalized at
the identity class, are the vectors of central-character values
omega_k = |C_k| chi(g_k) / chi(1), which lie in Z[zeta_m], m = exponent(G).
Each M_i is read one matrix at a time as the sparse rows the class data
stores, coefficients[i][j] = {k: a_ijk}; no d x d x d object is built.

The eigenvectors are split over a prime field.  p is the smallest prime with
p = 1 (mod m) and p > 2 sqrt(|G|).  Then p does not divide |G|, F_p holds the
m-th roots of unity, so the class algebra over F_p is split semisimple and
its d central characters stay distinct mod p; and chi(1) <= sqrt(|G|) < p/2.
Fix z of order m in F_p, the image of zeta_m under a prime of Z[zeta_m]
above p.  The identity-class vector e_0 equals sum_chi (chi(1)^2/|G|) w_chi
(column orthogonality), with every coefficient nonzero mod p.  For a seeded
random combination A of the M_i, the minimal polynomial mu of e_0 under A,
read off its Krylov sequence, has one simple root lambda per eigenvalue
of A, found by evaluating mu at every element of F_p; the component of e_0 in
the lambda-eigenspace is q(A) e_0 with q = mu/(x - lambda).  Components are
split again with fresh combinations until there are d of them, each a
multiple of one w_chi mod p.  The seed is the constant DEFAULT_SEED; the
table does not depend on it.

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
[0, chi(1)] raises TableComputationError; there is no fallback.

One exact certificate decides, for d vectors w with w_0 = 1.  A set S of
classes is chosen so that the tuples (w_s), s in S, are pairwise distinct.
Checked exactly: sum_k a_sjk w_k = w_s w_j for every s in S and every j,
and M_i M_s = M_s M_i, in integers, for every i and every s in S.  Then
each w is a joint eigenvector of {M_s} with eigenvalues (w_s), and d
vectors with pairwise distinct joint eigenvalues are a basis, so every
joint eigenspace of {M_s} is a line.  Each M_i commutes with every M_s, so
it preserves these lines: M_i w = lambda w.  Since a_i0k = delta_ik (class
0 is the identity), lambda = (M_i w)_0 = w_i.  So M_i w = w_i w for every
i: the d vectors are the d central characters.  Their coordinates are
integers (central characters are algebraic integers), so the products are
taken in integers, M_i M_s too, over the sparse rows.  The degrees need no
check of their own: each exact w reduces mod p to the component it was
recovered from (the multiplicities invert the transform mod p), so when
w = omega_psi, psi(1)^2 = chi(1)^2 mod p, and both lie in [1, sqrt(|G|)].
The degree squares must sum to |G|.  A failed certificate raises
TableComputationError.  Rows come out in canonical order, so the table
depends on neither p, z nor the draws; they are sorted on their integer
power-basis numerators (character values are algebraic integers, so every
denominator is 1).
`CharacterTable.verify` (row orthonormality) stays public as an independent
check but is not part of the computation.

`table_for(group)` is the one table cache.  It keeps the last group's table
only, compared by Cayley-table content, so every step of a request shares
one table; `cli`'s one-entry memo of the last representation document
holds results computed from that table, never a table of its own.  One entry is enough: a request touches one group, and a stream
that cycles through more groups than a small LRU holds gets no hits from it
either.  A larger memo only costs memory: on the cold-groups stream (seed 1),
where no table repeats, a 16-entry LRU raised the peak RSS from about 41 MB
to 43.7 MB, and one entry to 41.3-41.4 MB.  `galois_orbits` is computed
once per table object and then returns that same result; its orbits are
also the field summands of the centre of Q[G].  Galois images of rows are
read through the power maps, sigma_a(chi)(g) = chi(g^a), by permuting
columns; the power maps on classes come with the class data.  An orbit's
idempotent is summed in integers, chi(1) times the numerators over the
orbit, and divided by |G| once per class.  The character field's Q-basis
is built only when it is read: `analyze` reports the conductor, the fixing
subgroup and the degree, and builds none.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicField, CyclotomicNumber, SubfieldSpec
from .groups import ConjugacyClassData, FiniteGroup

__all__ = [
    "CharacterTable",
    "GaloisOrbit",
    "GaloisOrbitDecomposition",
    "character_table",
    "table_for",
    "galois_orbits",
    "TableComputationError",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729
# fresh random combinations tried before a component that will not split
# is called a defect; each pair of characters collides with probability 1/p
_SPLIT_ROUNDS = 64


class TableComputationError(RuntimeError):
    """Internal failure of the eigenspace splitting; indicates a defect."""


# -- the table -------------------------------------------------------------


class CharacterTable:
    """Exact d x d table of irreducible character values over Q(zeta_m)."""

    def __init__(self, group: FiniteGroup, classes: ConjugacyClassData,
                 field, rows, degrees):
        self.group = group
        self.classes = classes
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.degrees = tuple(degrees)
        self._orbits = None   # galois_orbits(self), once computed

    @property
    def size(self) -> int:
        return len(self.rows)

    def value(self, row: int, element: int) -> CyclotomicNumber:
        return self.rows[row][self.classes.membership[element]]

    def inner_product(self, row_a, row_b) -> CyclotomicNumber:
        """(1/|G|) sum_g chi_a(g) conj(chi_b(g)), exact."""
        acc = self.field.zero()
        for k, size in enumerate(self.classes.sizes):
            acc = acc + self.rows[row_a][k] * self.rows[row_b][k].conjugate() * size
        return acc * Fraction(1, self.group.order)

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

    def verify(self):
        """Exact row orthonormality and the degree sum; raises on failure."""
        one = self.field.one()
        zero = self.field.zero()
        for a in range(self.size):
            for b in range(a, self.size):
                got = self.inner_product(a, b)
                want = one if a == b else zero
                if got != want:
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
    _, rows, degs = _dixon_schneider(classes, field)
    if sum(dd * dd for dd in degs) != group.order:
        raise TableComputationError("degree squares do not sum to |G|")
    order = sorted(range(d), key=lambda r: (degs[r], _row_key(rows[r])))
    return CharacterTable(group, classes, field,
                          [rows[r] for r in order],
                          [degs[r] for r in order])


_LAST_TABLE = None  # (Cayley table, its CharacterTable) of the last group


def table_for(group: FiniteGroup) -> CharacterTable:
    """character_table(group), memoized for the last group asked.

    The memo compares Cayley tables by content, so another FiniteGroup
    with the same table (under another name) gets the same table object."""
    global _LAST_TABLE
    if _LAST_TABLE is None or _LAST_TABLE[0] != group.table:
        _LAST_TABLE = (group.table, character_table(group))
    return _LAST_TABLE[1]


def _row_key(row):
    """Sort key of a row of cyclotomic values: the (numerators, denominator)
    pairs, which order rows of integral values as their coordinates do."""
    return tuple((c.num, c.den) for c in row)


def _separating_classes(vectors):
    """Classes S whose coordinates (w_s), s in S, tell the vectors apart,
    or None if no set does.  Greedy: each step adds the class that splits
    the vectors into the most groups, the first in class order on ties."""
    n = len(vectors)
    values = {}   # value -> small id, so keys hash fast
    ids = [[values.setdefault(x, len(values)) for x in w] for w in vectors]
    separating = []
    keys = [() for _ in vectors]
    while len(set(keys)) < n:
        splits = [len({key + (v[s],) for key, v in zip(keys, ids)})
                  for s in range(len(ids[0]))]
        best = max(range(len(splits)), key=lambda s: (splits[s], -s))
        if splits[best] == len(set(keys)):
            return None
        separating.append(best)
        keys = [key + (v[best],) for key, v in zip(keys, ids)]
    return separating


def _certify(classes: ConjugacyClassData, vectors) -> bool:
    """Exact check that `vectors` are the d central characters.

    With S from `_separating_classes`, checked exactly: w_0 = 1,
    sum_k a_sjk w_k = w_s w_j for s in S and every j, and M_i M_s = M_s M_i
    for every i and s in S.  The module docstring shows why this gives
    M_i w = w_i w for every i.  Central characters are algebraic integers,
    so their power-basis coordinates are integers, and the products are
    taken in integers: a vector with another coordinate is rejected."""
    d = classes.count
    if len(vectors) != d or any(w[0] != 1 for w in vectors):
        return False
    if any(x.den != 1 for w in vectors for x in w):
        return False
    coords = [[x.num for x in w] for w in vectors]
    separating = _separating_classes(coords)
    if separating is None:
        return False
    modulus = vectors[0][0].field.modulus
    for w in coords:
        for s in separating:
            times_ws = _multiplication_matrix(w[s], modulus)
            for j, row in enumerate(classes.coefficients[s]):
                lhs = [0] * len(w[s])
                for k, a in row.items():
                    for i, c in enumerate(w[k]):
                        lhs[i] += a * c
                rhs = [0] * len(lhs)
                for c, image in zip(w[j], times_ws):
                    if c:
                        for i, x in enumerate(image):
                            rhs[i] += c * x
                if lhs != rhs:
                    return False
    mats = classes.coefficients
    return all(_sparse_product(mats[i], mats[s]) ==
               _sparse_product(mats[s], mats[i])
               for s in separating for i in range(d))


def _multiplication_matrix(x, modulus):
    """Rows x z^i, i < deg, in the power basis modulo the monic integer
    polynomial `modulus` (low degree first): the matrix of y -> x y."""
    rows = [list(x)]
    for _ in range(len(x) - 1):
        top = rows[-1][-1]
        shifted = [0] + rows[-1][:-1]
        rows.append([a - top * b for a, b in zip(shifted, modulus)]
                    if top else shifted)
    return rows


def _sparse_product(x, y):
    """Exact product of integer matrices given as rows {column: entry}."""
    out = []
    for row in x:
        acc = {}
        for j, a in row.items():
            for k, b in y[j].items():
                acc[k] = acc.get(k, 0) + a * b
        out.append({k: c for k, c in acc.items() if c})
    return out


def _dixon_schneider(classes: ConjugacyClassData, field):
    """(vectors, rows, degrees) of the d irreducible characters: the
    central characters split over F_p, their values recovered exactly from
    eigenvalue multiplicities, and the vectors certified.  Raises
    TableComputationError when a step or the certificate fails.  The
    module docstring shows why the degrees need no check of their own."""
    group = classes.group
    d = classes.count
    m = field.m
    p = _prime(group.order, m)
    z = _root_of_unity(m, p)
    zpow = [pow(z, t, p) for t in range(m)]
    # z^t in the power basis, as (position, integer coefficient) pairs
    power_basis = field.power_table
    powers = classes.power_classes
    # a class of largest order in its cyclic subgroup first, so that its
    # power classes are filled from its multiplicities
    by_order = sorted(range(d), key=lambda k: -len(powers[k]))
    inverse = [classes.inverse_class(k) for k in range(d)]
    size_inv = [pow(size, -1, p) for size in classes.sizes]
    bound = math.isqrt(group.order)
    vectors, rows, degrees = [], [], []
    for v in _split_mod_p(classes, p):
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
        for k in by_order:
            if values[k] is not None:
                continue
            pw = powers[k]
            e = len(pw)
            mults = _multiplicities([chi[c] for c in pw], deg, zpow, p)
            for t, c in enumerate(pw):
                if values[c] is None:
                    coords = [0] * field.degree
                    for j, n in enumerate(mults):
                        if n:
                            for i, x in power_basis[m // e * (j * t % e)]:
                                coords[i] += n * x
                    values[c] = coords
        rows.append([CyclotomicNumber(field, coords) for coords in values])
        vectors.append([CyclotomicNumber(field, [x * size for x in coords], deg)
                        for coords, size in zip(values, classes.sizes)])
        degrees.append(deg)
    if not _certify(classes, vectors):
        raise TableComputationError("recovered vectors fail the certificate")
    return vectors, rows, degrees


def _multiplicities(chi_powers, deg, zpow, p):
    """The multiplicities n_j = (1/e) sum_t chi(g^t) z_e^(-jt) mod p of the
    eigenvalues zeta_e^j of rho(g), from chi(g^t) mod p for t < e, where
    z_e = zpow[m/e] has order e.  Raises TableComputationError unless each
    lies in [0, deg] and they sum to deg."""
    e = len(chi_powers)
    m = len(zpow)
    step = m // e
    inv_e = pow(e, -1, p)
    mults = [sum(x * zpow[-step * j * t % m] for t, x in enumerate(chi_powers))
             * inv_e % p for j in range(e)]
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
    """The d central characters mod p, each scaled to w_0 = 1: the
    eigencomponents of e_0 under seeded random combinations of the class
    matrices, split again until there are d."""
    d = classes.count
    rng = random.Random(DEFAULT_SEED)
    components = [[1] + [0] * (d - 1)]
    for _round in range(_SPLIT_ROUNDS):
        if len(components) >= d:
            break
        combo = [[0] * d for _ in range(d)]
        for mat in classes.coefficients:
            c = rng.randrange(p)
            for combo_row, row in zip(combo, mat):
                for k, a in row.items():
                    combo_row[k] += c * a
        combo = [[x % p for x in row] for row in combo]
        components = [piece for v in components
                      for piece in _eigencomponents(combo, v, p)]
    if len(components) != d:
        raise TableComputationError(
            f"{len(components)} eigencomponents mod {p}, not {d}")
    out = []
    for v in components:
        if not v[0]:
            raise TableComputationError("a component vanishes at the identity")
        inv = pow(v[0], -1, p)
        out.append([x * inv % p for x in v])
    return out


def _eigencomponents(a, v, p: int):
    """The nonzero components of v in the eigenspaces of a, mod p: q(a) v for
    each root lambda of the minimal polynomial mu of v under a, with
    q = mu / (x - lambda).  mu comes from the Krylov sequence v, av, ...;
    its roots are found by trying every element of F_p."""
    krylov = [v]
    reduced = []   # (pivot, row, its combination of Krylov vectors)
    while True:
        vec = list(krylov[-1])
        mu = [0] * (len(krylov) - 1) + [1]
        for pivot, row, comb in reduced:
            f = vec[pivot]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, row)]
                for s, c in enumerate(comb):
                    mu[s] = (mu[s] - f * c) % p
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            break   # sum_s mu_s a^s v = 0, mu monic: the minimal polynomial
        inv = pow(vec[pivot], -1, p)
        reduced.append((pivot, [x * inv % p for x in vec],
                        [c * inv % p for c in mu]))
        last = krylov[-1]
        krylov.append([sum(x * y for x, y in zip(row, last)) % p
                       for row in a])
    if len(mu) == 2:
        return [v]
    roots = [lam for lam in range(p) if not _evaluate(mu, lam, p)]
    if len(roots) != len(mu) - 1:
        raise TableComputationError(
            "a minimal polynomial does not split into distinct roots mod p")
    out = []
    for lam in roots:
        q, acc = [0] * (len(mu) - 1), 0
        for s in range(len(mu) - 1, 0, -1):
            acc = (acc * lam + mu[s]) % p
            q[s - 1] = acc
        out.append([sum(c * x[i] for c, x in zip(q, krylov)) % p
                    for i in range(len(v))])
    return out


def _evaluate(poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


# -- Galois orbits ----------------------------------------------------------


@dataclass(frozen=True)
class GaloisOrbit:
    """A Galois orbit of irreducible characters with its rational idempotent,
    character field, and totally-real / CM classification.  The character
    fields of the orbits are the field summands of the centre of Q[G]."""

    rows: tuple                 # member row indices, orbit representative first
    coset_to_row: tuple         # pairs (coset representative a, row index)
    idempotent: tuple           # |G| exact rational coefficients
    field_spec: SubfieldSpec
    tag: str                    # "TotallyReal" or "CM"

    @property
    def representative(self) -> int:
        return self.rows[0]

    @property
    def degree(self) -> int:
        return self.field_spec.degree


@dataclass(frozen=True)
class GaloisOrbitDecomposition:
    table: CharacterTable
    orbits: tuple


def galois_orbits(table: CharacterTable) -> GaloisOrbitDecomposition:
    """Orbits of the rows under sigma_a, with exact rational idempotents
    e_K(chi) and the character fields F_[chi] as explicit subfields.
    Computed once per table; later calls return the same object."""
    if table._orbits is None:
        table._orbits = _galois_orbits(table)
    return table._orbits


def _galois_orbits(table):
    # sigma_a(chi)(g) = chi(g^a): the image of a row is the row read through
    # the a-th power map on classes
    field = table.field
    d = table.size
    values = {}   # value coefficients -> small id, so row keys hash fast
    keys = [tuple(values.setdefault((v.num, v.den), len(values)) for v in row)
            for row in table.rows]
    key_to_row = {key: r for r, key in enumerate(keys)}
    powers = table.classes.power_classes
    power_map = {a: [pw[a % len(pw)] for pw in powers] for a in field.units}

    def image(r, a):
        return key_to_row.get(tuple(keys[r][k] for k in power_map[a]))

    assigned = [False] * d
    orbits = []
    for r in range(d):
        if assigned[r]:
            continue
        stabilizer = []
        members = []
        for a in field.units:
            row_img = image(r, a)
            if row_img is None:
                raise TableComputationError("Galois image is not a table row")
            if row_img == r:
                stabilizer.append(a)
            if row_img not in members:
                members.append(row_img)
        spec = SubfieldSpec(field, stabilizer)
        coset_to_row = {rep: image(r, rep) for rep in spec.coset_reps()}
        for m in members:
            assigned[m] = True
        idem = _orbit_idempotent(table, members)
        tag = "TotallyReal" if spec.is_totally_real() else "CM"
        orbits.append(GaloisOrbit(
            rows=tuple(members),
            coset_to_row=tuple(sorted(coset_to_row.items())),
            idempotent=tuple(idem),
            field_spec=spec,
            tag=tag,
        ))
    orbits.sort(key=lambda o: o.rows[0])
    return GaloisOrbitDecomposition(table=table, orbits=tuple(orbits))


def _orbit_idempotent(table: CharacterTable, member_rows):
    """e_K(chi) = sum over the orbit of e_chi; coefficients must be rational.

    The coefficient of g is (1/|G|) sum_chi chi(1) chi(g^-1), one per class.
    Character values are algebraic integers (denominator 1), so the sum is
    taken over their integer numerators; it is rational exactly when every
    coordinate but the first vanishes."""
    g = table.group
    per_class = []
    for k in range(table.size):
        acc = [0] * table.field.degree
        for row in member_rows:
            deg = table.degrees[row]
            for i, x in enumerate(table.rows[row][k].num):
                acc[i] += deg * x
        per_class.append(None if any(acc[1:]) else Fraction(acc[0], g.order))
    out = []
    for elem in range(g.order):
        q = per_class[table.classes.membership[g.inverse[elem]]]
        if q is None:
            raise TableComputationError(
                f"orbit idempotent has irrational coefficient at element {elem}")
        out.append(q)
    return out
