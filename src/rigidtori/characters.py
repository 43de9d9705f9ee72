"""Exact character tables, central idempotents, and Galois-orbit data.

The table is computed by Burnside's class-algebra method: the class-sum
matrices M_i, (M_i)[j][k] = a_ijk, commute, and their simultaneous
eigenvectors, normalized at the identity class, are the vectors of
central-character values omega_k = |C_k| chi(g_k) / chi(1), which lie in
Z[zeta_m] for m = exponent(G).

Exact values are recovered as Dixon does (Numer. Math. 10, 1967).  A seeded
random combination of the class matrices gives numeric eigenvectors v with
v_0 = 1.  From each, chi(1) = round(sqrt(|G| / sum_k |v_k|^2 / |C_k|)) and
chi_k = v_k chi(1) / |C_k|.  On a class k of element order e, the power map
gives the multiplicity of the eigenvalue zeta_e^j of rho(g_k) as
n_j = (1/e) sum_t chi(g_k^t) zeta_e^(-jt), a non-negative integer; rounded,
the n_j give omega_k = (|C_k| / chi(1)) sum_j n_j zeta_e^j exactly.  If a
rounding is ambiguous, the next combination is tried; if every draw fails,
an all-exact eigenspace refinement against candidate eigenvalues (sums of
chi(1) many e-th roots of unity) takes over.  The draw uses the constant
DEFAULT_SEED; the table does not depend on it, since rows come out in
canonical order and are certified exactly.  Floating point only proposes.

One exact certificate decides, for d vectors w with w_0 = 1.  A set S of
classes is chosen so that the tuples (w_s), s in S, are pairwise distinct.
Checked exactly: sum_k a_sjk w_k = w_s w_j for every s in S and every j,
and M_i M_s = M_s M_i, in integers, for every i and every s in S.  Then
each w is a joint eigenvector of {M_s} with eigenvalues (w_s), and d
vectors with pairwise distinct joint eigenvalues are a basis, so every
joint eigenspace of {M_s} is a line.  Each M_i commutes with every M_s, so
it preserves these lines: M_i w = lambda w.  Since a_i0k = delta_ik (class
0 is the identity), lambda = (M_i w)_0 = w_i.  So M_i w = w_i w for every
i: the d vectors are the d central characters.  The degrees follow exactly
from chi(1)^2 = |G| / sum_k |w_k|^2 / |C_k|, and their squares must sum to
|G|.  `CharacterTable.verify` (row orthonormality) stays public as an
independent check but is not part of the computation.

`table_for(group)` is the one table cache.  It keeps the last group's table
only, compared by Cayley-table content, so every step of a request shares
one table.  One entry is enough: a request touches one group, and a stream
that cycles through more groups than a small LRU holds gets no hits from it
either.  A larger memo only costs memory: on the cold-groups stream (seed 1),
where no table repeats, a 16-entry LRU raised the peak RSS from about 41 MB
to 43.7 MB, and one entry to 41.3-41.4 MB.  `galois_orbits` and
`centre_decomposition` are computed once per table object and then return
that same result.  Galois images of rows are read through the power maps,
sigma_a(chi)(g) = chi(g^a), by permuting columns.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .cyclotomic import CyclotomicField, CyclotomicNumber, SubfieldSpec
from .groups import ConjugacyClassData, FiniteGroup

__all__ = [
    "CharacterTable",
    "GaloisOrbit",
    "GaloisOrbitDecomposition",
    "character_table",
    "table_for",
    "galois_orbits",
    "centre_decomposition",
    "TableComputationError",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729
# largest distance of a rounded degree or multiplicity from its float value
_ROUNDING_TOLERANCE = 1e-3


class TableComputationError(RuntimeError):
    """Internal failure of the eigenspace splitting; indicates a defect."""


# -- candidate eigenvalues ------------------------------------------------


def _permissible_degrees(order: int, class_count: int):
    bound = order - class_count + 1
    return [dd for dd in range(1, order + 1)
            if order % dd == 0 and dd * dd <= bound]


def _class_eigenvalue_candidates(field, class_size, elem_order, degrees):
    """Exact candidates for |C| chi(g)/chi(1) with chi(g) a sum of chi(1)
    many elem_order-th roots of unity."""
    m = field.m
    step = m // elem_order
    out = {}
    for deg in degrees:
        for combo in itertools.combinations_with_replacement(range(elem_order), deg):
            acc = {}
            for k in combo:
                acc[step * k] = acc.get(step * k, 0) + 1
            val = field.from_exponent_dict(acc)
            scaled_coeffs = []
            ok = True
            for c in val.coeffs:
                num = c * class_size
                if num.denominator != 1 or num.numerator % deg:
                    ok = False
                    break
                scaled_coeffs.append(num / deg)
            if not ok:
                continue
            cand = field.from_coeffs(scaled_coeffs)
            out[cand.coeffs] = cand
    return list(out.values())


def _complex_value(x: CyclotomicNumber) -> complex:
    m = x.field.m
    return sum(float(c) * np.exp(2j * np.pi * i / m)
               for i, c in enumerate(x.coeffs) if c)


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
        self._centre = None   # centre_decomposition(self), once computed

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

    def algebra_product(self, a_coeffs, b_coeffs):
        """Convolution product in the group algebra (coefficient lists)."""
        g = self.group
        zero = self.field.zero()
        out = [zero for _ in range(g.order)]
        for x in range(g.order):
            ax = a_coeffs[x]
            if ax.is_zero():
                continue
            row = g.table[x]
            for y in range(g.order):
                by = b_coeffs[y]
                if not by.is_zero():
                    out[row[y]] = out[row[y]] + ax * by
        return out


def character_table(group: FiniteGroup) -> CharacterTable:
    """Exact character table; canonical row order (degree, then lexicographic
    coefficient order at the canonical class order)."""
    classes = group.conjugacy_classes()
    d = classes.count
    field = CyclotomicField(group.exponent)
    vectors = _dixon_vectors(classes, field)
    if vectors is None:
        degrees = _permissible_degrees(group.order, d)
        per_class_candidates = [
            _class_eigenvalue_candidates(
                field, classes.sizes[k],
                group.element_order[classes.representatives[k]], degrees)
            for k in range(d)]
        vectors = _exact_eigenspace_refinement(classes, field,
                                               per_class_candidates)
    rows, degs = _rows_from_eigenvectors(group, classes, field, vectors)
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
    return tuple(tuple(c.coeffs) for c in row)


def _power_classes(classes: ConjugacyClassData):
    """Per class k, the classes of g_k^t for 0 <= t < ord(g_k)."""
    table = classes.group.table
    out = []
    for g in classes.representatives:
        powers, cur = [0], g
        while cur != 0:
            powers.append(classes.membership[cur])
            cur = table[cur][g]
        out.append(powers)
    return out


def _rows_from_eigenvectors(group, classes, field, vectors):
    """Turn certified central-character vectors into character rows.

    chi(1)^2 = |G| / sum_k w_k conj(w_k) / |C_k|.  Since conj(w_k) = w_kbar
    (kbar the inverse class) and a certified w multiplies like the class
    sums, w_k w_kbar = sum_l a_(k kbar l) w_l, the sum is the linear form
    sum_l c_l w_l with c_l = sum_k a_(k kbar l) / |C_k|."""
    d = classes.count
    rows = []
    degs = []
    norm_form = [sum(Fraction(classes.coefficients[k][classes.inverse_class(k)][l],
                              classes.sizes[k]) for k in range(d))
                 for l in range(d)]
    for w in vectors:
        s = field.zero()
        for wl, c in zip(w, norm_form):
            if c:
                s = s + wl * c
        ratio = s.as_rational()
        if ratio is None or ratio <= 0:
            raise TableComputationError("non-rational norm for eigenvector")
        deg_sq = Fraction(group.order) / ratio
        if deg_sq.denominator != 1:
            raise TableComputationError("chi(1)^2 not an integer")
        deg = math.isqrt(deg_sq.numerator)
        if deg * deg != deg_sq.numerator:
            raise TableComputationError("chi(1)^2 not a perfect square")
        rows.append([w[k] * Fraction(deg, classes.sizes[k]) for k in range(d)])
        degs.append(deg)
    return rows, degs


def _separating_classes(vectors):
    """Classes S whose coordinates (w_s), s in S, tell the vectors apart,
    or None if no set does.  Greedy: each step adds the class that splits
    the vectors into the most groups, the first in class order on ties."""
    n = len(vectors)
    values = {}   # value coefficients -> small id, so keys hash fast
    ids = [[values.setdefault(x.coeffs, len(values)) for x in w]
           for w in vectors]
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
    M_i w = w_i w for every i."""
    d = classes.count
    if len(vectors) != d or any(w[0] != 1 for w in vectors):
        return False
    separating = _separating_classes(vectors)
    if separating is None:
        return False
    for s in separating:
        for w in vectors:
            ws = w[s]
            for j, row in enumerate(classes.coefficients[s]):
                lhs = [0] * len(ws.coeffs)
                for k, a in enumerate(row):
                    if a:
                        for i, c in enumerate(w[k].coeffs):
                            if c:
                                lhs[i] += a * c
                if tuple(lhs) != (ws * w[j]).coeffs:
                    return False
    sparse = [[{k: a for k, a in enumerate(row) if a} for row in mat]
              for mat in classes.coefficients]
    return all(_sparse_product(sparse[i], sparse[s]) ==
               _sparse_product(sparse[s], sparse[i])
               for s in separating for i in range(d))


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


def _dixon_vectors(classes: ConjugacyClassData, field):
    """Fast path: numeric eigenvectors of a seeded random combination of the
    class matrices, exact values recovered from rounded eigenvalue
    multiplicities (Dixon), then the one exact certificate.  Returns None
    when a rounding is ambiguous or the certificate fails for every draw,
    deferring to the exact refinement."""
    d = classes.count
    powers = _power_classes(classes)
    # dft[e][j][t] = zeta_e^(-jt) / e, for the element orders e
    dft = {}
    for pw in powers:
        e = len(pw)
        if e not in dft:
            dft[e] = np.exp(-2j * np.pi * np.outer(range(e), range(e)) / e) / e
    mats = [np.array(classes.class_matrix(i), dtype=float) for i in range(d)]
    rng = random.Random(DEFAULT_SEED)
    for _attempt in range(8):
        weights = [rng.randint(1, 2 ** 20) for _ in range(d)]
        combo = sum(wt * m for wt, m in zip(weights, mats))
        try:
            _, vecs = np.linalg.eig(combo)
        except np.linalg.LinAlgError:
            continue
        vectors = []
        for idx in range(d):
            w = _recover_vector(vecs[:, idx], classes, field, powers, dft)
            if w is None:
                break
            vectors.append(w)
        else:
            # repeated vectors are rejected: no class separates them
            if _certify(classes, vectors):
                return vectors
    return None


def _recover_vector(v, classes, field, powers, dft):
    """Exact central character w near the numeric eigenvector v, or None.

    With v_0 = 1: chi(1) = sqrt(|G| / sum_k |v_k|^2/|C_k|) and chi_k =
    v_k chi(1)/|C_k|.  On class k of element order e, the multiplicity of
    the eigenvalue zeta_e^j is n_j = (1/e) sum_t chi(g_k^t) zeta_e^(-jt);
    then w_k = (|C_k|/chi(1)) sum_j n_j zeta_e^j, built exactly."""
    if abs(v[0]) < 1e-9:
        return None
    v = v / v[0]
    sizes = np.array(classes.sizes, dtype=float)
    deg_float = math.sqrt(
        classes.group.order / float(np.sum(np.abs(v) ** 2 / sizes)))
    deg = round(deg_float)
    if deg < 1 or abs(deg - deg_float) > _ROUNDING_TOLERANCE:
        return None
    chi = v * deg / sizes
    w = []
    for k, pw in enumerate(powers):
        e = len(pw)
        mults = dft[e] @ chi[pw]   # n_j for j = 0, ..., e-1
        rounded = np.rint(mults.real)
        if (np.max(np.abs(mults - rounded)) > _ROUNDING_TOLERANCE
                or rounded.min() < 0 or rounded.sum() != deg):
            return None
        step = field.m // e
        w.append(field.from_exponent_dict(
            {step * j: Fraction(int(n) * classes.sizes[k], deg)
             for j, n in enumerate(rounded) if n}))
    return w


def _exact_eigenspace_refinement(classes, field, per_class_candidates):
    """All-exact fallback: refine common eigenspaces one class matrix at a
    time, testing every matching candidate eigenvalue by exact nullspace."""
    d = classes.count
    one = field.one()
    zero = field.zero()
    subspaces = [[[one if i == j else zero for j in range(d)] for i in range(d)]]
    # one subspace = list of basis row vectors over the field
    for i in range(1, d):
        if all(len(s) == 1 for s in subspaces):
            break
        mat = classes.class_matrix(i)
        mat_np = np.array(mat, dtype=float)
        numeric = np.linalg.eigvals(mat_np)
        usable = []
        for cand in per_class_candidates[i]:
            fv = _complex_value(cand)
            if any(abs(fv - ev) < 1e-5 for ev in numeric):
                usable.append(cand)
        kernel_cache = {}
        new_subspaces = []
        for space in subspaces:
            if len(space) == 1:
                new_subspaces.append(space)
                continue
            pieces = []
            total = 0
            for cand in usable:
                key = cand.coeffs
                if key not in kernel_cache:
                    mk = [[field.from_rational(mat[r][c]) - (cand if r == c else zero)
                           for c in range(d)] for r in range(d)]
                    kernel_cache[key] = linalg.nullspace(mk)
                eig = kernel_cache[key]
                if not eig:
                    continue
                piece = linalg.intersect(space, eig)
                if piece:
                    pieces.append(piece)
                    total += len(piece)
                if total == len(space):
                    break
            if total != len(space):
                raise TableComputationError(
                    "eigenspace refinement failed to exhaust a subspace")
            new_subspaces.extend(pieces)
        subspaces = new_subspaces
    if not all(len(s) == 1 for s in subspaces) or len(subspaces) != d:
        raise TableComputationError("class matrices failed to separate")
    vectors = []
    for space in subspaces:
        w = space[0]
        if w[0].is_zero():
            raise TableComputationError("eigenvector vanishes at the identity")
        inv = w[0].inverse()
        vectors.append([x * inv for x in w])
    if not _certify(classes, vectors):
        raise TableComputationError("verification failed on exact path")
    return vectors


# -- Galois orbits and the centre ------------------------------------------


@dataclass(frozen=True)
class GaloisOrbit:
    """A Galois orbit of irreducible characters with its rational idempotent,
    character field, and totally-real / CM classification."""

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

    def orbit_of_row(self, row: int) -> int:
        for i, orbit in enumerate(self.orbits):
            if row in orbit.rows:
                return i
        raise KeyError(row)


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
    keys = [tuple(values.setdefault(v.coeffs, len(values)) for v in row)
            for row in table.rows]
    key_to_row = {key: r for r, key in enumerate(keys)}
    powers = _power_classes(table.classes)
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
    """e_K(chi) = sum over the orbit of e_chi; coefficients must be rational."""
    # the coefficient of g is (chi(1)/|G|) sum_chi chi(g^-1): one per class
    g = table.group
    per_class = []
    for k in range(table.size):
        acc = table.field.zero()
        for row in member_rows:
            acc = acc + table.rows[row][k] * Fraction(table.degrees[row], g.order)
        per_class.append(acc.as_rational())
    out = []
    for elem in range(g.order):
        q = per_class[table.classes.membership[g.inverse[elem]]]
        if q is None:
            raise TableComputationError(
                f"orbit idempotent has irrational coefficient at element {elem}")
        out.append(q)
    return out


@dataclass(frozen=True)
class CentreSummand:
    """One field summand F_j of Z(Q[G]) with the class-sum projection map."""

    orbit_index: int
    field_spec: SubfieldSpec
    tag: str
    class_components: tuple  # per class: coordinates of the F_j-component
                             # of v_C in the subfield basis


def centre_decomposition(table: CharacterTable):
    """The splitting Z(Q[G]) = F_1 + ... + F_l, one CentreSummand per Galois
    orbit.  For each summand, v_C maps to omega_C(chi) = |C| chi(g_C)/chi(1)
    in F_j, expressed in the subfield basis.  Computed once per table;
    later calls return the same tuple."""
    if table._centre is None:
        table._centre = _centre_decomposition(table)
    return table._centre


def _centre_decomposition(table):
    out = []
    for j, orbit in enumerate(galois_orbits(table).orbits):
        rep = orbit.representative
        deg = table.degrees[rep]
        comps = []
        for k in range(table.size):
            omega = table.rows[rep][k] * Fraction(table.classes.sizes[k], deg)
            coords = orbit.field_spec.coordinates(omega)
            if coords is None:
                raise TableComputationError(
                    "central character leaves its own character field")
            comps.append(tuple(coords))
        out.append(CentreSummand(
            orbit_index=j,
            field_spec=orbit.field_spec,
            tag=orbit.tag,
            class_components=tuple(comps),
        ))
    return tuple(out)
