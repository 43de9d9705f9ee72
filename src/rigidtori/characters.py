"""Exact character tables, central idempotents, and Galois-orbit data.

The table is computed by Burnside's class-algebra method: the class-sum
matrices M_i commute and their simultaneous eigenvectors, normalized at the
identity class, are the vectors of central-character values
omega_i = |C_i| chi(g_i) / chi(1), which all lie in Z[zeta_m] for
m = exponent(G).

Eigenvalues are drawn from the exact candidate family
|C_i| * (sum of D many e-th roots of unity) / D, where e is the element
order in C_i and D runs over the permissible irreducible degrees.  A seeded
random linear combination of the class matrices separates the eigenvectors
numerically; each recognized row is then verified exactly against every
class matrix, so floating point only ever supplies hints.  A slower
all-exact eigenspace refinement backs up the numeric path.  The table does
not depend on the combination drawn: rows come out in canonical order and
each one is certified exactly, so the draw uses the constant DEFAULT_SEED.

`table_for(group)` is the one table cache.  It keeps the last group's table
only, compared by Cayley-table content, so every step of a request shares
one table.  One entry is enough: a request touches one group, and a stream
that cycles through more groups than a small LRU holds gets no hits from it
either.  A larger memo only costs memory: on the cold-groups stream (seed 1),
where no table repeats, a 16-entry LRU raised the peak RSS from about 41 MB
to 43.7 MB, and one entry to 41.3-41.4 MB.  `galois_orbits` and
`centre_decomposition` are computed once per table object and then return
that same result.
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
    degrees = _permissible_degrees(group.order, d)
    per_class_candidates = []
    for k in range(d):
        size = classes.sizes[k]
        eorder = group.element_order[classes.representatives[k]]
        cands = _class_eigenvalue_candidates(field, size, eorder, degrees)
        per_class_candidates.append(cands)

    vectors = _numeric_then_exact_eigenvectors(
        classes, field, per_class_candidates)
    if vectors is None:
        vectors = _exact_eigenspace_refinement(classes, field, per_class_candidates)

    rows, degs = _rows_from_eigenvectors(group, classes, field, vectors)
    order = sorted(range(d), key=lambda r: (degs[r], _row_key(rows[r])))
    table = CharacterTable(group, classes, field,
                           [rows[r] for r in order],
                           [degs[r] for r in order])
    table.verify()
    return table


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


def _rows_from_eigenvectors(group, classes, field, vectors):
    """Turn verified central-character vectors into character rows."""
    d = classes.count
    rows = []
    degs = []
    for w in vectors:
        s = field.zero()
        for k in range(d):
            s = s + w[k] * w[k].conjugate() * Fraction(1, classes.sizes[k])
        ratio = s.as_rational()
        if ratio is None or ratio <= 0:
            raise TableComputationError("non-rational norm for eigenvector")
        deg_sq = Fraction(group.order) / ratio
        if deg_sq.denominator != 1:
            raise TableComputationError("chi(1)^2 not an integer")
        deg = math.isqrt(deg_sq.numerator)
        if deg * deg != deg_sq.numerator:
            raise TableComputationError("chi(1)^2 not a perfect square")
        row = [w[k] * Fraction(deg, classes.sizes[k]) for k in range(d)]
        rows.append(row)
        degs.append(deg)
    if len({_row_key(r) for r in rows}) != d:
        raise TableComputationError("duplicate eigenvectors")
    return rows, degs


def _verify_vector(classes, field, w) -> bool:
    """Exact check: w is a simultaneous eigenvector of every class matrix,
    with eigenvalues w_i (identity coordinate normalized to 1)."""
    d = classes.count
    if w[0] != field.one():
        return False
    for i in range(d):
        mat = classes.class_matrix(i)
        for j in range(d):
            acc = field.zero()
            for k in range(d):
                a = mat[j][k]
                if a:
                    acc = acc + w[k] * a
            if acc != w[i] * w[j]:
                return False
    return True


def _numeric_then_exact_eigenvectors(classes, field, per_class_candidates):
    """Fast path: seeded random combination of class matrices, numpy
    eigenvectors, per-coordinate recognition against the exact candidate
    lists, then full exact verification.  Returns None when anything is
    ambiguous, deferring to the exact refinement."""
    d = classes.count
    mats = [np.array(classes.class_matrix(i), dtype=float) for i in range(d)]
    cand_floats = []
    for k in range(d):
        cand_floats.append([(_complex_value(c), c) for c in per_class_candidates[k]])
    rng = random.Random(DEFAULT_SEED)
    for _attempt in range(8):
        weights = [rng.randint(1, 2 ** 20) for _ in range(d)]
        combo = sum(wt * m for wt, m in zip(weights, mats))
        try:
            _, vecs = np.linalg.eig(combo)
        except np.linalg.LinAlgError:
            continue
        found = {}
        ok = True
        for idx in range(d):
            v = vecs[:, idx]
            if abs(v[0]) < 1e-9:
                ok = False
                break
            v = v / v[0]
            exact = []
            for k in range(d):
                best = None
                best_dist = 1e-6
                for fval, cand in cand_floats[k]:
                    dist = abs(fval - v[k])
                    if dist < best_dist:
                        best_dist = dist
                        best = cand
                if best is None:
                    ok = False
                    break
                exact.append(best)
            if not ok:
                break
            key = tuple(c.coeffs for c in exact)
            found[key] = exact
        if ok and len(found) == d:
            vectors = list(found.values())
            if all(_verify_vector(classes, field, w) for w in vectors):
                return vectors
    return None


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
        w = [x * inv for x in w]
        if not _verify_vector(classes, field, w):
            raise TableComputationError("verification failed on exact path")
        vectors.append(w)
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
    field = table.field
    d = table.size
    key_to_row = {_row_key(table.rows[r]): r for r in range(d)}
    units = field.units
    assigned = [False] * d
    orbits = []
    for r in range(d):
        if assigned[r]:
            continue
        stabilizer = []
        coset_to_row = {}
        members = []
        for a in units:
            img = tuple(tuple((v.galois(a)).coeffs) for v in table.rows[r])
            row_img = key_to_row.get(img)
            if row_img is None:
                raise TableComputationError("Galois image is not a table row")
            if row_img == r:
                stabilizer.append(a)
            if row_img not in members:
                members.append(row_img)
        spec = SubfieldSpec(field, stabilizer)
        for rep in spec.coset_reps():
            img = tuple(tuple((v.galois(rep)).coeffs) for v in table.rows[r])
            coset_to_row[rep] = key_to_row[img]
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
    g = table.group
    acc = [table.field.zero() for _ in range(g.order)]
    for row in member_rows:
        for elem, c in enumerate(table.central_idempotent(row)):
            acc[elem] = acc[elem] + c
    out = []
    for elem, c in enumerate(acc):
        q = c.as_rational()
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
