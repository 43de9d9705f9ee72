"""Weight-1 rational Hodge structures with a finite group action.

Three independent rigidity pathways are provided and cross-checked:

* the character formula dim Hom_G(V^{0,1}, V^{1,0}) = (1/|G|) sum chi10(g)^2,
  which counts and gives no tau table,
* the centre criterion tau(j) * tau(conj j) = 0 on character spaces, whose
  tau rows, read from the Hodge type, are the one tau table,
* a brute-force intertwiner solve over an explicit exact splitting
  V (x) K = U + conj(U).

A Hodge type (`SymbolicHodgeSpec`) is valid by construction: building one
checks Hodge symmetry, so no pathway checks it again.

Exact splittings are carried as `ExactHodgeStructure` (a cyclotomic basis of
U); numeric complex structures enter through `hodge_character_from_numeric`,
which rounds eigenvalue multiplicities to exact cyclotomic integers.

The centre of Q[G] acts through one representation, the integer class sums
S_k of `IntegralRepresentation.class_sums`.  A one-sided Hodge type is
realized as in Ekedahl's theorem: on each active CM centre field, U is the
sum of the isotypic components e_chi (V (x) K) of the characters chi at the
designated embeddings, and e_chi = (chi(1)/|G|) sum_k conj(chi(g_k)) S_k
(Serre, Linear Representations of Finite Groups, 2.6).

An exact structure costs one elimination: its basis matrix P = [U | conj(U)]
is inverted once, at construction, which is also the proof that U + conj(U)
spans.  The action of rho(g) in that basis is P^-1 rho(g) P, a product.
G-stability of U is certified on a generating set only (a subspace stable
under the generators is stable under every word in them), after which each
Hodge-character value is a trace tr(rho(g) Pi) through the projector
Pi = P[:, :n] P^-1[:n, :] onto U along conj(U): integer times cyclotomic
products, with no elimination per conjugacy class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from . import linalg
from .characters import (CharacterTable, GaloisOrbitDecomposition,
                         galois_orbits, table_for)
from .cyclotomic import CyclotomicField, CyclotomicNumber
from .groups import FiniteGroup

__all__ = [
    "IntegralRepresentation",
    "HodgeCharacter",
    "SymbolicHodgeSpec",
    "SummandType",
    "ExactHodgeStructure",
    "RigidityReport",
    "InvalidRepresentation",
    "InconsistentCharacter",
    "HSViolation",
    "RoundingFailure",
    "hodge_character_from_numeric",
    "rigidity_by_character",
    "rigidity_by_centre",
    "brute_force_hom_dimension",
    "isotypic_split",
    "f_module_basis",
    "enumerate_rigid_types",
    "spec_from_character",
    "exact_structure_from_spec",
    "BRUTE_FORCE_RANK_CAP",
]

BRUTE_FORCE_RANK_CAP = 64

# Rounding a numeric (rho, J) to an exact Hodge character: how far an
# eigenvalue multiplicity may sit from an integer, and the relative defect
# allowed in J^2 = -I and J rho(g) = rho(g) J.
_MULTIPLICITY_TOL = 1e-6
_COMMUTE_TOL = 1e-10


class InvalidRepresentation(ValueError):
    pass


class InconsistentCharacter(ValueError):
    """chi10 fails to decompose with nonnegative integer multiplicities."""


class HSViolation(ValueError):
    """A symbolic Hodge type violates Hodge symmetry."""


class RoundingFailure(ValueError):
    """Numeric data too far from an exact cyclotomic integer."""


class IntegralRepresentation:
    """An exact integer representation of a finite group of rank 2n."""

    def __init__(self, group: FiniteGroup, matrices, validate: bool = True):
        self.group = group
        self.matrices = tuple(
            tuple(tuple(int(x) for x in row) for row in m) for m in matrices)
        if len(self.matrices) != group.order:
            raise InvalidRepresentation("need one matrix per group element")
        self.rank = len(self.matrices[0])
        if validate:
            self._validate()

    @staticmethod
    def from_generators(group: FiniteGroup, generator_indices,
                        generator_matrices) -> "IntegralRepresentation":
        """Expand matrices given on generators by multiplicative closure.

        Every edge x -> xs of the Cayley graph on the given generators s is
        one product rho(x) M_s: the |G| - 1 edges of the closure's spanning
        tree define rho, and each other edge is checked against it as the
        closure meets it.  With
        rho(e) = I, rho(x) rho(s) = rho(xs) on every edge gives
        rho(a) rho(b) = rho(ab) for all b, by induction on a word for b."""
        n = len(generator_matrices[0]) if generator_matrices else 0
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        mats = {0: ident}
        frontier = [0]
        gen = list(zip(generator_indices, generator_matrices))
        while frontier:
            x = frontier.pop()
            for g_idx, g_mat in gen:
                y = group.table[x][g_idx]
                product = _int_mat_mul(mats[x], g_mat)
                if y not in mats:
                    mats[y] = product
                    frontier.append(y)
                elif product != mats[y]:
                    raise InvalidRepresentation(
                        f"not a homomorphism at pair ({x},{g_idx})")
        if len(mats) != group.order:
            raise InvalidRepresentation("generators do not generate the group")
        if any(len(m) != n or any(len(row) != n for row in m)
               for m in mats.values()):
            raise InvalidRepresentation("ragged matrix")
        return IntegralRepresentation(
            group, [mats[g] for g in range(group.order)], validate=False)

    def _validate(self):
        g = self.group
        n = self.rank
        for m in self.matrices:
            if len(m) != n or any(len(row) != n for row in m):
                raise InvalidRepresentation("ragged matrix")
        # rho(e) = I and rho(a) rho(s) = rho(as) for the generators s give
        # rho(a) rho(b) = rho(ab) for all b, by induction on a word for b
        if self.matrices[0] != tuple(tuple(int(i == j) for j in range(n))
                                     for i in range(n)):
            raise InvalidRepresentation("rho(identity) is not the identity")
        for b in self.generator_indices():
            for a in range(g.order):
                if _int_mat_mul(self.matrices[a], self.matrices[b]) != \
                        [list(r) for r in self.matrices[g.table[a][b]]]:
                    raise InvalidRepresentation(
                        f"not a homomorphism at pair ({a},{b})")
        # a homomorphism gives rho(g)^ord(g) = rho(e) = I, so every rho(g)
        # is unimodular (determinant +-1) without computing it

    def trace(self, g: int) -> int:
        return sum(self.matrices[g][i][i] for i in range(self.rank))

    @cached_property
    def classes(self):
        """The memoized table's classes: one computation per Cayley table."""
        return table_for(self.group).classes

    @cached_property
    def class_sums(self):
        """Integer matrices S_k = sum of rho(g) over the k-th conjugacy
        class, canonical class order.  The centre of Q[G] acts through
        them: every isotypic projector and every character idempotent is a
        combination of them."""
        n = self.rank
        out = []
        for cls in self.classes.classes:
            acc = [[0] * n for _ in range(n)]
            for g in cls:
                for acc_row, row in zip(acc, self.matrices[g]):
                    for j, x in enumerate(row):
                        if x:
                            acc_row[j] += x
            out.append(acc)
        return out

    def generator_indices(self):
        """The group's generating set (`FiniteGroup.generators`), as a
        list."""
        return list(self.group.generators)

    def __repr__(self):
        return (f"IntegralRepresentation({self.group.name}, "
                f"rank={self.rank})")


def _int_mat_mul(a, b):
    """a b for integer matrices given as rows: each row of a against each
    column of b.  A ragged input raises the IndexError that indexing its
    entries one by one raises."""
    m = len(b[0])
    cols = list(zip(*b))
    if a and (len(cols) != m or m and any(len(row) < len(b) for row in a)):
        raise IndexError("list index out of range")
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# -- Hodge characters -------------------------------------------------------


@dataclass(frozen=True)
class HodgeCharacter:
    """The trace function of the group action on V^{1,0}, one exact
    cyclotomic value per conjugacy class (canonical class order)."""

    table: CharacterTable
    values: tuple  # CyclotomicNumber per class

    @cached_property
    def multiplicities(self):
        """Multiplicity of each table row in chi10, validated as non-negative
        integers that add up to chi10(1); decomposed once per character.

        Floats propose: the inner products rounded to integers.  Exact
        integers accept: m is taken only when every m_r >= 0 and
        sum_r m_r chi_r = chi10 in integer power-basis numerators at every
        class.  The rows are independent, so an accepted m is the
        decomposition itself.  A rejected proposal leaves the decision, and
        the wording of an InconsistentCharacter, to the exact inner
        products."""
        table = self.table
        mults = table.rounded_decomposition(self.values)
        if mults is not None and _decomposes_as(table, mults, self.values):
            return mults
        mults = []
        for r, ip in enumerate(table.decompose(self.values)):
            q = ip.as_rational()
            if q is None or q.denominator != 1 or q < 0:
                raise InconsistentCharacter(
                    f"multiplicity of row {r} is {ip}, not a nonnegative "
                    "integer")
            mults.append(int(q))
        total = sum(m * table.degrees[r] for r, m in enumerate(mults))
        if Fraction(total) != self.values[0].as_rational():
            raise InconsistentCharacter(
                "chi10(1) does not match its decomposition")
        return mults

    def check_hodge_symmetry(self, rep: IntegralRepresentation):
        """chi10(g) + conj(chi10(g)) must equal tr rho(g), exactly."""
        for k, g in enumerate(self.table.classes.representatives):
            total = self.values[k] + self.values[k].conjugate()
            if total.as_rational() != Fraction(rep.trace(g)):
                raise InconsistentCharacter(
                    f"Hodge symmetry fails on class {k}")


def _decomposes_as(table: CharacterTable, mults, values) -> bool:
    """Whether values = sum_r m_r chi_r with every m_r >= 0, compared in
    the integer power-basis numerators of each class value (character
    values are algebraic integers: a value with a denominator fails)."""
    if any(m < 0 for m in mults):
        return False
    for k, x in enumerate(values):
        if x.den != 1:
            return False
        acc = [0] * table.field.degree
        for row, m in zip(table.rows, mults):
            if m:
                for i, c in enumerate(row[k].num):
                    acc[i] += m * c
        if tuple(acc) != x.num:
            return False
    return True


def hodge_character_from_numeric(rep: IntegralRepresentation,
                                 j_matrix) -> HodgeCharacter:
    """Round the numeric trace data of (rho, J) to an exact HodgeCharacter.

    For g of order e, the multiplicity of the eigenvalue exp(2 pi i k/e) of
    rho(g) on V^{1,0} is the discrete Fourier transform of
    chi10(g^j) = (tr rho(g^j) - i tr(rho(g^j) J)) / 2 over j; each
    multiplicity must sit within _MULTIPLICITY_TOL of a nonnegative integer,
    and J must square to -I and commute with rho to within _COMMUTE_TOL
    relative to its norm.

    rho(G) is read once, as one (|G|, 2n, 2n) float stack: the commutation
    with J is one batched norm, every tr(rho(h) J) comes from one einsum, and
    each class's multiplicities are one FFT over the powers of its
    representative.  A rho beyond the float range raises RoundingFailure.
    """
    import numpy as np
    J = np.asarray(j_matrix, dtype=float)
    n2 = rep.rank
    if J.shape != (n2, n2):
        raise InvalidRepresentation("J matrix has wrong shape")
    try:
        rho = np.array(rep.matrices, dtype=float)
    except OverflowError:
        raise RoundingFailure("rho has entries beyond the float range") \
            from None
    # entries near the float range overflow to inf and nan here, silently:
    # the checks then pass vacuously, but the multiplicities come out
    # non-finite, a RoundingFailure below
    with np.errstate(over="ignore", invalid="ignore"):
        if np.linalg.norm(J @ J + np.eye(n2)) > _COMMUTE_TOL * max(
                1.0, np.linalg.norm(J) ** 2):
            raise RoundingFailure("J^2 + I exceeds tolerance")
        defect = np.linalg.norm(J @ rho - rho @ J, axis=(1, 2))
        bound = _COMMUTE_TOL * np.maximum(1.0,
                                          np.linalg.norm(rho, axis=(1, 2)))
        chi_num = (np.trace(rho, axis1=1, axis2=2)
                   - 1j * np.einsum("gij,ji->g", rho, J)) / 2.0
    failing = np.flatnonzero(defect > bound)
    if failing.size:
        raise RoundingFailure(f"J does not commute with rho({failing[0]})")

    table = table_for(rep.group)
    field = table.field
    m = field.m
    values = []
    for k, g in enumerate(table.classes.representatives):
        e = rep.group.element_order[g]
        powers = [0]
        for _ in range(e - 1):
            powers.append(rep.group.table[powers[-1]][g])
        mults = np.fft.fft(chi_num[powers]) / e
        if not np.isfinite(mults).all():
            raise RoundingFailure(
                f"eigenvalue multiplicities at class {k} are not finite")
        exps = {}
        for j, mult in enumerate(mults.tolist()):
            nearest = round(mult.real)
            if abs(mult - nearest) > _MULTIPLICITY_TOL or nearest < 0:
                raise RoundingFailure(
                    f"eigenvalue multiplicity {mult} at class {k} "
                    "is not a nonnegative integer")
            if nearest:
                exps[(m // e) * j] = nearest
        values.append(field.from_exponent_dict(exps))
    chi = HodgeCharacter(table=table, values=tuple(values))
    chi.check_hodge_symmetry(rep)
    return chi


# -- symbolic Hodge types ----------------------------------------------------


@dataclass(frozen=True)
class SummandType:
    """Hodge data on one centre field F_j: multiplicity and tau values."""

    orbit_index: int
    multiplicity: int
    tau: tuple  # sorted pairs (coset representative, tau value)

    def tau_dict(self):
        return dict(self.tau)


@dataclass(frozen=True)
class SymbolicHodgeSpec:
    """Hodge type of an action through the centre decomposition, valid by
    construction: building one checks Hodge symmetry."""

    decomposition: GaloisOrbitDecomposition
    summands: tuple  # SummandType, one per orbit

    def __post_init__(self):
        self.validate_hs()

    def validate_hs(self):
        """Hodge symmetry (HS); raises HSViolation."""
        for s in self.summands:
            orbit = self.decomposition.orbits[s.orbit_index]
            spec = orbit.field_spec
            tau = s.tau_dict()
            if set(tau) != set(spec.coset_reps()):
                raise HSViolation("tau must be defined on every embedding")
            for a in spec.coset_reps():
                abar = spec.conjugate_coset(a)
                if tau[a] + tau[abar] != s.multiplicity:
                    raise HSViolation(
                        f"tau({a}) + tau({abar}) != multiplicity "
                        f"on orbit {s.orbit_index}")
                if abar == a and 2 * tau[a] != s.multiplicity:
                    raise HSViolation(
                        f"real embedding {a} needs tau = multiplicity/2")


# -- rigidity reports -------------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    hom_dimension: int | None    # None from the centre pathway
    is_rigid: bool
    tau_rows: tuple | None       # (orbit, coset, tau, tau_conj, product);
                                 # None from the character pathway


def rigidity_by_character(chi10: HodgeCharacter) -> RigidityReport:
    """Hom dimension by Schur orthogonality; validates chi10 first."""
    chi10.multiplicities  # raises InconsistentCharacter before the sum
    table = chi10.table
    g_order = table.group.order
    acc = table.field.zero()
    for k, size in enumerate(table.classes.sizes):
        acc = acc + chi10.values[k] * chi10.values[k] * size
    acc = acc * Fraction(1, g_order)
    dim = acc.as_rational()
    if dim is None or dim.denominator != 1 or dim < 0:
        raise InconsistentCharacter(f"hom dimension came out as {acc}")
    dim = int(dim)
    return RigidityReport(hom_dimension=dim, is_rigid=(dim == 0),
                          tau_rows=None)


def rigidity_by_centre(spec: SymbolicHodgeSpec) -> RigidityReport:
    """(R): tau(j) * tau(conj j) = 0 at every active embedding; the tau rows
    are the type's own, one per embedding coset of each centre field."""
    rows = []
    rigid = True
    for s in spec.summands:
        orbit = spec.decomposition.orbits[s.orbit_index]
        fs = orbit.field_spec
        tau = s.tau_dict()
        for a in fs.coset_reps():
            abar = fs.conjugate_coset(a)
            prod = tau[a] * tau[abar]
            rows.append((s.orbit_index, a, tau[a], tau[abar], prod))
            if s.multiplicity > 0 and prod != 0:
                rigid = False
    return RigidityReport(
        hom_dimension=None,
        is_rigid=rigid,
        tau_rows=tuple(rows),
    )


# -- exact Hodge structures and the brute-force oracle ----------------------


class ExactHodgeStructure:
    """An exact basis of U = V^{1,0} inside V (x) K, K a cyclotomic field
    containing Q(zeta_exponent).  The authoritative object for the
    brute-force pathway; conj(U) is computed coefficientwise.

    `frame` is the F-module frame U was built from, one entry
    (orbit index, copies) per active CM summand of the realized spec: for
    each F-module generator v of the summand, the list of its class-sum
    images S_k v (k in canonical class order, S_0 v = v).  Empty for a
    structure not built by `exact_structure_from_spec`."""

    def __init__(self, rep: IntegralRepresentation, field, u_columns,
                 frame=()):
        self.rep = rep
        self.field = field
        self.u_columns = [list(col) for col in u_columns]
        self.frame = tuple(frame)
        n2 = rep.rank
        if len(self.u_columns) * 2 != n2:
            raise InvalidRepresentation("U must have half the rank")
        full = [list(col) for col in self.u_columns]
        full += [[c.conjugate() for c in col] for col in self.u_columns]
        mat = [[full[j][i] for j in range(n2)] for i in range(n2)]
        try:
            inv = linalg.inverse(mat)
        except ValueError:
            raise InvalidRepresentation("U + conj(U) does not span") from None
        self._basis_matrix = mat  # columns: u_1..u_n, conj(u_1)..conj(u_n)
        self._basis_inverse = inv
        self._generator_actions = None   # see generator_actions

    @property
    def n(self) -> int:
        return len(self.u_columns)

    def restricted_action(self, g: int):
        """(A_g, B_g): matrices of rho(g) on U and on conj(U); errors if the
        subspaces are not invariant."""
        n = self.n
        rho = self.rep.matrices[g]
        cols = list(zip(*self._basis_matrix))
        images = [[_dot_int(row, col) for col in cols] for row in rho]
        sol = linalg.mat_mul(self._basis_inverse, images)
        for i in range(n):
            for j in range(n):
                if not (sol[n + i][j].is_zero() and sol[i][n + j].is_zero()):
                    raise InvalidRepresentation("rho(g) mixes U and conj(U)")
        a = [[sol[i][j] for j in range(n)] for i in range(n)]
        b = [[sol[n + i][n + j] for j in range(n)] for i in range(n)]
        return a, b

    def generator_actions(self):
        """restricted_action(g) for the generators g of the representation,
        computed once per structure.  Computing them certifies that U and
        conj(U) are G-stable."""
        if self._generator_actions is None:
            self._generator_actions = [self.restricted_action(g)
                                       for g in self.rep.generator_indices()]
        return self._generator_actions

    def hodge_character(self) -> HodgeCharacter:
        """chi10(g) = tr(rho(g) Pi), Pi the projector onto U along conj(U),
        after certifying on the generators that U and conj(U) are stable."""
        self.generator_actions()
        table = table_for(self.rep.group)
        n = self.n
        proj = linalg.mat_mul([row[:n] for row in self._basis_matrix],
                              self._basis_inverse[:n])
        proj_cols = list(zip(*proj))
        values = []
        for g in table.classes.representatives:
            tr = self.field.zero()
            for row, col in zip(self.rep.matrices[g], proj_cols):
                tr = tr + _dot_int(row, col)
            values.append(_coerce_to_subcyclotomic(tr, table.field))
        return HodgeCharacter(table=table, values=tuple(values))

    def j_matrix_float(self):
        """Float image P D P^-1 of the exact multiplication-by-i operator,
        P the basis matrix in floats.  A P beyond the float range, singular
        in floats, or too ill-conditioned for J to come out real raises
        RoundingFailure."""
        import numpy as np
        # entries near the float range overflow to inf and nan here,
        # silently: a non-finite J is a RoundingFailure below
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                P = np.array(self._basis_matrix_columns_complex(),
                             dtype=complex).T
            except OverflowError:
                raise RoundingFailure(
                    "the basis has entries beyond the float range") from None
            D = np.diag([1j] * self.n + [-1j] * self.n)
            try:
                J = P @ D @ np.linalg.inv(P)
            except np.linalg.LinAlgError:
                raise RoundingFailure(
                    "the basis matrix is singular in floats") from None
        if not (np.isfinite(J).all() and np.max(np.abs(J.imag)) <= 1e-8):
            raise RoundingFailure("J failed to come out real")
        return J.real

    def _basis_matrix_columns_complex(self):
        import numpy as np
        m = self.field.m
        out = []
        for j in range(2 * self.n):
            col = []
            for i in range(self.rep.rank):
                x = self._basis_matrix[i][j]
                col.append(sum(float(c) * np.exp(2j * np.pi * t / m)
                               for t, c in enumerate(x.coeffs) if c))
            out.append(col)
        return out


def _dot_int(ints, vec):
    """sum ints[t] * vec[t] for an integer row and a cyclotomic vector,
    skipping the zero integers."""
    acc = vec[0].field.zero()
    for x, v in zip(ints, vec):
        if x:
            acc = acc + v * x
    return acc


def _coerce_to_subcyclotomic(x: CyclotomicNumber, small) -> CyclotomicNumber:
    """x rewritten in the character table's field `small`.  A structure's
    field is the table's own, except for exponent <= 2, where the table is
    over Q and the structure over Q(i): there x must be rational."""
    if x.field.m == small.m:
        return x
    q = x.as_rational()
    if q is None:
        raise ValueError("value leaves the smaller cyclotomic field")
    return small.from_rational(q)


def brute_force_hom_dimension(structure: ExactHodgeStructure,
                              chi10: HodgeCharacter | None = None) -> int:
    """Exact dimension of {phi : conj(U) -> U, phi rho(g) = rho(g) phi}.

    Solves the intertwiner system over the cyclotomic field carried by the
    structure; independent of the character formula.  If chi10 is supplied,
    the structure's own character is cross-checked against it first.
    """
    rank = structure.rep.rank
    if rank > BRUTE_FORCE_RANK_CAP:
        raise InvalidRepresentation(
            f"rank {rank} exceeds the brute-force cap {BRUTE_FORCE_RANK_CAP}")
    if chi10 is not None:
        own = structure.hodge_character()
        if tuple(own.values) != tuple(chi10.values):
            raise InconsistentCharacter(
                "supplied chi10 disagrees with the exact structure")
    n = structure.n
    K = structure.field
    restricted = structure.generator_actions()
    # unknown F (n x n over K), equations A_g F - F B_g = 0 per generator
    zero = K.zero()
    rows = []
    for a, b in restricted:
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                for t in range(n):
                    row[t * n + j] = row[t * n + j] + a[i][t]
                    row[i * n + t] = row[i * n + t] - b[t][j]
                rows.append(row)
    if not rows:  # trivial group
        return n * n
    kernel = linalg.nullspace(rows)
    return len(kernel)


# -- isotypic pieces ---------------------------------------------------------


def isotypic_split(rep: IntegralRepresentation,
                   decomposition: GaloisOrbitDecomposition):
    """Rational projectors P_j from the orbit idempotents through rho.

    Returns a list of (projector matrix, image basis rows); the projectors
    satisfy P_j^2 = P_j, P_i P_j = 0 and sum to the identity, exactly.
    An idempotent is a class function, so P_j = sum_k c_k S_k over the
    integer class sums S_k; over the common denominator D of the c_k the
    sum runs in integers and is divided by D once.
    """
    n2 = rep.rank
    representatives = decomposition.table.classes.representatives
    out = []
    for orbit in decomposition.orbits:
        coeffs = [Fraction(orbit.idempotent[g]) for g in representatives]
        den = lcm(*(c.denominator for c in coeffs))
        acc = [[0] * n2 for _ in range(n2)]
        for c, mat in zip(coeffs, rep.class_sums):
            if c:
                w = c.numerator * (den // c.denominator)
                for acc_row, row in zip(acc, mat):
                    for j, x in enumerate(row):
                        if x:
                            acc_row[j] += w * x
        p = [[Fraction(x, den) for x in row] for row in acc]
        image = linalg.row_space_basis([list(col) for col in zip(*p)])
        out.append((p, image))
    return out


def f_module_basis(summand_image, centre_matrices):
    """Vectors v_1..v_n whose F-orbits (under the centre action restricted
    to the summand, given by matrices such as `class_sums`) form a Q-basis
    of the summand; greedy construction.

    Returns (images, orbits): the images [S v_i for S in centre_matrices]
    of each v_i, and a basis of each orbit's span.  With `class_sums`, whose
    first class is the identity's, images[i][0] is v_i."""
    if not summand_image:
        return [], []
    spanned = []
    images = []
    orbits = []
    for cand in summand_image:
        if linalg.in_span(spanned, cand):
            continue
        orbit_vectors = [linalg.mat_vec(mat, cand) for mat in centre_matrices]
        orbit = linalg.row_space_basis(orbit_vectors)
        images.append(orbit_vectors)
        orbits.append(orbit)
        spanned = linalg.row_space_basis(spanned + orbit)
        if len(spanned) == len(summand_image):
            break
    if len(spanned) != len(summand_image):
        raise InvalidRepresentation("greedy F-module basis failed to span")
    return images, orbits


# -- enumeration of rigid types ---------------------------------------------


def enumerate_rigid_types(decomposition: GaloisOrbitDecomposition,
                          multiplicities):
    """All Hodge types satisfying (HS) and (R) for the given multiplicities.

    Empty when an active field is totally real; otherwise each active CM
    field contributes a free choice of one embedding per conjugate pair, so
    the count is the product of 2^(degree/2) over active summands.  Rigid
    tau values are forced into {0, multiplicity}.
    """
    orbits = decomposition.orbits
    if len(multiplicities) != len(orbits):
        raise ValueError("need one multiplicity per centre summand")
    for j, orbit in enumerate(orbits):
        if multiplicities[j] > 0 and orbit.tag == "TotallyReal":
            return []
    per_summand = []
    for j, orbit in enumerate(orbits):
        spec = orbit.field_spec
        reps = spec.coset_reps()
        if multiplicities[j] == 0:
            per_summand.append([tuple(sorted((a, 0) for a in reps))])
            continue
        pairs = []
        seen = set()
        for a in reps:
            if a in seen:
                continue
            abar = spec.conjugate_coset(a)
            seen.add(a)
            seen.add(abar)
            pairs.append((a, abar))
        choices = []
        n_j = multiplicities[j]
        for picks in itertools.product(*[[0, 1]] * len(pairs)):
            tau = {}
            for (a, abar), pick in zip(pairs, picks):
                tau[a] = n_j if pick == 0 else 0
                tau[abar] = n_j - tau[a]
            choices.append(tuple(sorted(tau.items())))
        per_summand.append(choices)
    specs = []
    for combo in itertools.product(*per_summand):
        summands = tuple(
            SummandType(orbit_index=j, multiplicity=multiplicities[j],
                        tau=combo[j])
            for j in range(len(orbits)))
        specs.append(SymbolicHodgeSpec(decomposition=decomposition,
                                       summands=summands))
    return specs


def spec_from_character(chi10: HodgeCharacter) -> SymbolicHodgeSpec:
    """Hodge type through the centre, extracted from a Hodge character."""
    table = chi10.table
    mults = chi10.multiplicities
    decomp = galois_orbits(table)
    summands = []
    for j, orbit in enumerate(decomp.orbits):
        coset_to_row = dict(orbit.coset_to_row)
        spec = orbit.field_spec
        rep_row = orbit.representative
        deg = table.degrees[rep_row]
        total = None
        tau = {}
        for a in spec.coset_reps():
            r = coset_to_row[a]
            rbar = coset_to_row[spec.conjugate_coset(a)]
            tau[a] = deg * mults[r]
            pair_total = deg * (mults[r] + mults[rbar])
            if total is None:
                total = pair_total
            elif total != pair_total:
                raise InconsistentCharacter(
                    "character multiplicities are not Galois-constant")
        summands.append(SummandType(
            orbit_index=j,
            multiplicity=total if total is not None else 0,
            tau=tuple(sorted(tau.items()))))
    return SymbolicHodgeSpec(decomposition=decomp, summands=tuple(summands))


# -- realizing symbolic specs exactly ----------------------------------------


def exact_structure_from_spec(rep: IntegralRepresentation,
                              spec: SymbolicHodgeSpec) -> ExactHodgeStructure:
    """Build an exact U-basis realizing a one-sided (tau in {0, n_j}) spec.

    On a CM summand, U is the sum of the isotypic components e_chi (V (x) K)
    of the characters chi = sigma_a(chi_j) at the designated cosets a: each
    F-module generator v of the summand gives one column e_chi v per
    designated a, with e_chi read through the class-sum images S_k v (see
    `_character_component`); those images are kept as the structure's
    `frame`.  For real character fields with even multiplicity the
    duplicated copies are paired by the graph construction v -> (v, mu v)
    with mu a fixed non-real cyclotomic.
    """
    table = spec.decomposition.table
    m = table.field.m
    K = CyclotomicField(m if m > 2 else 4)
    mu = K.zeta()  # non-real: K = Q(zeta_m) with m > 2
    pieces = isotypic_split(rep, spec.decomposition)
    u_cols = []
    frame = []
    for s, (proj, image) in zip(spec.summands, pieces):
        if s.multiplicity == 0:
            if image:
                raise InvalidRepresentation(
                    "spec multiplicity 0 but isotypic piece is nonzero")
            continue
        orbit = spec.decomposition.orbits[s.orbit_index]
        fs = orbit.field_spec
        if len(image) != s.multiplicity * fs.degree:
            raise InvalidRepresentation(
                "spec multiplicity disagrees with the isotypic rank")
        tau = s.tau_dict()
        if orbit.tag == "CM":
            sides = [a for a in fs.coset_reps() if tau[a] == s.multiplicity]
            if sorted(tau.values()) != sorted(
                    [s.multiplicity] * len(sides) + [0] * len(sides)):
                raise HSViolation("CM tau values must be one-sided")
            copies, _ = f_module_basis(image, rep.class_sums)
            coset_to_row = dict(orbit.coset_to_row)
            for images in copies:
                for a in sides:
                    u_cols.append(_character_component(
                        table, coset_to_row[a], images))
            frame.append((s.orbit_index, tuple(copies)))
        else:
            # totally real field: tau = n/2 on each embedding; pair copies.
            # Only rational scalar pieces are realizable here: for a real
            # character of degree > 1 the graph pairing of module copies is
            # centre-invariant but not G-invariant.
            rep_row = orbit.representative
            if orbit.field_spec.degree != 1 or \
                    spec.decomposition.table.degrees[rep_row] != 1:
                raise InvalidRepresentation(
                    "cannot realize an exact complex structure on a "
                    "totally real summand of character degree > 1 or "
                    "field degree > 1; only rational scalar pieces are "
                    "supported")
            n_j = s.multiplicity
            if n_j % 2:
                raise HSViolation(
                    "real summand with odd multiplicity cannot carry "
                    "a Hodge structure")
            _, orbits = f_module_basis(image, rep.class_sums)
            for i in range(0, n_j, 2):
                for w1, w2 in zip(orbits[i], orbits[i + 1]):
                    col = [K.from_rational(x) + mu * Fraction(y)
                           for x, y in zip(w1, w2)]
                    u_cols.append(col)
    return ExactHodgeStructure(rep, K, u_cols, frame)


def _character_component(table: CharacterTable, row: int, images):
    """e_chi v for the character chi in `row`, from the images S_k v of v
    under the class sums: e_chi = (chi(1)/|G|) sum_k conj(chi(g_k)) S_k, the
    class-sum form of CharacterTable.central_idempotent.  A CM character
    field needs m > 2, so the column lies in Q(zeta_m), the structure's K."""
    scale = Fraction(table.degrees[row], table.group.order)
    coeffs = [x.conjugate() * scale for x in table.rows[row]]
    column = []
    for i in range(len(images[0])):
        acc = table.field.zero()
        for c, image in zip(coeffs, images):
            if image[i]:
                acc = acc + c * image[i]
        column.append(acc)
    return column
