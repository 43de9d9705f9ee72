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

An exact structure costs no elimination over K.  Its basis matrix
P = [U | conj(U)] has conj(P) = P S, S the swap of the two halves, so
P^-1 = [X; conj(X)] for the X with X P = [I | 0]: a structure is given X,
read off the character table through its frame's one rational inverse
(`_top_half`), and checks X P = [I | 0] at construction, the proof that
U + conj(U) spans.  rho(g) acts on U by
A_g = X rho(g) U and on conj(U) by conj(A_g), and U is stable iff
X rho(g) conj(U) = 0.  G-stability of U is certified on a generating set
only (a subspace stable under the generators is stable under every word in
them), after which each Hodge-character value is a trace tr(rho(g) Pi)
through the projector Pi = U X onto U along conj(U), with no elimination
per conjugacy class.  These products run in integers: a matrix over K is
the power-basis numerators of its entries over one denominator, each entry
packed into one integer (`cyclotomic._pack`), so that a product over K is
one product of integer matrices, read back mod Phi_m (`cyclotomic._reducer`)
once per entry.  By `cyclotomic._slot_width`'s lemma each product states
only a bound on its convolution sums, peaks over the numerators:
2n phi max|X| max|P| for X P, (2n)^2 phi max|X| max|rho| max|P| for
X rho(g) P, n phi max|U| max|X| for Pi = U X, (2n)^2 max|Pi| max|rho| per
trace, (2n)^2 phi max|P|^2 max|F| for U^T F P.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from . import linalg
from .characters import (CharacterTable, GaloisOrbitDecomposition,
                         galois_orbits, table_for)
from .cyclotomic import (CyclotomicField, CyclotomicNumber, _pack, _reader,
                         _reducer)
from .errors import DomainError
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


class InvalidRepresentation(DomainError, ValueError):
    pass


class InconsistentCharacter(DomainError, ValueError):
    """chi10 fails to decompose with nonnegative integer multiplicities."""


class HSViolation(DomainError, ValueError):
    """A symbolic Hodge type violates Hodge symmetry."""


class RoundingFailure(DomainError, ValueError):
    """Numeric data too far from an exact cyclotomic integer."""


class IntegralRepresentation:
    """An exact integer representation of a finite group of rank 2n."""

    def __init__(self, group: FiniteGroup, matrices):
        self.group = group
        self.matrices = tuple(
            tuple(tuple(int(x) for x in row) for row in m) for m in matrices)
        self.rank = len(self.matrices[0])

    @staticmethod
    def from_generators(group: FiniteGroup, generator_indices,
                        generator_matrices) -> "IntegralRepresentation":
        """Expand matrices given on generators by multiplicative closure.

        Every edge x -> xs of the Cayley graph on the given generators s is
        one product rho(x) M_s: the |G| - 1 edges of the closure's spanning
        tree define rho, and each other edge is checked against it as the
        closure meets it.  With
        rho(e) = I, rho(x) rho(s) = rho(xs) on every edge gives
        rho(a) rho(b) = rho(ab) for all b, by induction on a word for b.

        Each generator is checked to be n x n, n the size of the first,
        and read once (`_RightFactor`), as Python integers, so the products
        are the representation's matrices as they are stored."""
        n = len(generator_matrices[0]) if generator_matrices else 0
        for i, g_mat in enumerate(generator_matrices):
            if len(g_mat) != n or any(len(row) != n for row in g_mat):
                raise InvalidRepresentation(
                    f"generator matrix {i} is not {n} x {n}: its rows have "
                    f"lengths {[len(row) for row in g_mat]}")
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        mats = {0: ident}
        frontier = [0]
        gen = [(g_idx, _RightFactor(g_mat))
               for g_idx, g_mat in zip(generator_indices, generator_matrices)]
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
        return IntegralRepresentation._of_int_tuples(
            group, tuple(mats[g] for g in range(group.order)))

    @classmethod
    def _of_int_tuples(cls, group: FiniteGroup, matrices):
        """The representation on `matrices`, taken as they are: a tuple of
        matrices, each a tuple of row tuples of Python integers."""
        rep = cls.__new__(cls)
        rep.group, rep.matrices, rep.rank = group, matrices, len(matrices[0])
        return rep

    @staticmethod
    def from_elements(group: FiniteGroup,
                      matrices) -> "IntegralRepresentation":
        """One square matrix per element, required to equal the expansion
        of the generators' matrices (`from_generators`), which checks the
        homomorphism; the trivial group's generator is its identity."""
        if len(matrices) != group.order:
            raise InvalidRepresentation("need one matrix per group element")
        n = len(matrices[0])
        if any(len(m) != n or any(len(row) != n for row in m)
               for m in matrices):
            raise InvalidRepresentation("ragged matrix")
        gens = group.generators
        rep = IntegralRepresentation.from_generators(
            group, gens, [matrices[g] for g in gens])
        if rep.matrices != tuple(tuple(map(tuple, m)) for m in matrices):
            raise InvalidRepresentation(
                "the element matrices are not the expansion of the "
                "generators' matrices")
        return rep

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

    @cached_property
    def square_sum(self):
        """K[k, i, l, j] = sum_g rho(g)_ki rho(g)_lj, an n x n x n x n integer
        array: the one G-sum that every G-average of a bilinear form reads
        (the Reynolds operator of V (x) V).  It is the single product F^T F
        of the |G| x n^2 stack F of the matrices.  Where
        |G| max|rho|^2 < 2^53, every product and partial sum is an integer
        below 2^53, exact in float64 under any summation order or fused
        multiply-add: the product is BLAS's, cast to int64.  Beyond, it is
        int64 where 2 |G| max|rho|^2 < 2^62 (every entry, partial sum and
        difference of two entries is then below 2^62; numpy's integer
        products wrap silently, so the bound is proven before the product),
        else Python integers (object dtype)."""
        import numpy as np
        n, order = self.rank, self.group.order
        peak = max(max(map(abs, row)) for m in self.matrices for row in m)
        bound = order * peak * peak
        dtype = float if bound < 2**53 else _exact_dtype(2 * bound)
        f = np.array(self.matrices, dtype=dtype).reshape(order, n * n)
        k = f.T @ f
        return (k.astype(np.int64) if dtype is float else k).reshape(
            n, n, n, n)

    def congruence_sum(self, x):
        """sum_g rho(g)^T x rho(g) for an integer matrix x, as integer rows:
        |G| times the G-average of x, a G-invariant form.  One contraction
        sum_kl x_kl K[k, :, l, :] of K = `square_sum`.  x is split into
        base-2^b limbs, x = sum_t x_t 2^(bt) with 0 <= x_t < 2^b but for the
        top limb, which carries the sign and has |x_t| <= 2^b, for the
        largest b with n^2 max|K| 2^b < 2^62: the contraction of every limb
        is then exact in int64, all limbs in one product, and the limbs'
        results are recombined in Python integers.  One limb holds the
        whole of a small x.  A K too large for one bit per limb is
        contracted in Python integers."""
        import numpy as np
        n = self.rank
        k = self.square_sum.transpose(0, 2, 1, 3).reshape(n * n, n * n)
        flat = [v for row in x for v in row]
        bits = 62 - (n * n * int(abs(k).max())).bit_length()
        if bits < 1:
            return (np.array(flat, dtype=object) @ k.astype(object)
                    ).reshape(n, n).tolist()
        mask = (1 << bits) - 1
        *low, top = range(0, max(1, max(map(abs, flat)).bit_length()), bits)
        limbs = np.array([[v >> shift & mask for v in flat] for shift in low]
                         + [[v >> top for v in flat]], dtype=np.int64) @ k
        out = limbs[-1].tolist()
        for limb in limbs[-2::-1].tolist():
            out = [(v << bits) + w for v, w in zip(out, limb)]
        return [out[i:i + n] for i in range(0, n * n, n)]

    def generator_indices(self):
        """The group's generating set (`FiniteGroup.generators`), as a
        list."""
        return list(self.group.generators)

    def __repr__(self):
        return (f"IntegralRepresentation({self.group.name}, "
                f"rank={self.rank})")


def _exact_dtype(bound):
    """numpy's int64 for integer arithmetic whose every value is proven
    below `bound` < 2^62 in absolute value, else object (Python integers):
    int64 arithmetic wraps silently past 2^63."""
    import numpy as np
    return np.int64 if bound < 2**62 else object


class _RightFactor:
    """A matrix b read once for the products a b of `from_generators`: its
    rows of Python integers, its peak |entry| and its rows packed per width."""

    __slots__ = ("rows", "cols", "peak", "packed")

    def __init__(self, b):
        self.rows = tuple(tuple(map(int, row)) for row in b)
        self.cols = len(self.rows[0]) if self.rows else 0
        self.peak = max((abs(x) for row in self.rows for x in row), default=0)
        self.packed = {}   # slot width -> the packed rows


def _int_mat_mul(a, b):
    """a b for integer matrices, a as rows and b as its `_RightFactor`, as
    row tuples of Python integers: row i is the one integer sum_t a_it row_t
    of b's packed rows, read at the bound (rows of b) max|a| max|b|."""
    peak = max((max(map(abs, row), default=0) for row in a), default=0)
    width, read = _reader(len(b.rows) * peak * b.peak, b.cols)
    rows = b.packed.get(width) or b.packed.setdefault(
        width, [_pack(row, width) for row in b.rows])
    return tuple([read(sum(map(mul, row, rows))) for row in a])


# -- Hodge characters -------------------------------------------------------


class HodgeCharacter:
    """The trace function of the group action on V^{1,0}, one exact
    cyclotomic value per conjugacy class (canonical class order)."""

    def __init__(self, table: CharacterTable, values: tuple):
        self.table = table
        self.values = values  # CyclotomicNumber per class

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


def _check_commutes(J, rho, elements) -> None:
    """Raise RoundingFailure unless the float matrix J commutes with each
    matrix rho[k] of a float stack, the image of elements[k], to within
    _COMMUTE_TOL relative to max(1, |rho[k]|) (Frobenius norms).  Products
    near the float range overflow to inf and nan here and pass vacuously."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.linalg.norm(J @ rho - rho @ J, axis=(1, 2))
        bound = _COMMUTE_TOL * np.maximum(1.0,
                                          np.linalg.norm(rho, axis=(1, 2)))
    failing = np.flatnonzero(defect > bound)
    if failing.size:
        raise RoundingFailure(
            f"J does not commute with rho({elements[failing[0]]})")


def _float_stack(rep: IntegralRepresentation, elements):
    """The (len(elements), 2n, 2n) float stack of rho on `elements`; a rho
    beyond the float range raises RoundingFailure."""
    import numpy as np
    try:
        return np.array([rep.matrices[g] for g in elements], dtype=float)
    except OverflowError:
        raise RoundingFailure("rho has entries beyond the float range") \
            from None


def hodge_character_from_numeric(rep: IntegralRepresentation,
                                 j_matrix) -> HodgeCharacter:
    """Round the numeric trace data of (rho, J) to an exact HodgeCharacter.

    For g of order e, the multiplicity of the eigenvalue exp(2 pi i k/e) of
    rho(g) on V^{1,0} is the discrete Fourier transform of
    chi10(g^j) = (tr rho(g^j) - i tr(rho(g^j) J)) / 2 over j; each
    multiplicity must sit within _MULTIPLICITY_TOL of a nonnegative integer,
    and J must square to -I and commute with rho to within _COMMUTE_TOL
    relative to its norm.

    rho is read only where it is needed, as float stacks: commutation with
    J on the generators (a matrix commuting with the generators commutes
    with every word in them), one batched norm; the traces on the powers of
    the class representatives, one einsum; and the multiplicities of all
    classes of one element order, one FFT.  A rho beyond the float range
    raises RoundingFailure.
    """
    import numpy as np
    J = np.asarray(j_matrix, dtype=float)
    n2 = rep.rank
    if J.shape != (n2, n2):
        raise InvalidRepresentation("J matrix has wrong shape")
    gens = rep.generator_indices()
    rho = _float_stack(rep, gens)
    # entries near the float range overflow to inf and nan here, silently:
    # the checks then pass vacuously, but the multiplicities come out
    # non-finite, a RoundingFailure below
    with np.errstate(over="ignore", invalid="ignore"):
        if np.linalg.norm(J @ J + np.eye(n2)) > _COMMUTE_TOL * max(
                1.0, np.linalg.norm(J) ** 2):
            raise RoundingFailure("J^2 + I exceeds tolerance")
    _check_commutes(J, rho, gens)

    table = table_for(rep.group)
    powers = []  # g^0, ..., g^(e-1) for each class representative g
    for g in table.classes.representatives:
        row = [0]
        for _ in range(rep.group.element_order[g] - 1):
            row.append(rep.group.table[row[-1]][g])
        powers.append(row)
    elements = sorted(set().union(*powers))
    rho = _float_stack(rep, elements)
    with np.errstate(over="ignore", invalid="ignore"):
        chi_num = (np.trace(rho, axis1=1, axis2=2)
                   - 1j * np.einsum("gij,ji->g", rho, J)) / 2.0
    position = {h: i for i, h in enumerate(elements)}
    by_order = {}
    for k, row in enumerate(powers):
        by_order.setdefault(len(row), []).append(k)
    transforms = [None] * len(powers)
    for e, classes in by_order.items():
        rows = [[position[h] for h in powers[k]] for k in classes]
        for k, mults in zip(classes, np.fft.fft(chi_num[rows]) / e):
            transforms[k] = mults
    field = table.field
    m = field.m
    values = []
    for k, mults in enumerate(transforms):
        e = len(mults)
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


class SummandType:
    """Hodge data on one centre field F_j: multiplicity and tau values."""

    __slots__ = ("orbit_index", "multiplicity", "tau")

    def __init__(self, orbit_index: int, multiplicity: int, tau: tuple):
        self.orbit_index = orbit_index
        self.multiplicity = multiplicity
        self.tau = tau  # sorted pairs (coset representative, tau value)

    def tau_dict(self):
        return dict(self.tau)


class SymbolicHodgeSpec:
    """Hodge type of an action through the centre decomposition, valid by
    construction: building one checks Hodge symmetry."""

    __slots__ = ("decomposition", "summands")

    def __init__(self, decomposition: GaloisOrbitDecomposition,
                 summands: tuple):
        self.decomposition = decomposition
        self.summands = summands  # SummandType, one per orbit
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


class RigidityReport:
    __slots__ = ("hom_dimension", "is_rigid", "tau_rows")

    def __init__(self, hom_dimension: int | None, is_rigid: bool,
                 tau_rows: tuple | None):
        self.hom_dimension = hom_dimension  # None from the centre pathway
        self.is_rigid = is_rigid
        # (orbit, coset, tau, tau_conj, product); None from the character
        # pathway
        self.tau_rows = tau_rows


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
    containing Q(zeta_exponent), with X, the top half of the basis inverse
    (module docstring), as n rows over K.  The authoritative object for the
    brute-force pathway; conj(U) is computed coefficientwise.

    `frame` is (summands, W^-1): per active summand of the realized spec,
    (orbit index, pivot classes k, copies), a copy (d, [S_k w]) per F-module
    generator v, w = d v, and the inverse of the rational basis W of all
    the S_k v in that order.  Empty for a structure not built by
    `exact_structure_from_spec`."""

    def __init__(self, rep: IntegralRepresentation, field, u_columns,
                 top_inverse, frame=()):
        self.rep = rep
        self.field = field
        self.u_columns = [list(col) for col in u_columns]
        self.top_inverse = [list(row) for row in top_inverse]
        self.frame = frame
        n, n2 = len(self.u_columns), rep.rank
        if n * 2 != n2 or len(self.top_inverse) != n:
            raise InvalidRepresentation(
                "U needs rank/2 columns and X rank/2 rows")
        self._basis = _numerators([list(row) + [c.conjugate() for c in row]
                                   for row in zip(*self.u_columns)])
        self._top_inverse = _numerators(self.top_inverse)
        # X P = [I | 0], one packed product; see the module docstring
        (x, x_den), (p, p_den) = self._top_inverse, self._basis
        bits, read = _reducer(field, n2 * field.degree * _peak(x) * _peak(p))
        zero = [0] * field.degree
        unit = [x_den * p_den] + zero[1:]
        cols = list(zip(*_packed(p, bits)))
        if any(read(sum(map(mul, row, col))) != (unit if i == j else zero)
               for i, row in enumerate(_packed(x, bits))
               for j, col in enumerate(cols)):
            raise InvalidRepresentation(
                "U + conj(U) does not span: X P is not [I | 0]")
        self._generator_actions = None   # see generator_actions

    @property
    def n(self) -> int:
        return len(self.u_columns)

    def restricted_action(self, g: int):
        """(A_g, B_g): matrices of rho(g) on U and on conj(U); errors if the
        subspaces are not invariant.  X rho(g) P, one packed product, is
        [A_g | X rho(g) conj(U)]: U is stable iff its right half is zero,
        and then conj(U) is too, with B_g = conj(A_g)."""
        n, field = self.n, self.field
        rho = self.rep.matrices[g]
        (x, x_den), (p, p_den) = self._top_inverse, self._basis
        bits, read = _reducer(field, len(rho) ** 2 * field.degree * _peak(x)
                              * max(map(abs, itertools.chain(*rho)))
                              * _peak(p))
        a = []
        x_rho = linalg.mat_mul(_packed(x, bits), rho)
        for row in linalg.mat_mul(x_rho, _packed(p, bits)):
            if any(any(read(v)) for v in row[n:]):
                raise InvalidRepresentation("rho(g) mixes U and conj(U)")
            a.append([CyclotomicNumber(field, read(v), x_den * p_den)
                      for v in row[:n]])
        return a, [[v.conjugate() for v in row] for row in a]

    def generator_actions(self):
        """restricted_action(g) for the generators g of the representation,
        computed once per structure.  Computing them certifies that U and
        conj(U) are G-stable."""
        if self._generator_actions is None:
            self._generator_actions = [self.restricted_action(g)
                                       for g in self.rep.generator_indices()]
        return self._generator_actions

    def hodge_character(self) -> HodgeCharacter:
        """chi10(g) = tr(rho(g) Pi), Pi = U X the projector onto U along
        conj(U), after certifying on the generators that U and conj(U) are
        stable.  Pi is one packed product; each trace is an integer
        combination of its packed entries."""
        self.generator_actions()
        table = table_for(self.rep.group)
        n, field = self.n, self.field
        (x, x_den), (p, p_den) = self._top_inverse, self._basis
        u = [row[:n] for row in p]
        bits, read = _reducer(field, n * field.degree * _peak(u) * _peak(x))
        proj = [[read(v) for v in row]
                for row in linalg.mat_mul(_packed(u, bits), _packed(x, bits))]
        mats = [self.rep.matrices[g] for g in table.classes.representatives]
        bits, read = _reducer(field, len(proj) ** 2 * _peak(proj) * max(
            abs(v) for m in mats for row in m for v in row))
        proj_cols = _packed(list(zip(*proj)), bits)   # column i: Pi_ji over j
        values = []
        for rho in mats:
            packed = sum(sum(map(mul, row, col))
                         for row, col in zip(rho, proj_cols))
            tr = CyclotomicNumber(field, read(packed), x_den * p_den)
            values.append(_coerce_to_subcyclotomic(tr, table.field))
        return HodgeCharacter(table=table, values=tuple(values))

    def pairing(self, form):
        """U^T F P for a rational 2n x 2n matrix F, as the n x 2n matrix
        over K of the values F(u_a, p_b) of F on the columns u_a of U
        against the columns p_b of P = [U | conj(U)]: one packed product,
        F cleared to integers over its one denominator."""
        n, field = self.n, self.field
        p, p_den = self._basis
        den = lcm(*(x.denominator for row in form for x in row))
        f = [[x.numerator * (den // x.denominator) for x in row]
             for row in form]
        bits, read = _reducer(field, len(p) ** 2 * field.degree * _peak(p) ** 2
                              * max(map(abs, itertools.chain(*f))))
        packed = _packed(p, bits)
        u_t = list(zip(*packed))[:n]
        return [[CyclotomicNumber(field, read(v), den * p_den * p_den)
                 for v in row]
                for row in linalg.mat_mul(linalg.mat_mul(u_t, f), packed)]

    def j_matrix_float(self):
        """Float image P D P^-1 of the exact multiplication-by-i operator,
        P the basis matrix in floats.  A P beyond the float range, singular
        in floats, or too ill-conditioned for J to come out real raises
        RoundingFailure."""
        import numpy as np
        (p, den), m = self._basis, self.field.m
        # entries near the float range overflow to inf and nan here,
        # silently: a non-finite J is a RoundingFailure below
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                P = np.array([[sum(c / den * np.exp(2j * np.pi * t / m)
                                   for t, c in enumerate(x) if c)
                               for x in col] for col in zip(*p)],
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


def _numerators(matrix):
    """(rows of numerator tuples, D) for a matrix over a cyclotomic field:
    the power-basis numerators of its entries over their one common
    denominator D."""
    den = lcm(*(x.den for row in matrix for x in row))
    return [[tuple(c * (den // x.den) for c in x.num) for x in row]
            for row in matrix], den


def _peak(rows) -> int:
    """The largest |c| over the numerator tuples of a matrix."""
    return max((abs(c) for row in rows for x in row for c in x), default=0)


def _packed(rows, width):
    """A matrix of numerator tuples with each tuple packed (`_pack`)."""
    return [[_pack(x, width) for x in row] for row in rows]


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
    """The image of each orbit's projector P_j through rho, in orbit order,
    as the RREF basis of the columns of D P_j: an idempotent is a class
    function, so P_j = sum_k c_k S_k over the integer class sums S_k, and
    D P_j, for the common denominator D of the c_k, is an integer sum."""
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
        out.append(linalg.row_space_basis(list(zip(*acc))))
    return out


def f_module_basis(summand_image, centre_matrices):
    """Vectors v_1..v_n whose F-orbits (under the centre action restricted
    to the summand, given by integer matrices such as `class_sums`) form a
    Q-basis of the summand; greedy construction.

    Returns (images, orbits): the images of each v_i over one denominator,
    (d, [S w for S in centre_matrices]) with w = d v_i for the lcm d of
    v_i's denominators, in integers; and a basis of each orbit's span.
    With `class_sums`, whose first class is the identity's, images[i][1][0]
    is w."""
    if not summand_image:
        return [], []
    spanned = []
    images = []
    orbits = []
    for cand in summand_image:
        if linalg.in_span(spanned, cand):
            continue
        den = lcm(*(x.denominator for x in cand))
        w = [x.numerator * (den // x.denominator) for x in cand]
        orbit_vectors = [linalg.mat_vec(mat, w) for mat in centre_matrices]
        orbit = linalg.row_space_basis(orbit_vectors)
        images.append((den, orbit_vectors))
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
    `_character_component`).  For real character fields with even
    multiplicity the duplicated copies are paired by the graph construction
    u = w1 + mu w2 with mu a fixed non-real cyclotomic.  The frame's columns
    are the S_k v at the first classes k independent on the summand's first
    generator, and X is read off them (`_top_half`).
    """
    table = spec.decomposition.table
    m = table.field.m
    K = CyclotomicField(m if m > 2 else 4)
    mu = K.zeta()  # non-real: K = Q(zeta_m) with m > 2
    pieces = isotypic_split(rep, spec.decomposition)
    u_cols, coefficients, frame = [], [], []
    offset = 0     # the summand's first column of W
    for s, image in zip(spec.summands, pieces):
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
        copies, _ = f_module_basis(image, rep.class_sums)
        _, pivots = linalg.rref(list(zip(*copies[0][1])))
        if orbit.tag == "CM":
            sides = [a for a in fs.coset_reps() if tau[a] == s.multiplicity]
            if sorted(tau.values()) != sorted(
                    [s.multiplicity] * len(sides) + [0] * len(sides)):
                raise HSViolation("CM tau values must be one-sided")
            rows = list(map(dict(orbit.coset_to_row).get, sides))
            omegas = [_central_characters(table, r, pivots) for r in rows]
            for c, images in enumerate(copies):
                for r, omega in zip(rows, omegas):
                    u_cols.append(_character_component(table, r, images))
                    coefficients.append((offset + c * len(pivots), omega))
        else:
            # totally real field: tau = n/2 on each embedding; pair copies.
            # Only rational scalar pieces are realizable here: for a real
            # character of degree > 1 the graph pairing of module copies is
            # centre-invariant but not G-invariant.
            if fs.degree != 1 or table.degrees[orbit.representative] != 1:
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
            inv = (mu.conjugate() - mu).inverse()
            for i in range(0, n_j, 2):
                (d1, (w1, *_)), (d2, (w2, *_)) = copies[i:i + 2]
                u_cols.append([K.from_rational(Fraction(x, d1))
                               + mu * Fraction(y, d2)
                               for x, y in zip(w1, w2)])
                coefficients.append((offset + i, [mu.conjugate() * inv, -inv]))
        frame.append((s.orbit_index, tuple(pivots),
                      tuple((den, [images[k] for k in pivots])
                            for den, images in copies)))
        offset += len(image)
    w_inverse = linalg.inverse(list(zip(*(
        [Fraction(x, den) for x in column] for _, _, copies in frame
        for den, columns in copies for column in columns))))
    return ExactHodgeStructure(rep, K, u_cols,
                               _top_half(K, coefficients, w_inverse),
                               (tuple(frame), w_inverse))


def _central_characters(table: CharacterTable, row: int, classes):
    """omega_k = |C_k| chi(g_k) / chi(1) of the character in `row` at the
    given classes k: the scalar by which the class sum S_k acts on its
    isotypic component."""
    sizes, degree = table.classes.sizes, table.degrees[row]
    chi = table.rows[row]
    return [CyclotomicNumber(table.field, [v * sizes[k] for v in chi[k].num],
                             chi[k].den * degree) for k in classes]


def _top_half(field, coefficients, w_inverse):
    """X = C W^-1 for the frame's rational basis W, where the row of C for
    a column of U is `values` from W's column `start` on, for its
    `coefficients` (start, values).  On a copy F v, P = W Omega^-1
    for Omega[b, j] = omega_{k_j}(sigma_b chi), as S_k acts on the
    component of sigma_b(chi) as omega_k(sigma_b chi): the row of e_chi v
    is Omega's row for chi.  A pair w1 + mu w2 takes (conj(mu), -1) /
    (conj(mu) - mu) at w1, w2.  One packed product, W^-1 = M / D."""
    den = lcm(*(x.denominator for row in w_inverse for x in row))
    m = [[x.numerator * (den // x.denominator) for x in row]
         for row in w_inverse]
    rows = [[field.zero()] * len(m) for _ in coefficients]
    for row, (start, values) in zip(rows, coefficients):
        row[start:start + len(values)] = values
    c, c_den = _numerators(rows)
    width, read = _reader(len(m) * _peak(c) * max(map(abs, itertools.chain(
        *m))), field.degree)
    cols = list(zip(*m))
    return [[CyclotomicNumber(field, read(sum(map(mul, row, col))),
                              c_den * den) for col in cols]
            for row in _packed(c, width)]


def _character_component(table: CharacterTable, row: int, images):
    """e_chi v for the character chi in `row`, from the images (d, S_k w)
    of w = d v under the class sums: e_chi = (chi(1)/|G|) sum_k
    conj(chi(g_k)) S_k, the class-sum form of
    CharacterTable.central_idempotent, summed in integer numerators over
    one denominator per column.  A CM character field needs m > 2, so the
    column lies in Q(zeta_m), the structure's K."""
    field = table.field
    den, vectors = images
    coeffs = [x.conjugate() for x in table.rows[row]]
    common = lcm(*(c.den for c in coeffs))
    nums = [[v * (common // c.den) for v in c.num] for c in coeffs]
    scale = table.degrees[row]
    den *= common * table.group.order
    column = []
    for entries in zip(*vectors):
        acc = [0] * field.degree
        for c, x in zip(nums, entries):
            if x:
                for s, v in enumerate(c):
                    acc[s] += x * v
        column.append(CyclotomicNumber(field, [scale * v for v in acc], den))
    return column
