"""Bundled groups and integral actions used by tests, demos, and the CLI.

Covers every isomorphism type of order < 16 (28 groups), plus S4 and the
quaternion group, the Gaussian and Eisenstein elliptic-curve actions, the
non-CM quartic x^4 + x + 1, and a seeded generator of random integral
actions carrying exact complex structures (for the oracle cross-checks).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .groups import FiniteGroup

__all__ = [
    "cyclic",
    "abelian",
    "dihedral",
    "dicyclic",
    "symmetric_3",
    "alternating_4",
    "symmetric_4",
    "quaternion_8",
    "small_groups",
    "group_by_name",
    "gaussian_action",
    "eisenstein_action",
    "builtin_representation",
    "regular_representation",
    "integral_model",
    "random_hodge_fixture",
    "NON_CM_QUARTIC",
]

NON_CM_QUARTIC = (1, 1, 0, 0, 1)  # x^4 + x + 1, low degree first


def cyclic(n: int) -> FiniteGroup:
    if n == 1:
        return FiniteGroup([[0]], name="Z1")
    gen = tuple(list(range(1, n)) + [0])
    return FiniteGroup.from_permutations([gen], name=f"Z{n}")


def abelian(factors) -> FiniteGroup:
    """Direct product of cyclic groups, e.g. abelian([2, 4])."""
    g = cyclic(factors[0])
    for n in factors[1:]:
        g = direct_product(g, cyclic(n))
    g.name = "x".join(f"Z{n}" for n in factors)
    return g


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    table = [[0] * (na * nb) for _ in range(na * nb)]
    for i1 in range(na):
        for j1 in range(nb):
            for i2 in range(na):
                for j2 in range(nb):
                    x = i1 * nb + j1
                    y = i2 * nb + j2
                    table[x][y] = a.table[i1][i2] * nb + b.table[j1][j2]
    return FiniteGroup(table, name=f"{a.name}x{b.name}")


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n (n >= 3)."""
    rot = tuple(list(range(1, n)) + [0])
    refl = tuple((n - i) % n for i in range(n))
    return FiniteGroup.from_permutations([rot, refl], name=f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dic_n of order 4n: <a, b | a^(2n) = 1, b^2 = a^n, bab^-1 = a^-1>.

    Dic_2 is the quaternion group Q8."""
    order = 4 * n
    two_n = 2 * n

    def idx(i, j):
        return j * two_n + i

    def mul(x, y):
        i1, j1 = x % two_n, x // two_n
        i2, j2 = y % two_n, y // two_n
        if j1 == 0:
            i, j = (i1 + i2) % two_n, j2
        else:
            i, j = (i1 - i2) % two_n, 1 - j2
            if j1 == 1 and j2 == 1:
                i = (i + n) % two_n
        return idx(i, j)

    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    name = "Q8" if n == 2 else f"Dic{n}"
    return FiniteGroup(table, name=name)


def symmetric_3() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 2, 0), (1, 0, 2)], name="S3")


def alternating_4() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")


def symmetric_4() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)], name="S4")


def quaternion_8() -> FiniteGroup:
    return dicyclic(2)


def small_groups():
    """All 28 isomorphism types of order < 16, in (order, name) order."""
    return [
        cyclic(1),
        cyclic(2),
        cyclic(3),
        cyclic(4), abelian([2, 2]),
        cyclic(5),
        cyclic(6), symmetric_3(),
        cyclic(7),
        cyclic(8), abelian([2, 4]), abelian([2, 2, 2]), dihedral(4), quaternion_8(),
        cyclic(9), abelian([3, 3]),
        cyclic(10), dihedral(5),
        cyclic(11),
        cyclic(12), abelian([2, 6]), dihedral(6), alternating_4(), dicyclic(3),
        cyclic(13),
        cyclic(14), dihedral(7),
        cyclic(15),
    ]


_BY_NAME = None


def group_by_name(name: str) -> FiniteGroup:
    global _BY_NAME
    if _BY_NAME is None:
        _BY_NAME = {g.name: g for g in small_groups()}
        _BY_NAME["S4"] = symmetric_4()
    if name not in _BY_NAME:
        raise KeyError(f"no bundled group named {name!r}")
    return _BY_NAME[name]


# -- integral actions --------------------------------------------------------


def gaussian_action() -> IntegralRepresentation:
    """Z4 acting on the Gaussian lattice Z[i] by multiplication by i."""
    from .hodge import IntegralRepresentation
    g = cyclic(4)
    return IntegralRepresentation.from_generators(
        g, [_generator_index(g)], [[[0, -1], [1, 0]]])


def eisenstein_action() -> IntegralRepresentation:
    """Z3 acting on the Eisenstein lattice Z[zeta_3]."""
    from .hodge import IntegralRepresentation
    g = cyclic(3)
    return IntegralRepresentation.from_generators(
        g, [_generator_index(g)], [[[0, -1], [1, -1]]])


def _generator_index(g: FiniteGroup) -> int:
    for x in range(g.order):
        if g.element_order[x] == g.order:
            return x
    raise ValueError("group is not cyclic")


def trivial_action(rank: int) -> IntegralRepresentation:
    from .hodge import IntegralRepresentation
    g = cyclic(1)
    ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    return IntegralRepresentation(g, [ident])


def builtin_representation(name: str) -> IntegralRepresentation:
    reps = {
        "Z4_gaussian": gaussian_action,
        "Z3_eisenstein": eisenstein_action,
        "trivial_rank2": lambda: trivial_action(2),
        "trivial_rank4": lambda: trivial_action(4),
    }
    if name not in reps:
        raise KeyError(f"no bundled representation named {name!r}")
    return reps[name]()


def regular_representation(group: FiniteGroup) -> IntegralRepresentation:
    """Permutation matrices of left multiplication on Z[G]."""
    from .hodge import IntegralRepresentation
    n = group.order
    mats = []
    for g in range(n):
        m = [[0] * n for _ in range(n)]
        for h in range(n):
            m[group.table[g][h]][h] = 1
        mats.append(m)
    return IntegralRepresentation(group, mats)


def integral_model(rep: IntegralRepresentation, subspace_rows):
    """Restrict rep to an invariant rational subspace, in a saturated
    integer lattice basis; returns (model, basis_columns)."""
    from . import linalg
    from .hodge import IntegralRepresentation
    lattice = linalg.saturate_lattice(subspace_rows)
    basis = [[Fraction(lattice[j][i]) for j in range(len(lattice))]
             for i in range(rep.rank)]  # columns
    mats = []
    for g in range(rep.group.order):
        rho = [[Fraction(x) for x in row] for row in rep.matrices[g]]
        image = linalg.mat_mul(rho, basis)
        sol = linalg.solve_many(basis, image)
        if sol is None:
            raise ValueError("subspace is not invariant")
        if any(x.denominator != 1 for row in sol for x in row):
            raise ValueError("lattice is not stable under the action")
        mats.append([[int(x) for x in row] for row in sol])
    model = IntegralRepresentation(rep.group, mats)
    return model, basis


def random_hodge_fixture(rng: random.Random, groups=None, max_rank: int = 8):
    """A random integral action with an exact invariant complex structure.

    Blocks are integral models of Galois-orbit isotypic pieces of the
    regular representation: CM pieces get a random one-sided Hodge type
    (possibly opposite across repeated blocks, producing non-rigid sums),
    and rational scalar pieces are taken in pairs.  The direct sum is
    conjugated by a random unimodular matrix.  Returns (rep, structure).
    """
    from .characters import galois_orbits, table_for
    from .hodge import isotypic_split
    if groups is None:
        groups = small_groups()
    for _attempt in range(50):
        group = rng.choice(groups)
        table = table_for(group)
        decomp = galois_orbits(table)
        reg = regular_representation(group)
        pieces = isotypic_split(reg, decomp)
        options = []
        for j, orbit in enumerate(decomp.orbits):
            block_rank = len(pieces[j])
            deg_chi = table.degrees[orbit.representative]
            if orbit.tag == "CM" and block_rank <= max_rank:
                options.append(("cm", j, block_rank))
            elif (orbit.tag == "TotallyReal" and deg_chi == 1
                  and orbit.field_spec.degree == 1
                  and 2 * block_rank <= max_rank):
                options.append(("real_pair", j, 2 * block_rank))
        if not options:
            continue
        blocks = []
        budget = max_rank
        while budget > 0:
            viable = [o for o in options if o[2] <= budget]
            if not viable or (blocks and rng.random() < 0.35):
                break
            choice = rng.choice(viable)
            blocks.append(choice)
            budget -= choice[2]
        if not blocks:
            continue
        built = [_build_block(reg, decomp, pieces, kind, j, rng)
                 for kind, j, _ in blocks]
        rep, structure = _direct_sum_structures(built)
        return _random_unimodular_conjugate(rep, structure, rng)
    raise RuntimeError("fixture generation failed to find viable blocks")


def _build_block(reg, decomp, pieces, kind, orbit_index, rng):
    from .hodge import (SummandType, SymbolicHodgeSpec,
                        exact_structure_from_spec, isotypic_split)
    model, _ = integral_model(reg, pieces[orbit_index])
    model_pieces = isotypic_split(model, decomp)  # same group, same orbits
    summands = []
    for j, orbit in enumerate(decomp.orbits):
        fs = orbit.field_spec
        mult = len(model_pieces[j]) // fs.degree
        if mult == 0 or j != orbit_index:
            if len(model_pieces[j]):
                raise AssertionError("isotypic model leaked across orbits")
            summands.append(SummandType(j, 0, tuple(
                (a, 0) for a in fs.coset_reps())))
            continue
        if kind == "cm":
            tau = {}
            seen = set()
            for a in fs.coset_reps():
                if a in seen:
                    continue
                abar = fs.conjugate_coset(a)
                seen |= {a, abar}
                if rng.random() < 0.5:
                    tau[a], tau[abar] = mult, 0
                else:
                    tau[a], tau[abar] = 0, mult
            summands.append(SummandType(j, mult, tuple(sorted(tau.items()))))
        else:
            # doubled below: multiplicity 2*mult, tau = mult everywhere
            summands.append(SummandType(j, 2 * mult, tuple(
                (a, mult) for a in fs.coset_reps())))
    if kind == "real_pair":
        model = _double_rep(model)
    spec = SymbolicHodgeSpec(decomposition=decomp,
                             summands=tuple(summands))
    structure = exact_structure_from_spec(model, spec)
    return model, structure


def _double_rep(rep: IntegralRepresentation) -> IntegralRepresentation:
    from .hodge import IntegralRepresentation
    n = rep.rank
    mats = []
    for m in rep.matrices:
        big = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                big[i][j] = m[i][j]
                big[n + i][n + j] = m[i][j]
        mats.append(big)
    return IntegralRepresentation(rep.group, mats)


def _direct_sum_structures(built):
    from .cyclotomic import CyclotomicField
    from .hodge import ExactHodgeStructure, IntegralRepresentation
    group = built[0][0].group
    total = sum(rep.rank for rep, _ in built)
    big_m = 1
    for _, st in built:
        big_m = lcm(big_m, st.field.m)
    field = CyclotomicField(big_m)
    mats = []
    for g in range(group.order):
        big = [[0] * total for _ in range(total)]
        off = 0
        for rep, _ in built:
            m = rep.matrices[g]
            for i in range(rep.rank):
                for j in range(rep.rank):
                    big[off + i][off + j] = m[i][j]
            off += rep.rank
        mats.append(big)
    rep_sum = IntegralRepresentation(group, mats)
    u_cols, x_rows = [], []   # U and X, block-diagonal
    off = 0
    for rep, st in built:
        ratio = big_m // st.field.m
        for vectors, out in ((st.u_columns, u_cols), (st.top_inverse, x_rows)):
            for vec in vectors:
                big = [field.zero()] * total
                for i, x in enumerate(vec):
                    big[off + i] = field.from_exponent_dict(
                        {ratio * t: c for t, c in enumerate(x.coeffs) if c})
                out.append(big)
        off += rep.rank
    return rep_sum, ExactHodgeStructure(rep_sum, field, u_cols, x_rows)


def _random_unimodular_conjugate(rep, structure, rng):
    from . import linalg
    from .hodge import ExactHodgeStructure, IntegralRepresentation
    n = rep.rank
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for k in range(n):
            t[i][k] += c * t[j][k]
    t_inv = linalg.inverse([[Fraction(x) for x in row] for row in t])
    mats = []
    for m in rep.matrices:
        prod = linalg.mat_mul(
            [[Fraction(x) for x in row] for row in t],
            linalg.mat_mul([[Fraction(x) for x in row] for row in m], t_inv))
        assert all(x.denominator == 1 for row in prod for x in row)
        mats.append([[int(x) for x in row] for row in prod])
    new_rep = IntegralRepresentation(rep.group, mats)
    field = structure.field
    t_k = [[field.from_rational(x) for x in row] for row in t]
    new_cols = [linalg.mat_vec(t_k, col) for col in structure.u_columns]
    return new_rep, ExactHodgeStructure(   # P^-1 becomes P^-1 T^-1
        new_rep, field, new_cols, linalg.mat_mul(structure.top_inverse, t_inv))
