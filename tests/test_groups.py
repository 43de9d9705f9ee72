import itertools
import json
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from class_algebra import brute_force_structure_constants, verify_central
from rigidtori.cli import main
from rigidtori.fixtures import (abelian, cyclic, dicyclic, dihedral,
                                quaternion_8, small_groups, symmetric_3,
                                symmetric_4)
from rigidtori.groups import CLOSURE_CAP, FiniteGroup, InvalidGroup
from rigidtori.hodge import IntegralRepresentation


def quadratic_generators(g):
    """The greedy generating set by the all-pairs closure: each chosen
    element's subgroup is closed under every product of two of its
    elements, in both orders."""
    gens = []
    closed = {0}
    for x in range(1, g.order):
        if x in closed:
            continue
        gens.append(x)
        frontier = list(closed | {x})
        new = set(frontier)
        while frontier:
            a = frontier.pop()
            for b in list(new):
                for c in (g.table[a][b], g.table[b][a]):
                    if c not in new:
                        new.add(c)
                        frontier.append(c)
        closed = new
        if len(closed) == g.order:
            break
    return gens or [0]


def wreath(k, n):
    """Z_k wr S_n on k n points (coordinate c, residue r at c k + r):
    zeta_k on the first coordinate, the transposition of the first two
    coordinates and the n-cycle of coordinates."""
    def perm(f):
        return [f(c, r)[0] * k + f(c, r)[1] for c in range(n) for r in range(k)]
    gens = [perm(lambda c, r: (c, (r + (c == 0)) % k)),
            perm(lambda c, r: ({0: 1, 1: 0}.get(c, c), r)),
            perm(lambda c, r: ((c + 1) % n, r))]
    return FiniteGroup.from_permutations(gens, name=f"Z{k}wrS{n}")


def test_small_groups_census():
    groups = small_groups()
    assert len(groups) == 28
    by_order = {}
    for g in groups:
        by_order.setdefault(g.order, []).append(g.name)
    counts = {n: len(v) for n, v in by_order.items()}
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
                      9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1}
    names = [g.name for g in groups]
    assert len(set(names)) == 28


def test_s3_classes():
    cd = symmetric_3().conjugacy_classes()
    assert cd.count == 3
    assert sorted(cd.sizes) == [1, 2, 3]
    assert cd.sizes[0] == 1 and cd.representatives[0] == 0


def test_q8_classes():
    cd = quaternion_8().conjugacy_classes()
    assert cd.count == 5
    assert sorted(cd.sizes) == [1, 1, 2, 2, 2]


def test_abelian_groups_have_singleton_classes():
    for g in (cyclic(6), abelian([2, 4]), abelian([3, 3])):
        cd = g.conjugacy_classes()
        assert cd.count == g.order
        assert set(cd.sizes) == {1}


def test_class_sizes_divide_group_order():
    for g in small_groups():
        cd = g.conjugacy_classes()
        assert sum(cd.sizes) == g.order
        assert all(g.order % s == 0 for s in cd.sizes)


def test_class_algebra_is_commutative():
    for g in (symmetric_3(), quaternion_8(), dihedral(5), symmetric_4()):
        assert verify_central(g.conjugacy_classes())


BUNDLED = small_groups() + [symmetric_4()]


@given(data=st.data())
def test_sparse_structure_constants_match_the_pair_count(data):
    # the constants counted at class representatives, |G| d steps, against
    # all |G|^2 pairs, on a randomly relabelled Cayley table
    g = data.draw(st.sampled_from(BUNDLED))
    perm = [0] + data.draw(st.permutations(range(1, g.order)))
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    classes = FiniteGroup(table, name="relabelled").conjugacy_classes()
    d = classes.count
    want = brute_force_structure_constants(classes)
    assert [[{k: a for k, a in enumerate(row) if a} for row in m]
            for m in want] == [list(m) for m in classes.coefficients]
    # the rows hold nonzero constants only, each row's classes ascending
    for m in classes.coefficients:
        assert len(m) == d
        for row in m:
            assert all(row.values()) and list(row) == sorted(row)


def test_power_classes_follow_the_powers_of_each_representative():
    for g in (symmetric_4(), dicyclic(3), abelian([2, 4])):
        classes = g.conjugacy_classes()
        for rep, powers in zip(classes.representatives,
                               classes.power_classes):
            assert len(powers) == g.element_order[rep]
            assert list(powers) == [classes.membership[g.power(rep, t)]
                                    for t in range(len(powers))]


def test_exponent_divides_order():
    for g in small_groups() + [symmetric_4()]:
        assert g.order % g.exponent == 0


def test_invalid_tables_rejected():
    with pytest.raises(InvalidGroup):
        FiniteGroup([[0, 1], [1, 1]])  # row not a permutation
    with pytest.raises(InvalidGroup):
        FiniteGroup([[1, 0], [0, 1]])  # 0 is not the identity
    # a latin square with identity that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidGroup):
        FiniteGroup(table)


def test_permutation_and_cayley_agree():
    s3 = symmetric_3()
    rebuilt = FiniteGroup(s3.table, name="S3_table")
    assert rebuilt.table == s3.table
    assert rebuilt.element_order == s3.element_order


def test_permutation_closure_cap():
    big = list(range(1, CLOSURE_CAP + 2)) + [0]
    with pytest.raises(InvalidGroup):
        FiniteGroup.from_permutations([tuple(big)])


def test_long_permutations_refuse_within_the_work_cap():
    # a 5000-cycle and a transposition generate S_5000; every generator's
    # order is below the element cap, so the closure itself must stop early
    npts = 5000
    cycle = tuple(range(1, npts)) + (0,)
    swap = (1, 0) + tuple(range(2, npts))
    start = time.perf_counter()
    with pytest.raises(InvalidGroup, match="work cap"):
        FiniteGroup.from_permutations([cycle, swap])
    assert time.perf_counter() - start < 0.5


def test_dicyclic_structure():
    q8 = dicyclic(2)
    assert q8.order == 8
    assert sorted(q8.element_order) == [1, 2, 4, 4, 4, 4, 4, 4]
    d12 = dicyclic(3)
    assert d12.order == 12
    assert d12.exponent == 12


def test_power_and_inverse():
    g = dihedral(7)
    for x in range(g.order):
        assert g.mul(x, g.inverse[x]) == 0
        assert g.power(x, g.element_order[x]) == 0


def test_from_permutations_does_not_revalidate(monkeypatch):
    def refuse(self):
        raise AssertionError("a closure of permutations was revalidated")

    monkeypatch.setattr(FiniteGroup, "_validate", refuse)
    s4 = FiniteGroup.from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)])
    assert s4.order == 24
    assert s4.table == symmetric_4().table
    with pytest.raises(AssertionError):
        FiniteGroup(s4.table)


@pytest.mark.parametrize("npts", [4, 5, 6])
def test_permutation_tables_equal_tuple_composition(npts):
    cycle = tuple(range(1, npts)) + (0,)
    swap = (1, 0) + tuple(range(2, npts))
    g = FiniteGroup.from_permutations([cycle, swap], name=f"S{npts}")
    perms = g.permutations
    assert len(perms) == math.factorial(npts)
    index = {p: i for i, p in enumerate(perms)}
    want = tuple(tuple(index[tuple(p[q[k]] for k in range(npts))]
                       for q in perms) for p in perms)
    assert g.table == want


def test_generator_order_above_cap_refuses_before_closure():
    # cycles of 101 and 103 points each stay below the cap, but the
    # generator's order lcm(101, 103) = 10403 exceeds it
    perm = [(i + 1) % 101 for i in range(101)]
    perm += [101 + (i + 1) % 103 for i in range(103)]
    with pytest.raises(InvalidGroup, match="order 10403"):
        FiniteGroup.from_permutations([perm])


@pytest.mark.parametrize(
    "group", small_groups() + [symmetric_4(), wreath(4, 3), wreath(6, 3)],
    ids=lambda g: g.name)
def test_generating_set_matches_the_quadratic_closure(group):
    rep = IntegralRepresentation(group, [[[1, 0], [0, 1]]] * group.order)
    assert rep.generator_indices() == quadratic_generators(group)


def test_group_facts_are_computed_once_per_group():
    g = wreath(4, 2)
    assert g.conjugacy_classes() is g.conjugacy_classes()
    assert g.generators is g.generators
    assert g.order == 32 and len(g.generators) == 2


def exhaustively_associative(table):
    """The n^3 oracle: every triple associates."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def accepted(table):
    try:
        FiniteGroup(table)
    except InvalidGroup:
        return False
    return True


def intercalates(table):
    """The 2 x 2 Latin subsquares (rows, columns) away from the identity's
    row and column."""
    pairs = list(itertools.combinations(range(1, len(table)), 2))
    return [((r1, r2), (c1, c2)) for r1, r2 in pairs for c1, c2 in pairs
            if table[r1][c1] == table[r2][c2]
            and table[r1][c2] == table[r2][c1]]


def swap_intercalate(table, rows, cols):
    """The Latin square with the intercalate at rows x cols swapped: the
    identity's row and column are untouched, so it still has an
    identity."""
    out = [list(row) for row in table]
    for r in rows:
        out[r][cols[0]], out[r][cols[1]] = out[r][cols[1]], out[r][cols[0]]
    return out


def twisted_z500():
    """The Z500 table with the intercalate at rows 1, 251 and columns 2,
    252 swapped: a loop with identity that is not associative, but whose
    failing triples are too rare for sampling to find."""
    table = [[(i + j) % 500 for j in range(500)] for i in range(500)]
    return swap_intercalate(table, (1, 251), (2, 252))


def test_twisted_z500_is_refused(tmp_path):
    table = twisted_z500()
    with pytest.raises(InvalidGroup):
        FiniteGroup(table)
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps({"name": "twisted Z500",
                                "cayley_table": table}))
    assert main(["analyze", "--input", str(path)]) == 2


@pytest.mark.parametrize("group", small_groups() + [symmetric_4()],
                         ids=lambda g: g.name)
def test_light_agrees_with_the_exhaustive_check_on_groups(group):
    assert accepted(group.table) == exhaustively_associative(group.table)
    assert accepted(group.table)


@given(st.data())
def test_light_agrees_with_the_exhaustive_check_on_latin_squares(data):
    base = data.draw(st.sampled_from(
        [g for g in small_groups() if g.order <= 8]), label="group")
    table = base.table
    for _ in range(data.draw(st.integers(1, 3), label="swaps")):
        candidates = intercalates(table)
        if not candidates:
            break
        table = swap_intercalate(table, *data.draw(
            st.sampled_from(candidates), label="intercalate"))
    assert accepted(table) == exhaustively_associative(table)
