from fractions import Fraction

import pytest

from rigidtori.characters import (centre_decomposition, character_table,
                                  galois_orbits, table_for,
                                  _exact_eigenspace_refinement,
                                  _class_eigenvalue_candidates,
                                  _permissible_degrees)
from rigidtori.cyclotomic import CyclotomicField
from rigidtori.fixtures import (cyclic, group_by_name, quaternion_8,
                                small_groups, symmetric_3, symmetric_4)


def test_trivial_group_table():
    table = character_table(cyclic(1))
    assert table.size == 1
    assert table.degrees == (1,)
    assert table.rows[0][0].as_rational() == 1


def test_z4_table_golden():
    table = character_table(cyclic(4))
    F = table.field
    z = F.zeta()
    # canonical class order: e, g^2, g, g^3
    want = {
        (1, 1, 1, 1),
        (1, 1, -1, -1),
        (1, -1, 1j, -1j),
        (1, -1, -1j, 1j),
    }
    got = set()
    for row in table.rows:
        vals = []
        for v in row:
            if v == F.one():
                vals.append(1)
            elif v == -F.one():
                vals.append(-1)
            elif v == z:
                vals.append(1j)
            elif v == -z:
                vals.append(-1j)
            else:
                vals.append(None)
        got.add(tuple(vals))
    assert got == want


def test_s3_table_golden():
    table = character_table(symmetric_3())
    assert table.degrees == (1, 1, 2)
    values = {tuple(v.as_rational() for v in row) for row in table.rows}
    # class order: identity, 3-cycles, transpositions
    assert values == {(1, 1, 1), (1, 1, -1), (2, -1, 0)}


def test_row_orthogonality_exact_everywhere():
    for g in (symmetric_3(), cyclic(8), quaternion_8(), symmetric_4()):
        table = character_table(g)
        table.verify()
        table.verify_columns()


def test_degrees_from_permutation_and_cayley_match():
    from rigidtori.groups import FiniteGroup
    s3 = symmetric_3()
    table_a = character_table(s3)
    table_b = character_table(FiniteGroup(s3.table, name="S3'"))
    assert table_a.degrees == table_b.degrees
    assert [[v.coeffs for v in row] for row in table_a.rows] == \
        [[v.coeffs for v in row] for row in table_b.rows]


def test_exact_refinement_agrees_with_fast_path():
    for g in small_groups() + [symmetric_4()]:
        classes = g.conjugacy_classes()
        field = CyclotomicField(g.exponent)
        degrees = _permissible_degrees(g.order, classes.count)
        cands = []
        for k in range(classes.count):
            size = classes.sizes[k]
            eorder = g.element_order[classes.representatives[k]]
            cands.append(_class_eigenvalue_candidates(field, size, eorder, degrees))
        vectors = _exact_eigenspace_refinement(classes, field, cands)
        fast = character_table(g)
        slow_keys = {tuple(tuple(x.coeffs) for x in w) for w in vectors}
        # the fast path's eigenvectors are the rows scaled back
        fast_keys = set()
        for r in range(fast.size):
            w = [fast.rows[r][k] * Fraction(classes.sizes[k], fast.degrees[r])
                 for k in range(classes.count)]
            fast_keys.add(tuple(tuple(x.coeffs) for x in w))
        assert slow_keys == fast_keys


def test_central_idempotent_trivial_character():
    table = character_table(symmetric_3())
    triv = next(r for r in range(table.size)
                if all(v.as_rational() == 1 for v in table.rows[r]))
    coeffs = table.central_idempotent(triv)
    assert all(c.as_rational() == Fraction(1, 6) for c in coeffs)


def test_central_idempotent_sign_character_s3():
    g = symmetric_3()
    table = character_table(g)
    sign = next(r for r in range(table.size)
                if table.degrees[r] == 1
                and any(v.as_rational() == -1 for v in table.rows[r]))
    coeffs = table.central_idempotent(sign)
    for elem in range(g.order):
        expected = Fraction(1, 6) if g.element_order[elem] in (1, 3) \
            else Fraction(-1, 6)
        assert coeffs[elem].as_rational() == expected


def test_idempotents_idempotent_orthogonal_complete():
    for name in ("Z4", "S3", "Q8"):
        g = group_by_name(name)
        table = character_table(g)
        idems = [table.central_idempotent(r) for r in range(table.size)]
        zero = table.field.zero()
        total = [zero for _ in range(g.order)]
        for r, e in enumerate(idems):
            sq = table.algebra_product(e, e)
            assert sq == e, f"e_chi^2 != e_chi for {name} row {r}"
            for s in range(r + 1, table.size):
                prod = table.algebra_product(e, idems[s])
                assert all(c.is_zero() for c in prod)
            total = [a + b for a, b in zip(total, e)]
        assert total[0] == table.field.one()
        assert all(c.is_zero() for c in total[1:])


def test_galois_orbits_z4():
    table = character_table(cyclic(4))
    decomp = galois_orbits(table)
    tags = sorted((len(o.rows), o.tag, o.field_spec.degree)
                  for o in decomp.orbits)
    assert tags == [(1, "TotallyReal", 1), (1, "TotallyReal", 1),
                    (2, "CM", 2)]


def test_galois_orbits_z3():
    table = character_table(cyclic(3))
    decomp = galois_orbits(table)
    tags = sorted((len(o.rows), o.tag) for o in decomp.orbits)
    assert tags == [(1, "TotallyReal"), (2, "CM")]


def test_symmetric_groups_all_rational():
    for g in (symmetric_3(), symmetric_4()):
        table = character_table(g)
        decomp = galois_orbits(table)
        assert all(len(o.rows) == 1 for o in decomp.orbits)
        assert all(o.tag == "TotallyReal" for o in decomp.orbits)
        assert all(o.field_spec.degree == 1 for o in decomp.orbits)
        for row in table.rows:
            for v in row:
                q = v.as_rational()
                assert q is not None and q.denominator == 1


def test_orbit_idempotents_rational_and_complete():
    for name in ("Z3", "Z8", "D5", "Q8"):
        g = group_by_name(name)
        table = character_table(g)
        decomp = galois_orbits(table)
        total = [Fraction(0)] * g.order
        for orbit in decomp.orbits:
            for elem, c in enumerate(orbit.idempotent):
                total[elem] += c
        assert total[0] == 1
        assert all(c == 0 for c in total[1:])


def test_cm_tag_iff_nonreal_value():
    for g in small_groups():
        table = character_table(g)
        decomp = galois_orbits(table)
        for orbit in decomp.orbits:
            nonreal = any(not table.rows[r][k].is_real()
                          for r in orbit.rows for k in range(table.size))
            assert (orbit.tag == "CM") == nonreal
            if orbit.tag == "CM":
                # conjugation acts without fixed points on the embeddings
                spec = orbit.field_spec
                for a in spec.coset_reps():
                    assert spec.conjugate_coset(a) != a


def test_centre_decomposition_z4():
    table = character_table(cyclic(4))
    centre = centre_decomposition(table)
    degrees = sorted(s.field_spec.degree for s in centre)
    assert degrees == [1, 1, 2]
    assert sorted(s.tag for s in centre) == ["CM", "TotallyReal", "TotallyReal"]
    # projection data: the class component map is a ring map on class sums
    assert sum(s.field_spec.degree for s in centre) == table.size


def test_centre_decomposition_trivial():
    table = character_table(cyclic(1))
    centre = centre_decomposition(table)
    assert len(centre) == 1
    assert centre[0].field_spec.degree == 1



def test_orbits_and_centre_computed_once_per_table():
    table = character_table(cyclic(6))
    assert galois_orbits(table) is galois_orbits(table)
    assert centre_decomposition(table) is centre_decomposition(table)
    assert galois_orbits(table).table is table


def test_table_for_compares_cayley_tables_by_content():
    from rigidtori.groups import FiniteGroup
    g = symmetric_3()
    table = table_for(g)
    assert table_for(FiniteGroup(g.table, name="other")) is table
    # one entry only: another group replaces it
    assert table_for(cyclic(3)) is not table
    assert table_for(g) is not table
    assert table_for(g).rows == table.rows
