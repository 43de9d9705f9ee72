import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from class_algebra import algebra_product, class_matrix, intersect
from rigidtori import linalg
from rigidtori.characters import (TableComputationError, character_table,
                                  galois_orbits, table_for,
                                  _certify, _dixon_schneider, _is_prime,
                                  _multiplicities, _prime, _root_of_unity,
                                  _row_key, _separating_classes)
from rigidtori.cyclotomic import CyclotomicField
from rigidtori.fixtures import (abelian, cyclic, dicyclic, dihedral,
                                group_by_name, quaternion_8, small_groups,
                                symmetric_3, symmetric_4)


# -- an all-exact oracle: eigenspace refinement against candidate values ----


def _permissible_degrees(order, class_count):
    bound = order - class_count + 1
    return [dd for dd in range(1, order + 1)
            if order % dd == 0 and dd * dd <= bound]


def _class_eigenvalue_candidates(field, class_size, elem_order, degrees):
    """Exact candidates for |C| chi(g)/chi(1) with chi(g) a sum of chi(1)
    many elem_order-th roots of unity."""
    step = field.m // elem_order
    out = {}
    for deg in degrees:
        for combo in itertools.combinations_with_replacement(
                range(elem_order), deg):
            acc = {}
            for k in combo:
                acc[step * k] = acc.get(step * k, 0) + 1
            val = field.from_exponent_dict(acc)
            scaled = [c * class_size for c in val.coeffs]
            if all(x.denominator == 1 and x.numerator % deg == 0
                   for x in scaled):
                cand = field.from_exponent_dict(
                    dict(enumerate(x / deg for x in scaled)))
                out[cand.coeffs] = cand
    return list(out.values())


def _complex_value(x):
    m = x.field.m
    return sum(float(c) * np.exp(2j * np.pi * i / m)
               for i, c in enumerate(x.coeffs) if c)


def _exact_eigenspace_refinement(group):
    """The central characters by refining common eigenspaces one class
    matrix at a time, testing every candidate eigenvalue (floats only rule
    candidates out) by an exact nullspace; independent of the modular
    path."""
    classes = group.conjugacy_classes()
    field = CyclotomicField(group.exponent)
    d = classes.count
    degrees = _permissible_degrees(group.order, d)
    one, zero = field.one(), field.zero()
    subspaces = [[[one if i == j else zero for j in range(d)]
                  for i in range(d)]]
    for i in range(1, d):
        if all(len(s) == 1 for s in subspaces):
            break
        mat = class_matrix(classes, i)
        numeric = np.linalg.eigvals(np.array(mat, dtype=float))
        usable = [cand for cand in _class_eigenvalue_candidates(
                      field, classes.sizes[i],
                      group.element_order[classes.representatives[i]],
                      degrees)
                  if any(abs(_complex_value(cand) - ev) < 1e-5
                         for ev in numeric)]
        kernels = {}
        refined = []
        for space in subspaces:
            if len(space) == 1:
                refined.append(space)
                continue
            pieces = []
            for cand in usable:
                if cand.coeffs not in kernels:
                    kernels[cand.coeffs] = linalg.nullspace(
                        [[field.from_rational(mat[r][c])
                          - (cand if r == c else zero) for c in range(d)]
                         for r in range(d)])
                if kernels[cand.coeffs]:
                    piece = intersect(space, kernels[cand.coeffs])
                    if piece:
                        pieces.append(piece)
            assert sum(map(len, pieces)) == len(space)
            refined.extend(pieces)
        subspaces = refined
    assert len(subspaces) == d and all(len(s) == 1 for s in subspaces)
    vectors = []
    for (w,) in subspaces:
        inv = w[0].inverse()
        vectors.append([x * inv for x in w])
    assert _certify(classes, vectors)
    return vectors


def _rows_by_norm(group, vectors):
    """(degrees, rows) from central characters by the exact norm formula
    chi(1)^2 = |G| / sum_k w_k conj(w_k) / |C_k|."""
    sizes = group.conjugacy_classes().sizes
    degrees, rows = [], []
    for w in vectors:
        norm = sum(((x * x.conjugate()) * Fraction(1, size)
                    for x, size in zip(w, sizes)), w[0].field.zero())
        deg_sq = Fraction(group.order) / norm.as_rational()
        deg = math.isqrt(deg_sq.numerator)
        assert deg_sq == deg * deg
        degrees.append(deg)
        rows.append([x * Fraction(deg, size) for x, size in zip(w, sizes)])
    return degrees, rows


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
        slow_keys = {_row_key(w) for w in _exact_eigenspace_refinement(g)}
        fast = character_table(g)
        # the fast path's eigenvectors are the rows scaled back
        fast_keys = set()
        for r in range(fast.size):
            w = [fast.rows[r][k] * Fraction(classes.sizes[k], fast.degrees[r])
                 for k in range(classes.count)]
            fast_keys.add(_row_key(w))
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
            sq = algebra_product(table, e, e)
            assert sq == e, f"e_chi^2 != e_chi for {name} row {r}"
            for s in range(r + 1, table.size):
                prod = algebra_product(table, e, idems[s])
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
            nonreal = any(table.rows[r][k] != table.rows[r][k].conjugate()
                          for r in orbit.rows for k in range(table.size))
            assert (orbit.tag == "CM") == nonreal
            if orbit.tag == "CM":
                # conjugation acts without fixed points on the embeddings
                spec = orbit.field_spec
                for a in spec.coset_reps():
                    assert spec.conjugate_coset(a) != a


def test_centre_fields_z4():
    # the orbits' character fields are the field summands of Z(Q[G])
    orbits = galois_orbits(character_table(cyclic(4))).orbits
    assert sorted(o.degree for o in orbits) == [1, 1, 2]
    assert sorted(o.tag for o in orbits) == ["CM", "TotallyReal",
                                             "TotallyReal"]
    # dim Z(Q[G]) = sum of the field degrees = number of classes
    assert sum(o.degree for o in orbits) == 4


def test_centre_fields_trivial():
    orbits = galois_orbits(character_table(cyclic(1))).orbits
    assert len(orbits) == 1
    assert orbits[0].degree == 1


def test_orbits_and_centre_computed_once_per_table():
    # the centre's field summands are the orbits, so one computation
    table = character_table(cyclic(6))
    assert galois_orbits(table) is galois_orbits(table)
    assert galois_orbits(table).table is table


CENTRE_GROUPS = [g.name for g in small_groups()] + ["S4", "A5", "S5", "F21",
                                                    "Z24"]


@pytest.mark.parametrize("name", CENTRE_GROUPS)
def test_central_characters_lie_in_their_character_fields(name):
    # omega_k(chi) = |C_k| chi(g_k) / chi(1) has coordinates in the field of
    # chi's orbit that rebuild it exactly: polarize reads the centre's
    # action on a summand through these coordinates
    group = (_pool_group(name) if name in ("A5", "S5", "F21", "Z24")
             else group_by_name(name))
    table = character_table(group)
    for orbit in galois_orbits(table).orbits:
        spec = orbit.field_spec
        for r in orbit.rows:
            for k, size in enumerate(table.classes.sizes):
                omega = table.rows[r][k] * Fraction(size, table.degrees[r])
                coords = spec.coordinates(omega)
                assert coords is not None, (r, k)
                assert spec.element(coords) == omega, (r, k)


def test_table_for_compares_cayley_tables_by_content():
    from rigidtori.groups import FiniteGroup
    g = symmetric_3()
    table = table_for(g)
    assert table_for(FiniteGroup(g.table, name="other")) is table
    # asked for once: dropped when another group is asked for
    table_for(cyclic(3))
    again = table_for(g)
    assert again is not table
    assert again.rows == table.rows
    # computed twice: kept while other groups are asked for
    for other in (cyclic(3), cyclic(4), quaternion_8(), cyclic(3)):
        table_for(other)
    assert table_for(FiniteGroup(g.table, name="other")) is again


def test_table_for_evicts_the_least_recently_used_table(monkeypatch):
    from rigidtori import characters
    a, b, c = symmetric_3(), cyclic(3), cyclic(2)
    for group in (a, b, a, b):   # a and b computed twice: both kept
        table_for(group)
    kept = {name: table_for(group) for name, group in (("b", b), ("a", a))}
    # room for a and b only; a was used last, so b goes first
    monkeypatch.setattr(characters, "_KEPT_BUDGET", sum(
        t.size ** 2 * t.field.degree for t in kept.values()))
    for group in (c, a, c):      # c computed twice: kept, over the budget
        table_for(group)
    assert table_for(a) is kept["a"]
    assert table_for(b) is not kept["b"]


# -- Dixon recovery and the separating-set certificate ----------------------


def _pool_group(name):
    from rigidtori.groups import FiniteGroup
    perms = {
        "A5": [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
        "S5": [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
        "F21": [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)],
    }
    if name in perms:
        return FiniteGroup.from_permutations(perms[name], name=name)
    if name == "Z2xZ2xZ6":
        return abelian([2, 2, 6])
    return cyclic(int(name[1:]))


def _dixon(group):
    classes = group.conjugacy_classes()
    field = CyclotomicField(group.exponent)
    return classes, field, _dixon_schneider(classes, field)[0]


def test_certificate_accepts_the_central_characters():
    for g in (cyclic(6), symmetric_3(), quaternion_8(), symmetric_4()):
        classes, _, vectors = _dixon(g)
        assert vectors is not None
        assert _certify(classes, vectors)


def test_certificate_rejects_one_wrong_coordinate():
    classes, field, vectors = _dixon(symmetric_4())
    for r in range(len(vectors)):
        for k in range(1, classes.count):
            bad = [list(w) for w in vectors]
            bad[r][k] = bad[r][k] + field.one()
            assert not _certify(classes, bad), (r, k)


def test_certificate_rejects_vectors_no_class_separates():
    classes, _, vectors = _dixon(cyclic(6))
    # each vector alone is a genuine central character, but one is missing
    # and another counted twice
    twice = [vectors[0]] + list(vectors[1:-1]) + [vectors[0]]
    assert not _certify(classes, twice)
    assert _separating_classes(twice) is None


def test_certificate_rejects_non_commuting_structure_constants():
    import dataclasses
    classes, _, vectors = _dixon(cyclic(6))
    separating = _separating_classes(vectors)
    assert _certify(classes, vectors)
    i = next(i for i in range(1, classes.count) if i not in separating)
    # one corrupted constant, a_i00, in the sparse row 0 of M_i
    broken = [list(map(dict, m)) for m in classes.coefficients]
    broken[i][0][0] = broken[i][0].get(0, 0) + 1
    fake = dataclasses.replace(
        classes, coefficients=tuple(tuple(m) for m in broken))
    mats = np.array([class_matrix(fake, t) for t in range(fake.count)])
    genuine = np.array([class_matrix(classes, t)
                        for t in range(classes.count)])
    assert np.argwhere(mats != genuine).tolist() == [[i, 0, 0]]
    assert any(not np.array_equal(mats[i] @ mats[s], mats[s] @ mats[i])
               for s in separating)
    # the eigenvector equations on S only read M_s, s in S: they still hold
    assert not _certify(fake, vectors)


POOL = ["S5", "A5", "Z21", "Z24", "F21", "Z2xZ2xZ6"]


@pytest.mark.parametrize("name", POOL)
def test_dixon_recovery_matches_exact_refinement(name):
    g = _pool_group(name)
    classes, field, fast = _dixon(g)
    slow = _exact_eigenspace_refinement(g)
    assert sorted(_row_key(w) for w in fast) == \
        sorted(_row_key(w) for w in slow)
    _, fast_rows, fast_degrees = _dixon_schneider(classes, field)
    slow_degrees, slow_rows = _rows_by_norm(g, slow)
    assert sorted(zip(fast_degrees, map(_row_key, fast_rows))) == \
        sorted(zip(slow_degrees, map(_row_key, slow_rows)))


@pytest.mark.parametrize("name", POOL)
def test_prime_conditions_on_pool_groups(name):
    g = _pool_group(name)
    p = _prime(g.order, g.exponent)
    assert _is_prime(p) and p % g.exponent == 1
    assert p * p > 4 * g.order     # p > 2 sqrt(|G|), so chi(1) < p/2
    assert g.order % p            # p does not divide |G|
    # the smallest such prime
    assert not any(_is_prime(q) and q * q > 4 * g.order
                   for q in range(g.exponent + 1, p, g.exponent))
    z = _root_of_unity(g.exponent, p)
    assert sorted(pow(z, t, p) for t in range(g.exponent)) == \
        sorted({pow(z, t, p) for t in range(g.exponent)})
    assert pow(z, g.exponent, p) == 1


def test_multiplicity_outside_degree_is_rejected():
    # order 4 mod 5: z = 2; chi(g^t) of the faithful linear character of Z4
    zpow = [pow(2, t, 5) for t in range(4)]
    assert _multiplicities([1, 2, 4, 3], 1, zpow, 5) == [0, 1, 0, 0]
    # not the values of a character of degree 1: n_0 = 6/4 = 4 mod 5
    with pytest.raises(TableComputationError):
        _multiplicities([1, 2, 0, 3], 1, zpow, 5)
    # each residue in [0, 2], but they are (2, 2, 2, 1), which sum to 7
    with pytest.raises(TableComputationError):
        _multiplicities([2, 2, 1, 3], 2, zpow, 5)


def test_corrupted_component_raises_without_fallback(monkeypatch):
    from rigidtori import characters
    split = characters._split_mod_p

    def corrupted(classes, p):
        vectors = split(classes, p)
        vectors[-1][-1] = (vectors[-1][-1] + 1) % p
        return vectors

    monkeypatch.setattr(characters, "_split_mod_p", corrupted)
    with pytest.raises(TableComputationError):
        character_table(symmetric_4())


def test_character_table_does_not_call_verify(monkeypatch):
    from rigidtori.characters import CharacterTable

    def refuse(self):
        raise AssertionError("CharacterTable.verify called")

    monkeypatch.setattr(CharacterTable, "verify", refuse)
    for g in (symmetric_3(), cyclic(8), quaternion_8()):
        character_table(g)


BUNDLED = small_groups() + [symmetric_4()]


@given(data=st.data())
def test_relabelled_cayley_tables_give_identical_rows(data):
    from rigidtori.groups import FiniteGroup
    g = data.draw(st.sampled_from(BUNDLED))
    perm = [0] + data.draw(st.permutations(range(1, g.order)))
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    h = FiniteGroup(table, name="relabelled")
    want = character_table(g)
    got = character_table(h)
    # column k of `want` is the class of perm[g_k] in h
    cols = [got.classes.membership[perm[r]]
            for r in want.classes.representatives]
    assert sorted(got.degrees) == sorted(want.degrees)
    assert sorted(_row_key([row[c] for c in cols]) for row in got.rows) == \
        sorted(_row_key(row) for row in want.rows)
