import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_algebra import algebra_product, class_matrix, intersect
from rigidtori import characters, linalg
from rigidtori.characters import (TableComputationError, character_table,
                                  galois_orbits, table_for,
                                  _dixon_schneider, _is_prime,
                                  _evaluation_width, _multiplicities,
                                  _multiplicity_transform, _prime,
                                  _root_of_unity, _row_key,
                                  _separating_classes)
from rigidtori.cyclotomic import CyclotomicField, _slot_width
from rigidtori.fixtures import (abelian, cyclic, dicyclic, dihedral,
                                direct_product, group_by_name, quaternion_8,
                                small_groups, symmetric_3, symmetric_4)
from rigidtori.groups import ConjugacyClassData


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
    """A group of `POOL` or `COLD_POOL`, built as the benchmark's
    cold-groups pool builds it, so with the same Cayley table."""
    from rigidtori.groups import FiniteGroup
    perms = {
        "A5": [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
        "S5": [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
        "F20": [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)],
        "F21": [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)],
    }
    if name in perms:
        return FiniteGroup.from_permutations(perms[name], name=name)
    if name in ("Z2xD4", "Z2xQ8"):
        g = direct_product(cyclic(2), dihedral(4) if name == "Z2xD4"
                           else quaternion_8())
        g.name = name
        return g
    if name.startswith("Dic"):
        return dicyclic(int(name[3:]))
    if name.startswith("D"):
        return dihedral(int(name[1:]))
    return abelian([int(f[1:]) for f in name.split("x")])


def _dixon(group):
    """(classes, field, central characters w = |C_k| chi(g_k) / chi(1)) of
    the rows and degrees `_dixon_schneider` certified."""
    classes = group.conjugacy_classes()
    field = CyclotomicField(group.exponent)
    rows, degrees = _dixon_schneider(classes, field)
    return classes, field, [
        [x * Fraction(size, deg) for x, size in zip(row, classes.sizes)]
        for row, deg in zip(rows, degrees)]


def _altered(classes, **fields):
    """A new ConjugacyClassData: `classes` with `fields` replaced."""
    kept = {name: getattr(classes, name)
            for name in ConjugacyClassData.__slots__}
    return ConjugacyClassData(**{**kept, **fields})


def _certify(classes, vectors):
    """`characters._certify` on cyclotomic vectors, which it takes as their
    integer power-basis coordinates; every vector here is integral."""
    assert all(x.den == 1 for w in vectors for x in w)
    return characters._certify(classes, vectors[0][0].field,
                               [[x.num for x in w] for w in vectors])


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
    classes, _, vectors = _dixon(cyclic(6))
    separating = _separating_classes(vectors)
    assert _certify(classes, vectors)
    i = next(i for i in range(1, classes.count) if i not in separating)
    # one corrupted constant, a_i00, in the sparse row 0 of M_i
    broken = [list(map(dict, m)) for m in classes.coefficients]
    broken[i][0][0] = broken[i][0].get(0, 0) + 1
    fake = _altered(classes, coefficients=tuple(tuple(m) for m in broken))
    mats = np.array([class_matrix(fake, t) for t in range(fake.count)])
    genuine = np.array([class_matrix(classes, t)
                        for t in range(classes.count)])
    assert np.argwhere(mats != genuine).tolist() == [[i, 0, 0]]
    assert any(not np.array_equal(mats[i] @ mats[s], mats[s] @ mats[i])
               for s in separating)
    # the eigenvector equations on S only read M_s, s in S: they still hold
    assert not _certify(fake, vectors)


def _evaluation_width_of(classes, vectors):
    """The width K that `_certify` evaluates the vectors at."""
    coords = [[x.num for x in w] for w in vectors]
    norm = max(sum(map(abs, x)) for w in coords for x in w)
    row_sum = max(sum(map(abs, row.values()))
                  for s in _separating_classes(coords)
                  for row in classes.coefficients[s])
    return _evaluation_width(vectors[0][0].field, norm, row_sum)


@pytest.mark.parametrize("group", [symmetric_4(), cyclic(5), cyclic(12)],
                         ids=["S4", "Z5", "Z12"])
def test_certificate_rejects_coordinates_moved_across_the_slot_width(group):
    classes, field, vectors = _dixon(group)
    width = _evaluation_width_of(classes, vectors)
    assert _certify(classes, vectors)
    for j in range(width - 3, width + 4):
        for sign in (1, -1):
            for r in (0, len(vectors) - 2, len(vectors) - 1):
                for k in range(1, classes.count):
                    for i in range(field.degree):
                        bad = [list(w) for w in vectors]
                        bad[r][k] = bad[r][k] + sign * 2 ** j * field.zeta(i)
                        assert not _certify(classes, bad), (j, sign, r, k, i)


def test_certificate_rejects_a_structure_constant_raised_across_the_width():
    classes, _, vectors = _dixon(cyclic(6))
    width = _slot_width(max(sum(row.values()) for m in classes.coefficients
                            for row in m) ** 2)
    for shift in (width - 1, width, width + 1):
        for i in range(1, classes.count):
            for j in range(classes.count):
                for k in range(classes.count):
                    broken = [list(map(dict, m)) for m in classes.coefficients]
                    broken[i][j][k] = broken[i][j].get(k, 0) + 2 ** shift
                    fake = _altered(
                        classes, coefficients=tuple(map(tuple, broken)))
                    assert not _certify(fake, vectors), (shift, i, j, k)


def test_certificate_accepts_empty_and_one_class_separating_sets():
    for group, separating in ((cyclic(1), []), (cyclic(2), [1])):
        classes, _, vectors = _dixon(group)
        assert _separating_classes(vectors) == separating
        assert _certify(classes, vectors)


def _packed(vector, width):
    return sum(c << width * i for i, c in enumerate(vector))


def test_slot_width_separates_vectors_at_the_bound():
    # entries in [-X, X]: differences reach 2X, which must stay below 2^b
    for bound in range(1, 7):
        width = _slot_width(bound)
        entries = range(-bound, bound + 1)
        seen = {}
        for vector in itertools.product(entries, repeat=3):
            assert seen.setdefault(_packed(vector, width), vector) == vector
    # the pair that collides one bit below the width
    for bound in list(range(1, 300)) + [2 ** 40 - 1, 2 ** 40, 3 ** 30]:
        width = _slot_width(bound)
        near = (bound - 2 ** (width - 1), 1)
        assert max(map(abs, near)) <= bound
        assert _packed(near, width - 1) == _packed((bound, 0), width - 1)
        assert _packed(near, width) != _packed((bound, 0), width)


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
def test_evaluation_width_decides_equality_modulo_phi_at_two_to_the_width(m):
    # every nonzero difference D of two sides bounded by X has
    # D(2^K) != 0 mod Phi_m(2^K)
    field = CyclotomicField(m)
    for norm, row_sum in ((1, 1), (1, 2), (2, 1), (3, 2)):
        width = _evaluation_width(field, norm, row_sum)
        phi = field.degree
        modulus = sum(c << width * i for i, c in enumerate(field.modulus))
        reduced = max(abs(c) for power in field.power_table[:2 * phi - 1]
                      for _, c in power)
        bound = max(row_sum, norm * reduced) * norm
        step = max(1, 2 * bound // 3)
        entries = sorted({-2 * bound, -1, 0, 1, 2 * bound,
                          *range(-2 * bound, 2 * bound + 1, step)})
        for diff in itertools.product(entries, repeat=phi):
            if any(diff):
                assert _packed(diff, width) % modulus, (m, diff)


POOL = ["S5", "A5", "Z21", "Z24", "F21", "Z2xZ2xZ6"]
# the rest of the benchmark's cold-groups pool: the groups beyond the
# bundled ones, S4 and POOL
COLD_POOL = ["Z16", "Z4xZ4", "Z2xZ8", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2", "D8", "Dic4",
             "Z2xD4", "Z2xQ8", "F20", "Z20", "D10"]


@pytest.mark.parametrize("name", POOL)
def test_dixon_recovery_matches_exact_refinement(name):
    g = _pool_group(name)
    classes, field, fast = _dixon(g)
    slow = _exact_eigenspace_refinement(g)
    assert sorted(_row_key(w) for w in fast) == \
        sorted(_row_key(w) for w in slow)
    fast_rows, fast_degrees = _dixon_schneider(classes, field)
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
    transform = _multiplicity_transform(4, [pow(2, t, 5) for t in range(4)], 5)
    assert _multiplicities([1, 2, 4, 3], 1, transform, 5) == [0, 1, 0, 0]
    # not the values of a character of degree 1: n_0 = 6/4 = 4 mod 5
    with pytest.raises(TableComputationError):
        _multiplicities([1, 2, 0, 3], 1, transform, 5)
    # each residue in [0, 2], but they are (2, 2, 2, 1), which sum to 7
    with pytest.raises(TableComputationError):
        _multiplicities([2, 2, 1, 3], 2, transform, 5)


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


def test_a_non_integral_central_character_is_refused(monkeypatch):
    # on S3's transpositions (|C| = 3, e = 2) the degree-2 character read
    # as multiplicities (1, 0) has chi = 1, so w = 3/2 is not integral
    multiplicities = characters._multiplicities

    def corrupted(values, deg, transform, p):
        if deg == 2 and len(values) == 2:
            return [1, 0]
        return multiplicities(values, deg, transform, p)

    monkeypatch.setattr(characters, "_multiplicities", corrupted)
    with pytest.raises(TableComputationError, match="not integral"):
        character_table(symmetric_3())


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
    g = data.draw(st.sampled_from(BUNDLED))
    _assert_relabelling_keeps_the_table(
        g, [0] + data.draw(st.permutations(range(1, g.order))))


def _relabelled(g, perm):
    """g's Cayley table with element x renamed perm[x]."""
    from rigidtori.groups import FiniteGroup
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    return FiniteGroup(table, name="relabelled")


def _assert_relabelling_keeps_the_table(g, perm):
    """The table of g's Cayley table with element x renamed perm[x] has the
    same degrees and, column by column, the same rows."""
    want = character_table(g)
    got = character_table(_relabelled(g, perm))
    # column k of `want` is the class of perm[g_k] in the relabelled group
    cols = [got.classes.membership[perm[r]]
            for r in want.classes.representatives]
    assert got.degrees == want.degrees
    assert sorted(_row_key([row[c] for c in cols]) for row in got.rows) == \
        sorted(_row_key(row) for row in want.rows)


@st.composite
def abelian_or_dihedral(draw):
    """Z_a x Z_b x Z_c with abc <= 48, or D_n with n <= 12."""
    if draw(st.booleans()):
        return dihedral(draw(st.integers(3, 12)))
    a = draw(st.integers(1, 48))
    b = draw(st.integers(1, 48 // a))
    return abelian([a, b, draw(st.integers(1, 48 // (a * b)))])


@settings(max_examples=12)
@given(group=abelian_or_dihedral(), data=st.data())
def test_tables_verify_and_ignore_the_labelling(group, data):
    table = character_table(group)
    table.verify()
    table.verify_columns()
    _assert_relabelling_keeps_the_table(
        group, [0] + data.draw(st.permutations(range(1, group.order))))


# -- recovery per Galois orbit, against the per-row recovery ----------------


def reference_dixon_schneider(classes, field):
    """The per-row recovery: every component's values recovered from its
    own multiplicities, then the same certificate.  The oracle of the
    recovery per Galois orbit, which must give the same rows in the same
    order."""
    group = classes.group
    d = classes.count
    m = field.m
    p = _prime(group.order, m)
    z = _root_of_unity(m, p)
    zpow = [pow(z, t, p) for t in range(m)]
    powers = classes.power_classes
    by_order = sorted(range(d), key=lambda k: -len(powers[k]))
    inverse = [classes.inverse_class(k) for k in range(d)]
    size_inv = [pow(size, -1, p) for size in classes.sizes]
    vectors, rows, degrees = [], [], []
    for v in characters._split_mod_p(classes, p):
        norm = sum(v[k] * v[inverse[k]] * size_inv[k] for k in range(d)) % p
        deg_sq = group.order * pow(norm, -1, p) % p
        deg = next(c for c in range(1, math.isqrt(group.order) + 1)
                   if c * c % p == deg_sq)
        chi = [x * deg * s % p for x, s in zip(v, size_inv)]
        values = [None] * d
        for k in by_order:
            if values[k] is not None:
                continue
            pw = powers[k]
            e = len(pw)
            mults = _multiplicities([chi[c] for c in pw], deg,
                                    _multiplicity_transform(e, zpow, p), p)
            for t, c in enumerate(pw):
                if values[c] is None:
                    coords = [0] * field.degree
                    for j, n in enumerate(mults):
                        for i, x in field.power_table[m // e * j * t % m]:
                            coords[i] += n * x
                    values[c] = coords
        rows.append([characters._new(field, tuple(t), 1) for t in values])
        vectors.append([tuple(x * size // deg for x in coords)
                        for coords, size in zip(values, classes.sizes)])
        degrees.append(deg)
    assert characters._certify(classes, field, vectors)
    return rows, degrees


def reference_galois_orbits(table):
    """The row-keyed orbit decomposition: each row's image under sigma_a
    found by keying every row and reading it through the a-th power map,
    and each orbit idempotent summed over its members.  Returns, per orbit,
    (rows, fixing subgroup, coset_to_row, idempotent, tag)."""
    from rigidtori.cyclotomic import SubfieldSpec
    field = table.field
    g = table.group
    key_to_row = {_row_key(row): r for r, row in enumerate(table.rows)}
    powers = table.classes.power_classes

    def image(r, a):
        return key_to_row[_row_key(
            [table.rows[r][pw[a % len(pw)]] for pw in powers])]

    assigned = set()
    out = []
    for r in range(table.size):
        if r in assigned:
            continue
        members = []
        for a in field.units:
            if image(r, a) not in members:
                members.append(image(r, a))
        assigned.update(members)
        spec = SubfieldSpec(field, [a for a in field.units if image(r, a) == r])
        per_class = []
        for k in range(table.size):
            total = sum((table.rows[s][k] * table.degrees[s] for s in members),
                        field.zero())
            q = total.as_rational()
            assert q is not None   # the idempotent is rational
            per_class.append(q / g.order)
        out.append((
            tuple(members), spec.fixing_subgroup,
            tuple(sorted((a, image(r, a)) for a in spec.coset_reps())),
            tuple(per_class[table.classes.membership[g.inverse[x]]]
                  for x in range(g.order)),
            "TotallyReal" if spec.is_totally_real() else "CM"))
    return out


def _orbit_data(decomp):
    return [(o.rows, o.field_spec.fixing_subgroup, o.coset_to_row,
             o.idempotent, o.tag) for o in decomp.orbits]


ORBIT_GROUPS = BUNDLED + [_pool_group(name) for name in POOL]


@pytest.mark.parametrize("group", ORBIT_GROUPS,
                         ids=[g.name for g in ORBIT_GROUPS])
def test_orbit_recovery_matches_the_per_row_recovery(group):
    classes = group.conjugacy_classes()
    field = CyclotomicField(group.exponent)
    images = []
    rows, degrees = _dixon_schneider(classes, field, images)
    want_rows, want_degrees = reference_dixon_schneider(classes, field)
    assert degrees == want_degrees
    assert [_row_key(r) for r in rows] == [_row_key(r) for r in want_rows]
    # each conjugate row is its orbit representative's values, the same
    # objects, read through a power map
    for image in images:
        rep = min(image)
        for u, j in enumerate(image):
            a = field.units[u]
            assert rows[j] == [rows[image[0]][pw[a % len(pw)]]
                               for pw in classes.power_classes]
            assert {id(x) for x in rows[j]} <= {id(x) for x in rows[rep]}


@pytest.mark.parametrize("group", ORBIT_GROUPS,
                         ids=[g.name for g in ORBIT_GROUPS])
def test_orbits_match_the_row_keyed_decomposition(group):
    table = character_table(group)
    assert _orbit_data(galois_orbits(table)) == reference_galois_orbits(table)


@settings(max_examples=40)
@given(data=st.data())
def test_orbits_of_relabelled_tables_match_the_row_keyed_decomposition(data):
    g = data.draw(st.sampled_from(ORBIT_GROUPS))
    table = character_table(_relabelled(
        g, [0] + data.draw(st.permutations(range(1, g.order)))))
    assert _orbit_data(galois_orbits(table)) == reference_galois_orbits(table)


@pytest.mark.parametrize("name", ["Z5", "Z12", "Z21", "F21", "Z2xZ2xZ6"])
def test_a_corrupted_conjugate_component_raises(monkeypatch, name):
    group = _pool_group(name) if name in POOL else group_by_name(name)
    classes = group.conjugacy_classes()
    field = CyclotomicField(group.exponent)
    images = []
    _dixon_schneider(classes, field, images)
    # a component that is the image of one before it: not a representative
    target = next(j for j, image in enumerate(images) if min(image) < j)
    split = characters._split_mod_p

    def corrupted(classes, p):
        vectors = split(classes, p)
        vectors[target][-1] = (vectors[target][-1] + 1) % p
        return vectors

    monkeypatch.setattr(characters, "_split_mod_p", corrupted)
    with pytest.raises(TableComputationError, match="Galois conjugate"):
        _dixon_schneider(classes, field)


def test_a_corrupted_power_map_raises():
    classes = cyclic(5).conjugacy_classes()
    field = CyclotomicField(5)
    # class 1 fills every value from its own powers, so class 2's power
    # classes are read by the Galois lookup alone; swap g^2 and g^3 there
    powers = list(classes.power_classes)
    pw = list(powers[2])
    pw[2], pw[3] = pw[3], pw[2]
    powers[2] = tuple(pw)
    assert sorted(pw) == sorted(classes.power_classes[2])
    fake = _altered(classes, power_classes=tuple(powers))
    with pytest.raises(TableComputationError, match="Galois conjugate"):
        _dixon_schneider(fake, field)


# -- central classes split along their cycles, linear rows by discrete log --


ALL_GROUPS = ORBIT_GROUPS + [_pool_group(name) for name in COLD_POOL]


def _projective(vectors):
    """Each vector mod p scaled to 1 at its first nonzero coordinate (w_0
    for every component of e_0 with w_0 != 0), as a set of tuples."""
    out = set()
    for v, p in vectors:
        inv = pow(next(x for x in v if x), -1, p)
        out.add(tuple(x * inv % p for x in v))
    return out


@pytest.mark.parametrize("group", ALL_GROUPS, ids=[g.name for g in ALL_GROUPS])
def test_central_classes_split_by_their_cycles_as_by_minimal_polynomials(
        group):
    classes = group.conjugacy_classes()
    d = classes.count
    p = _prime(group.order, group.exponent)
    z = _root_of_unity(group.exponent, p)
    zpow = [pow(z, t, p) for t in range(group.exponent)]
    e_0 = [1] + [0] * (d - 1)
    # already-split components: e_0's components under the class of largest
    # element order, split by the general path
    largest = max(range(d), key=lambda k: len(classes.power_classes[k]))
    split = characters._eigencomponents(classes.coefficients[largest], e_0, p)
    central = [k for k in range(d) if classes.sizes[k] == 1]
    assert central[0] == 0
    for k in central:
        mat = classes.coefficients[k]
        assert all(len(row) == 1 and 1 in row.values() for row in mat)
        cycles = characters._cycles([next(iter(row)) for row in mat])
        e = len(classes.power_classes[k])
        assert all(e % len(cycle) == 0 for cycle in cycles)
        for v in [e_0] + split:
            fast = characters._cycle_components(cycles, e, v, zpow, p)
            slow = characters._eigencomponents(mat, v, p)
            assert len(fast) == len(slow)
            assert _projective((w, p) for w in fast) == \
                _projective((w, p) for w in slow)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=[g.name for g in ALL_GROUPS])
def test_linear_rows_by_discrete_log_match_the_transform(group):
    classes = group.conjugacy_classes()
    field = CyclotomicField(group.exponent)
    rows, degrees = _dixon_schneider(classes, field)
    want_rows, want_degrees = reference_dixon_schneider(classes, field)
    assert degrees.count(1) == want_degrees.count(1) >= 1
    assert sorted(_row_key(r) for r, deg in zip(rows, degrees) if deg == 1) \
        == sorted(_row_key(r) for r, deg in zip(want_rows, want_degrees)
                  if deg == 1)


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")
    return refuse


@pytest.mark.parametrize("name", ["Z24", "Z2xZ2xZ6", "Z4xZ4", "Z21"])
def test_an_abelian_table_needs_no_minimal_polynomial_or_transform(
        monkeypatch, name):
    # nor the general certificate: the rows are certified as homomorphisms
    want = character_table(_pool_group(name))
    for helper in ("_eigencomponents", "_multiplicities", "_certify",
                   "_separating_classes"):
        monkeypatch.setattr(characters, helper, _refuse(helper))
    got = character_table(_pool_group(name))
    assert got.degrees == want.degrees and got.rows == want.rows


def test_a_non_abelian_table_still_takes_the_general_path(monkeypatch):
    calls = {"_eigencomponents": 0, "_multiplicities": 0, "_certify": 0,
             "_separating_classes": 0}
    for helper in calls:
        original = getattr(characters, helper)

        def counted(*args, helper=helper, original=original):
            calls[helper] += 1
            return original(*args)
        monkeypatch.setattr(characters, helper, counted)
    character_table(symmetric_4())
    assert all(calls.values()), calls


def test_a_corrupted_abelian_component_raises(monkeypatch):
    split = characters._split_mod_p

    def corrupted(classes, p):
        vectors = split(classes, p)
        vectors[-1][-1] = (vectors[-1][-1] + 1) % p
        return vectors

    monkeypatch.setattr(characters, "_split_mod_p", corrupted)
    with pytest.raises(TableComputationError):
        character_table(cyclic(24))


def test_a_linear_value_outside_the_roots_of_unity_raises(monkeypatch):
    # Z3 at p = 7: <z> = {1, 2, 4}.  [1, 3, 5] has norm 1 + 2 * 3 * 5 = 3
    # mod 7, so degree 1, but chi(g) = 3 is no cube root of unity mod 7
    group = cyclic(3)
    classes = group.conjugacy_classes()
    assert _prime(3, 3) == 7 and classes.inverse_class(1) == 2
    monkeypatch.setattr(characters, "_split_mod_p",
                        lambda classes, p: [[1, 1, 1], [1, 3, 5], [1, 5, 3]])
    with pytest.raises(TableComputationError, match="not a power of z"):
        character_table(group)


@st.composite
def relabelled_abelian(draw):
    """Z_n1 x ... x Z_nk with |G| <= 64, under a random relabelling of the
    non-identity elements of its Cayley table."""
    factors = [draw(st.integers(2, 64))]
    while math.prod(factors) <= 32 and draw(st.booleans()):
        factors.append(draw(st.integers(2, 64 // math.prod(factors))))
    g = abelian(factors)
    return _relabelled(g, [0] + draw(st.permutations(range(1, g.order))))


@settings(max_examples=15)
@given(group=relabelled_abelian())
def test_abelian_rows_are_the_homomorphisms_read_off_the_cayley_table(group):
    # independent of Dixon-Schneider: every value is a root of unity
    # zeta_m^t, and chi(gh) = chi(g) chi(h) is t(gh) = t(g) + t(h) mod m
    table = character_table(group)
    n, m = group.order, table.field.m
    assert table.size == n and set(table.degrees) == {1}
    assert len({_row_key(row) for row in table.rows}) == n
    log = {table.field.zeta(t): t for t in range(m)}
    membership = table.classes.membership
    for row in table.rows:
        t = [log[row[membership[x]]] for x in range(n)]
        assert t[0] == 0
        for x in range(n):
            assert all((t[x] + t[y] - t[product]) % m == 0
                       for y, product in enumerate(group.table[x]))


# -- the abelian certificate: the rows are the homomorphisms to C^x ---------


# the products of cyclic groups, Z_a x Z_b x ...
ABELIAN_POOL = [name for name in POOL + COLD_POOL
                if all(f[0] == "Z" and f[1:].isdigit()
                       for f in name.split("x"))]


def _exponents(table):
    """Per row, the exponents t with chi(g_k) = zeta_m^t_k, for a table
    whose rows are all linear."""
    log = {table.field.zeta(t): t for t in range(table.field.m)}
    return [[log[x] for x in row] for row in table.rows]


def _assert_certificates_accept(group):
    table = character_table(group)
    classes, field = table.classes, table.field
    assert classes.count == group.order
    assert characters._certify_homomorphisms(classes, field.m,
                                             _exponents(table))
    # the general certificate, the oracle: here w_k = chi(g_k)
    assert characters._certify(classes, field,
                               [[x.num for x in row] for row in table.rows])


@pytest.mark.parametrize("name", ABELIAN_POOL)
def test_homomorphism_certificate_accepts_the_abelian_pool(name):
    _assert_certificates_accept(_pool_group(name))


@settings(max_examples=10)
@given(group=relabelled_abelian())
def test_homomorphism_certificate_accepts_relabelled_abelian_tables(group):
    _assert_certificates_accept(group)


@pytest.mark.parametrize("name", ["Z2xZ2xZ6", "Z4xZ4", "Z21", "Z2xZ2xZ2xZ2"])
def test_homomorphism_certificate_rejects_corrupted_exponents(name):
    table = character_table(_pool_group(name))
    classes, m = table.classes, table.field.m
    exponents = _exponents(table)
    d = len(exponents)

    def accepts(rows):
        return characters._certify_homomorphisms(classes, m, rows)

    assert accepts(exponents)
    for r in range(d):
        for k in range(d):
            bad = [list(t) for t in exponents]
            bad[r][k] = (bad[r][k] + 1) % m
            assert not accepts(bad), (r, k)
        assert not accepts(exponents[:r] + exponents[r + 1:])   # dropped
        other = (r + 1) % d
        assert not accepts([exponents[other] if i == r else t
                            for i, t in enumerate(exponents)])  # duplicated
        assert not accepts([[1] + t[1:] if i == r else t
                            for i, t in enumerate(exponents)])  # t(e) != 0
    assert not accepts(exponents[:-1] + [None])   # a row that is not linear


def test_homomorphism_certificate_refuses_a_non_abelian_group():
    table = character_table(symmetric_3())
    # three rows of exponents that are homomorphisms on classes, but d < |G|
    assert not characters._certify_homomorphisms(
        table.classes, table.field.m, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])


# -- class data: orbits under conjugation by the generators -----------------


def reference_classes(group):
    """The canonical classes by conjugating each new representative by all
    of G, d |G| conjugations: the oracle of the generator orbits."""
    n = group.order
    seen = [False] * n
    classes = []
    for g in range(n):
        if not seen[g]:
            orbit = sorted({group.conjugate(g, h) for h in range(n)})
            for x in orbit:
                seen[x] = True
            classes.append(tuple(orbit))
    return tuple(sorted(classes, key=lambda c: (
        len(c), group.element_order[c[0]], c[0])))


def _assert_orbits_are_the_classes(group, monkeypatch):
    from rigidtori.groups import FiniteGroup
    want = reference_classes(group)
    conjugate = FiniteGroup.conjugate
    count = [0]

    def counted(self, g, h):
        count[0] += 1
        return conjugate(self, g, h)

    monkeypatch.setattr(FiniteGroup, "conjugate", counted)
    # the group as built (a permutation closure counts its classes in the
    # closure, with no conjugation through the table), and from its table
    built = []
    for g in (group, FiniteGroup(group.table)):
        count[0] = 0
        classes = g.conjugacy_classes()
        assert count[0] <= g.order * len(g.generators)
        assert classes.classes == want
        assert classes.membership == tuple(
            next(i for i, c in enumerate(want) if x in c)
            for x in range(g.order))
        built.append(classes)
    for field in ("coefficients", "power_classes"):
        assert getattr(built[0], field) == getattr(built[1], field), field


@pytest.mark.parametrize("name", POOL + COLD_POOL)
def test_generator_orbits_are_the_classes_on_the_pools(name, monkeypatch):
    _assert_orbits_are_the_classes(_pool_group(name), monkeypatch)


@settings(max_examples=10)
@given(data=st.data())
def test_generator_orbits_are_the_classes_of_relabelled_tables(data):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if data.draw(st.booleans()):
            group = data.draw(relabelled_abelian())
        else:
            g = data.draw(st.sampled_from(BUNDLED))
            group = _relabelled(
                g, [0] + data.draw(st.permutations(range(1, g.order))))
        _assert_orbits_are_the_classes(group, monkeypatch)

