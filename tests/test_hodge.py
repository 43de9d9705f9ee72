import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rigidtori.characters import character_table, galois_orbits, table_for
from rigidtori.cyclotomic import CyclotomicField
from rigidtori.fixtures import (cyclic, eisenstein_action, gaussian_action,
                                integral_model, quaternion_8,
                                random_hodge_fixture, regular_representation,
                                small_groups, symmetric_3, trivial_action)
from rigidtori.hodge import (BRUTE_FORCE_RANK_CAP, ExactHodgeStructure,
                             HSViolation, InconsistentCharacter,
                             IntegralRepresentation, InvalidRepresentation,
                             RoundingFailure, SummandType, SymbolicHodgeSpec,
                             _RightFactor, _int_mat_mul,
                             brute_force_hom_dimension,
                             enumerate_rigid_types, exact_structure_from_spec,
                             f_module_basis, hodge_character_from_numeric,
                             isotypic_split, rigidity_by_centre,
                             rigidity_by_character, spec_from_character)
from rigidtori import linalg


def reference_structure(rep, field, u_columns):
    """The structure on U with X solved for, P^T X^T = [I; 0] by one
    elimination over K: the reference that the X read off the character
    table is checked against.  Where no X exists (U + conj(U) does not
    span) it passes X = 0, which the structure refuses."""
    n2, n = rep.rank, len(u_columns)
    full = [list(col) for col in u_columns] + [
        [c.conjugate() for c in col] for col in u_columns]
    top = linalg.solve_many(full, [[field.one() if i == j else field.zero()
                                    for j in range(n)] for i in range(n2)])
    x = ([[field.zero()] * n2 for _ in range(n)] if top is None
         else linalg.transpose(top))
    return ExactHodgeStructure(rep, field, u_columns, x)


def full_hodge_spec(rep, tau_builder):
    table = character_table(rep.group)
    decomp = galois_orbits(table)
    pieces = isotypic_split(rep, decomp)
    summands = []
    for j, orbit in enumerate(decomp.orbits):
        fs = orbit.field_spec
        mult = len(pieces[j]) // fs.degree
        summands.append(SummandType(j, mult, tau_builder(j, orbit, mult)))
    return SymbolicHodgeSpec(decomposition=decomp, summands=tuple(summands))


def test_representation_validation():
    g = cyclic(2)
    with pytest.raises(InvalidRepresentation):
        IntegralRepresentation.from_elements(
            g, [[[1, 0], [0, 1]], [[1, 1], [0, 1]]])
    with pytest.raises(InvalidRepresentation):
        IntegralRepresentation.from_elements(
            g, [[[1, 0], [0, 1]], [[2, 0], [0, 1]]])
    for ragged in ([[[1, 0], [0, 1]], [[-1, 0], [0]]],
                   [[[1, 0], [0]], [[-1, 0], [0, -1]]],
                   [[[1, 0], [0, 1]], [[-1, 0], [0, -1], [0, 0]]]):
        with pytest.raises(InvalidRepresentation, match="ragged"):
            IntegralRepresentation.from_elements(g, ragged)
    with pytest.raises(InvalidRepresentation, match="one matrix per"):
        IntegralRepresentation.from_elements(g, [[[1, 0], [0, 1]]])
    good = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
    assert IntegralRepresentation.from_elements(g, good).matrices == \
        tuple(tuple(map(tuple, m)) for m in good)


def test_validation_catches_a_corrupted_non_generator():
    rep = regular_representation(symmetric_3())
    gens = rep.generator_indices()
    x, y = [g for g in range(1, rep.group.order) if g not in gens][:2]
    matrices = list(rep.matrices)
    matrices[x] = matrices[y]
    with pytest.raises(InvalidRepresentation):
        IntegralRepresentation.from_elements(rep.group, matrices)
    with pytest.raises(InvalidRepresentation):
        IntegralRepresentation.from_elements(
            rep.group, [rep.matrices[1]] + list(rep.matrices[1:]))
    assert IntegralRepresentation.from_elements(
        rep.group, rep.matrices).matrices == rep.matrices


def test_generator_expansion_matches_elements():
    rep = gaussian_action()
    g = rep.group
    j = [[0, -1], [1, 0]]
    gen = next(x for x in range(4) if g.element_order[x] == 4
               and rep.matrices[x] == tuple(map(tuple, j)))
    assert rep.matrices[0] == ((1, 0), (0, 1))


def _indexed_product(a, b):
    # the product entry by entry, indexing each factor as it goes
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


# entries past 2^63 too: their products are packed wider than 64 bits
_entries = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70))


def _matrices(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# a is r x t and b is t x c; the shapes of b are checked by from_generators
_factors = st.tuples(st.integers(0, 4), st.integers(1, 4),
                     st.integers(0, 4)).flatmap(
    lambda shape: st.tuples(_matrices(*shape[:2]), _matrices(*shape[1:])))


@given(_factors)
@example(([[1]], [[]]))                     # no columns
@example(([], [[1], [2]]))                  # no rows
@example(([[2**62, -2**62]], [[1, -1], [1, 1]]))  # bound 2^63: past 64 bits
@example(([[2**63 - 1], [1 - 2**63]], [[1, -1, 0]]))  # 64-bit extremes
@example(([[-2**63]], [[-1]]))              # 2^63, one past 64 bits
@example(([[127, -127]], [[-1], [-1]]))     # 8-bit extremes
def test_int_mat_mul_matches_indexed_product(factors):
    a, b = factors
    expected = _indexed_product(a, b)
    assert _int_mat_mul(a, _RightFactor(b)) == tuple(map(tuple, expected))


@pytest.mark.parametrize("matrices, message", [
    ([[[1, 2], [3]]], "generator matrix 0 is not 2 x 2: its rows have "
                      "lengths [2, 1]"),
    ([[[1], [2]]], "generator matrix 0 is not 2 x 2: its rows have "
                   "lengths [1, 1]"),
    ([[[], []]], "generator matrix 0 is not 2 x 2: its rows have "
                 "lengths [0, 0]"),
    ([[[1], []]], "generator matrix 0 is not 2 x 2: its rows have "
                  "lengths [1, 0]"),
    ([[[0, -1], [1, 0]], []], "generator matrix 1 is not 2 x 2: its rows "
                              "have lengths []"),
    ([[[0, -1], [1, 0]], [[1]]], "generator matrix 1 is not 2 x 2: its "
                                 "rows have lengths [1]"),
], ids=["short-row", "tall", "no-columns", "ragged", "no-rows",
        "mixed-sizes"])
def test_generator_shapes_are_checked_before_the_closure(matrices, message):
    # every generator is n x n, n the size of the first, before any product
    group = cyclic(4)
    with pytest.raises(InvalidRepresentation) as raised:
        IntegralRepresentation.from_generators(group, [1] * len(matrices),
                                               matrices)
    assert str(raised.value) == message


def test_generator_closure_makes_one_product_per_edge(monkeypatch):
    # |G| - 1 products along the closure's spanning tree define rho, and
    # each other edge x -> xs of the Cayley graph on the given generators,
    # here with a redundant identity generator, is checked by one product
    from rigidtori import hodge
    group = symmetric_3()
    reference = regular_representation(group)
    gens = list(group.generators) + [0]
    calls = []
    monkeypatch.setattr(hodge, "_int_mat_mul",
                        lambda a, b: calls.append(1) or _int_mat_mul(a, b))
    rep = IntegralRepresentation.from_generators(
        group, gens, [reference.matrices[g] for g in gens])
    assert len(calls) == group.order * len(gens)
    assert rep.matrices == reference.matrices


def test_closure_refuses_an_inconsistency_off_the_spanning_tree():
    # M = [[1, 1], [0, 1]] has infinite order: the tree sets rho(g^k) = M^k
    # for k < 4, and only the edge g^3 -> e off the tree sees M^4 != I
    group = cyclic(4)
    assert group.element_order[1] == 4
    with pytest.raises(InvalidRepresentation, match="not a homomorphism"):
        IntegralRepresentation.from_generators(group, [1], [[[1, 1], [0, 1]]])


_NONTRIVIAL_GROUPS = [g for g in small_groups() if g.order > 1]


def _combination(table, mults):
    return tuple(sum((table.rows[r][k] * m for r, m in enumerate(mults) if m),
                     table.field.zero()) for k in range(table.size))


@given(st.data())
def test_proposed_multiplicities_are_the_exact_decomposition(data):
    from rigidtori.hodge import HodgeCharacter
    table = table_for(data.draw(st.sampled_from(_NONTRIVIAL_GROUPS)))
    mults = data.draw(st.lists(st.integers(0, 3), min_size=table.size,
                               max_size=table.size))
    values = _combination(table, mults)
    assert table.rounded_decomposition(values) == mults
    assert [ip.as_rational() for ip in table.decompose(values)] == mults
    assert HodgeCharacter(table=table, values=values).multiplicities == mults


@given(st.data())
def test_a_rejected_proposal_raises_the_exact_message(data):
    # half a row, or one class value off by 1, is no character: the
    # proposal is rejected, and the exact path words the refusal
    from rigidtori.characters import CharacterTable
    from rigidtori.hodge import HodgeCharacter
    table = table_for(data.draw(st.sampled_from(_NONTRIVIAL_GROUPS)))
    mults = data.draw(st.lists(st.integers(0, 3), min_size=table.size,
                               max_size=table.size))
    values = list(_combination(table, mults))
    if data.draw(st.booleans(), label="half a row"):
        r = data.draw(st.integers(0, table.size - 1), label="row")
        values = [x + table.rows[r][k] * Fraction(1, 2)
                  for k, x in enumerate(values)]
    else:
        k = data.draw(st.integers(0, table.size - 1), label="class")
        values[k] = values[k] + 1
    values = tuple(values)
    with pytest.raises(InconsistentCharacter) as proposed:
        HodgeCharacter(table=table, values=values).multiplicities
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(CharacterTable, "rounded_decomposition",
                        lambda self, values: None)
        with pytest.raises(InconsistentCharacter) as exact:
            HodgeCharacter(table=table, values=values).multiplicities
    assert str(proposed.value) == str(exact.value)


def test_hodge_character_trivial_group():
    rep = trivial_action(4)
    chi = hodge_character_from_numeric(
        rep, [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert chi.values[0].as_rational() == 2


def test_hodge_character_gaussian_bridge():
    rep = gaussian_action()
    j = [[0.0, -1.0], [1.0, 0.0]]
    chi = hodge_character_from_numeric(rep, j)
    table = chi.table
    z = table.field.zeta()
    # with J = rho(g), the group acts on V^{1,0} as multiplication by i
    gen = next(x for x in range(4) if rep.group.element_order[x] == 4
               and rep.matrices[x] == ((0, -1), (1, 0)))
    assert chi.values[table.classes.membership[gen]] == z
    chi.check_hodge_symmetry(rep)


def test_hodge_symmetry_on_random_fixtures():
    rng = random.Random(11)
    groups = small_groups()
    for _ in range(5):
        rep, st = random_hodge_fixture(rng, groups=groups)
        chi = st.hodge_character()
        chi.check_hodge_symmetry(rep)


def test_rounding_failure_on_noninvariant_j():
    rep = gaussian_action()
    bad_j = [[0.0, -1.0], [1.0, 0.3]]
    with pytest.raises(RoundingFailure):
        hodge_character_from_numeric(rep, bad_j)


def test_rigidity_trivial_group_is_n_squared():
    for n in (1, 2, 3):
        rep = trivial_action(2 * n)
        table = character_table(rep.group)
        F = table.field
        chi_vals = (F.from_rational(n),)
        from rigidtori.hodge import HodgeCharacter
        chi = HodgeCharacter(table=table, values=chi_vals)
        report = rigidity_by_character(chi)
        assert report.hom_dimension == n * n
        assert not report.is_rigid


def test_rigidity_gaussian_is_rigid():
    rep = gaussian_action()
    chi = hodge_character_from_numeric(rep, [[0.0, -1.0], [1.0, 0.0]])
    report = rigidity_by_character(chi)
    assert report.hom_dimension == 0
    assert report.is_rigid
    assert all(row[4] == 0 for row in
               rigidity_by_centre(spec_from_character(chi)).tau_rows)


def test_rigidity_z2_minus_one():
    g = cyclic(2)
    rep = IntegralRepresentation(g, [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]])
    table = character_table(g)
    from rigidtori.hodge import HodgeCharacter
    F = table.field
    # chi10(e) = 1, chi10(g) = -1
    vals = tuple(F.from_rational(1 if table.classes.representatives[k] == 0
                                 else -1)
                 for k in range(table.size))
    chi = HodgeCharacter(table=table, values=vals)
    report = rigidity_by_character(chi)
    assert report.hom_dimension == 1
    assert not report.is_rigid


def test_inconsistent_character_rejected():
    table = character_table(cyclic(2))
    F = table.field
    from rigidtori.hodge import HodgeCharacter
    vals = tuple(F.from_rational(Fraction(1, 2)) for _ in range(2))
    with pytest.raises(InconsistentCharacter):
        rigidity_by_character(HodgeCharacter(table=table, values=vals))


def test_rigidity_by_centre_examples():
    # Q(i) with one-sided tau is rigid
    rep = gaussian_action()
    spec = full_hodge_spec(rep, lambda j, orbit, mult: tuple(
        (a, (mult if i == 0 else 0))
        for i, a in enumerate(orbit.field_spec.coset_reps())))
    report = rigidity_by_centre(spec)
    assert report.is_rigid
    # totally real active is never rigid
    rep2 = trivial_action(2)
    spec2 = full_hodge_spec(rep2, lambda j, orbit, mult: tuple(
        (a, mult // 2) for a in orbit.field_spec.coset_reps()))
    assert not rigidity_by_centre(spec2).is_rigid


def test_hs_violation_detected():
    rep = gaussian_action()
    with pytest.raises(HSViolation):
        spec = full_hodge_spec(rep, lambda j, orbit, mult: tuple(
            (a, mult) for a in orbit.field_spec.coset_reps()))
        rigidity_by_centre(spec)


def test_hs_violating_spec_cannot_be_built():
    # a spec is valid by construction: tau(a) + tau(conj a) = 2 != 1 on the
    # Gaussian field raises while the spec is built, before any pathway
    decomp = galois_orbits(character_table(cyclic(4)))
    summands = tuple(
        SummandType(j, int(j == 0), tuple(
            (a, int(j == 0)) for a in o.field_spec.coset_reps()))
        for j, o in enumerate(decomp.orbits))
    with pytest.raises(HSViolation):
        SymbolicHodgeSpec(decomposition=decomp, summands=summands)


def _tau_rows_oracle(table, mults):
    """The tau rows read off the multiplicities of chi10 rather than off a
    Hodge type: tau(a) = chi_a(1) * mult(chi_a) for the character chi_a at
    each embedding coset a of each centre field."""
    rows = []
    for j, orbit in enumerate(galois_orbits(table).orbits):
        coset_to_row = dict(orbit.coset_to_row)
        spec = orbit.field_spec
        for a in spec.coset_reps():
            r = coset_to_row[a]
            rbar = coset_to_row[spec.conjugate_coset(a)]
            tau = table.degrees[r] * mults[r]
            tau_bar = table.degrees[rbar] * mults[rbar]
            rows.append((j, a, tau, tau_bar, tau * tau_bar))
    return tuple(rows)


@given(seed=st.integers(0, 10**6))
def test_centre_tau_rows_match_the_character_oracle(seed):
    rep, structure = random_hodge_fixture(random.Random(seed), max_rank=6)
    chi = structure.hodge_character()
    assert rigidity_by_centre(spec_from_character(chi)).tau_rows == \
        _tau_rows_oracle(chi.table, chi.multiplicities)


def test_centre_tau_rows_match_the_oracle_on_every_rigid_type():
    # every rigid type of each CM isotypic model of the bundled groups'
    # regular representations, realized exactly: the spec's own tau rows
    # are the ones its structure's chi10 decomposes into
    swept = 0
    for group in small_groups():
        decomp = galois_orbits(character_table(group))
        reg = regular_representation(group)
        pieces = isotypic_split(reg, decomp)
        for j, orbit in enumerate(decomp.orbits):
            if orbit.tag != "CM" or len(pieces[j]) > 8:
                continue
            model, _ = integral_model(reg, pieces[j])
            mults = [len(img) // o.field_spec.degree for img, o in
                     zip(isotypic_split(model, decomp), decomp.orbits)]
            for spec in enumerate_rigid_types(decomp, mults):
                chi = exact_structure_from_spec(model, spec).hodge_character()
                assert rigidity_by_centre(spec).tau_rows == \
                    _tau_rows_oracle(chi.table, chi.multiplicities)
                swept += 1
    assert swept == 116, swept


def test_isotypic_images_properties():
    # each image is stable under the generators, and the images' ranks sum
    # to the rank while together they span Q^{2n}: a direct sum
    for build in (gaussian_action, eisenstein_action,
                  lambda: regular_representation(cyclic(3)),
                  lambda: regular_representation(symmetric_3())):
        rep = build()
        table = character_table(rep.group)
        decomp = galois_orbits(table)
        images = isotypic_split(rep, decomp)
        assert len(images) == len(decomp.orbits)
        for image in images:
            for g in rep.generator_indices():
                for v in image:
                    assert linalg.in_span(image,
                                          linalg.mat_vec(rep.matrices[g], v))
        assert sum(len(image) for image in images) == rep.rank
        assert linalg.rank([v for image in images for v in image]) == rep.rank


def test_isotypic_split_gaussian_single_summand():
    rep = gaussian_action()
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    ranks = {decomp.orbits[j].tag: len(img)
             for j, img in enumerate(pieces) if img}
    assert ranks == {"CM": 2}


def test_isotypic_split_regular_z3():
    rep = regular_representation(cyclic(3))
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    by_tag = sorted((decomp.orbits[j].tag, len(img))
                    for j, img in enumerate(pieces))
    assert by_tag == [("CM", 2), ("TotallyReal", 1)]


def test_f_module_basis_dimensions():
    # regular rep of Z4: CM summand has rank 2 over Q, one copy over Q(i)
    rep = regular_representation(cyclic(4))
    table = character_table(rep.group)
    decomp = galois_orbits(table)
    pieces = isotypic_split(rep, decomp)
    centre_mats = rep.class_sums
    cm_index = next(j for j, o in enumerate(decomp.orbits) if o.tag == "CM")
    images, orbits = f_module_basis(pieces[cm_index], centre_mats)
    assert len(images) == 1
    # the images S_k w of w = d v in integers, d the lcm of v's denominators
    (den, vectors), = images
    gen = [Fraction(x, den) for x in vectors[0]]
    assert gen in pieces[cm_index]
    assert den == lcm(*(x.denominator for x in gen))
    assert vectors == [linalg.mat_vec(mat, vectors[0]) for mat in centre_mats]
    assert len(orbits[0]) == 2
    # doubled copy: two generators with independent orbits
    from rigidtori.fixtures import _double_rep
    rep2 = _double_rep(rep)
    pieces2 = isotypic_split(rep2, decomp)
    centre2 = rep2.class_sums
    images2, orbits2 = f_module_basis(pieces2[cm_index], centre2)
    assert len(images2) == 2
    combined = [v for orb in orbits2 for v in orb]
    assert linalg.rank(combined) == 4


def test_exact_structure_maps_each_generator_once(monkeypatch):
    # rank 8: two copies of Z[zeta5].  The class-sum images S_k v that
    # f_module_basis takes of each F-module generator v are the frame's
    # copies; building the structure takes them once, one mat_vec per
    # (generator, class sum)
    reg5 = regular_representation(cyclic(5))
    decomp = galois_orbits(character_table(cyclic(5)))
    cm = next(j for j, o in enumerate(decomp.orbits) if o.tag == "CM")
    model, _ = integral_model(reg5, isotypic_split(reg5, decomp)[cm])
    from rigidtori.fixtures import _double_rep
    rep = _double_rep(model)
    assert rep.rank == 8
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(isotypic_split(rep, decomp), decomp.orbits)]
    spec = enumerate_rigid_types(decomp, mults)[0]
    calls = []
    mat_vec = linalg.mat_vec

    def counted(a, v):
        calls.append(1)
        return mat_vec(a, v)

    monkeypatch.setattr(linalg, "mat_vec", counted)
    st = exact_structure_from_spec(rep, spec)
    ((_, _, copies),), _ = st.frame
    assert len(copies) == 2
    assert len(calls) == len(copies) * len(rep.class_sums) == 10


def _catalogue_prefix(count):
    # the first `count` groups' entries of the benchmark's action catalogue:
    # two draws per group of small_groups(), from one seeded stream
    rng = random.Random("actions/catalogue")
    for g in small_groups()[:count]:
        for _ in range(2):
            yield random_hodge_fixture(rng, groups=[g])[0]


def test_cm_columns_are_character_eigenvectors():
    # each column u built for a designated coset a of a CM orbit spans the
    # isotypic component of chi' = sigma_a(chi): exactly,
    # S_k u = omega_k(chi') u for every class sum S_k, with
    # omega_k(chi') = |C_k| chi'(g_k) / chi'(1); and each side gets
    # tau(a) columns
    checked = 0
    for rep in _catalogue_prefix(14):
        table = table_for(rep.group)
        decomp = galois_orbits(table)
        pieces = isotypic_split(rep, decomp)
        mults = [len(img) // o.field_spec.degree
                 for img, o in zip(pieces, decomp.orbits)]
        omegas = [[table.rows[r][k] * Fraction(size, table.degrees[r])
                   for k, size in enumerate(table.classes.sizes)]
                  for r in range(table.size)]
        for spec in enumerate_rigid_types(decomp, mults):
            sides = {}   # row of chi' -> tau at its coset
            for s in spec.summands:
                for a, row in decomp.orbits[s.orbit_index].coset_to_row:
                    if s.multiplicity and s.tau_dict()[a] == s.multiplicity:
                        sides[row] = s.multiplicity
            found = dict.fromkeys(sides, 0)
            for u in exact_structure_from_spec(rep, spec).u_columns:
                images = [linalg.mat_vec(mat, u) for mat in rep.class_sums]
                rows = [r for r in sides
                        if all(image == [omegas[r][k] * x for x in u]
                               for k, image in enumerate(images))]
                assert len(rows) == 1
                found[rows[0]] += 1
            assert found == sides
            checked += 1
    assert checked >= 10, checked


def test_enumerate_rigid_types_counts():
    # Q(i), multiplicity 1 -> 2 types
    rep = gaussian_action()
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(pieces, decomp.orbits)]
    assert len(enumerate_rigid_types(decomp, mults)) == 2
    # Q(zeta5), multiplicity 1 -> 4 types
    reg5 = regular_representation(cyclic(5))
    decomp5 = galois_orbits(character_table(cyclic(5)))
    pieces5 = isotypic_split(reg5, decomp5)
    cm = next(j for j, o in enumerate(decomp5.orbits) if o.tag == "CM")
    model, _ = integral_model(reg5, pieces5[cm])
    pieces_model = isotypic_split(model, decomp5)
    mults5 = [len(img) // o.field_spec.degree
              for img, o in zip(pieces_model, decomp5.orbits)]
    assert mults5[cm] == 1 and sum(mults5) == 1
    assert len(enumerate_rigid_types(decomp5, mults5)) == 4
    # any active totally real field -> no rigid types
    decomp_s3 = galois_orbits(character_table(symmetric_3()))
    assert enumerate_rigid_types(decomp_s3, [1, 0, 0]) == []


def test_enumerate_validates_all_types():
    decomp = galois_orbits(character_table(cyclic(8)))
    mults = [1 if o.tag == "CM" else 0 for o in decomp.orbits]
    specs = enumerate_rigid_types(decomp, mults)
    for sp in specs:
        assert rigidity_by_centre(sp).is_rigid
    expected = 1
    for o, m in zip(decomp.orbits, mults):
        if m:
            expected *= 2 ** (o.field_spec.degree // 2)
    assert len(specs) == expected


def test_brute_force_trivial_rank2():
    rep = trivial_action(2)
    spec = full_hodge_spec(rep, lambda j, orbit, mult: tuple(
        (a, mult // 2) for a in orbit.field_spec.coset_reps()))
    st = exact_structure_from_spec(rep, spec)
    assert brute_force_hom_dimension(st) == 1


def test_brute_force_z3_rotation_rigid():
    rep = eisenstein_action()
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(pieces, decomp.orbits)]
    spec = enumerate_rigid_types(decomp, mults)[0]
    st = exact_structure_from_spec(rep, spec)
    assert brute_force_hom_dimension(st) == 0


def test_brute_force_rank_cap():
    g = cyclic(1)
    n = BRUTE_FORCE_RANK_CAP + 2
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rep = IntegralRepresentation(g, [ident])
    K = CyclotomicField(4)
    z = K.zeta()
    cols = []
    for k in range(n // 2):
        col = [K.zero()] * n
        col[k] = K.one()
        col[n // 2 + k] = z
        cols.append(col)
    st = reference_structure(rep, K, cols)
    with pytest.raises(InvalidRepresentation):
        brute_force_hom_dimension(st)


def test_brute_force_cross_checks_chi10():
    rep = gaussian_action()
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(pieces, decomp.orbits)]
    specs = enumerate_rigid_types(decomp, mults)
    st0 = exact_structure_from_spec(rep, specs[0])
    st1 = exact_structure_from_spec(rep, specs[1])
    chi0 = st0.hodge_character()
    with pytest.raises(InconsistentCharacter):
        brute_force_hom_dimension(st1, chi0)


def test_exact_structure_matches_numeric_character():
    rng = random.Random(13)
    groups = small_groups()
    for _ in range(4):
        rep, st = random_hodge_fixture(rng, groups=groups)
        chi_exact = st.hodge_character()
        j = st.j_matrix_float()
        chi_num = hodge_character_from_numeric(rep, j)
        assert tuple(chi_num.values) == tuple(chi_exact.values)


def _chi10_per_element(rep, j_matrix):
    """The per-element hodge_character_from_numeric that the float-stack
    one replaced, kept as its oracle: each generator's rho(g) converted and
    checked for commutation on its own, each multiplicity summed term by
    term."""
    from rigidtori.hodge import (HodgeCharacter, _COMMUTE_TOL,
                                 _MULTIPLICITY_TOL)
    J = np.asarray(j_matrix, dtype=float)
    n2 = rep.rank
    if J.shape != (n2, n2):
        raise InvalidRepresentation("J matrix has wrong shape")
    if np.linalg.norm(J @ J + np.eye(n2)) > _COMMUTE_TOL * max(
            1.0, np.linalg.norm(J) ** 2):
        raise RoundingFailure("J^2 + I exceeds tolerance")
    for g in rep.generator_indices():
        R = np.asarray(rep.matrices[g], dtype=float)
        if np.linalg.norm(J @ R - R @ J) > _COMMUTE_TOL * max(
                1.0, np.linalg.norm(R)):
            raise RoundingFailure(f"J does not commute with rho({g})")
    table = table_for(rep.group)
    m = table.field.m
    values = []
    for k, g in enumerate(table.classes.representatives):
        e = rep.group.element_order[g]
        chi_num = []
        h = 0
        for _ in range(e):
            R = np.asarray(rep.matrices[h], dtype=float)
            chi_num.append((np.trace(R) - 1j * np.trace(R @ J)) / 2.0)
            h = rep.group.table[h][g]
        exps = {}
        for j in range(e):
            mult = sum(chi_num[t] * np.exp(-2j * np.pi * j * t / e)
                       for t in range(e)) / e
            nearest = round(mult.real)
            if abs(mult - nearest) > _MULTIPLICITY_TOL or nearest < 0:
                raise RoundingFailure(
                    f"eigenvalue multiplicity {mult} at class {k} "
                    "is not a nonnegative integer")
            if nearest:
                exps[(m // e) * j] = nearest
        values.append(table.field.from_exponent_dict(exps))
    chi = HodgeCharacter(table=table, values=tuple(values))
    chi.check_hodge_symmetry(rep)
    return chi


def _chi10_outcome(fn, rep, j_matrix):
    """The values, or the error class and its message without the float
    value of a multiplicity (the two kernels round it differently)."""
    import re
    try:
        return tuple(fn(rep, j_matrix).values)
    except (RoundingFailure, InconsistentCharacter) as exc:
        return type(exc), re.sub(r"multiplicity \S+ at", "multiplicity at",
                                 str(exc))


@given(seed=st.integers(0, 10**6),
       kind=st.sampled_from(["exact", "added", "conjugated"]),
       size=st.sampled_from([1e-15, 1e-12, 1e-10, 1e-8, 1e-5, 1e-2]))
def test_float_stack_chi10_matches_the_per_element_loop(seed, kind, size):
    # the same exact values, or the same error class naming the same first
    # generator or class, on exact J and on J perturbed around and past the
    # tolerances: J + size N breaks J^2 = -I, P J P^-1 with P = I + size N
    # keeps it and breaks the commutation
    rng = random.Random(seed)
    rep, structure = random_hodge_fixture(rng, max_rank=6)
    j = structure.j_matrix_float()
    noise = np.random.default_rng(seed).standard_normal(j.shape)
    if kind == "added":
        j = j + size * noise
    elif kind == "conjugated":
        p = np.eye(len(j)) + size * noise
        j = p @ j @ np.linalg.inv(p)
    assert _chi10_outcome(hodge_character_from_numeric, rep, j) == \
        _chi10_outcome(_chi10_per_element, rep, j)


@pytest.mark.parametrize("power, j_matrix, message", [
    (200, [[0, -1], [1, 0]], "float range"),
    (100, [[1e200, -1e200], [1e200, -1e200]], "not finite")],
    ids=["rho-overflows", "products-overflow"])
def test_chi10_beyond_the_float_range_is_a_rounding_failure(power, j_matrix,
                                                            message):
    # rho(g) conjugated by [[1, b], [0, 1]], b = 10^power, has entries near
    # b^2: at 10^400 rho has no float form; at 10^200 it has, but the
    # products with J overflow, both checks on J pass vacuously on inf and
    # nan, and the multiplicities come out nan
    big = 10**power
    gen = [[big, -1 - big * big], [1, -big]]
    rep = IntegralRepresentation.from_generators(cyclic(4), [1], [gen])
    with pytest.raises(RoundingFailure, match=message):
        hodge_character_from_numeric(rep, j_matrix)


def test_spec_from_character_roundtrip():
    rep = gaussian_action()
    chi = hodge_character_from_numeric(rep, [[0.0, -1.0], [1.0, 0.0]])
    spec = spec_from_character(chi)
    spec.validate_hs()
    assert rigidity_by_centre(spec).is_rigid
    st = exact_structure_from_spec(rep, spec)
    assert tuple(st.hodge_character().values) == tuple(chi.values)


def test_oracle_agreement_small_sample():
    rng = random.Random(17)
    groups = small_groups()
    for _ in range(10):
        rep, st = random_hodge_fixture(rng, groups=groups)
        chi = st.hodge_character()
        r1 = rigidity_by_character(chi)
        r2 = rigidity_by_centre(spec_from_character(chi))
        d3 = brute_force_hom_dimension(st, chi)
        assert r1.is_rigid == r2.is_rigid == (d3 == 0)
        assert r1.hom_dimension == d3


def _gaussian_structure(second):
    """The Gaussian action on Z^2 with U spanned by (1, second) over Q(i)."""
    rep = gaussian_action()
    K = CyclotomicField(4)
    return rep, reference_structure(rep, K, [[K.one(), K.one() * second]])


def test_structure_rejects_u_not_g_stable():
    # u = (1, 2i) spans with its conjugate, but rho(i) u is not a multiple
    i = CyclotomicField(4).zeta()
    rep, st = _gaussian_structure(i * 2)
    with pytest.raises(InvalidRepresentation):
        st.hodge_character()
    with pytest.raises(InvalidRepresentation):
        brute_force_hom_dimension(st)
    _, good = _gaussian_structure(-i)
    with pytest.raises(InvalidRepresentation):
        brute_force_hom_dimension(st, good.hodge_character())


@pytest.mark.parametrize("seed", range(4))
def test_packed_products_match_products_over_k(seed):
    # X rho(g) P, the projector's traces and the pairing U^T F P, all read
    # from packed integers, against the full inverse P^-1 and products over
    # K; the second structure scales U by a rational past the 64-bit
    # slots, which leaves rho's action on U alone
    rep, st = random_hodge_fixture(random.Random(seed), groups=small_groups())
    big = Fraction(2**70 + 1, 3)
    scaled = ExactHodgeStructure(
        rep, st.field, [[x * big for x in col] for col in st.u_columns],
        [[x * (1 / big) for x in row] for row in st.top_inverse])
    table = table_for(rep.group)
    rng = random.Random(seed)
    form = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rep.rank)] for _ in range(rep.rank)]
    form_k = [[st.field.from_rational(x) for x in row] for row in form]
    for s in (st, scaled):
        n = s.n
        full = s.u_columns + [[x.conjugate() for x in col]
                              for col in s.u_columns]
        p = linalg.transpose(full)
        inverse = linalg.inverse(p)
        for g in set(rep.generator_indices()) | set(
                table.classes.representatives):
            rho = [[s.field.from_rational(x) for x in row]
                   for row in rep.matrices[g]]
            action = linalg.mat_mul(inverse, linalg.mat_mul(rho, p))
            assert s.restricted_action(g) == (
                [row[:n] for row in action[:n]],
                [row[n:] for row in action[n:]])
        chi, expected = s.hodge_character(), st.hodge_character()
        assert (chi.table, chi.values) == (expected.table, expected.values)
        assert s.pairing(form) == linalg.mat_mul(
            s.u_columns, linalg.mat_mul(form_k, p))
    a, _ = scaled.restricted_action(rep.generator_indices()[0])
    assert a == st.restricted_action(rep.generator_indices()[0])[0]


def test_packed_slots_hold_their_bound():
    # with every coefficient at the peak, the middle slot of a product of
    # packed matrices reaches the bound the reader is built for itself: the
    # inner dimension times phi(m) products of two peaks
    from rigidtori.cyclotomic import _reduce, _reducer
    from rigidtori.hodge import _packed
    field = CyclotomicField(7)
    deg = field.degree
    for peak in (1, 3, 2**8, 2**63 - 1):
        for sign in (1, -1):
            bits, read = _reducer(field, 3 * deg * peak * peak)
            (value,), = linalg.mat_mul(_packed([[(peak,) * deg] * 3], bits),
                                  _packed([[(sign * peak,) * deg]] * 3, bits))
            conv = [sign * 3 * peak * peak * min(k + 1, 2 * deg - 1 - k)
                    for k in range(2 * deg - 1)]
            assert read(value) == _reduce(field, conv)


def test_structure_rejects_u_that_does_not_span():
    # a real u equals its conjugate, so U + conj(U) is a line
    with pytest.raises(InvalidRepresentation, match="does not span"):
        _gaussian_structure(1)


def test_hodge_character_runs_one_elimination(monkeypatch):
    # the basis inverse at construction is the only elimination: no solve
    # per conjugacy class, and no rank pass before the inverse
    i = CyclotomicField(4).zeta()
    table_for(gaussian_action().group)
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda a: calls.append(1) or rref(a))
    _, st = _gaussian_structure(-i)
    chi = st.hodge_character()
    assert len(calls) == 1
    assert rigidity_by_character(chi).is_rigid


def test_rational_table_reads_traces_without_a_solve(monkeypatch):
    # exponent <= 2: the table is over Q and the structure over Q(i), so
    # each trace is read as a rational, with no elimination
    from rigidtori.hodge import _coerce_to_subcyclotomic
    rep, st = random_hodge_fixture(random.Random(3), groups=[cyclic(2)])
    assert st.field.m == 4
    table_for(rep.group)
    monkeypatch.setattr(linalg, "solve", None)
    chi = st.hodge_character()
    assert all(v.field is chi.table.field for v in chi.values)
    i = st.field.zeta()
    with pytest.raises(ValueError, match="leaves"):
        _coerce_to_subcyclotomic(i, chi.table.field)
    assert _coerce_to_subcyclotomic(i * i, chi.table.field) == -1


def test_hodge_character_is_the_trace_of_the_restricted_action():
    from rigidtori.hodge import _coerce_to_subcyclotomic
    rng = random.Random(13)
    groups = small_groups()
    for _ in range(6):
        rep, st = random_hodge_fixture(rng, groups=groups)
        chi = st.hodge_character()
        for k, g in enumerate(chi.table.classes.representatives):
            a, b = st.restricted_action(g)
            tr = st.field.zero()
            for t in range(st.n):
                tr = tr + a[t][t]
            assert _coerce_to_subcyclotomic(tr, chi.table.field) == \
                chi.values[k]
            assert [[x.conjugate() for x in row] for row in a] == b


def companion_action(m):
    """Z_m on Z[zeta_m]: a generator acts by the companion matrix of
    Phi_m, multiplication by zeta_m in the power basis."""
    phi = CyclotomicField(m).modulus
    d = len(phi) - 1
    comp = [[int(i == j + 1) for j in range(d)] for i in range(d)]
    for i in range(d):
        comp[i][d - 1] = -phi[i]
    group = cyclic(m)
    gen = next(x for x in range(m) if group.element_order[x] == m)
    return IntegralRepresentation.from_generators(group, [gen], [comp])


def _rigid_specs(rep):
    """The first and the last rigid type of the action."""
    decomp = galois_orbits(table_for(rep.group))
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(isotypic_split(rep, decomp), decomp.orbits)]
    specs = enumerate_rigid_types(decomp, mults)
    return [specs[0], specs[-1]]


def _wreath_specs():
    from test_deform import wreath_action
    for k, n in ((4, 2), (4, 3), (6, 2), (6, 3)):
        rep, j = wreath_action(k, n)
        yield rep, spec_from_character(hodge_character_from_numeric(rep, j))


def _assert_x_is_the_solved_half_inverse(st):
    assert st.top_inverse == reference_structure(
        st.rep, st.field, st.u_columns).top_inverse


def test_x_from_the_table_is_the_solved_half_inverse_on_the_catalogue():
    # every catalogue action: the X its fixture carries (block-diagonal,
    # then times T^-1) and, for every type that is realizable, the X read
    # off the table, rigid ones and real pairs (w1 + mu w2) alike
    rigid = paired = 0
    rng = random.Random("actions/catalogue")
    for g in small_groups():
        for _ in range(2):
            rep, fixture = random_hodge_fixture(rng, groups=[g])
            _assert_x_is_the_solved_half_inverse(fixture)
            chi = fixture.hodge_character()
            spec = spec_from_character(chi)
            try:
                st = exact_structure_from_spec(rep, spec)
            except (HSViolation, InvalidRepresentation):
                assert not rigidity_by_character(chi).is_rigid
                continue
            _assert_x_is_the_solved_half_inverse(st)
            rigid += rigidity_by_character(chi).is_rigid
            paired += any(spec.decomposition.orbits[s.orbit_index].tag
                          != "CM" for s in spec.summands if s.multiplicity)
    assert rigid >= 8 and paired >= 8, (rigid, paired)


@pytest.mark.parametrize("m", range(3, 22))
def test_x_from_the_table_is_the_solved_half_inverse_on_z_m(m):
    rep = companion_action(m)
    for spec in _rigid_specs(rep):
        _assert_x_is_the_solved_half_inverse(
            exact_structure_from_spec(rep, spec))


def test_x_from_the_table_is_the_solved_half_inverse_on_wreath_products():
    for rep, spec in _wreath_specs():
        _assert_x_is_the_solved_half_inverse(
            exact_structure_from_spec(rep, spec))


def test_an_x_moved_by_one_entry_is_refused():
    # X P = [I | 0] is certified at construction: moving any one entry of
    # X by 1 breaks it
    st = exact_structure_from_spec(companion_action(5),
                                   _rigid_specs(companion_action(5))[0])
    for i, row in enumerate(st.top_inverse):
        for j in range(len(row)):
            x = [list(r) for r in st.top_inverse]
            x[i][j] = x[i][j] + 1
            with pytest.raises(InvalidRepresentation, match="does not span"):
                ExactHodgeStructure(st.rep, st.field, st.u_columns, x)


def test_structures_and_polarizations_run_no_elimination_over_k(
        monkeypatch):
    # a structure is built with one rational inverse (the frame's) and no
    # elimination over a cyclotomic field; the polarization built on it
    # reuses that inverse and runs none of its own
    from rigidtori.cyclotomic import CyclotomicNumber
    from rigidtori.polarize import assemble_polarization
    rref, inverse = linalg.rref, linalg.inverse
    inverses = []

    def rational_rref(a):
        if any(isinstance(x, CyclotomicNumber) for row in a for x in row):
            raise AssertionError("an elimination over a cyclotomic field")
        return rref(a)

    cases = [(companion_action(m), spec) for m in (7, 9, 15, 16)
             for spec in _rigid_specs(companion_action(m))]
    for rep, spec in cases + list(_wreath_specs()):
        # a subfield inverts its basis once, on its first coordinates
        assemble_polarization(rep, spec=spec)
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "rref", rational_rref)
            patched.setattr(linalg, "inverse",
                            lambda a: inverses.append(1) or inverse(a))
            st = exact_structure_from_spec(rep, spec)
            assert len(inverses) == 1
            st.hodge_character()
            assemble_polarization(rep, spec=spec, structure=st)
            assert len(inverses) == 1
        del inverses[:]


def test_equal_tables_compute_their_classes_once(monkeypatch):
    # two groups with one Cayley table share the memoized table, and the
    # class sums read its classes instead of computing them again
    from rigidtori.groups import FiniteGroup

    calls = []
    class_data = FiniteGroup._class_data

    def counted(self):
        calls.append(self)
        return class_data(self)

    monkeypatch.setattr(FiniteGroup, "_class_data", counted)
    reps = [regular_representation(cyclic(6)) for _ in range(2)]
    assert reps[0].group is not reps[1].group
    assert reps[0].group.table == reps[1].group.table
    for rep in reps:
        table_for(rep.group)
        rep.class_sums
    assert len(calls) == 1
    assert reps[0].class_sums == reps[1].class_sums
