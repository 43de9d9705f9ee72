import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigidtori.characters import character_table, galois_orbits
from rigidtori.cyclotomic import CyclotomicField, SubfieldSpec
from rigidtori.fixtures import (NON_CM_QUARTIC, cyclic, eisenstein_action,
                                gaussian_action, random_hodge_fixture,
                                trivial_action)
from rigidtori.groups import FiniteGroup
from rigidtori.hodge import (IntegralRepresentation, enumerate_rigid_types,
                             exact_structure_from_spec,
                             hodge_character_from_numeric, isotypic_split,
                             rigidity_by_centre, spec_from_character)
from rigidtori.polarize import (ExistenceCertificate, NotPositiveDefinite,
                                NotRigid, RelationIFails, RosatiFails,
                                assemble_polarization, find_zeta,
                                imaginary_subspace, polarization_exists,
                                trace_form)
from rigidtori.polarize import _integral, _verify_g_invariance
from rigidtori.polyfields import RealEmbeddingPresent, ReduciblePolynomial
from rigidtori.schemas import SchemaError
from rigidtori import linalg, polarize


def rosati_witness(e_rows, rep):
    """The class-sum Rosati oracle: None when E(z v, w) = E(v, conj(z) w)
    for every class sum z (conj sends a class to the class of inverses),
    else (class, entry) of the first failure.  Exact, in integers on D * E:
    the identity is homogeneous in E, so it fails for D * E at the same
    entries as for E."""
    classes = rep.classes
    mats = rep.class_sums
    e_int = _integral([[Fraction(x) for x in row] for row in e_rows])
    for idx in range(classes.count):
        left = linalg.mat_mul(linalg.transpose(mats[idx]), e_int)
        right = linalg.mat_mul(e_int, mats[classes.inverse_class(idx)])
        if left != right:
            return idx, next((i, j) for i in range(len(left))
                             for j in range(len(left))
                             if left[i][j] != right[i][j])
    return None


def verify_polarization(e_mat, structure):
    """The certificate under the name `rosati_oracle` patches."""
    return polarize.verify_polarization(e_mat, structure)


@pytest.fixture(autouse=True)
def rosati_oracle(monkeypatch):
    """Every form the certificate passes here, assembled or given, also
    passes the class-sum Rosati oracle, which G-invariance implies."""
    verify = polarize.verify_polarization

    def checked(e_mat, structure):
        cert = verify(e_mat, structure)
        assert rosati_witness(e_mat, structure.rep) is None
        return cert
    monkeypatch.setattr(polarize, "verify_polarization", checked)


def cm_subfield(m, subgroup=(1,)):
    return SubfieldSpec(CyclotomicField(m), subgroup)


def test_imaginary_subspace_qi():
    S = cm_subfield(4)
    basis = imaginary_subspace(S)
    assert len(basis) == 1
    z = CyclotomicField(4).zeta()
    assert linalg.rank([list(basis[0].coeffs), list(z.coeffs)]) == 1


def test_imaginary_subspace_q5():
    S = cm_subfield(5)
    basis = imaginary_subspace(S)
    assert len(basis) == 2
    F = CyclotomicField(5)
    z = F.zeta()
    named = [z - z ** 4, z ** 2 - z ** 3]
    combined = [list(b.coeffs) for b in basis] + [list(v.coeffs) for v in named]
    assert linalg.rank(combined) == 2
    for b in basis:
        assert b.conjugate() == -b


def test_imaginary_subspace_rejects_totally_real():
    with pytest.raises(RealEmbeddingPresent):
        imaginary_subspace(cm_subfield(5, (1, 4)))
    with pytest.raises(RealEmbeddingPresent):
        imaginary_subspace(cm_subfield(1))


def test_find_zeta_qi():
    S = cm_subfield(4)
    zeta = find_zeta(S, [1])
    assert zeta.element.conjugate() == -zeta.element
    assert dict(zeta.sign_table)[1] == 1
    # any certified zeta here is a positive rational multiple of i
    z = CyclotomicField(4).zeta()
    ratio = zeta.element / z
    assert ratio.as_rational() is not None and ratio.as_rational() > 0


def test_find_zeta_q3():
    S = cm_subfield(3)
    zeta = find_zeta(S, [1])
    assert dict(zeta.sign_table)[1] == 1
    # the classical witness has the same certified signs
    F = CyclotomicField(3)
    z = F.zeta()
    classical = z - z * z
    assert classical.sign_imag(1) == 1


def test_find_zeta_q5_both_signs_certified():
    S = cm_subfield(5)
    reps = S.coset_reps()
    designated = [1, 2]
    zeta = find_zeta(S, designated)
    table = dict(zeta.sign_table)
    for a in designated:
        assert table[a] == 1
        assert table[S.conjugate_coset(a)] == -1


def test_find_zeta_validates_designation():
    S = cm_subfield(5)
    with pytest.raises(ValueError):
        find_zeta(S, [1, 4])  # both from one conjugate pair
    with pytest.raises(ValueError):
        find_zeta(S, [1])     # missing the other pair
    with pytest.raises(ValueError):
        find_zeta(cm_subfield(4), [2])  # 2 is not a unit mod 4
    with pytest.raises(RealEmbeddingPresent):
        find_zeta(cm_subfield(5, (1, 4)), [1])  # Q(sqrt 5) is real


def test_trace_form_golden_qi():
    S = cm_subfield(4)
    zeta = find_zeta(S, [1])
    F = CyclotomicField(4)
    basis = [F.one(), F.zeta()]
    m = trace_form(S, zeta.element, basis)
    q = m[0][1] / 2
    assert q > 0
    assert m == [[Fraction(0), 2 * q], [-2 * q, Fraction(0)]]


def test_trace_form_brute_force_2x2():
    # E(x, y) = Tr(i x conj(y)) on Q(i) equals 2(ad - bc) for x = a+bi, y = c+di
    S = cm_subfield(4)
    F = CyclotomicField(4)
    i = F.zeta()
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        x = F.from_rational(a) + i * b
        y = F.from_rational(c) + i * d
        val = S.field_trace(i * x * y.conjugate())
        assert val == 2 * (a * d - b * c)


def test_trace_form_always_alternating():
    rng = random.Random(23)
    S = cm_subfield(5)
    basis_im = imaginary_subspace(S)
    for _ in range(4):
        zeta = basis_im[0] * rng.randint(1, 5) + basis_im[1] * rng.randint(-5, 5)
        if zeta.is_zero():
            continue
        m = trace_form(S, zeta, list(S.basis))
        for i in range(len(m)):
            for j in range(len(m)):
                assert m[i][j] == -m[j][i]


def test_trace_form_scaling():
    S = cm_subfield(4)
    F = CyclotomicField(4)
    i = F.zeta()
    base = trace_form(S, i, [F.one(), i])
    scaled = trace_form(S, i * Fraction(3, 7), [F.one(), i])
    assert scaled == [[x * Fraction(3, 7) for x in row] for row in base]


def test_assemble_gaussian_golden():
    rep = gaussian_action()
    form = assemble_polarization(rep, j_matrix=[[0, -1], [1, 0]])
    assert [list(r) for r in form.matrix] == [[0, 1], [-1, 0]]
    cert = form.certificate
    assert cert.mode == "symbolic"
    assert cert.relation_i["ok"] and cert.relation_ii["ok"]
    assert cert.rosati == {"ok": True, "by": "g_invariant"}
    assert cert.g_invariant["invariant"]


def test_assemble_not_rigid():
    with pytest.raises(NotRigid):
        assemble_polarization(trivial_action(2),
                              j_matrix=[[0.0, -1.0], [1.0, 0.0]])


def test_assemble_direct_sum_of_gaussians():
    rep0 = gaussian_action()
    mats = []
    for m in rep0.matrices:
        big = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                big[i][j] = m[i][j]
                big[2 + i][2 + j] = m[i][j]
        mats.append(big)
    rep = IntegralRepresentation(rep0.group, mats)
    j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    form = assemble_polarization(rep, j_matrix=j)
    e = [list(r) for r in form.matrix]
    # block-diagonal with the rank-2 golden block in each slot
    assert e[0][1] == -e[1][0] != 0
    assert e[2][3] == -e[3][2] != 0
    for i, jj in [(0, 2), (0, 3), (1, 2), (1, 3)]:
        assert e[i][jj] == 0 and e[jj][i] == 0


def test_g_averaged_form_is_invariant_and_verifies():
    rep = eisenstein_action()
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(pieces, decomp.orbits)]
    spec = enumerate_rigid_types(decomp, mults)[0]
    form = assemble_polarization(rep, spec=spec)
    assert form.certificate.g_invariant["invariant"]
    e = [list(r) for r in form.matrix]
    for m in rep.matrices:
        rho = [[Fraction(x) for x in row] for row in m]
        assert linalg.mat_mul(linalg.transpose(rho),
                              linalg.mat_mul(e, rho)) == e


def test_scaling_preserves_verdicts():
    rep = gaussian_action()
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(pieces, decomp.orbits)]
    spec = enumerate_rigid_types(decomp, mults)[0]
    st = exact_structure_from_spec(rep, spec)
    form = assemble_polarization(rep, spec=spec)
    e = [list(r) for r in form.matrix]
    for q in (Fraction(3), Fraction(5, 7)):
        scaled = [[x * q for x in row] for row in e]
        cert = verify_polarization(scaled, structure=st)
        assert cert.relation_i["ok"] and cert.relation_ii["ok"]


def exact_structure_from_numeric(rep, j):
    return exact_structure_from_spec(
        rep, spec_from_character(hodge_character_from_numeric(rep, j)))


def test_verify_rejects_sign_flip():
    rep = gaussian_action()
    form = assemble_polarization(rep, j_matrix=[[0, -1], [1, 0]])
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(pieces, decomp.orbits)]
    st = exact_structure_from_numeric(rep, [[0.0, -1.0], [1.0, 0.0]])
    flipped = [[-x for x in row] for row in form.matrix]
    with pytest.raises(NotPositiveDefinite) as err:
        verify_polarization(flipped, structure=st)
    witness = err.value.witness
    assert witness is not None
    # the witness vector really has nonpositive Hermitian norm for -E
    import numpy as np
    m = witness["conductor"]
    vec = np.array([sum(float(Fraction(c)) * np.exp(2j * np.pi * t / m)
                        for t, c in enumerate(comp))
                    for comp in witness["vector"]])
    e_np = np.array([[float(x) for x in row] for row in flipped])
    val = -1j * (vec @ e_np @ np.conj(vec))
    assert abs(val.imag) < 1e-9
    assert val.real <= 1e-9


def test_verify_rejects_non_alternating():
    st = exact_structure_from_numeric(gaussian_action(),
                                      [[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(RelationIFails):
        verify_polarization([[1, 0], [0, 1]], structure=st)


def test_verify_rejects_rosati_violation():
    # Z4 acting as J (+) identity; pair the blocks to break the centre
    g = cyclic(4)
    gen = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    gen_idx = next(x for x in range(4) if g.element_order[x] == 4)
    rep = IntegralRepresentation.from_generators(g, [gen_idx], [gen])
    e = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    j = [[0.0, -1.0, 0, 0], [1.0, 0.0, 0, 0], [0, 0, 0.0, -1.0], [0, 0, 1.0, 0.0]]
    st = exact_structure_from_numeric(rep, j)
    with pytest.raises(RosatiFails):
        verify_polarization(e, structure=st)


def test_basis_independence_of_assembly(monkeypatch):
    # a different greedy order for the F-module basis gives a different
    # frame, hence a different lattice form, that still passes the full
    # certificate against the same structure
    from rigidtori import hodge

    rep0 = gaussian_action()
    mats = []
    for m in rep0.matrices:
        big = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                big[i][j] = m[i][j]
                big[2 + i][2 + j] = m[i][j]
        mats.append(big)
    rep = IntegralRepresentation(rep0.group, mats)
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(pieces, decomp.orbits)]
    spec = enumerate_rigid_types(decomp, mults)[0]
    st = exact_structure_from_spec(rep, spec)
    ((active, _, _),), _ = st.frame
    image = pieces[active]
    mixed = [[a + 2 * b for a, b in zip(image[0], image[2])],
             image[1], image[2], image[3]]
    forms = []
    f_module_basis = hodge.f_module_basis
    for ordering in (list(image), mixed):
        # the structure's frame is the F-module basis of `ordering`
        monkeypatch.setattr(hodge, "f_module_basis",
                            lambda _, sums: f_module_basis(ordering, sums))
        framed = exact_structure_from_spec(rep, spec)
        monkeypatch.undo()
        form = assemble_polarization(rep, spec=spec, structure=framed)
        cert = verify_polarization(form.matrix, structure=st)
        assert cert.relation_i["ok"] and cert.relation_ii["ok"]
        forms.append(form.matrix)
    assert forms[0] == assemble_polarization(rep, spec=spec).matrix
    assert forms[0] != forms[1]  # the greedy order genuinely changed E


def test_symbolic_positivity_matches_float_eigenvalues():
    # the exact Hermitian-pivot verdict agrees with a floating eigenvalue
    # computation of -i U^T E conj(U) on random rigid fixtures
    import numpy as np
    import random as _random
    from rigidtori.fixtures import random_hodge_fixture, small_groups
    from rigidtori.hodge import rigidity_by_character, spec_from_character
    rng = _random.Random(31337)
    groups = small_groups()
    checked = 0
    while checked < 4:
        rep, st = random_hodge_fixture(rng, groups=groups)
        chi = st.hodge_character()
        if not rigidity_by_character(chi).is_rigid:
            continue
        form = assemble_polarization(rep, spec=spec_from_character(chi))
        e_np = np.array([[float(x) for x in row] for row in form.matrix])
        m = st.field.m
        cols = [[sum(float(c) * np.exp(2j * np.pi * t / m)
                     for t, c in enumerate(x.coeffs)) for x in col]
                for col in st.u_columns]
        u = np.array(cols).T
        herm = -1j * (u.T @ e_np @ np.conj(u))
        herm = (herm + np.conj(herm.T)) / 2
        assert float(np.min(np.linalg.eigvalsh(herm))) > 1e-9
        with pytest.raises(NotPositiveDefinite):
            verify_polarization([[-x for x in row] for row in form.matrix],
                                structure=st)
        checked += 1


def test_polarization_exists_qi():
    cert = polarization_exists((1, 0, 1), (0,))
    assert cert.exists
    # the witness is a positive multiple of i at the designated root
    assert cert.witness_signs[0] == 1


def test_polarization_exists_phi5():
    F_coeffs = (1, 1, 1, 1, 1)
    from rigidtori.polyfields import PolynomialField
    F = PolynomialField(F_coeffs)
    designated = tuple(p[0] for p in F.pairs)
    cert = polarization_exists(F_coeffs, designated)
    assert cert.exists
    for i in designated:
        assert cert.witness_signs[i] == 1


def test_polarization_exists_non_cm_quartic():
    from rigidtori.polyfields import PolynomialField
    F = PolynomialField(NON_CM_QUARTIC)
    for designated in itertools.product(*[p for p in F.pairs]):
        cert = polarization_exists(NON_CM_QUARTIC, designated)
        assert cert.verdict == "infeasible"
        assert cert.obstruction["reason"] == "imaginary-constraint space is zero"
        assert cert.obstruction["constraint_rank"] == 4


def test_polarization_exists_x4_plus_2():
    # non-CM field with a CM subfield: feasibility depends on the alignment
    # of the designated set with the subfield's conjugate pairs
    from rigidtori.polyfields import PolynomialField
    F = PolynomialField((2, 0, 0, 0, 1))
    verdicts = {}
    for designated in itertools.product(*[p for p in F.pairs]):
        cert = polarization_exists((2, 0, 0, 0, 1), designated)
        verdicts[designated] = cert.exists
    assert sorted(verdicts.values()) == [False, False, True, True]


def test_polarization_exists_rejects_bad_inputs():
    with pytest.raises(ReduciblePolynomial):
        polarization_exists((1, 2, 1), (0,))  # (x+1)^2
    with pytest.raises(RealEmbeddingPresent):
        polarization_exists((-2, 0, 1), (0,))  # x^2 - 2
    with pytest.raises(ValueError):
        polarization_exists((1, 0, 1), (0, 1))  # both roots designated
    # a root index out of range or negative is an error in the input
    for designated in ((2,), (0, 2), (-1,), (0, -1)):
        with pytest.raises(SchemaError):
            polarization_exists((1, 0, 1), designated)


def _imaginary_rows_opposite(F, i, j):
    """Im sigma_i(b) = -Im sigma_j(b) on every basis element, to 1e-12."""
    for b in F.imaginary_subspace():
        _, im_i, _ = F.evaluate_box(b, i)
        _, im_j, _ = F.evaluate_box(b, j)
        if abs(float(im_i + im_j)) > 1e-12 * (1 + abs(float(im_i))):
            return False
    return True


def test_polarization_exists_i_plus_fourth_root_of_two():
    # minpoly(i + 2^(1/4)): not CM, largest CM subfield Q(zeta_8), so the
    # purely imaginary elements form a plane; every designation decides
    from rigidtori.polyfields import PolynomialField
    coeffs = (1, 0, 28, 0, 2, 0, 4, 0, 1)
    F = PolynomialField(coeffs)
    assert len(F.imaginary_subspace()) == 2
    verdicts = []
    for designated in itertools.product(*F.pairs):
        cert = polarization_exists(coeffs, designated)
        verdicts.append(cert.verdict)
        if cert.exists:
            assert F.element_is_purely_imaginary(cert.witness)
            for i in range(F.degree):
                assert cert.witness_signs[i] == (1 if i in designated else -1)
        else:
            i, j = cert.obstruction["pair"]
            assert i in designated and j in designated
            assert cert.obstruction["imaginary_dimension"] == 2
            assert _imaginary_rows_opposite(F, i, j)
    assert verdicts.count("exists-with-witness") == 4
    assert verdicts.count("infeasible") == 12


def test_polarization_exists_x6_plus_2_mixed_signs():
    # one imaginary dimension (from Q(sqrt(-2))): the designation (0, 2, 4)
    # asks for opposite signs at roots 0 and 4 of the same generator
    from rigidtori.polyfields import PolynomialField
    coeffs = (2, 0, 0, 0, 0, 0, 1)
    cert = polarization_exists(coeffs, (0, 2, 4))
    assert cert.verdict == "infeasible"
    assert cert.obstruction["pair"] == (0, 4)
    assert cert.obstruction["imaginary_dimension"] == 1
    assert cert.obstruction["identity"] == (
        "Im sigma_0(x) = -Im sigma_4(x) for every purely imaginary x")
    assert _imaginary_rows_opposite(PolynomialField(coeffs), 0, 4)


def test_rosati_witness_on_a_rational_form():
    # a rational alternating E that the generator moves: the certificate
    # names the generator, and the class-sum oracle, run on D * E, fails
    # on the same class and entry as on E
    g = cyclic(4)
    gen = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    gen_idx = next(x for x in range(4) if g.element_order[x] == 4)
    rep = IntegralRepresentation.from_generators(g, [gen_idx], [gen])
    h, t, f = Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)
    e = [[0, t, h, 0], [-t, 0, 0, h], [-h, 0, 0, f], [0, -h, -f, 0]]
    j = [[0.0, -1.0, 0, 0], [1.0, 0.0, 0, 0], [0, 0, 0.0, -1.0], [0, 0, 1.0, 0.0]]
    st = exact_structure_from_numeric(rep, j)
    with pytest.raises(RosatiFails, match=f"generator {gen_idx}") as err:
        verify_polarization(e, structure=st)
    assert err.value.witness == gen_idx
    assert rosati_witness(e, rep) == (1, (0, 2))


def pauli_group():
    """<X, Z, iI> (order 16) on the 8 vectors i^k e_j, point 2k + j."""
    def point(k, j):
        return 2 * (k % 4) + j
    points = [(k, j) for k in range(4) for j in range(2)]
    x = [point(k, 1 - j) for k, j in points]
    z = [point(k + 2 * j, j) for k, j in points]
    i = [point(k + 1, j) for k, j in points]
    return FiniteGroup.from_permutations([x, z, i], name="Pauli")


def _rigid_pauli_actions(count):
    """The first `count` rigid draws of random_hodge_fixture on the Pauli
    group from a fixed seed, as (rep, spec)."""
    group = pauli_group()
    rng = random.Random(5)
    rigid = []
    while len(rigid) < count:
        rep, structure = random_hodge_fixture(rng, groups=[group],
                                              max_rank=12)
        spec = spec_from_character(structure.hodge_character())
        if rigidity_by_centre(spec).is_rigid:
            rigid.append((rep, spec))
    return rigid


def test_pauli_rigid_actions_get_invariant_polarizations():
    # the Pauli group has characters of degree 2 whose trace form is not
    # G-invariant; the default assembly averages it, so both rigid rank-8
    # draws are certified G-invariant
    for rep, spec in _rigid_pauli_actions(2):
        assert rep.rank == 8
        form = assemble_polarization(rep, spec=spec)
        cert = verify_polarization(form.matrix,
                                   exact_structure_from_spec(rep, spec))
        assert cert.g_invariant["invariant"] is True
        assert form.certificate.g_invariant["invariant"] is True


def _record_certificate_steps(monkeypatch):
    calls = []
    for owner, name in ((polarize, "_verify_g_invariance"),
                        (polarize, "verify_polarization"),
                        (IntegralRepresentation, "congruence_sum")):
        monkeypatch.setattr(owner, name, lambda *args, fn=getattr(
            owner, name), name=name: calls.append(name) or fn(*args))
    return calls


def test_a_non_invariant_trace_form_is_certified_once(monkeypatch):
    # a character of degree 2 is active: the generators' integer check
    # finds the trace form not invariant, and only its G-average is
    # certified
    calls = _record_certificate_steps(monkeypatch)
    (rep, spec), = _rigid_pauli_actions(1)
    form = assemble_polarization(rep, spec=spec)
    assert calls == ["_verify_g_invariance", "congruence_sum",
                     "verify_polarization", "_verify_g_invariance"]
    assert form.certificate.g_invariant["invariant"] is True


def test_a_linear_trace_form_is_checked_once(monkeypatch):
    # every active character is linear, so the trace form is invariant and
    # its one invariance check is the certificate's
    calls = _record_certificate_steps(monkeypatch)
    form = assemble_polarization(gaussian_action(), j_matrix=[[0, -1], [1, 0]])
    assert calls == ["verify_polarization", "_verify_g_invariance"]
    assert form.certificate.g_invariant["invariant"] is True


def _klein_four_action():
    """Z2 x Z2 on Z^2: the first generator acts as -1, the second swaps
    the basis vectors, so it sends the standard symplectic form to -E."""
    from rigidtori.fixtures import abelian
    g = abelian((2, 2))
    gens = IntegralRepresentation(g, [[[1, 0], [0, 1]]] * 4).generator_indices()
    return IntegralRepresentation.from_generators(
        g, gens, [[[-1, 0], [0, -1]], [[0, 1], [1, 0]]]), gens


def test_g_invariance_fails_on_the_second_generator():
    rep, gens = _klein_four_action()
    assert len(gens) == 2
    e = [[Fraction(0), Fraction(1, 3)], [Fraction(-1, 3), Fraction(0)]]
    assert _verify_g_invariance(e, rep) == {
        "checked": True, "invariant": False, "witness": gens[1]}


def test_g_invariance_checks_one_product_per_generator(monkeypatch):
    rep = gaussian_action()
    gens = rep.generator_indices()
    assert len(gens) < rep.group.order
    calls = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul",
                        lambda a, b: calls.append(1) or mat_mul(a, b))
    e = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    assert _verify_g_invariance(e, rep) == {"checked": True,
                                            "invariant": True}
    # rho(g)^T (E rho(g)): two matrix products for each generator
    assert len(calls) == 2 * len(gens)


# sha256 of the polarization matrices of the first 20 rigid draws of
# random_hodge_fixture(random.Random(7)), entries as str(Fraction) in JSON
PINNED_RIGID_FORMS = (
    "409edc96b3caab566a8b9df0f4f5f9ea0f1c7e39e6abdb5135afa81bcd289128")


def test_polarization_matrices_are_pinned():
    from rigidtori.fixtures import random_hodge_fixture, small_groups
    from rigidtori.hodge import rigidity_by_character
    rng = random.Random(7)
    groups = small_groups()
    matrices = []
    while len(matrices) < 20:
        rep, st = random_hodge_fixture(rng, groups=groups)
        chi = st.hodge_character()
        if not rigidity_by_character(chi).is_rigid:
            continue
        form = assemble_polarization(rep, spec=spec_from_character(chi))
        matrices.append([[str(x) for x in row] for row in form.matrix])
    digest = hashlib.sha256(json.dumps(matrices).encode()).hexdigest()
    assert digest == PINNED_RIGID_FORMS


def _change_basis(rep, structure, t):
    """(T rho T^-1, T U): the action and V^{1,0} in the lattice basis
    changed by the unimodular T, so that J becomes T J T^-1 and X
    becomes X T^-1."""
    from rigidtori.hodge import ExactHodgeStructure
    t_q = [[Fraction(x) for x in row] for row in t]
    t_inv = linalg.inverse(t_q)
    mats = []
    for m in rep.matrices:
        conj = linalg.mat_mul(t_q, linalg.mat_mul(
            [[Fraction(x) for x in row] for row in m], t_inv))
        mats.append([[int(x) for x in row] for row in conj])
    new_rep = IntegralRepresentation(rep.group, mats)
    field = structure.field
    t_k = [[field.from_rational(x) for x in row] for row in t]
    cols = [linalg.mat_vec(t_k, col) for col in structure.u_columns]
    return new_rep, ExactHodgeStructure(
        new_rep, field, cols, linalg.mat_mul(structure.top_inverse, t_inv))


def _verdicts(rep, structure):
    """Both rigidity verdicts, the hom dimension by the character formula
    and by brute force, and how polarize ends: certified, or the name of
    its declared error."""
    from rigidtori.cli import DOMAIN_ERRORS
    from rigidtori.hodge import (brute_force_hom_dimension,
                                 rigidity_by_centre, rigidity_by_character)
    chi = structure.hodge_character()
    spec = spec_from_character(chi)
    by_character = rigidity_by_character(chi)
    try:
        assemble_polarization(rep, spec=spec)
        polarized = "certified"
    except DOMAIN_ERRORS as exc:
        polarized = type(exc).__name__
    return (by_character.is_rigid, by_character.hom_dimension,
            rigidity_by_centre(spec).is_rigid,
            brute_force_hom_dimension(structure), polarized)


@given(st.data())
def test_verdicts_do_not_depend_on_the_lattice_basis(data):
    # a signed permutation followed by elementary unimodular steps changes
    # the lattice basis of the same torus: the rigidity verdicts, the hom
    # dimension and polarize's outcome stay.  The fixtures span the range
    # of the actions catalogue, the groups of order < 16 at rank <= 8.
    # Rigid draws are rare, so half of the examples take the seeded
    # stream's first rigid fixture.
    from rigidtori.fixtures import random_hodge_fixture, small_groups
    from rigidtori.hodge import rigidity_by_character
    rng = random.Random(data.draw(st.integers(min_value=0,
                                              max_value=2 ** 32)))
    want_rigid = data.draw(st.booleans())
    while True:
        rep, structure = random_hodge_fixture(rng, groups=small_groups(),
                                              max_rank=8)
        chi = structure.hodge_character()
        if not want_rigid or rigidity_by_character(chi).is_rigid:
            break
    n = rep.rank
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)),
                               min_size=n, max_size=n))
    t = [[signs[i] if j == perm[i] else 0 for j in range(n)]
         for i in range(n)]
    steps = data.draw(st.lists(st.tuples(
        st.permutations(range(n)), st.sampled_from((-2, -1, 1, 2))),
        max_size=3))
    for (i, j, *_), c in steps:
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    changed = _change_basis(rep, structure, t)
    assert _verdicts(*changed) == _verdicts(rep, structure)
