"""Acceptance suite: one test per exit criterion, each printing a pass line.

Everything exact is checked with zero tolerance; numeric legs use the
library's fixed deform constants (Newton 1e-10, positivity margin 1e-8).
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from class_algebra import algebra_product
from rigidtori import linalg
from rigidtori.characters import character_table, galois_orbits
from rigidtori.cli import main as cli_main
from rigidtori.deform import find_projective_neighbor, invariant_two_forms
from rigidtori.fixtures import (NON_CM_QUARTIC, cyclic, gaussian_action,
                                eisenstein_action, integral_model,
                                quaternion_8, random_hodge_fixture,
                                regular_representation, small_groups,
                                symmetric_4)
from rigidtori.hodge import (SummandType, SymbolicHodgeSpec,
                             brute_force_hom_dimension, enumerate_rigid_types,
                             exact_structure_from_spec, isotypic_split,
                             rigidity_by_centre, rigidity_by_character,
                             spec_from_character)
from rigidtori.polarize import (assemble_polarization, find_zeta,
                                imaginary_subspace, polarization_exists)
from rigidtori.polyfields import RealEmbeddingPresent


@pytest.fixture(scope="module")
def suite_groups():
    return small_groups() + [symmetric_4(), quaternion_8()]


@pytest.fixture(scope="module")
def suite_tables(suite_groups):
    return {g.name: character_table(g) for g in suite_groups}


@pytest.fixture(scope="module")
def suite_orbits(suite_tables):
    return {name: galois_orbits(t) for name, t in suite_tables.items()}


def test_criterion_1_character_tables(suite_groups):
    """All 28 groups of order < 16 plus S4 and Q8: exact orthogonality.

    Tables are computed fresh inside the timed window."""
    start = time.time()
    assert len(suite_groups) == 30
    for g in suite_groups:
        table = character_table(g)
        table.verify()          # exact row orthonormality + degree sum
        table.verify_columns()  # exact column orthogonality
        assert sum(d * d for d in table.degrees) == g.order
    elapsed = time.time() - start
    assert elapsed < 60, f"character suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: exact orthogonality for 30 groups, "
          f"computed and checked in {elapsed:.1f}s")


def test_criterion_2_idempotents(suite_groups, suite_tables, suite_orbits):
    """e_chi and e_K(chi): idempotent, orthogonal, complete, e_K rational."""
    start = time.time()
    for g in suite_groups:
        table = suite_tables[g.name]
        field = table.field
        idems = [table.central_idempotent(r) for r in range(table.size)]
        total = [field.zero()] * g.order
        for r, e in enumerate(idems):
            assert algebra_product(table, e, e) == e
            total = [a + b for a, b in zip(total, e)]
        for r in range(table.size):
            for s in range(r + 1, table.size):
                prod = algebra_product(table, idems[r], idems[s])
                assert all(c.is_zero() for c in prod)
        assert total[0] == field.one()
        assert all(c.is_zero() for c in total[1:])
        decomp = suite_orbits[g.name]
        rational_total = [Fraction(0)] * g.order
        for orbit in decomp.orbits:
            ek = [field.from_rational(c) for c in orbit.idempotent]
            assert algebra_product(table, ek, ek) == ek
            for c, q in zip(ek, orbit.idempotent):
                assert isinstance(q, Fraction)
            for other in decomp.orbits:
                if other is orbit:
                    continue
                ek2 = [field.from_rational(c) for c in other.idempotent]
                prod = algebra_product(table, ek, ek2)
                assert all(c.is_zero() for c in prod)
            rational_total = [a + b for a, b in
                              zip(rational_total, orbit.idempotent)]
        assert rational_total[0] == 1
        assert all(c == 0 for c in rational_total[1:])
    elapsed = time.time() - start
    print(f"\nPASS criterion 2: idempotent suite exact for "
          f"{len(suite_groups)} groups in {elapsed:.1f}s")


def test_criterion_3_centre_reduction_oracle():
    """Three rigidity pathways agree on >= 200 randomized fixtures."""
    start = time.time()
    groups = small_groups()
    rng = random.Random(0xEC1D)
    count = 0
    rigid_seen = 0
    while count < 200:
        rep, structure = random_hodge_fixture(rng, groups=groups)
        assert rep.rank <= 8
        chi10 = structure.hodge_character()
        by_char = rigidity_by_character(chi10)
        by_centre = rigidity_by_centre(spec_from_character(chi10))
        by_brute = brute_force_hom_dimension(structure, chi10)
        assert by_char.is_rigid == by_centre.is_rigid == (by_brute == 0)
        assert by_char.hom_dimension == by_brute
        rigid_seen += by_char.is_rigid
        count += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"oracle suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: {count} fixtures agree across all three "
          f"methods ({rigid_seen} rigid) in {elapsed:.1f}s")


def test_criterion_4_character_field_dichotomy(suite_groups, suite_orbits):
    """Every character field is TotallyReal or CM; the polarization cone is
    feasible exactly for the CM ones; the non-CM quartic is infeasible with
    an exact certificate."""
    start = time.time()
    fields_checked = 0
    for g in suite_groups:
        for orbit in suite_orbits[g.name].orbits:
            spec = orbit.field_spec
            assert orbit.tag in ("TotallyReal", "CM")
            assert spec.is_totally_real() == (orbit.tag == "TotallyReal")
            if orbit.tag == "CM":
                reps = spec.coset_reps()
                designated = []
                seen = set()
                for a in reps:
                    if a in seen:
                        continue
                    seen.add(a)
                    seen.add(spec.conjugate_coset(a))
                    designated.append(a)
                zeta = find_zeta(spec, designated)
                table = dict(zeta.sign_table)
                assert all(table[a] == 1 for a in designated)
                assert zeta.element.conjugate() == -zeta.element
            else:
                with pytest.raises(RealEmbeddingPresent):
                    imaginary_subspace(spec)
            fields_checked += 1
    cert = polarization_exists(NON_CM_QUARTIC, (0, 2))
    assert cert.verdict == "infeasible"
    assert cert.obstruction["reason"] == "imaginary-constraint space is zero"
    assert cert.obstruction["constraint_rank"] == 4
    elapsed = time.time() - start
    print(f"\nPASS criterion 4: {fields_checked} character fields classified "
          f"with matching polarization feasibility in {elapsed:.1f}s; "
          "x^4+x+1 infeasible with exact certificate")


def test_criterion_5_polarizations_for_rigid_actions(suite_orbits):
    """Every rigid fixture yields a fully certified polarization; the
    Gaussian fixture yields exactly [[0,1],[-1,0]]."""
    start = time.time()
    form = assemble_polarization(gaussian_action(),
                                 j_matrix=[[0, -1], [1, 0]])
    assert [list(r) for r in form.matrix] == [[0, 1], [-1, 0]]
    checked = 1
    for rep in (gaussian_action(), eisenstein_action()):
        decomp = galois_orbits(character_table(rep.group))
        pieces = isotypic_split(rep, decomp)
        mults = [len(img) // o.field_spec.degree
                 for img, o in zip(pieces, decomp.orbits)]
        for spec in enumerate_rigid_types(decomp, mults):
            f = assemble_polarization(rep, spec=spec)
            cert = f.certificate
            assert cert.mode == "symbolic"
            assert cert.relation_i == {"mode": "exact", "ok": True}
            assert cert.relation_ii["ok"]
            assert cert.rosati["ok"]
            checked += 1
    # rigid CM models over larger fields, one type each
    for name in ("Z5", "Z8", "Z12", "Dic3"):
        from rigidtori.fixtures import group_by_name
        g = group_by_name(name)
        table = character_table(g)
        decomp = galois_orbits(table)
        reg = regular_representation(g)
        pieces = isotypic_split(reg, decomp)
        for j, orbit in enumerate(decomp.orbits):
            if orbit.tag != "CM" or not pieces[j]:
                continue
            model, _ = integral_model(reg, pieces[j])
            model_pieces = isotypic_split(model, decomp)
            mults = [len(img) // o.field_spec.degree
                     for img, o in zip(model_pieces, decomp.orbits)]
            spec = enumerate_rigid_types(decomp, mults)[0]
            f = assemble_polarization(model, spec=spec)
            cert = f.certificate
            assert cert.relation_i["ok"] and cert.relation_ii["ok"]
            assert cert.rosati["ok"]
            checked += 1
    # random rigid fixtures from the oracle pool
    rng = random.Random(0x51D)
    groups = small_groups()
    rigid_found = 0
    attempts = 0
    while rigid_found < 10 and attempts < 200:
        attempts += 1
        rep, structure = random_hodge_fixture(rng, groups=groups)
        chi10 = structure.hodge_character()
        report = rigidity_by_character(chi10)
        if not report.is_rigid:
            continue
        f = assemble_polarization(rep, spec=spec_from_character(chi10))
        cert = f.certificate
        assert cert.relation_i["ok"] and cert.relation_ii["ok"]
        assert cert.rosati["ok"]
        rigid_found += 1
        checked += 1
    assert rigid_found >= 5
    elapsed = time.time() - start
    print(f"\nPASS criterion 5: {checked} rigid fixtures produced certified "
          f"polarizations in {elapsed:.1f}s; Gaussian golden form exact")


def _brute_force_tau_count(decomp, mults):
    """Independent oracle: enumerate every tau satisfying (HS) and (R)."""
    per_orbit = []
    for j, orbit in enumerate(decomp.orbits):
        fs = orbit.field_spec
        reps = fs.coset_reps()
        n_j = mults[j]
        valid = []
        for values in itertools.product(range(n_j + 1), repeat=len(reps)):
            tau = dict(zip(reps, values))
            ok = True
            for a in reps:
                abar = fs.conjugate_coset(a)
                if tau[a] + tau[abar] != n_j:
                    ok = False
                    break
                if n_j > 0 and tau[a] * tau[abar] != 0:
                    ok = False
                    break
            if ok:
                valid.append(tuple(sorted(tau.items())))
        per_orbit.append(set(valid))
    total = 1
    for s in per_orbit:
        total *= len(s)
    return total, per_orbit


def test_criterion_6_enumeration_counts(suite_orbits):
    """Rigid-type counts match the 2^k product formula and a brute-force
    tau enumeration, for total embedding count <= 12."""
    start = time.time()
    cases = 0
    for name, mult_choice in [
            ("Z4", None), ("Z3", None), ("Z5", None), ("Z8", None),
            ("Z12", None), ("Z7", None), ("S3", None), ("S4", None),
            ("Q8", None), ("Dic3", None), ("Z2xZ6", None)]:
        decomp = suite_orbits[name]
        total_embeddings = sum(o.field_spec.degree for o in decomp.orbits)
        if total_embeddings > 12:
            continue
        for mults in _interesting_multiplicities(decomp):
            specs = enumerate_rigid_types(decomp, mults)
            expected = 1
            blocked = False
            for j, orbit in enumerate(decomp.orbits):
                if mults[j] > 0:
                    if orbit.tag == "TotallyReal":
                        blocked = True
                    else:
                        expected *= 2 ** (orbit.field_spec.degree // 2)
            expected = 0 if blocked else expected
            brute, _ = _brute_force_tau_count(decomp, mults)
            assert len(specs) == expected == brute, (name, mults)
            cases += 1
    # named examples: Q(zeta5) multiplicity 1 -> 4; S3/S4 modules -> 0
    z5 = suite_orbits["Z5"]
    cm = next(j for j, o in enumerate(z5.orbits) if o.tag == "CM")
    mults = [0] * len(z5.orbits)
    mults[cm] = 1
    assert len(enumerate_rigid_types(z5, mults)) == 4
    for name in ("S3", "S4"):
        decomp = suite_orbits[name]
        for mults in _interesting_multiplicities(decomp):
            if any(mults):
                assert enumerate_rigid_types(decomp, mults) == []
    elapsed = time.time() - start
    print(f"\nPASS criterion 6: {cases} enumeration counts match the "
          f"product formula and brute-force tau enumeration in {elapsed:.1f}s")


def _interesting_multiplicities(decomp):
    n_orbits = len(decomp.orbits)
    yield [1] * n_orbits
    yield [2] * n_orbits
    for j in range(n_orbits):
        m = [0] * n_orbits
        m[j] = 1
        yield m


def test_criterion_7_projective_neighbors():
    """20 random tori of rank 4 and 6: certified residual and margin at
    denominator 256, with non-increasing chart distance over 16/64/256;
    rigid fixtures return t = 0, matching the exact certificates."""
    start = time.time()
    rng = np.random.default_rng(0xDEF0)
    from rigidtori.fixtures import trivial_action

    def random_torus_j(n2):
        while True:
            a = rng.standard_normal((n2, n2 // 2)) \
                + 1j * rng.standard_normal((n2, n2 // 2))
            full = np.hstack([a, np.conj(a)])
            if np.linalg.cond(full) < 50:
                d = np.diag([1j] * (n2 // 2) + [-1j] * (n2 // 2))
                return (full @ d @ np.linalg.inv(full)).real

    for idx in range(20):
        n2 = 4 if idx % 2 == 0 else 6
        rep = trivial_action(n2)
        j = random_torus_j(n2)
        norms = []
        for md in (16, 64, 256):
            res = find_projective_neighbor(rep, j, max_denominator=md,
                                           epsilon=10.0)
            norms.append(res.t_norm)
            if md == 256:
                assert res.residual < 1e-10
                assert res.positivity_margin > 1e-8
                assert all(isinstance(c, Fraction) for c in res.xi_coords)
        assert norms[0] >= norms[1] >= norms[2]
    # rigid fixtures: t = 0 and agreement with the exact certificate
    for rep, j in ((gaussian_action(), [[0.0, -1.0], [1.0, 0.0]]),):
        res = find_projective_neighbor(rep, j, max_denominator=64)
        assert res.t_norm == 0.0 and res.chart_dimension == 0
        form = assemble_polarization(rep, j_matrix=[[0, -1], [1, 0]])
        assert form.certificate.relation_ii["ok"]
        assert res.positivity_margin > 1e-8
        space = invariant_two_forms(rep)
        xi = space.combine(res.xi_coords)
        e = [list(r) for r in form.matrix]
        ratios = {Fraction(xi[i][jj]) / e[i][jj]
                  for i in range(2) for jj in range(2) if e[i][jj]}
        assert len(ratios) == 1 and ratios.pop() > 0
    elapsed = time.time() - start
    assert elapsed < 300, f"deformation suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 7: 20 random tori and the rigid fixtures "
          f"certified in {elapsed:.1f}s")


def test_criterion_8_cli_determinism(tmp_path):
    """Byte-identical machine-readable reports across repeated runs."""
    start = time.time()
    gauss = tmp_path / "gauss.json"
    gauss.write_text(json.dumps({
        "group": {"name": "Z4", "permutation_generators": [[1, 2, 3, 0]]},
        "rank": 2,
        "generator_matrices": [[[0, -1], [1, 0]]],
        "J_matrix": [[0.0, -1.0], [1.0, 0.0]],
    }))
    q8 = tmp_path / "q8.json"
    q8.write_text(json.dumps({"builtin": "Q8"}))
    runs = [
        ("analyze", str(q8)),
        ("rigidity", str(gauss)),
        ("enumerate-rigid", str(gauss)),
        ("polarize", str(gauss)),
        ("deform", str(gauss)),
    ]
    for cmd, inp in runs:
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli_main([cmd, "--input", inp, "--output", str(out1)]) == 0
        assert cli_main([cmd, "--input", inp, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), cmd
    elapsed = time.time() - start
    print(f"\nPASS criterion 8: byte-identical reports for {len(runs)} "
          f"commands in {elapsed:.1f}s")
