import random
from fractions import Fraction

import numpy as np
import pytest

from rigidtori.characters import character_table, galois_orbits
from rigidtori.deform import (BudgetExhausted, NoConvergence,
                              base_point_from_j, enumerate_rational_classes,
                              find_projective_neighbor, invariant_chart_basis,
                              invariant_kahler_class, invariant_two_forms,
                              newton_solve, positivity_margin, zero_two_part)
from rigidtori.fixtures import (cyclic, gaussian_action, random_hodge_fixture,
                                small_groups, trivial_action)
from rigidtori.hodge import (enumerate_rigid_types, exact_structure_from_spec,
                             isotypic_split, rigidity_by_character)
from rigidtori.polarize import assemble_polarization


def random_torus_j(n2, rng, cond_bound=50.0):
    while True:
        a = rng.standard_normal((n2, n2 // 2)) + 1j * rng.standard_normal(
            (n2, n2 // 2))
        full = np.hstack([a, np.conj(a)])
        if np.linalg.cond(full) < cond_bound:
            d = np.diag([1j] * (n2 // 2) + [-1j] * (n2 // 2))
            return (full @ d @ np.linalg.inv(full)).real


def test_invariant_forms_trivial_group():
    for n2 in (2, 4, 6):
        space = invariant_two_forms(trivial_action(n2))
        assert space.dimension == n2 * (n2 - 1) // 2


def test_invariant_forms_gaussian():
    space = invariant_two_forms(gaussian_action())
    assert space.dimension == 1
    eta = space.basis[0]
    assert eta in (((0, 1), (-1, 0)), ((0, -1), (1, 0)))


def test_invariant_forms_are_exactly_invariant():
    rng = random.Random(31)
    pools = [small_groups(),
             [g for g in small_groups() if not g.is_abelian()]]
    for pool in pools:
        for _ in range(4):
            rep, _ = random_hodge_fixture(rng, groups=pool)
            space = invariant_two_forms(rep)
            for eta in space.basis:
                for g in range(rep.group.order):
                    rho = rep.matrices[g]
                    n2 = rep.rank
                    img = [[sum(rho[k][i] * eta[k][l] * rho[l][j]
                                for k in range(n2) for l in range(n2))
                            for j in range(n2)] for i in range(n2)]
                    assert img == [list(r) for r in eta]


def test_kahler_class_rank2():
    rep = trivial_action(2)
    space = invariant_two_forms(rep)
    j = [[0.0, -1.0], [1.0, 0.0]]
    coords, report = invariant_kahler_class(rep, j, space)
    omega = space.combine_float(coords)
    assert abs(abs(omega[0][1]) - 1.0) < 1e-9
    assert report["projection_residual"] < 1e-9
    assert report["averaging_defect"] < 1e-12
    assert report["positivity_margin"] > 0.5


def test_kahler_positivity_on_random_tori():
    rng = np.random.default_rng(5)
    rep = trivial_action(4)
    space = invariant_two_forms(rep)
    for _ in range(3):
        j = random_torus_j(4, rng)
        coords, report = invariant_kahler_class(rep, j, space)
        assert report["positivity_margin"] > 1e-6
        assert report["projection_residual"] < 1e-8


def test_zero_two_part_at_base_point():
    rng = np.random.default_rng(6)
    rep = trivial_action(4)
    space = invariant_two_forms(rep)
    j = random_torus_j(4, rng)
    coords, _ = invariant_kahler_class(rep, j, space)
    omega = space.combine_float(coords)
    point = base_point_from_j(j)
    f = zero_two_part(omega, point)
    assert np.max(np.abs(f)) < 1e-10
    assert np.max(np.abs(f + f.T)) < 1e-12  # antisymmetric


def test_zero_two_part_recovers_pure_component():
    rng = np.random.default_rng(7)
    j = random_torus_j(4, rng)
    point = base_point_from_j(j)
    # a (0,2) class built from the conjugate dual basis
    full = point.full_matrix()
    dual = np.linalg.inv(full)
    qbar1, qbar2 = dual[2], dual[3]
    xi = np.real(np.outer(qbar1, qbar2) - np.outer(qbar2, qbar1)
                 + np.conj(np.outer(qbar1, qbar2) - np.outer(qbar2, qbar1)))
    f = zero_two_part(xi, point)
    assert abs(f[0][1]) > 0.01


def test_chart_dimension_matches_hom_dimension():
    rng = random.Random(37)
    groups = small_groups()
    for _ in range(4):
        rep, st = random_hodge_fixture(rng, groups=groups)
        chi = st.hodge_character()
        hom = rigidity_by_character(chi, chi.table).hom_dimension
        point = base_point_from_j(st.j_matrix_float())
        chart = invariant_chart_basis(rep, point)
        assert len(chart) == hom


def test_newton_accepts_omega_immediately():
    rng = np.random.default_rng(8)
    rep = trivial_action(4)
    space = invariant_two_forms(rep)
    j = random_torus_j(4, rng)
    coords, _ = invariant_kahler_class(rep, j, space)
    omega = space.combine_float(coords)
    point = base_point_from_j(j)
    solved, info = newton_solve(omega, rep, point)
    assert info["iterations"] == 0
    assert np.max(np.abs(solved.t)) < 1e-12


def test_newton_rigid_chart_accepts_flat_class():
    rep = gaussian_action()
    point = base_point_from_j([[0.0, -1.0], [1.0, 0.0]])
    space = invariant_two_forms(rep)
    xi = space.combine_float([1.0])
    solved, info = newton_solve(xi, rep, point)
    assert info["chart_dimension"] == 0
    assert info["iterations"] == 0


def test_rigid_fixture_invariant_classes_are_flat():
    # two same-orientation Gaussian blocks: rigid, zero-dimensional chart,
    # and every invariant class already has vanishing (0,2) part
    rep0 = gaussian_action()
    mats = []
    for m in rep0.matrices:
        big = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                big[i][j] = m[i][j]
                big[2 + i][2 + j] = m[i][j]
        mats.append(big)
    from rigidtori.hodge import IntegralRepresentation
    rep = IntegralRepresentation(rep0.group, mats)
    j = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                 dtype=float)
    point = base_point_from_j(j)
    assert len(invariant_chart_basis(rep, point)) == 0
    space = invariant_two_forms(rep)
    for eta in space.basis:
        f = zero_two_part(np.array(eta, float), point)
        assert np.max(np.abs(f)) < 1e-10
        solved, info = newton_solve(np.array(eta, float), rep, point)
        assert info["iterations"] == 0


def test_newton_no_convergence_when_stalled():
    rng = np.random.default_rng(12)
    rep = trivial_action(4)
    j = random_torus_j(4, rng)
    point = base_point_from_j(j)
    full = point.full_matrix()
    dual = np.linalg.inv(full)
    qbar1, qbar2 = dual[2], dual[3]
    pure = np.outer(qbar1, qbar2) - np.outer(qbar2, qbar1)
    xi = np.real(pure + np.conj(pure))
    with pytest.raises(NoConvergence):
        newton_solve(xi, rep, point, max_iter=0)


def test_newton_converges_quadratically():
    rng = np.random.default_rng(9)
    rep = trivial_action(4)
    space = invariant_two_forms(rep)
    j = random_torus_j(4, rng)
    coords, _ = invariant_kahler_class(rep, j, space)
    xi = [Fraction(c).limit_denominator(64) for c in coords]
    xi_mat = [[float(x) for x in row] for row in space.combine(xi)]
    point = base_point_from_j(j)
    solved, info = newton_solve(xi_mat, rep, point)
    assert info["residual"] < 1e-10
    assert info["iterations"] <= 20
    hist = info["history"]
    # quadratic decay across the final steps once inside the basin
    for a, b in list(zip(hist, hist[1:]))[-2:]:
        if a < 1e-2 and b > 0:
            assert b <= 10 * a * a + 1e-14


def test_enumeration_is_deterministic_and_nested():
    coords = [1.6180339887, -0.5772156649]
    c16 = enumerate_rational_classes(coords, 16)
    c64 = enumerate_rational_classes(coords, 64)
    assert c16 == c64[: len(c16)]
    denoms = [d for d, _ in c64]
    assert denoms == sorted(denoms)


def test_find_projective_neighbor_monotone():
    rng = np.random.default_rng(10)
    rep = trivial_action(4)
    j = random_torus_j(4, rng)
    norms = []
    for md in (16, 64, 256):
        res = find_projective_neighbor(rep, j, max_denominator=md,
                                       epsilon=10.0)
        assert res.residual < 1e-10
        assert res.positivity_margin > 1e-8
        norms.append(res.t_norm)
    assert norms[0] >= norms[1] >= norms[2]


def test_find_projective_neighbor_rigid_matches_polarize():
    rep = gaussian_action()
    res = find_projective_neighbor(rep, [[0.0, -1.0], [1.0, 0.0]],
                                   max_denominator=64)
    assert res.t_norm == 0.0
    assert res.chart_dimension == 0
    assert res.positivity_margin > 1e-8
    form = assemble_polarization(rep, j_matrix=[[0, -1], [1, 0]])
    assert form.certificate.relation_ii["ok"]
    # the numeric class is proportional to the exact polarization
    space = invariant_two_forms(rep)
    xi = space.combine(res.xi_coords)
    e = [list(r) for r in form.matrix]
    ratio = None
    for i in range(2):
        for jj in range(2):
            if e[i][jj]:
                ratio = Fraction(xi[i][jj]) / e[i][jj]
    assert ratio is not None and ratio > 0
    assert [[Fraction(x) / ratio for x in row] for row in xi] == e


def test_surjectivity_at_base_point_trivial_group():
    # the linearization from the full chart onto the (0,2) space has full
    # row rank n(n-1)/2 for a torus with no group action
    rng = np.random.default_rng(11)
    for n2 in (4, 6):
        rep = trivial_action(n2)
        j = random_torus_j(n2, rng)
        point = base_point_from_j(j)
        chart = invariant_chart_basis(rep, point)
        n = n2 // 2
        assert len(chart) == n * n
        space = invariant_two_forms(rep)
        coords, _ = invariant_kahler_class(rep, j, space)
        omega = space.combine_float(coords)
        triu = np.triu_indices(n, k=1)
        base = point.base
        cbar = np.conj(base)
        jac = np.zeros((n * (n - 1) // 2, len(chart)), dtype=complex)
        for k, tb in enumerate(chart):
            d = base @ np.conj(tb)
            df = d.T @ omega @ cbar + cbar.T @ omega @ d
            jac[:, k] = df[triu]
        rank = np.linalg.matrix_rank(jac, tol=1e-8)
        assert rank == n * (n - 1) // 2


def test_chart_directions_are_equivariant_nonabelian():
    # regression: the invariant-chart basis must satisfy conj(A) T = T A
    # for every group element, not merely have the right dimension
    rng = random.Random(99)
    pool = [g for g in small_groups() if not g.is_abelian()]
    checked = 0
    while checked < 3:
        rep, st = random_hodge_fixture(rng, groups=pool)
        chi = st.hodge_character()
        if rigidity_by_character(chi, chi.table).hom_dimension == 0:
            continue
        point = base_point_from_j(st.j_matrix_float())
        chart = invariant_chart_basis(rep, point)
        n = rep.rank // 2
        full = point.full_matrix()
        for g in range(rep.group.order):
            rho = np.array(rep.matrices[g], dtype=float)
            sol = np.linalg.solve(full, rho @ point.base)
            a = sol[:n]
            for t in chart:
                assert np.max(np.abs(np.conj(a) @ t - t @ a)) < 1e-8
        checked += 1


def test_projective_neighbor_nonabelian_exact_invariance():
    rng = random.Random(5)
    pool = [g for g in small_groups() if not g.is_abelian()]
    from rigidtori import linalg
    found = 0
    while found < 2:
        rep, st = random_hodge_fixture(rng, groups=pool)
        chi = st.hodge_character()
        if rigidity_by_character(chi, chi.table).hom_dimension == 0:
            continue
        res = find_projective_neighbor(rep, st.j_matrix_float(),
                                       max_denominator=256, epsilon=10.0)
        assert res.residual < 1e-10
        assert res.positivity_margin > 1e-8
        space = invariant_two_forms(rep)
        xi = space.combine(res.xi_coords)
        for g in range(rep.group.order):
            rho = [[Fraction(x) for x in row] for row in rep.matrices[g]]
            moved = linalg.mat_mul(linalg.transpose(rho),
                                   linalg.mat_mul(xi, rho))
            assert moved == xi
        found += 1


def test_budget_exhausted():
    rep = gaussian_action()
    # the rigid action only reaches t = 0, and t_norm 0 is not < epsilon 0
    with pytest.raises(BudgetExhausted):
        find_projective_neighbor(rep, [[0.0, -1.0], [1.0, 0.0]],
                                 max_denominator=4, epsilon=0.0)
