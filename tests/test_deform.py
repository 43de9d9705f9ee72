import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigidtori import deform, linalg
from rigidtori.deform import (NEWTON_TOL, BudgetExhausted, NoConvergence,
                              _ladder,
                              _ldl_positive_pivots, find_projective_neighbor,
                              invariant_kahler_class, invariant_metric,
                              invariant_two_forms, newton_solve)
from rigidtori.fixtures import (gaussian_action, random_hodge_fixture,
                                small_groups, trivial_action)
from rigidtori.hodge import IntegralRepresentation, rigidity_by_character
from rigidtori.polarize import assemble_polarization


def random_torus_j(n2, rng, cond_bound=50.0, scales=None):
    """A random complex structure; with scales, the operator with the same
    eigenspaces and eigenvalues +-i*scales."""
    scales = scales or [1.0] * (n2 // 2)
    while True:
        a = rng.standard_normal((n2, n2 // 2)) + 1j * rng.standard_normal(
            (n2, n2 // 2))
        full = np.hstack([a, np.conj(a)])
        if np.linalg.cond(full) < cond_bound:
            d = np.diag([1j * x for x in scales] + [-1j * x for x in scales])
            return (full @ d @ np.linalg.inv(full)).real


def congruence(rho, form):
    """rho^T form rho, exactly."""
    n = len(rho)
    return [[sum(rho[k][i] * form[k][l] * rho[l][j]
                 for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


def float_metric(rep, j):
    s = np.array(invariant_metric(rep, j), dtype=float)
    return s / np.abs(s).max()


def nonrigid_fixtures(seed, count, pool=None):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rep, st_ = random_hodge_fixture(rng, groups=pool or small_groups())
        chi = st_.hodge_character()
        if rigidity_by_character(chi).hom_dimension:
            out.append((rep, st_.j_matrix_float()))
    return out


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
                    assert congruence(rep.matrices[g], eta) == \
                        [list(r) for r in eta]


def test_invariant_forms_over_q_when_the_prime_divides_a_minor(monkeypatch):
    # the Gaussian Reynolds column is 4 e_0 ^ e_1, zero mod 2: the basis
    # must then come from elimination over Q, and be the same
    expected = invariant_two_forms(gaussian_action())
    monkeypatch.setattr(deform, "_PRIME", 2)
    assert invariant_two_forms(gaussian_action()) == expected


def test_kahler_class_rank2():
    rep = trivial_action(2)
    space = invariant_two_forms(rep)
    j = [[0.0, -1.0], [1.0, 0.0]]
    coords = invariant_kahler_class(space, float_metric(rep, j), j)
    assert len(coords) == 1 and abs(abs(coords[0]) - 1.0) < 1e-12
    # omega J = S is positive, so the class is +e_0 ^ e_1 up to the sign of
    # the basis form
    assert coords[0] * space.basis[0][0][1] > 0


def test_kahler_positivity_on_random_tori():
    # omega = J^T S has omega J = S, positive definite
    rng = np.random.default_rng(5)
    rep = trivial_action(4)
    space = invariant_two_forms(rep)
    for _ in range(3):
        j = random_torus_j(4, rng)
        coords = invariant_kahler_class(space, float_metric(rep, j), j)
        omega = np.tensordot(coords, np.array(space.basis, dtype=float), 1)
        form = omega @ j
        assert np.max(np.abs(form - form.T)) < 1e-8
        assert np.linalg.eigvalsh((form + form.T) / 2).min() > 1e-6


def test_chart_dimension_matches_hom_dimension():
    rng = random.Random(37)
    groups = small_groups()
    for _ in range(4):
        rep, st_ = random_hodge_fixture(rng, groups=groups)
        chi = st_.hodge_character()
        hom = rigidity_by_character(chi).hom_dimension
        res = find_projective_neighbor(rep, st_.j_matrix_float(),
                                       max_denominator=256, epsilon=10.0)
        assert res.chart_dimension == hom


def test_newton_accepts_omega_immediately():
    # a complex structure is its own polar factor
    rng = np.random.default_rng(8)
    j = random_torus_j(4, rng)
    solved, info = newton_solve(3.0 * j)
    assert info["iterations"] <= 3
    assert np.max(np.abs(solved - j)) < 1e-12
    assert info["residual"] < NEWTON_TOL


def test_newton_rigid_chart_accepts_flat_class():
    res = find_projective_neighbor(gaussian_action(), [[0.0, -1.0],
                                                       [1.0, 0.0]])
    assert res.chart_dimension == 0
    assert res.iterations == 1 and res.residual == 0.0


def test_rigid_fixture_invariant_classes_are_flat():
    # two same-orientation Gaussian blocks: rigid, and every invariant class
    # is already of type (1,1), eta(Jx, Jy) = eta(x, y), exactly
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
    for eta in invariant_two_forms(rep).basis:
        assert congruence(j, eta) == [list(r) for r in eta]
    res = find_projective_neighbor(rep, np.array(j, dtype=float))
    assert res.chart_dimension == 0 and res.t_norm == 0.0


def test_newton_no_convergence_when_stalled():
    # eigenvalues +-i and +-4i scale to +-i/2 and +-2i: without steps the
    # start is no complex structure, and the residual says so
    a = random_torus_j(4, np.random.default_rng(12), scales=[1.0, 4.0])
    _, info = newton_solve(a, max_iter=0)
    assert info["iterations"] == 0 and info["residual"] > 1.0
    _, info = newton_solve(a)
    assert 0 < info["iterations"] <= 10 and info["residual"] < NEWTON_TOL


def test_newton_converges_quadratically():
    rep = trivial_action(4)
    j = random_torus_j(4, np.random.default_rng(9))
    s = float_metric(rep, j)
    space = invariant_two_forms(rep)
    coords = invariant_kahler_class(space, s, j)
    xi = np.array(space.combine(
        [Fraction(c).limit_denominator(64) for c in coords]), dtype=float)
    a = -np.linalg.solve(s, xi)
    solved, info = newton_solve(a)
    assert info["residual"] < NEWTON_TOL
    assert info["iterations"] <= 20
    errors = [np.linalg.norm(newton_solve(a, max_iter=k)[0] - solved)
              for k in range(info["iterations"])]
    # quadratic decay once inside the basin, above the rounding floor
    pairs = [(e0, e1) for e0, e1 in zip(errors, errors[1:])
             if e0 < 1e-2 and e1 > 1e-13]
    assert pairs and all(e1 <= 10 * e0 * e0 for e0, e1 in pairs)


def test_enumeration_is_deterministic_and_nested():
    coords = [1.0, 0.6180339887, -0.5772156649]
    c16 = _ladder(coords, 16)
    c64 = _ladder(coords, 64)
    assert c16 == c64[: len(c16)]
    denoms = [d for d, _ in c64]
    assert denoms == sorted(denoms) and denoms[0] == 1
    assert all(abs(float(q) - c) <= 0.5 / d
               for d, cls in c64 for q, c in zip(cls, coords))
    # one class per rung, each rung's coordinates over that rung
    assert len({cls for _, cls in c64}) == len(c64)
    assert all(q.denominator <= d for d, cls in c64 for q in cls)


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
    # the class is proportional to the exact polarization
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


def test_chart_directions_are_equivariant_nonabelian():
    # the found J' commutes with every group element, and so does the
    # chart direction T = (J + J')^-1 (J - J') it is reached by
    pool = [g for g in small_groups() if not g.is_abelian()]
    for rep, j in nonrigid_fixtures(99, 3, pool):
        res = find_projective_neighbor(rep, j, max_denominator=256,
                                       epsilon=10.0)
        j_prime = polar_factor(rep, j, res)
        t = np.linalg.solve(j + j_prime, j - j_prime)
        for rho in rep.matrices:
            rho = np.array(rho, dtype=float)
            assert np.max(np.abs(j_prime @ rho - rho @ j_prime)) < 1e-9
            assert np.max(np.abs(t @ rho - rho @ t)) < 1e-8


def test_projective_neighbor_nonabelian_exact_invariance():
    pool = [g for g in small_groups() if not g.is_abelian()]
    for rep, j in nonrigid_fixtures(5, 2, pool):
        res = find_projective_neighbor(rep, j, max_denominator=256,
                                       epsilon=10.0)
        assert res.residual < 1e-10
        assert res.positivity_margin > 1e-8
        xi = invariant_two_forms(rep).combine(res.xi_coords)
        for rho in rep.matrices:
            assert congruence(rho, xi) == xi


def test_overflowing_j_is_a_declared_error():
    with pytest.raises(NoConvergence):
        find_projective_neighbor(trivial_action(2),
                                 [[0.0, -1e200], [1e-200, 0.0]])


def test_budget_exhausted():
    rep = gaussian_action()
    # the rigid action only reaches t = 0, and t_norm 0 is not < epsilon 0
    with pytest.raises(BudgetExhausted):
        find_projective_neighbor(rep, [[0.0, -1.0], [1.0, 0.0]],
                                 max_denominator=4, epsilon=0.0)


# -- the certificate ------------------------------------------------------------


def polar_factor(rep, j, res):
    """J' from the found rung: the polar factor of -S^-1 xi."""
    xi = np.array(invariant_two_forms(rep).combine(res.xi_coords),
                  dtype=float)
    j_prime, info = newton_solve(-np.linalg.solve(float_metric(rep, j), xi))
    assert info["residual"] < NEWTON_TOL
    return j_prime


def test_certificate_is_exact():
    cases = [(trivial_action(4), random_torus_j(4, np.random.default_rng(3)))]
    cases += nonrigid_fixtures(17, 3)
    for rep, j in cases:
        n2 = rep.rank
        res = find_projective_neighbor(rep, j, max_denominator=256,
                                       epsilon=10.0)
        assert res.certificate == {"xi_rank": n2, "s_positive_pivots": n2}
        # xi: exactly invariant, alternating and invertible
        xi = invariant_two_forms(rep).combine(res.xi_coords)
        assert all(xi[i][k] == -xi[k][i] for i in range(n2)
                   for k in range(n2))
        assert all(congruence(rho, xi) == xi for rho in rep.matrices)
        assert linalg.rank(xi) == n2
        # S: exactly symmetric, invariant and positive definite
        s = invariant_metric(rep, j)
        assert all(congruence(rho, s) == s for rho in rep.matrices)
        assert s == [list(r) for r in zip(*s)]
        assert _ldl_positive_pivots(s) == n2
        # J': a G-invariant complex structure that xi polarizes
        j_prime = polar_factor(rep, j, res)
        for rho in rep.matrices:
            rho = np.array(rho, dtype=float)
            assert np.max(np.abs(j_prime @ rho - rho @ j_prime)) < 1e-9
        assert np.linalg.norm(j_prime @ j_prime + np.eye(n2)) < NEWTON_TOL
        form = np.array(xi, dtype=float) @ j_prime
        scale = np.abs(form).max()
        assert np.max(np.abs(form - form.T)) < 1e-9 * scale
        assert np.linalg.eigvalsh((form + form.T) / 2).min() > 0


def test_ldl_pivots_detect_indefinite_forms():
    assert _ldl_positive_pivots([[2, 1], [1, 2]]) == 2
    assert _ldl_positive_pivots([[1, 2], [2, 1]]) == 1
    assert _ldl_positive_pivots([[0, 1], [1, 0]]) == 0


def test_catalogue_z5_rank8_regression():
    """The benchmark catalogue's first Z5 action (rank 8): a naive Hermite
    basis of its invariant forms had entries of 58 321 bits, and the search
    then ended in OverflowError."""
    rng = random.Random("actions/catalogue")
    for group in small_groups():
        draws = [random_hodge_fixture(rng, groups=[group]) for _ in range(2)]
        if group.name == "Z5":
            rep, structure = draws[0]
            break
    assert rep.rank == 8
    start = time.perf_counter()
    space = invariant_two_forms(rep)
    assert max(abs(x).bit_length() for eta in space.basis for row in eta
               for x in row) <= 16
    assert time.perf_counter() - start < 1.0
    res = find_projective_neighbor(rep, structure.j_matrix_float(),
                                   max_denominator=256, epsilon=10.0)
    assert res.t_norm < 10.0 and res.residual < NEWTON_TOL


SMALL_FIXTURES = []


def small_fixture(index):
    if not SMALL_FIXTURES:
        SMALL_FIXTURES.append((gaussian_action(),
                               np.array([[0.0, -1.0], [1.0, 0.0]])))
        SMALL_FIXTURES.append((trivial_action(4), random_torus_j(
            4, np.random.default_rng(21))))
        rng = random.Random(23)
        pool = [g for g in small_groups() if g.order <= 8]
        for _ in range(3):
            rep, structure = random_hodge_fixture(rng, groups=pool,
                                                  max_rank=4)
            SMALL_FIXTURES.append((rep, structure.j_matrix_float()))
    return SMALL_FIXTURES[index]


@given(index=st.integers(0, 4), data=st.data(),
       max_denominator=st.sampled_from([1, 3, 16, 256]),
       epsilon=st.sampled_from([0.0, 0.05, 10.0]))
def test_signed_permutations_end_in_a_result_or_budget(
        index, data, max_denominator, epsilon):
    rep, j = small_fixture(index)
    n2 = rep.rank
    perm = data.draw(st.permutations(range(n2)))
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n2,
                               max_size=n2))
    p = np.zeros((n2, n2), dtype=int)
    for i, k in enumerate(perm):
        p[k][i] = signs[i]
    p_inv = p.T  # signed permutations are orthogonal
    mats = [(p_inv @ np.array(m) @ p).tolist() for m in rep.matrices]
    moved = IntegralRepresentation(rep.group, mats)
    try:
        res = find_projective_neighbor(moved, p_inv @ j @ p,
                                       max_denominator=max_denominator,
                                       epsilon=epsilon)
    except BudgetExhausted:
        return
    assert res.t_norm < epsilon and res.residual < NEWTON_TOL
