import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _is_abelian(g):
    return all(g.table[a][b] == g.table[b][a]
               for a in range(g.order) for b in range(g.order))


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
             [g for g in small_groups() if not _is_abelian(g)]]
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
    space = invariant_two_forms(gaussian_action())
    assert (space.rank, space.basis) == (expected.rank, expected.basis)


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
    assert all(abs(q / d - c) <= 0.5 / d
               for d, nums in c64 for q, c in zip(nums, coords))
    # one class per rung, each rung's numerators over that rung
    assert len({tuple(Fraction(q, d) for q in nums)
                for d, nums in c64}) == len(c64)
    assert all(isinstance(q, int) for _, nums in c64 for q in nums)


def reference_ladder(omega_coords, max_denominator):
    """The ladder in Fractions: round(Fraction(c) * d) at every rung d, each
    class at the first rung giving it."""
    out = {}
    bound = max(max_denominator, 0)
    for d in [1 << k for k in range(bound.bit_length())] + [bound] * (
            bound > 0):
        out.setdefault(tuple(Fraction(round(Fraction(c) * d), d)
                             for c in omega_coords), d)
    return [(d, coords) for coords, d in out.items()]


# exact ties (k + 1/2) / 2^e, which round half to even at the rung 2^e
TIES = st.builds(lambda k, e, sign: sign * (k + 0.5) / 2**e,
                 st.integers(0, 2**20), st.integers(0, 12),
                 st.sampled_from([-1, 1]))
COORDINATES = st.one_of(st.floats(-1.0, 1.0), TIES,
                        st.floats(-1e-307, 1e-307), st.sampled_from(
                            [5e-324, -5e-324, 2.2250738585072014e-308, 0.0,
                             -0.0, 1.0, -1.0]))


@settings(max_examples=300)
@given(coords=st.lists(COORDINATES, min_size=1, max_size=6),
       max_denominator=st.one_of(st.integers(-3, 4096),
                                 st.sampled_from([2**60 + 3, 3 << 200])))
@example(coords=[0.5, -0.5, 1.5, -2.5], max_denominator=1)
@example(coords=[1.0, -0.7, 5e-324], max_denominator=10**400)
@example(coords=[0.375, -0.125, 5e-324], max_denominator=256)
def test_ladder_rounds_as_fractions_at_every_rung(coords, max_denominator):
    ladder = _ladder(coords, max_denominator)
    assert [(d, tuple(Fraction(q, d) for q in nums))
            for d, nums in ladder] == reference_ladder(coords,
                                                       max_denominator)
    assert all(list(nums) == [round(Fraction(c) * d) for c in coords]
               for d, nums in ladder)


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
    pool = [g for g in small_groups() if not _is_abelian(g)]
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
    pool = [g for g in small_groups() if not _is_abelian(g)]
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


@pytest.mark.parametrize("j", [[[0.0, 0.0], [1.0, 0.0]],
                               [[0.0, 1.0], [1.0, 0.0]]],
                         ids=["nilpotent", "real-eigenvalues"])
def test_a_j_that_does_not_square_to_minus_one_is_a_declared_error(j):
    # the chart is read off J's +i-eigenspace; a nilpotent J ended in
    # numpy's LinAlgError (exit 3)
    with pytest.raises(NoConvergence, match="square to -I"):
        find_projective_neighbor(gaussian_action(), j)


def test_a_j_that_does_not_commute_with_rho_is_a_declared_error():
    # J^2 = -I, but J is not Z4-invariant: the chart and its dimension are
    # those of invariant structures, and a t_norm 0.333 was returned
    from rigidtori.hodge import RoundingFailure
    with pytest.raises(RoundingFailure, match="does not commute"):
        find_projective_neighbor(gaussian_action(), [[0.0, -2.0], [0.5, 0.0]],
                                 epsilon=10.0)


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


# -- one G-sum: K = sum_g rho(g) (x) rho(g) against the per-element sums ------


def reference_square_sum(rep):
    """K[k, i, l, j] = sum_g rho(g)_ki rho(g)_lj, one object einsum over the
    elements."""
    rho = np.array(rep.matrices, dtype=object)
    return np.einsum("gki,glj->kilj", rho, rho)


def reference_pivot_columns_mod_p(mat, prime=deform._PRIME):
    """Pivot columns of one integer matrix's row echelon form mod the
    prime, each pivot row scaled by its inverse."""
    a = np.array(np.asarray(mat) % prime, dtype=np.int64)
    pivots = []
    for c in range(a.shape[1]):
        rows = np.flatnonzero(a[:, c])
        if rows.size:  # eliminate column c with its first row, consuming it
            row = a[rows[0]] * pow(int(a[rows[0], c]), -1, prime) % prime
            a = (a - np.outer(a[:, c], row)) % prime
            pivots.append(c)
    return pivots


def reference_two_forms(rep):
    """The invariant two-forms from the per-element Reynolds operator
    sum_g Lambda^2 rho(g), an object einsum over the elements, with the
    same pivots and content reduction."""
    n2 = rep.rank
    rho = np.array(rep.matrices, dtype=object)
    iu, ju = np.triu_indices(n2, 1)
    outer = np.einsum("gki,glj->klij", rho, rho)
    reynolds = (outer - outer.transpose(1, 0, 2, 3))[iu, ju][:, iu, ju].T
    dim = int(np.trace(reynolds)) // rep.group.order
    pivots = reference_pivot_columns_mod_p(reynolds)
    if len(pivots) < dim:
        pivots = linalg.rref([[Fraction(int(x)) for x in row]
                              for row in reynolds])[1]
    basis = []
    for c in pivots:
        col = [int(x) for x in reynolds[:, c]]
        content = gcd(*col)
        eta = [[0] * n2 for _ in range(n2)]
        for i, j, x in zip(iu, ju, col):
            eta[i][j], eta[j][i] = x // content, -x // content
        basis.append(tuple(tuple(r) for r in eta))
    return tuple(basis)


def reference_congruence_sum(rep, x):
    """sum_g rho(g)^T x rho(g): two object products per element."""
    x = np.array(x, dtype=object)
    total = sum(r.T @ x @ r for r in np.array(rep.matrices, dtype=object))
    return [[int(v) for v in row] for row in total]


def reference_hom_dimension(rep, j):
    """(1/|G|) sum_g chi10(g)^2 from the float stack of rho(G)."""
    rho = np.array(rep.matrices, dtype=float)
    chi = (np.trace(rho, axis1=1, axis2=2)
           - 1j * np.einsum("gij,ji->g", rho, j)) / 2
    return int(round(float(np.sum(chi ** 2).real) / rep.group.order))


def wreath_action(k, n):
    """Z_k wr S_n (`test_groups.wreath`) on Z[zeta_k]^n, k = 4 or 6: the
    point c k + r is zeta_k^r in coordinate c, so an element moving (c, 0)
    to (c', a) maps coordinate c to c' times zeta_k^a.  With J the
    multiplication by i on every coordinate."""
    from test_groups import wreath
    group = wreath(k, n)
    zeta = np.array({4: [[0, -1], [1, 0]], 6: [[0, -1], [1, 1]]}[k])
    powers = [np.linalg.matrix_power(zeta, a) for a in range(k)]
    mats = []
    for perm in group.permutations:
        m = np.zeros((2 * n, 2 * n), dtype=int)
        for c in range(n):
            image, a = divmod(perm[c * k], k)
            m[2 * image:2 * image + 2, 2 * c:2 * c + 2] = powers[a]
        mats.append(m.tolist())
    i_block = zeta if k == 4 else (2 * zeta - np.eye(2)) / np.sqrt(3)
    return (IntegralRepresentation.from_elements(group, mats),
            np.kron(np.eye(n), i_block))


def conjugated_gaussian(c):
    """Z4 on Z[i] conjugated by [[1, c], [0, 1]]: rho(g) = T^-1 g T has the
    entry c^2 + 1."""
    t, t_inv = np.array([[1, c], [0, 1]], dtype=object), np.array(
        [[1, -c], [0, 1]], dtype=object)
    return IntegralRepresentation(gaussian_action().group, [
        (t_inv @ np.array(m, dtype=object) @ t).tolist()
        for m in gaussian_action().matrices])


@pytest.fixture(scope="module")
def catalogue_actions():
    """The benchmark catalogue: two seeded actions of rank <= 8 for each of
    the 28 groups of order < 16, with their complex structures."""
    rng = random.Random("actions/catalogue")
    return [(rep, structure.j_matrix_float())
            for group in small_groups() for rep, structure in (
                random_hodge_fixture(rng, groups=[group]) for _ in range(2))]


def _congruence_probes(n2, rng):
    small = [[rng.randint(-9, 9) for _ in range(n2)] for _ in range(n2)]
    # past 2^62: the contraction runs on Python integers
    huge = [[rng.randint(-2**70, 2**70) for _ in range(n2)]
            for _ in range(n2)]
    return small, huge


def _assert_g_sums_match(rep, rng):
    assert rep.square_sum.tolist() == reference_square_sum(rep).tolist()
    assert invariant_two_forms(rep).basis == reference_two_forms(rep)
    for x in _congruence_probes(rep.rank, rng):
        assert rep.congruence_sum(x) == reference_congruence_sum(rep, x)


def test_g_sums_match_the_per_element_sums_on_the_catalogue(
        catalogue_actions):
    assert len(catalogue_actions) == 56
    assert max(rep.rank for rep, _ in catalogue_actions) <= 8
    rng = random.Random(41)
    for rep, j in catalogue_actions:
        assert rep.square_sum.dtype == np.int64
        _assert_g_sums_match(rep, rng)
        assert deform._hom_dimension(rep, j) == \
            reference_hom_dimension(rep, j)


@pytest.mark.parametrize("k", [4, 6])
def test_g_sums_match_the_per_element_sums_on_wreath_products(k):
    rep, j = wreath_action(k, 3)
    assert rep.group.order == {4: 384, 6: 1296}[k]
    _assert_g_sums_match(rep, random.Random(k))
    assert deform._hom_dimension(rep, j) == reference_hom_dimension(rep, j)


def test_g_sums_past_the_int64_bound_use_python_integers():
    # 2 |G| max|rho|^2 = 2^3 (2^80 + 1)^2 is past 2^62: K, the Reynolds
    # operator and every contraction are exact Python integers; a float
    # chart dimension means nothing at this size and is not compared
    rep = conjugated_gaussian(2**40)
    assert rep.square_sum.dtype == object
    _assert_g_sums_match(rep, random.Random(43))
    assert invariant_two_forms(rep).dimension == 1


# -- the exact kernels against their references -------------------------------


P = deform._PRIME
# residues of every kind: small, negative, at and past the prime, and past
# int64 (the stack is then object dtype)
ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from(
    [P - 1, P, P + 1, 2 * P, -P, -P - 1, 2**62, -2**63]),
                    st.integers(-2**70, 2**70))


@settings(max_examples=300)
@given(data=st.data(), count=st.integers(0, 4), height=st.integers(1, 5),
       width=st.integers(1, 6))
def test_stacked_certificate_matches_the_per_matrix_elimination(
        data, count, height, width):
    # one elimination of the whole stack gives each matrix's pivot columns;
    # it stops at `limit`, any bound on the ranks over Q, down to the
    # largest rank itself.  A member whose last row is its first plus p
    # times another is singular mod p
    mats = []
    for _ in range(count):
        mat = data.draw(st.lists(st.lists(ENTRIES, min_size=width,
                                          max_size=width),
                                 min_size=height, max_size=height))
        if height > 1 and data.draw(st.booleans()):
            mat[-1] = [x + P * y for x, y in zip(mat[0], mat[1])]
        mats.append(mat)
    rank = max((linalg.rank(m) for m in mats), default=0)
    limit = data.draw(st.integers(rank, height + 1))
    stack = np.array(mats, dtype=object).reshape(count, height, width)
    if all(-2**63 <= x < 2**63 for x in stack.ravel().tolist()):
        stack = stack.astype(np.int64)
    assert deform._pivot_columns_mod_p(stack, limit) == [
        reference_pivot_columns_mod_p(np.array(m, dtype=object))
        for m in mats]


def tight_stack(peak):
    """Four 1 x 1 matrices peak, peak - 1, peak - 1, peak - 1 (peak odd):
    no homomorphism, but K is a sum over any stack, and here K =
    4 peak^2 - 6 peak + 3 is odd and within 6 peak of its bound
    |G| max|rho|^2 = 4 peak^2."""
    return IntegralRepresentation(gaussian_action().group,
                                  [[[peak]]] + [[[peak - 1]]] * 3)


@pytest.mark.parametrize("make, arg, below", [
    (conjugated_gaussian, 6888, True), (conjugated_gaussian, 6889, False),
    (tight_stack, 47453131, True), (tight_stack, 47453135, False)],
    ids=["gaussian-below-2^53", "gaussian-above-2^53", "tight-below-2^53",
         "tight-above-2^53"])
def test_square_sum_is_exact_on_both_sides_of_the_float_bound(make, arg,
                                                              below):
    # |G| max|rho|^2 just below 2^53, where K is a float64 product, and just
    # above, where it is int64.  The Gaussian family's K is half its bound;
    # the tight stack's odd K passes 2^53 just above, where a float product
    # would round it
    rep = make(arg)
    peak = max(abs(x) for m in rep.matrices for row in m for x in row)
    assert (rep.group.order * peak**2 < 2**53) == below
    assert rep.square_sum.dtype == np.int64
    assert rep.square_sum.tolist() == reference_square_sum(rep).tolist()


def test_limb_contraction_where_its_bound_is_tight():
    # the all-ones 3 x 3 matrix of the trivial group: every entry of K is 1,
    # so a contraction reaches n^2 max|K| |x| = 9 |x|, past 2^63 for the
    # entries below taken in one limb; in b-bit limbs every one is exact
    rep = IntegralRepresentation(trivial_action(2).group, [[[1] * 3] * 3])
    for value in (2**60 - 1, -2**60, 2**62 + 3, -2**70 - 1):
        x = [[value] * 3 for _ in range(3)]
        assert rep.congruence_sum(x) == reference_congruence_sum(rep, x)


@pytest.mark.parametrize("k", [4, 6])
def test_limb_contraction_past_the_int64_bound(k):
    # K in int64 and x past 2^62: x splits into b-bit limbs, b the largest
    # with n^2 max|K| 2^b < 2^62; entries at the limb boundaries and across
    # several limbs, of both signs
    rep, _ = wreath_action(k, 3)
    n2 = rep.rank
    assert rep.square_sum.dtype == np.int64
    b = 62 - (n2 * n2 * int(abs(rep.square_sum).max())).bit_length()
    edges = [2**b - 1, 2**b, 2**b + 1, 2**(2 * b), 2**62 + 1, 2**63,
             2**64 - 1, 3**60]
    rng = random.Random(k)
    for _ in range(3):
        x = [[rng.choice([-1, 1]) * rng.choice(
            edges + [rng.randint(0, 2**100)]) for _ in range(n2)]
             for _ in range(n2)]
        assert rep.congruence_sum(x) == reference_congruence_sum(rep, x)
