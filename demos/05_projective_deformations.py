"""Deforming an arbitrary torus action to a projective one.

A generic complex torus is not projective.  Round its Kaehler class to a
rational invariant class xi; with the exact invariant metric S, the polar
factor J' of a = -S^-1 xi is a nearby complex structure that xi polarizes.
Finer denominators give closer J'.  Rigid actions cannot move at all, and
there the class is the exact polarization itself.
"""

from fractions import Fraction

import numpy as np

from rigidtori import (find_projective_neighbor, invariant_kahler_class,
                       invariant_metric, invariant_two_forms, newton_solve)
from rigidtori.deform import BudgetExhausted
from rigidtori.fixtures import gaussian_action, trivial_action


def random_torus(n2, seed):
    rng = np.random.default_rng(seed)
    while True:
        a = rng.standard_normal((n2, n2 // 2)) \
            + 1j * rng.standard_normal((n2, n2 // 2))
        full = np.hstack([a, np.conj(a)])
        if np.linalg.cond(full) < 50:
            d = np.diag([1j] * (n2 // 2) + [-1j] * (n2 // 2))
            return (full @ d @ np.linalg.inv(full)).real


def the_ladder():
    print("=== a generic 2-dimensional complex torus ===")
    rep = trivial_action(4)
    j = random_torus(4, seed=2)
    space = invariant_two_forms(rep)
    print(f"invariant 2-form lattice has rank {space.dimension}")
    s = np.array(invariant_metric(rep, j), dtype=float)
    coords = invariant_kahler_class(space, s / np.abs(s).max(), j)
    print("Kaehler class coordinates:", [round(c, 4) for c in coords])

    for md in (1, 4, 16, 64, 256):
        try:
            res = find_projective_neighbor(rep, j, max_denominator=md,
                                           epsilon=10.0)
        except BudgetExhausted as exc:
            print(f"max denominator {md:4d}: {exc}")
            continue
        print(f"max denominator {md:4d}: class at denominator "
              f"{res.denominator:3d}, chart distance {res.t_norm:.3e}, "
              f"|J'^2 + 1| {res.residual:.1e}, "
              f"margin {res.positivity_margin:.3f}")


def watch_polar_iteration():
    print("\n=== watching the polar iteration Y <- (Y - Y^-1)/2 ===")
    rep = trivial_action(4)
    j = random_torus(4, seed=3)
    space = invariant_two_forms(rep)
    s = np.array(invariant_metric(rep, j), dtype=float)
    s /= np.abs(s).max()
    coords = invariant_kahler_class(space, s, j)
    xi = space.combine([Fraction(c).limit_denominator(32) for c in coords])
    a = -np.linalg.solve(s, np.array(xi, dtype=float))
    _, info = newton_solve(a)
    for k in range(info["iterations"] + 1):
        y, step = newton_solve(a, max_iter=k)
        print(f"step {k}: |Y^2 + 1| = {step['residual']:.2e}")
    print(f"J' lies at {np.linalg.norm(y - j):.3e} from J")


def rigid_case():
    print("\n=== the rigid Gaussian curve does not need to move ===")
    rep = gaussian_action()
    res = find_projective_neighbor(rep, [[0.0, -1.0], [1.0, 0.0]],
                                   max_denominator=64)
    print(f"chart dimension {res.chart_dimension}, distance {res.t_norm}, "
          f"class {res.xi_coords} at denominator {res.denominator}, "
          f"certificate {res.certificate}")


if __name__ == "__main__":
    the_ladder()
    watch_polar_iteration()
    rigid_case()
