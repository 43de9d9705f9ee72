"""Projective deformations of torus actions: the numeric period-domain leg.

Works in the graph chart U_t = {u + t(u)} over a fixed orthonormalized base
subspace U_0, restricted to the G-invariant directions.  A rational
G-invariant 2-form class xi lies on the Hodge locus at t exactly when its
(0,2)-part vanishes there; a Gauss-Newton iteration drives that part to
zero.  Candidate classes are continued-fraction convergents of the Kaehler
class of the input complex structure, enumerated by increasing denominator.

Everything about xi is exact (integer invariant basis, rational
coordinates); floats only enter through the chart and the residuals, and
results are diagnostics rather than proofs (exact certification for rigid
actions lives in the polarization machinery).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .hodge import IntegralRepresentation

__all__ = [
    "InvariantTwoFormSpace",
    "PeriodPoint",
    "DeformationResult",
    "NoConvergence",
    "BudgetExhausted",
    "invariant_two_forms",
    "invariant_kahler_class",
    "zero_two_part",
    "newton_solve",
    "find_projective_neighbor",
    "NEWTON_TOL",
    "POSITIVITY_MARGIN",
    "CHART_CONDITION_BOUND",
]

NEWTON_TOL = 1e-10
POSITIVITY_MARGIN = 1e-8
CHART_CONDITION_BOUND = 1e6
NEWTON_MAX_ITER = 50


class NoConvergence(RuntimeError):
    pass


class BudgetExhausted(RuntimeError):
    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


# -- invariant forms ----------------------------------------------------------


@dataclass(frozen=True)
class InvariantTwoFormSpace:
    """Saturated integer basis of the G-invariant alternating forms."""

    rank: int                  # 2n
    basis: tuple               # tuple of 2n x 2n integer matrices

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def combine(self, coords):
        n2 = self.rank
        out = [[Fraction(0)] * n2 for _ in range(n2)]
        for c, eta in zip(coords, self.basis):
            c = Fraction(c)
            if c:
                for i in range(n2):
                    for j in range(n2):
                        if eta[i][j]:
                            out[i][j] += c * eta[i][j]
        return out

    def combine_float(self, coords):
        import numpy as np
        n2 = self.rank
        acc = np.zeros((n2, n2))
        for c, eta in zip(coords, self.basis):
            acc += float(c) * np.array(eta, dtype=float)
        return acc


def invariant_two_forms(rep: IntegralRepresentation) -> InvariantTwoFormSpace:
    """Exact basis of {eta alternating : rho(g)^T eta rho(g) = eta}.

    The invariance conditions are integer-linear in the n(2n-1) independent
    entries; the saturated integer kernel is the lattice basis.  The
    dimension is cross-checked against the character of Lambda^2 of the
    dual representation.
    """
    n2 = rep.rank
    pairs = [(i, j) for i in range(n2) for j in range(i + 1, n2)]
    index = {p: k for k, p in enumerate(pairs)}
    gens = rep.generator_indices()
    rows = []
    for g in gens:
        rho = rep.matrices[g]
        for (i, j) in pairs:
            # [rho^T eta rho - eta]_{ij} as a linear functional of eta coords
            row = [0] * len(pairs)
            for k in range(n2):
                for l in range(n2):
                    if k == l:
                        continue
                    c = rho[k][i] * rho[l][j]
                    if not c:
                        continue
                    if (k, l) in index:
                        row[index[(k, l)]] += c
                    else:
                        row[index[(l, k)]] -= c
            row[index[(i, j)]] -= 1
            rows.append(row)
    if rows and any(any(r) for r in rows):
        # solutions eta with rows @ eta = 0: left kernel of rows^T
        kernel = linalg.integer_kernel(
            [[rows[r][c] for r in range(len(rows))] for c in range(len(pairs))])
    else:
        kernel = [[1 if t == k else 0 for t in range(len(pairs))]
                  for k in range(len(pairs))]
    basis = []
    for vec in kernel:
        eta = [[0] * n2 for _ in range(n2)]
        for (i, j), c in zip(pairs, vec):
            eta[i][j] = c
            eta[j][i] = -c
        basis.append(tuple(tuple(r) for r in eta))
    space = InvariantTwoFormSpace(rank=n2, basis=tuple(basis))
    expected = _trivial_multiplicity_in_wedge_dual(rep)
    if space.dimension != expected:
        raise AssertionError(
            f"invariant form count {space.dimension} disagrees with the "
            f"character count {expected}")
    return space


def _trivial_multiplicity_in_wedge_dual(rep: IntegralRepresentation) -> int:
    g_order = rep.group.order
    total = Fraction(0)
    for g in range(g_order):
        g_inv = rep.group.inverse[g]
        tr = Fraction(rep.trace(g_inv))
        tr2 = Fraction(rep.trace(rep.group.inverse[rep.group.table[g][g]]))
        total += (tr * tr - tr2) / 2
    total /= g_order
    assert total.denominator == 1
    return int(total)


# -- the chart ----------------------------------------------------------------


@dataclass
class PeriodPoint:
    """Base subspace (orthonormal columns) plus a graph-chart coordinate."""

    base: np.ndarray        # 2n x n complex, orthonormal columns spanning U_0
    t: np.ndarray           # n x n complex, U_t = {u + t(u)}

    def basis_matrix(self) -> np.ndarray:
        import numpy as np
        return self.base + np.conj(self.base) @ self.t

    def full_matrix(self) -> np.ndarray:
        import numpy as np
        b = self.basis_matrix()
        return np.hstack([b, np.conj(b)])

    def condition_number(self) -> float:
        import numpy as np
        return float(np.linalg.cond(self.full_matrix()))


def base_point_from_j(j_matrix) -> PeriodPoint:
    import numpy as np
    J = np.asarray(j_matrix, dtype=float)
    n2 = J.shape[0]
    vals, vecs = np.linalg.eig(J)
    cols = vecs[:, np.isclose(vals.imag, 1.0, atol=1e-8)]
    if cols.shape[1] != n2 // 2:
        raise NoConvergence("J has the wrong eigenvalue structure")
    q, _ = np.linalg.qr(cols)
    return PeriodPoint(base=q, t=np.zeros((n2 // 2, n2 // 2), dtype=complex))


def invariant_kahler_class(rep: IntegralRepresentation, j_matrix,
                           space: InvariantTwoFormSpace | None = None):
    """Coordinates of the averaged Kaehler class in the invariant basis.

    Built from an orthonormal basis u_i of U_0 as i * sum (u_i^dual (x)
    conj(u_i)^dual - conj swap), then G-averaged; returns (coords, report)
    where the report carries the projection residual and positivity margin.
    """
    import numpy as np
    if space is None:
        space = invariant_two_forms(rep)
    point = base_point_from_j(j_matrix)
    n2 = rep.rank
    n = n2 // 2
    full = point.full_matrix()
    dual = np.linalg.inv(full)
    omega = np.zeros((n2, n2), dtype=complex)
    for i in range(n):
        q = dual[i]
        qbar = dual[n + i]
        omega += 1j * (np.outer(q, qbar) - np.outer(qbar, q))
    if np.max(np.abs(omega.imag)) > 1e-10:
        raise NoConvergence("Kaehler form failed to come out real")
    omega = omega.real
    averaged = np.zeros_like(omega)
    for g in range(rep.group.order):
        rho = np.array(rep.matrices[g], dtype=float)
        averaged += rho.T @ omega @ rho
    averaged /= rep.group.order
    avg_defect = float(np.max(np.abs(averaged - omega)))
    if space.dimension == 0:
        return [], {"projection_residual": float(np.max(np.abs(averaged))),
                    "averaging_defect": avg_defect, "positivity_margin": 0.0}
    cols = np.array([np.array(eta, dtype=float).ravel()
                     for eta in space.basis]).T
    coords, *_ = np.linalg.lstsq(cols, averaged.ravel(), rcond=None)
    recon = (cols @ coords).reshape(n2, n2)
    residual = float(np.max(np.abs(recon - averaged)))
    margin = positivity_margin(averaged, point)
    report = {"projection_residual": residual,
              "averaging_defect": avg_defect,
              "positivity_margin": margin}
    return list(coords), report


def positivity_margin(xi_matrix, point: PeriodPoint) -> float:
    """Minimum eigenvalue of the Hermitian form -i xi(v, conj(v)) on U_t."""
    import numpy as np
    basis = point.basis_matrix()
    xi = np.asarray(xi_matrix, dtype=float)
    herm = -1j * (basis.T @ xi @ np.conj(basis))
    herm = (herm + np.conj(herm.T)) / 2
    return float(np.min(np.linalg.eigvalsh(herm)))


def zero_two_part(xi_matrix, point: PeriodPoint) -> np.ndarray:
    """Restriction of xi to conj(U_t) x conj(U_t): the obstruction to
    xi being of type (1,1) + (2,0) at t."""
    import numpy as np
    cbar = np.conj(point.basis_matrix())
    xi = np.asarray(xi_matrix, dtype=float)
    return cbar.T @ xi @ cbar


def invariant_chart_basis(rep: IntegralRepresentation, point: PeriodPoint):
    """Basis of the G-invariant directions of Hom(U_0, conj(U_0)).

    T is invariant when conj(A_g) T = T A_g for the matrices A_g of rho(g)
    on the U_0 basis; computed from the fixed space of the averaging
    operator.  The dimension equals the equivariant hom dimension."""
    import numpy as np
    n = point.base.shape[1]
    base = point.base
    full = point.full_matrix()
    a_mats = []
    for g in rep.generator_indices() or [0]:
        rho = np.array(rep.matrices[g], dtype=float)
        sol = np.linalg.solve(full, rho @ base)
        a = sol[:n]
        if np.max(np.abs(sol[n:])) > 1e-8:
            raise NoConvergence("rho(g) does not preserve U_0")
        a_mats.append(a)
    # averaging projector over the whole group, assembled from generators:
    # iterate the generator maps to convergence of the fixed space instead
    # of expanding all words; equivalently solve the linear fixed system.
    sys_rows = []
    for a in a_mats:
        abar = np.conj(a)
        ident = np.eye(n)
        # (abar (x) I - I (x) a^T) vec(T) = 0  for  abar T - T a = 0
        sys_rows.append(np.kron(abar, ident) - np.kron(ident, a.T))
    if not sys_rows:
        return [np.eye(n, dtype=complex)[:, [k]] @ np.eye(n, dtype=complex)[[k], :]
                for k in range(n)]
    system = np.vstack(sys_rows)
    _, s, vh = np.linalg.svd(system)
    tolerance = max(system.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null = vh[np.sum(s > max(tolerance, 1e-9)):].conj().T
    # row-major vec convention: kron(A, I) - kron(I, B^T) encodes A T - T B
    return [null[:, k].reshape(n, n) for k in range(null.shape[1])]


def newton_solve(xi_matrix, rep: IntegralRepresentation, point: PeriodPoint,
                 max_iter: int = NEWTON_MAX_ITER,
                 chart_basis=None):
    """Drive the (0,2)-part of xi below NEWTON_TOL over the invariant chart.

    Returns (PeriodPoint, info) with the residual history; raises
    NoConvergence when the target is unreachable (rigid directions) or the
    chart's condition number passes CHART_CONDITION_BOUND.
    """
    import numpy as np
    if chart_basis is None:
        chart_basis = invariant_chart_basis(rep, point)
    n = point.base.shape[1]
    base = point.base
    xi = np.asarray(xi_matrix, dtype=float)
    r = len(chart_basis)
    triu = np.triu_indices(n, k=1)

    def features(s_mat):
        cbar = np.conj(base) + base @ s_mat
        f = cbar.T @ xi @ cbar
        return f[triu] if triu[0].size else np.zeros(0, dtype=complex)

    # s parametrizes conj(t); F is holomorphic in s
    coeffs = np.zeros(r, dtype=complex)
    sbar_basis = [np.conj(tb) for tb in chart_basis]
    history = []
    for iteration in range(max_iter + 1):
        s_mat = sum((c * sb for c, sb in zip(coeffs, sbar_basis)),
                    np.zeros((n, n), dtype=complex))
        fvec = features(s_mat)
        resid = float(np.linalg.norm(fvec)) if fvec.size else 0.0
        history.append(resid)
        point_t = PeriodPoint(base=base, t=np.conj(s_mat))
        if point_t.condition_number() > CHART_CONDITION_BOUND:
            raise NoConvergence("chart conditioning bound exceeded")
        if resid < NEWTON_TOL:
            info = {"iterations": iteration, "residual": resid,
                    "history": history, "chart_dimension": r}
            return point_t, info
        if r == 0 or iteration == max_iter:
            raise NoConvergence(
                f"residual {resid:.3e} after {iteration} iterations "
                f"(chart dimension {r})")
        cbar = np.conj(base) + base @ s_mat
        jac = np.zeros((fvec.size, r), dtype=complex)
        for k, sb in enumerate(sbar_basis):
            d = base @ sb
            df = d.T @ xi @ cbar + cbar.T @ xi @ d
            jac[:, k] = df[triu]
        step, *_ = np.linalg.lstsq(jac, -fvec, rcond=None)
        coeffs = coeffs + step


# -- the search ---------------------------------------------------------------


@dataclass(frozen=True)
class DeformationResult:
    xi_coords: tuple            # exact rational coordinates, invariant basis
    denominator: int
    t_matrix: tuple             # chart value as nested float pairs
    t_norm: float
    residual: float
    positivity_margin: float
    iterations: int
    chart_dimension: int

    def xi_is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.xi_coords)


def _convergent_ladder(value: float, max_denominator: int):
    """Continued-fraction convergents of value with denominators <= bound."""
    out = []
    frac = Fraction(value)
    d = 1
    while d <= max_denominator:
        out.append(frac.limit_denominator(d))
        d *= 2
    out.append(frac.limit_denominator(max_denominator))
    dedup = []
    for f in out:
        if not dedup or dedup[-1] != f:
            dedup.append(f)
    return dedup


def enumerate_rational_classes(omega_coords, max_denominator: int):
    """Rational approximations of omega, merged by increasing denominator,
    deterministic order, deduplicated."""
    ladders = [_convergent_ladder(c, max_denominator) for c in omega_coords]
    seen = set()
    out = []
    bounds = []
    d = 1
    while d <= max_denominator:
        bounds.append(d)
        d *= 2
    if bounds[-1] != max_denominator:
        bounds.append(max_denominator)
    for bound in bounds:
        cand = []
        for ladder in ladders:
            best = ladder[0]
            for f in ladder:
                if f.denominator <= bound:
                    best = f
            cand.append(best)
        cand = tuple(cand)
        if cand not in seen:
            seen.add(cand)
            out.append((bound, cand))
    return out


def find_projective_neighbor(rep: IntegralRepresentation, j_matrix,
                             max_denominator: int = 256,
                             epsilon: float = 1.0) -> DeformationResult:
    """First rational invariant class near the Kaehler class that lands on
    the Hodge locus (residual below NEWTON_TOL) with positivity margin above
    POSITIVITY_MARGIN within chart distance epsilon.

    Enumeration order is deterministic (increasing denominator bound), and
    the first success in that order is returned.
    """
    import numpy as np
    space = invariant_two_forms(rep)
    if space.dimension == 0:
        raise BudgetExhausted("no invariant 2-forms at all")
    omega_coords, _ = invariant_kahler_class(rep, j_matrix, space)
    point0 = base_point_from_j(j_matrix)
    chart = invariant_chart_basis(rep, point0)
    best = None
    for denominator, coords in enumerate_rational_classes(
            omega_coords, max_denominator):
        if all(c == 0 for c in coords):
            continue
        xi_exact = space.combine(coords)
        xi_float = [[float(x) for x in row] for row in xi_exact]
        try:
            point_t, info = newton_solve(xi_float, rep, point0,
                                         chart_basis=chart)
        except NoConvergence as exc:
            best = best or {"denominator": denominator, "failure": str(exc)}
            continue
        t_norm = float(np.linalg.norm(point_t.t))
        pos = positivity_margin(xi_float, point_t)
        diag = {"denominator": denominator, "t_norm": t_norm,
                "residual": info["residual"], "positivity_margin": pos}
        if t_norm < epsilon and pos > POSITIVITY_MARGIN:
            return DeformationResult(
                xi_coords=tuple(coords),
                denominator=denominator,
                t_matrix=tuple(tuple((float(z.real), float(z.imag))
                                     for z in row) for row in point_t.t),
                t_norm=t_norm,
                residual=info["residual"],
                positivity_margin=pos,
                iterations=info["iterations"],
                chart_dimension=info["chart_dimension"])
        best = diag
    raise BudgetExhausted(
        f"no projective neighbor within denominator {max_denominator}",
        best=best)
