"""Projective deformations of torus actions, by polar decomposition.

For xi rational, G-invariant, alternating and invertible, and S rational,
G-invariant and positive definite, a = -S^-1 xi commutes with rho(G) and is
S-skew, so its polar factor J' = a (-a^2)^(-1/2) is a G-invariant complex
structure polarized by xi: xi J' = S (-a^2)^(1/2) is symmetric positive
definite (Birkenhake-Lange, Complex Abelian Varieties, 4.2).  Newton's
iteration Y <- (Y - Y^-1)/2 from Y = a converges to J' (Higham, Functions
of Matrices, ch. 5).  S averages the J-metric over G exactly, and xi is the
Kaehler class J^T S rounded to denominators 1, 2, 4, ...; the J' closest
to J wins.  S, xi and their certificates are exact; J', its distance to J
and the residual |J'^2 + 1| are floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .hodge import IntegralRepresentation

__all__ = [
    "InvariantTwoFormSpace",
    "DeformationResult",
    "NoConvergence",
    "BudgetExhausted",
    "invariant_two_forms",
    "invariant_metric",
    "invariant_kahler_class",
    "newton_solve",
    "find_projective_neighbor",
    "NEWTON_TOL",
    "POSITIVITY_MARGIN",
]

NEWTON_TOL = 1e-10
POSITIVITY_MARGIN = 1e-8
NEWTON_MAX_ITER = 50
_PRIME = 2**31 - 1   # products of two residues fit in int64


class NoConvergence(RuntimeError):
    pass


class BudgetExhausted(RuntimeError):
    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


# -- exact invariants -----------------------------------------------------------


@dataclass(frozen=True)
class InvariantTwoFormSpace:
    """Integer basis of the G-invariant alternating forms over Q."""

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


def invariant_two_forms(rep: IntegralRepresentation) -> InvariantTwoFormSpace:
    """Basis of {eta alternating : rho(g)^T eta rho(g) = eta} over Q.

    The Reynolds operator R = sum_g Lambda^2 rho(g) on the coordinates
    eta_ij (i < j) is an integer matrix whose image is the invariant space,
    of dimension tr(R) / |G|.  Its pivot columns modulo a prime are
    independent over Q (a rational relation would reduce to one mod p);
    each is divided by its content.
    """
    import numpy as np
    n2 = rep.rank
    rho = np.array(rep.matrices, dtype=object)
    iu, ju = np.triu_indices(n2, 1)
    # column (k, l) is the average of e_k ^ e_l: rho_k (x) rho_l - rho_l (x) rho_k
    outer = np.einsum("gki,glj->klij", rho, rho)
    reynolds = (outer - outer.transpose(1, 0, 2, 3))[iu, ju][:, iu, ju].T
    dim = int(np.trace(reynolds)) // rep.group.order
    pivots = _pivot_columns_mod_p(reynolds)
    if len(pivots) < dim:  # p divides a minor of R: eliminate over Q
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
    return InvariantTwoFormSpace(rank=n2, basis=tuple(basis))


def _pivot_columns_mod_p(mat):
    """Pivot columns of an integer matrix's row echelon form mod _PRIME."""
    import numpy as np
    a = np.array(mat % _PRIME, dtype=np.int64)
    pivots = []
    for c in range(a.shape[1]):
        rows = np.flatnonzero(a[:, c])
        if rows.size:  # eliminate column c with its first row, consuming it
            row = a[rows[0]] * pow(int(a[rows[0], c]), -1, _PRIME) % _PRIME
            a = (a - np.outer(a[:, c], row)) % _PRIME
            pivots.append(c)
    return pivots


def invariant_metric(rep: IntegralRepresentation, j_matrix):
    """An integer matrix D * S for the exact G-average S = sum_g rho(g)^T m
    rho(g) of the float J-metric m = sum_k (J^k)^T J^k (k = 0..3), whose
    entries are read as the dyadic rationals they are: S is exactly
    symmetric and G-invariant."""
    import numpy as np
    j = np.asarray(j_matrix, dtype=float)
    # a J near the float range overflows to inf and nan here, silently: a
    # non-finite metric is a NoConvergence below
    with np.errstate(over="ignore", invalid="ignore"):
        m = sum(p.T @ p for p in (np.eye(len(j)), j, j @ j, j @ j @ j))
    if not np.isfinite(m).all():
        raise NoConvergence("the J-metric overflows a float")
    ratios = [[x.as_integer_ratio() for x in row] for row in (m + m.T).tolist()]
    den = max(d for row in ratios for _, d in row)
    scaled = np.array([[p * (den // d) for p, d in row] for row in ratios],
                      dtype=object)
    total = sum(r.T @ scaled @ r for r in np.array(rep.matrices, dtype=object))
    return [[int(x) for x in row] for row in total]


def _ldl_positive_pivots(s) -> int:
    """How many leading pivots of the exact LDL^T factorization of the
    integer symmetric matrix s are positive (all of them exactly when s is
    positive definite).  Fraction-free: after step k the diagonal entry is
    the leading principal minor of order k + 1 (Bareiss 1968)."""
    a = [list(row) for row in s]
    n, prev = len(a), 1
    for k in range(n):
        if a[k][k] <= 0:
            return k
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return n


def invariant_kahler_class(space: InvariantTwoFormSpace, metric, j_matrix):
    """Float coordinates of the Kaehler class J^T S (S a float matrix) in the
    invariant basis, least squares on its alternating part, scaled to
    max |coordinate| = 1."""
    import numpy as np
    omega = np.asarray(j_matrix, dtype=float).T @ metric
    iu = np.triu_indices(space.rank, 1)
    cols = np.array(space.basis, dtype=float)[:, iu[0], iu[1]].T
    coords, *_ = np.linalg.lstsq(cols, (omega - omega.T)[iu] / 2, rcond=None)
    peak = float(np.max(np.abs(coords), initial=0.0))
    if not peak:
        raise BudgetExhausted("the Kaehler class has no invariant part")
    return (coords / peak).tolist()


def newton_solve(a, max_iter: int = NEWTON_MAX_ITER):
    """Polar factors J' = a (-a^2)^(-1/2) of a stack of invertible S-skew
    matrices a (shape (..., 2n, 2n)) by Newton's iteration Y <- (Y - Y^-1)/2,
    started from a / |det a|^(1/2n).  A matrix stops moving once its step is
    below NEWTON_TOL.  Returns (J', info): info["iterations"] counts the
    steps taken, info["residual"] is |J'^2 + 1| (Frobenius) per matrix."""
    import numpy as np
    y = np.array(a, dtype=float)
    n2 = y.shape[-1]
    y /= (np.abs(np.linalg.det(y)) ** (1.0 / n2))[..., None, None]
    active = np.ones(y.shape[:-2], dtype=bool)
    iterations = 0
    while active.any() and iterations < max_iter:
        iterations += 1
        old = y[active]
        new = (old - np.linalg.inv(old)) / 2
        y[active] = new
        active[active] = np.linalg.norm(new - old, axis=(-2, -1)) >= NEWTON_TOL
    residual = np.linalg.norm(y @ y + np.eye(n2), axis=(-2, -1))
    return y, {"iterations": iterations, "residual": residual}


# -- the search ---------------------------------------------------------------


@dataclass(frozen=True)
class DeformationResult:
    xi_coords: tuple            # exact rational coordinates, invariant basis
    denominator: int
    t_matrix: tuple             # chart coordinate of J', as (re, im) pairs
    t_norm: float               # its Frobenius norm: the chart distance
    residual: float             # |J'^2 + 1| (Frobenius)
    positivity_margin: float    # least eigenvalue of xi J'
    iterations: int
    chart_dimension: int        # dim Hom_G(V^{0,1}, V^{1,0})
    certificate: dict           # exact rank of xi, positive LDL pivots of S

    def xi_is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.xi_coords)


def _ladder(omega_coords, max_denominator: int):
    """(denominator, class) for denominators 1, 2, 4, ..., max_denominator:
    the coordinates rounded to each, at the first denominator giving them."""
    out = {}
    for d in [1 << k for k in range(max_denominator.bit_length())] + [
            max_denominator] * (max_denominator > 0):
        out.setdefault(tuple(Fraction(round(c * d), d) for c in omega_coords),
                       d)
    return [(d, coords) for coords, d in out.items()]


def _chart(j, j_prime):
    """Chart coordinates t of a stack of J' over J and their norms: with B
    an orthonormal basis of J's +i-eigenspace, J' has +i-eigenspace
    {Bx + conj(B) t x}, and T = (J + J')^-1 (J - J') maps Bx to conj(B) t x.
    The norm is infinite where J + J' is singular."""
    import numpy as np
    n = len(j) // 2
    vals, vecs = np.linalg.eig(j)
    b, _ = np.linalg.qr(vecs[:, np.argsort(-vals.imag, kind="stable")[:n]])
    frame = np.hstack([b, b.conj()])
    total = j + j_prime
    chartable = np.linalg.det(total) != 0
    t = np.zeros((len(j_prime), n, n), dtype=complex)
    t[chartable] = np.linalg.solve(frame, np.linalg.solve(
        total[chartable], j - j_prime[chartable]) @ b)[:, n:]
    return t, np.where(chartable, np.linalg.norm(t, axis=(-2, -1)), np.inf)


def _hom_dimension(rep: IntegralRepresentation, j) -> int:
    """(1/|G|) sum_g chi10(g)^2 with chi10(g) = (tr rho(g) - i tr rho(g) J)/2:
    the complex dimension of the invariant directions of deformation."""
    import numpy as np
    rho = np.array(rep.matrices, dtype=float)
    chi = (np.trace(rho, axis1=1, axis2=2)
           - 1j * np.einsum("gij,ji->g", rho, j)) / 2
    return int(round(float(np.sum(chi ** 2).real) / rep.group.order))


def find_projective_neighbor(rep: IntegralRepresentation, j_matrix,
                             max_denominator: int = 256,
                             epsilon: float = 1.0) -> DeformationResult:
    """The polarized J' at the least chart distance from J over the classes
    of the denominator ladder up to max_denominator, with distance below
    epsilon, residual below NEWTON_TOL and positivity margin above
    POSITIVITY_MARGIN; the first rung wins a tie.  A smaller bound's ladder
    is a prefix, so the distance never grows with max_denominator."""
    import numpy as np
    space = invariant_two_forms(rep)
    if space.dimension == 0:
        raise BudgetExhausted("no invariant 2-forms at all")
    metric = invariant_metric(rep, j_matrix)
    s_pivots = _ldl_positive_pivots(metric)
    if s_pivots < rep.rank:
        raise NoConvergence("the averaged J-metric is not positive definite")
    j = np.asarray(j_matrix, dtype=float)
    try:
        s = np.array(metric, dtype=float)
    except OverflowError:
        raise NoConvergence("the averaged J-metric overflows a float") \
            from None
    s /= np.abs(s).max()
    ladder = _ladder(invariant_kahler_class(space, s, j), max_denominator)
    basis = np.array(space.basis, dtype=object)
    # D * xi is an integer matrix; full rank mod p proves xi invertible
    xi = [np.tensordot(np.array([int(c * d) for c in coords], dtype=object),
                       basis, 1) for d, coords in ladder]
    keep = [k for k, x in enumerate(xi)
            if len(_pivot_columns_mod_p(x)) == rep.rank]
    if not keep:
        raise BudgetExhausted(
            f"no invertible class within denominator {max_denominator}")
    xi = np.array([xi[k] / ladder[k][0] for k in keep], dtype=float)
    j_prime, info = newton_solve(-np.linalg.solve(s, xi))
    t, t_norm = _chart(j, j_prime)
    form = xi @ j_prime
    margin = np.linalg.eigvalsh((form + np.swapaxes(form, -2, -1)) / 2)[:, 0]
    ok = ((info["residual"] < NEWTON_TOL) & (margin > POSITIVITY_MARGIN)
          & (t_norm < epsilon))
    k = min(range(len(keep)), key=lambda k: (not ok[k], t_norm[k]))
    diag = {"denominator": ladder[keep[k]][0], "t_norm": float(t_norm[k]),
            "residual": float(info["residual"][k]),
            "positivity_margin": float(margin[k])}
    if not ok[k]:
        raise BudgetExhausted(
            f"no projective neighbor within denominator {max_denominator}",
            best=diag)
    return DeformationResult(
        xi_coords=ladder[keep[k]][1],
        t_matrix=tuple(tuple((float(z.real), float(z.imag)) for z in row)
                       for row in t[k]),
        iterations=info["iterations"],
        chart_dimension=_hom_dimension(rep, j),
        certificate={"xi_rank": rep.rank, "s_positive_pivots": s_pivots},
        **diag)
