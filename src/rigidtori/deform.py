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

from functools import lru_cache
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import DomainError
from .hodge import IntegralRepresentation, _check_commutes, _float_stack

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


class NoConvergence(DomainError, RuntimeError):
    pass


class BudgetExhausted(DomainError, RuntimeError):
    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


# -- exact invariants -----------------------------------------------------------


class InvariantTwoFormSpace:
    """Integer basis of the G-invariant alternating forms over Q."""

    __slots__ = ("rank", "basis")

    def __init__(self, rank: int, basis: tuple):
        self.rank = rank    # 2n
        self.basis = basis  # tuple of 2n x 2n integer matrices

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
    eta_ij (i < j) is the antisymmetrized i < j block of the representation's
    K = sum_g rho(g) (x) rho(g) (`square_sum`): an integer matrix whose image
    is the invariant space, of dimension tr(R) / |G|.  Its pivot columns
    modulo a prime are independent over Q (a rational relation would reduce
    to one mod p), and there are at most dim of them, so the elimination
    stops at dim; each is divided by its content.
    """
    n2 = rep.rank
    iu, ju = _upper_pairs(n2)
    # column (k, l) is the average of e_k ^ e_l: rho_k (x) rho_l - rho_l (x) rho_k
    outer = rep.square_sum.transpose(0, 2, 1, 3)
    reynolds = (outer - outer.transpose(1, 0, 2, 3))[iu, ju][:, iu, ju].T
    dim = sum(reynolds.diagonal().tolist()) // rep.group.order
    pivots = _pivot_columns_mod_p(reynolds[None], dim)[0]
    if len(pivots) < dim:  # p divides a minor of R: eliminate over Q
        pivots = linalg.rref(reynolds.tolist())[1]
    basis = []
    for col in reynolds[:, pivots].T.tolist():
        content = gcd(*col)
        eta = [[0] * n2 for _ in range(n2)]
        for i, j, x in zip(iu.tolist(), ju.tolist(), col):
            eta[i][j], eta[j][i] = x // content, -x // content
        basis.append(tuple(tuple(r) for r in eta))
    return InvariantTwoFormSpace(rank=n2, basis=tuple(basis))


def _pivot_columns_mod_p(stack, limit):
    """The pivot columns of the row echelon form mod _PRIME of each matrix
    of an integer stack (shape (k, m, w)), as one list per matrix.  `limit`
    bounds every matrix's rank mod p (its rank over Q does): the
    elimination stops once each matrix has that many pivots.

    One inverse-free elimination of the whole stack by cross-multiplication
    mod p: column by column, each matrix with a nonzero entry there takes
    such a row r' as its pivot row and replaces every row r by
    (a_r'c r - a_rc r') mod p.  That keeps each row up to a unit multiple
    and consumes r' (it becomes zero, and so does column c), so a column
    is a pivot column exactly when it is nonzero once the columns before it
    are eliminated; working mod p, no division is needed at all.  Residues are below p < 2^31, so both products are
    below 2^62 and int64 never wraps."""
    import numpy as np
    p = _PRIME
    # column-major: cols[k, j] is column j of matrix k
    cols = np.array(np.swapaxes(np.asarray(stack) % p, 1, 2), dtype=np.int64)
    every = np.arange(len(cols))
    found = [0] * len(cols)
    steps = []
    for c in range(cols.shape[1]):
        column = cols[:, c]
        if not column.any():
            continue
        row = column.argmax(axis=1)  # a nonzero entry, where there is one
        pivot = column[every, row]
        rest = cols[:, c + 1:]
        prow = rest[every, :, row]
        rest *= np.maximum(pivot, 1)[:, None, None]
        rest -= prow[:, :, None] * column[:, None, :]
        rest %= p
        live = pivot.astype(bool).tolist()
        steps.append((c, live))
        found = [f + x for f, x in zip(found, live)]
        if min(found) >= limit:
            break
    return [[c for c, live in steps if live[k]] for k in every.tolist()]


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
    return rep.congruence_sum([[p * (den // d) for p, d in row]
                               for row in ratios])


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


@lru_cache(maxsize=64)
def _upper_pairs(n2: int):
    """np.triu_indices(n2, 1), the coordinates i < j of an alternating
    form, built once per rank and read-only: the invariant forms and the
    Kaehler class of a request index the same pairs."""
    import numpy as np
    pairs = np.triu_indices(n2, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def invariant_kahler_class(space: InvariantTwoFormSpace, metric, j_matrix):
    """Float coordinates of the Kaehler class J^T S (S a float matrix) in the
    invariant basis, least squares on its alternating part, scaled to
    max |coordinate| = 1."""
    import numpy as np
    omega = np.asarray(j_matrix, dtype=float).T @ metric
    iu = _upper_pairs(space.rank)
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


class DeformationResult:
    __slots__ = ("xi_coords", "denominator", "t_matrix", "t_norm",
                 "residual", "positivity_margin", "iterations",
                 "chart_dimension", "certificate")

    def __init__(self, xi_coords: tuple, denominator: int, t_matrix: tuple,
                 t_norm: float, residual: float, positivity_margin: float,
                 iterations: int, chart_dimension: int, certificate: dict):
        self.xi_coords = xi_coords  # exact rational, invariant basis
        self.denominator = denominator
        self.t_matrix = t_matrix    # chart coordinate of J', (re, im) pairs
        self.t_norm = t_norm        # its Frobenius norm: the chart distance
        self.residual = residual    # |J'^2 + 1| (Frobenius)
        # least eigenvalue of xi J'
        self.positivity_margin = positivity_margin
        self.iterations = iterations
        # dim Hom_G(V^{0,1}, V^{1,0})
        self.chart_dimension = chart_dimension
        # exact rank of xi, positive LDL pivots of S
        self.certificate = certificate


def _ladder(omega_coords, max_denominator: int):
    """(denominator, numerators) for denominators 1, 2, 4, ...,
    max_denominator: the coordinates rounded to each (half to even, as
    round(Fraction(c) * d)), at the first denominator giving that class.  A
    bound below 1 admits no denominator."""
    ratios = [c.as_integer_ratio() for c in omega_coords]
    bound = max(max_denominator, 0)
    rungs = [1 << k for k in range(bound.bit_length())] + [bound] * (bound > 0)
    top = lcm(*rungs)
    out = {}
    for d in rungs:
        nums = []
        for p, q in ratios:  # p * d / q exactly: a float times d overflows
            n, r = divmod(p * d, q)
            nums.append(n + (2 * r > q or 2 * r == q and n % 2))
        out.setdefault(tuple(n * (top // d) for n in nums), (d, tuple(nums)))
    return list(out.values())


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
    the complex dimension of the invariant directions of deformation.  The
    sum is real (chi10(g^-1) is the conjugate of chi10(g)), and with
    K = `square_sum` it is (sum K[k,k,l,l] - sum K[k,i,l,j] J_ik J_jl) / 4."""
    import numpy as np
    n = rep.rank
    k = rep.square_sum.reshape(n * n, n * n)
    traces = sum(k[::n + 1, ::n + 1].ravel().tolist())
    v = np.asarray(j, dtype=float).T.reshape(n * n)
    twisted = float(v @ k.astype(float) @ v)
    return int(round((traces - twisted) / 4 / rep.group.order))


def find_projective_neighbor(rep: IntegralRepresentation, j_matrix,
                             max_denominator: int = 256,
                             epsilon: float = 1.0) -> DeformationResult:
    """The polarized J' at the least chart distance from J over the classes
    of the denominator ladder up to max_denominator, with distance below
    epsilon, residual below NEWTON_TOL and positivity margin above
    POSITIVITY_MARGIN; the first rung wins a tie.  A smaller bound's ladder
    is a prefix, so the distance never grows with max_denominator.  J must
    commute with rho on the generators as `hodge_character_from_numeric`
    requires (RoundingFailure)."""
    import numpy as np
    j = np.asarray(j_matrix, dtype=float)
    # the chart needs J^2 = -I; vacuous where |J|^2 overflows, as S does
    with np.errstate(over="ignore", invalid="ignore"):
        if np.linalg.norm(j @ j + np.eye(len(j))) > NEWTON_TOL * max(
                1.0, np.linalg.norm(j) ** 2):
            raise NoConvergence("J does not square to -I")
    space = invariant_two_forms(rep)
    if space.dimension == 0:
        raise BudgetExhausted("no invariant 2-forms at all")
    metric = invariant_metric(rep, j_matrix)
    s_pivots = _ldl_positive_pivots(metric)
    if s_pivots < rep.rank:
        raise NoConvergence("the averaged J-metric is not positive definite")
    try:
        s = np.array(metric, dtype=float)
    except OverflowError:
        raise NoConvergence("the averaged J-metric overflows a float") \
            from None
    # a neighbor in the chart of G-invariant structures needs a G-invariant
    # J; rho(G) fits floats once S does (S >= rho(g)^T rho(g))
    gens = rep.generator_indices()
    _check_commutes(j, _float_stack(rep, gens), gens)
    s /= np.abs(s).max()
    ladder = _ladder(invariant_kahler_class(space, s, j), max_denominator)
    # D * xi for every rung at once, an integer stack whose full rank mod p,
    # all rungs in one elimination, proves xi invertible: in int64 only
    # below 2^53, where the float images of D * xi and of D are exact, so
    # that xi's floats are those of Python's correctly rounded division
    n2, dim = rep.rank, space.dimension
    peak = max((abs(c) for _, nums in ladder for c in nums), default=0) * max(
        max(map(abs, row)) for eta in space.basis for row in eta)
    dtype = np.int64 if dim * peak < 2**53 else object
    xi = (np.array([nums for _, nums in ladder], dtype=dtype).reshape(-1, dim)
          @ np.array(space.basis, dtype=dtype).reshape(dim, n2 * n2)
          ).reshape(-1, n2, n2)
    keep = [k for k, pivots in enumerate(_pivot_columns_mod_p(xi, n2))
            if len(pivots) == n2]
    if not keep:
        raise BudgetExhausted(
            f"no invertible class within denominator {max_denominator}")
    denominators = np.array([ladder[k][0] for k in keep], dtype=dtype)
    xi = np.array(xi[keep] / denominators[:, None, None], dtype=float)
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
    d, nums = ladder[keep[k]]
    return DeformationResult(
        xi_coords=tuple(Fraction(c, d) for c in nums),
        t_matrix=tuple(tuple((float(z.real), float(z.imag)) for z in row)
                       for row in t[k]),
        iterations=info["iterations"],
        chart_dimension=_hom_dimension(rep, j),
        certificate={"xi_rank": rep.rank, "s_positive_pivots": s_pivots},
        **diag)
