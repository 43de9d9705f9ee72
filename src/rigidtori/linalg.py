"""Exact dense linear algebra over Q and over cyclotomic fields.

Matrices are lists of lists of Fraction or CyclotomicNumber.  Everything is
ordinary Gaussian elimination with exact division; sizes here are small
(ranks up to a few dozen), so no fraction-free tricks are needed.  Also
provides integer-lattice routines (Hermite form, saturated integer kernels).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "mat_mul",
    "mat_vec",
    "identity",
    "zeros",
    "transpose",
    "rref",
    "rank",
    "nullspace",
    "solve",
    "solve_many",
    "inverse",
    "row_space_basis",
    "in_span",
    "hnf_with_transform",
    "integer_kernel",
    "saturate_lattice",
]


def _zero_of(x):
    return x * 0


def _is_zero(x):
    z = x == 0
    if z is NotImplemented:
        return x.is_zero()
    return z


def zeros(n, m, like=Fraction(0)):
    return [[_zero_of(like) for _ in range(m)] for _ in range(n)]


def identity(n, one=Fraction(1)):
    mat = zeros(n, n, like=one)
    for i in range(n):
        mat[i][i] = one
    return mat


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = None
            for t in range(k):
                term = ai[t] * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for x, y in zip(row, v):
            term = x * y
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def rref(a):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in a]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not _is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c] ** -1 if hasattr(rows[r][c], "__pow__") else 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not _is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a):
    """Basis of the right kernel {x : a x = 0}, one vector per free column."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    if not a[0]:
        return []
    one = _one_like(a)
    basis = []
    for fc in free:
        vec = [_zero_of(a[0][0]) for _ in range(ncols)]
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def _one_like(a):
    for row in a:
        for x in row:
            if isinstance(x, Fraction):
                return Fraction(1)
            return x.field.one() if hasattr(x, "field") else 1
    return Fraction(1)


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent."""
    sols = solve_many(a, [[x] for x in b])
    return None if sols is None else [row[0] for row in sols]


def solve_many(a, b):
    """Solve a X = B columnwise; None if any column is inconsistent."""
    n = len(a)
    ncols = len(a[0]) if a else 0
    k = len(b[0])
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    rows, pivots = rref(aug)
    for row in rows:
        if all(_is_zero(x) for x in row[:ncols]) and any(
                not _is_zero(x) for x in row[ncols:]):
            return None
    zero = _zero_of(aug[0][0]) if aug and aug[0] else Fraction(0)
    out = [[zero for _ in range(k)] for _ in range(ncols)]
    for r, pc in enumerate(pivots):
        if pc >= ncols:
            return None
        for j in range(k):
            out[pc][j] = rows[r][ncols + j]
    return out


def inverse(a):
    """Exact inverse of a square matrix; ValueError if it is singular."""
    sol = solve_many(a, identity(len(a), _one_like(a)))
    if sol is None:
        raise ValueError("matrix not invertible")
    return sol


def row_space_basis(a):
    """Independent subset of the rows, reduced (rref nonzero rows)."""
    rows, pivots = rref(a)
    return rows[: len(pivots)]


def in_span(rows, vec) -> bool:
    if not rows:
        return all(_is_zero(x) for x in vec)
    return rank(rows) == rank(rows + [list(vec)])


# -- integer lattice tools ----------------------------------------------


def hnf_with_transform(a):
    """Row Hermite normal form over Z: returns (H, U) with U @ a = H,
    U unimodular, H in (non-strict) row echelon form with positive pivots."""
    rows = [[int(x) for x in row] for row in a]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        u[r], u[piv] = u[piv], u[r]
        # clear below via gcd steps
        for i in range(r + 1, n):
            while rows[i][c] != 0:
                q = rows[r][c] // rows[i][c]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                rows[r], rows[i] = rows[i], rows[r]
                u[r], u[i] = u[i], u[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            u[r] = [-x for x in u[r]]
        # reduce above
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == n:
            break
    return rows, u


def integer_kernel(a):
    """Basis of the saturated lattice {x in Z^n : x a = 0} (left kernel)."""
    h, u = hnf_with_transform(a)
    kernel = [u[i] for i in range(len(h)) if all(x == 0 for x in h[i])]
    return kernel


def saturate_lattice(rational_rows):
    """Saturated integer lattice basis of a rational row span in Z^n."""
    if not rational_rows:
        return []
    n = len(rational_rows[0])
    # lattice = {x in Z^n : x orthogonal-complement of row space}
    comp = nullspace([list(map(Fraction, r)) for r in rational_rows])
    if not comp:
        h, _ = hnf_with_transform(identity(n, 1))
        return [row for row in h if any(row)]
    # clear denominators of the complement vectors; columns of the system
    cols = []
    for v in comp:
        den = lcm(*(x.denominator for x in v))
        cols.append([int(x * den) for x in v])
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    return integer_kernel(mat)
