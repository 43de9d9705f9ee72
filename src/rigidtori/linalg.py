"""Exact dense linear algebra over Q and over cyclotomic fields.

Matrices are lists of lists of int, Fraction or CyclotomicNumber.  A matrix
of ints and Fractions is eliminated over Z: each row is cleared to integers
(which leaves its row space alone) and reduced by fraction-free
Gauss-Jordan (Bareiss, Math. Comp. 22, 1968), whose every entry is a minor
of the cleared matrix, so each step divides exactly and no entry outgrows
the Hadamard bound; the one RREF is read off at the end, as Fractions.
Cyclotomic matrices take Gauss-Jordan with exact division in the field.
Also provides integer-lattice routines (Hermite form, saturated integer
kernels).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

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
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def rref(a):
    """Reduced row echelon form; returns (rows, pivot_columns).  The rows of
    a matrix of ints and Fractions are Fractions."""
    rows = [list(r) for r in a]
    if not rows:
        return rows, []
    if all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        return _rational_rref(rows)
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not _is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
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


def _rational_rref(rows):
    """rref of a non-empty matrix of ints and Fractions, over Z.  Each row
    is cleared by the lcm of its denominators; then fraction-free
    Gauss-Jordan: with p the pivot and d the pivot before it, every other
    row becomes (p row - row[c] pivot_row) / d, an exact division.  Every
    pivot row ends up with the last pivot d on its pivot, and the rows that
    are not pivot rows are zero, so the RREF is the matrix over d."""
    ints = []
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        ints.append([x.numerator * (den // x.denominator) for x in row])
    n = len(ints)
    pivots = []
    d = 1
    for c in range(len(ints[0])):
        r = len(pivots)
        piv = next((i for i in range(r, n) if ints[i][c]), None)
        if piv is None:
            continue
        ints[r], ints[piv] = ints[piv], ints[r]
        pivot_row = ints[r]
        p = pivot_row[c]
        for i, row in enumerate(ints):
            f = row[c]
            if f and i != r:
                ints[i] = [(p * x - f * y) // d
                           for x, y in zip(row, pivot_row)]
            elif not f and p != d and any(row):
                ints[i] = [p * x // d for x in row]
        d = p
        pivots.append(c)
        if len(pivots) == n:
            break
    return [[Fraction(x, d) for x in row] for row in ints], pivots


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a):
    """Basis of the right kernel {x : a x = 0}, one vector per free column."""
    if not a or not a[0]:
        return []
    ncols = len(a[0])
    rows, pivots = rref(a)
    one = _one_like(a)
    zero = _zero_of(one)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def _one_like(a):
    """1 in the field of the entries of a: Fraction(1) unless one of them
    is cyclotomic."""
    return next((x.field.one() for row in a for x in row
                 if hasattr(x, "field")), Fraction(1))


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent."""
    sols = solve_many(a, [[x] for x in b])
    return None if sols is None else [row[0] for row in sols]


def solve_many(a, b):
    """Solve a X = B columnwise; None if any column is inconsistent, that
    is, if the augmented matrix [a | B] has a pivot among B's columns."""
    ncols = len(a[0]) if a else 0
    k = len(b[0])
    aug = [list(a[i]) + list(b[i]) for i in range(len(a))]
    rows, pivots = rref(aug)
    if pivots and pivots[-1] >= ncols:
        return None
    zero = _zero_of(_one_like(aug))
    out = [[zero] * k for _ in range(ncols)]
    for row, pc in zip(rows, pivots):
        out[pc] = row[ncols:]
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
