from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidtori import linalg
from rigidtori.cyclotomic import CyclotomicField, CyclotomicNumber


def test_inverse_raises_on_singular_matrices():
    with pytest.raises(ValueError):
        linalg.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(ValueError):
        linalg.inverse([[Fraction(0)]])
    K = CyclotomicField(3)
    z = K.zeta()
    # second row is zeta times the first
    with pytest.raises(ValueError):
        linalg.inverse([[K.one(), z], [z, z * z]])


def test_inverse_is_one_elimination(monkeypatch):
    K = CyclotomicField(5)
    z = K.zeta()
    a = [[K.one(), z, K.zero()], [z * z, K.one(), z], [K.zero(), z, K.one() * 3]]
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(1) or rref(m))
    inv = linalg.inverse(a)
    assert len(calls) == 1
    assert linalg.mat_mul(a, inv) == linalg.identity(3, K.one())


def test_integer_matrices_give_exact_fractions():
    # an int pivot inverted by ** -1 is a float: 0.6 is not 3/5
    inv = linalg.inverse([[2, 1], [1, 3]])
    assert inv == [[Fraction(3, 5), Fraction(-1, 5)],
                   [Fraction(-1, 5), Fraction(2, 5)]]
    kernel = linalg.nullspace([[2, 4, 1], [1, 2, 3]])
    assert kernel == [[-2, 1, 0]]
    assert linalg.solve([[2, 0], [0, 4]], [1, 1]) == [Fraction(1, 2),
                                                        Fraction(1, 4)]
    for row in inv + kernel:
        assert all(type(x) is Fraction for x in row)


# -- the generic Gauss-Jordan, as every elimination ran it before the
# fraction-free kernel, kept as the reference: exact division in the field
# of the entries (ints are read as Fractions, which it needs)


def reference_rref(a):
    rows = [list(r) for r in a]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c] ** -1
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_nullspace(a, one):
    if not a or not a[0]:
        return []
    ncols = len(a[0])
    rows, pivots = reference_rref(a)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [one * 0] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def reference_solve_many(a, b, one):
    ncols = len(a[0]) if a else 0
    k = len(b[0])
    rows, pivots = reference_rref([list(a[i]) + list(b[i])
                                   for i in range(len(a))])
    for row in rows:
        if all(x == 0 for x in row[:ncols]) and any(
                x != 0 for x in row[ncols:]):
            return None
    out = [[one * 0] * k for _ in range(ncols)]
    for r, pc in enumerate(pivots):
        if pc >= ncols:
            return None
        for j in range(k):
            out[pc][j] = rows[r][ncols + j]
    return out


def reference_rank(a):
    return len(reference_rref(a)[1])


def reference_mat_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(1, len(b))),
                 a[i][0] * b[0][j]) for j in range(len(b[0]))]
            for i in range(len(a))]


_K = CyclotomicField(5)
_ENTRIES = {
    "int": st.integers(-6, 6),
    "fraction": st.one_of(st.integers(-6, 6),
                          st.builds(Fraction, st.integers(-6, 6),
                                    st.integers(1, 5))),
    "cyclotomic": st.builds(lambda num, den: CyclotomicNumber(_K, num, den),
                            st.lists(st.integers(-3, 3), min_size=4,
                                     max_size=4), st.integers(1, 3)),
}
_ONE = {"int": Fraction(1), "fraction": Fraction(1), "cyclotomic": _K.one()}


def _exact(kind, rows):
    want = CyclotomicNumber if kind == "cyclotomic" else Fraction
    return all(type(x) is want for row in rows for x in row)


@st.composite
def _matrix(draw, kind, nrows, ncols):
    """nrows x ncols, of rank at most a drawn r (nrows about half the
    time): r drawn rows, then integer combinations of them (zero rows among
    them), in a drawn order."""
    one = _ONE[kind]
    r = draw(st.one_of(st.just(nrows), st.integers(0, nrows)))
    base = [[draw(_ENTRIES[kind]) for _ in range(ncols)] for _ in range(r)]
    rows = list(base)
    for _ in range(nrows - r):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        rows.append([sum((c * row[j] for c, row in zip(coeffs, base)),
                         one * 0) for j in range(ncols)])
    return draw(st.permutations(rows)) if rows else rows


@settings(max_examples=150)
@given(st.data())
def test_eliminations_match_the_generic_gauss_jordan(data):
    kind = data.draw(st.sampled_from(sorted(_ENTRIES)))
    one = _ONE[kind]
    nrows = data.draw(st.integers(0, 5))
    ncols = data.draw(st.one_of(st.just(nrows), st.integers(0, 6)))
    a = data.draw(_matrix(kind, nrows, ncols))
    q = [[x * one for x in row] for row in a]   # ints read as Fractions
    rows, pivots = linalg.rref(a)
    assert (rows, pivots) == reference_rref(q)
    assert _exact(kind, rows)
    assert linalg.rank(a) == reference_rank(q)
    kernel = linalg.nullspace(a)
    assert kernel == reference_nullspace(q, one) and _exact(kind, kernel)
    basis = linalg.row_space_basis(a)
    assert basis == reference_rref(q)[0][:len(pivots)]
    assert _exact(kind, basis)
    if ncols:
        vec = data.draw(_matrix(kind, 1, ncols))[0]
        in_span = (all(x == 0 for x in vec) if not a else
                   reference_rank(q) == reference_rank(q + [vec]))
        assert linalg.in_span(a, vec) == in_span
    if nrows:
        k = data.draw(st.integers(1, 3))
        b = data.draw(_matrix(kind, nrows, k))
        want = reference_solve_many(q, [[x * one for x in row] for row in b],
                                    one)
        got = linalg.solve_many(a, b)
        assert got == want and (got is None or _exact(kind, got))
        want = reference_solve_many(q, [[row[0] * one] for row in b], one)
        got = linalg.solve(a, [row[0] for row in b])
        assert got == (None if want is None else [row[0] for row in want])
    if nrows == ncols and nrows:
        want = reference_solve_many(
            q, [[one if i == j else one * 0 for j in range(nrows)]
                for i in range(nrows)], one)
        if want is None:
            with pytest.raises(ValueError):
                linalg.inverse(a)
        else:
            inv = linalg.inverse(a)
            assert inv == want and _exact(kind, inv)
    if ncols:
        b = data.draw(_matrix(kind, ncols, data.draw(st.integers(1, 3))))
        assert linalg.mat_mul(a, b) == reference_mat_mul(a, b)
        v = [row[0] for row in b]
        assert linalg.mat_vec(a, v) == [row[0] for row in
                                        reference_mat_mul(a, [[x] for x in v])]
