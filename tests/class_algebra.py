"""Class-algebra readings for the tests, built from the sparse rows
`ConjugacyClassData.coefficients[i][j] = {k: a_ijk}`, and the subspace
intersection the eigenspace-refinement oracle splits with."""

from rigidtori import linalg


def class_matrix(classes, i: int):
    """Integer matrix M_i with (M_i)[j][k] = a_ijk, so that central
    character vectors w = (omega_k) satisfy M_i w = omega_i w."""
    d = classes.count
    return [[row.get(k, 0) for k in range(d)]
            for row in classes.coefficients[i]]


def verify_central(classes) -> bool:
    """a_ijk = a_jik for all i, j, k: the class algebra is commutative.  The
    rows hold nonzero constants only, so equal rows are equal dicts."""
    rows = classes.coefficients
    d = classes.count
    return all(rows[i][j] == rows[j][i] for i in range(d) for j in range(d))


def brute_force_structure_constants(classes):
    """Dense a[i][j][k] = #{(x, y) in C_i x C_j : xy = g_k}, by walking all
    |G|^2 pairs."""
    group = classes.group
    d = classes.count
    rep_of = {rep: k for k, rep in enumerate(classes.representatives)}
    a = [[[0] * d for _ in range(d)] for _ in range(d)]
    for x in range(group.order):
        i = classes.membership[x]
        for y in range(group.order):
            k = rep_of.get(group.table[x][y])
            if k is not None:
                a[i][classes.membership[y]][k] += 1
    return a


def algebra_product(table, a_coeffs, b_coeffs):
    """Convolution product in the group algebra of table.group, on lists
    of one cyclotomic coefficient per group element."""
    g = table.group
    out = [table.field.zero() for _ in range(g.order)]
    for x in range(g.order):
        if a_coeffs[x].is_zero():
            continue
        row = g.table[x]
        for y in range(g.order):
            if not b_coeffs[y].is_zero():
                out[row[y]] = out[row[y]] + a_coeffs[x] * b_coeffs[y]
    return out


def intersect(basis_a, basis_b):
    """Basis of the intersection of two row-vector spans."""
    if not basis_a or not basis_b:
        return []
    # x in span(A) and span(B): write x = sum a_i A_i = sum b_j B_j.
    # Solve [A^T | -B^T] kernel and map back through A.
    at = linalg.transpose(basis_a)
    bt = linalg.transpose(basis_b)
    sys = [at[i] + [-x for x in bt[i]] for i in range(len(at))]
    combos = linalg.nullspace(sys)
    vecs = []
    ka = len(basis_a)
    for combo in combos:
        vec = [x * 0 for x in basis_a[0]]
        for coef, row in zip(combo[:ka], basis_a):
            vec = [v + coef * x for v, x in zip(vec, row)]
        vecs.append(vec)
    return linalg.row_space_basis(vecs) if vecs else []
