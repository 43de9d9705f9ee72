"""Rational polarizations for rigid actions, with certified verification.

The construction follows the CM trace form: on each active centre field F
(necessarily CM when the action is rigid), pick an imaginary element zeta
with certified-positive imaginary part at the embeddings designated
V^{1,0}, and take E(x, y) = Tr_{F/Q}(zeta * x * conj(y)) on each F-module
copy.  The copies F v are those of the exact structure's frame, which
holds each generator's class-sum images S_k v.  S_k acts on the summand
as the central character omega_k = |C_k| chi(g_k) / chi(1) in F, so the
S_k v at pivot classes whose omega_k are a Q-basis of F (chosen once per
summand) are a Q-basis of every copy, and the copy's block is the trace
form of those omega_k; E does not depend on the basis.  Verification is
one exact certificate against the exact Hodge structure: both bilinear
relations, the Rosati property on the centre, and G-invariance, with no
tolerance.  Every returned form is G-invariant: a trace form that is not
is replaced by its G-average.

zeta needs no search.  For a CM field with k conjugate pairs,
x -> (Im sigma_a x)_a over the designated embeddings maps the imaginary
elements F^- (conj x = -x) isomorphically onto R^k, so zeta solves one
k x k system W q = (1, ..., 1), rounded and certified exactly.  A
standalone field has F^- = K^- for its largest CM subfield K of degree 2k
(a purely imaginary x generates a CM field, and a compositum of CM fields
is CM), so its designated rows of W are pairwise equal, opposite or
independent, k classes up to sign: a class mixing signs is an exact
obstruction, else one row per class gives the square system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .cyclotomic import CyclotomicNumber, SubfieldSpec
from .hodge import (ExactHodgeStructure, IntegralRepresentation,
                    SymbolicHodgeSpec, exact_structure_from_spec,
                    hodge_character_from_numeric, rigidity_by_centre,
                    spec_from_character)
from .polyfields import (PolynomialField, RealEmbeddingPresent, _cap_reached,
                         _precisions)
from .schemas import SchemaError

__all__ = [
    "ImaginaryElement",
    "PolarizationForm",
    "PolarizationCertificate",
    "ExistenceCertificate",
    "NotRigid",
    "NotCMField",
    "RelationIFails",
    "NotPositiveDefinite",
    "RosatiFails",
    "imaginary_subspace",
    "find_zeta",
    "trace_form",
    "assemble_polarization",
    "verify_polarization",
    "polarization_exists",
]


class NotRigid(ValueError):
    pass


class NotCMField(ValueError):
    pass


class _RelationError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RelationIFails(_RelationError):
    pass


class NotPositiveDefinite(_RelationError):
    pass


class RosatiFails(_RelationError):
    pass


# -- imaginary elements ------------------------------------------------------


@dataclass(frozen=True)
class ImaginaryElement:
    """zeta with conj(zeta) = -zeta and a certified sign table per coset."""

    field_spec: SubfieldSpec
    element: CyclotomicNumber
    sign_table: tuple  # pairs (coset representative, sign of Im sigma_a)


def imaginary_subspace(field_spec: SubfieldSpec):
    """Q-basis of {x in F : conj(x) = -x}; errors on totally real fields."""
    if field_spec.is_totally_real():
        raise RealEmbeddingPresent(
            "field is totally real; it has no imaginary elements")
    k = field_spec.degree
    rows = []
    for t in range(k):
        conj_coords = field_spec.coordinates(field_spec.basis[t].conjugate())
        if conj_coords is None:
            raise ValueError("subfield is not conjugation-stable")
        rows.append([conj_coords[s] + (1 if s == t else 0) for s in range(k)])
    # kernel of (C + I) where C is conjugation in the subfield basis
    mat = [[rows[t][s] for t in range(k)] for s in range(k)]
    kernel = linalg.nullspace(mat)
    return [field_spec.element(vec) for vec in kernel]


def find_zeta(field_spec: SubfieldSpec, designated) -> ImaginaryElement:
    """An imaginary zeta with certified Im sigma_a(zeta) > 0 for a in the
    designated set (one coset per conjugate pair): F is CM, so zeta solves
    one k x k system W q = (1, ..., 1) (see the module docstring).
    """
    designated = sorted({field_spec._coset_rep(a) for a in designated})
    _validate_designated(field_spec, designated)
    basis = imaginary_subspace(field_spec)
    if not basis:
        raise NotCMField("imaginary subspace is zero")

    def certify(coords):
        zeta = _combine(basis, coords)
        signs = _certify_signs(field_spec, zeta, designated)
        if signs is None:
            return None
        return ImaginaryElement(field_spec=field_spec, element=zeta,
                                sign_table=tuple(signs))

    # W at a doubled precision while it is too coarse for the certificate
    for prec in _precisions():
        found = _square_solve_witness(
            [[b.embed(a, prec)[1] for b in basis] for a in designated],
            certify)
        if found is not None:
            return found
    raise _cap_reached(f"no certified zeta for designated cosets {designated}")


def _square_solve_witness(rows, certify):
    """The witness primitive behind every zeta search: `rows` approximates
    the invertible k x k matrix W of imaginary parts (designated embeddings
    by imaginary basis elements).  The solution of W q = (1, ..., 1), scaled
    by s to max |q| = 1, is rounded to the denominators 1, 2, 4, ... for
    `certify`, whose first non-None result is returned.  At D >= 4k max|W| s
    rounding moves each designated imaginary part by at most 1/8 of it, so
    only a too coarse W gives None."""
    k = len(rows)
    q = linalg.solve(rows, [Fraction(1)] * k)
    if q is None:
        return None
    scale = max(abs(x) for x in q)
    last = 4 * k * scale * max(abs(w) for row in rows for w in row)
    denom = 1
    while True:
        found = certify([Fraction(round(x * denom / scale), denom) for x in q])
        if found is not None or denom >= last:
            return found
        denom *= 2


def _validate_designated(field_spec, designated):
    reps = field_spec.coset_reps()
    pairs = set()
    for a in reps:
        pairs.add(frozenset((a, field_spec.conjugate_coset(a))))
    if any(len(p) == 1 for p in pairs):
        raise RealEmbeddingPresent("field has a real embedding")
    chosen = set(designated)
    for p in pairs:
        if len(chosen & p) != 1:
            raise ValueError(
                "designated set must pick exactly one embedding from each "
                f"conjugate pair; got {sorted(chosen)} against pair {sorted(p)}")
    if len(chosen) != len(pairs):
        raise ValueError("designated set has extraneous cosets")


def _combine(basis, coords):
    acc = basis[0].field.zero()
    for b, c in zip(basis, coords):
        acc = acc + b * c
    return acc


def _certify_signs(field_spec, zeta, designated):
    if zeta.conjugate() != -zeta:
        return None
    signs = []
    for a in field_spec.coset_reps():
        s = zeta.sign_imag(a)
        if a in designated and s != 1:
            return None
        signs.append((a, s))
    return signs


# -- trace forms -------------------------------------------------------------


def trace_form(field_spec: SubfieldSpec, zeta: ImaginaryElement, basis):
    """Exact matrix of (x, y) -> Tr_{F/Q}(zeta x conj(y)) in the given
    Q-basis of one F-module copy."""
    z = zeta.element if isinstance(zeta, ImaginaryElement) else zeta
    if z.conjugate() != -z:
        raise ValueError("zeta is not imaginary")
    k = len(basis)
    out = [[Fraction(0)] * k for _ in range(k)]
    for s in range(k):
        for t in range(k):
            out[s][t] = field_spec.field_trace(z * basis[s] * basis[t].conjugate())
    return out


# -- assembly ----------------------------------------------------------------


@dataclass(frozen=True)
class PolarizationForm:
    rank: int
    matrix: tuple                 # 2n x 2n exact rational, primitive integral
    provenance: tuple             # per summand:
                                  # (orbit, copies, zeta coords, sign table)
    certificate: "PolarizationCertificate"


@dataclass(frozen=True)
class PolarizationCertificate:
    relation_i: dict
    relation_ii: dict
    rosati: dict
    g_invariant: dict
    mode: str  # always "symbolic": every certificate is exact


def assemble_polarization(rep: IntegralRepresentation,
                          spec: SymbolicHodgeSpec | None = None,
                          j_matrix=None,
                          structure: ExactHodgeStructure | None = None,
                          ) -> PolarizationForm:
    """Block trace-form polarization for a rigid action.

    Input is a symbolic Hodge type or a numeric (rho, J) pair (converted
    via the character bridge).  The exact structure the form is built on
    and certified against is built from the spec unless `structure`,
    already built from that same spec, is given; its F-module frame gives
    the copies F v.  The form is G-invariant: when the trace form is not
    (an active character of degree > 1 can make it so), it is replaced by
    its G-average, which is again a polarization (each rho(g)^T E rho(g)
    is one, rho(g) commuting with J), and certified again.  Raises
    NotRigid when the action is not rigid.
    """
    if spec is None:
        if j_matrix is None:
            raise ValueError("need a symbolic spec or a J matrix")
        spec = spec_from_character(hodge_character_from_numeric(rep, j_matrix))
    centre_report = rigidity_by_centre(spec)
    if not centre_report.is_rigid:
        raise NotRigid(
            "action is not rigid; violating embeddings: "
            f"{[row for row in centre_report.tau_rows if row[4] != 0]}")
    decomp = spec.decomposition
    if structure is None:
        structure = exact_structure_from_spec(rep, spec)
    columns = []          # 2n column vectors over Q
    blocks = []           # per copy: exact block matrix
    provenance = []
    for orbit_index, copies in structure.frame:
        orbit = decomp.orbits[orbit_index]
        fspec = orbit.field_spec
        tau = spec.summands[orbit_index].tau_dict()
        zeta = find_zeta(fspec, [a for a in fspec.coset_reps() if tau[a] > 0])
        pivots, omegas = _pivot_classes(decomp.table, orbit.representative,
                                        copies[0])
        block = trace_form(fspec, zeta, omegas)
        for images in copies:
            columns += [images[k] for k in pivots]
            blocks.append(block)
        provenance.append((orbit_index, len(copies),
                           tuple(fspec.coordinates(zeta.element)),
                           zeta.sign_table))
    w_inv = linalg.inverse(linalg.transpose(columns))
    e_mat = linalg.mat_mul(linalg.transpose(w_inv),
                           linalg.mat_mul(_block_diag(blocks), w_inv))
    e_mat = _primitive_integral(e_mat)
    cert = verify_polarization(e_mat, structure)
    if not cert.g_invariant["invariant"]:
        e_mat = _primitive_integral(_g_average(rep, e_mat))
        cert = verify_polarization(e_mat, structure)
    return PolarizationForm(
        rank=rep.rank,
        matrix=tuple(tuple(row) for row in e_mat),
        provenance=tuple(provenance),
        certificate=cert)


def _pivot_classes(table, row, images):
    """(pivots, omegas): the first classes k, in class order, whose images
    S_k v of one F-module generator v are Q-independent, and the central
    characters omega_k = |C_k| chi(g_k) / chi(1) of the orbit's
    representative chi there.  S_k acts on the summand as omega_k, so the
    omegas are a Q-basis of F and the S_k v a Q-basis of F v, for every
    generator v of the summand."""
    _, pivots = linalg.rref(linalg.transpose(images))
    omegas = [table.rows[row][k] * Fraction(table.classes.sizes[k],
                                            table.degrees[row])
              for k in pivots]
    return pivots, omegas


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = Fraction(x)
        off += len(b)
    return out


def _g_average(rep, e_mat):
    """|G| times the G-average of E, sum of rho(g)^T E rho(g), in integers
    on D * E; `_primitive_integral` takes both scales off again."""
    e_int = _integral(e_mat)
    acc = [[0] * rep.rank for _ in range(rep.rank)]
    for rho in rep.matrices:
        term = linalg.mat_mul(linalg.transpose(rho), linalg.mat_mul(e_int, rho))
        acc = linalg.mat_add(acc, term)
    return acc


def _integral(e_mat):
    """D * E for the least D > 0 that makes it an integer matrix."""
    den = lcm(*(x.denominator for row in e_mat for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in e_mat]


def _primitive_integral(e_mat):
    ints = _integral(e_mat)
    num_gcd = gcd(*(x for row in ints for x in row))
    if num_gcd == 0:
        raise ValueError("zero form")
    return [[Fraction(x, num_gcd) for x in row] for row in ints]


# -- verification -------------------------------------------------------------


def verify_polarization(
        e_mat, structure: ExactHodgeStructure) -> PolarizationCertificate:
    """Certify both bilinear relations and the Rosati property of E against
    an exact structure, in exact arithmetic with no tolerance: relation I as
    E_C(U, U) = 0, relation II by the signs of exact Hermitian LDL pivots,
    and the Rosati identity and G-invariance in integers."""
    e_rows = [[Fraction(x) for x in row] for row in e_mat]
    n2 = len(e_rows)
    for i in range(n2):
        for j in range(n2):
            if e_rows[i][j] != -e_rows[j][i]:
                raise RelationIFails("matrix is not alternating",
                                     witness=(i, j))
    rel1, rel2 = _verify_symbolic(e_rows, structure)
    rep = structure.rep
    rosati = _verify_rosati(e_rows, rep)
    return PolarizationCertificate(rel1, rel2, rosati,
                                   _verify_g_invariance(e_rows, rep),
                                   mode="symbolic")


def _verify_symbolic(e_rows, structure: ExactHodgeStructure):
    K = structure.field
    n = structure.n
    n2 = structure.rep.rank
    e_k = [[K.from_rational(x) for x in row] for row in e_rows]
    u_cols = structure.u_columns
    # relation I: E_C(U, U) = 0 exactly
    for a in range(n):
        ea = linalg.mat_vec(e_k, u_cols[a])
        for b in range(n):
            acc = K.zero()
            for x, y in zip(u_cols[b], ea):
                acc = acc + x * y
            if not acc.is_zero():
                raise RelationIFails(
                    "E_C does not vanish on V^{1,0} x V^{1,0}",
                    witness={
                        "pair": (b, a),
                        "value": acc.as_string(),
                        "vectors": (
                            tuple(x.as_string() for x in u_cols[b]),
                            tuple(x.as_string() for x in u_cols[a])),
                    })
    # relation II: exact LDL pivots of the Hermitian form -i E_C(u, conj u);
    # the pivots are purely imaginary elements of K before the -i twist, so
    # each sign is decided by the certified machinery.
    m = [[None] * n for _ in range(n)]
    for b in range(n):
        ev = linalg.mat_vec(e_k, [x.conjugate() for x in u_cols[b]])
        for a in range(n):
            acc = K.zero()
            for x, y in zip(u_cols[a], ev):
                acc = acc + x * y
            m[a][b] = acc
    for a in range(n):
        for b in range(n):
            if m[a][b].conjugate() != -m[b][a]:
                raise NotPositiveDefinite(
                    "Hermitian Gram matrix is not Hermitian", witness=(a, b))
    witness = _hermitian_nonpositive_witness(m, K, structure)
    if witness is not None:
        raise NotPositiveDefinite(
            "the Hermitian form -i E_C(v, conj v) is not positive definite",
            witness=witness)
    return ({"mode": "exact", "ok": True},
            {"mode": "exact", "ok": True, "pivots_positive": n})


def _rotated_positive_sign(d: CyclotomicNumber) -> int:
    """Exact sign of the real number -i*d (d purely imaginary or zero)."""
    if d.is_zero():
        return 0
    if d.conjugate() != -d:
        raise NotPositiveDefinite(
            "Hermitian pivot is not purely imaginary", witness=d.as_string())
    return d.sign_imag()


def _hermitian_nonpositive_witness(m, K, structure):
    """None when the form c -> -i sum c_a M_ab conj(c_b) is positive
    definite; otherwise a concrete nonpositive vector in V (x) K.

    Runs the Hermitian LDL elimination exactly; the pivots of -iM are real
    cyclotomics whose signs are certified.  At the first nonpositive pivot
    the accumulated row transform gives the witness combination of the
    V^{1,0} basis columns."""
    n = len(m)
    h = [[m[a][b] for b in range(n)] for a in range(n)]  # -i deferred
    trans = [[K.one() if i == j else K.zero() for j in range(n)]
             for i in range(n)]
    for k in range(n):
        sign = _rotated_positive_sign(h[k][k])
        if sign <= 0:
            combo = trans[k]
            vec = [K.zero()] * structure.rep.rank
            for a, c in enumerate(combo):
                if not c.is_zero():
                    col = structure.u_columns[a]
                    vec = [v + c * x for v, x in zip(vec, col)]
            return {
                "conductor": K.m,
                "vector": tuple(tuple(str(q) for q in x.coeffs) for x in vec),
                "display": tuple(x.as_string() for x in vec),
            }
        pivot_inv = h[k][k].inverse()
        for i in range(k + 1, n):
            f = h[i][k] * pivot_inv
            if f.is_zero():
                continue
            fbar = f.conjugate()
            h[i] = [x - f * y for x, y in zip(h[i], h[k])]
            for r in range(n):
                h[r][i] = h[r][i] - fbar * h[r][k]
            trans[i] = [x - f * y for x, y in zip(trans[i], trans[k])]
    return None


def _verify_rosati(e_rows, rep: IntegralRepresentation):
    """E(z v, w) = E(v, conj(z) w) for the class sums z; conj sends a class
    to the class of inverses.  Exact, in integers: the identity is
    homogeneous in E, so it holds for E exactly when it holds for D * E,
    and fails at the same entries; a class sum is a sum of integer rho(g)."""
    classes = rep.classes
    mats = rep.class_sums
    e_int = _integral(e_rows)
    for idx in range(classes.count):
        t = mats[idx]
        t_conj = mats[classes.inverse_class(idx)]
        left = linalg.mat_mul(linalg.transpose(t), e_int)
        right = linalg.mat_mul(e_int, t_conj)
        if left != right:
            witness = next((i, j) for i in range(len(left))
                           for j in range(len(left)) if left[i][j] != right[i][j])
            raise RosatiFails(
                f"Rosati identity fails on class {idx}", witness=witness)
    return {"ok": True, "classes_checked": classes.count}


def _verify_g_invariance(e_rows, rep: IntegralRepresentation):
    """rho(g)^T E rho(g) = E on the generators, in integers on D * E.  The
    g that fix E form a subgroup, so the generators' invariance is G's."""
    e_int = _integral(e_rows)
    for g in rep.generator_indices():
        rho = rep.matrices[g]
        img = linalg.mat_mul(linalg.transpose(rho), linalg.mat_mul(e_int, rho))
        if img != e_int:
            return {"checked": True, "invariant": False, "witness": g}
    return {"checked": True, "invariant": True}


# -- the existence decision ---------------------------------------------------


@dataclass(frozen=True)
class ExistenceCertificate:
    verdict: str                       # "exists-with-witness" or "infeasible"
    witness: tuple | None              # coefficient vector of zeta, power basis
    witness_signs: tuple | None        # per root index: certified sign of Im
    obstruction: dict | None

    @property
    def exists(self) -> bool:
        return self.verdict == "exists-with-witness"


def polarization_exists(poly_coefficients,
                        designated) -> ExistenceCertificate:
    """Exact feasibility of the polarization sign cone for a standalone
    totally imaginary field Q[t]/f, by the k row classes of the module
    docstring.  Feasible: zeta purely imaginary (exact) with certified
    positive imaginary part at the designated roots.  Infeasible: a
    designated pair (i, j) with Im sigma_i = -Im sigma_j on the imaginary
    elements, or, when these are zero, the full-rank linear system itself.
    """
    F = PolynomialField(poly_coefficients)
    designated = sorted(set(designated))
    _validate_poly_designated(F, designated)
    basis = F.imaginary_subspace()
    if not basis:
        pair = F.pairs[0]
        return ExistenceCertificate(
            verdict="infeasible", witness=None, witness_signs=None,
            obstruction={
                "reason": "imaginary-constraint space is zero",
                "pair": pair,
                "constraint_rank": F.degree,
                "identity": "Im sigma_j(x) = 0 for all j forces x = 0",
            })

    def certify(coords):
        zeta = [sum(Fraction(b[t]) * c0 for b, c0 in zip(basis, coords))
                for t in range(F.degree)]
        signs = _certify_poly_signs(F, zeta, designated)
        if signs is None:
            return None
        return ExistenceCertificate(
            verdict="exists-with-witness", witness=tuple(zeta),
            witness_signs=tuple(signs), obstruction=None)

    for prec in _precisions():
        boxes = {i: [F.evaluate_box(b, i, prec)[1:] for b in basis]
                 for i in designated}
        classes = _row_classes(boxes, len(basis))
        if classes is None:
            continue
        reps, (i, j) = classes
        if j is not None:
            return ExistenceCertificate(
                verdict="infeasible", witness=None, witness_signs=None,
                obstruction={
                    "reason": "two designated roots have opposite imaginary "
                              "parts on every purely imaginary element",
                    "pair": (i, j),
                    "imaginary_dimension": len(basis),
                    "identity": f"Im sigma_{i}(x) = -Im sigma_{j}(x) for "
                                "every purely imaginary x"})
        found = _square_solve_witness(
            [[im for im, _ in boxes[r]] for r in reps], certify)
        if found is not None:
            return found
    raise _cap_reached(
        f"no certified witness for the designated roots {designated}")


def _row_classes(boxes, k):
    """(representatives, (r, i)): one designated root per class of equal or
    opposite rows boxes[i] = [(Im sigma_i(b), radius)], and the first row i
    opposite to its representative r (else (None, None)); None while too
    wide.  True equal or opposite rows overlap, so representatives that
    overlap no earlier one lie in distinct classes; with k of them each
    class has one, and a row overlapping one of them in one sign is in it.
    """
    def hits(i, reps):
        return [(r, s) for r in reps for s in (1, -1)
                if all(abs(im - s * im_r) <= rad + rad_r for (im, rad), (
                    im_r, rad_r) in zip(boxes[i], boxes[r]))]

    reps = []
    for i in boxes:
        if not hits(i, reps):
            reps.append(i)
    found = {i: hits(i, reps) for i in boxes}
    if len(reps) != k or any(len(h) != 1 for h in found.values()):
        return None
    return reps, next(((h[0][0], i) for i, h in found.items()
                       if h[0][1] < 0), (None, None))


def _validate_poly_designated(F: PolynomialField, designated):
    """One root per conjugate pair; a designation that is not one is an
    error in the input, raised as SchemaError."""
    chosen = set(designated)
    for i, ibar in F.pairs:
        if len(chosen & {i, ibar}) != 1:
            raise SchemaError(
                "designated set must pick exactly one root from each "
                f"conjugate pair; offending pair ({i},{ibar})")
    if len(chosen) != len(F.pairs):
        raise SchemaError("designated set has extraneous roots")


def _certify_poly_signs(F, zeta, designated):
    signs = []
    for i in range(F.degree):
        s = F.sign_imag(zeta, i)
        if s is None or i in designated and s != 1:
            return None
        signs.append(s)
    return signs
