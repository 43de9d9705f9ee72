"""Rational polarizations for rigid actions, with certified verification.

The construction follows the CM trace form: on each active centre field F
(necessarily CM when the action is rigid), pick an imaginary element zeta
with certified-positive imaginary part at the embeddings designated
V^{1,0}, and take E(x, y) = Tr_{F/Q}(zeta * x * conj(y)) on each F-module
copy.  The copies F v are those of the exact structure's frame, which holds
each generator's class-sum images S_k v at the summand's pivot classes.
S_k acts on the summand as the central character
omega_k = |C_k| chi(g_k) / chi(1) in F, so those S_k v, whose omega_k are a
Q-basis of F, are a Q-basis of every copy, and the copy's block is the
trace form of those omega_k; E does not depend on the basis.  Verification
is one exact certificate against the exact Hodge structure, with no
tolerance: E alternating, E G-invariant, then both bilinear relations.  The
Rosati property on the centre follows from G-invariance and is not checked
again: rho(g)^T E rho(g) = E gives rho(g)^T E = E rho(g^-1), and summed
over a class C_k this is S_k^T E = E S_k', C_k' the class of the inverses.
Every returned form is G-invariant, and only the returned form is
certified.  A trace form needs no check of its own when every active
character is linear: g then acts on each copy as a root of unity u in F,
and Tr(zeta u x conj(u y)) = Tr(zeta x conj(y)).  Otherwise the integer
check on the generators runs first, and a form it finds not invariant is
replaced by its G-average.  Each fact is proved once: the certificate
checks E^T = -E first, which gives relation I at b < a from b > a; both
relations read one pairing U^T E [U | conj(U)] of the exact structure, a
packed integer product, relation II its right half; a trace form,
alternating as conj(zeta) = -zeta, is computed at s < t.  The form itself
is formed in integers: E = W^-T B W^-1 is a positive multiple of
M^T (D B) M, with M the integer multiple of the frame's W^-1, the inverse
the structure's X was read through, so polarize inverts nothing of its own
and the primitive integral form needs no rational product.

One witness search finds zeta, for the CM summands of a rigid action and
for a standalone field alike.  A purely imaginary x generates a CM field
and a compositum of CM fields is CM, so the imaginary elements F^- of F
(conj x = -x) are K^- for its largest CM subfield K, of degree 2k, and
the rows x -> Im sigma_a x on F^- at the designated embeddings a are
pairwise equal, opposite or independent, k classes up to sign (when F is
CM, the k designated rows).  A class mixing signs is an exact
obstruction; else one row per class gives the k x k system
W q = (1, ..., 1), whose solution is rounded and certified exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .cyclotomic import CyclotomicNumber, SubfieldSpec
from .errors import DomainError
from .hodge import (ExactHodgeStructure, IntegralRepresentation,
                    SymbolicHodgeSpec, _central_characters,
                    exact_structure_from_spec,
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


class NotRigid(DomainError, ValueError):
    pass


class NotCMField(DomainError, ValueError):
    pass


class _RelationError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RelationIFails(DomainError, _RelationError):
    pass


class NotPositiveDefinite(DomainError, _RelationError):
    pass


class RosatiFails(DomainError, _RelationError):
    pass


# -- imaginary elements ------------------------------------------------------


class ImaginaryElement:
    """zeta with conj(zeta) = -zeta and a certified sign table per coset."""

    __slots__ = ("field_spec", "element", "sign_table")

    def __init__(self, field_spec: SubfieldSpec, element: CyclotomicNumber,
                 sign_table: tuple):
        self.field_spec = field_spec
        self.element = element
        self.sign_table = sign_table  # pairs (coset rep a, sign of Im sigma_a)


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
    """An imaginary zeta with certified Im sigma_a(zeta) > 0 at the designated
    cosets a, one per conjugate pair, by the module docstring's search."""
    designated = sorted({field_spec._coset_rep(a) for a in designated})
    basis = imaginary_subspace(field_spec)
    reps = field_spec.coset_reps()
    _check_designation({frozenset((a, field_spec.conjugate_coset(a)))
                        for a in reps}, designated, ValueError)
    if not basis:
        raise NotCMField("imaginary subspace is zero")
    found = _witness_search(
        basis, designated, reps, CyclotomicNumber.embed,
        CyclotomicNumber.sign_imag,
        lambda q: sum((b * c for b, c in zip(basis, q)),
                      basis[0].field.zero()))
    if found is None:
        raise _cap_reached(
            f"no certified zeta for designated cosets {designated}")
    zeta, signs, pair = found
    if pair is not None:
        raise NotCMField(f"designated cosets {pair} are opposite on F^-")
    return ImaginaryElement(field_spec, zeta, tuple(zip(reps, signs)))


def _check_designation(pairs, designated, error):
    """Raise `error` unless `designated` is one embedding per pair."""
    chosen = set(designated)
    if len(chosen) != len(pairs) or any(len(chosen & set(pair)) != 1
                                        for pair in pairs):
        raise error(
            "designated set must pick exactly one embedding from each "
            f"conjugate pair; got {sorted(chosen)} against the pairs "
            f"{sorted(map(sorted, pairs))}")


def _witness_search(basis, designated, embeddings, enclose, sign, combine):
    """The witness search of the module docstring over the imaginary
    `basis`: enclose(b, a, prec) boxes sigma_a(b) as (re, im, radius),
    sign(x, a) is the certified sign of Im sigma_a(x) or None, combine(q)
    the element of coordinates q.  Returns (x, its signs at `embeddings`,
    None); (None, None, (r, i)) for designated rows r, i opposite on every
    imaginary element; or None at the top of the ladder."""
    def certify(coords):
        x = combine(coords)
        signs = []
        for a in embeddings:
            s = sign(x, a)
            if s is None or a in designated and s != 1:
                return None
            signs.append(s)
        return x, signs, None

    for prec in _precisions():
        boxes = {a: [enclose(b, a, prec)[1:] for b in basis]
                 for a in designated}
        # in integers: every box times one common denominator, the same q
        den = lcm(*(x.denominator for row in boxes.values() for box in row
                    for x in box))
        boxes = {a: [(im.numerator * (den // im.denominator),
                      rad.numerator * (den // rad.denominator))
                     for im, rad in row] for a, row in boxes.items()}
        classes = _row_classes(boxes, len(basis))
        if classes is None:
            continue
        reps, (r, i) = classes
        if i is not None:
            return None, None, (r, i)
        found = _square_solve_witness(
            [[im for im, _ in boxes[a]] for a in reps], certify)
        if found is not None:
            return found
    return None


def _square_solve_witness(rows, certify):
    """The rounding step of the witness search: `rows` approximates a
    positive multiple of the invertible k x k matrix W of imaginary parts
    (designated embeddings by imaginary basis elements).  The solution of
    W q = (1, ..., 1), scaled by s to max |q| = 1, is rounded to the
    denominators 1, 2, 4, ... for `certify`, whose first non-None result
    is returned.  At D >= 4k max|W| s rounding moves each designated
    imaginary part by at most 1/8 of it, so only a too coarse W gives
    None; neither the rounded q nor D depends on the multiple."""
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


# -- trace forms -------------------------------------------------------------


def trace_form(field_spec: SubfieldSpec, zeta: ImaginaryElement, basis):
    """Exact matrix of (x, y) -> Tr_{F/Q}(zeta x conj(y)) in the given
    Q-basis of one F-module copy, by its entries s < t: it is alternating."""
    z = zeta.element if isinstance(zeta, ImaginaryElement) else zeta
    if z.conjugate() != -z:
        raise ValueError("zeta is not imaginary")
    k = len(basis)
    out = [[Fraction(0)] * k for _ in range(k)]
    for s in range(k):
        for t in range(s + 1, k):
            out[s][t] = field_spec.field_trace(z * basis[s] * basis[t].conjugate())
            out[t][s] = -out[s][t]
    return out


# -- assembly ----------------------------------------------------------------


class PolarizationForm:
    __slots__ = ("rank", "matrix", "provenance", "certificate")

    def __init__(self, rank: int, matrix: tuple, provenance: tuple,
                 certificate: PolarizationCertificate):
        self.rank = rank
        # 2n x 2n exact rational, primitive integral
        self.matrix = matrix
        # per summand: (orbit, copies, zeta coords, sign table)
        self.provenance = provenance
        self.certificate = certificate


class PolarizationCertificate:
    __slots__ = ("relation_i", "relation_ii", "rosati", "g_invariant",
                 "mode")

    def __init__(self, relation_i: dict, relation_ii: dict, rosati: dict,
                 g_invariant: dict, mode: str):
        self.relation_i = relation_i
        self.relation_ii = relation_ii
        self.rosati = rosati
        self.g_invariant = g_invariant
        self.mode = mode  # always "symbolic": every certificate is exact


def assemble_polarization(rep: IntegralRepresentation,
                          spec: SymbolicHodgeSpec | None = None,
                          j_matrix=None,
                          structure: ExactHodgeStructure | None = None,
                          ) -> PolarizationForm:
    """Block trace-form polarization for a rigid action.

    Input is a symbolic Hodge type or a numeric (rho, J) pair (converted
    via the character bridge).  The exact structure the form is built on
    and certified against is built from the spec unless `structure`,
    already built from that same spec, is given; its frame gives the
    copies F v and W^-1.  The form is G-invariant: when the trace form is
    not (an active character of degree > 1 can make it so), it is replaced by
    its G-average, which is again a polarization (each rho(g)^T E rho(g)
    is one, rho(g) commuting with J), and only the form returned is
    certified.  Raises NotRigid when the action is not rigid.
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
    summands, w_inverse = structure.frame
    b = []                # B: per copy, its summand's trace form
    provenance = []
    linear = True         # every active character of degree 1
    for orbit_index, pivots, copies in summands:
        orbit = decomp.orbits[orbit_index]
        linear = linear and decomp.table.degrees[orbit.representative] == 1
        fspec = orbit.field_spec
        tau = spec.summands[orbit_index].tau_dict()
        zeta = find_zeta(fspec, [a for a in fspec.coset_reps() if tau[a] > 0])
        block = trace_form(fspec, zeta, _central_characters(
            decomp.table, orbit.representative, pivots))
        for _ in copies:   # on the diagonal
            b += [[0] * len(b) + row + [0] * (rep.rank - len(b) - len(row))
                  for row in block]
        provenance.append((orbit_index, len(copies),
                           tuple(fspec.coordinates(zeta.element)),
                           zeta.sign_table))
    # E = W^-T B W^-1 is a positive multiple of M^T (D B) M, M = L W^-1
    m = _integral(w_inverse)
    e_mat = _primitive_integral(linalg.mat_mul(
        linalg.transpose(m), linalg.mat_mul(_integral(b), m)))
    if not (linear or _verify_g_invariance(e_mat, rep)["invariant"]):
        # |G| times the G-average of D * E: both scales come off again
        e_mat = _primitive_integral(rep.congruence_sum(_integral(e_mat)))
    cert = verify_polarization(e_mat, structure)
    return PolarizationForm(
        rank=rep.rank,
        matrix=tuple(tuple(row) for row in e_mat),
        provenance=tuple(provenance),
        certificate=cert)


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
    """Certify E against an exact structure, in exact arithmetic with no
    tolerance: E alternating first, then G-invariance in integers, then
    relation I as E_C(U, U) = 0 and relation II by the signs of exact
    Hermitian LDL pivots.  The Rosati identity S_k^T E = E S_k' on the
    class sums follows from G-invariance (see the module docstring), so
    a form that is not G-invariant raises RosatiFails, its witness the
    first generator that moves it."""
    e_rows = [[Fraction(x) for x in row] for row in e_mat]
    n2 = len(e_rows)
    for i in range(n2):
        for j in range(n2):
            if e_rows[i][j] != -e_rows[j][i]:
                raise RelationIFails("matrix is not alternating",
                                     witness=(i, j))
    invariance = _verify_g_invariance(e_rows, structure.rep)
    if not invariance["invariant"]:
        raise RosatiFails(
            f"E is not invariant under generator {invariance['witness']}",
            witness=invariance["witness"])
    rel1, rel2 = _verify_symbolic(e_rows, structure)
    return PolarizationCertificate(rel1, rel2,
                                   {"ok": True, "by": "g_invariant"},
                                   invariance, mode="symbolic")


def _verify_symbolic(e_rows, structure: ExactHodgeStructure):
    K = structure.field
    n = structure.n
    u_cols = structure.u_columns
    # E_C(u_a, p_b) on U against P = [U | conj(U)], one packed product
    pairs = structure.pairing(e_rows)
    # relation I: E_C(U, U) = 0 exactly, for b > a as E is alternating
    for a in range(n):
        for b in range(a + 1, n):
            acc = pairs[b][a]
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
    # relation II: exact LDL pivots of the Hermitian form -i E_C(u, conj u),
    # the right half of the pairing; the pivots are purely imaginary
    # elements of K before the -i twist, so each sign is decided by the
    # certified machinery
    witness = _hermitian_nonpositive_witness([row[n:] for row in pairs], K,
                                             structure)
    if witness is not None:
        raise NotPositiveDefinite(
            "the Hermitian form -i E_C(v, conj v) is not positive definite",
            witness=witness)
    return ({"mode": "exact", "ok": True},
            {"mode": "exact", "ok": True, "pivots_positive": n})


def _hermitian_nonpositive_witness(m, K, structure):
    """None when the form c -> -i sum c_a M_ab conj(c_b) is positive
    definite; otherwise a concrete nonpositive vector in V (x) K.

    Runs the Hermitian LDL elimination exactly; the pivots of -iM are real
    cyclotomics whose signs are certified (a congruence keeps M
    anti-Hermitian).  At the first nonpositive pivot the accumulated row
    transform gives the witness combination of the V^{1,0} basis columns."""
    n = len(m)
    h = [[m[a][b] for b in range(n)] for a in range(n)]  # -i deferred
    trans = [[K.one() if i == j else K.zero() for j in range(n)]
             for i in range(n)]
    for k in range(n):
        # the exact sign of the real pivot -i h[k][k]
        if h[k][k].is_zero() or h[k][k].sign_imag() <= 0:
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


class ExistenceCertificate:
    __slots__ = ("verdict", "witness", "witness_signs", "obstruction")

    def __init__(self, verdict: str, witness: tuple | None,
                 witness_signs: tuple | None, obstruction: dict | None):
        self.verdict = verdict  # "exists-with-witness" or "infeasible"
        self.witness = witness  # coefficient vector of zeta, power basis
        self.witness_signs = witness_signs  # per root index: sign of Im
        self.obstruction = obstruction

    @property
    def exists(self) -> bool:
        return self.verdict == "exists-with-witness"


def polarization_exists(poly_coefficients,
                        designated) -> ExistenceCertificate:
    """Exact feasibility of the polarization sign cone for a standalone
    totally imaginary field Q[t]/f, by the witness search of the module
    docstring.  Feasible: zeta purely imaginary (exact) with certified
    positive imaginary part at the designated roots.  Infeasible: a
    designated pair (i, j) with Im sigma_i = -Im sigma_j on the imaginary
    elements, or, when these are zero, the full-rank linear system itself.
    A designation not one root per conjugate pair raises SchemaError."""
    F = PolynomialField(poly_coefficients)
    designated = sorted(set(designated))
    _check_designation(F.pairs, designated, SchemaError)
    basis = F.imaginary_subspace()
    if not basis:
        return ExistenceCertificate(
            verdict="infeasible", witness=None, witness_signs=None,
            obstruction={
                "reason": "imaginary-constraint space is zero",
                "pair": F.pairs[0],
                "constraint_rank": F.degree,
                "identity": "Im sigma_j(x) = 0 for all j forces x = 0",
            })
    found = _witness_search(
        basis, designated, range(F.degree), F.evaluate_box, F.sign_imag,
        lambda q: [sum(Fraction(b[t]) * c for b, c in zip(basis, q))
                   for t in range(F.degree)])
    if found is None:
        raise _cap_reached(
            f"no certified witness for the designated roots {designated}")
    zeta, signs, pair = found
    if pair is not None:
        i, j = pair
        return ExistenceCertificate(
            verdict="infeasible", witness=None, witness_signs=None,
            obstruction={
                "reason": "two designated roots have opposite imaginary "
                          "parts on every purely imaginary element",
                "pair": (i, j),
                "imaginary_dimension": len(basis),
                "identity": f"Im sigma_{i}(x) = -Im sigma_{j}(x) for "
                            "every purely imaginary x"})
    return ExistenceCertificate(
        verdict="exists-with-witness", witness=tuple(zeta),
        witness_signs=tuple(signs), obstruction=None)


def _row_classes(boxes, k):
    """(representatives, (r, i)): one designated embedding per class of
    equal or opposite rows boxes[i] = [(Im sigma_i(b), radius)], all scaled
    alike, and the first row i opposite to its representative r (else
    (None, None)); None while too wide.  True equal or opposite rows overlap, so representatives that
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
