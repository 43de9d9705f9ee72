"""Output checks, independent of the calls that produced each answer.

check(request, expect, outcome, reports) returns None for an acceptable
answer and a one-line reason otherwise; check_stream applies it to every
request of a served stream.  Reports are checked as the serialized JSON
text a client receives.  Everything here is exact integer or Fraction
arithmetic or a numpy float check; the only library call is the invariant
two-form basis needed to read deformation coordinates.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

NULL_TOL = 1e-9   # singular values below this share of the largest are zero
GAP = 1e-5        # and none may lie between the two


def check_stream(requests, expect, records):
    """Account for every request of a served stream: records are serve.py's
    report lines, in stream order.  Returns (outcomes, failures, wrong):
    answered requests counted by outcome ("ok" or a declared domain error),
    failed requests as {"index", "error"[, "detail"]}, and how many of them
    were wrong answers rather than undeclared exceptions."""
    outcomes, failures, wrong = {}, [], 0
    for index, (request, expectation, record) in enumerate(
            zip(requests, expect, records)):
        if "error" in record:
            failures.append({"index": index, "error": record["error"]})
            continue
        try:
            problem = check(request, expectation, record["outcome"],
                            record["reports"])
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            problem = f"the check raised {type(exc).__name__}: {exc}"
        if problem:
            wrong += 1
            failures.append({"index": index, "error": "wrong answer",
                             "detail": problem})
        else:
            outcome = record["outcome"]
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    return outcomes, failures, wrong


# A CM field has a polarization for every CM type, so on a CM-family
# polynomial these answers are wrong rather than declared limits.
CM_FIELD_REFUSALS = {"NotCMField", "RealEmbeddingPresent", "ReduciblePolynomial"}


def check(request, expect, outcome, reports):
    """A declared domain error counts as an answer, except a refusal of a
    CM-family field; whatever was reported before it is still checked."""
    docs = [json.loads(text) for text in reports]
    kind = expect["kind"]
    if kind == "action":
        if "result" in docs[0]:  # run_rigidity answered
            problem = _check_rigidity(expect, docs[0]["result"])
            if problem:
                return problem
        if outcome != "ok":
            return None
        if expect["rigid"]:
            return _check_polarization(expect, docs[1]["result"])
        return _check_deformation(request, expect, docs[1])
    if kind == "field" and expect["cm"] and outcome in CM_FIELD_REFUSALS:
        return f"CM field {json.loads(request)['polynomial']} refused " \
               f"with {outcome}"
    if outcome != "ok":
        return None
    if kind == "analyze":
        return _check_analyze(expect, docs[0]["result"])
    return _check_field(request, expect, docs[0]["result"])


def _q(value):
    """An exact report value: an int or a "p/q" string."""
    return Fraction(value)


# -- actions ------------------------------------------------------------------


def numeric_hom_dimension(matrices, j_matrix):
    """Complex dimension of the G-equivariant maps T^{0,1} -> T^{1,0}: the
    real endomorphisms A with A rho(g) = rho(g) A for every g and
    AJ = -JA, found as a numerical null space (an action is rigid exactly
    when it is zero).  Row-major vec: vec(AB) = (I x B^T) vec(A) and
    vec(BA) = (B x I) vec(A)."""
    j = np.array(j_matrix, dtype=float)
    n = len(j)
    eye = np.eye(n)
    blocks = [np.kron(eye, j.T) + np.kron(j, eye)]
    for rho in matrices:
        rho = np.array(rho, dtype=float)
        blocks.append(np.kron(eye, rho.T) - np.kron(rho, eye))
    singular = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    null = int(np.sum(singular < NULL_TOL * singular[0]))
    if np.any((singular >= NULL_TOL * singular[0])
              & (singular < GAP * singular[0])):
        raise ValueError("numerical rank of the deformation system is unclear")
    return null // 2


def _check_rigidity(expect, result):
    verdicts = {m["is_rigid"] for m in result["methods"]
                if m["is_rigid"] is not None}
    dims = {m["hom_dimension"] for m in result["methods"]
            if m["hom_dimension"] is not None}
    if len(verdicts) != 1 or len(dims) != 1:
        return f"rigidity pathways disagree: {result['methods']}"
    if result["is_rigid"] != (result["hom_dimension"] == 0):
        return "is_rigid does not match hom_dimension"
    if result["hom_dimension"] != expect["hom_dimension"]:
        return f"hom_dimension {result['hom_dimension']}, but the numeric " \
               f"null space has dimension {expect['hom_dimension']}"
    ran = {m["method"] for m in result["methods"] if m["is_rigid"] is not None}
    if expect["rigid"] and ran != {"character", "centre", "brute_force"}:
        return f"a rigid action was decided by {sorted(ran)} only"
    return None


def _check_polarization(expect, result):
    e = [[_q(x) for x in row] for row in result["matrix"]]
    n = len(e)
    if n != len(expect["J"]) or any(len(row) != n for row in e):
        return "polarization has the wrong shape"
    if any(x.denominator != 1 for row in e for x in row):
        return "polarization is not integral"
    e = [[int(x) for x in row] for row in e]
    if any(e[i][j] != -e[j][i] for i in range(n) for j in range(n)):
        return "polarization is not alternating"
    for g, rho in enumerate(expect["element_matrices"]):
        if _congruence(rho, e) != e:
            return f"polarization is not invariant under element {g}"
    form = np.array(e, dtype=float) @ np.array(expect["J"], dtype=float)
    scale = max(1.0, float(np.abs(form).max()))
    if np.abs(form - form.T).max() > 1e-8 * scale:
        return "E(x, Jy) is not symmetric"
    if np.linalg.eigvalsh((form + form.T) / 2).min() <= 1e-9 * scale:
        return "E(x, Jy) is not positive definite"
    return None


def _check_deformation(request, expect, report):
    from rigidtori import deform
    from rigidtori.schemas import load_representation_doc
    result = report["result"]
    rep, _, _ = load_representation_doc(json.loads(request))
    basis = deform.invariant_two_forms(rep).basis
    coords = [_q(c) for c in result["xi_coords"]]
    if len(coords) != len(basis) or not any(coords):
        return "xi coordinates do not match the invariant form lattice"
    n = len(expect["J"])
    xi = [[sum(c * eta[i][j] for c, eta in zip(coords, basis))
           for j in range(n)] for i in range(n)]
    if any(xi[i][j] != -xi[j][i] for i in range(n) for j in range(n)):
        return "xi is not alternating"
    for g, rho in enumerate(expect["element_matrices"]):
        if _congruence(rho, xi) != xi:
            return f"xi is not invariant under element {g}"
    options = report["options"]
    if not result["residual"] < deform.NEWTON_TOL:
        return f"residual {result['residual']} above the Newton tolerance"
    if not result["positivity_margin"] > deform.POSITIVITY_MARGIN:
        return f"positivity margin {result['positivity_margin']} too small"
    if not result["t_norm"] < options["epsilon"]:
        return f"chart distance {result['t_norm']} beyond epsilon"
    if not 1 <= result["denominator"] <= options["max_denominator"]:
        return f"denominator {result['denominator']} out of range"
    return None


def _congruence(rho, form):
    """rho^T form rho, exactly."""
    n = len(rho)
    inner = [[sum(form[i][k] * rho[k][j] for k in range(n) if rho[k][j])
              for j in range(n)] for i in range(n)]
    return [[sum(rho[k][i] * inner[k][j] for k in range(n) if rho[k][i])
             for j in range(n)] for i in range(n)]


# -- cold groups --------------------------------------------------------------


def _cyclotomic_value(value):
    m = value["conductor"]
    zeta = np.exp(2j * np.pi / m)
    return sum(float(_q(c)) * zeta ** i for i, c in enumerate(value["coeffs"]))


def _check_analyze(expect, result):
    order = expect["order"]
    classes = result["classes"]
    rows = result["character_table"]
    if result["group"]["order"] != order:
        return f"group order {result['group']['order']} != {order}"
    if classes["count"] != expect["classes"] or len(rows) != classes["count"]:
        return f"{len(rows)} rows for {classes['count']} classes, " \
               f"expected {expect['classes']}"
    if sum(classes["sizes"]) != order:
        return "class sizes do not sum to the group order"
    if sum(row["degree"] ** 2 for row in rows) != order:
        return "squared degrees do not sum to the group order"
    table = np.array([[_cyclotomic_value(v) for v in row["values"]]
                      for row in rows])
    if np.abs(table[:, 0] - [row["degree"] for row in rows]).max() > 1e-9:
        return "identity column is not the degrees"
    gram = table.conj().T @ table
    target = np.diag([order / size for size in classes["sizes"]])
    if np.abs(gram - target).max() > 1e-8 * order:
        return "columns are not orthogonal"
    return None


# -- standalone fields ----------------------------------------------------------


def _check_field(request, expect, result):
    doc = json.loads(request)
    if result["verdict"] == "infeasible":
        if expect["cm"]:
            return f"CM field {doc['polynomial']} declared infeasible"
        return None
    if result["verdict"] != "exists-with-witness":
        return f"unknown verdict {result['verdict']}"
    witness = [float(_q(c)) for c in result["witness"]]
    roots = [complex(re, im) for re, im in expect["roots"]]
    designated = set(doc["designated_roots"])
    for i, root in enumerate(roots):
        value = sum(c * root ** k for k, c in enumerate(witness))
        size = sum(abs(c) * abs(root) ** k for k, c in enumerate(witness))
        if abs(value.real) > 1e-9 * size:
            return f"witness is not purely imaginary at root {i}"
        if (value.imag > 0) != (i in designated):
            return f"witness has the wrong sign at root {i}"
    return None
