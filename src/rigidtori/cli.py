"""Batch front end: analyze / rigidity / enumerate-rigid / polarize /
deform.

Reads a JSON input document and prints a human-readable summary of its
report to stdout, read off the report itself: each exact value as its
display string.  The machine-readable JSON report text is built only with
--output, which writes it.  Exit status: 0 success, 1 domain error (a
`rigidtori.errors.DomainError`, e.g. a non-rigid action passed to polarize),
2 input error, 3 internal error (any other exception; its report is an
error payload marked `"internal": true`).

Each command imports the layers it runs when it runs: `import rigidtori.cli`
loads neither the Hodge, polarization and deformation layers nor the
standalone-field and fixture modules, so an `analyze` process compiles none
of them.

`polarize` takes no option of its own: every polarization it certifies is
G-invariant (`polarize.assemble_polarization`).

One action request runs `run_rigidity`, then `run_polarize` or `run_deform`,
on the same document, so each fact of a representation document is computed
once per document: a private one-entry memo keyed by the document's repr
(`_snapshot`) keeps the last document's resolution (`_Resolution`: its
representation, Hodge type and exact structure).  Only results computed
without error are kept, so every error is raised again, in the same order.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from fractions import Fraction

from .characters import galois_orbits, table_for
from .cyclotomic import CyclotomicNumber
from .errors import DomainError
from .schemas import (SchemaError, _fraction_json, dump_report,
                      load_group_doc, load_polynomial_doc,
                      load_representation_doc, load_symbolic_spec)

# caught without importing the modules that define the declared errors
DOMAIN_ERRORS = (DomainError,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidtori",
        description="Rigidity, polarizations, and projective deformations "
                    "of finite group actions on complex tori.")
    parser.add_argument("command", choices=[
        "analyze", "rigidity", "enumerate-rigid", "polarize", "deform"])
    parser.add_argument("--input", help="path to the JSON input document")
    parser.add_argument("--output", help="path for the machine-readable report")
    parser.add_argument("--max-denominator", type=int, default=256,
                        help="largest denominator of a deform candidate "
                             "class (deform only)")
    parser.add_argument("--epsilon", type=float, default=1.0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.input:
        parser.error("--input is required")
    try:
        with open(args.input) as fh:
            try:
                doc = json.load(fh)
            except RecursionError as exc:
                raise SchemaError("input nests deeper than the JSON decoder "
                                  "allows") from exc
        runner = {
            "analyze": run_analyze,
            "rigidity": run_rigidity,
            "enumerate-rigid": run_enumerate,
            "polarize": run_polarize,
            "deform": run_deform,
        }[args.command]
        report = runner(doc, args)
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            payload["witness"] = witness
        best = getattr(exc, "best", None)
        if best is not None:
            payload["diagnostics"] = best
        _emit(args, {"command": args.command, "error": payload})
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - declared as an internal error
        _emit(args, {"command": args.command, "error": {
            "error": type(exc).__name__, "message": str(exc),
            "internal": True}})
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        import traceback
        traceback.print_exc(file=sys.stderr)
        return 3
    _emit(args, report)
    return 0


def _emit(args, report):
    if args.output:
        text = dump_report(report)
        with open(args.output, "w") as fh:
            # in 1 MB slices: one write of a long text encodes a copy of it
            for start in range(0, len(text), 1 << 20):
                fh.write(text[start:start + (1 << 20)])
    render_human(report)


def render_human(report):
    """Print the summary of a report, walking the report itself; each
    distinct cyclotomic value is rendered once per call."""
    result = report.get("result", report.get("error", {}))
    print(f"== {report.get('command', '?')} ==")
    _render(result, 0, {})


def _is_scalar(x):
    return not isinstance(x, (dict, list, tuple)) or (
        isinstance(x, dict) and "display" in x)


def _render(node, indent, memo):
    pad = "  " * indent
    if isinstance(node, dict) and "display" not in node:
        for key in sorted(node, key=str):
            value = node[key]
            if _is_scalar(value) or not value:
                print(f"{pad}{key}: {_scalar(value, memo)}")
            else:
                print(f"{pad}{key}:")
                _render(value, indent + 1, memo)
    elif isinstance(node, (list, tuple)):
        if all(_is_scalar(x) for x in node):
            print(f"{pad}[{', '.join(_scalar(x, memo) for x in node)}]")
        else:
            for x in node:
                _render(x, indent, memo)
    else:
        print(f"{pad}{_scalar(node, memo)}")


def _scalar(x, memo):
    """A leaf's text as its JSON form prints: a cyclotomic value's
    `as_string` (kept in `memo`), a rational's "p/q", a display entry."""
    if isinstance(x, CyclotomicNumber):
        key = (x.field.m, x.num, x.den)
        if key not in memo:
            memo[key] = x.as_string()
        return memo[key]
    if isinstance(x, Fraction):
        return _fraction_json(x.numerator, x.denominator)
    if isinstance(x, dict) and "display" in x:
        x = x["display"]
    if isinstance(x, tuple):
        x = list(x)
    elif hasattr(x, "item") and not isinstance(x, (str, bytes)):
        x = x.item()
    return str(x)


# -- command implementations --------------------------------------------------


def run_analyze(doc, args):
    group = load_group_doc(doc)
    table = table_for(group)
    decomp = galois_orbits(table)
    classes = table.classes
    rows = [{"degree": degree, "values": list(values)}
            for degree, values in zip(table.degrees, table.rows)]
    orbit_docs = [{
        "rows": list(orbit.rows),
        "field": {
            "conductor": orbit.field_spec.field.m,
            "fixing_subgroup": list(orbit.field_spec.fixing_subgroup),
            "degree": orbit.field_spec.degree,
        },
        "classification": orbit.tag,
        "idempotent": list(orbit.idempotent),
    } for orbit in decomp.orbits]
    result = {
        "group": {"name": group.name, "order": group.order,
                  "exponent": group.exponent},
        "classes": {
            "count": classes.count,
            "sizes": list(classes.sizes),
            "representatives": list(classes.representatives),
            "element_orders": [group.element_order[g]
                               for g in classes.representatives],
        },
        "character_table": rows,
        "galois_orbits": orbit_docs,
        # the orbits' character fields are the summands of Z(Q[G])
        "centre_fields": [
            {"orbit": j, "degree": orbit.degree, "classification": orbit.tag}
            for j, orbit in enumerate(decomp.orbits)],
    }
    return {"command": "analyze", "result": result}


class _Resolution:
    """What one representation document resolves to, each fact computed at
    most once: `load_representation_doc`'s (rep, j_matrix, spec_doc), then
    `_hodge`'s spec with chi10 (J_matrix) or structure (symbolic_spec), and
    for a rigid J_matrix document the structure `run_rigidity` builds.
    j_matrix and spec_doc are the memo's own copies, so a caller that
    mutates its document cannot change them."""

    __slots__ = ("rep", "j_matrix", "spec_doc", "spec", "chi10", "structure")

    def __init__(self, rep, j_matrix, spec_doc):
        self.rep = rep
        self.j_matrix = (None if j_matrix is None
                         else [list(row) for row in j_matrix])
        self.spec_doc = copy.deepcopy(spec_doc)
        self.spec = self.chi10 = self.structure = None


_LAST_RESOLUTION = None  # (snapshot, _Resolution) of the last document


def _snapshot(doc):
    """The memo key of a document: its repr, which tells -0.0 from 0.0, 1.0
    from 1, True from 1, a tuple from a list and an int key from a string
    key; None (never cached) when repr refuses, as for an int of more
    digits than the interpreter's limit or a document nested too deep."""
    try:
        return repr(doc)
    except (ValueError, RecursionError):
        return None


def _resolve(doc) -> _Resolution:
    """load_representation_doc(doc), memoized for the last document; only a
    document that loaded without error is kept."""
    global _LAST_RESOLUTION
    key = _snapshot(doc)
    if (key is not None and _LAST_RESOLUTION is not None
            and _LAST_RESOLUTION[0] == key):
        return _LAST_RESOLUTION[1]
    resolution = _Resolution(*load_representation_doc(doc))
    if key is not None:
        _LAST_RESOLUTION = (key, resolution)
    return resolution


def _hodge(res: _Resolution) -> _Resolution:
    """Resolve the Hodge type of a representation document, once: a
    symbolic_spec document gives res.spec and its exact res.structure, a
    J_matrix document res.spec and its numeric res.chi10."""
    from .hodge import (exact_structure_from_spec,
                        hodge_character_from_numeric, spec_from_character)
    if res.spec is None:
        rep = res.rep
        if res.spec_doc is not None:
            spec = load_symbolic_spec(res.spec_doc,
                                      galois_orbits(table_for(rep.group)))
            res.structure = exact_structure_from_spec(rep, spec)
            res.spec = spec
        elif res.j_matrix is not None:
            chi10 = hodge_character_from_numeric(rep, res.j_matrix)
            res.spec, res.chi10 = spec_from_character(chi10), chi10
        else:
            raise SchemaError("representation document needs J_matrix or "
                              "symbolic_spec for this command")
    return res


def run_rigidity(doc, args):
    from .hodge import (brute_force_hom_dimension, exact_structure_from_spec,
                        rigidity_by_centre, rigidity_by_character)
    res = _hodge(_resolve(doc))
    chi10 = (res.structure.hodge_character() if res.chi10 is None
             else res.chi10)
    char_report = rigidity_by_character(chi10)
    centre_report = rigidity_by_centre(res.spec)
    methods = [
        {"method": "character", "hom_dimension": char_report.hom_dimension,
         "is_rigid": char_report.is_rigid},
        {"method": "centre", "hom_dimension": None,
         "is_rigid": centre_report.is_rigid},
    ]
    if res.structure is None and char_report.is_rigid:
        res.structure = exact_structure_from_spec(res.rep, res.spec)
    if res.structure is not None:
        # a numeric chi10 is cross-checked against the structure's own
        bf = brute_force_hom_dimension(res.structure, res.chi10)
        methods.append({"method": "brute_force", "hom_dimension": bf,
                        "is_rigid": bf == 0})
    else:
        methods.append({"method": "brute_force", "hom_dimension": None,
                        "is_rigid": None,
                        "skipped": "no exact complex structure available "
                                   "for a non-rigid numeric input"})
    verdicts = {m["is_rigid"] for m in methods if m["is_rigid"] is not None}
    dims = {m["hom_dimension"] for m in methods
            if m["hom_dimension"] is not None}
    result = {
        "hom_dimension": char_report.hom_dimension,
        "is_rigid": char_report.is_rigid,
        "infinitesimal_deformation_dimension": char_report.hom_dimension,
        "tau_table": [
            {"orbit": row[0], "embedding_coset": row[1], "tau": row[2],
             "tau_conjugate": row[3], "product": row[4]}
            for row in centre_report.tau_rows],
        "methods": methods,
        "agreement": len(verdicts) == 1 and len(dims) <= 1,
    }
    return {"command": "rigidity", "result": result}


def run_enumerate(doc, args):
    from .hodge import enumerate_rigid_types, isotypic_split
    rep = _resolve(doc).rep
    decomp = galois_orbits(table_for(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // orbit.field_spec.degree
             for img, orbit in zip(pieces, decomp.orbits)]
    specs = enumerate_rigid_types(decomp, mults)
    active = [orbit for orbit, m in zip(decomp.orbits, mults) if m > 0]
    expected = (0 if any(orbit.tag == "TotallyReal" for orbit in active) else
                2 ** sum(orbit.field_spec.degree // 2 for orbit in active))
    result = {
        "multiplicities": mults,
        "count": len(specs),
        "expected_count": expected,
        "types": [
            {"summands": [
                {"orbit": s.orbit_index, "multiplicity": s.multiplicity,
                 "tau": {str(a): v for a, v in s.tau}}
                for s in sp.summands if s.multiplicity > 0]}
            for sp in specs],
    }
    return {"command": "enumerate-rigid", "result": result}


def run_polarize(doc, args):
    from .polarize import assemble_polarization
    if isinstance(doc, dict) and "polynomial" in doc:
        return _run_polarize_polynomial(doc)
    # a symbolic_spec document's structure is built before the rigidity
    # checks, so its domain errors win over NotRigid; a J_matrix document's
    # is the one run_rigidity built, if it ran, else assembly builds it
    res = _hodge(_resolve(doc))
    form = assemble_polarization(
        res.rep, spec=res.spec, structure=res.structure)
    cert = form.certificate
    result = {
        "rank": form.rank,
        "matrix": [list(row) for row in form.matrix],
        "zeta_per_summand": [
            {"orbit": orbit, "copies": copies, "zeta_coords": list(coords)}
            for orbit, copies, coords, _ in form.provenance],
        "signs": [
            {"orbit": orbit,
             "imaginary_signs": {str(a): s for a, s in sign_table}}
            for orbit, _, _, sign_table in form.provenance],
        "certificate": {
            "relation_I": cert.relation_i,
            "relation_II": cert.relation_ii,
            "rosati": cert.rosati,
            "g_invariant": cert.g_invariant,
            "mode": cert.mode,
        },
    }
    return {"command": "polarize", "result": result}


def _run_polarize_polynomial(doc):
    from .polarize import polarization_exists
    cert = polarization_exists(*load_polynomial_doc(doc))
    result = {
        "verdict": cert.verdict,
        "witness": list(cert.witness) if cert.witness else None,
        "signs": list(cert.witness_signs) if cert.witness_signs else None,
        "obstruction": cert.obstruction,
    }
    return {"command": "polarize", "result": result}


def run_deform(doc, args):
    from .deform import find_projective_neighbor
    resolved = _resolve(doc)
    j_matrix = resolved.j_matrix
    if j_matrix is None and resolved.spec_doc is not None:
        j_matrix = _hodge(resolved).structure.j_matrix_float().tolist()
    if j_matrix is None:
        raise SchemaError("deform needs J_matrix or symbolic_spec")
    res = find_projective_neighbor(
        resolved.rep, j_matrix, max_denominator=args.max_denominator,
        epsilon=args.epsilon)
    result = {
        "xi_coords": list(res.xi_coords),
        "denominator": res.denominator,
        "t_norm": res.t_norm,
        "residual": res.residual,
        "positivity_margin": res.positivity_margin,
        "iterations": res.iterations,
        "chart_dimension": res.chart_dimension,
        "t_matrix": [list(row) for row in res.t_matrix],
        "certificate": res.certificate,
    }
    return {"command": "deform",
            "options": {"max_denominator": args.max_denominator,
                        "epsilon": args.epsilon},
            "result": result}


if __name__ == "__main__":
    sys.exit(main())
