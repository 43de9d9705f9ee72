"""Strict input documents and deterministic report serialization.

Input documents are JSON with a closed key set (unknown fields are
rejected).  Machine-readable reports serialize every exact number as a
"p/q" string and cyclotomic values as coefficient vectors, with sorted
keys, so byte-identical output across runs is a matter of determinism of
the pipeline itself.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .groups import FiniteGroup

__all__ = [
    "SchemaError",
    "load_group_doc",
    "load_representation_doc",
    "load_polynomial_doc",
    "to_jsonable",
    "dump_report",
]


class SchemaError(ValueError):
    pass


def _check_keys(doc, required, optional, what):
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object")
    keys = set(doc)
    missing = required - keys
    if missing:
        raise SchemaError(f"{what} is missing fields {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{what} has unknown fields {sorted(unknown)}")


def _builtin_name(doc):
    if not isinstance(doc["builtin"], str):
        raise SchemaError("builtin must be a string")
    return doc["builtin"]


def load_group_doc(doc) -> FiniteGroup:
    """Group from {'builtin': name} or {'name', 'cayley_table' |
    'permutation_generators'}."""
    if isinstance(doc, dict) and set(doc) == {"builtin"}:
        from .fixtures import group_by_name
        try:
            return group_by_name(_builtin_name(doc))
        except KeyError as exc:
            raise SchemaError(str(exc)) from exc
    _check_keys(doc, {"name"}, {"cayley_table", "permutation_generators"},
                "group document")
    has_table = "cayley_table" in doc
    has_perms = "permutation_generators" in doc
    if has_table == has_perms:
        raise SchemaError(
            "group document needs exactly one of cayley_table / "
            "permutation_generators")
    if not isinstance(doc["name"], str):
        raise SchemaError("name must be a string")
    if has_table and not _is_int_rows(doc["cayley_table"]):
        raise SchemaError("cayley_table must be a list of rows of integers")
    if has_perms and not _is_int_rows(doc["permutation_generators"]):
        raise SchemaError("permutation_generators must be a list of lists "
                          "of integers")
    try:
        if has_table:
            return FiniteGroup(doc["cayley_table"], name=doc["name"])
        return FiniteGroup.from_permutations(
            doc["permutation_generators"], name=doc["name"])
    except (ValueError, TypeError, IndexError) as exc:
        if getattr(exc, "too_many_classes", False):
            raise   # a group, refused as its Cayley table would be: exit 1
        raise SchemaError(f"invalid group: {exc}") from exc


def load_representation_doc(doc):
    """Representation inputs: returns (rep, j_matrix | None, spec | None).

    Accepts {'builtin': name} or a full document with the group, integer
    matrices (per element or per generator), and optionally a float
    J_matrix or a symbolic_spec."""
    from .hodge import IntegralRepresentation
    if isinstance(doc, dict) and set(doc) == {"builtin"}:
        from .fixtures import builtin_representation
        try:
            rep = builtin_representation(_builtin_name(doc))
        except KeyError as exc:
            raise SchemaError(str(exc)) from exc
        return rep, None, None
    _check_keys(doc, {"group", "rank"},
                {"element_matrices", "generator_matrices", "generator_elements",
                 "J_matrix", "symbolic_spec"},
                "representation document")
    group = load_group_doc(doc["group"])
    rank = doc["rank"]
    if not isinstance(rank, int) or rank <= 0 or rank % 2:
        raise SchemaError("rank must be a positive even integer")
    for key in ("element_matrices", "generator_matrices"):
        if key in doc and not _is_int_matrices(doc[key]):
            raise SchemaError(f"{key} must be a list of matrices of "
                              "integers")
    if "generator_elements" in doc and not (
            isinstance(doc["generator_elements"], list)
            and all(map(_is_int, doc["generator_elements"]))):
        raise SchemaError("generator_elements must be a list of integers")
    for g in doc.get("generator_elements", ()):
        if not 0 <= g < group.order:
            # a negative index would read the Cayley table from its end
            raise SchemaError(
                f"generator_elements entry {g} is outside 0 ... "
                f"{group.order - 1} (|G| = {group.order})")
    try:
        if "element_matrices" in doc:
            if "generator_matrices" in doc:
                raise SchemaError("give element_matrices or "
                                  "generator_matrices, not both")
            rep = IntegralRepresentation.from_elements(
                group, doc["element_matrices"])
        elif "generator_matrices" in doc:
            gen_elems = doc.get("generator_elements")
            if gen_elems is None:
                if not hasattr(group, "permutations"):
                    raise SchemaError(
                        "generator_elements is required with a Cayley-table "
                        "group")
                gen_elems = _permutation_generator_indices(group, doc)
            if len(gen_elems) != len(doc["generator_matrices"]):
                raise SchemaError(f"{len(gen_elems)} generators but "
                                  f"{len(doc['generator_matrices'])} "
                                  "generator_matrices")
            rep = IntegralRepresentation.from_generators(
                group, gen_elems, doc["generator_matrices"])
        else:
            raise SchemaError("representation needs matrices")
    except SchemaError:
        raise
    except (ValueError, TypeError, IndexError) as exc:
        raise SchemaError(f"invalid representation: {exc}") from exc
    if rep.rank != rank:
        raise SchemaError(f"declared rank {rank} but matrices have rank "
                          f"{rep.rank}")
    j_matrix = None
    if "J_matrix" in doc:
        j_matrix = doc["J_matrix"]
        if (not isinstance(j_matrix, list) or len(j_matrix) != rank
                or any(not isinstance(r, list) or len(r) != rank
                       for r in j_matrix)):
            raise SchemaError("J_matrix must be a rank x rank array")
        if not all(_is_finite_number(x) for r in j_matrix for x in r):
            raise SchemaError("J_matrix entries must be finite numbers")
    spec_doc = doc.get("symbolic_spec")
    return rep, j_matrix, spec_doc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_count(x) -> bool:
    return _is_int(x) and x >= 0


def _is_int_rows(rows) -> bool:
    """A list of rows of JSON integers; shapes are checked by the consumer
    (FiniteGroup, IntegralRepresentation)."""
    return isinstance(rows, list) and all(
        isinstance(row, list) and all(map(_is_int, row)) for row in rows)


def _is_int_matrices(mats) -> bool:
    return isinstance(mats, list) and all(map(_is_int_rows, mats))


def _is_finite_number(x) -> bool:
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an int beyond the float range
        return False


def load_polynomial_doc(doc):
    """Standalone-field document: returns (coefficients, designated roots).

    {'polynomial': integer coefficients, low degree first,
    'designated_roots': root indices}.  Whether the designation picks one
    root per conjugate pair is checked against the field's roots, by
    `polarize.polarization_exists`."""
    _check_keys(doc, {"polynomial", "designated_roots"}, set(),
                "polynomial document")
    poly = doc["polynomial"]
    designated = doc["designated_roots"]
    if not isinstance(poly, list) or not all(_is_int(c) for c in poly):
        raise SchemaError("polynomial must be a list of integer coefficients")
    if not isinstance(designated, list) or \
            not all(_is_int(i) for i in designated):
        raise SchemaError("designated_roots must be a list of integer root "
                          "indices")
    return poly, designated


def _permutation_generator_indices(group, doc):
    perms = group.permutations
    gens = doc["group"]["permutation_generators"]
    out = []
    lookup = {p: i for i, p in enumerate(perms)}
    for g in gens:
        out.append(lookup[tuple(g)])
    return out


def load_symbolic_spec(spec_doc, decomposition) -> SymbolicHodgeSpec:
    """{'multiplicities': [...], 'tau': {orbit: {coset: value}}} against a
    computed Galois-orbit decomposition.  Multiplicities and tau values are
    non-negative JSON integers; tau is keyed by orbit indices of the
    decomposition."""
    from .hodge import SummandType, SymbolicHodgeSpec
    _check_keys(spec_doc, {"multiplicities", "tau"}, set(), "symbolic_spec")
    mults = spec_doc["multiplicities"]
    orbits = decomposition.orbits
    if not isinstance(mults, list) or len(mults) != len(orbits):
        raise SchemaError(
            f"need {len(orbits)} multiplicities, one per centre summand")
    if not all(_is_count(x) for x in mults):
        raise SchemaError("multiplicities must be non-negative integers")
    tau_doc = spec_doc["tau"]
    if not isinstance(tau_doc, dict):
        raise SchemaError("tau must be an object keyed by orbit index")
    unknown = set(tau_doc) - {str(j) for j in range(len(orbits))}
    if unknown:
        raise SchemaError(f"tau has unknown orbits {sorted(unknown)}")
    summands = []
    for j, orbit in enumerate(orbits):
        reps = orbit.field_spec.coset_reps()
        given = tau_doc.get(str(j), {})
        if not isinstance(given, dict) or \
                not all(_is_count(x) for x in given.values()):
            raise SchemaError(f"tau for orbit {j} must be an object of "
                              "non-negative integers")
        tau = []
        for a in reps:
            if str(a) in given:
                tau.append((a, given[str(a)]))
            elif mults[j] == 0:
                tau.append((a, 0))
            else:
                raise SchemaError(
                    f"tau missing for orbit {j}, embedding coset {a}")
        extra = set(given) - {str(a) for a in reps}
        if extra:
            raise SchemaError(f"tau has unknown cosets {sorted(extra)} "
                              f"for orbit {j}")
        summands.append(SummandType(orbit_index=j, multiplicity=mults[j],
                                    tau=tuple(tau)))
    return SymbolicHodgeSpec(decomposition=decomposition,
                             summands=tuple(summands))


# -- serialization ------------------------------------------------------------
#
# dump_report writes the text of json.dumps(to_jsonable(report),
# sort_keys=True, indent=2) in one walk of the report: json's pure-Python
# encoder, which it falls back to whenever `indent` is set, would walk the
# converted copy a second time and encode each repeated table value anew.
# The JSON form of exact numbers is defined once, in _fraction_json and
# _cyclotomic_json, for both.

_encode_str = json.encoder.encode_basestring_ascii


def _fraction_json(p: int, q: int) -> str:
    """The rational p/q (q > 0) as "p/q" in lowest terms."""
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


def _cyclotomic_json(z: CyclotomicNumber) -> dict:
    """Conductor, power-basis coordinates as "p/q" strings (read off the
    integer num/den) and the display string of a cyclotomic value."""
    den = z.den
    return {
        "conductor": z.field.m,
        "coeffs": [_fraction_json(n, den) for n in z.num],
        "display": z.as_string(),
    }


def to_jsonable(value):
    if isinstance(value, Fraction):
        return _fraction_json(value.numerator, value.denominator)
    if isinstance(value, CyclotomicNumber):
        return _cyclotomic_json(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return to_jsonable(value.item())
    return value


def dump_report(report: dict) -> str:
    """Indent-2, sorted-key JSON text of `report`, ending in a newline:
    json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n",
    written in one walk.  Each distinct cyclotomic value is rendered once
    per call and indent level."""
    out = []
    _write(report, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _write(value, nl, out, memo):
    """Append the JSON text of `value` to `out`; `nl` is the newline and
    indent of the line `value` starts on.  Plain JSON types take the first
    branches; anything else follows to_jsonable's order of cases.  `memo`
    maps (conductor, num, den, indent) to a cyclotomic value's text."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is Fraction:   # in lowest terms: no gcd to take
        out.append(f'"{value.numerator}/{value.denominator}"')
    elif kind is list or kind is tuple:
        _write_array(value, nl, out, memo)
    elif kind is dict:
        _write_object(value, nl, out, memo)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is float:
        out.append(_float_json(value))
    elif isinstance(value, CyclotomicNumber):
        key = (value.field.m, value.num, value.den, len(nl))
        text = memo.get(key)
        if text is None:
            part = []
            _write_object(_cyclotomic_json(value), nl, part, memo)
            text = memo[key] = "".join(part)
        out.append(text)
    elif isinstance(value, Fraction):
        out.append(_encode_str(
            _fraction_json(value.numerator, value.denominator)))
    elif isinstance(value, dict):
        _write_object(value, nl, out, memo)
    elif isinstance(value, (list, tuple)):
        _write_array(value, nl, out, memo)
    elif isinstance(value, float):
        out.append(_float_json(float(value)))
    elif hasattr(value, "item") and not isinstance(value, (str, bytes)):
        _write(value.item(), nl, out, memo)
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} "
                        "is not JSON serializable")


def _write_array(items, nl, out, memo):
    if not items:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _write(item, inner, out, memo)
        sep = "," + inner
    out.append(nl + "]")


def _write_object(obj, nl, out, memo):
    if not obj:
        out.append("{}")
        return
    if not all(type(k) is str for k in obj):
        obj = {str(k): v for k, v in obj.items()}
    inner = nl + "  "
    sep = "{" + inner
    for key in sorted(obj):
        out.append(sep)
        out.append(_encode_str(key))
        out.append(": ")
        _write(obj[key], inner, out, memo)
        sep = "," + inner
    out.append(nl + "}")
