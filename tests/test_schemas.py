"""The report writer, schemas.dump_report, against json's own encoder;
the loader's errors for malformed documents; and the CLI on mutated
documents."""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidtori import cli, schemas
from rigidtori.cli import main
from rigidtori.cyclotomic import CyclotomicField, CyclotomicNumber
from rigidtori.schemas import (SchemaError, dump_report, load_group_doc,
                               load_representation_doc, to_jsonable)


def oracle(value):
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2) + "\n"


STRINGS = ["", "plain", "café ζ₁₅ \U0001d54f",
           'say "p/q" \\ done', "tab\tnew\nline\r\x00\x1f\x7f", "\ud800"]
FLOATS = [0.0, -0.0, 1.5, -2.25e-7, 1e300, -1e-300, 5e-324,
          math.nan, math.inf, -math.inf]


def cyclotomic(m, num, den):
    field = CyclotomicField(m)
    return CyclotomicNumber(field, num, den)


@st.composite
def cyclotomics(draw):
    field = CyclotomicField(draw(st.sampled_from([1, 2, 4, 15])))
    num = draw(st.lists(st.integers(-60, 60), min_size=field.degree,
                        max_size=field.degree))
    return CyclotomicNumber(field, num, draw(st.integers(1, 36)))


leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(FLOATS),
    st.text(), st.sampled_from(STRINGS),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats().map(np.float64), st.booleans().map(np.bool_),
    st.fractions(), cyclotomics(),
)

values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3),
                                  st.integers(-3, 3)),
                        children, max_size=4)),
    max_leaves=24)


@given(values)
def test_writer_matches_json_on_any_value(value):
    assert dump_report(value) == oracle(value)


@given(st.dictionaries(st.text(max_size=4), values, max_size=5))
def test_writer_matches_json_on_any_report(report):
    assert dump_report(report) == oracle(report)


def test_writer_matches_json_on_named_cases():
    third = Fraction(1, 3)
    zeta = CyclotomicField(15).zeta()
    report = {
        "empty": [{}, [], (), {"nested": [[], {}]}],
        "ints": {3: "three", -1: "minus", 10: "ten"},
        "strings": STRINGS,
        "flags": [True, False, 1, 0, None, np.bool_(True), np.bool_(False)],
        "floats": FLOATS + [np.float64(-0.0), np.float64(math.nan)],
        "numpy": [np.int64(-7), np.int64(2 ** 62), np.float64(0.1)],
        "fractions": [third, -third, Fraction(0), Fraction(-5)],
        "cyclotomic": [
            CyclotomicField(15).zero(), CyclotomicField(1).from_rational(3),
            cyclotomic(2, [-4], 6), cyclotomic(4, [1, -2], 4),
            zeta, zeta * zeta + third, [zeta, (zeta, {"again": zeta})]],
    }
    assert dump_report(report) == oracle(report)
    assert dump_report({}) == oracle({}) == "{}\n"


def test_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        dump_report({"x": object()})
    with pytest.raises(TypeError):
        oracle({"x": object()})


GAUSSIAN_DOC = {
    "group": {"name": "Z4", "permutation_generators": [[1, 2, 3, 0]]},
    "rank": 2,
    "generator_matrices": [[[0, -1], [1, 0]]],
    "J_matrix": [[0.0, -1.0], [1.0, 0.0]],
}

SYMBOLIC_DOC = {
    "group": {"name": "Z4", "permutation_generators": [[1, 2, 3, 0]]},
    "rank": 2,
    "generator_matrices": [[[0, -1], [1, 0]]],
    "symbolic_spec": {
        "multiplicities": [1, 0, 0],
        "tau": {"0": {"1": 1, "3": 0}},
    },
}

# GAUSSIAN_DOC with one matrix per element, in the group's element order
GAUSSIAN_ELEMENTS_DOC = {
    "group": GAUSSIAN_DOC["group"],
    "rank": 2,
    "element_matrices": [[[1, 0], [0, 1]], [[0, -1], [1, 0]],
                         [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]],
    "J_matrix": GAUSSIAN_DOC["J_matrix"],
}

TRIVIAL_DOC = {
    "group": {"name": "Z1", "cayley_table": [[0]]},
    "rank": 2,
    "element_matrices": [[[1, 0], [0, 1]]],
    "J_matrix": [[0.0, -1.0], [1.0, 0.0]],
}

# (command, input document, extra arguments, exit status)
COMMANDS = [
    ("analyze", {"builtin": "D5"}, [], 0),
    ("rigidity", GAUSSIAN_DOC, [], 0),
    ("rigidity", SYMBOLIC_DOC, [], 0),
    ("enumerate-rigid", GAUSSIAN_DOC, [], 0),
    ("polarize", SYMBOLIC_DOC, [], 0),
    ("polarize", {"polynomial": [1, 1, 0, 0, 1], "designated_roots": [0, 2]},
     [], 0),
    ("deform", GAUSSIAN_DOC, ["--max-denominator", "64"], 0),
    ("rigidity", GAUSSIAN_ELEMENTS_DOC, [], 0),
    ("polarize", TRIVIAL_DOC, [], 1),
    ("deform", GAUSSIAN_DOC, ["--max-denominator", "4", "--epsilon", "0"], 1),
]


@pytest.mark.parametrize("command, doc, extra, status", COMMANDS,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(COMMANDS)])
def test_writer_matches_json_on_cli_reports(tmp_path, monkeypatch, command,
                                            doc, extra, status):
    reports = []

    def recording(report):
        reports.append(report)
        return dump_report(report)

    monkeypatch.setattr(cli, "dump_report", recording)
    # the report text is built only for --output
    argv = cli_argv(tmp_path, command, doc, extra) + [
        "--output", str(tmp_path / "report.json")]
    assert main(argv) == status
    report, = reports
    assert ("error" in report) == bool(status)
    assert dump_report(report) == oracle(report)


def cli_argv(tmp_path, command, doc, extra):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return [command] + extra + ["--input", str(path)]


# sha256 of the stdout summary of each COMMANDS row, in order; the
# Gaussian action gives one rigidity summary however its matrices are given
SUMMARY_DIGESTS = [
    "a801528bb9a3406b0a291b6cbd06cb0fccd26e03bd48dfeb4245c5baae004a4e",
    "086d6709464415350fe877365553d3ac3db2b36b1299111a2f938c518a575be9",
    "a713dd9aa65dd661e6af5431683f697fde63bf8993cda20b01903a30065454e3",
    "e2c7b7fe2a1b638b5d6a116ecbd2b16e034917dafda2ff06af03c969077182f7",
    "6824be5ed0f0bd7fbd392a77ccadce8f6a95484ab534bc3ea54be6f92e1e36b1",
    "fcaa37293e5f512fb19cb008d1f5256ce4a846a3243aab26d6fb2d2f1c6edb85",
    "197e585bc5f70ef64ae03e4540dc44c36d158cd1461305da39719d03712a2ad5",
    "086d6709464415350fe877365553d3ac3db2b36b1299111a2f938c518a575be9",
    "285f22d8397ae5d7dc7f05a59f1bd98eec0bed47c6ba189777072ab69c27fbe0",
    "eb33cd4138c35d83a748613b0a57c61560e81bef7e97158c63e42e348d28f3e6",
]


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("command, doc, extra, status, digest",
                         [c + (d,) for c, d in zip(COMMANDS, SUMMARY_DIGESTS)],
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(COMMANDS)])
def test_cli_summary_is_pinned(tmp_path, capsys, command, doc, extra, status,
                               digest, output):
    # the summary is the same text with or without --output
    argv = cli_argv(tmp_path, command, doc, extra)
    if output:
        argv += ["--output", str(tmp_path / "report.json")]
    assert main(argv) == status
    summary = capsys.readouterr().out
    assert hashlib.sha256(summary.encode()).hexdigest() == digest


def test_summary_prints_leaves_as_their_json_form(capsys):
    # a tuple display entry (a NotPositiveDefinite witness) prints as the
    # list it is in the JSON report; so do empty tuples, and rationals,
    # numpy scalars and int keys print as their JSON values
    gaussian = CyclotomicField(4)
    zeta = CyclotomicField(8).zeta()
    report = {"command": "polarize", "error": {
        "error": "NotPositiveDefinite",
        "message": "the Hermitian form is not positive definite",
        "witness": {"conductor": 4,
                    "vector": (("1/1", "0/1"), ("0/1", "-1/1")),
                    "display": (gaussian.one().as_string(),
                                (-gaussian.zeta()).as_string())},
        "diagnostics": {
            "values": (zeta, zeta * zeta, zeta, Fraction(-3, 6), Fraction(4)),
            "numpy": [np.int64(-7), np.float64(0.1), np.bool_(True)],
            "keys": {10: "ten", 3: "three", -1: "minus"},
            "empty": ((), {}, []),
            "nested": [{"a": None}, (2, 3.5)],
        }}}
    cli._emit(cli.build_parser().parse_args(["polarize"]), report)
    assert capsys.readouterr().out == """\
== polarize ==
diagnostics:
  empty:
    []
    []
  keys:
    -1: minus
    10: ten
    3: three
  nested:
    a: None
    [2, 3.5]
  numpy:
    [-7, 0.1, True]
  values:
    [z, z^2, z, -1/2, 4/1]
error: NotPositiveDefinite
message: the Hermitian form is not positive definite
witness: ['1', '-z']
"""


S5 = {"name": "S5", "permutation_generators": [[1, 2, 3, 4, 0],
                                               [1, 0, 2, 3, 4]]}
Z24 = {"name": "Z24",
       "permutation_generators": [list(range(1, 24)) + [0]]}


@pytest.mark.parametrize("doc, digest", [
    (S5, "039acc3229457ce2ff2940150a363a3d"
         "e4402b7bcd4006a20e3550576151272a"),
    (Z24, "faa7c47227712e12d7042d7a5032ab17"
          "580dcd7eedf4edb581f66745938d9dfd"),
], ids=["S5", "Z24"])
def test_writer_renders_each_cyclotomic_value_once(monkeypatch, doc, digest):
    # the analyze report repeats table values (a class's values recur down
    # its column and in the orbits' idempotents); each distinct (value,
    # indent) goes through the cyclotomic mapping once per report
    report = cli.run_analyze(doc, cli.build_parser().parse_args(["analyze"]))
    rendered = []
    mapping = schemas._cyclotomic_json

    def counted(z):
        rendered.append(z)
        return mapping(z)

    monkeypatch.setattr(schemas, "_cyclotomic_json", counted)
    text = dump_report(report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    depths = Counter()

    def walk(value, depth):
        if isinstance(value, CyclotomicNumber):
            depths[value, depth] += 1
        elif isinstance(value, dict):
            for v in value.values():
                walk(v, depth + 1)
        elif isinstance(value, (list, tuple)):
            for v in value:
                walk(v, depth + 1)

    walk(report, 0)
    assert len(rendered) == len(depths)
    assert sum(depths.values()) > 2 * len(depths)


def test_ragged_generator_matrix_is_a_schema_error():
    doc = dict(GAUSSIAN_DOC, generator_matrices=[[[0, -1], [1]]])
    with pytest.raises(SchemaError) as raised:
        load_representation_doc(doc)
    assert str(raised.value) == ("invalid representation: generator "
                                 "matrix 0 is not 2 x 2: its rows have "
                                 "lengths [2, 1]")


@pytest.mark.parametrize("table", [[[0, 1], [1, 0.6]], [[0, "1"], [True, 0]]],
                         ids=["float", "string-and-bool"])
def test_cayley_table_entries_must_be_json_integers(tmp_path, table):
    # a float, a string or a bool entry is refused, never truncated to Z2
    doc = {"name": "Z2", "cayley_table": table}
    with pytest.raises(SchemaError, match="cayley_table"):
        load_group_doc(doc)
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--input", str(path)]) == 2


def _refused(tmp_path, command, doc, field):
    """The document is a SchemaError naming `field`, and exit 2 in the CLI."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == 2
    load = load_group_doc if command == "analyze" else load_representation_doc
    with pytest.raises(SchemaError, match=field):
        load(doc)


@pytest.mark.parametrize("gens", [[[False, True]], [[1.0, 0]], [["1", "0"]],
                                  [[1, 0], 7], "01"],
                         ids=["bool", "float", "string", "not-a-list",
                              "string-generators"])
def test_permutation_generators_must_be_json_integers(tmp_path, gens):
    # [[false, true]] was analysed as the transposition (0 1), and
    # [[1.0, 0]] ended in "list indices must be integers or slices"
    _refused(tmp_path, "analyze",
             {"name": "Z2", "permutation_generators": gens},
             "permutation_generators")


@pytest.mark.parametrize("elements", [[True], [1.0], ["1"], 1],
                         ids=["bool", "float", "string", "not-a-list"])
def test_generator_elements_must_be_json_integers(tmp_path, elements):
    # "generator_elements": [true] named element 1
    doc = {"group": {"name": "Z2", "cayley_table": [[0, 1], [1, 0]]},
           "rank": 2, "generator_elements": elements,
           "generator_matrices": [[[-1, 0], [0, -1]]]}
    _refused(tmp_path, "rigidity", doc, "generator_elements")


_Z4_TABLE = [[(i + j) % 4 for j in range(4)] for i in range(4)]
_I = [[0, -1], [1, 0]]


@pytest.mark.parametrize("group, elements, matrices, counts", [
    ({"name": "Z4", "cayley_table": _Z4_TABLE}, [1, 3], [_I],
     "2 generators but 1 generator_matrices"),
    ({"name": "Z4", "cayley_table": _Z4_TABLE}, [1], [_I, [[5, 7], [1, 1]]],
     "1 generators but 2 generator_matrices"),
    ({"name": "Z4", "permutation_generators": [[1, 2, 3, 0], [3, 0, 1, 2]]},
     None, [_I], "2 generators but 1 generator_matrices"),
], ids=["extra-element", "extra-matrix", "extra-permutation"])
def test_generator_counts_must_match_the_matrices(tmp_path, group, elements,
                                                  matrices, counts):
    # zip dropped the extras: each of these was answered with exit 0
    doc = {"group": group, "rank": 2, "generator_matrices": matrices}
    if elements is not None:
        doc["generator_elements"] = elements
    _refused(tmp_path, "rigidity", doc, counts)


@pytest.mark.parametrize("name", [None, 5, ["Z2"]],
                         ids=["null", "number", "list"])
def test_group_name_must_be_a_string(tmp_path, name):
    # a null or numeric name was printed as "None" or "5"
    _refused(tmp_path, "analyze",
             {"name": name, "cayley_table": [[0, 1], [1, 0]]}, "name")


@pytest.mark.parametrize("command", ["analyze", "rigidity"])
@pytest.mark.parametrize("builtin", [["S3"], {"name": "S3"}, 3, None],
                         ids=["list", "object", "number", "null"])
def test_builtin_must_be_a_string(tmp_path, command, builtin):
    # a list or an object ended in "unhashable type" and exit 3, for
    # group and action documents alike
    _refused(tmp_path, command, {"builtin": builtin}, "builtin")


def _node_paths(doc, path=()):
    """The path of every JSON node of doc, the root's first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _node_paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


# replacements of one JSON node, as JSON text: a value of each JSON type,
# empty containers, a huge and a negative integer, the non-finite floats
# Python's json accepts, and arrays nested within and beyond the depth its
# decoder allows
NODE_TEXTS = [json.dumps(value) for value in (
    None, True, 0, 0.5, "x", [0], {"x": 0}, [], {}, 10 ** 400, -1)] + [
    "NaN", "Infinity", "-Infinity"] + [
    "[" * depth + "]" * depth for depth in (64, 100_000)]
MARKER = "\0node"


@settings(max_examples=1000)
@given(st.data())
def test_a_mutated_document_ends_in_an_answer_or_a_declared_error(
        tmp_path_factory, data):
    # one node of a valid document replaced: the CLI answers, or exits
    # with a domain error (1) or an input error (2), never an internal one
    command, doc, extra, _ = data.draw(st.sampled_from(COMMANDS))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    text = json.dumps(_replaced(doc, path, MARKER)).replace(
        json.dumps(MARKER), data.draw(st.sampled_from(NODE_TEXTS)))
    inp = tmp_path_factory.getbasetemp() / "mutated.json"
    inp.write_text(text)
    assert main([command, *extra, "--input", str(inp)]) in (0, 1, 2)


@st.composite
def polynomial_docs(draw):
    """A monic integer polynomial of degree at most 6 with coefficients in
    [-30, 30], low degree first: any, or q(x^2) with q(0) > 0 and no
    negative coefficient, which has no real root.  Its designated roots are
    one of each pair (2k, 2k + 1), or any indices from -1 to the degree."""
    degree = draw(st.integers(0, 6))
    if degree % 2 == 0 and draw(st.booleans()):
        q = [draw(st.integers(1, 30))] + draw(st.lists(
            st.integers(0, 30), min_size=degree // 2 - 1,
            max_size=degree // 2 - 1)) if degree else []
        low = [c for x in q for c in (x, 0)]
    else:
        low = draw(st.lists(st.integers(-30, 30), min_size=degree,
                            max_size=degree))
    if draw(st.booleans()):
        roots = [2 * k + draw(st.integers(0, 1)) for k in range(degree // 2)]
    else:
        roots = draw(st.lists(st.integers(-1, degree), max_size=degree))
    return {"polynomial": low + [1], "designated_roots": roots}


@settings(max_examples=300)
@given(polynomial_docs())
def test_a_polynomial_document_ends_in_an_answer_or_a_declared_error(
        tmp_path_factory, doc):
    # reducible, totally real, mixed and CM fields, with designations valid
    # and not: polarize answers or exits 1 or 2, never 3
    inp = tmp_path_factory.getbasetemp() / "polynomial.json"
    inp.write_text(json.dumps(doc))
    assert main(["polarize", "--input", str(inp)]) in (0, 1, 2)
