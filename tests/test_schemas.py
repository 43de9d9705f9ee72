"""The report writer, schemas.dump_report, against json's own encoder;
and the loader's error for a ragged matrix."""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
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
    ("selftest", None, [], 0),
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
    argv = [command] + extra
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv += ["--input", str(path)]
    assert main(argv) == status
    report, = reports
    assert ("error" in report) == bool(status)
    assert dump_report(report) == oracle(report)


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
    assert str(raised.value) == \
        "invalid representation: list index out of range"


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
