import json

import pytest

from rigidtori.cli import build_parser, main
from rigidtori.fixtures import small_groups


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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


def test_analyze_s3(tmp_path, capsys):
    inp = write(tmp_path, "s3.json", {"builtin": "S3"})
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    result = report["result"]
    assert result["classes"]["count"] == 3
    assert sorted(result["classes"]["sizes"]) == [1, 2, 3]
    assert len(result["galois_orbits"]) == 3
    assert all(o["classification"] == "TotallyReal"
               for o in result["galois_orbits"])
    assert all(o["field"]["degree"] == 1 for o in result["galois_orbits"])


def test_polarize_gaussian_golden(tmp_path):
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out = tmp_path / "report.json"
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["matrix"] == [["0/1", "1/1"], ["-1/1", "0/1"]]
    cert = report["result"]["certificate"]
    assert cert["relation_I"]["ok"] and cert["relation_II"]["ok"]
    assert cert["rosati"]["ok"]
    assert cert["mode"] == "symbolic"


def test_polarize_builtin_fixture(tmp_path):
    inp = write(tmp_path, "rep.json", {"builtin": "Z4_gaussian"})
    # builtin carries no J; polarize needs one -> schema error, exit 2
    assert main(["polarize", "--input", inp]) == 2


def test_polarize_not_rigid_exit_1(tmp_path):
    doc = {
        "group": {"name": "Z1", "cayley_table": [[0]]},
        "rank": 2,
        "element_matrices": [[[1, 0], [0, 1]]],
        "J_matrix": [[0.0, -1.0], [1.0, 0.0]],
    }
    inp = write(tmp_path, "trivial.json", doc)
    out = tmp_path / "err.json"
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["error"]["error"] == "NotRigid"


def test_schema_violation_exit_2(tmp_path):
    inp = write(tmp_path, "bad.json", {"name": "X", "cayley_table": [[0]],
                                       "extra_field": 1})
    assert main(["analyze", "--input", inp]) == 2


def test_unknown_builtin_exit_2(tmp_path):
    inp = write(tmp_path, "bad.json", {"builtin": "NoSuchGroup"})
    assert main(["analyze", "--input", inp]) == 2


def test_rigidity_command(tmp_path):
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out = tmp_path / "rig.json"
    assert main(["rigidity", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    result = report["result"]
    assert result["hom_dimension"] == 0
    assert result["is_rigid"] is True
    assert result["agreement"] is True
    methods = {m["method"]: m for m in result["methods"]}
    assert set(methods) == {"character", "centre", "brute_force"}
    assert methods["brute_force"]["hom_dimension"] == 0


def test_rigidity_non_rigid_numeric_skips_brute_force(tmp_path):
    doc = {
        "group": {"name": "Z1", "cayley_table": [[0]]},
        "rank": 2,
        "element_matrices": [[[1, 0], [0, 1]]],
        "J_matrix": [[0.0, -1.0], [1.0, 0.0]],
    }
    inp = write(tmp_path, "trivial.json", doc)
    out = tmp_path / "rig.json"
    assert main(["rigidity", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    methods = {m["method"]: m for m in report["result"]["methods"]}
    assert report["result"]["hom_dimension"] == 1
    assert "skipped" in methods["brute_force"]


def test_rigidity_symbolic_spec_input(tmp_path):
    inp = write(tmp_path, "sym.json", SYMBOLIC_DOC)
    out = tmp_path / "rig.json"
    assert main(["rigidity", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["is_rigid"] is True
    methods = {m["method"]: m for m in report["result"]["methods"]}
    assert methods["brute_force"]["hom_dimension"] == 0


@pytest.mark.parametrize("doc", [GAUSSIAN_DOC, SYMBOLIC_DOC],
                         ids=["J_matrix", "symbolic_spec"])
def test_rigidity_then_polarize_build_one_table(tmp_path, monkeypatch, doc):
    from rigidtori import characters
    built = []
    init = characters.CharacterTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(characters.CharacterTable, "__init__", counting_init)
    inp = write(tmp_path, "rep.json", doc)
    assert main(["rigidity", "--input", inp]) == 0
    assert main(["polarize", "--input", inp]) == 0
    assert len(built) == 1


def test_hodge_character_runs_once_per_rigidity_request(tmp_path,
                                                         monkeypatch):
    from rigidtori.hodge import ExactHodgeStructure
    calls = []
    hodge_character = ExactHodgeStructure.hodge_character

    def counting(self):
        calls.append(self)
        return hodge_character(self)

    monkeypatch.setattr(ExactHodgeStructure, "hodge_character", counting)
    inp = write(tmp_path, "sym.json", SYMBOLIC_DOC)
    assert main(["rigidity", "--input", inp]) == 0
    assert len(calls) == 1
    assert main(["polarize", "--input", inp]) == 0
    assert len(calls) == 1
    # a J_matrix document still cross-checks the exact structure's
    # character against the numeric one
    del calls[:]
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    assert main(["rigidity", "--input", inp]) == 0
    assert len(calls) == 1


def test_enumerate_command(tmp_path):
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out = tmp_path / "enum.json"
    assert main(["enumerate-rigid", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["count"] == 2
    assert report["result"]["expected_count"] == 2


def test_enumerate_totally_real_module_is_empty(tmp_path):
    # the permutation action of S3 on Z^3 has only rational character
    # fields, so no rigid Hodge type exists
    doc = {
        "group": {"name": "S3", "permutation_generators": [[1, 2, 0], [1, 0, 2]]},
        "rank": 4,
        "generator_matrices": [
            [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ],
    }
    inp = write(tmp_path, "s3mod.json", doc)
    out = tmp_path / "enum.json"
    assert main(["enumerate-rigid", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["count"] == 0
    assert report["result"]["expected_count"] == 0


def test_polarize_report_is_invariant_and_has_no_options(tmp_path):
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out = tmp_path / "inv.json"
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "options" not in report
    cert = report["result"]["certificate"]
    assert cert["g_invariant"]["invariant"] is True
    assert "signs" in report["result"]


def test_deform_budget_exhausted(tmp_path):
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out = tmp_path / "def.json"
    # the rigid Gaussian action only reaches t = 0, and 0 is not < epsilon 0
    assert main(["deform", "--input", inp, "--output", str(out),
                 "--max-denominator", "4", "--epsilon", "0"]) == 1
    report = json.loads(out.read_text())
    assert report["error"]["error"] == "BudgetExhausted"


@pytest.mark.parametrize("bound", ["0", "-1", "-5"])
def test_deform_bound_below_one_admits_no_denominator(tmp_path, bound):
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out = tmp_path / "def.json"
    assert main(["deform", "--input", inp, "--output", str(out),
                 "--max-denominator", bound]) == 1
    report = json.loads(out.read_text())
    assert report["error"]["error"] == "BudgetExhausted"


def test_deform_bound_past_float_range_is_answered(tmp_path):
    # 10^400 * a float coordinate overflows a float; the rounding is exact
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out = tmp_path / "def.json"
    assert main(["deform", "--input", inp, "--output", str(out),
                 "--max-denominator", str(10 ** 400)]) == 0
    assert json.loads(out.read_text())["result"]["denominator"] == 1


@pytest.mark.parametrize("table, matrices", [
    ([[0]], [[[-1, 0], [0, -1]]]),
    ([[0, 1], [1, 0]], [[[-1, 0], [0, -1]], [[-1, 0], [0, -1]]]),
], ids=["Z1", "Z2"])
def test_element_matrices_with_a_wrong_identity_exit_2(tmp_path, table,
                                                       matrices):
    # rho(g)^2 = I holds, but rho(e) is not the identity
    doc = {"group": {"name": "G", "cayley_table": table}, "rank": 2,
           "element_matrices": matrices,
           "J_matrix": [[0.0, -1.0], [1.0, 0.0]]}
    inp = write(tmp_path, "wrong_identity.json", doc)
    assert main(["rigidity", "--input", inp]) == 2


def test_parser_has_no_tolerance_options():
    # the deform tolerances are the library constants the benchmark's
    # checks also read, so no flag may change them
    options = {s for action in build_parser()._actions
               for s in action.option_strings}
    assert options == {"-h", "--help", "--input", "--output",
                       "--max-denominator", "--epsilon"}


def test_polarize_polynomial_document(tmp_path):
    inp = write(tmp_path, "quartic.json",
                {"polynomial": [1, 1, 0, 0, 1], "designated_roots": [0, 2]})
    out = tmp_path / "poly.json"
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["verdict"] == "infeasible"
    assert report["result"]["obstruction"]["reason"] == \
        "imaginary-constraint space is zero"


def test_deform_command(tmp_path):
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out = tmp_path / "def.json"
    assert main(["deform", "--input", inp, "--output", str(out),
                 "--max-denominator", "64"]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["t_norm"] == 0.0
    assert report["result"]["chart_dimension"] == 0


def test_determinism_byte_identical(tmp_path):
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for cmd in ("analyze", "rigidity", "polarize", "deform"):
        doc = inp if cmd != "analyze" else write(
            tmp_path, "grp.json", {"builtin": "Q8"})
        assert main([cmd, "--input", doc, "--output", str(out1)]) == 0
        assert main([cmd, "--input", doc, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), cmd


def test_missing_input_file(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "absent.json")]) == 2


def test_conflicting_matrix_fields_rejected(tmp_path):
    doc = {
        "group": {"name": "Z2", "cayley_table": [[0, 1], [1, 0]]},
        "rank": 2,
        "element_matrices": [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]],
        "generator_matrices": [[[-1, 0], [0, -1]]],
    }
    inp = write(tmp_path, "conflict.json", doc)
    assert main(["rigidity", "--input", inp]) == 2


def test_cayley_group_needs_generator_elements(tmp_path):
    doc = {
        "group": {"name": "Z2", "cayley_table": [[0, 1], [1, 0]]},
        "rank": 2,
        "generator_matrices": [[[-1, 0], [0, -1]]],
    }
    inp = write(tmp_path, "nogen.json", doc)
    assert main(["rigidity", "--input", inp]) == 2
    doc["generator_elements"] = [1]
    doc["J_matrix"] = [[0.0, -1.0], [1.0, 0.0]]
    inp = write(tmp_path, "withgen.json", doc)
    out = tmp_path / "r.json"
    assert main(["rigidity", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["hom_dimension"] == 1


Z4_CAYLEY_DOC = dict(GAUSSIAN_DOC, group={
    "name": "Z4",
    "cayley_table": [[(i + j) % 4 for j in range(4)] for i in range(4)]})


@pytest.mark.parametrize("element", [-3, 7, 4])
def test_generator_elements_outside_the_group_are_refused(tmp_path, capsys,
                                                          element):
    # an index into the Cayley table would read -3 from its end, as
    # element 1, and fail on 7 and |G| = 4 with "tuple index out of range"
    inp = write(tmp_path, "doc.json",
                dict(Z4_CAYLEY_DOC, generator_elements=[element]))
    assert main(["rigidity", "--input", inp]) == 2
    assert capsys.readouterr().err == (
        f"input error: generator_elements entry {element} is outside "
        "0 ... 3 (|G| = 4)\n")


def test_generator_element_in_range_is_accepted(tmp_path):
    inp = write(tmp_path, "doc.json",
                dict(Z4_CAYLEY_DOC, generator_elements=[1]))
    out = tmp_path / "r.json"
    assert main(["rigidity", "--input", inp, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["hom_dimension"] == 0


HEAVY_MODULES = ("numpy", "mpmath", "sympy", "scipy")
# The package's modules that no `analyze` request runs
DEFERRED_MODULES = tuple(f"rigidtori.{name}" for name in (
    "hodge", "polarize", "deform", "polyfields", "intpoly", "fixtures",
    "linalg"))


def _run_fresh(code, check=True):
    """`code` run in a fresh interpreter that imports rigidtori from this
    checkout, as a completed process with its stdout captured."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rigidtori
    src = str(Path(rigidtori.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=check,
                          timeout=300)


def _loaded_after(code, modules=HEAVY_MODULES):
    """Those of `modules` (the heavy ones by default) loaded once `code` has
    run in a fresh interpreter that imports rigidtori from this checkout."""
    code += f"\nprint(sorted(set({modules!r}) & set(sys.modules)))"
    return _run_fresh(code).stdout.strip().splitlines()[-1]


def test_import_leaves_sympy_and_scipy_unloaded():
    # numpy, mpmath, sympy and scipy cost most of a cold start; only the
    # numeric J_matrix and deformation paths load one of them, numpy
    assert _loaded_after("import sys, rigidtori.cli") == "[]"


def test_analyze_and_symbolic_rigidity_leave_heavy_modules_unloaded(
        tmp_path):
    group = write(tmp_path, "s4.json", {
        "name": "S4", "permutation_generators": [[1, 2, 3, 0], [1, 0, 2, 3]]})
    symbolic = write(tmp_path, "sym.json", SYMBOLIC_DOC)
    code = ("import sys\n"
            "from rigidtori.cli import main\n"
            f"assert main(['analyze', '--input', {group!r}]) == 0\n"
            f"assert main(['rigidity', '--input', {symbolic!r}]) == 0")
    assert _loaded_after(code) == "[]"
    # symbolic polarize expands the same generators by the same closure,
    # which loads no numpy, and its interval signs and a standalone field's
    # root boxes are integer code
    field = write(tmp_path, "field.json", {
        "polynomial": [68, 0, 28, 0, 1], "designated_roots": [1, 2]})
    code += (f"\nassert main(['polarize', '--input', {symbolic!r}]) == 0"
             f"\nassert main(['polarize', '--input', {field!r}]) == 0")
    assert _loaded_after(code) == "[]"


# Refuses every import of the named top-level packages, as an environment
# without them would
_BLOCKER = """import sys
class _Absent:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in {names!r}:
            raise ModuleNotFoundError(f"No module named {{name!r}}")
sys.meta_path.insert(0, _Absent())
"""


def _cli_run(argv, blocked=()):
    """(exit status, stdout) of `rigidtori.cli.main(argv)` in a fresh
    interpreter that imports none of the packages in `blocked`."""
    out = _run_fresh(_BLOCKER.format(names=set(blocked)) + (
        f"from rigidtori.cli import main\nsys.exit(main({argv!r}))"),
        check=False)
    return out.returncode, out.stdout


@pytest.mark.parametrize("command, doc", [
    ("analyze", {"builtin": "Q8"}),
    ("rigidity", SYMBOLIC_DOC),
    ("polarize", SYMBOLIC_DOC),
    ("polarize", GAUSSIAN_DOC),
    ("polarize", {"polynomial": [37, 1, 0, 0, 1], "designated_roots": [1, 2]}),
    ("deform", GAUSSIAN_DOC),
], ids=["analyze", "rigidity", "polarize-symbolic", "polarize-J_matrix",
        "polarize-field", "deform"])
def test_serving_paths_run_without_mpmath(tmp_path, command, doc):
    # mpmath is a test-only dependency (sympy's, and the tests' oracle): a
    # process that cannot import it serves every command alike
    argv = [command, "--input", write(tmp_path, "doc.json", doc)]
    plain = _cli_run(argv)
    assert plain[0] == 0 and plain[1]
    assert _cli_run(argv, blocked=("mpmath",)) == plain


def test_import_loads_only_the_serving_core():
    # each command imports the layers it runs: a cold start compiles the
    # table pipeline and the schemas, nothing else of the package
    import pkgutil

    import rigidtori
    package = ("rigidtori",) + tuple(
        f"rigidtori.{info.name}"
        for info in pkgutil.iter_modules(rigidtori.__path__))
    assert _loaded_after("import sys, rigidtori.cli", package) == str([
        f"rigidtori{suffix}" for suffix in (
            "", ".characters", ".cli", ".cyclotomic", ".errors", ".groups",
            ".schemas")])


def test_cold_start_imports_neither_dataclasses_nor_inspect(tmp_path):
    # the package's records are plain classes: `dataclasses` costs a cold
    # start its import (with inspect, ast, dis and tokenize) and a code
    # generator run per record
    group = write(tmp_path, "s4.json", {
        "name": "S4", "permutation_generators": [[1, 2, 3, 0], [1, 0, 2, 3]]})
    code = ("import sys\n"
            "from rigidtori.cli import main\n"
            f"assert main(['analyze', '--input', {group!r}]) == 0")
    assert _loaded_after(code, ("dataclasses", "inspect")) == "[]"


def test_no_module_of_the_package_imports_dataclasses():
    import pkgutil

    import rigidtori
    code = "import importlib, sys\n" + "".join(
        f"importlib.import_module('rigidtori.{info.name}')\n"
        for info in pkgutil.iter_modules(rigidtori.__path__))
    assert _loaded_after(code, ("dataclasses",)) == "[]"


def test_analyze_leaves_the_other_layers_unloaded(tmp_path):
    group = write(tmp_path, "s4.json", {
        "name": "S4", "permutation_generators": [[1, 2, 3, 0], [1, 0, 2, 3]]})
    builtin = write(tmp_path, "s3.json", {"builtin": "S3"})
    run = ("import sys\n"
           "from rigidtori.cli import main\n"
           "assert main(['analyze', '--input', {!r}]) == 0")
    assert _loaded_after(run.format(group), DEFERRED_MODULES) == "[]"
    # a builtin group is looked up in the fixtures, which then build no
    # representation
    assert _loaded_after(run.format(builtin), DEFERRED_MODULES) == str(
        ["rigidtori.fixtures"])


def test_declared_errors_subclass_domain_error():
    # the front end catches DomainError alone; each declared error keeps
    # the base it had, and the input and internal errors are not domain
    # errors
    from rigidtori import cli, deform, groups, hodge, polarize, polyfields
    from rigidtori.characters import TableComputationError
    from rigidtori.cyclotomic import ConductorMismatch
    from rigidtori.errors import DomainError
    from rigidtori.schemas import SchemaError
    declared = {
        polarize.NotRigid: ValueError, polarize.NotCMField: ValueError,
        polarize.RelationIFails: polarize._RelationError,
        polarize.NotPositiveDefinite: polarize._RelationError,
        polarize.RosatiFails: polarize._RelationError,
        deform.NoConvergence: RuntimeError,
        deform.BudgetExhausted: RuntimeError,
        hodge.HSViolation: ValueError, hodge.InconsistentCharacter: ValueError,
        hodge.RoundingFailure: ValueError,
        hodge.InvalidRepresentation: ValueError,
        groups.InvalidGroup: ValueError,
        polyfields.RealEmbeddingPresent: ValueError,
        polyfields.ReduciblePolynomial: ValueError,
        polyfields.PrecisionCapReached: ArithmeticError,
    }
    assert cli.DOMAIN_ERRORS == (DomainError,)
    for cls, base in declared.items():
        assert issubclass(cls, DomainError) and issubclass(cls, base), cls
        assert cls.__bases__[0] is DomainError, cls
    for cls in (SchemaError, TableComputationError, ConductorMismatch):
        assert not issubclass(cls, DomainError), cls


def test_numeric_rigidity_decomposes_chi10_once(tmp_path, monkeypatch):
    # one proposal per request, accepted exactly: the exact inner
    # products never run
    from rigidtori.characters import CharacterTable
    calls = []
    propose = CharacterTable.rounded_decomposition

    def counting(self, values):
        calls.append(values)
        return propose(self, values)

    def refuse(self, values):
        raise AssertionError("exact decomposition of an accepted proposal")

    monkeypatch.setattr(CharacterTable, "rounded_decomposition", counting)
    monkeypatch.setattr(CharacterTable, "decompose", refuse)
    inp = write(tmp_path, "gauss.json", GAUSSIAN_DOC)
    assert main(["rigidity", "--input", inp]) == 0
    assert len(calls) == 1


_R3 = 3 ** 0.5
EISENSTEIN_DOC = {
    "group": {"name": "Z3", "permutation_generators": [[1, 2, 0]]},
    "rank": 2,
    "generator_matrices": [[[0, -1], [1, -1]]],
    "J_matrix": [[1 / _R3, -_R3 / 2 - 1 / (2 * _R3)], [2 / _R3, -1 / _R3]],
}


def test_rigidity_keeps_a_table_computed_twice(tmp_path, monkeypatch):
    # Z3, Z4, Z3, Z4, Z3, Z4: each table is computed on its first two
    # requests, and kept from the second on
    from rigidtori import characters
    built = []
    init = characters.CharacterTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(characters.CharacterTable, "__init__", counting_init)
    docs = [write(tmp_path, "z3.json", EISENSTEIN_DOC),
            write(tmp_path, "z4.json", GAUSSIAN_DOC)]
    for _ in range(3):
        for inp in docs:
            assert main(["rigidity", "--input", inp]) == 0
    assert len(built) == 4


@pytest.mark.parametrize("doc", [GAUSSIAN_DOC, SYMBOLIC_DOC],
                         ids=["J_matrix", "symbolic_spec"])
def test_restricted_action_runs_once_per_generator(tmp_path, monkeypatch,
                                                    doc):
    from rigidtori.hodge import ExactHodgeStructure
    calls = {}
    restricted_action = ExactHodgeStructure.restricted_action

    def counting(self, g):
        calls.setdefault(self, []).append(g)
        return restricted_action(self, g)

    from rigidtori import cli
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)  # a fresh document
    monkeypatch.setattr(ExactHodgeStructure, "restricted_action", counting)
    inp = write(tmp_path, "rep.json", doc)
    assert main(["rigidity", "--input", inp]) == 0
    assert len(calls) == 1
    for structure, gens in calls.items():
        assert gens == structure.rep.generator_indices()


def test_polarize_builds_a_symbolic_structure_once(tmp_path, monkeypatch):
    # one structure and one F-module frame per request: the isotypic split
    # and the F-module basis of the one active summand are computed once,
    # on a symbolic document and on a J_matrix one
    from rigidtori import cli, hodge, polarize
    calls = {}

    def counting(name):
        fn = getattr(hodge, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return counted

    for name in ("exact_structure_from_spec", "isotypic_split",
                 "f_module_basis"):
        wrapper = counting(name)
        for module in (cli, hodge, polarize):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    for doc in (SYMBOLIC_DOC, GAUSSIAN_DOC):
        calls.clear()
        monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)  # a fresh document
        inp = write(tmp_path, "doc.json", doc)
        assert main(["polarize", "--input", inp]) == 0
        assert calls == {"exact_structure_from_spec": 1, "isotypic_split": 1,
                         "f_module_basis": 1}


# Z4 wr S2 on E_i^2 (order 32): i on the first coordinate, and the swap
E_I_SQUARED_DOC = {
    "group": {"name": "Z4wrS2", "permutation_generators": [
        [1, 2, 3, 0, 4, 5, 6, 7], [4, 5, 6, 7, 0, 1, 2, 3]]},
    "rank": 4,
    "generator_matrices": [
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]],
    "J_matrix": [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                 [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]],
}


def test_rigidity_and_polarize_compute_group_facts_once(tmp_path,
                                                        monkeypatch):
    # one rigidity + polarize request on one document: one class
    # computation and one generating set for its group
    from functools import cached_property

    from rigidtori import cli
    from rigidtori.groups import FiniteGroup
    calls = {"classes": 0, "generators": 0}
    class_data = FiniteGroup._class_data
    generators = FiniteGroup.__dict__["generators"].func

    def counted_classes(self):
        calls["classes"] += 1
        return class_data(self)

    def counted_generators(self):
        calls["generators"] += 1
        return generators(self)

    prop = cached_property(counted_generators)
    prop.__set_name__(FiniteGroup, "generators")
    monkeypatch.setattr(FiniteGroup, "_class_data", counted_classes)
    monkeypatch.setattr(FiniteGroup, "generators", prop)
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)  # a fresh document
    inp = write(tmp_path, "eii.json", E_I_SQUARED_DOC)
    out = tmp_path / "pol.json"
    assert main(["rigidity", "--input", inp]) == 0
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 0
    assert calls == {"classes": 1, "generators": 1}
    cert = json.loads(out.read_text())["result"]["certificate"]
    assert cert["g_invariant"]["invariant"] is True


def test_polarize_symbolic_structure_error_wins_over_not_rigid(tmp_path):
    # two copies of the Gaussian action with tau = (1, 1): Hodge symmetry
    # holds but the type is not one-sided, so the action is not rigid and
    # no exact structure exists; the structure's error is reported
    doc = {
        "group": {"name": "Z4", "permutation_generators": [[1, 2, 3, 0]]},
        "rank": 4,
        "generator_matrices": [[[0, -1, 0, 0], [1, 0, 0, 0],
                                [0, 0, 0, -1], [0, 0, 1, 0]]],
        "symbolic_spec": {
            "multiplicities": [2, 0, 0],
            "tau": {"0": {"1": 1, "3": 1}},
        },
    }
    inp = write(tmp_path, "two.json", doc)
    out = tmp_path / "err.json"
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 1
    assert json.loads(out.read_text())["error"]["error"] == "HSViolation"


def test_polarize_loads_neither_numpy_nor_scipy(tmp_path):
    # the square-solve witness needs no LP: a symbolic document certifies
    # in exact arithmetic and integer rectangles (its embeddings go through
    # polyfields' box Horner), and a standalone field adds no computer
    # algebra system: its factoring, Sturm counts and root order are exact
    # integer code
    symbolic = write(tmp_path, "sym.json", SYMBOLIC_DOC)
    field = write(tmp_path, "field.json", {
        "polynomial": [68, 0, 28, 0, 1], "designated_roots": [1, 2]})
    run = "import sys\nfrom rigidtori.cli import main\n"
    loaded = _loaded_after(
        run + f"assert main(['polarize', '--input', {symbolic!r}]) == 0")
    assert ("numpy" not in loaded and "scipy" not in loaded
            and "sympy" not in loaded)
    loaded = _loaded_after(
        run + f"assert main(['polarize', '--input', {field!r}]) == 0")
    assert "sympy" not in loaded and "scipy" not in loaded


# One polarize document of each standalone-field family of the benchmark:
# Phi_m, x^6 + c, x^2 + d, x^4 + a x^2 + b and x^4 + x + c, one designated
# root per conjugate pair (pairs are (2k, 2k + 1)).
FIELD_FAMILY_DOCS = [
    {"polynomial": [1, 1, 1, 1, 1, 1, 1], "designated_roots": [0, 3, 4]},
    {"polynomial": [143, 0, 0, 0, 0, 0, 1], "designated_roots": [1, 2, 5]},
    {"polynomial": [598, 0, 1], "designated_roots": [1]},
    {"polynomial": [5, 0, 5, 0, 1], "designated_roots": [0, 3]},
    {"polynomial": [37, 1, 0, 0, 1], "designated_roots": [1, 2]},
]


def test_field_families_leave_sympy_unloaded(tmp_path):
    # serving every benchmark field family in one process loads no sympy
    paths = [write(tmp_path, f"field{k}.json", doc)
             for k, doc in enumerate(FIELD_FAMILY_DOCS)]
    code = "import sys\nfrom rigidtori.cli import main\n" + "".join(
        f"assert main(['polarize', '--input', {path!r}]) == 0\n"
        for path in paths)
    assert "sympy" not in _loaded_after(code)


def test_polarize_refuses_a_wide_theta_within_seconds(tmp_path,
                                                      monkeypatch):
    # x^16 + 2^127 - 1 spent 89 s isolating its roots before its theta,
    # of degree 64 > THETA_DEGREE_CAP, was refused: the degree patterns of
    # theta's candidates now refuse it before the tower is built
    import time

    from rigidtori.polyfields import PolynomialField

    def tower(self, g):
        raise AssertionError("_p_modulus ran on a refused theta")

    monkeypatch.setattr(PolynomialField, "_p_modulus", tower)
    inp = write(tmp_path, "wide.json", {
        "polynomial": [2 ** 127 - 1] + [0] * 15 + [1],
        "designated_roots": list(range(0, 16, 2))})
    out = tmp_path / "err.json"
    start = time.perf_counter()
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 1
    assert time.perf_counter() - start < 30
    error = json.loads(out.read_text())["error"]
    assert error["error"] == "ReduciblePolynomial"
    assert "theta" in error["message"]


def test_uncertified_roots_are_a_domain_error(tmp_path, monkeypatch):
    # a root certificate still failing when its guard bits reach the cap
    # (here: Newton steps that leave each root a quarter off) ends in the
    # declared PrecisionCapReached (exit 1), not in an internal error
    # (exit 3)
    from rigidtori import polyfields

    monkeypatch.setattr(polyfields, "_polish", lambda coeffs, approx, bits: [
        (a + (1 << (w - 2)), b, w) for a, b, w in approx])
    inp = write(tmp_path, "field.json", {"polynomial": [1, 0, 1],
                                         "designated_roots": [0]})
    out = tmp_path / "err.json"
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 1
    error = json.loads(out.read_text())["error"]
    assert error["error"] == "PrecisionCapReached"
    assert "internal" not in error


def test_a_failed_root_certificate_doubles_the_guard_bits(monkeypatch):
    # a first polish that leaves each root a quarter off fails its
    # certificate; the second, from there with twice the guard bits,
    # certifies the same roots in the same order
    from rigidtori import polyfields

    coeffs = (37, 1, 0, 0, 1)
    clean = polyfields.PolynomialField(coeffs)
    expected = [clean.root_box(i) for i in range(4)]
    polish, asked = polyfields._polish, []

    def corrupt_first(coeffs, approx, bits):
        asked.append(bits)
        z = polish(coeffs, approx, bits)
        if len(asked) > 1:
            return z
        return [(a + (1 << (w - 2)), b, w) for a, b, w in z]

    monkeypatch.setattr(polyfields, "_polish", corrupt_first)
    field = polyfields.PolynomialField(coeffs)
    boxes = [field.root_box(i) for i in range(4)]
    guard = polyfields._GUARD_BITS
    assert asked[:2] == [64 + guard, 64 + 2 * guard]
    for (re, im, rad), (re0, im0, rad0) in zip(boxes, expected):
        assert rad == rad0
        assert abs(re - re0) <= 2 * rad and abs(im - im0) <= 2 * rad


def test_internal_error_exits_3_with_a_payload(tmp_path, monkeypatch,
                                               capsys):
    from rigidtori import cli

    def broken(doc, args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "run_analyze", broken)
    inp = write(tmp_path, "s3.json", {"builtin": "S3"})
    out = tmp_path / "err.json"
    assert main(["analyze", "--input", inp, "--output", str(out)]) == 3
    error = json.loads(out.read_text())["error"]
    assert error == {"error": "KeyError", "message": "'missing'",
                     "internal": True}
    assert "internal error: KeyError" in capsys.readouterr().err


def test_polarize_refuses_wide_coefficients_before_sympy(tmp_path):
    # x^2 + 3*10^160 has a 532-bit coefficient, over the admission limit
    field = write(tmp_path, "wide.json", {
        "polynomial": [3 * 10 ** 160, 0, 1], "designated_roots": [0]})
    out = tmp_path / "err.json"
    loaded = _loaded_after(
        "import sys\nfrom rigidtori.cli import main\n"
        f"assert main(['polarize', '--input', {field!r}, "
        f"'--output', {str(out)!r}]) == 1")
    assert "sympy" not in loaded
    error = json.loads(out.read_text())["error"]
    assert error["error"] == "ReduciblePolynomial"
    assert "at most 128 bits" in error["message"]


def test_analyze_solves_no_subfield_coordinates(monkeypatch):
    # the centre fields of an analyze report are read off the Galois
    # orbits; no class component is computed for them
    from argparse import Namespace

    from rigidtori import cli
    from rigidtori.cyclotomic import SubfieldSpec

    calls = []
    coordinates = SubfieldSpec.coordinates

    def counted(self, x):
        calls.append(x)
        return coordinates(self, x)

    monkeypatch.setattr(SubfieldSpec, "coordinates", counted)
    report = cli.run_analyze({"builtin": "S4"}, Namespace())
    assert calls == []
    orbits = report["result"]["galois_orbits"]
    assert report["result"]["centre_fields"] == [
        {"orbit": j, "degree": o["field"]["degree"],
         "classification": o["classification"]}
        for j, o in enumerate(orbits)]


@pytest.mark.parametrize("output, per_value", [(False, 1), (True, 2)],
                         ids=["stdout", "output"])
def test_analyze_renders_each_table_value_once(tmp_path, monkeypatch, output,
                                               per_value):
    # the table of Z2 x Z4 repeats each of its values 1, -1, i, -i; the
    # summary renders each distinct value once, the --output text once more
    from collections import Counter

    from rigidtori.cyclotomic import CyclotomicNumber

    doc = {"name": "Z2xZ4",
           "permutation_generators": [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]}
    calls = Counter()
    as_string = CyclotomicNumber.as_string

    def counted(self):
        calls[self.field.m, self.num, self.den] += 1
        return as_string(self)

    monkeypatch.setattr(CyclotomicNumber, "as_string", counted)
    argv = ["analyze", "--input", write(tmp_path, "z2z4.json", doc)]
    if output:
        argv += ["--output", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert len(calls) == 4
    assert max(calls.values()) == per_value


BUNDLED_NAMES = [g.name for g in small_groups()] + ["S4"]


def _fresh_analyze_report(forget_tables, name):
    from argparse import Namespace

    from rigidtori import cli
    from rigidtori.schemas import dump_report

    forget_tables()  # a fresh table
    return dump_report(cli.run_analyze({"builtin": name}, Namespace()))


def test_analyze_builds_no_subfield_basis(monkeypatch, fresh_tables):
    # an analyze report names each character field by its conductor, fixing
    # subgroup and degree; the field's Q-basis is never read
    from rigidtori.cyclotomic import SubfieldSpec

    def refuse(self):
        raise AssertionError("a subfield basis was built")

    for name in ("Z5", "Q8", "Dic3", "S4"):
        want = _fresh_analyze_report(fresh_tables, name)
        with monkeypatch.context() as patched:
            patched.setattr(SubfieldSpec, "_orbit_sum_basis", refuse)
            assert _fresh_analyze_report(fresh_tables, name) == want


def test_analyze_runs_without_cyclotomic_products_or_elimination(
        monkeypatch, fresh_tables):
    # tables, Galois orbits, idempotents and the report are computed on
    # integers: no cyclotomic product and no rational elimination
    from rigidtori import linalg
    from rigidtori.cyclotomic import CyclotomicNumber

    def refuse(*args):
        raise AssertionError("cyclotomic product or rref on the analyze path")

    monkeypatch.setattr(CyclotomicNumber, "__mul__", refuse)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", refuse)
    monkeypatch.setattr(linalg, "rref", refuse)
    for name in BUNDLED_NAMES:
        report = json.loads(_fresh_analyze_report(fresh_tables, name))
        assert report["result"]["classes"]["count"] == \
            len(report["result"]["character_table"])


Z4_J_DOC = {
    "group": {"name": "Z4", "permutation_generators": [[1, 2, 3, 0]]},
    "rank": 2,
    "generator_matrices": [[[0, -1], [1, 0]]],
}


@pytest.mark.parametrize("j_matrix", [
    [[0.0, "x"], [1.0, 0.0]],
    [[0.0, float("nan")], [1.0, 0.0]],
    [[0.0, float("inf")], [1.0, 0.0]],
    [[0.0, -1.0], 5],
    [[0.0, True], [1.0, 0.0]],
    [[0, -10 ** 400], [1, 0]],
], ids=["string", "nan", "inf", "int-row", "bool", "huge-int"])
@pytest.mark.parametrize("command", ["rigidity", "deform", "polarize"])
def test_j_matrix_entries_are_validated(tmp_path, command, j_matrix):
    inp = write(tmp_path, "j.json", dict(Z4_J_DOC, J_matrix=j_matrix))
    assert main([command, "--input", inp]) == 2


@pytest.mark.parametrize("doc", [
    {"polynomial": [1.5, 0, 1], "designated_roots": [0]},
    {"polynomial": ["a", 0, 1], "designated_roots": [0]},
    {"polynomial": [True, 0, 1], "designated_roots": [0]},
    {"polynomial": 1, "designated_roots": [0]},
    {"polynomial": [1, 0, 1], "designated_roots": 0},
    {"polynomial": [1, 0, 1], "designated_roots": [5]},
    {"polynomial": [1, 0, 1], "designated_roots": ["0"]},
    {"polynomial": [1, 0, 1], "designated_roots": [True]},
    {"polynomial": [1, 0, 1], "designated_roots": [0, 1]},
    {"polynomial": [1, 0, 1], "designated_roots": []},
    {"polynomial": [1, 0, 1], "designated_roots": [-1]},
    {"polynomial": [1, 0, 1], "designated_roots": [0, 2]},
], ids=["float-coefficient", "string-coefficient", "bool-coefficient",
        "scalar-polynomial", "scalar-roots", "root-out-of-range",
        "string-root", "bool-root", "both-roots-of-a-pair", "no-root",
        "negative-root", "extra-root-out-of-range"])
def test_polynomial_documents_are_validated(tmp_path, doc):
    inp = write(tmp_path, "field.json", doc)
    assert main(["polarize", "--input", inp]) == 2


Z4_TABLE_DOC = {
    "group": {"name": "Z4", "cayley_table": [[(i + j) % 4 for j in range(4)]
                                            for i in range(4)]},
    "rank": 2,
    "generator_matrices": [[[0, -1], [1, 0]]],
    "symbolic_spec": SYMBOLIC_DOC["symbolic_spec"],
}


def _with_spec(**spec):
    return dict(SYMBOLIC_DOC, symbolic_spec=dict(SYMBOLIC_DOC["symbolic_spec"],
                                                 **spec))


@pytest.mark.parametrize("doc", [
    _with_spec(tau={"0": {"1": 1.5, "3": 0}}),
    _with_spec(tau={"0": {"1": "1", "3": 0}}),
    _with_spec(tau={"0": {"1": True, "3": 0}}),
    _with_spec(tau={"0": {"1": 2, "3": -1}}),
    _with_spec(tau={"0": {"1": 1, "3": 0}, "7": {}}),
    _with_spec(tau=[{"1": 1, "3": 0}]),
    _with_spec(tau={"0": "13"}),
    _with_spec(multiplicities=[1.7, 0, 0]),
    _with_spec(multiplicities=[True, 0, 0]),
    _with_spec(multiplicities=[-1, 0, 0]),
    _with_spec(multiplicities=1),
    dict(SYMBOLIC_DOC, generator_matrices=[[[0, -1.0], [1, 0]]]),
    dict(SYMBOLIC_DOC, generator_matrices=[[[0, -1], [True, 0]]]),
    {"group": {"name": "Z1", "cayley_table": [[0]]}, "rank": 2,
     "element_matrices": [[[1.7, 0], [0, 1]]],
     "J_matrix": [[0.0, -1.0], [1.0, 0.0]]},
    # generators and matrices that differ in number: the extras were
    # dropped, and each document was answered
    dict(Z4_TABLE_DOC, generator_elements=[1, 3]),
    dict(Z4_TABLE_DOC, generator_elements=[1], generator_matrices=[
        [[0, -1], [1, 0]], [[5, 7], [1, 1]]]),
    dict(SYMBOLIC_DOC, group={"name": "Z4", "permutation_generators": [
        [1, 2, 3, 0], [3, 0, 1, 2]]}),
], ids=["float-tau", "string-tau", "bool-tau", "negative-tau",
        "unknown-orbit", "list-tau", "string-orbit-tau", "float-multiplicity",
        "bool-multiplicity", "negative-multiplicity", "scalar-multiplicities",
        "float-generator-entry", "bool-generator-entry",
        "float-element-entry", "extra-generator-element",
        "extra-generator-matrix", "extra-permutation-generator"])
@pytest.mark.parametrize("command", ["rigidity", "polarize"])
def test_representation_documents_are_validated(tmp_path, capsys, command,
                                                doc):
    inp = write(tmp_path, "doc.json", doc)
    assert main([command, "--input", inp]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("matrices, message", [
    ([[[0, -1], [1]]], "generator matrix 0 is not 2 x 2: its rows have "
                       "lengths [2, 1]"),
    ([[[0, -1], [1, 0]], [[1]]], "generator matrix 1 is not 2 x 2: its "
                                 "rows have lengths [1]"),
], ids=["ragged", "mixed-sizes"])
def test_generator_matrix_shapes_are_named(tmp_path, capsys, matrices,
                                           message):
    # a ragged or mixed-size generator_matrices document is refused with
    # the shape it has, not with an indexing error
    inp = write(tmp_path, "doc.json",
                dict(GAUSSIAN_DOC, generator_matrices=matrices,
                     generator_elements=[1] * len(matrices)))
    assert main(["rigidity", "--input", inp]) == 2
    assert capsys.readouterr().err == \
        f"input error: invalid representation: {message}\n"


def test_empty_generator_matrix_is_refused_by_its_rank(tmp_path, capsys):
    # a 0 x 0 generator passes the shape check and expands to rank 0
    inp = write(tmp_path, "doc.json",
                dict(GAUSSIAN_DOC, generator_matrices=[[]],
                     generator_elements=[1]))
    assert main(["rigidity", "--input", inp]) == 2
    assert capsys.readouterr().err == \
        "input error: declared rank 2 but matrices have rank 0\n"


@pytest.mark.parametrize("module, cap, doc, site", [
    # CyclotomicNumber.sign_imag (from 64 bits): the zeta of a rigid action
    # (W, the proposal for zeta, is taken at `cap` bits; see below)
    ("cyclotomic", 32, GAUSSIAN_DOC, "sign of a nonzero value"),
    # PolynomialField._certified_discs, whose polish's guard bits start
    # above the cap (see below), so the first root box is out of reach
    ("polyfields", 64, {"polynomial": [1, 0, 1], "designated_roots": [0]},
     "could not certify the roots"),
    # PolynomialField._identify_factor, which starts at 64 bits
    ("polyfields", 32, {"polynomial": [1, 1, 1, 1, 1],
                        "designated_roots": [0, 2]},
     "minimal polynomial of theta"),
])
def test_precision_cap_is_a_domain_error(tmp_path, monkeypatch, module, cap,
                                         doc, site):
    # a certified evaluation in `module` still undecided at the cap ends in
    # the declared PrecisionCapReached (exit 1), not in an internal error
    # (exit 3).  Every ladder climbs to the one cap in polyfields, and below
    # 64 bits find_zeta's ladder for W would end before zeta's signs are
    # asked, so for the cyclotomic row W starts at the cap instead.
    from rigidtori import polarize, polyfields
    monkeypatch.setattr(polyfields, "PRECISION_BITS_CAP", cap)
    if module == "cyclotomic":
        monkeypatch.setattr(polarize, "_precisions",
                            lambda start=64: polyfields._precisions(cap))
    if site == "could not certify the roots":
        monkeypatch.setattr(polyfields, "_GUARD_BITS", 2 * cap)
    inp = write(tmp_path, "doc.json", doc)
    out = tmp_path / "err.json"
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 1
    error = json.loads(out.read_text())["error"]
    assert error["error"] == "PrecisionCapReached"
    assert site in error["message"]
    assert "internal" not in error


# -- one resolution per document ---------------------------------------------

# Z2 acting by -1: every complex structure is invariant, so it is not rigid
NON_RIGID_DOC = {
    "group": {"name": "Z2", "permutation_generators": [[1, 0]]},
    "rank": 2,
    "generator_matrices": [[[-1, 0], [0, -1]]],
    "J_matrix": [[0.0, -1.0], [1.0, 0.0]],
}


def _args(*argv):
    return build_parser().parse_args(list(argv))


def _fresh(doc):
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("doc", [GAUSSIAN_DOC, SYMBOLIC_DOC],
                         ids=["J_matrix", "symbolic_spec"])
def test_rigidity_then_polarize_build_one_exact_structure(monkeypatch, doc):
    # one action request, served as the runners serve it: polarize reuses
    # the exact structure that rigidity built
    from rigidtori import cli, hodge, polarize
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)
    built = []
    build = hodge.exact_structure_from_spec

    def counting(*args):
        built.append(args)
        return build(*args)

    for module in (hodge, polarize):
        monkeypatch.setattr(module, "exact_structure_from_spec", counting)
    doc = _fresh(doc)
    assert cli.run_rigidity(doc, _args("rigidity"))["result"]["is_rigid"]
    cli.run_polarize(doc, _args("polarize"))
    assert len(built) == 1


def test_rigidity_then_polarize_validate_the_spec_once(monkeypatch):
    # a spec is valid by construction: loading the symbolic_spec document
    # checks Hodge symmetry, and no pathway checks it again
    from rigidtori import cli
    from rigidtori.hodge import SymbolicHodgeSpec
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)
    validated = []
    validate = SymbolicHodgeSpec.validate_hs

    def counting(self):
        validated.append(self)
        return validate(self)

    monkeypatch.setattr(SymbolicHodgeSpec, "validate_hs", counting)
    doc = _fresh(SYMBOLIC_DOC)
    assert cli.run_rigidity(doc, _args("rigidity"))["result"]["is_rigid"]
    cli.run_polarize(doc, _args("polarize"))
    assert len(validated) == 1


def _count_representations(monkeypatch):
    """Every IntegralRepresentation built, by its constructor or by the
    closure of `from_generators`, which stores its products as they are."""
    from rigidtori.hodge import IntegralRepresentation
    built = []
    init = IntegralRepresentation.__init__
    of_int_tuples = IntegralRepresentation._of_int_tuples

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_closure(cls, *args):
        built.append(of_int_tuples(*args))
        return built[-1]

    monkeypatch.setattr(IntegralRepresentation, "__init__", counting)
    monkeypatch.setattr(IntegralRepresentation, "_of_int_tuples",
                        classmethod(counting_closure))
    return built


def test_rigidity_then_deform_build_one_representation(monkeypatch):
    from rigidtori import cli
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)
    built = _count_representations(monkeypatch)
    doc = _fresh(NON_RIGID_DOC)
    assert not cli.run_rigidity(doc, _args("rigidity"))["result"]["is_rigid"]
    cli.run_deform(doc, _args("deform", "--epsilon", "10"))
    assert len(built) == 1


def test_resolution_memo_misses_on_other_content(monkeypatch):
    # the memo compares documents by a snapshot of their content: -0.0 is
    # not 0.0, 1 is not 1.0, and a document mutated after a call misses
    from rigidtori import cli
    from rigidtori.schemas import SchemaError
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)
    built = _count_representations(monkeypatch)
    args = _args("rigidity")
    doc = _fresh(GAUSSIAN_DOC)
    first = cli.run_rigidity(doc, args)
    assert cli.run_rigidity(_fresh(GAUSSIAN_DOC), args) == first
    assert len(built) == 1
    negative_zero = _fresh(GAUSSIAN_DOC)
    negative_zero["J_matrix"][0][0] = -0.0
    assert cli.run_rigidity(negative_zero, args) == first
    assert len(built) == 2
    integral = _fresh(GAUSSIAN_DOC)
    integral["J_matrix"] = [[0, -1], [1, 0]]
    assert cli.run_rigidity(integral, args) == first
    assert len(built) == 3
    float_entry = _fresh(GAUSSIAN_DOC)
    float_entry["generator_matrices"][0][1][0] = 1.0
    with pytest.raises(SchemaError):
        cli.run_rigidity(float_entry, args)
    # J -> -J in place: the conjugate complex structure
    doc["J_matrix"][0][1], doc["J_matrix"][1][0] = 1.0, -1.0
    mutated = cli.run_rigidity(doc, args)
    assert len(built) == 4
    assert mutated != first
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)
    assert cli.run_rigidity(_fresh(doc), args) == mutated


@pytest.mark.parametrize("key", ["J_matrix", "symbolic_spec"])
def test_resolution_memo_keeps_its_own_inputs(monkeypatch, key):
    # a caller that mutates its document after a call cannot change what
    # the memo answers for a document equal to the one it was given
    from rigidtori import cli
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)
    doc = _fresh(GAUSSIAN_DOC if key == "J_matrix" else SYMBOLIC_DOC)
    original = _fresh(doc)
    cli.run_enumerate(doc, _args("enumerate-rigid"))
    if key == "J_matrix":
        doc["J_matrix"][0][1], doc["J_matrix"][1][0] = 1.0, -1.0
    else:
        doc["symbolic_spec"]["tau"]["0"].update({"1": 0, "3": 1})
    served = cli.run_rigidity(_fresh(original), _args("rigidity"))
    monkeypatch.setattr(cli, "_LAST_RESOLUTION", None)
    assert served == cli.run_rigidity(original, _args("rigidity"))


# rho(g) conjugated by [[1, 10^200], [0, 1]]: entries near 10^400, beyond
# the float range, with the Gaussian J
_BIG = 10 ** 200
OVERFLOWING_DOC = {
    "group": {"name": "Z4", "permutation_generators": [[1, 2, 3, 0]]},
    "rank": 2,
    "generator_matrices": [[[_BIG, -1 - _BIG * _BIG], [1, -_BIG]]],
    "J_matrix": [[0, -1], [1, 0]],
}


@pytest.mark.parametrize("command, error", [
    ("rigidity", "RoundingFailure"), ("polarize", "RoundingFailure"),
    ("deform", "NoConvergence")])
def test_rho_beyond_the_float_range_is_a_domain_error(tmp_path, command,
                                                      error):
    inp = write(tmp_path, "big.json", OVERFLOWING_DOC)
    out = tmp_path / "err.json"
    assert main([command, "--input", inp, "--output", str(out)]) == 1
    payload = json.loads(out.read_text())["error"]
    assert payload["error"] == error
    assert "internal" not in payload


def _conjugated_symbolic_doc(c):
    """SYMBOLIC_DOC with its generator conjugated by [[1, c], [0, 1]]: the
    same rigid Gaussian type, on a lattice basis with entries near c^2."""
    doc = _fresh(SYMBOLIC_DOC)
    doc["generator_matrices"] = [[[c, -1 - c * c], [1, -c]]]
    return doc


@pytest.mark.parametrize("c, site", [
    (1000, "come out real"), (10**150, "singular in floats"),
    (10**400, "beyond the float range")],
    ids=["ill-conditioned", "singular", "beyond-float-range"])
def test_deform_symbolic_j_out_of_float_reach_is_a_domain_error(tmp_path, c,
                                                                site):
    # rigidity answers exactly; the float J that deform starts from cannot
    # be formed, which is the declared RoundingFailure (exit 1)
    inp = write(tmp_path, "conj.json", _conjugated_symbolic_doc(c))
    out = tmp_path / "out.json"
    assert main(["rigidity", "--input", inp, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["is_rigid"]
    assert main(["deform", "--input", inp, "--output", str(out)]) == 1
    payload = json.loads(out.read_text())["error"]
    assert payload["error"] == "RoundingFailure"
    assert site in payload["message"]
    assert "internal" not in payload


@pytest.mark.parametrize("doc, cap, site", [
    (GAUSSIAN_DOC, 32, "no certified zeta"),
    ({"polynomial": [1, 0, 1], "designated_roots": [0]}, 4096,
     "no certified witness")])
def test_precision_event_is_not_a_field_property(tmp_path, monkeypatch, doc,
                                                  cap, site):
    # the zeta and witness searches end in PrecisionCapReached at the cap of
    # polyfields, read when they end: the field is known to be CM by then,
    # and NotCMField stays for a zero imaginary subspace.  At a 32-bit cap
    # the searches' ladder is empty; for the field it is emptied alone, so
    # that its root boxes and theta's factor are still certified.
    from rigidtori import polarize, polyfields
    if cap == 32:
        monkeypatch.setattr(polyfields, "PRECISION_BITS_CAP", cap)
    else:
        monkeypatch.setattr(polarize, "_precisions", lambda start=64: iter(()))
    inp = write(tmp_path, "doc.json", doc)
    out = tmp_path / "err.json"
    assert main(["polarize", "--input", inp, "--output", str(out)]) == 1
    error = json.loads(out.read_text())["error"]
    assert error["error"] == "PrecisionCapReached"
    assert site in error["message"] and f"at {cap} bits" in error["message"]
