"""Every exported name resolves: a deleted function cannot leave a stale
export behind, which would break `from rigidtori import *`.  And every
definition in the package serves: its name is used somewhere in the
package, the demos or the benchmark, not only by the tests, and not only
by an `__all__` list."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import rigidtori

EXPORTING = [name for name in ["rigidtori"] + [
    f"rigidtori.{info.name}" for info in pkgutil.iter_modules(rigidtori.__path__)]
    if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_their_home_modules_objects():
    # the package resolves each name on first access from the module that
    # defines it, and `import *` binds every one
    namespace = {}
    exec("from rigidtori import *", namespace)
    for name in rigidtori.__all__:
        value = getattr(rigidtori, name)
        assert namespace[name] is value, name
        if name != "__version__":
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _without_exports(text):
    """The source with its `__all__` assignments removed: an export is not
    a use."""
    lines = text.splitlines(keepends=True)
    for node in reversed(ast.parse(text).body):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            del lines[node.lineno - 1:node.end_lineno]
    return "".join(lines)


def test_every_definition_has_a_caller_outside_the_tests():
    sources = [_without_exports(path.read_text())
               for folder in ("src", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    unused = []
    for path in sorted((ROOT / "src" / "rigidtori").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            # the definition itself is the one occurrence allowed
            if sum(len(word.findall(text)) for text in sources) <= 1:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _hook_names():
    """The method names that perfbench/tracing.py wraps by name: those of
    its METHODS table and the keys of COUNTED."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    names = set(ast.literal_eval(tables["COUNTED"]))
    for classes in ast.literal_eval(tables["METHODS"]).values():
        for methods in classes.values():
            names.update(methods)
    return names


def test_every_method_has_an_attribute_use_outside_the_tests():
    # a method is called as an attribute, so a word anywhere (a local name,
    # a comment, another definition) does not count as a use of it
    used = _hook_names() | {
        node.attr for folder in ("src", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)}
    unused = []
    for path in sorted((ROOT / "src" / "rigidtori").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))
                        and node.name not in used):
                    unused.append(f"{path.name}:{node.lineno} "
                                  f"{cls.name}.{node.name}")
    assert unused == []
