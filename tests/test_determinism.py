"""No answer depends on a random draw.  The one `random.Random` in the
package is the Cantor-Zassenhaus splitting in `intpoly`, seeded by its
prime, whose factors do not depend on the draws; the group and character
layers do not import `random` at all."""

import ast
import pathlib

import rigidtori

SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(pathlib.Path(rigidtori.__file__).parent
                              .glob("*.py"))}


def test_the_only_random_generator_is_the_factoring_one():
    constructions = [
        (module, ast.unparse(node))
        for module, tree in SOURCES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("random.Random", "Random")]
    assert constructions == [("intpoly", "random.Random(p)")]


def test_groups_and_characters_do_not_import_random():
    for module in ("groups", "characters"):
        imported = set()
        for node in ast.walk(SOURCES[module]):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "random" not in imported, module
