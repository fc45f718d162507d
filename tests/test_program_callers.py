"""Every public function, class and method of nsflab is named outside the tests.

A definition that only a test reaches is kept alive by that test alone, so
both go.  "Named" means a ``Name``, an ``Attribute``, an import alias or a
string constant outside an ``__all__`` list, in ``src/nsflab``, in the
benchmark scripts, or in ``tests/test_acceptance.py``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "nsflab").glob("*.py"))
CALLERS = PROGRAM + sorted((ROOT / "benchmarks").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]

# the one public definition that waits for its caller, and why
KEPT = {"young.mix": "ROADMAP item 7 builds its measure-valued ensemble on it"}


def _public(tree: ast.Module, module: str):
    """(qualified name, name) of each public top-level function and class,
    and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _named(tree: ast.Module):
    exports = set()  # the nodes of every __all__ assignment
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AugAssign) else [])
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            exports.update(id(sub) for sub in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exports):
            yield node.value


def test_every_public_definition_is_named_outside_the_tests():
    named = set()
    for path in CALLERS:
        named.update(_named(ast.parse(path.read_text(encoding="utf-8"))))
    unnamed = sorted(qual for path in PROGRAM
                     for qual, name in _public(ast.parse(path.read_text(encoding="utf-8")),
                                               path.stem)
                     if name not in named)
    assert unnamed == sorted(KEPT)
