"""``config`` is the one home of a configured value's refusal.

``cli`` raises ``ConfigError`` in ``_echo`` alone, for an output directory
it cannot make; every other refusal is made by ``config``, at parse or in a
builder.  ``cli`` reads no ``_``-prefixed name of another nsflab module, so
no check of a value can be rebuilt there from another module's parts.
"""

import ast
import pathlib

CLI = pathlib.Path(__file__).resolve().parents[1] / "src" / "nsflab" / "cli.py"


def _offences(tree: ast.Module):
    """(line, what) of each raise of ConfigError outside ``_echo`` and of
    each read of a private name of an imported nsflab module."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Raise) and node.exc is not None
                    and "ConfigError" in ast.unparse(node.exc)
                    and getattr(top, "name", None) != "_echo"):
                yield node.lineno, f"raises ConfigError in {getattr(top, 'name', 'module')}"
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                yield node.lineno, f"reads {node.value.id}.{node.attr}"


def test_cli_refuses_nothing_of_its_own():
    offences = [f"cli.py:{line}: {what}"
                for line, what in _offences(ast.parse(CLI.read_text(encoding="utf-8")))]
    assert offences == []
