"""The introspection surfaces and their documentation agree.

Read through ``ast``, as ``tests/test_no_dead_code.py`` reads the code:

* the ops ``QueryServer._handle_request`` dispatches are the op table in
  docs/SERVER.md;
* the backslash commands ``Shell._handle_command`` handles are the ones
  the ``repro.cli`` module docstring lists, and the ones its
  unknown-command hint offers.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_COMMAND = re.compile(r"\\(\w+)")


def _method(path: Path, cls: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    item.name == name
                ):
                    return item
    raise AssertionError(f"no {cls}.{name} in {path}")


def _compared_with(function: ast.AST, variable: str) -> set[str]:
    """The string constants ``variable`` is compared with by ``==`` or
    ``in (...)`` anywhere in ``function``."""
    found = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Compare):
            continue
        if not (isinstance(node.left, ast.Name) and node.left.id == variable):
            continue
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, ast.Eq) and isinstance(right, ast.Constant):
                found.add(right.value)
            elif isinstance(op, ast.In) and isinstance(right, (ast.Tuple, ast.Set)):
                found.update(e.value for e in right.elts if isinstance(e, ast.Constant))
    return found


def test_server_ops_match_the_documented_table():
    dispatched = _compared_with(
        _method(SRC / "server" / "server.py", "QueryServer", "_handle_request"), "op"
    )
    text = (ROOT / "docs" / "SERVER.md").read_text()
    table = text.split("| op | fields | response payload |", 1)[1]
    documented = set()
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        documented.add(line.split("|")[1].strip().strip("`"))
    assert dispatched == documented
    assert dispatched == {
        "ping", "status", "metrics", "query", "set", "explain",
        "repl.snapshot", "repl.stream", "repl.promote",
    }


def test_shell_commands_match_the_docstring_and_the_hint():
    path = SRC / "cli.py"
    function = _method(path, "Shell", "_handle_command")
    handled = {name.lstrip("\\") for name in _compared_with(function, "name")}
    docstring = ast.get_docstring(ast.parse(path.read_text()))
    listed = set(_COMMAND.findall(docstring))
    [hint] = [
        node.value for node in ast.walk(function)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "(try " in node.value
    ]
    offered = set(_COMMAND.findall(hint))
    assert handled == listed == offered
