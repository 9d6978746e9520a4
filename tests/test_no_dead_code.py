"""No dead code: every function and class defined in ``src/`` is used
somewhere in ``src/``, ``benchmarks/`` or ``examples/``.

A use is what the code does with a name, read through ``ast``: a name
it loads, an attribute it reads, a name it imports, a keyword it passes,
or a string that is exactly an identifier (``getattr``-style dispatch).
Comments, docstrings and prose inside strings name nothing, and a
definition is not a use, so a name defined twice does not vouch for
itself. Dunder methods are exempt (Python calls them), and so is each
name in ``KEPT``, for the reason it gives.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: names no program uses, each kept for one reason
KEPT = {
    "to_chrome": "named in docs/OBSERVABILITY.md",
    "for_trace": "tests read one trace's spans with it",
    "sorted_rows": "tests compare tables as bags with it",
    "was_incremental": "tests read how a write maintained a summary with it",
    "set_summary_table_enabled": "tests take a summary out of matching with it",
    "delete_rows": "tests delete base rows through the write pipeline with it",
    "compile_loop": "the loop differentials compile one box's loop with it",
    "injected": "tests arm a fault point for one block with it",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DUNDER = re.compile(r"__\w+__")


def _uses(node: ast.AST) -> list[str]:
    """The names one node uses (empty for most nodes)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".") + ([node.asname] if node.asname else [])
    if isinstance(node, ast.keyword) and node.arg is not None:
        return [node.arg]
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _IDENTIFIER.fullmatch(node.value)
    ):
        return [node.value]
    return []


@pytest.fixture(scope="module")
def uses() -> Counter[str]:
    """How often the program's files use each name."""
    found: Counter[str] = Counter()
    for directory in ("src", "benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                found.update(_uses(node))
    return found


def test_every_src_definition_is_named_elsewhere(uses):
    dead = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not uses[node.name]
                and not _DUNDER.fullmatch(node.name)
                and node.name not in KEPT
            ):
                dead.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert not dead, "defined in src/ and used nowhere:\n" + "\n".join(dead)


def test_every_kept_name_is_still_dead(uses):
    """A kept name that gained a use leaves ``KEPT``."""
    assert [name for name in KEPT if uses[name]] == []
