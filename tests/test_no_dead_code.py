"""No dead code: every function and class defined in ``src/`` is named
somewhere else in ``src/``, ``benchmarks/`` or ``examples/``.

The check counts identifiers over those directories' Python files,
comments and strings included, so a name that occurs there once occurs
only where it is defined. Dunder methods are exempt (Python calls them),
and so is each name in ``KEPT``, for the reason it gives.
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
    "set_slow_query_threshold": "named in docs/OBSERVABILITY.md",
    "for_trace": "tests read one trace's spans with it",
    "sorted_rows": "tests compare tables as bags with it",
    "was_incremental": "tests read how a write maintained a summary with it",
    "set_summary_table_enabled": "tests take a summary out of matching with it",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DUNDER = re.compile(r"__\w+__")


@pytest.fixture(scope="module")
def counts() -> Counter[str]:
    """How often each identifier occurs in the program's files."""
    found: Counter[str] = Counter()
    for directory in ("src", "benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            found.update(_IDENTIFIER.findall(path.read_text()))
    return found


def test_every_src_definition_is_named_elsewhere(counts):
    dead = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and counts[node.name] == 1
                and not _DUNDER.fullmatch(node.name)
                and node.name not in KEPT
            ):
                dead.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert not dead, "defined in src/ and named nowhere else:\n" + "\n".join(dead)


def test_every_kept_name_is_still_dead(counts):
    """A kept name that gained a use elsewhere leaves ``KEPT``."""
    assert [name for name in KEPT if counts[name] != 1] == []
