"""Thread-local governor scope: the one ambient per-query slot.

The budget has to be visible from deep inside the parser, the navigator,
and the executor without threading a parameter through every call — the
pipeline predates the governor and its internal signatures are shared
with tests and benchmarks. A thread-local slot keeps the disarmed cost
to one attribute read per *entry point* (parser construction,
``Executor.run``, ``match_graphs``), after which inner loops test a
plain local against ``None``.

Each worker thread gets its own slot, so a scheduler refresh running
concurrently with a user query never sees the query's budget (and vice
versa) — the scheduler installs its own token via :func:`activate` when
it wants its apply/recompute work to be interruptible.
"""

from __future__ import annotations

import contextlib
import threading
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.governor.budget import QueryBudget

_STATE = threading.local()


def current() -> "QueryBudget | None":
    """The budget governing this thread's in-flight query, or None."""
    return getattr(_STATE, "budget", None)


@contextlib.contextmanager
def activate(budget: "QueryBudget | None") -> Iterator["QueryBudget | None"]:
    """Install ``budget`` as this thread's scope for the duration.

    ``activate(None)`` is a no-op passthrough, so callers can write one
    ``with activate(maybe_budget):`` without branching. Scopes nest:
    the previous budget is restored on exit (a refresh triggered from
    inside a governed query keeps the query's budget afterwards).
    """
    if budget is None:
        yield None
        return
    previous = getattr(_STATE, "budget", None)
    _STATE.budget = budget
    try:
        yield budget
    finally:
        _STATE.budget = previous
