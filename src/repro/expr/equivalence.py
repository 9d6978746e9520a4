"""Column-equivalence classes.

A SELECT box's equality join predicates induce equivalence classes over its
input columns: ``faid = aid`` makes the two interchangeable in any
expression over that box. The paper exploits this in Section 4.1.1's
example (``aid`` is derived from the AST's ``faid``).

:class:`EquivalenceClasses` is a small union-find keyed by
:class:`~repro.expr.nodes.ColumnRef`; the class representative is the
smallest member under the normalization sort key so that rewriting is
deterministic.
"""

from __future__ import annotations

from repro.expr.nodes import BinaryOp, ColumnRef, Expr
from repro.expr.normalize import normalize, sort_key


class EquivalenceClasses:
    """Union-find over column references with deterministic representatives."""

    def __init__(self) -> None:
        self._parent: dict[ColumnRef, ColumnRef] = {}

    def _find(self, ref: ColumnRef) -> ColumnRef:
        if ref not in self._parent:
            return ref
        root = ref
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        # Path compression.
        while self._parent.get(ref, ref) != root:
            self._parent[ref], ref = root, self._parent[ref]
        return root

    def add_equality(self, left: ColumnRef, right: ColumnRef) -> None:
        """Record that ``left`` and ``right`` always hold equal values."""
        root_left = self._find(left)
        root_right = self._find(right)
        if root_left == root_right:
            return
        # Keep the smaller key as representative for determinism.
        if sort_key(root_right) < sort_key(root_left):
            root_left, root_right = root_right, root_left
        self._parent.setdefault(root_left, root_left)
        self._parent[root_right] = root_left

    def add_predicate(self, predicate: Expr) -> bool:
        """Absorb a column=column equality predicate; True if it was one."""
        if (
            isinstance(predicate, BinaryOp)
            and predicate.op == "="
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, ColumnRef)
        ):
            self.add_equality(predicate.left, predicate.right)
            return True
        return False

    def members(self, ref: ColumnRef) -> set[ColumnRef]:
        """Every known column equivalent to ``ref`` (including itself)."""
        root = self._find(ref)
        found = {root}
        for candidate in list(self._parent):
            if self._find(candidate) == root:
                found.add(candidate)
        return found

    def rewrite(self, expr: Expr) -> Expr:
        """Replace every column in ``expr`` with its class representative."""

        def visit(node: Expr) -> Expr | None:
            if isinstance(node, ColumnRef):
                return self._find(node)
            return None

        return expr.transform(visit)

    def classes(self) -> list[set[ColumnRef]]:
        """All non-singleton classes, for display and testing."""
        by_root: dict[ColumnRef, set[ColumnRef]] = {}
        for ref in self._parent:
            by_root.setdefault(self._find(ref), set()).add(ref)
        return [members for members in by_root.values() if len(members) > 1]


def equivalent(left: Expr, right: Expr, classes: EquivalenceClasses | None = None) -> bool:
    """Semantic equivalence test used throughout the matcher.

    Both sides are rewritten to class representatives (when ``classes`` is
    given) and compared by normal form.
    """
    return canonical(left, classes) == canonical(right, classes)


def canonical(expr: Expr, classes: EquivalenceClasses | None = None) -> Expr:
    """Rewrite to representatives, normalize, and drop equalities made
    trivial by the classes.

    Folding ``a = a`` to TRUE is *not* part of plain normalization (it is
    UNKNOWN when ``a`` is NULL), but under an asserted equivalence class
    the premise equality already excludes NULLs, so within the matcher's
    implication reasoning the fold is sound.
    """
    if classes is not None:
        expr = classes.rewrite(expr)
        expr = normalize(expr)
        expr = normalize(expr.transform(_fold_trivial_equality))
        return expr
    return normalize(expr)


def _fold_trivial_equality(node: Expr) -> Expr | None:
    if isinstance(node, BinaryOp) and node.op == "=" and node.left == node.right:
        from repro.expr.nodes import TRUE

        return TRUE
    return None
