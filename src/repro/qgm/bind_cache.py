"""The shape cache: one entry per SELECT token-stream shape, from text
to rewrite decision.

A SELECT text's *shape key* is its tokens with every number and string
literal replaced by its type and its literal class (equal literals
share one), plus the prepare label. The first statement of a key binds
cold; the second also binds a *probe*, each literal class at a unique
value, files it as the key's template once substituting the statement's
values into it gives the cold bind's fingerprint, and keeps by value
the classes whose value binding reads (``LIMIT``, ``DATE``, folded
operands). Later statements clone the template with their literals
substituted: no parse, no bind. A filed template places each literal
class in the graph once (its *slots*), so a statement's constants are
read from its literal values, and the entry holds the shape's rewrite
decisions (:mod:`repro.rewrite.cache`), with their plan templates.
docs/ALGORITHM.md, "the matching fast path", layer 1, has the rules and
why substitution is sound.
"""

from __future__ import annotations

import itertools

from repro.errors import GovernorError, ReproError
from repro.expr.evaluator import is_constant
from repro.expr.nodes import Literal, NaryOp
from repro.lru import LRU
from repro.qgm.boxes import QCL, QueryGraph, Quantifier
from repro.qgm.fingerprint import fingerprint, literal_slots
from repro.sql.lexer import tokenize
from repro.sql.parser import parse

#: SELECT text shapes the cache holds
SHAPE_CACHE_SIZE = 256
#: kept-value tuples filed per shape
TEMPLATES_PER_SHAPE = 16
#: stored for kept values whose probe did not confirm
_COLD_ONLY = "cold-only"
_PROBE_BASE = 7_340_033_000_000
_LITERALS = ("number", "string")


def shape_key(tokens, label: str) -> tuple[tuple, list]:
    """``(key, values)``: the key of a token stream and the value of
    each of its literal classes, in order of first appearance."""
    parts: list = [label]
    values: list = []
    classes: dict = {}
    for kind, value, text, _, _ in tokens:
        if kind in _LITERALS:
            literal = (type(value), value)
            slot = classes.get(literal)
            if slot is None:
                slot = classes[literal] = len(values)
                values.append(value)
            parts += literal[0], slot
        else:
            parts.append(text if kind == "ident" else value)
    return tuple(parts), values


def lex(sql: str, label: str) -> tuple[list, tuple, list]:
    """``(tokens, key, values)``: ``sql`` lexed once, with its shape key
    and literal values (:func:`shape_key`)."""
    tokens = tokenize(sql)
    return (tokens, *shape_key(tokens, label))


class _Shape:
    """One key's entry: the epoch it was filed under, the literal
    classes kept by value (None until a probe ran), the templates per
    tuple of kept values, the cost of its last completed run and the
    shape's rewrite decisions."""

    __slots__ = ("epoch", "kept", "templates", "cost", "decisions", "pivots")

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.kept: tuple[int, ...] | None = None
        self.templates = LRU(TEMPLATES_PER_SHAPE)
        #: a run's variant → thread-CPU ms (:meth:`BindCache.costs`)
        self.cost: dict = {}
        #: (REFRESH AGE key, skeleton, form, obligations) →
        #: :class:`~repro.rewrite.cache.CacheEntry`
        self.decisions = LRU(TEMPLATES_PER_SHAPE)
        #: admissible summary names → :func:`~repro.rewrite.cache.pivots`
        self.pivots: dict = {}


class _Template:
    """A probe graph (or a plan, a rewrite of one) and where its probe
    literals stand; once filed, its :func:`~repro.qgm.fingerprint.
    literal_slots`, each a literal class (an int) or a fixed 1-tuple."""

    def __init__(self, graph: QueryGraph, probes: dict[tuple, int]):
        self.graph = graph
        self.probes = probes
        self.boxes = graph.boxes()
        self.position = {id(box): n for n, box in enumerate(self.boxes)}
        #: per box position, the executor's memoised programs
        #: (docs/EXECUTOR.md, "A template's program")
        self.programs: dict = {}
        #: the expressions holding a probe literal, by identity
        self.slotted = {
            id(expr) for expr in _expressions(graph)
            if not probes.keys().isdisjoint(_typed(expr.literal_values()))
        }

    def take_slots(self) -> None:
        """Read the slots off the probe graph, once, as it is filed."""
        self.skeleton, kept, holes = literal_slots(fingerprint(self.graph))
        self.kept, self.holes = (
            [self.probes.get((type(v), v), (v,)) for v in found]
            for found in (kept, holes)
        )

    def slots(self, values: list) -> tuple:
        """A statement's :func:`~repro.qgm.fingerprint.literal_slots`,
        from its literal ``values`` alone."""
        return self.skeleton, *(
            [values[s] if s.__class__ is int else s[0] for s in found]
            for found in (self.kept, self.holes)
        )

    def literals(self, values: list) -> dict:
        """``(type, value)`` → :class:`Literal` standing for each constant
        of a statement with literal ``values``: a probe or a fixed value."""
        probe = {slot: value for (_, value), slot in self.probes.items()}
        _, kept, holes = self.slots(values)
        return {
            (type(v), v): Literal(probe.get(slot, v))
            for slot, v in zip(self.kept + self.holes, kept + holes)
        }

    def instantiate(self, values: list | None = None) -> QueryGraph:
        """A fresh graph: every box new, the probe literals replaced by
        ``values`` (None: kept); expressions without one are shared."""
        slotted = () if values is None else self.slotted
        literals = {
            probe: Literal(values[slot]) for probe, slot in self.probes.items()
        } if slotted else {}

        def sub(expr):
            if id(expr) not in slotted:
                return expr
            return expr.transform(
                lambda node: literals.get((type(node.value), node.value))
                if node.__class__ is Literal else None
            )

        copies: list = []
        position = self.position
        for box in self.boxes:
            copy = object.__new__(box.__class__)
            state = copy.__dict__
            state.update(box.__dict__)
            state["outputs"] = [
                QCL(q.name, sub(q.expr), q.nullable) for q in box.outputs
            ]
            if "predicates" in state:
                state["predicates"] = [sub(p) for p in box.predicates]
            if "_quantifiers" in state:
                state["_quantifiers"] = [
                    Quantifier(q.name, copies[position[id(q.box)]])
                    for q in box._quantifiers
                ]
            elif "_quantifier" in state:
                q = box._quantifier
                state["_quantifier"] = Quantifier(
                    q.name, copies[position[id(q.box)]]
                )
            copies.append(copy)
        graph = QueryGraph(copies[-1], self.graph.catalog)
        graph.order_by = list(self.graph.order_by)
        graph.limit = self.graph.limit
        if values is not None:
            graph.origin = self, values
        return graph


class BindCache:
    """``Database``'s bind cache: an :class:`LRU` of
    :data:`SHAPE_CACHE_SIZE` shapes, counted in ``registry`` as
    ``bind_cache_hits``, ``_misses`` and ``_cold_only``."""

    def __init__(self, registry):
        self.entries = LRU(SHAPE_CACHE_SIZE)
        self.counters = {
            name: registry.counter(f"bind_cache_{name}", help)
            for name, help in (
                ("hits", "SELECTs bound by substituting into a template"),
                ("misses", "SELECTs parsed and bound"),
                ("cold_only", "kept values whose probe did not confirm"),
            )
        }

    def bind(self, lexed, epoch: int, build, stats):
        """``(graph, how, shape, template)`` for the SELECT text lexed as
        ``lexed`` (:func:`lex`) bound under catalog ``epoch``: ``how``
        is ``"substituted"`` (``graph`` None: ``template`` clones it),
        ``"filed"`` (bound cold, ``template`` filed) or ``"cold"``;
        ``shape`` is the text shape's entry. ``build`` binds a parsed
        statement; ``stats`` is :meth:`entry`'s."""
        tokens, key, values = lexed
        shape = self.entry(key, epoch, stats)
        if shape is None:
            self.counters["misses"].inc()
            graph = build(parse(tokens))
            return graph, "cold", self.add(key, epoch), None
        kept = () if shape.kept is None else shape.kept
        template = shape.templates.get(tuple(values[i] for i in kept))
        if template is not None and template is not _COLD_ONLY:
            self.counters["hits"].inc()
            return None, "substituted", shape, template
        self.counters["misses"].inc()
        graph = build(parse(tokens))
        template = None if template is _COLD_ONLY else self._file(
            shape, tokens, values, graph, build
        )
        return graph, "filed" if template else "cold", shape, template

    def entry(self, key, epoch: int, stats) -> _Shape | None:
        """The entry of shape ``key`` filed under catalog ``epoch``, or
        None; a stale one is dropped, and if it held decisions counts in
        ``stats`` as a ``cache_invalidations``."""
        shape = self.entries.get(key)
        if shape is not None and shape.epoch != epoch:
            if self.entries.discard(key, shape) and len(shape.decisions):
                stats.cache_invalidations += 1
            shape = None
        return shape

    def add(self, key, epoch: int) -> _Shape:
        """A new, empty entry for shape ``key`` under ``epoch``."""
        shape = _Shape(epoch)
        self.entries.put(key, shape)
        return shape

    def costs(self, key, epoch: int) -> dict:
        """Thread-CPU milliseconds of the last completed runs of shape
        ``key`` bound under ``epoch``, per the caller's variant of a run:
        the entry's own map, or a throwaway one when none is filed."""
        shape = self.entries.peek(key)
        return shape.cost if shape is not None and shape.epoch == epoch else {}

    def _file(self, shape: _Shape, tokens, values, cold: QueryGraph, build):
        """Probe, then confirm against ``cold``; file the outcome, and
        return the template filed (or None)."""
        if shape.kept is None:  # what the text and the cold bind show
            classes = {literal: slot for slot, literal in enumerate(_typed(values))}
            kept = _kept_by_syntax(tokens, classes) | _unsafe(cold, classes)
        else:
            kept = set(shape.kept)
        template = None
        try:
            for _ in range(len(values) + 1):
                template = _probe(tokens, values, kept, build)
                more = _unsafe(template.graph, template.probes) - kept
                if not more:
                    break
                kept |= more
                template = None
        except GovernorError:
            raise
        except ReproError:  # the probe does not bind: cold-only
            template = None
        if template is not None and (
            fingerprint(template.instantiate(values)) != fingerprint(cold)
        ):
            template = None
        ordered = tuple(sorted(kept))
        if shape.kept is None:
            shape.kept = ordered
        elif shape.kept != ordered:
            return None
        if template is None:
            shape.templates.put(tuple(values[i] for i in ordered), _COLD_ONLY)
            self.counters["cold_only"].inc()
            return None
        template.take_slots()
        shape.templates.put(tuple(values[i] for i in ordered), template)
        return template


def _kept_by_syntax(tokens, classes: dict[tuple, int]) -> set[int]:
    """The literal classes the parser reads by value: ``LIMIT n``'s and
    ``DATE '…'``'s."""
    return {
        classes[type(token.value), token.value]
        for before, token in zip(tokens, tokens[1:])
        if before.is_keyword("limit", "date") and token.kind in _LITERALS
    }


def _probe(tokens, values: list, kept: set[int], build) -> _Template:
    """Bind ``tokens`` with every class not in ``kept`` at a unique
    value of its type."""
    taken = set(_typed(values))
    counter = itertools.count(_PROBE_BASE)
    probe_values = []
    for slot, value in enumerate(values):
        probe = value
        while slot not in kept and (type(probe), probe) in taken:
            probe = type(value)(next(counter) + 0.5 * (type(value) is float))
        taken.add((type(probe), probe))
        probe_values.append(probe)
    class_of = {literal: slot for slot, literal in enumerate(_typed(values))}
    probe_tokens = [
        token._replace(value=probe_values[class_of[type(token.value), token.value]])
        if token.kind in _LITERALS else token
        for token in tokens
    ]
    probes = {
        literal: slot for slot, literal in enumerate(_typed(probe_values))
        if slot not in kept
    }
    return _Template(build(parse(probe_tokens)), probes)


def _unsafe(graph: QueryGraph, classes: dict[tuple, int]) -> set[int]:
    """The classes of ``classes`` (``(type, value)`` → class) whose
    value the binder or the normaliser reads in ``graph``: never a plain
    :class:`Literal` of it, or an operand of an n-ary operator (``+``,
    ``*``, AND, OR) or of an all-constant node (unary minus on a
    literal is one)."""
    seen: set[int] = set()
    unsafe: set[int] = set()

    def visit(node, parent) -> None:
        if node.__class__ is Literal:
            slot = classes.get((type(node.value), node.value))
            if slot is not None:
                seen.add(slot)
                if parent is not None and (
                    isinstance(parent, NaryOp) or is_constant(parent)
                ):
                    unsafe.add(slot)
            return
        for child in node.children():
            visit(child, node)

    for expr in _expressions(graph):
        visit(expr, None)
    return unsafe | (set(classes.values()) - seen)


def _expressions(graph: QueryGraph):
    for box in graph.boxes():
        for qcl in box.outputs:
            if qcl.expr is not None:
                yield qcl.expr
        yield from getattr(box, "predicates", ())


def _typed(values):
    return zip(map(type, values), values)
