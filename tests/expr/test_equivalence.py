"""Column-equivalence classes (how aid derives from faid in Figure 5)."""

from repro.expr import (
    BinaryOp,
    ColumnRef,
    EquivalenceClasses,
    FuncCall,
    Literal,
    NaryOp,
    canonical,
    equivalent,
)

FAID = ColumnRef("Trans", "faid")
AID = ColumnRef("Acct", "aid")
LID = ColumnRef("Loc", "lid")
FLID = ColumnRef("Trans", "flid")


def classes_with(*pairs):
    classes = EquivalenceClasses()
    for left, right in pairs:
        classes.add_equality(left, right)
    return classes


class TestUnionFind:
    def test_symmetric_and_transitive(self):
        other = ColumnRef("X", "c")
        classes = classes_with((FAID, AID), (AID, other))
        assert classes.rewrite(FAID) == classes.rewrite(other)
        assert classes.members(other) == {FAID, AID, other}

    def test_representative_deterministic(self):
        a = classes_with((FAID, AID))
        b = classes_with((AID, FAID))
        assert a.rewrite(FAID) == b.rewrite(FAID)

    def test_members(self):
        classes = classes_with((FAID, AID))
        assert classes.members(FAID) == {FAID, AID}
        assert classes.members(LID) == {LID}

    def test_disjoint_classes(self):
        classes = classes_with((FAID, AID), (FLID, LID))
        assert classes.rewrite(FAID) != classes.rewrite(LID)
        assert len(classes.classes()) == 2

    def test_add_predicate_filters_non_equalities(self):
        classes = EquivalenceClasses()
        assert classes.add_predicate(BinaryOp("=", FAID, AID))
        assert not classes.add_predicate(BinaryOp(">", FAID, Literal(1)))
        assert not classes.add_predicate(BinaryOp("=", FAID, Literal(1)))


class TestRewriteAndEquivalence:
    def test_rewrite_to_representative(self):
        classes = classes_with((FAID, AID))
        rep = classes.rewrite(FAID)
        expr = NaryOp("+", (AID, Literal(1)))
        assert classes.rewrite(expr) == NaryOp("+", (rep, Literal(1)))

    def test_equivalent_modulo_classes(self):
        classes = classes_with((FAID, AID))
        assert equivalent(FAID, AID, classes)
        assert equivalent(
            FuncCall("year", (FAID,)), FuncCall("year", (AID,)), classes
        )
        assert not equivalent(FAID, LID, classes)

    def test_equivalent_without_classes_is_syntactic(self):
        assert equivalent(NaryOp("+", (FAID, AID)), NaryOp("+", (AID, FAID)))
        assert not equivalent(FAID, AID)

    def test_join_predicate_collapses_to_true(self):
        classes = classes_with((FAID, AID))
        assert canonical(BinaryOp("=", FAID, AID), classes) == Literal(True)
