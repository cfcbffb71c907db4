"""Blatant falsity/truth: the fold decides the paper's recursive definition.

`blatantly_false` is the legality test of the same-goal rulesets: the And/Or
fold gives the false constant.  Blatant truth is the fold giving the true
constant.  Both are checked against the spec recursion in `_corpus`, against
truth tables, and for exclusivity and duality under Not.
"""

import random

from qbfgames.formula import (
    FALSE,
    TRUE,
    And,
    Literal,
    Not,
    Or,
    blatantly_false,
    parse_formula,
    simplify,
)
from _corpus import (
    SAMPLE_TEXT,
    SAMPLE_VARS,
    all_partial_assignments,
    completion_mask,
    enumerate_formulas,
    from_pairs,
    random_formula,
    spec_blatantly_false,
    spec_blatantly_true,
    truth_table,
)


def empty(n):
    return (None,) * n


def blatantly_true(f, a):
    """Blatant truth: the fold gives the true constant."""
    return simplify(f, a) == TRUE


class TestDefinitionCases:
    def test_nested_constant_false_is_blatant(self):
        # (not x0) and (false and (x1 or x2)) and x3
        f = And(
            (
                Literal(0, True),
                And((FALSE, Or((Literal(1), Literal(2))))),
                Literal(3),
            )
        )
        assert blatantly_false(f, empty(4))

    def test_contradiction_is_not_blatant(self):
        f = And((Literal(0), Literal(0, True)))
        assert not blatantly_false(f, empty(1))

    def test_false_assigned_literal(self):
        a = from_pairs(1, [(0, False)])
        assert blatantly_false(Literal(0), a)
        assert blatantly_true(Literal(0, True), a)

    def test_true_assigned_literal(self):
        a = from_pairs(1, [(0, True)])
        assert blatantly_true(Literal(0), a)
        assert blatantly_false(Literal(0, True), a)

    def test_unassigned_literal_is_neither(self):
        assert not blatantly_false(Literal(0), empty(1))
        assert not blatantly_true(Literal(0), empty(1))

    def test_tautology_is_not_blatantly_true(self):
        f = Or((Literal(0), Literal(0, True)))
        assert not blatantly_true(f, empty(1))

    def test_sample_formula_blatantly_true_after_five_moves(self):
        # x3=T x1=F x2=T x4=F x0=T makes every clause blatantly true
        f = parse_formula(SAMPLE_TEXT, SAMPLE_VARS)
        a = from_pairs(
            SAMPLE_VARS, [(3, True), (1, False), (2, True), (4, False), (0, True)]
        )
        assert blatantly_true(f, a)
        assert not blatantly_true(
            f, from_pairs(SAMPLE_VARS, [(3, True), (1, False)])
        )

    def test_not_swaps_polarity(self):
        inner = Or((Literal(0), Literal(1)))
        a = from_pairs(2, [(0, True)])
        assert blatantly_true(inner, a)
        assert blatantly_false(Not(inner), a)

    def test_constants(self):
        assert blatantly_false(FALSE, empty(0))
        assert blatantly_true(TRUE, empty(0))
        assert not blatantly_false(TRUE, empty(0))


class TestExhaustiveProperties:
    """Soundness, mutual exclusivity, and duality over every formula with up
    to two connectives and all 81 partial assignments."""

    def test_small_corpus(self):
        assigns = all_partial_assignments()
        for f in enumerate_formulas(2):
            tt = truth_table(f)
            negated = Not(f)
            for a in assigns:
                bf = blatantly_false(f, a)
                bt = blatantly_true(f, a)
                assert not (bf and bt), (f, a)
                mask = completion_mask(a)
                if bf:
                    assert tt & mask == 0, (f, a)
                if bt:
                    assert (~tt) & mask == 0, (f, a)
                assert bt == blatantly_false(negated, a), (f, a)
                assert bf == blatantly_true(negated, a), (f, a)

    def test_spec_recursion_is_sound(self):
        # the reference itself: sound against truth tables, never both
        assigns = all_partial_assignments()
        for f in enumerate_formulas(2):
            tt = truth_table(f)
            for a in assigns:
                bf = spec_blatantly_false(f, a)
                bt = spec_blatantly_true(f, a)
                assert not (bf and bt), (f, a)
                mask = completion_mask(a)
                if bf:
                    assert tt & mask == 0, (f, a)
                if bt:
                    assert (~tt) & mask == 0, (f, a)


class TestSimplifyAgreement:
    """The fold and the spec recursion agree in both directions.  This pins
    the fold's rule set: contradiction detection (x AND not x -> false), for
    one, would rule moves illegal that the paper allows."""

    def test_blatant_falsity_implies_simplified_constant(self):
        assigns = all_partial_assignments()
        for f in enumerate_formulas(2):
            for a in assigns:
                if spec_blatantly_false(f, a):
                    assert blatantly_false(f, a), (f, a)
                if spec_blatantly_true(f, a):
                    assert blatantly_true(f, a), (f, a)

    def test_converse_observed_for_this_simplifier(self):
        assigns = all_partial_assignments()
        for f in enumerate_formulas(2):
            for a in assigns:
                if blatantly_false(f, a):
                    assert spec_blatantly_false(f, a), (f, a)
                if blatantly_true(f, a):
                    assert spec_blatantly_true(f, a), (f, a)

    def test_agreement_on_random_formulas(self):
        rng = random.Random(7)
        for _ in range(400):
            n = rng.randint(1, 8)
            f = random_formula(rng, n, budget=rng.randint(0, 12))
            a = tuple(rng.choice((True, False, None)) for _ in range(n))
            assert blatantly_false(f, a) == spec_blatantly_false(f, a)
            assert blatantly_true(f, a) == spec_blatantly_true(f, a)
