"""Formula AST: parsing, rendering, evaluation, simplification, and the
incremental `Circuit` checked against the fold."""

import itertools
import random

import pytest

from qbfgames.engine import GameTrace, parse_position, replay
from qbfgames.formula import (
    FALSE,
    MAX_DEPTH,
    TRUE,
    And,
    Circuit,
    Const,
    DecidedCircuit,
    FormulaSyntaxError,
    Literal,
    Not,
    Or,
    UnassignedVariableError,
    VariableRangeError,
    evaluate,
    free_variables,
    parse_formula,
    simplify,
    substitute,
    to_text,
)
from _corpus import (
    SAMPLE_TEXT,
    SAMPLE_VARS,
    and_,
    enumerate_formulas,
    forced_line_position_text,
    from_pairs,
    node_count,
    not_,
    or_,
    random_formula,
    spec_evaluate,
)


def sample_formula():
    return parse_formula(SAMPLE_TEXT, SAMPLE_VARS)


def assignment_of(n, *pairs):
    return from_pairs(n, pairs)


# Every raise site of the reader, with the message, line and column each
# reports: (text, n, message, line, column).
TOO_DEEP = "(or " * (MAX_DEPTH + 1) + "x0" + ")" * (MAX_DEPTH + 1)
SYNTAX_ERRORS = [
    (" \n\t ", 1, "empty formula", 1, 1),
    ("(", 1, "unexpected end of input", 1, 1),
    ("(not x0", 1, "unexpected end of input", 1, 6),
    ("(not", 1, "unexpected end of input", 1, 2),
    ("(and", 1, "unexpected end of input", 1, 2),
    ("(and x0\n (", 1, "unexpected end of input", 2, 2),
    ("(and x0\n (or x1", 2, "missing ')'", 2, 2),
    ("(and x0 x1", 2, "missing ')'", 1, 1),
    ("(not x0 x1)", 2, "expected ')', got 'x1'", 1, 9),
    ("(and x0\n  (not x1\n   x0))", 2, "expected ')', got 'x0'", 3, 4),
    ("(xor x0 x1)", 2, "expected 'not', 'and' or 'or', got 'xor'", 1, 2),
    ("((and x0))", 1, "expected 'not', 'and' or 'or', got '('", 1, 2),
    (")", 1, "unexpected ')'", 1, 1),
    ("(and\n )", 1, "unexpected ')'", 2, 2),
    ("(and x0 ))", 1, "trailing input ')'", 1, 10),
    ("(or x0\n  x1 banana)", 2, "unrecognized token 'banana'", 2, 6),
    ("x", 1, "unrecognized token 'x'", 1, 1),
    ("x0 x1", 2, "trailing input 'x1'", 1, 4),
    ("(and x0 x1)\n\n  )", 2, "trailing input ')'", 3, 3),
    (TOO_DEEP, 1, "nesting deeper than 256 levels", 1, 1025),
]


class TestParse:
    def test_sample_formula_structure(self):
        f = sample_formula()
        assert isinstance(f, And)
        assert len(f.children) == 4
        assert all(isinstance(c, Or) for c in f.children)
        assert all(len(c.children) == 3 for c in f.children)
        first = f.children[0]
        assert first.children[0] == Literal(0, True)
        assert first.children[1] == Literal(3, False)
        assert first.children[2] == Literal(1, True)

    def test_single_literal(self):
        assert parse_formula("x0", 1) == Literal(0, False)

    def test_negated_literal_is_a_literal_node(self):
        assert parse_formula("(not x4)", 5) == Literal(4, True)

    def test_double_negated_variable_folds(self):
        assert parse_formula("(not (not x0))", 1) == Literal(0, False)

    def test_not_over_connective_stays_a_not_node(self):
        f = parse_formula("(not (and x0 x1))", 2)
        assert f == Not(And((Literal(0), Literal(1))))

    def test_constants(self):
        assert parse_formula("true", 0) == TRUE
        assert parse_formula("false", 0) == FALSE

    def test_single_child_connective_allowed(self):
        assert parse_formula("(and x0)", 1) == And((Literal(0),))
        assert parse_formula("(or x0)", 1) == Or((Literal(0),))

    def test_whitespace_and_newlines(self):
        f = parse_formula("(and\n   (or x0   x1)\n x2 )", 3)
        assert f == And((Or((Literal(0), Literal(1))), Literal(2)))

    def test_unbalanced_input_is_a_syntax_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(and (or x0", 7)

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   \n ", 1)

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("x0 x1", 2)
        assert err.value.line == 1

    def test_bad_head(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(xor x0 x1)", 2)

    def test_empty_connective(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(and)", 1)

    def test_unknown_token_reports_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("(and x0\n  banana)", 2)
        assert err.value.line == 2
        assert err.value.column == 3

    def test_non_ascii_digits_are_syntax_errors(self):
        # `str.isdigit` takes superscripts and other scripts' digits
        for text, n, where in (("x²", 3, (1, 1)), ("x٣", 4, (1, 1)), ("(and x0\n  x¹)", 2, (2, 3))):
            with pytest.raises(FormulaSyntaxError) as err:
                parse_formula(text, n)
            assert (err.value.line, err.value.column) == where

    def test_variable_out_of_range(self):
        with pytest.raises(VariableRangeError) as err:
            parse_formula("(or x0 x7)", 7)
        assert err.value.var == 7
        assert err.value.n == 7

    def test_nesting_limit_is_exact(self):
        at_limit = "(or " * MAX_DEPTH + "x0" + ")" * MAX_DEPTH
        assert simplify(parse_formula(at_limit, 1), (None,)) == Literal(0)
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("(or " + at_limit + ")", 1)
        # reported at the parenthesis that opens level MAX_DEPTH + 1
        assert err.value.column == 4 * MAX_DEPTH + 1

    @pytest.mark.parametrize(
        "text, n, message, line, column", SYNTAX_ERRORS, ids=range(len(SYNTAX_ERRORS))
    )
    def test_syntax_error_table(self, text, n, message, line, column):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text, n)
        assert (str(err.value), err.value.line, err.value.column) == (
            f"{message} (line {line}, column {column})",
            line,
            column,
        )


class TestToText:
    def test_negated_literal(self):
        assert to_text(Literal(0, True)) == "(not x0)"

    def test_binary_and(self):
        assert to_text(And((Literal(0), Literal(1)))) == "(and x0 x1)"

    def test_parse_totext_parse_is_fixpoint(self):
        for text in (SAMPLE_TEXT, "x0", "(not (or x0 (and x1 true)))", "false"):
            f = parse_formula(text, SAMPLE_VARS)
            rendered = to_text(f)
            assert parse_formula(rendered, SAMPLE_VARS) == f
            assert to_text(parse_formula(rendered, SAMPLE_VARS)) == rendered

    def test_round_trip_on_1000_random_formulas(self):
        rng = random.Random(2024)
        for _ in range(1000):
            f = random_formula(rng, rng.randint(1, 9), budget=rng.randint(0, 12))
            assert parse_formula(to_text(f), 9) == f

    def test_shared_memo_over_replay_snapshots(self):
        n = 60
        p = parse_position(forced_line_position_text("by-player-local-same", n))
        steps = list(replay(GameTrace(p, [(v, v % 2 == 0) for v in range(n)])))
        assert len(steps) == n
        memo = {}
        for f in [p.formula] + [q.formula for _, q in steps]:
            assert to_text(f, memo) == to_text(f)

    def test_shared_memo_over_dropped_formulas(self):
        # each formula is dropped before the next but one is built, so new
        # nodes take the ids of freed ones; a memo entry keeps its node alive
        rng = random.Random(11)
        memo = {}
        for _ in range(2000):
            f = random_formula(rng, 5, budget=rng.randint(1, 8))
            assert to_text(f, memo) == to_text(f)


class TestEvaluate:
    def test_sample_game_final_assignment_is_false(self):
        a = (True, True, False, False, True, False, False)
        assert evaluate(sample_formula(), a) is False

    def test_const_true_under_any_assignment(self):
        assert evaluate(TRUE, ()) is True
        assert evaluate(TRUE, (False, None)) is True

    def test_forced_line_completion_is_false(self):
        # the choice-free play order fills T,F,T,F,... ; completing with
        # x4=T, x5=F, x6=T still falsifies the last clause
        a = (True, False, True, False, True, False, True)
        assert evaluate(sample_formula(), a) is False

    def test_unassigned_variable_raises(self):
        with pytest.raises(UnassignedVariableError) as err:
            evaluate(sample_formula(), (None,) * SAMPLE_VARS)
        assert err.value.var in range(SAMPLE_VARS)

    def test_unused_variable_may_stay_open(self):
        a = (True, True, False, False, True, None, False)
        assert evaluate(sample_formula(), a) is False

    def test_a_constant_fold_needs_no_open_variable(self):
        # x0=T decides the Or, though the open x1 comes first
        assert evaluate(Or((Literal(1), Literal(0))), (True, None)) is True

    def test_open_residual_names_its_lowest_variable(self):
        # x1=T folds (or x0 x1) away, so the residual is (or x3 x2)
        f = parse_formula("(and (or x0 x1) (or x3 x2))", 4)
        with pytest.raises(UnassignedVariableError) as err:
            evaluate(f, (None, True, None, None))
        assert err.value.var == 2


class TestSimplify:
    def test_first_move_display(self):
        f = sample_formula()
        got = simplify(f, assignment_of(SAMPLE_VARS, (0, True)))
        expected = parse_formula(
            "(and (or x3 (not x1)) (or x2 x1 (not x6)) (or (not x2) (not x4) x3))",
            SAMPLE_VARS,
        )
        assert got == expected

    def test_empty_assignment_only_flattens(self):
        f = sample_formula()
        assert simplify(f, (None,) * SAMPLE_VARS) == f
        nested = parse_formula("(and (and x0 x1) (or x2 (or x3 x4)))", 5)
        assert simplify(nested, (None,) * 5) == parse_formula(
            "(and x0 x1 (or x2 x3 x4))", 5
        )

    def test_collapse_to_single_negated_literal(self):
        # state with x0=F x1=F x2=T x3=F x4=F: only (not x6) is left
        f = sample_formula()
        a = assignment_of(
            SAMPLE_VARS, (0, False), (1, False), (2, True), (3, False), (4, False)
        )
        assert simplify(f, a) == Literal(6, True)

    def test_full_assignment_gives_constant(self):
        f = sample_formula()
        a = (True, True, False, False, True, False, False)
        assert simplify(f, a) == FALSE

    def test_double_negation_removal(self):
        f = Not(Not(Or((Literal(0), Literal(1)))))
        assert simplify(f, (None,) * 2) == Or((Literal(0), Literal(1)))

    @pytest.mark.parametrize(
        "text",
        [
            "(and x6 (or x0 x1) (or (not x2) x3 x4) (or x5 (not x0)))",
            "(or (not x6) (and x0 x1) (and (not x2) x3 x4) (and x5 (not x0)))",
        ],
    )
    def test_open_clauses_are_kept_as_they_are(self, text):
        # x6 decides nothing, so the root is rebuilt; every other child has
        # only open literals and is returned as the same object
        f = parse_formula(text, 7)
        s = substitute(f, (None,) * 6 + (True,))
        assert s == type(f)(f.children[1:])
        assert all(got is kept for got, kept in zip(s.children, f.children[1:]))

    @pytest.mark.parametrize(
        "text, folded",
        [
            ("(and (and x0 x1) x2)", "(and x0 x1 x2)"),
            ("(or x2 (or x0 (not x1)))", "(or x2 x0 (not x1))"),
            ("(and (or x0) x1)", "(and x0 x1)"),
            ("(or (and (not x0)) x1)", "(or (not x0) x1)"),
            ("(and (or x0 false) x1)", "(and x0 x1)"),
            ("(or (and x0 true x2) x1)", "(or (and x0 x2) x1)"),
            ("(and (or x0 (not (not (and x1 x2)))) x1)", "(and (or x0 (and x1 x2)) x1)"),
        ],
    )
    def test_children_that_fold_with_every_variable_open(self, text, folded):
        # a same-kind child flattens, a one-child connective unwraps, and a
        # constant or a Not below a child folds away, though no variable is set
        assert substitute(parse_formula(text, 3), (None,) * 3) == parse_formula(folded, 3)

    def test_semantic_preservation_random(self):
        # simplify(f,a) under a completion agrees with f under a + completion,
        # by the recursive reference evaluator rather than the fold itself
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 10)
            f = random_formula(rng, n, budget=rng.randint(0, 10))
            values = [rng.choice((True, False, None)) for _ in range(n)]
            a = tuple(values)
            s = simplify(f, a)
            open_vars = [i for i, v in enumerate(a) if v is None]
            assert free_variables(s) <= set(open_vars)
            for bits in itertools.product((False, True), repeat=len(open_vars)):
                completed = list(values)
                for var, bit in zip(open_vars, bits):
                    completed[var] = bit
                full = tuple(completed)
                assert spec_evaluate(s, full) == spec_evaluate(f, full)

    def test_substitute_matches_simplify(self):
        # refolding a residual after one more assignment, as the solver does,
        # must agree with a fresh simplify
        rng = random.Random(4242)
        for _ in range(500):
            n = rng.randint(1, 8)
            f = random_formula(rng, n, budget=rng.randint(0, 10))
            values = [rng.choice((True, False, None)) for _ in range(n)]
            s = simplify(f, values)
            open_vars = [i for i, v in enumerate(values) if v is None]
            if not open_vars:
                continue
            var = rng.choice(open_vars)
            extended = list(values)
            extended[var] = rng.random() < 0.5
            assert substitute(s, extended) == simplify(f, extended)


def fold_value(f, values):
    """True, False or None as `substitute` folds f to TRUE, FALSE or not a constant."""
    s = substitute(f, values)
    return s.value if type(s) is Const else None


def decided_gates(circuit):
    """The mask of the gates that have a value, as their counts give it."""
    base = circuit._base
    return sum(1 << g for g, count in enumerate(circuit.counts[:-1]) if count >= base or not count)


def walk_circuit(f, n, steps, rng):
    """Assign `steps` in order, checking the circuit's root against the fold
    after every move.  Then take the moves from a random step on back, as
    `solve` does, by restoring the counts and values copied before it, and
    assign the variables of those steps again in a fresh order with fresh
    values, checking each move the same way.  The walk is made on a
    `Circuit`, whose last `counts` slot must stay 0, and on a
    `DecidedCircuit`, whose last slot must name the gates that have a value."""
    cut = rng.randint(0, len(steps))
    again = [(var, rng.random() < 0.5) for var, _ in rng.sample(steps[cut:], len(steps) - cut)]
    for circuit in (Circuit(f, n), DecidedCircuit(f, n)):

        def check(value, *context):
            assert value == fold_value(f, circuit.values), (f, steps, *context)
            decided = decided_gates(circuit) if type(circuit) is DecidedCircuit else 0
            assert circuit.counts[-1] == decided, (f, steps, *context)

        check(circuit.value)
        for i, (var, value) in enumerate(steps):
            if i == cut:
                saved = list(circuit.counts), list(circuit.values)
            check(circuit.assign(var, value))
        if cut == len(steps):
            saved = list(circuit.counts), list(circuit.values)
        circuit.counts[:], circuit.values[:] = saved
        check(circuit.value, cut)
        for var, value in again:
            check(circuit.assign(var, value), cut)


class TestCircuit:
    def test_negations_pushed_to_literals(self):
        # not (x0 and not (x1 or false)) = (not x0) or x1
        f = parse_formula("(not (and x0 (not (or x1 false))))", 2)
        circuit = Circuit(f, 2)
        assert circuit.value is None
        assert circuit.assign(0, True) is None
        saved = list(circuit.counts)
        assert circuit.assign(1, False) is False
        circuit.counts[:], circuit.values[1] = saved, None
        assert circuit.value is None
        assert circuit.assign(1, True) is True

    def test_constants_fix_their_gates(self):
        assert Circuit(TRUE, 0).value is True
        assert Circuit(FALSE, 0).value is False
        f = parse_formula("(or (and x0 false) (and x1 true))", 2)
        circuit = Circuit(f, 2)
        assert circuit.assign(0, True) is None
        assert circuit.assign(1, True) is True

    def test_exhaustive_corpus_walks(self):
        rng = random.Random(17)
        for f in enumerate_formulas(3):
            order = rng.sample(range(4), 4)
            walk_circuit(f, 4, [(var, rng.random() < 0.5) for var in order], rng)

    def test_random_formula_walks(self):
        rng = random.Random(23)
        for _ in range(400):
            n = rng.randint(1, 10)
            f = random_formula(rng, n, budget=rng.randint(0, 12))
            if rng.random() < 0.3:
                f = Not(And((f, TRUE))) if rng.random() < 0.5 else Or((FALSE, Not(f)))
            order = rng.sample(range(n), rng.randint(0, n))
            walk_circuit(f, n, [(var, rng.random() < 0.5) for var in order], rng)

    def test_assign_refuses_an_assigned_variable(self):
        circuit = Circuit(parse_formula("(or x0 x1)", 2), 2)
        circuit.assign(0, False)
        with pytest.raises(ValueError):
            circuit.assign(0, True)


class TestFreeVariables:
    def test_sample_formula_skips_x5(self):
        assert free_variables(sample_formula()) == {0, 1, 2, 3, 4, 6}

    def test_constant_has_none(self):
        assert free_variables(TRUE) == set()

    def test_padded_clause(self):
        f = parse_formula("(or x0 x1 (and x2 (not x2)))", 3)
        assert free_variables(f) == {0, 1, 2}


class TestBuildersAndNodes:
    def test_and_or_builders(self):
        assert and_() == TRUE
        assert or_() == FALSE
        assert and_(Literal(0)) == Literal(0)
        assert and_(Literal(0), Literal(1)) == And((Literal(0), Literal(1)))

    def test_not_builder_folds(self):
        assert not_(TRUE) == FALSE
        assert not_(Literal(2)) == Literal(2, True)
        assert not_(Not(Or((Literal(0), Literal(1))))) == Or((Literal(0), Literal(1)))

    def test_empty_connective_nodes_rejected(self):
        with pytest.raises(ValueError):
            And(())
        with pytest.raises(ValueError):
            Or(())

    def test_node_count(self):
        assert node_count(Literal(0)) == 1
        assert node_count(sample_formula()) == 1 + 4 + 12
