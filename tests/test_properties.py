"""Property tests: the And/Or fold composes and shares, the incremental
`Circuit` follows it, `solve` agrees with the oracle `solve_naive` on every
ruleset, and every file format reads back what it writes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbfgames.cnf import Cnf, parse_dimacs
from qbfgames.engine import (
    ALL_CONFIGS,
    GameTrace,
    Locality,
    Player,
    Position,
    apply_move,
    format_position,
    legal_moves,
    parse_position,
    parse_trace,
)
from qbfgames.formula import (
    FALSE,
    TRUE,
    And,
    Circuit,
    Const,
    FormulaSyntaxError,
    Literal,
    Not,
    Or,
    VariableRangeError,
    free_variables,
    parse_formula,
    simplify,
    substitute,
    to_text,
)
from qbfgames.reductions import Graph, format_graph, parse_graph
from qbfgames.solver import solve, solve_naive

from _corpus import format_trace

MAX_VARS = 6

# Derandomized so the tier-1 run is reproducible; bounded so it stays short.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SOLVER_PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)
SOUP_PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def parsed_not(child):
    """Negation as `parse_formula` builds it: a negated literal, not a Not."""
    if isinstance(child, Literal):
        return Literal(child.var, not child.negated)
    return Not(child)


def formulas(n, negate=Not):
    """Arbitrary ASTs over x0..x{n-1}, not only simplified ones: constants,
    Not over literals, single-child and nested same-kind connectives.  With
    `negate=parsed_not` they are the trees the parser returns."""
    leaves = st.one_of(
        st.builds(Literal, st.integers(0, n - 1), st.booleans()),
        st.sampled_from((TRUE, FALSE)),
    )

    def connectives(children):
        groups = st.lists(children, min_size=1, max_size=4).map(tuple)
        return st.one_of(st.builds(negate, children), groups.map(And), groups.map(Or))

    return st.recursive(leaves, connectives, max_leaves=14)


@st.composite
def nested_assignments(draw):
    """(n, f, a, a2): a formula and partial assignments with a a subset of a2."""
    n = draw(st.integers(1, MAX_VARS))
    f = draw(formulas(n))
    wider = draw(st.lists(st.sampled_from((True, False, None)), min_size=n, max_size=n))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    narrower = [v if keep else None for v, keep in zip(wider, kept)]
    return n, f, tuple(narrower), tuple(wider)


def is_normal_form(f):
    """No constant below the root, no single-child or nested same-kind
    connective, no Not over a constant, a Not or a literal: the fold's rule
    set."""
    if isinstance(f, Not):
        return not isinstance(f.child, (Const, Not, Literal)) and is_normal_form(f.child)
    if isinstance(f, (And, Or)):
        return len(f.children) > 1 and all(
            not isinstance(c, (Const, type(f))) and is_normal_form(c) for c in f.children
        )
    return True


@PROPERTY
@given(nested_assignments())
def test_fold_result_is_in_normal_form(case):
    _, f, a, _ = case
    assert is_normal_form(simplify(f, a))


@PROPERTY
@given(nested_assignments())
def test_fold_reads_back_from_its_text(case):
    n, f, a, _ = case
    s = simplify(f, a)
    assert parse_formula(to_text(s), n) == s


@PROPERTY
@given(nested_assignments())
def test_fold_composes_over_nested_assignments(case):
    _, f, a, wider = case
    assert substitute(simplify(f, a), wider) == simplify(f, wider)


@PROPERTY
@given(nested_assignments(), st.data())
def test_fold_shares_a_residual_it_does_not_touch(case, data):
    n, f, a, _ = case
    g = simplify(f, a)
    occurring = free_variables(g)
    values = [
        None if var in occurring else data.draw(st.sampled_from((True, False, None)))
        for var in range(n)
    ]
    assert substitute(g, values) is g


@st.composite
def walks(draw):
    """(n, f, steps, cut, again): a formula, an assign order over some of its
    variables, the step from which the moves are taken back, and the moves
    played after that on the same variables in a fresh order."""
    n = draw(st.integers(1, MAX_VARS))
    f = draw(formulas(n))
    order = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    steps = [(var, draw(st.booleans())) for var in order]
    cut = draw(st.integers(0, len(steps)))
    again = [(var, draw(st.booleans())) for var in draw(st.permutations(order[cut:]))]
    return n, f, steps, cut, again


def fold_value(f, values):
    s = substitute(f, values)
    return s.value if type(s) is Const else None


@PROPERTY
@given(walks())
def test_circuit_follows_the_fold_after_a_restore(case):
    # `solve` takes moves back by restoring the counts and values it copied
    n, f, steps, cut, again = case
    circuit = Circuit(f, n)
    for i, (var, value) in enumerate(steps):
        if i == cut:
            saved = list(circuit.counts), list(circuit.values)
        assert circuit.assign(var, value) == fold_value(f, circuit.values)
    if cut == len(steps):
        saved = list(circuit.counts), list(circuit.values)
    circuit.counts[:], circuit.values[:] = saved
    assert circuit.value == fold_value(f, circuit.values)
    for var, value in again:
        assert circuit.assign(var, value) == fold_value(f, circuit.values)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
@SOLVER_PROPERTY
@given(st.integers(1, MAX_VARS).flatmap(lambda n: st.tuples(st.just(n), formulas(n))))
def test_solve_matches_naive(config, case):
    n, f = case
    position = Position.initial(f, n, config)
    assert solve(position).winner is solve_naive(position).winner


TERNARY = st.sampled_from((True, False, None))


@st.composite
def positions(draw):
    """Valid positions on any ruleset: pre-assigned variables (a prefix on
    the local rulesets) and, at times, a mover that breaks the parity rule."""
    n = draw(st.integers(1, MAX_VARS))
    config = draw(st.sampled_from(ALL_CONFIGS))
    if config.locality is Locality.LOCAL:
        k = draw(st.integers(0, n))
        values = draw(st.lists(st.booleans(), min_size=k, max_size=k)) + [None] * (n - k)
    else:
        values = draw(st.lists(TERNARY, min_size=n, max_size=n))
    mover = draw(st.sampled_from((None, Player.P1, Player.P2)))
    f = draw(formulas(n, negate=parsed_not))
    return Position.initial(f, n, config, values, mover)


@PROPERTY
@given(positions(), st.data())
def test_position_file_round_trip(p, data):
    # every position of a game: the initial one, then those apply_move
    # returns, whose formulas are folds
    while True:
        assert parse_position(format_position(p)) == p
        moves = legal_moves(p)
        if not moves:
            break
        p = apply_move(p, data.draw(st.sampled_from(moves)))


@PROPERTY
@given(positions(), st.data())
def test_trace_file_round_trip(p, data):
    moves = data.draw(
        st.lists(st.tuples(st.integers(0, p.n - 1), st.booleans()), max_size=6)
    )
    t = GameTrace(p, moves)
    assert parse_trace(format_trace(t)) == t


@st.composite
def graphs(draw):
    n = draw(st.integers(0, MAX_VARS))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=10)) if n > 1 else []
    paint = draw(st.lists(st.sampled_from((True, False, None)), min_size=n, max_size=n))
    return Graph(n, edges, paint)


@PROPERTY
@given(graphs())
def test_graph_file_round_trip(g):
    assert parse_graph(format_graph(g)) == g


@st.composite
def cnfs(draw):
    n = draw(st.integers(0, MAX_VARS))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clause = st.lists(literal, min_size=1, max_size=4).map(tuple)
    clauses = draw(st.lists(clause, max_size=8)) if n else []
    return Cnf(n, tuple(clauses))


@PROPERTY
@given(cnfs(), st.text(alphabet="abc xyz019-", max_size=12))
def test_dimacs_round_trip(cnf, comment):
    assert parse_dimacs(cnf.to_dimacs(comment)) == cnf


# Parentheses and heads repeat so that more soups nest before they fail.
SOUP_WORDS = ("(", ")") * 5 + ("and", "or", "not") * 3 + (
    "xor", "true", "false", "x²", "x", "banana", *(f"x{i}" for i in range(13)))
SOUP_GAPS = ("", " ", " ", "\t", "\r", "\n", "\r\n", "  \n ")


def token_starts(text):
    """(line, column) of the first character of each token: a parenthesis,
    or a non-space character after a space, a parenthesis or nothing."""
    starts, line, column, prev = set(), 1, 0, " "
    for ch in text:
        column += 1
        if not ch.isspace() and (ch in "()" or prev.isspace() or prev in "()"):
            starts.add((line, column))
        if ch == "\n":
            line, column = line + 1, 0
        prev = ch
    return starts


@SOUP_PROPERTY
@given(
    st.lists(st.tuples(st.sampled_from(SOUP_GAPS), st.sampled_from(SOUP_WORDS)), max_size=16)
    .map(lambda parts: "".join(gap + word for gap, word in parts)),
    st.sampled_from(SOUP_GAPS),
    st.sampled_from((13, 13, 13, 0, 5)),
)
def test_parse_round_trips_or_reports_a_token_start(body, tail, n):
    text = body + tail
    try:
        f = parse_formula(text, n)
    except VariableRangeError:
        return
    except FormulaSyntaxError as err:
        starts = token_starts(text) or {(1, 1)}
        assert (err.line, err.column) in starts
        return
    assert parse_formula(to_text(f), n) == f
