"""Property tests: the And/Or fold composes and shares, and `solve` agrees
with the oracle `solve_naive` on every ruleset."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbfgames.engine import ALL_CONFIGS, Position
from qbfgames.formula import (
    FALSE,
    TRUE,
    And,
    Assignment,
    Const,
    Literal,
    Not,
    Or,
    free_variables,
    simplify,
    substitute,
)
from qbfgames.solver import solve, solve_naive

MAX_VARS = 6

# Derandomized so the tier-1 run is reproducible; bounded so it stays short.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SOLVER_PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)


def formulas(n):
    """Arbitrary ASTs over x0..x{n-1}, not only simplified ones: constants,
    Not over literals, single-child and nested same-kind connectives."""
    leaves = st.one_of(
        st.builds(Literal, st.integers(0, n - 1), st.booleans()),
        st.sampled_from((TRUE, FALSE)),
    )

    def connectives(children):
        groups = st.lists(children, min_size=1, max_size=4).map(tuple)
        return st.one_of(st.builds(Not, children), groups.map(And), groups.map(Or))

    return st.recursive(leaves, connectives, max_leaves=14)


@st.composite
def nested_assignments(draw):
    """(n, f, a, a2): a formula and partial assignments with a a subset of a2."""
    n = draw(st.integers(1, MAX_VARS))
    f = draw(formulas(n))
    wider = draw(st.lists(st.sampled_from((True, False, None)), min_size=n, max_size=n))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    narrower = [v if keep else None for v, keep in zip(wider, kept)]
    return n, f, Assignment(narrower), Assignment(wider)


def is_normal_form(f):
    """No constant below the root, no single-child or nested same-kind
    connective, no Not over a constant or a Not: the fold's rule set."""
    if isinstance(f, Not):
        return not isinstance(f.child, (Const, Not)) and is_normal_form(f.child)
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
def test_fold_composes_over_nested_assignments(case):
    _, f, a, wider = case
    assert substitute(simplify(f, a), wider.values) == simplify(f, wider)


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


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
@SOLVER_PROPERTY
@given(st.integers(1, MAX_VARS).flatmap(lambda n: st.tuples(st.just(n), formulas(n))))
def test_solve_matches_naive(config, case):
    n, f = case
    position = Position.initial(f, n, config)
    assert solve(position).winner is solve_naive(position).winner
