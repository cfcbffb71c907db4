"""Exact winner determination.

`solve` runs win/loss backward induction on a compiled `Circuit`, memoized
on the assignment as a base-4 integer (the formula, ruleset, variable count
and the root mover's side of the parity rule are constants within one solve
session, so the assignment fixes the mover).  Its `nodes` counts visited
positions; under the different goal a position whose fold is already a
constant is a leaf.  On the two by-player-local rulesets every position has
at most one move, so `solve` walks the one forced line in at most n + 1
nodes, however long it is.  `solve_naive` is the independent oracle: plain
recursion straight over the engine rules, no memoization, no shortcuts.
`solve_abstract` applies the same induction to any finite two-player game
that has the six methods it calls; it is a separate search on purpose, so
that a reduction check's source side shares no code with `solve`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .engine import (
    BooleanChoice,
    Goal,
    Locality,
    Move,
    Player,
    Position,
    apply_move,
    final_winner,
    legal_moves,
)
from .formula import Circuit

# `solve` folds through `Circuit`; the fold's own entry points stay bound
# here because perfbench/layers.py traces calls to them through this module.
from .formula import simplify, substitute  # noqa: F401

# The memo gains at most one entry per counted node, so the node budget also
# bounds memo memory: 10**7 entries at about 200 B each is about 2 GB.
DEFAULT_NODE_BUDGET = 10**7
DEFAULT_NAIVE_LIMIT = 12

# The memo key under which `solve` records the session a memo belongs to.
_SESSION = "session"


class BudgetExceededError(Exception):
    """The search passed its node budget; the result would be incomplete."""

    def __init__(self, budget: int):
        super().__init__(f"node budget of {budget} exceeded")
        self.budget = budget


class NaiveLimitError(Exception):
    """solve_naive refused an instance above its variable bound."""

    def __init__(self, n: int, limit: int):
        super().__init__(f"naive solver limited to {limit} variables, got {n}")
        self.n = n
        self.limit = limit


@dataclass
class Outcome:
    """Optimal-play result: winner, one optimal line, and search effort."""

    winner: Player
    variation: list | None = None
    nodes: int = 0


def solve(
    position: Position,
    node_budget: int = DEFAULT_NODE_BUDGET,
    memo: dict | None = None,
) -> Outcome:
    """Optimal-play winner by memoized backward induction.

    The formula is compiled once into a `Circuit`, which gives the root's
    three-valued fold after each move; a same-goal move is illegal iff it
    turns the root false.  Under the different goal a position whose root is
    already decided is a leaf: its winner is fixed whatever is played.
    `nodes` counts the positions visited, such leaves included.

    The principal variation follows the first winning move in the normative
    order (ascending variable, false before true), or the first legal move
    from losing positions; below a decided different-goal root every move
    wins or every move loses, so the line goes on with the first candidate
    move of each position.  A `memo` dict may be passed back in to
    warm-start further solves in the same session: the same formula,
    variable count and ruleset, with the root mover on the same side of the
    parity rule.  The memo keys on the assignment alone, as a base-4 integer
    with digit 0 (unassigned), 1 (false) or 2 (true) for variable i at 4^i,
    so the first solve binds the memo to its session and any other session
    raises ValueError.
    """
    config = position.config
    n = position.n
    local = config.locality is Locality.LOCAL
    by_player = config.choice is BooleanChoice.BY_PLAYER
    same = config.goal is Goal.SAME
    p1, p2 = Player.P1, Player.P2
    if memo is None:
        memo = {}
    parity_mover = p1 if position.assignment.assigned_count % 2 == 0 else p2
    session = (position.formula, n, config, position.mover is parity_mover)
    if memo.setdefault(_SESSION, session) != session:
        raise ValueError("memo belongs to another formula, ruleset or root mover")
    circuit = Circuit(position.formula, n)
    assign, unassign = circuit.assign, circuit.unassign
    values = list(position.assignment.values)
    root_key = 0
    for var, value in position.assignment.items():
        assign(var, value)
        root_key += (1 + value) << 2 * var
    nodes = 0

    def search(root, mover, k, key):
        nonlocal nodes
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget)
        opponent = mover.opponent
        if root is not None:
            # Assigning more variables cannot change a decided root.
            if not same:
                result = (p1 if root else p2, None)
                memo[key] = result
                return result[0]
            if not root:
                # every move keeps the fold false, so none is legal
                memo[key] = (opponent, None)
                return opponent
        if local:
            cand_vars = (k,) if k < n else ()
        else:
            cand_vars = [i for i in range(n) if values[i] is None]
        if by_player:
            cand_values = (True,) if mover is p1 else (False,)
        else:
            cand_values = (False, True)
        first_legal = None
        winning = None
        for var in cand_vars:
            for value in cand_values:
                if root is None:
                    child = assign(var, value)
                    # the `blatantly_false` rule: illegal iff the fold is false
                    if same and child is False:
                        unassign(var)
                        continue
                else:
                    child = root
                if first_legal is None:
                    first_legal = Move(var, value)
                values[var] = value
                w = search(child, opponent, k + 1, key + ((1 + value) << 2 * var))
                values[var] = None
                if root is None:
                    unassign(var)
                if w is mover:
                    winning = Move(var, value)
                    break
            if winning is not None:
                break
        if winning is not None:
            result = (mover, winning)
        else:
            # a same-goal mover with no legal move loses
            result = (opponent, first_legal)
        memo[key] = result
        return result[0]

    # `search` recurses once per move; a line has at most n moves.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)
    try:
        won = search(circuit.value, position.mover, position.assignment.assigned_count, root_key)
    finally:
        sys.setrecursionlimit(limit)

    variation = []
    key = root_key
    while True:
        move = memo[key][1]
        if move is None:
            break
        variation.append(move)
        values[move.var] = move.value
        key += (1 + move.value) << 2 * move.var
    if not same:
        mover = position.mover if len(variation) % 2 == 0 else position.mover.opponent
        for var in range(n):
            if values[var] is None:
                variation.append(Move(var, mover is p1 if by_player else False))
                mover = mover.opponent
    return Outcome(winner=won, variation=variation, nodes=nodes)


def solve_naive(position: Position, var_limit: int = DEFAULT_NAIVE_LIMIT) -> Outcome:
    """Reference solver: pure recursion over the engine rules, no memo.

    Deliberately shares nothing with `solve` beyond the engine itself, so
    the two act as independent routes for cross-checking.
    """
    if position.n > var_limit:
        raise NaiveLimitError(position.n, var_limit)
    nodes = 0

    def search(p):
        nonlocal nodes
        nodes += 1
        moves = legal_moves(p)
        if not moves:
            return final_winner(p)
        for m in moves:
            if search(apply_move(p, m)) is p.mover:
                return p.mover
        return p.mover.opponent

    return Outcome(winner=search(position), variation=None, nodes=nodes)


def solve_abstract(game, node_budget: int = DEFAULT_NODE_BUDGET) -> Outcome:
    """Backward induction over a finite two-player game, memoized on state.

    `game` provides `initial_state()`, `mover(state) -> Player`,
    `legal_moves(state) -> list`, `apply(state, move)`,
    `is_terminal(state) -> bool` and `winner(state) -> Player`; states must
    be hashable.
    """
    memo = {}
    nodes = 0

    def search(state):
        nonlocal nodes
        hit = memo.get(state)
        if hit is not None:
            return hit[0]
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget)
        if game.is_terminal(state):
            result = (game.winner(state), None)
        else:
            mover = game.mover(state)
            moves = game.legal_moves(state)
            winning = None
            for m in moves:
                if search(game.apply(state, m)) is mover:
                    winning = m
                    break
            if winning is not None:
                result = (mover, winning)
            else:
                result = (mover.opponent, moves[0])
        memo[state] = result
        return result[0]

    state = game.initial_state()
    won = search(state)
    variation = []
    while True:
        move = memo[state][1]
        if move is None:
            break
        variation.append(move)
        state = game.apply(state, move)
    return Outcome(winner=won, variation=variation, nodes=nodes)
