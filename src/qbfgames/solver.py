"""Exact winner determination.

`solve` runs win/loss backward induction on a compiled `Circuit`.  Under
the anywhere rulesets it tries first the moves that send the most literal
occurrences toward the mover's goal, a static order in the manner of the
Jeroslow-Wang and MOMS branching rules of DPLL.  Its memo maps the
assignment, as a base-4 integer, to the winner and nothing else (the
formula, ruleset, variable count and root mover are fixed within one solve,
so the assignment fixes the mover); the principal variation is read back
from the winners after the search in the normative move order, so it does
not depend on the search order.  Its `nodes` counts visited
positions; under the different goal a position whose fold is already a
constant is a leaf.  On the two by-player-local rulesets every position has
at most one move, so `solve` walks the one forced line in at most n + 1
nodes, however long it is.  `solve_naive` is the independent oracle: plain
recursion straight over the engine rules, no memoization, no shortcuts.
`solve_abstract` applies the same induction to any finite two-player game
that has the five methods it calls and reports only the winner; it is a
separate search on purpose, so that a reduction check's source side shares
no code with `solve`.
"""

from __future__ import annotations

import sys
from itertools import chain, product
from operator import itemgetter

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
from .formula import Circuit, Record

# `solve` folds through `Circuit`; the fold's own entry points stay bound
# here because perfbench/layers.py traces calls to them through this module.
from .formula import simplify, substitute  # noqa: F401

# The memo gains at most one entry per counted node, so the node budget also
# bounds memo memory: 10**7 entries, an int key and a shared `Player` at
# about 100 B each while n is below about 40 (a key has 2n bits), is 1 GB.
DEFAULT_NODE_BUDGET = 10**7
NAIVE_LIMIT = 12


class BudgetExceededError(Exception):
    """The search passed its node budget; the result would be incomplete."""

    def __init__(self, budget: int):
        super().__init__(f"node budget of {budget} exceeded")
        self.budget = budget


def call_deep(extra: int, fn, *args):
    """fn(*args) with the recursion limit raised by `extra` levels, as far
    as the interpreter's C int allows, and restored afterwards."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + min(extra, 2**31 - 1 - limit))
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


class NaiveLimitError(Exception):
    """solve_naive refused an instance above its variable bound."""

    def __init__(self, n: int, limit: int):
        super().__init__(f"naive solver limited to {limit} variables, got {n}")
        self.n = n
        self.limit = limit


class Outcome(Record):
    """Optimal-play result: winner, `solve`'s optimal line, search effort."""

    __slots__ = ("winner", "variation", "nodes")
    __hash__ = None

    def __init__(self, winner: Player, variation: list | None = None, nodes: int = 0):
        super().__init__(winner, variation, nodes)


def _goal_orders(circuit: Circuit, same: bool, by_player: bool) -> tuple:
    """P1's and P2's moves on the open variables that occur, in the order
    `solve` searches them: first the move that sends the most of its
    variable's literal occurrences toward the mover's goal, ties in the
    normative order.  P1 under the different goal wants the formula true
    and counts the occurrences a move satisfies; every other mover counts
    those it falsifies.

    A move falsifies its (gate, hit=False) occurrences in `_occ[var][value]`
    and satisfies the rest.  `_occ[var][True]` holds the complement hits of
    `_occ[var][False]`, so one sum per variable counts both values: false
    falsifies `low` occurrences and true falsifies `high`.
    """
    values, hits = circuit.values, itemgetter(1)
    # each move's weight for a falsifier and for a satisfier, negated so that
    # ascending sorts heaviest first; the keys go in the normative order
    falsify, satisfy = {}, {}
    for var, (falses, _) in sorted(circuit._occ.items()):
        if values[var] is None:
            high = sum(map(hits, falses))
            low = len(falses) - high
            falsify[var, False], falsify[var, True] = -low, -high
            satisfy[var, False], satisfy[var, True] = -high, -low

    def order(weights, value=None):
        # the sort is stable, so equal weights keep the normative order
        moves = weights if value is None else [m for m in weights if m[1] is value]
        return sorted(moves, key=weights.__getitem__)

    p1_weights = falsify if same else satisfy
    if by_player:
        # P1 plays true, P2 false
        return order(p1_weights, True), order(falsify, False)
    return order(p1_weights), order(falsify)


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

    A node stops at its mover's first winning move, so the order of the
    moves decides the work.  Under the anywhere rulesets the search tries
    them in the goal-aware order of `_goal_orders`, fixed once per solve
    over the variables that occur; those that do not occur follow in
    ascending order.  Under the local rulesets there is one variable to play.

    The memo maps each visited position to its winner.  The principal
    variation is read back from it with the normative rule, since the winner
    never changes along an optimal line: the loser plays their first legal
    move in the normative order, and the winner their first legal move after
    which the memo does not give the game to the loser.  A child the memo
    lacks is searched then, and counted.  Once the line reaches a decided
    different-goal root every move keeps the winner, so the rest of the line
    is the lowest open variable at each turn, false unless the ruleset fixes
    the value.

    The memo keys on the assignment alone, as a base-4 integer with digit 0
    (unassigned), 1 (false) or 2 (true) for variable i at 4^i.  A `memo`
    dict passed in must be empty, or ValueError is raised; `solve` fills it
    with one entry per counted node, so a caller can size it afterwards.
    """
    config = position.config
    n = position.n
    local = config.locality is Locality.LOCAL
    by_player = config.choice is BooleanChoice.BY_PLAYER
    same = config.goal is Goal.SAME
    p1, p2 = Player.P1, Player.P2
    if memo is None:
        memo = {}
    elif memo:
        raise ValueError("memo must start empty")
    circuit = Circuit(position.formula, n)
    assign, unassign, values, occ = circuit.assign, circuit.unassign, circuit.values, circuit._occ
    assigned = position.assignment.items()
    root_key = 0
    for var, value in assigned:
        assign(var, value)
        root_key += (1 + value) << 2 * var
    nodes = 0

    def normative(mover, k):
        """The mover's candidate moves in the normative order: ascending
        variable, false before true; a same-goal one may be illegal."""
        choices = (mover is p1,) if by_player else (False, True)
        if local:
            return product((k,) if k < n else (), choices)
        # lazy, so a walk cut short never lists the open variables
        return ((i, c) for i in range(n) if values[i] is None for c in choices)

    if local:
        candidates = normative
    else:
        p1_order, p2_order = _goal_orders(circuit, same, by_player)
        complete = len(occ) == n

        def candidates(mover, k):
            """The goal order, then the variables that do not occur, lazily;
            a move may be on an assigned variable."""
            moves = p1_order if mover is p1 else p2_order
            if complete:
                return moves
            choices = (mover is p1,) if by_player else (False, True)
            return chain(moves, ((i, c) for i in range(n) if i not in occ for c in choices))

    def search(root, mover, k, key):
        nonlocal nodes
        won = memo.get(key)
        if won is not None:
            return won
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget)
        if root is not None and not same:
            # Assigning more variables cannot change a decided root.
            won = p1 if root else p2
        else:
            # a same-goal mover with no legal move loses
            won = opponent = mover.opponent
            for var, value in candidates(mover, k):
                if values[var] is not None:
                    continue
                child = assign(var, value)
                # the `blatantly_false` rule: illegal iff the fold is false
                wins = not (same and child is False) and (
                    search(child, opponent, k + 1, key + ((1 + value) << 2 * var)) is mover
                )
                unassign(var)
                if wins:
                    won = mover
                    break
        memo[key] = won
        return won

    def line(root, mover, k):
        """The winner and the principal variation.  The winner keeps the
        game along an optimal line: in the normative order the loser plays
        their first legal move, the winner their first after which the game
        is not the loser's, searching any child that the memo lacks."""
        won = search(root, mover, k, root_key)
        lost = won.opponent
        variation = []
        key = root_key
        while same or root is None:
            for var, value in normative(mover, k):
                child = assign(var, value)
                child_key = key + ((1 + value) << 2 * var)
                if (not same or child is not False) and (
                    mover is not won
                    or search(child, mover.opponent, k + 1, child_key) is not lost
                ):
                    break
                unassign(var)
            else:
                return won, variation
            variation.append(Move(var, value))
            root, mover, k, key = child, mover.opponent, k + 1, child_key
        # A decided different-goal root keeps its winner whatever is played,
        # so each move is the normative first: the lowest open variable.
        for var in range(n):
            if values[var] is None:
                variation.append(Move(var, by_player and mover is p1))
                mover = mover.opponent
        return won, variation

    # `search` recurses once per move, and a line has at most n moves.
    won, variation = call_deep(n, line, circuit.value, position.mover, len(assigned))
    return Outcome(winner=won, variation=variation, nodes=nodes)


def solve_naive(position: Position) -> Outcome:
    """Reference solver: pure recursion over the engine rules, no memo.

    Deliberately shares nothing with `solve` beyond the engine itself, so
    the two act as independent routes for cross-checking.
    """
    if position.n > NAIVE_LIMIT:
        raise NaiveLimitError(position.n, NAIVE_LIMIT)
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

    return Outcome(search(position), nodes=nodes)


def solve_abstract(game, node_budget: int = DEFAULT_NODE_BUDGET) -> Outcome:
    """Backward induction over a finite two-player game, memoized on state.

    `game` provides `initial_state()`, `mover(state) -> Player`,
    `legal_moves(state) -> list`, `apply(state, move)` and
    `winner(state) -> Player`; states must be hashable.  A state is finished
    iff it has no legal move, and `winner` is asked only there, so each node
    builds one move list.  The memo maps each state to its winner, and the
    outcome has no variation.
    """
    memo = {}
    nodes = 0

    def search(state):
        nonlocal nodes
        won = memo.get(state)
        if won is not None:
            return won
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget)
        moves = game.legal_moves(state)
        if not moves:
            won = game.winner(state)
        else:
            mover = game.mover(state)
            won = mover.opponent
            for m in moves:
                if search(game.apply(state, m)) is mover:
                    won = mover
                    break
        memo[state] = won
        return won

    # `search` recurses once per move, and a line never holds more
    # positions than the search counts.
    won = call_deep(node_budget + 1, search, game.initial_state())
    return Outcome(won, nodes=nodes)
