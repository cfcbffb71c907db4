"""Exact winner determination.

`solve` runs win/loss backward induction memoized on the assignment vector
(the formula, ruleset, and variable count are constants within one solve
session, and the mover follows from parity).  `solve_naive` is the
independent oracle: plain recursion straight over the engine rules, no
memoization, no shortcuts.  `simulate_local_by_player` plays out the two
choice-free rulesets in linear time.  `solve_abstract` applies the same
induction to any finite two-player game behind a small interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    BooleanChoice,
    GameTrace,
    Goal,
    Locality,
    Move,
    Player,
    Position,
    apply_move,
    legal_moves,
    winner,
)
from .formula import Const, simplify, substitute

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_NAIVE_LIMIT = 12


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


class UnsupportedConfigError(Exception):
    """The operation only applies to specific ruleset configurations."""


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

    The principal variation follows the first winning move in the normative
    order (ascending variable, false before true), or the first legal move
    from losing positions.  A `memo` dict may be passed back in to warm-start
    further solves of positions from the same formula/ruleset session.
    """
    config = position.config
    n = position.n
    local = config.locality is Locality.LOCAL
    by_player = config.choice is BooleanChoice.BY_PLAYER
    same = config.goal is Goal.SAME
    if memo is None:
        memo = {}
    values = list(position.assignment.values)
    nodes = 0
    p1, p2 = Player.P1, Player.P2

    def search(simp, mover, k):
        nonlocal nodes
        key = tuple(values)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget)
        if local:
            cand_vars = (k,) if k < n else ()
        else:
            cand_vars = [i for i in range(n) if values[i] is None]
        if by_player:
            cand_values = (True,) if mover is p1 else (False,)
        else:
            cand_values = (False, True)
        opponent = mover.opponent
        first_legal = None
        winning = None
        for var in cand_vars:
            for value in cand_values:
                values[var] = value
                child = substitute(simp, values)
                if same and isinstance(child, Const) and not child.value:
                    values[var] = None
                    continue
                if first_legal is None:
                    first_legal = Move(var, value)
                w = search(child, opponent, k + 1)
                values[var] = None
                if w is mover:
                    winning = Move(var, value)
                    break
            if winning is not None:
                break
        if winning is not None:
            result = (mover, winning)
        elif first_legal is not None:
            result = (opponent, first_legal)
        elif same:
            result = (opponent, None)
        else:
            # different goal with every variable assigned: simp is constant
            result = (p1 if simp.value else p2, None)
        memo[key] = result
        return result[0]

    root_simplified = simplify(position.formula, position.assignment)
    won = search(root_simplified, position.mover, position.assignment.assigned_count)

    variation = []
    walk = list(position.assignment.values)
    while True:
        move = memo[tuple(walk)][1]
        if move is None:
            break
        variation.append(move)
        walk[move.var] = move.value
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
            return winner(p)
        for m in moves:
            if search(apply_move(p, m)) is p.mover:
                return p.mover
        return p.mover.opponent

    return Outcome(winner=search(position), variation=None, nodes=nodes)


def simulate_local_by_player(position: Position):
    """Play out a by-player-local game move by move.

    These rulesets admit at most one legal move per position, so the game is
    a single forced line; cost is one blatancy check per move.  Returns
    (Outcome, GameTrace); the outcome's node count equals the number of
    moves played.
    """
    config = position.config
    if not (
        config.locality is Locality.LOCAL
        and config.choice is BooleanChoice.BY_PLAYER
    ):
        raise UnsupportedConfigError(
            f"simulation applies to by-player-local rulesets, not {config.name}"
        )
    p = position
    moves = []
    while True:
        step = legal_moves(p)
        if not step:
            break
        moves.append(step[0])
        p = apply_move(p, step[0])
    outcome = Outcome(winner=winner(p), variation=list(moves), nodes=len(moves))
    return outcome, GameTrace(position, moves)


class AbstractGame:
    """Finite two-player game with alternating movers; states must be hashable."""

    def initial_state(self):
        raise NotImplementedError

    def mover(self, state) -> Player:
        raise NotImplementedError

    def legal_moves(self, state) -> list:
        raise NotImplementedError

    def apply(self, state, move):
        raise NotImplementedError

    def is_terminal(self, state) -> bool:
        raise NotImplementedError

    def winner(self, state) -> Player:
        raise NotImplementedError


def solve_abstract(game: AbstractGame, node_budget: int = DEFAULT_NODE_BUDGET) -> Outcome:
    """Backward induction over an AbstractGame, memoized on state."""
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
