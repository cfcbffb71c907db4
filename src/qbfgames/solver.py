"""Exact winner determination.

`solve` runs win/loss backward induction on a compiled `Circuit`, taking
its candidate moves from `engine.candidates`, the one move rule.  Under
the anywhere rulesets it tries first the moves that send the most literal
occurrences toward the mover's goal, a static order in the manner of the
Jeroslow-Wang and MOMS branching rules of DPLL.  Its memo maps a key of
the position to the winner and nothing else (the formula, ruleset,
variable count and root mover are fixed within one solve, so the key fixes
the mover).  Under the local rulesets the key is the residual: the move
index, the root's value and the circuit's decided gates, the
component-cache key of #SAT search (Bacchus, Dalmao and Pitassi, FOCS
2003), so positions with the same residual share an entry.  Under the
anywhere rulesets it is the assignment, as a base-4 integer.  The principal
variation is read back from the winners after the search in the normative
move order, so it does not depend on the search order, and `line=False`
skips that walk for a caller that reads only the winner.  Its `nodes`
counts visited positions.  A move is taken back by restoring a copy of the
circuit's counters.  There are three kinds of leaf.  A position whose fold
is already a constant is one: under the different goal the constant names
the winner, and under the same goal a true fold leaves every later move
legal, so the parity of the open variables does.  Below it the variation is
written without search, and on such a root `solve` sets nothing up.  Under
the different goal a position that a clause rule gives to P2 is one:
universal reduction under local play, one-literal threats under anywhere
play (`rules.clause_rule`).  On the two by-player-local rulesets every
position has at most one move, so `solve` walks the one forced line in at
most n + 1 nodes, however long it is, copies no counters on it and keys
each node on its move index alone.  `solve_naive` is the independent
oracle: plain recursion straight over the engine rules, no memoization, no
shortcuts.  `solve_abstract` applies the same induction to any finite
two-player game that has the five methods it calls and reports only the
winner; it is a separate search on purpose, so that a reduction check's
source side shares no code with `solve`.
"""

from __future__ import annotations

import sys
from itertools import chain
from operator import itemgetter

from .engine import (
    Goal,
    Locality,
    Player,
    Position,
    apply_move,
    candidates,
    final_winner,
    legal_moves,
)
from .formula import Circuit, DecidedCircuit, Record

# `solve` folds through `Circuit`; the fold's own entry points stay bound
# here because perfbench/layers.py traces calls to them through this module.
from .formula import simplify, substitute  # noqa: F401

# The memo gains at most one entry per counted node, so the node budget also
# bounds memo memory: 10**7 entries of about 100 B, an int key and a shared
# `Player`, is 1 GB while the key is small: log2 n bits on a forced line, a
# bit per gate more under either-local play, and 2n bits under anywhere play.
DEFAULT_NODE_BUDGET = 10**7
NAIVE_LIMIT = 12
# `solve` reads the anywhere one-literal threats only from this many open
# variables up: below it the rule's fixed cost per solve and per move
# outweighed the nodes it saved, on random CNF and positive CNF positions.
THREAT_MIN_OPEN = 9


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


class NaiveLimitError(ValueError):
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


def _goal_orders(circuit: Circuit, config) -> tuple:
    """P1's and P2's moves, the values `config.choices` gives them on the
    open variables that occur, in the order `solve` searches them: first the
    move that sends the most of its variable's literal occurrences toward
    the mover's goal, ties in the normative order.  P1 under the different
    goal wants the formula true and counts the occurrences a move
    satisfies; every other mover counts those it falsifies.

    A move falsifies its (gate, hit=False) occurrences in `_occ[var][value]`
    and satisfies the rest.  `_occ[var][True]` holds the complement hits of
    `_occ[var][False]`, so one sum per variable counts both values: false
    falsifies `low` occurrences and true falsifies `high`.
    """
    values, hits = circuit.values, itemgetter(1)
    same = config.goal is Goal.SAME
    # each move's weight for a falsifier and for a satisfier, negated so that
    # ascending sorts heaviest first; the keys go in the normative order
    falsify, satisfy = {}, {}
    for var, (falses, _) in sorted(circuit._occ.items()):
        if values[var] is None:
            high = sum(map(hits, falses))
            low = len(falses) - high
            falsify[var, False], falsify[var, True] = -low, -high
            satisfy[var, False], satisfy[var, True] = -high, -low

    def order(weights, mover):
        # the sort is stable, so equal weights keep the normative order
        choices = config.choices(mover)
        return sorted((m for m in weights if m[1] in choices), key=weights.__getitem__)

    return order(falsify if same else satisfy, Player.P1), order(falsify, Player.P2)


def solve(
    position: Position,
    node_budget: int = DEFAULT_NODE_BUDGET,
    memo: dict | None = None,
    line: bool = True,
) -> Outcome:
    """Optimal-play winner by memoized backward induction.

    The formula is compiled once into a `Circuit`, which gives the root's
    three-valued fold after each move; a same-goal move is illegal iff it
    turns the root false.  A position whose root is already decided is a
    leaf, since its winner is fixed whatever is played: under the different
    goal the root's value names it, and under the same goal a true root
    leaves every move legal, so each open variable is played and the mover
    wins iff their count is odd.  A decided root sets nothing up for the
    search.  Under the different goal a position that a clause rule gives to
    P2 is a leaf too (see `rules.clause_rule`): under either-local-different
    from two open variables up, and under the anywhere rulesets from
    `THREAT_MIN_OPEN` up.  `nodes` counts the positions visited, leaves of
    both kinds included.

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
    lacks is searched then, and counted, unless a clause rule gives it to P2.
    Once the line reaches a decided root every move keeps the winner, so the
    rest of the line is written without search: the lowest open variable at
    each turn, false unless the ruleset fixes the value.  With `line` false
    the walk is skipped: the outcome's variation is None and `nodes` counts
    the winner search alone.

    The memo's key depends on the locality.  Under the local rulesets every
    variable below the move index k is assigned, so the rest of the game
    depends on k and the residual formula alone, and the key is (k, the
    root's value, the circuit's decided gates) packed into one int: every
    gate over variables below k is decided, so no mask is needed, and
    positions with the same residual share an entry.  A by-player-local
    circuit keeps no decided gates and needs none: a forced line has one
    position per k.  Under the anywhere rulesets the key is the assignment,
    as a base-4 integer with digit 0 (unassigned), 1 (false) or 2 (true) for
    variable i at 4^i.  A `memo` dict passed in must be empty, or ValueError
    is raised; `solve` fills it with one entry per counted node, so a caller
    can size it afterwards.  Only legal children are searched, so every
    entry is legal.  A base-4 child the memo holds is neither played nor
    searched; a residual key is known only once the move is played.  A node
    that may try a second move copies the circuit's counters before its
    first, and takes each move back by restoring the copy: one copy per
    branching level of the current line, and none on a forced line, so that
    it stays linear.  The root is restored for the walk.
    """
    config = position.config
    n = position.n
    same = config.goal is Goal.SAME
    p1, p2 = Player.P1, Player.P2
    if memo is None:
        memo = {}
    elif memo:
        raise ValueError("memo must start empty")
    lookup = memo.get
    local = config.locality is Locality.LOCAL
    branching = not local or len(config.choices(p1)) > 1
    # either-local: the residual key reads the decided gates of `DecidedCircuit`
    circuit = (DecidedCircuit if local and branching else Circuit)(position.formula, n)
    assign, counts, values, occ = circuit.assign, circuit.counts, circuit.values, circuit._occ
    for var, value in enumerate(position.assignment):
        if value is not None:
            assign(var, value)
    nodes = 0
    assigned = n - position.assignment.count(None)
    shift = n.bit_length()

    def residual_key(root, k):
        """The key of a played position under local play."""
        return (counts[-1] << shift | k) << 1 | (root is True)

    if local:
        root_key = residual_key(circuit.value, assigned)
    else:
        root_key = sum((1 + v) << 2 * i for i, v in enumerate(position.assignment) if v is not None)
    rule = None
    if circuit.value is None:  # a decided root is a leaf, and reads none of this
        # A rule is read only on a child whose root is open, which takes two
        # open variables; the anywhere threats pay from THREAT_MIN_OPEN up.
        if not same and branching and n - assigned >= (2 if local else THREAT_MIN_OPEN):
            # imported here, so that only a process that reads clauses compiles them
            from .rules import clause_rule

            rule = clause_rule(circuit, position, local, assigned)

        if not local:
            p1_order, p2_order = _goal_orders(circuit, config)
            complete = len(occ) == n

            def ordered(config, mover, values, k):
                """`candidates` in the search's order: the goal order, which
                may hold assigned variables, then the candidates on variables
                that do not occur, lazily."""
                moves = p1_order if mover is p1 else p2_order
                if complete:
                    return moves
                tail = candidates(config, mover, values, k)
                return chain(moves, ((i, c) for i, c in tail if i not in occ))

    def search(root, mover, k, key):
        """The winner of a position the memo does not hold."""
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget)
        if root is not None:
            # Assigning more variables cannot change a decided root.  Under
            # the different goal it names the winner.  Under the same goal a
            # true root leaves every move legal, so all n - k open variables
            # are played and the mover wins iff their count is odd; a false
            # one, only ever the starting root, leaves the mover no move.
            # A clause rule's leaf comes here as a false root.
            if not same:
                won = p1 if root else p2
            else:
                won = mover if root and (n - k) % 2 else mover.opponent
        elif local:
            # x_k under each value: the key needs the move played
            won = opponent = mover.opponent
            saved = counts[:] if branching else None
            for var, value in candidates(config, mover, values, k):
                child = assign(var, value)
                child_key = (counts[-1] << shift | k + 1) << 1 | (child is True)  # residual_key
                child_won = lookup(child_key)
                if child_won is None and not (same and child is False):
                    if rule is not None and child is None and rule(var, value, opponent, k + 1):
                        child = False
                    child_won = search(child, opponent, k + 1, child_key)
                if saved is not None:
                    counts[:] = saved
                    values[var] = None
                if child_won is mover:
                    won = mover
                    break
        else:
            # a same-goal mover with no legal move loses
            won = opponent = mover.opponent
            saved = counts[:]
            for var, value in ordered(config, mover, values, k):
                if values[var] is not None:
                    continue
                child_key = key + ((1 + value) << 2 * var)
                child_won = lookup(child_key)
                if child_won is None:
                    child = assign(var, value)
                    # the `blatantly_false` rule: illegal iff the fold is false
                    if not (same and child is False):
                        if rule is not None and child is None and rule(var, value, opponent, k + 1):
                            child = False
                        child_won = search(child, opponent, k + 1, child_key)
                    counts[:] = saved
                    values[var] = None
                if child_won is mover:
                    won = mover
                    break
        memo[key] = won
        return won

    def walk(root, mover, k):
        """The winner, then the principal variation by the normative rule."""
        root_counts, root_values = counts[:], values[:]
        won = search(root, mover, k, root_key)
        counts[:], values[:] = root_counts, root_values
        lost = won.opponent
        variation = []
        key = root_key
        while root is None:
            saved = counts[:] if branching else None
            for var, value in candidates(config, mover, values, k):
                child = assign(var, value)
                if local:
                    child_key = residual_key(child, k + 1)
                else:
                    child_key = key + ((1 + value) << 2 * var)
                held = rule is not None and child is None and rule(var, value, mover.opponent, k + 1)
                if (not same or child is not False) and (
                    mover is not won
                    or (p2 if held else lookup(child_key)
                        or search(child, mover.opponent, k + 1, child_key)) is not lost
                ):
                    break
                if saved is not None:
                    counts[:] = saved
                    values[var] = None
            else:
                return won, variation
            variation.append((var, value))
            root, mover, k, key = child, mover.opponent, k + 1, child_key
        # A decided root keeps its winner whatever is played, so each move is the
        # lowest open variable; a false same-goal root (the first) has no move.
        if not same or root:
            for var in range(n):
                if values[var] is None:
                    variation.append((var, config.choices(mover)[0]))
                    mover = mover.opponent
        return won, variation

    # `search` recurses once per move, and a line has at most n moves.
    if not line:
        won = call_deep(n, search, circuit.value, position.mover, assigned, root_key)
        return Outcome(won, nodes=nodes)
    won, variation = call_deep(n, walk, circuit.value, position.mover, assigned)
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
