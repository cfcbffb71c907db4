"""Independent reference verdicts for CNF positions.

The eight rulesets' rules are applied straight to clause lists held as bit
masks; nothing here imports `qbfgames`, so a defect in the program's
formula, engine or solver layers cannot also hide in the expected answer.

Every position starts from the empty assignment with the first player (P1)
to move.  P1 writes True and P2 False under the by-player choice rule.
Under the different goal P1 wins iff the formula is true once every variable
is set.  Under the same goal a move that leaves some clause with all its
literals false is illegal and a player with no legal move loses.

Two cuts that hold for every ruleset keep the search small; neither is
shared with the program.  Under the different goal the winner is fixed as
soon as every clause is satisfied (P1) or one is falsified (P2).  Under the
same goal, once every clause is satisfied no move can be illegal, so play
runs to the full assignment and P1 wins iff n is odd.
"""

from __future__ import annotations

P1, P2 = 1, 2


class _Clauses:
    def __init__(self, n: int, clauses):
        self.n = n
        self.pos = []
        self.neg = []
        self.occurs = [[] for _ in range(n)]
        for index, clause in enumerate(clauses):
            pos = neg = 0
            for var, negated in clause:
                if not 0 <= var < n:
                    raise ValueError(f"variable x{var} out of range for {n}")
                if negated:
                    neg |= 1 << var
                else:
                    pos |= 1 << var
                self.occurs[var].append(index)
            self.pos.append(pos)
            self.neg.append(neg)

    def falsified_by(self, true_mask: int, false_mask: int, var: int) -> bool:
        """Whether a clause containing `var` has every literal false."""
        return any(
            self.pos[c] & ~false_mask == 0 and self.neg[c] & ~true_mask == 0
            for c in self.occurs[var]
        )

    def any_falsified(self, true_mask: int, false_mask: int) -> bool:
        return any(
            pos & ~false_mask == 0 and neg & ~true_mask == 0
            for pos, neg in zip(self.pos, self.neg)
        )

    def unsatisfied(self, true_mask: int, false_mask: int) -> int:
        """How many clauses no assigned literal satisfies yet."""
        return sum(
            1 for pos, neg in zip(self.pos, self.neg) if not (pos & true_mask or neg & false_mask)
        )


def _parse_ruleset(ruleset: str):
    choice, locality, goal = ruleset.rsplit("-", 2)
    if (
        choice not in ("either", "by-player")
        or locality not in ("local", "anywhere")
        or goal not in ("different", "same")
    ):
        raise ValueError(f"unknown ruleset {ruleset!r}")
    return choice == "by-player", locality == "local", goal == "same"


class EffortLimitExceeded(Exception):
    """The search did more work than the caller allowed."""


def reference_winner(ruleset: str, n: int, clauses, effort_limit: int | None = None):
    """(winner, effort): the winner (1 or 2) under optimal play from the
    empty assignment, and the work the search did.

    Effort is the number of clauses still unsatisfied, summed over the
    states the search visits; it tracks the program's search time more
    closely than a count of states.  On a forced line it is the number of
    moves played.  Raises EffortLimitExceeded once it passes `effort_limit`.
    """
    by_player, local, same = _parse_ruleset(ruleset)
    cnf = _Clauses(n, clauses)
    if by_player and local:
        return _forced_line(cnf, same)
    return _minimax(cnf, by_player, local, same, effort_limit)


def _forced_line(cnf: _Clauses, same: bool) -> tuple:
    """by-player-local: one candidate move per turn, so play it out."""
    true_mask = false_mask = 0
    for var in range(cnf.n):
        mover = P1 if var % 2 == 0 else P2
        if mover == P1:
            true_mask |= 1 << var
        else:
            false_mask |= 1 << var
        if same and cnf.falsified_by(true_mask, false_mask, var):
            return (P2 if mover == P1 else P1), var + 1
    if same:
        return (P1 if cnf.n % 2 == 1 else P2), cnf.n + 1
    return (P1 if cnf.unsatisfied(true_mask, false_mask) == 0 else P2), cnf.n + 1


def _minimax(cnf: _Clauses, by_player: bool, local: bool, same: bool, effort_limit) -> tuple:
    n = cnf.n
    memo = {}
    limit = float("inf") if effort_limit is None else effort_limit
    effort = 0

    def search(true_mask: int, false_mask: int, assigned: int) -> int:
        nonlocal effort
        key = (true_mask, false_mask)
        known = memo.get(key)
        if known is not None:
            return known
        unsatisfied = cnf.unsatisfied(true_mask, false_mask)
        effort += unsatisfied
        if effort > limit:
            raise EffortLimitExceeded(limit)
        if unsatisfied == 0:
            won = (P1 if n % 2 == 1 else P2) if same else P1
        elif not same and cnf.any_falsified(true_mask, false_mask):
            won = P2
        else:
            won = _best(true_mask, false_mask, assigned)
        memo[key] = won
        return won

    def _best(true_mask: int, false_mask: int, assigned: int) -> int:
        mover = P1 if assigned % 2 == 0 else P2
        if local:
            variables = [assigned] if assigned < n else []
        else:
            taken = true_mask | false_mask
            variables = [v for v in range(n) if not taken >> v & 1]
        if by_player:
            values = (mover == P1,)
        else:
            values = (False, True)
        for var in variables:
            bit = 1 << var
            for value in values:
                t = true_mask | bit if value else true_mask
                f = false_mask if value else false_mask | bit
                if same and cnf.falsified_by(t, f, var):
                    continue
                if search(t, f, assigned + 1) == mover:
                    return mover
        # every move loses, or (same goal) the mover is stuck
        return P2 if mover == P1 else P1

    won = search(0, 0, 0)
    return won, effort
