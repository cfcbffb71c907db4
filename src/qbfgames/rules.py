"""Clause-level leaves for `solver.solve` under the different goal.

A clause is an Or gate of a compiled `Circuit` directly under the root And
whose children are literals on distinct variables.  `clause_rule` builds,
once per solve, the rule that gives a position to P2 from the clauses that
hold the variable just played; only a literal that occurs in a clause gets
a list of its own.  `solve` imports this module only when it sets such a
rule up, so a process that never does, such as a forced line, a same-goal
solve, a small one or one whose root is decided, does not compile it.
"""

from __future__ import annotations

from .engine import BooleanChoice, Player, Position
from .formula import Circuit


def _clauses(circuit: Circuit) -> dict:
    """The formula's clauses, each as its list of (var, positive) literals,
    by gate: an Or gate directly under the root And whose children are
    literals on distinct variables.  Gates of any other shape are left out,
    and no rule that reads clauses looks at them."""
    parent = circuit._parent
    inner = set(parent)  # the gates that have a child gate
    literals, repeated = {}, set()
    for var, (falses, _) in circuit._occ.items():
        for gate, hit in falses:
            if parent[gate] or gate in inner:
                continue
            lits = literals.get(gate)
            if lits is None:
                literals[gate] = [(var, not hit)]  # an Or gate hits iff the literal is negated
            elif lits[-1][0] == var:  # each variable's occurrences come together
                repeated.add(gate)
            else:
                lits.append((var, not hit))
    for gate in repeated:
        del literals[gate]
    return literals


def clause_rule(circuit: Circuit, position: Position, local: bool, first: int):
    """`rule(var, value, mover, k)` for a different-goal solve whose moves
    branch from move `first`: at move k, after var=value and with `mover`
    to move, a clause that gives the game to P2, or 0.  It reads the clauses
    that hold var and the one it kept for move k - 1, so a case it misses
    costs nodes, never a wrong winner.  `solve` calls it on a child before
    it visits the child's children, so what it kept for k - 1 is the
    current line's.

    Under either-local-different each variable's owner is fixed: x_j is
    played by the mover of move j.  An open clause whose open literals are
    all P2's is lost for P1, since P2 falsifies them one per turn; this is
    universal reduction's empty clause (Kleine Buening, Karpinski and
    Floegel, 1995).  A clause is listed under the move that plays its last
    P1 variable (the root's move if it has none left), so the rule checks
    each clause once, when it first becomes P2's alone.  The rule keeps the
    clause it finds, which stays P2's alone while it is open; below such a
    position, where only the principal-variation walk goes, it looks
    through every clause listed so far once P2 has satisfied that one.

    Under the anywhere different-goal rulesets the rule reads the clauses
    whose literal on var the move falsified, for the one-literal threats of
    Maker-Breaker games: with P2 to move, an open one-literal clause P2 may
    falsify is lost for P1; with P1 to move, so are two such clauses that
    no single P1 move satisfies.  Under by-player P2 writes only false, so
    only positive literals count.  P1 facing one threat must answer it: the
    rule keeps it, and with P2 to move next reads whether it is still open.
    """
    counts, values, base = circuit.counts, circuit.values, circuit._base
    clauses = _clauses(circuit)
    p2 = Player.P2
    kept = [0] * (position.n + 2)  # by move, the clause the rule last kept
    if local:
        # x_j is P1's iff P1 makes move j
        p1_parity = (first + (position.mover is p2)) % 2
        due = {}
        for gate, lits in clauses.items():
            last = max((var for var, _ in lits if var % 2 == p1_parity), default=first)
            due.setdefault(max(last, first), []).append(gate)

        def rule(var, value, mover, k):
            held = kept[k - 1]  # set only below a rule's leaf
            if not held:
                listed = due.get(var, ())
            elif 0 < counts[held] < base:
                listed = (held,)
            else:
                listed = (gate for j in range(first, var + 1) for gate in due.get(j, ()))
            for gate in listed:
                if 0 < counts[gate] < base:
                    kept[k] = gate
                    return gate
            kept[k] = 0
            return 0

        return rule

    # at 2 var + value, the clauses whose literal on var the move falsifies
    falsified = [()] * (2 * position.n)  # one shared () for a literal in none
    for gate, lits in clauses.items():
        for var, positive in lits:
            at = 2 * var + (not positive)
            if not falsified[at]:
                falsified[at] = []
            falsified[at].append(gate)
    by_player = position.config.choice is BooleanChoice.BY_PLAYER

    def rule(var, value, mover, k):
        if mover is p2:
            gate = kept[k - 1]
            if gate and counts[gate] == 1:
                return gate
        threat = kept[k] = 0
        for gate in falsified[2 * var + value]:
            if counts[gate] == 1:  # no true literal and one open
                for literal in clauses[gate]:
                    if values[literal[0]] is None:
                        break
                if by_player and not literal[1]:
                    continue
                if mover is p2 or threat and literal != threat:
                    return gate
                threat, kept[k] = literal, gate
        return 0

    return rule
