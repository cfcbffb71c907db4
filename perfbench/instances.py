"""Seeded CNF inputs and their file writers, owned by the benchmark.

Nothing here imports `qbfgames`: the position and DIMACS texts are written
by this module, so a change to the program's generators or formatters
cannot change what the benchmark feeds it.  A clause is a tuple of
(variable, negated) pairs over 0-based variables.
"""

from __future__ import annotations

import hashlib
import random

RULESETS = (
    "either-local-different",
    "either-local-same",
    "either-anywhere-different",
    "either-anywhere-same",
    "by-player-local-different",
    "by-player-local-same",
    "by-player-anywhere-different",
    "by-player-anywhere-same",
)


def instance_rng(seed: int, *labels) -> random.Random:
    """A generator fixed by the run seed and the instance's labels.

    String seeds are hashed with SHA-512 by `random.Random`, so the stream
    does not depend on PYTHONHASHSEED or on how many instances came before.
    """
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def random_3cnf(rng: random.Random, n: int, m: int) -> list:
    """m clauses of three distinct variables, each negated by a coin flip."""
    clauses = []
    for _ in range(m):
        chosen = sorted(rng.sample(range(n), 3))
        clauses.append(tuple((var, rng.random() < 0.5) for var in chosen))
    return clauses


def planted_3cnf(rng: random.Random, n: int, m: int) -> list:
    """Like `random_3cnf`, but every clause is true under the alternating
    assignment x0=T, x1=F, x2=T, ... that the by-player-local rulesets
    play, so their forced line always runs all n moves."""
    clauses = []
    while len(clauses) < m:
        chosen = sorted(rng.sample(range(n), 3))
        clause = tuple((var, rng.random() < 0.5) for var in chosen)
        # x_var is T for even var; a literal is true when negated == (var is odd)
        if any(negated == (var % 2 == 1) for var, negated in clause):
            clauses.append(clause)
    return clauses


def formula_text(clauses: list) -> str:
    """The CNF in the program's prefix formula grammar."""
    parts = []
    for clause in clauses:
        lits = " ".join(f"(not x{var})" if negated else f"x{var}" for var, negated in clause)
        parts.append(f"(or {lits})")
    return "(and " + " ".join(parts) + ")" if parts else "true"


def position_text(ruleset: str, n: int, clauses: list) -> str:
    """A position file: empty assignment, first player to move."""
    choice, locality, goal = ruleset.rsplit("-", 2)
    return (
        f"ruleset {choice} {locality} {goal}\n"
        f"vars {n}\n"
        "assigned\n"
        f"{formula_text(clauses)}\n"
    )


def trace_text(position: str, moves: list) -> str:
    """A trace file: a position followed by (variable, value) moves."""
    lines = [position.rstrip("\n")]
    lines.extend(f"move x{var} {'T' if value else 'F'}" for var, value in moves)
    return "\n".join(lines) + "\n"


def dimacs_text(n: int, clauses: list) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    for clause in clauses:
        lits = " ".join(str(-(var + 1) if negated else var + 1) for var, negated in clause)
        lines.append(f"{lits} 0")
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
