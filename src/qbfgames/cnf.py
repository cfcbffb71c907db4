"""CNF instances and DIMACS-style text IO.

Internally literals are (variable, negated) pairs with 0-based variables;
the file format uses the usual 1-based signed integers with a
"p cnf <vars> <clauses>" header and 0-terminated clause lines.
"""

from __future__ import annotations

from .formula import And, Formula, Literal, Or, Record, TRUE, is_decimal


class CnfError(ValueError):
    """Invalid CNF input (bad literals, empty clause, malformed DIMACS)."""


class Cnf(Record):
    """A conjunction of non-empty clauses over n variables."""

    __slots__ = ("n", "clauses")  # clauses: tuples of (var, negated) pairs

    def __init__(self, n: int, clauses):
        super().__init__(n, tuple(tuple(clause) for clause in clauses))
        if self.n < 0:
            raise CnfError("variable count must be non-negative")
        for clause in self.clauses:
            if not clause:
                raise CnfError("empty clause")
            for var, negated in clause:
                if not 0 <= var < self.n:
                    raise CnfError(f"literal variable x{var} out of range")
                if not isinstance(negated, bool):
                    raise CnfError(f"negation flag must be bool, got {negated!r}")

    def to_formula(self) -> Formula:
        """And of Or nodes; clauses stay Or-wrapped even when single-literal."""
        if not self.clauses:
            return TRUE
        return And(
            tuple(
                Or(tuple(Literal(var, negated) for var, negated in clause))
                for clause in self.clauses
            )
        )

    def to_dimacs(self, comment: str = "") -> str:
        lines = []
        if comment:
            lines.extend(f"c {part}" for part in comment.splitlines())
        lines.append(f"p cnf {self.n} {len(self.clauses)}")
        for clause in self.clauses:
            lits = " ".join(
                str(-(var + 1)) if negated else str(var + 1) for var, negated in clause
            )
            lines.append(f"{lits} 0")
        return "\n".join(lines) + "\n"


def _integer(tok: str) -> int:
    """An optionally negative ASCII decimal; `int` also takes "١" and "1_0"."""
    if not is_decimal(tok.removeprefix("-")):
        raise ValueError(f"not an integer: {tok!r}")
    return int(tok)


def parse_dimacs(text: str) -> Cnf:
    """Read DIMACS CNF text; one clause per line, each terminated by 0."""
    n = None
    expected_clauses = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise CnfError(f"duplicate problem line (line {lineno})")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"bad problem line {line!r} (line {lineno})")
            try:
                n = _integer(parts[2])
                expected_clauses = _integer(parts[3])
            except ValueError:
                raise CnfError(f"bad problem line {line!r} (line {lineno})") from None
            if n < 0 or expected_clauses < 0:
                raise CnfError(f"negative counts in problem line (line {lineno})")
            continue
        if n is None:
            raise CnfError(f"clause before problem line (line {lineno})")
        try:
            ints = [_integer(tok) for tok in line.split()]
        except ValueError:
            raise CnfError(f"non-integer token in clause (line {lineno})") from None
        if not ints or ints[-1] != 0:
            raise CnfError(f"clause not terminated by 0 (line {lineno})")
        body = ints[:-1]
        if not body:
            raise CnfError(f"empty clause (line {lineno})")
        clause = []
        for lit in body:
            if lit == 0:
                raise CnfError(f"stray 0 inside clause (line {lineno})")
            var = abs(lit) - 1
            if var >= n:
                raise CnfError(f"literal {lit} out of range (line {lineno})")
            clause.append((var, lit < 0))
        clauses.append(tuple(clause))
    if n is None:
        raise CnfError("missing problem line")
    if expected_clauses is not None and len(clauses) != expected_clauses:
        raise CnfError(
            f"problem line declares {expected_clauses} clauses, found {len(clauses)}"
        )
    return Cnf(n, tuple(clauses))
