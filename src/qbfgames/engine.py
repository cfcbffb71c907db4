"""Game positions and move rules for the eight rulesets.

A ruleset is a combination of three toggles: where the mover may play
(local = lowest unassigned variable only, anywhere = any unassigned
variable), which Boolean values they may write (either, or one value fixed
per player), and what ends the game (different = play out all variables and
evaluate, same = a move is illegal iff the formula folds to false under the
extended assignment, see `blatantly_false`, and a stuck player loses).

A move is a (var, value) pair, and `move_text` gives its one text form.
Positions are immutable; `apply_move` builds each next one, its formula
folded under the new assignment, and `replay` plays a trace's moves through
it one step at a time.  Player P1 always moves first from an empty
assignment and is the True/Even side everywhere.
"""

from __future__ import annotations

from enum import Enum

from .formula import (
    FALSE,
    Formula,
    Record,
    blatantly_false,
    evaluate,
    free_variables,
    is_decimal,
    parse_formula,
    simplify,
    to_text,
)


class Locality(Enum):
    LOCAL = "local"
    ANYWHERE = "anywhere"


class BooleanChoice(Enum):
    EITHER = "either"
    BY_PLAYER = "by-player"


class Goal(Enum):
    DIFFERENT = "different"
    SAME = "same"


class Player(Enum):
    P1 = 1
    P2 = 2


# A plain attribute of each member, not a property: searches read it at
# every node.
Player.P1.opponent, Player.P2.opponent = Player.P2, Player.P1


class RulesetConfig(Record):
    """The three toggles; eight values total."""

    __slots__ = ("choice", "locality", "goal")

    @property
    def name(self) -> str:
        return f"{self.choice.value}-{self.locality.value}-{self.goal.value}"

    @classmethod
    def from_name(cls, name: str) -> "RulesetConfig":
        for config in ALL_CONFIGS:
            if config.name == name:
                return config
        raise ValueError(f"unknown ruleset {name!r}")

    @classmethod
    def from_tokens(cls, choice: str, locality: str, goal: str) -> "RulesetConfig":
        try:
            return cls(BooleanChoice(choice), Locality(locality), Goal(goal))
        except ValueError:
            raise ValueError(
                f"unknown ruleset tokens {choice!r} {locality!r} {goal!r}"
            ) from None

    def choices(self, mover: Player) -> tuple:
        """The values `mover` may write: both, false first, or under
        by-player true for P1 and false for P2."""
        if self.choice is BooleanChoice.BY_PLAYER:
            return (True,) if mover is Player.P1 else (False,)
        return (False, True)

    def player_label(self, player: Player) -> str:
        """Human name for a player under this ruleset."""
        if self.choice is BooleanChoice.BY_PLAYER:
            return "True" if player is Player.P1 else "False"
        if self.goal is Goal.DIFFERENT:
            return "Even/True" if player is Player.P1 else "Odd/False"
        return "Even" if player is Player.P1 else "Odd"


ALL_CONFIGS = tuple(
    RulesetConfig(choice, locality, goal)
    for choice in BooleanChoice
    for locality in Locality
    for goal in Goal
)

EITHER_LOCAL_DIFFERENT = RulesetConfig(BooleanChoice.EITHER, Locality.LOCAL, Goal.DIFFERENT)
EITHER_LOCAL_SAME = RulesetConfig(BooleanChoice.EITHER, Locality.LOCAL, Goal.SAME)
EITHER_ANYWHERE_DIFFERENT = RulesetConfig(BooleanChoice.EITHER, Locality.ANYWHERE, Goal.DIFFERENT)
EITHER_ANYWHERE_SAME = RulesetConfig(BooleanChoice.EITHER, Locality.ANYWHERE, Goal.SAME)
BY_PLAYER_LOCAL_DIFFERENT = RulesetConfig(BooleanChoice.BY_PLAYER, Locality.LOCAL, Goal.DIFFERENT)
BY_PLAYER_LOCAL_SAME = RulesetConfig(BooleanChoice.BY_PLAYER, Locality.LOCAL, Goal.SAME)
BY_PLAYER_ANYWHERE_DIFFERENT = RulesetConfig(BooleanChoice.BY_PLAYER, Locality.ANYWHERE, Goal.DIFFERENT)
BY_PLAYER_ANYWHERE_SAME = RulesetConfig(BooleanChoice.BY_PLAYER, Locality.ANYWHERE, Goal.SAME)


def move_text(move) -> str:
    """The text of a (var, value) move, which writes `value` into `var`: x<var>=T|F."""
    var, value = move
    return f"x{var}={'T' if value else 'F'}"


class PositionError(ValueError):
    """Invalid position construction."""


class IllegalMoveError(Exception):
    """A move rejected by the rules; `reason` names the violated filter."""

    OUT_OF_RANGE = "out-of-range"
    OCCUPIED = "occupied"
    WRONG_LOCATION = "wrong-location"
    WRONG_VALUE = "wrong-value"
    BLATANTLY_FALSE = "blatantly-false"

    def __init__(self, move: tuple, reason: str, detail: str = ""):
        msg = f"illegal move {move_text(move)}: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.move = move
        self.reason = reason


class Position(Record):
    """Formula, variable count, assignment, ruleset, and player to move.

    The assignment is a tuple of one value per variable: True, False or
    None (unassigned).  `initial` keeps the formula as given; `apply_move`
    keeps it folded."""

    __slots__ = ("formula", "n", "assignment", "config", "mover")

    @classmethod
    def initial(
        cls,
        formula: Formula,
        n: int,
        config: RulesetConfig,
        assignment=None,
        mover: Player | None = None,
    ) -> "Position":
        """Validated entry point.

        Pre-assigned variables are allowed (reductions use them); the mover
        defaults to the parity rule (P1 when the assigned count is even) and
        may be overridden explicitly.  `assignment` is any sequence of
        True/False/None, stored as a tuple (any other value raises
        PositionError); it defaults to all None.
        """
        if n < 0:
            raise PositionError("variable count must be non-negative")
        assignment = (None,) * n if assignment is None else tuple(assignment)
        if len(assignment) != n:
            raise PositionError(
                f"assignment covers {len(assignment)} variables, expected {n}"
            )
        for value in assignment:
            if value is not None and type(value) is not bool:  # 1 == True
                raise PositionError(f"assignment value {value!r} is not True, False or None")
        variables = free_variables(formula)
        if variables and (min(variables) < 0 or max(variables) >= n):
            out_of_range = min(v for v in variables if not 0 <= v < n)
            raise PositionError(
                f"formula mentions x{out_of_range} but only {n} variables declared"
            )
        k = n - assignment.count(None)
        if config.locality is Locality.LOCAL and None in assignment[:k]:
            raise PositionError(
                "local rulesets require the assigned variables to be a prefix"
            )
        if mover is None:
            mover = Player.P1 if k % 2 == 0 else Player.P2
        return cls(formula, n, assignment, config, mover)


def _extended(assignment: tuple, var: int, value: bool) -> tuple:
    """The assignment with `var` set to `value`."""
    values = list(assignment)
    values[var] = value
    return tuple(values)


def candidates(config: RulesetConfig, mover: Player, values, k: int):
    """The mover's moves as (var, value) pairs in the normative order:
    ascending var, each with the values `config.choices` gives, false first.
    Local play offers x_k alone, k the assigned count; anywhere play offers
    each open variable, lazily.  A same-goal move may be blatantly false."""
    choices = config.choices(mover)
    if config.locality is Locality.LOCAL:
        return [(k, c) for c in choices] if k < len(values) else []
    return ((i, c) for i, v in enumerate(values) if v is None for c in choices)


def legal_moves(p: Position) -> list:
    """All legal (var, value) moves, ascending variable index, false before true."""
    a = p.assignment
    same = p.config.goal is Goal.SAME
    return [
        m
        for m in candidates(p.config, p.mover, a, len(a) - a.count(None))
        if not (same and blatantly_false(p.formula, _extended(a, *m)))
    ]


def apply_move(p: Position, m: tuple) -> Position:
    """Extended position after move m; raises IllegalMoveError naming the violated rule.

    Its formula is p's folded under the extended assignment, which is the
    original folded under it (the fold composes).  A same-goal move is
    illegal iff that fold is false: the `blatantly_false` rule."""
    var, value = m
    if not 0 <= var < p.n:
        raise IllegalMoveError(m, IllegalMoveError.OUT_OF_RANGE, f"n={p.n}")
    if p.assignment[var] is not None:
        raise IllegalMoveError(m, IllegalMoveError.OCCUPIED)
    if p.config.locality is Locality.LOCAL:
        low = p.assignment.index(None)
        if var != low:
            raise IllegalMoveError(
                m, IllegalMoveError.WRONG_LOCATION, f"lowest unassigned is x{low}"
            )
    choices = p.config.choices(p.mover)
    if value not in choices:
        only = f"{p.config.player_label(p.mover)} assigns only {'T' if choices[0] else 'F'}"
        raise IllegalMoveError(m, IllegalMoveError.WRONG_VALUE, only)
    extended = _extended(p.assignment, var, value)
    folded = simplify(p.formula, extended)
    if p.config.goal is Goal.SAME and folded == FALSE:
        raise IllegalMoveError(m, IllegalMoveError.BLATANTLY_FALSE)
    return Position(folded, p.n, extended, p.config, p.mover.opponent)


def is_terminal(p: Position) -> bool:
    """True iff the mover has no legal move."""
    return not legal_moves(p)


def final_winner(p: Position) -> Player:
    """Winner of a position that `is_terminal` has found finished.

    Different goal: evaluate under the full assignment, P1 wins iff true.
    Same goal: the stuck mover loses.  Legality is not checked again.
    """
    if p.config.goal is Goal.DIFFERENT:
        return Player.P1 if evaluate(p.formula, p.assignment) else Player.P2
    return p.mover.opponent


class GameTrace(Record):
    """An initial position plus an ordered list of (var, value) moves."""

    __slots__ = ("initial", "moves")
    __hash__ = None


def replay(trace: GameTrace):
    """Play the trace's moves with `apply_move`, yielding each move and the
    position it reached, one step at a time.

    An illegal move raises its IllegalMoveError after the steps before it.
    """
    p = trace.initial
    for m in trace.moves:
        p = apply_move(p, m)
        yield m, p


class PositionFormatError(ValueError):
    """Malformed position or trace file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


def _parse_header(lines):
    """Shared header parser; returns (position fields, remaining lines)."""
    meaningful = [
        (i + 1, stripped)
        for i, raw in enumerate(lines)
        if (stripped := raw.strip()) and not stripped.startswith("#")
    ]
    if not meaningful:
        raise PositionFormatError("empty position file")
    idx = 0

    def take(expected: str):
        nonlocal idx
        if idx >= len(meaningful):
            raise PositionFormatError(f"missing '{expected}' line")
        lineno, text = meaningful[idx]
        parts = text.split()
        if parts[0] != expected:
            raise PositionFormatError(f"expected '{expected}' line, got {text!r}", lineno)
        idx += 1
        return lineno, parts[1:]

    lineno, tokens = take("ruleset")
    if len(tokens) != 3:
        raise PositionFormatError("ruleset line needs 3 tokens", lineno)
    try:
        config = RulesetConfig.from_tokens(*tokens)
    except ValueError as e:
        raise PositionFormatError(str(e), lineno) from None

    lineno, tokens = take("vars")
    if len(tokens) != 1 or not is_decimal(tokens[0]):
        raise PositionFormatError("vars line needs one non-negative integer", lineno)
    n = int(tokens[0])

    lineno, tokens = take("assigned")
    values = [None] * n
    for tok in tokens:
        var_part, sep, val_part = tok.partition("=")
        if not sep or not is_decimal(var_part) or val_part not in ("T", "F"):
            raise PositionFormatError(
                f"bad assigned token {tok!r}, expected <index>=T|F", lineno
            )
        var = int(var_part)
        if var >= n:
            raise PositionFormatError(f"variable x{var} out of range for {n} variable(s)")
        if values[var] is not None:
            raise PositionFormatError(f"variable x{var} assigned twice")
        values[var] = val_part == "T"

    mover = None
    if idx < len(meaningful) and meaningful[idx][1].split()[0] == "mover":
        lineno, tokens = take("mover")
        if tokens not in (["1"], ["2"]):
            raise PositionFormatError("mover line needs 1 or 2", lineno)
        mover = Player.P1 if tokens == ["1"] else Player.P2

    formula_parts = []
    move_lines = []
    for lineno, text in meaningful[idx:]:
        if text.split()[0] == "move":
            move_lines.append((lineno, text))
        elif move_lines:
            raise PositionFormatError("formula text after move lines", lineno)
        else:
            formula_parts.append(text)
    if not formula_parts:
        raise PositionFormatError("missing formula")

    try:
        formula = parse_formula(" ".join(formula_parts), n)
        position = Position.initial(formula, n, config, values, mover)
    except ValueError as e:
        raise PositionFormatError(str(e)) from None
    return position, move_lines


def parse_position(text: str) -> Position:
    """Read the line-oriented position format.

    Lines: "ruleset <choice> <locality> <goal>", "vars <n>",
    "assigned [i=T|F ...]", optional "mover <1|2>", then the formula.
    Blank lines and '#' comments are ignored.
    """
    position, move_lines = _parse_header(text.splitlines())
    if move_lines:
        raise PositionFormatError(
            "unexpected 'move' line; this is a trace file", move_lines[0][0]
        )
    return position


def parse_trace(text: str) -> GameTrace:
    """Read a trace file: a position followed by "move x<i> <T|F>" lines."""
    position, move_lines = _parse_header(text.splitlines())
    moves = []
    for lineno, line in move_lines:
        parts = line.split()
        if (
            len(parts) != 3
            or not parts[1].startswith("x")
            or not is_decimal(parts[1][1:])
            or parts[2] not in ("T", "F")
        ):
            raise PositionFormatError(
                f"bad move line {line!r}, expected 'move x<i> T|F'", lineno
            )
        moves.append((int(parts[1][1:]), parts[2] == "T"))
    return GameTrace(position, moves)


def format_position(p: Position) -> str:
    """Render a position in the file format; inverse of `parse_position`."""
    assigned = [(i, v) for i, v in enumerate(p.assignment) if v is not None]
    lines = [
        f"ruleset {p.config.choice.value} {p.config.locality.value} {p.config.goal.value}",
        f"vars {p.n}",
        "assigned" + "".join(f" {i}={'T' if v else 'F'}" for i, v in assigned),
    ]
    parity_mover = Player.P1 if len(assigned) % 2 == 0 else Player.P2
    if p.mover is not parity_mover:
        lines.append(f"mover {p.mover.value}")
    lines.append(to_text(p.formula))
    return "\n".join(lines) + "\n"

