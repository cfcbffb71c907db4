"""Game positions and move rules for the eight rulesets.

A ruleset is a combination of three toggles: where the mover may play
(local = lowest unassigned variable only, anywhere = any unassigned
variable), which Boolean values they may write (either, or one value fixed
per player), and what ends the game (different = play out all variables and
evaluate, same = a move is illegal iff the formula folds to false under the
extended assignment, see `blatantly_false`, and a stuck player loses).

Positions are immutable; `apply_move` builds each next one, its formula
folded under the new assignment, and `replay` plays a trace's moves through
it one step at a time.  Player P1 always moves first from an empty
assignment and is the True/Even side everywhere.
"""

from __future__ import annotations

from enum import Enum

from .formula import (
    FALSE,
    Assignment,
    Formula,
    FormulaError,
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


class Move(Record):
    """Write `value` into variable `var`."""

    __slots__ = ("var", "value")

    def __repr__(self):
        return f"x{self.var}={'T' if self.value else 'F'}"


class PositionError(ValueError):
    """Invalid position construction."""


class IllegalMoveError(Exception):
    """A move rejected by the rules; `reason` names the violated filter."""

    OUT_OF_RANGE = "out-of-range"
    OCCUPIED = "occupied"
    WRONG_LOCATION = "wrong-location"
    WRONG_VALUE = "wrong-value"
    BLATANTLY_FALSE = "blatantly-false"

    def __init__(self, move: Move, reason: str, detail: str = ""):
        msg = f"illegal move {move}: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.move = move
        self.reason = reason


class Position(Record):
    """Formula, variable count, assignment, ruleset, and player to move.
    `initial` keeps the formula as given; `apply_move` keeps it folded."""

    __slots__ = ("formula", "n", "assignment", "config", "mover")

    @classmethod
    def initial(
        cls,
        formula: Formula,
        n: int,
        config: RulesetConfig,
        assignment: Assignment | None = None,
        mover: Player | None = None,
    ) -> "Position":
        """Validated entry point.

        Pre-assigned variables are allowed (reductions use them); the mover
        defaults to the parity rule (P1 when the assigned count is even) and
        may be overridden explicitly.
        """
        if n < 0:
            raise PositionError("variable count must be non-negative")
        if assignment is None:
            assignment = Assignment.empty(n)
        if len(assignment) != n:
            raise PositionError(
                f"assignment covers {len(assignment)} variables, expected {n}"
            )
        out_of_range = [v for v in free_variables(formula) if not 0 <= v < n]
        if out_of_range:
            raise PositionError(
                f"formula mentions x{min(out_of_range)} but only {n} variables declared"
            )
        if config.locality is Locality.LOCAL:
            k = assignment.assigned_count
            if any(assignment[i] is None for i in range(k)):
                raise PositionError(
                    "local rulesets require the assigned variables to be a prefix"
                )
        if mover is None:
            mover = Player.P1 if assignment.assigned_count % 2 == 0 else Player.P2
        return cls(formula, n, assignment, config, mover)

    @property
    def assigned_count(self) -> int:
        return self.assignment.assigned_count


def _candidate_vars(p: Position) -> list:
    if p.config.locality is Locality.LOCAL:
        low = p.assignment.lowest_unassigned()
        return [] if low is None else [low]
    return p.assignment.unassigned()


def _candidate_values(p: Position) -> tuple:
    if p.config.choice is BooleanChoice.BY_PLAYER:
        return (True,) if p.mover is Player.P1 else (False,)
    return (False, True)


def legal_moves(p: Position) -> list:
    """All legal moves, ascending variable index, false before true."""
    same = p.config.goal is Goal.SAME
    moves = []
    for var in _candidate_vars(p):
        for value in _candidate_values(p):
            if same and blatantly_false(p.formula, p.assignment.assign(var, value)):
                continue
            moves.append(Move(var, value))
    return moves


def apply_move(p: Position, m: Move) -> Position:
    """Extended position after m; raises IllegalMoveError naming the violated rule.

    Its formula is p's folded under the extended assignment, which is the
    original folded under it (the fold composes).  A same-goal move is
    illegal iff that fold is false: the `blatantly_false` rule."""
    if not 0 <= m.var < p.n:
        raise IllegalMoveError(m, IllegalMoveError.OUT_OF_RANGE, f"n={p.n}")
    if p.assignment[m.var] is not None:
        raise IllegalMoveError(m, IllegalMoveError.OCCUPIED)
    if p.config.locality is Locality.LOCAL:
        low = p.assignment.lowest_unassigned()
        if m.var != low:
            raise IllegalMoveError(
                m, IllegalMoveError.WRONG_LOCATION, f"lowest unassigned is x{low}"
            )
    if p.config.choice is BooleanChoice.BY_PLAYER:
        required = p.mover is Player.P1
        if m.value != required:
            raise IllegalMoveError(
                m,
                IllegalMoveError.WRONG_VALUE,
                f"{p.config.player_label(p.mover)} assigns only "
                f"{'T' if required else 'F'}",
            )
    extended = p.assignment.assign(m.var, m.value)
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
    """An initial position plus an ordered move list."""

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


class PositionFormatError(Exception):
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
    pairs = []
    for tok in tokens:
        var_part, sep, val_part = tok.partition("=")
        if not sep or not is_decimal(var_part) or val_part not in ("T", "F"):
            raise PositionFormatError(
                f"bad assigned token {tok!r}, expected <index>=T|F", lineno
            )
        pairs.append((int(var_part), val_part == "T"))

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
        assignment = Assignment.from_pairs(n, pairs)
        position = Position.initial(formula, n, config, assignment, mover)
    except (ValueError, FormulaError) as e:
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
        moves.append(Move(int(parts[1][1:]), parts[2] == "T"))
    return GameTrace(position, moves)


def format_position(p: Position) -> str:
    """Render a position in the file format; inverse of `parse_position`."""
    lines = [
        f"ruleset {p.config.choice.value} {p.config.locality.value} {p.config.goal.value}",
        f"vars {p.n}",
        "assigned"
        + "".join(f" {i}={'T' if v else 'F'}" for i, v in p.assignment.items()),
    ]
    parity_mover = Player.P1 if p.assignment.assigned_count % 2 == 0 else Player.P2
    if p.mover is not parity_mover:
        lines.append(f"mover {p.mover.value}")
    lines.append(to_text(p.formula))
    return "\n".join(lines) + "\n"

