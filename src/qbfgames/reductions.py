"""Source games and the constructive reductions into the formula rulesets.

Five constructions, each paired with a dual-solve check that the optimal-play
winner carries over:

  * Snort (partizan vertex painting)      -> by-player-anywhere-same
  * Proper 2-Coloring (impartial)         -> either-anywhere-same
  * CNF with alternating quantifiers      -> either-local-same
  * Positive CNF (Schaefer's game)        -> by-player-anywhere-different
  * Positive CNF with free value choice   -> either-anywhere-different

A graph's paint is a position's assignment in waiting: blue is True/P1, red
is False/P2 and an unpainted vertex is None.  Elsewhere first mover maps to
first mover.

Each check plays the source game with `solve_abstract` and the reduced
position with `solve`.  Snort, Proper 2-Coloring and the positive CNF game
share one board, `_Board`: a state is `(trues, falses, p1_to_move)`, two
int bitmasks of the cells holding true (blue) and false (red) and whether P1
moves, and a move `(v, value)` writes one cell.  The CNF quantifier game is
`QbfGame`, over `(k, open)` states.

Every CNF instance is a `cnf.Cnf`.  A positive one is a `Cnf` that
`positive_cnf` accepts: no negated literal and at most 3 distinct variables
per clause.  The positive CNF game and both of its encoders read their
instance through `positive_cnf`.
"""

from __future__ import annotations

from .cnf import Cnf
from .engine import (
    BY_PLAYER_ANYWHERE_DIFFERENT,
    BY_PLAYER_ANYWHERE_SAME,
    EITHER_ANYWHERE_DIFFERENT,
    EITHER_ANYWHERE_SAME,
    EITHER_LOCAL_SAME,
    Player,
    Position,
)
from .formula import TRUE, And, Literal, Or, Record, is_decimal
from .solver import DEFAULT_NODE_BUDGET, solve, solve_abstract


class InvalidGraphError(ValueError):
    """Malformed graph input."""


class InvalidSnortGraphError(InvalidGraphError):
    """A painted graph with two adjacent, opposite-colored vertices."""


class PositiveCnfError(ValueError):
    """Invalid positive CNF instance."""


class NegationError(PositiveCnfError):
    """A negated literal where only positive ones are allowed."""


class Graph(Record):
    """Undirected graph with optional per-vertex paint.

    `edges` is a sorted tuple of distinct (i, j) pairs with i < j, and
    `paint` a tuple of one value per vertex, in the format of
    `Position.assignment`: True (blue), False (red) or None (unpainted).
    `paint` defaults to all None.
    """

    __slots__ = ("n_vertices", "edges", "paint")

    def __init__(self, n_vertices: int, edges, paint=None):
        if n_vertices < 0:
            raise InvalidGraphError("vertex count must be non-negative")
        # sized by the count before any edge is read, so a count too large
        # to hold fails at once, not after an edge list has grown
        paint = (None,) * n_vertices if paint is None else tuple(paint)
        normalized = set()
        for i, j in edges:
            if i == j:
                raise InvalidGraphError(f"self-loop at vertex {i}")
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise InvalidGraphError(f"edge ({i}, {j}) out of range")
            normalized.add((min(i, j), max(i, j)))
        if len(paint) != n_vertices:
            raise InvalidGraphError("paint list length must match vertex count")
        for value in paint:
            if value is not None and type(value) is not bool:  # 1 == True
                raise InvalidGraphError(f"paint must be True, False or None, got {value!r}")
        super().__init__(n_vertices, tuple(sorted(normalized)), paint)


def _check_snort_paint(graph: Graph):
    for i, j in graph.edges:
        if {graph.paint[i], graph.paint[j]} == {True, False}:
            raise InvalidSnortGraphError(
                f"vertices {i} and {j} are adjacent with opposite colors"
            )


class _Board:
    """The board the three source games share: players take turns writing
    true or false into empty cells.

    A state is `(trues, falses, p1_to_move)`: bit v of `trues` (of
    `falses`) is set when cell v holds true (false), and `p1_to_move` is a
    bool, so that a state hashes in C; `mover` and `winner` name the
    Player.  Blue is true and P1 in the graph games.  A move is
    `(v, value)`.  A game sets `start` and defines `legal_moves`; the stuck
    mover loses unless the game defines its own `winner`.
    """

    def initial_state(self):
        return self.start

    def mover(self, state) -> Player:
        return Player.P1 if state[2] else Player.P2

    def apply(self, state, move):
        trues, falses, p1_to_move = state
        v, value = move
        if value:
            return (trues | 1 << v, falses, not p1_to_move)
        return (trues, falses | 1 << v, not p1_to_move)

    # Uncalled (a game ends on an empty move list); perfbench's tracer still names it.
    def is_terminal(self, state) -> bool:
        return not self.legal_moves(state)

    def winner(self, state) -> Player:
        return Player.P2 if state[2] else Player.P1


def _neighbour_masks(graph: Graph) -> list:
    """Bit u of entry v is set when u and v are adjacent."""
    masks = [0] * graph.n_vertices
    for i, j in graph.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


class SnortGame(_Board):
    """Players paint unpainted vertices their own color (Blue = P1), never
    adjacent to the opposite color; a stuck player loses."""

    def __init__(self, graph: Graph, first_player: Player = Player.P1):
        _check_snort_paint(graph)
        self.neighbours = _neighbour_masks(graph)
        blue = sum(1 << v for v, value in enumerate(graph.paint) if value)
        red = sum(1 << v for v, value in enumerate(graph.paint) if value is False)
        self.start = (blue, red, first_player is Player.P1)

    def legal_moves(self, state) -> list:
        trues, falses, own = state
        opposite = falses if own else trues
        painted = trues | falses
        return [
            (v, own)
            for v, near in enumerate(self.neighbours)
            if not (painted >> v & 1 or near & opposite)
        ]


class ProperTwoColoringGame(_Board):
    """Either player paints any unpainted vertex either color, never matching
    a neighbor; the last painter wins (normal play).  P1 paints first."""

    def __init__(self, graph: Graph):
        if any(value is not None for value in graph.paint):
            raise InvalidGraphError("proper 2-coloring starts from an uncolored graph")
        self.neighbours = _neighbour_masks(graph)
        self.start = (0, 0, True)

    def legal_moves(self, state) -> list:
        trues, falses, _ = state
        painted = trues | falses
        moves = []
        for v, near in enumerate(self.neighbours):
            if painted >> v & 1:
                continue
            if not near & trues:
                moves.append((v, True))
            if not near & falses:
                moves.append((v, False))
        return moves


def positive_cnf(cnf: Cnf) -> Cnf:
    """The CNF as an instance of the positive CNF game: each clause's
    variables sorted, with repeats dropped.  An instance already in that
    form, as `generators.random_positive_cnf` draws them, is returned as is.

    A negated literal raises `NegationError`, and a clause of more than 3
    distinct variables raises `PositiveCnfError`.
    """
    for clause in cnf.clauses:
        for var, negated in clause:
            if negated:
                raise NegationError(f"negated literal on x{var}")
    clauses = [sorted({var for var, _ in clause}) for clause in cnf.clauses]
    for clause in clauses:
        if len(clause) > 3:
            raise PositiveCnfError(f"clause width must be 1..3, got {len(clause)}")
    if all([var for var, _ in given] == clause for given, clause in zip(cnf.clauses, clauses)):
        return cnf
    return Cnf(cnf.n, (tuple((var, False) for var in clause) for clause in clauses))


class PositiveCnfGame(_Board):
    """P1 sets any unassigned variable true, P2 sets one false; the
    formula's final value decides the winner (true = P1).  P1 moves first.
    `cnf` is the instance as `positive_cnf` normalises it."""

    def __init__(self, cnf: Cnf):
        self.cnf = cnf = positive_cnf(cnf)
        self.n = cnf.n
        self.clauses = [sum(1 << v for v, _ in clause) for clause in cnf.clauses]
        self.start = (0, 0, True)

    def legal_moves(self, state) -> list:
        trues, falses, value = state
        assigned = trues | falses
        return [(v, value) for v in range(self.n) if not assigned >> v & 1]

    def winner(self, state) -> Player:
        trues = state[0]
        return Player.P1 if all(clause & trues for clause in self.clauses) else Player.P2


def snort_to_position(graph: Graph, first_player: Player = Player.P1) -> Position:
    """Encode a Snort position as by-player-anywhere-same.

    Each edge (i, j) contributes the clause pair (xi or not xj) and
    (not xi or xj); the paint is the starting assignment (blue -> true,
    red -> false) and Blue moves as P1/True.
    """
    _check_snort_paint(graph)
    clauses = []
    for i, j in graph.edges:
        clauses += [((i, False), (j, True)), ((i, True), (j, False))]
    formula = Cnf(graph.n_vertices, clauses).to_formula()
    return Position.initial(
        formula, graph.n_vertices, BY_PLAYER_ANYWHERE_SAME, graph.paint, first_player
    )


def p2c_to_position(graph: Graph) -> Position:
    """Encode a Proper 2-Coloring graph as either-anywhere-same.

    Each edge (i, j) contributes (xi and not xj) or (not xi and xj), which
    turns blatantly false exactly when both endpoints get the same value.
    """
    if any(value is not None for value in graph.paint):
        raise InvalidGraphError("proper 2-coloring reduction takes an uncolored graph")
    gadgets = []
    for i, j in graph.edges:
        gadgets.append(
            Or(
                (
                    And((Literal(i), Literal(j, True))),
                    And((Literal(i, True), Literal(j))),
                )
            )
        )
    formula = And(tuple(gadgets)) if gadgets else TRUE
    return Position.initial(formula, graph.n_vertices, EITHER_ANYWHERE_SAME)


def qbf_cnf_to_either_local_same(cnf: Cnf) -> Position:
    """Encode a CNF alternating-quantifier game as either-local-same.

    Clauses whose largest variable index is odd get a padded copy of the
    next variable, (x_{l+1} and not x_{l+1}), so the final assignment into
    every clause lands on an even index.  The variable count is padded to
    the next odd value above the input's count, even if the last variable
    then never appears.
    """
    gamma = []
    for clause in cnf.clauses:
        top = max(var for var, _ in clause)
        literals = tuple(Literal(var, negated) for var, negated in clause)
        if top % 2 == 0:
            gamma.append(Or(literals))
        else:
            pad = And((Literal(top + 1), Literal(top + 1, True)))
            gamma.append(Or(literals + (pad,)))
    m = cnf.n + 1 if cnf.n % 2 == 0 else cnf.n + 2
    formula = And(tuple(gamma)) if gamma else TRUE
    return Position.initial(formula, m, EITHER_LOCAL_SAME)


def positive_cnf_to_bpad(cnf: Cnf, first_player: Player = Player.P1) -> Position:
    """Identity embedding of a positive instance into by-player-anywhere-different."""
    return _embed(positive_cnf(cnf), BY_PLAYER_ANYWHERE_DIFFERENT, first_player)


def toy_positive_to_ead(cnf: Cnf) -> Position:
    """Identity embedding of a positive instance into either-anywhere-different."""
    return _embed(positive_cnf(cnf), EITHER_ANYWHERE_DIFFERENT)


def _embed(positive: Cnf, config, mover: Player = Player.P1) -> Position:
    """A `positive_cnf` result as a position under `config`."""
    return Position.initial(positive.to_formula(), positive.n, config, mover=mover)


class ReductionCheck(Record):
    """Dual-solve result for one instance: the source side's Outcome and the
    reduced side's."""

    __slots__ = ("source", "reduced")
    __hash__ = None

    @property
    def agree(self) -> bool:
        return self.source.winner is self.reduced.winner


def _check(game, position: Position, node_budget: int) -> ReductionCheck:
    """The source game under `solve_abstract` against the reduced position
    under `solve`, which searches for its winner alone, with no line."""
    source = solve_abstract(game, node_budget)
    return ReductionCheck(source, solve(position, node_budget, line=False))


def check_snort(
    graph: Graph,
    first_player: Player = Player.P1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ReductionCheck:
    game = SnortGame(graph, first_player)
    return _check(game, snort_to_position(graph, first_player), node_budget)


def check_p2c(graph: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> ReductionCheck:
    return _check(ProperTwoColoringGame(graph), p2c_to_position(graph), node_budget)


class QbfGame:
    """Ex0 Ax1 Ex2 ... cnf as a game, read straight off the clauses.

    This is the either-local-different game on the CNF, with P1 as the
    existential player, played without the formula layer: a state is
    `(k, open)`, the next variable and the mask of clauses no assignment
    so far satisfies (clause i is bit i), and a move is a value for x_k.
    The game ends when no clause is open, which P1 wins, or when an open
    clause has had its highest variable assigned, which P2 wins.
    """

    def __init__(self, cnf: Cnf):
        # `closes` first: a count too large to hold fails in one allocation
        self.closes = [0] * (cnf.n + 1)  # k -> clauses whose highest variable is k - 1
        self.satisfies = [[0, 0] for _ in range(cnf.n)]  # var -> [clauses F satisfies, T]
        for bit, clause in enumerate(cnf.clauses):
            for var, negated in clause:
                self.satisfies[var][not negated] |= 1 << bit
            self.closes[max(var for var, _ in clause) + 1] |= 1 << bit
        self.start = (0, (1 << len(cnf.clauses)) - 1)

    def initial_state(self):
        return self.start

    def mover(self, state) -> Player:
        return Player.P1 if state[0] % 2 == 0 else Player.P2

    def legal_moves(self, state) -> list:
        # a clause closes at k = its highest variable + 1 <= n, so moves need k < n
        k, open_ = state
        return [] if not open_ or open_ & self.closes[k] else [False, True]

    def apply(self, state, move):
        k, open_ = state
        return (k + 1, open_ & ~self.satisfies[k][move])

    def winner(self, state) -> Player:
        return Player.P2 if state[1] else Player.P1


def check_qbf_cnf(cnf: Cnf, node_budget: int = DEFAULT_NODE_BUDGET) -> ReductionCheck:
    """Alternating-quantifier truth of the CNF, by `QbfGame`, vs
    first-player win of the padded either-local-same game."""
    return _check(QbfGame(cnf), qbf_cnf_to_either_local_same(cnf), node_budget)


def check_positive_cnf(cnf: Cnf, node_budget: int = DEFAULT_NODE_BUDGET) -> ReductionCheck:
    game = PositiveCnfGame(cnf)
    return _check(game, _embed(game.cnf, BY_PLAYER_ANYWHERE_DIFFERENT), node_budget)


def toy_positive_equivalence_check(
    cnf: Cnf, node_budget: int = DEFAULT_NODE_BUDGET
) -> ReductionCheck:
    """Solve the instance with and without the per-player value restriction.

    Lifting the restriction never helps either player on a negation-free
    formula, so the winners should always agree.  Source is the restricted
    game, Schaefer's positive CNF game played by `solve_abstract` without
    the formula layer; reduced is the free (either-anywhere-different)
    formula game under `solve`.
    """
    game = PositiveCnfGame(cnf)
    return _check(game, _embed(game.cnf, EITHER_ANYWHERE_DIFFERENT), node_budget)


class GraphFormatError(ValueError):
    """Malformed graph file."""


def parse_graph(text: str) -> Graph:
    """Read the graph file format: "graph <n>", then "e <i> <j>" per edge
    and optional "paint <i> <blue|red>" lines, blue read as True."""
    n = None
    edges = []
    paint = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "graph":
            if n is not None:
                raise GraphFormatError(f"duplicate graph line (line {lineno})")
            if len(parts) != 2 or not is_decimal(parts[1]):
                raise GraphFormatError(f"bad graph line {line!r} (line {lineno})")
            n = int(parts[1])
        elif parts[0] == "e":
            if len(parts) != 3 or not is_decimal(parts[1]) or not is_decimal(parts[2]):
                raise GraphFormatError(f"bad edge line {line!r} (line {lineno})")
            edges.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "paint":
            if len(parts) != 3 or not is_decimal(parts[1]) or parts[2] not in ("blue", "red"):
                raise GraphFormatError(f"bad paint line {line!r} (line {lineno})")
            v = int(parts[1])
            if v in paint:
                raise GraphFormatError(f"vertex {v} painted twice (line {lineno})")
            paint[v] = parts[2] == "blue"
        else:
            raise GraphFormatError(f"unrecognized line {line!r} (line {lineno})")
    if n is None:
        raise GraphFormatError("missing graph line")
    values = [None] * n
    for v, value in paint.items():
        if not 0 <= v < n:
            raise GraphFormatError(f"painted vertex {v} out of range")
        values[v] = value
    try:
        return Graph(n, edges, values)
    except InvalidGraphError as e:
        raise GraphFormatError(str(e)) from None


def format_graph(g: Graph) -> str:
    lines = [f"graph {g.n_vertices}"]
    lines.extend(f"e {i} {j}" for i, j in g.edges)
    lines.extend(
        f"paint {v} {'blue' if value else 'red'}"
        for v, value in enumerate(g.paint)
        if value is not None
    )
    return "\n".join(lines) + "\n"
