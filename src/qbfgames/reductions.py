"""Source games and the constructive reductions into the formula rulesets.

Five constructions, each paired with a dual-solve check that the optimal-play
winner carries over:

  * Snort (partizan vertex painting)      -> by-player-anywhere-same
  * Proper 2-Coloring (impartial)         -> either-anywhere-same
  * CNF with alternating quantifiers      -> either-local-same
  * Positive CNF (Schaefer's game)        -> by-player-anywhere-different
  * Positive CNF with free value choice   -> either-anywhere-different

Blue maps to True/P1 in the graph games; elsewhere first mover maps to
first mover.

Snort, Proper 2-Coloring and the positive CNF game are played by
`solve_abstract` on one board, `_Board`: a state is `(trues, falses, mover)`,
two int bitmasks of the cells holding true (blue) and false (red) and the
Player to move, and a move `(v, value)` writes one cell.
"""

from __future__ import annotations

from enum import Enum

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
from .formula import TRUE, And, Assignment, Literal, Or, Record, is_decimal
from .solver import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    Outcome,
    call_deep,
    solve,
    solve_abstract,
)


class Color(Enum):
    UNCOLORED = "uncolored"
    BLUE = "blue"
    RED = "red"


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

    `edges` is a frozenset of (i, j) pairs with i < j, and `colors` a tuple
    of one Color per vertex.
    """

    __slots__ = ("n_vertices", "edges", "colors")

    @classmethod
    def build(cls, n_vertices: int, edges, colors=None) -> "Graph":
        if n_vertices < 0:
            raise InvalidGraphError("vertex count must be non-negative")
        normalized = set()
        for i, j in edges:
            if i == j:
                raise InvalidGraphError(f"self-loop at vertex {i}")
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise InvalidGraphError(f"edge ({i}, {j}) out of range")
            normalized.add((min(i, j), max(i, j)))
        if colors is None:
            colors = (Color.UNCOLORED,) * n_vertices
        colors = tuple(colors)
        if len(colors) != n_vertices:
            raise InvalidGraphError("color list length must match vertex count")
        return cls(n_vertices, frozenset(normalized), colors)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def is_uncolored(self) -> bool:
        return all(c is Color.UNCOLORED for c in self.colors)


def _check_snort_paint(graph: Graph):
    for i, j in graph.edges:
        pair = {graph.colors[i], graph.colors[j]}
        if pair == {Color.BLUE, Color.RED}:
            raise InvalidSnortGraphError(
                f"vertices {i} and {j} are adjacent with opposite colors"
            )


class _Board:
    """The board the three source games share: players take turns writing
    true or false into empty cells.

    A state is `(trues, falses, mover)`: bit v of `trues` (of `falses`) is
    set when cell v holds true (false), and `mover` is the Player to move.
    Blue is true and P1 in the graph games.  A move is `(v, value)`.  A
    game sets `start` and defines `legal_moves`; the stuck mover loses
    unless the game defines its own `winner`.
    """

    def initial_state(self):
        return self.start

    def mover(self, state) -> Player:
        return state[2]

    def apply(self, state, move):
        trues, falses, mover = state
        v, value = move
        if value:
            return (trues | 1 << v, falses, mover.opponent)
        return (trues, falses | 1 << v, mover.opponent)

    def is_terminal(self, state) -> bool:
        return not self.legal_moves(state)

    def winner(self, state) -> Player:
        return state[2].opponent


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
        blue = sum(1 << v for v, color in enumerate(graph.colors) if color is Color.BLUE)
        red = sum(1 << v for v, color in enumerate(graph.colors) if color is Color.RED)
        self.start = (blue, red, first_player)

    def legal_moves(self, state) -> list:
        trues, falses, mover = state
        own = mover is Player.P1
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
        if not graph.is_uncolored():
            raise InvalidGraphError("proper 2-coloring starts from an uncolored graph")
        self.neighbours = _neighbour_masks(graph)
        self.start = (0, 0, Player.P1)

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


class PositiveCnfInstance(Record):
    """Negation-free CNF with clause width at most 3."""

    __slots__ = ("n", "clauses")  # clauses: frozensets of variables

    def __init__(self, n: int, clauses):
        super().__init__(n, tuple(frozenset(clause) for clause in clauses))
        if self.n < 0:
            raise PositiveCnfError("variable count must be non-negative")
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise PositiveCnfError(
                    f"clause width must be 1..3, got {len(clause)}"
                )
            for var in clause:
                if not 0 <= var < self.n:
                    raise PositiveCnfError(f"variable x{var} out of range")

    @classmethod
    def from_cnf(cls, cnf: Cnf) -> "PositiveCnfInstance":
        for clause in cnf.clauses:
            for var, negated in clause:
                if negated:
                    raise NegationError(f"negated literal on x{var}")
        return cls(cnf.n, tuple(frozenset(var for var, _ in clause) for clause in cnf.clauses))

    def to_cnf(self) -> Cnf:
        return Cnf(
            self.n,
            tuple(tuple((var, False) for var in sorted(clause)) for clause in self.clauses),
        )

    def to_formula(self):
        return self.to_cnf().to_formula()


class PositiveCnfGame(_Board):
    """P1 sets any unassigned variable true, P2 sets one false; the
    formula's final value decides the winner (true = P1).  P1 moves first."""

    def __init__(self, instance: PositiveCnfInstance):
        self.n = instance.n
        self.clauses = [sum(1 << v for v in clause) for clause in instance.clauses]
        self.start = (0, 0, Player.P1)

    def legal_moves(self, state) -> list:
        trues, falses, mover = state
        assigned = trues | falses
        value = mover is Player.P1
        return [(v, value) for v in range(self.n) if not assigned >> v & 1]

    def winner(self, state) -> Player:
        trues = state[0]
        return Player.P1 if all(clause & trues for clause in self.clauses) else Player.P2


def snort_to_position(graph: Graph, first_player: Player = Player.P1) -> Position:
    """Encode a Snort position as by-player-anywhere-same.

    Each edge (i, j) contributes the clause pair (xi or not xj) and
    (not xi or xj); painted vertices become pre-assigned variables
    (Blue -> true, Red -> false) and Blue moves as P1/True.
    """
    _check_snort_paint(graph)
    clauses = []
    for i, j in graph.sorted_edges():
        clauses.append(Or((Literal(i), Literal(j, True))))
        clauses.append(Or((Literal(i, True), Literal(j))))
    formula = And(tuple(clauses)) if clauses else TRUE
    pairs = [
        (v, color is Color.BLUE)
        for v, color in enumerate(graph.colors)
        if color is not Color.UNCOLORED
    ]
    assignment = Assignment.from_pairs(graph.n_vertices, pairs)
    return Position.initial(
        formula, graph.n_vertices, BY_PLAYER_ANYWHERE_SAME, assignment, first_player
    )


def p2c_to_position(graph: Graph) -> Position:
    """Encode a Proper 2-Coloring graph as either-anywhere-same.

    Each edge (i, j) contributes (xi and not xj) or (not xi and xj), which
    turns blatantly false exactly when both endpoints get the same value.
    """
    if not graph.is_uncolored():
        raise InvalidGraphError("proper 2-coloring reduction takes an uncolored graph")
    gadgets = []
    for i, j in graph.sorted_edges():
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


def positive_cnf_to_bpad(
    instance: PositiveCnfInstance, first_player: Player = Player.P1
) -> Position:
    """Identity embedding of a positive instance into by-player-anywhere-different."""
    return Position.initial(
        instance.to_formula(),
        instance.n,
        BY_PLAYER_ANYWHERE_DIFFERENT,
        mover=first_player,
    )


def toy_positive_to_ead(instance: PositiveCnfInstance) -> Position:
    """Identity embedding of a positive instance into either-anywhere-different."""
    return Position.initial(instance.to_formula(), instance.n, EITHER_ANYWHERE_DIFFERENT)


class ReductionCheck(Record):
    """Dual-solve result for one instance: each side's winner and Outcome."""

    __slots__ = ("source_winner", "reduced_winner", "source_outcome", "reduced_outcome")
    __hash__ = None

    @property
    def agree(self) -> bool:
        return self.source_winner is self.reduced_winner


def check_snort(
    graph: Graph,
    first_player: Player = Player.P1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ReductionCheck:
    source = solve_abstract(SnortGame(graph, first_player), node_budget)
    reduced = solve(snort_to_position(graph, first_player), node_budget)
    return ReductionCheck(source.winner, reduced.winner, source, reduced)


def check_p2c(graph: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> ReductionCheck:
    source = solve_abstract(ProperTwoColoringGame(graph), node_budget)
    reduced = solve(p2c_to_position(graph), node_budget)
    return ReductionCheck(source.winner, reduced.winner, source, reduced)


def qbf_truth(cnf: Cnf, node_budget: int = DEFAULT_NODE_BUDGET) -> Outcome:
    """Truth of Ex0 Ax1 Ex2 ... cnf, read straight off the clauses.

    This is the either-local-different game on the CNF, with P1 as the
    existential player, decided without the formula layer or `solve`: clause
    i is bit i of a mask of clauses no assignment so far satisfies, and a
    clause still in the mask when its highest variable is assigned is false.
    `nodes` counts the quantifier prefixes visited, against `node_budget`;
    the outcome carries no variation.
    """
    satisfies = [[0, 0] for _ in range(cnf.n)]  # var -> [clauses F satisfies, T]
    closes = [0] * cnf.n  # var -> clauses whose highest variable it is
    for bit, clause in enumerate(cnf.clauses):
        for var, negated in clause:
            satisfies[var][not negated] |= 1 << bit
        closes[max(var for var, _ in clause)] |= 1 << bit
    nodes = 0

    def holds(var, unsatisfied):
        # every clause closes below cnf.n, so a non-empty mask has var < n
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget)
        if not unsatisfied:
            return True
        exists = var % 2 == 0
        for mask in satisfies[var]:
            rest = unsatisfied & ~mask
            if (not rest & closes[var] and holds(var + 1, rest)) == exists:
                return exists
        return not exists

    # `holds` recurses once per variable.
    true = call_deep(cnf.n + 1, holds, 0, (1 << len(cnf.clauses)) - 1)
    return Outcome(Player.P1 if true else Player.P2, nodes=nodes)


def check_qbf_cnf(cnf: Cnf, node_budget: int = DEFAULT_NODE_BUDGET) -> ReductionCheck:
    """Alternating-quantifier truth of the CNF, by `qbf_truth`, vs
    first-player win of the padded either-local-same game."""
    source = qbf_truth(cnf, node_budget)
    reduced = solve(qbf_cnf_to_either_local_same(cnf), node_budget)
    return ReductionCheck(source.winner, reduced.winner, source, reduced)


def check_positive_cnf(
    instance: PositiveCnfInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> ReductionCheck:
    source = solve_abstract(PositiveCnfGame(instance), node_budget)
    reduced = solve(positive_cnf_to_bpad(instance), node_budget)
    return ReductionCheck(source.winner, reduced.winner, source, reduced)


def toy_positive_equivalence_check(
    instance: PositiveCnfInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> ReductionCheck:
    """Solve the instance with and without the per-player value restriction.

    Lifting the restriction never helps either player on a negation-free
    formula, so the winners should always agree.  Source is the restricted
    game, Schaefer's positive CNF game played by `solve_abstract` without
    the formula layer; reduced is the free (either-anywhere-different)
    formula game under `solve`.
    """
    source = solve_abstract(PositiveCnfGame(instance), node_budget)
    reduced = solve(toy_positive_to_ead(instance), node_budget)
    return ReductionCheck(source.winner, reduced.winner, source, reduced)


class GraphFormatError(Exception):
    """Malformed graph file."""


def parse_graph(text: str) -> Graph:
    """Read the graph file format: "graph <n>", then "e <i> <j>" per edge
    and optional "paint <i> <blue|red>" lines."""
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
            paint[v] = Color.BLUE if parts[2] == "blue" else Color.RED
        else:
            raise GraphFormatError(f"unrecognized line {line!r} (line {lineno})")
    if n is None:
        raise GraphFormatError("missing graph line")
    colors = [Color.UNCOLORED] * n
    for v, color in paint.items():
        if not 0 <= v < n:
            raise GraphFormatError(f"painted vertex {v} out of range")
        colors[v] = color
    try:
        return Graph.build(n, edges, colors)
    except InvalidGraphError as e:
        raise GraphFormatError(str(e)) from None


def format_graph(g: Graph) -> str:
    lines = [f"graph {g.n_vertices}"]
    lines.extend(f"e {i} {j}" for i, j in g.sorted_edges())
    lines.extend(
        f"paint {v} {color.value}"
        for v, color in enumerate(g.colors)
        if color is not Color.UNCOLORED
    )
    return "\n".join(lines) + "\n"
