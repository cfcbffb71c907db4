"""Shared test corpora: the worked-game formula, long forced-line
positions, exhaustive small-formula enumeration, an independent bit-parallel
truth-table oracle, a recursive reference evaluator, the paper's recursive
definition of blatant falsity and truth, the node count and sign check the
shape tests read, the seeded random formulas, positions and Snort graphs the
tests draw, the trace writer the round-trip tests read back, a replay
that collects every step, and a check of `solve`'s memo as a proof."""

import itertools
import random

from qbfgames.engine import (
    GameTrace,
    Goal,
    IllegalMoveError,
    Locality,
    Player,
    Position,
    RulesetConfig,
    final_winner,
    format_position,
    is_terminal,
    legal_moves,
    replay,
)
from qbfgames.formula import (
    FALSE,
    TRUE,
    And,
    Assignment,
    Const,
    Formula,
    Literal,
    Not,
    Or,
    UnassignedVariableError,
    substitute,
)
from qbfgames.generators import random_cnf, random_graph
from qbfgames.reductions import Graph

# Four 3-literal clauses over 7 variables; x5 never occurs.  Every bundled
# sample game plays on this formula.
SAMPLE_TEXT = (
    "(and (or (not x0) x3 (not x1)) (or x2 x1 (not x6)) "
    "(or x4 (not x6) x0) (or (not x2) (not x4) x3))"
)
SAMPLE_VARS = 7


def forced_line_position_text(ruleset, n, seed=0):
    """Position file: a by-player-local ruleset on a random 3-CNF over n
    variables with 2n clauses, each true under x0=T, x1=F, x2=T, ..., the
    line both by-player-local rulesets force.  So every move of that line is
    legal and the game runs all n moves: under the same goal P2 wins when n
    is even, and under the different goal P1 wins."""
    rng = random.Random(seed)
    clauses = []
    while len(clauses) < 2 * n:
        clause = [(var, rng.random() < 0.5) for var in sorted(rng.sample(range(n), 3))]
        # a literal is true on the line iff it is negated exactly when var is odd
        if any(negated == (var % 2 == 1) for var, negated in clause):
            lits = " ".join(f"(not x{var})" if negated else f"x{var}" for var, negated in clause)
            clauses.append(f"(or {lits})")
    choice, locality, goal = ruleset.rsplit("-", 2)
    return f"ruleset {choice} {locality} {goal}\nvars {n}\nassigned\n(and {' '.join(clauses)})\n"

_NVARS = 4
_FULL = (1 << (1 << _NVARS)) - 1  # 16 assignment slots -> 16-bit tables
_VAR_MASKS = [0] * _NVARS
for _b in range(1 << _NVARS):
    for _i in range(_NVARS):
        if _b >> _i & 1:
            _VAR_MASKS[_i] |= 1 << _b


def truth_table(f):
    """16-bit table over x0..x3: bit b set iff f is true under assignment b.

    Computed with plain bit arithmetic, independently of the fold.
    """
    if isinstance(f, Const):
        return _FULL if f.value else 0
    if isinstance(f, Literal):
        table = _VAR_MASKS[f.var]
        return (~table & _FULL) if f.negated else table
    if isinstance(f, Not):
        return ~truth_table(f.child) & _FULL
    if isinstance(f, And):
        out = _FULL
        for c in f.children:
            out &= truth_table(c)
        return out
    out = 0
    for c in f.children:
        out |= truth_table(c)
    return out


def completion_mask(a):
    """Bitmask of the full assignments extending partial assignment a."""
    mask = _FULL
    for i, v in enumerate(a.values):
        if v is None:
            continue
        mask &= _VAR_MASKS[i] if v else ~_VAR_MASKS[i] & _FULL
    return mask


def all_partial_assignments():
    """All 3^4 ternary assignments over 4 variables."""
    return [
        Assignment(values)
        for values in itertools.product((True, False, None), repeat=_NVARS)
    ]


_LEAVES = tuple(
    [Literal(v, neg) for v in range(_NVARS) for neg in (False, True)] + [TRUE, FALSE]
)


def enumerate_formulas(max_connectives=3, ternary=True):
    """All formulas over x0..x3 with up to `max_connectives` internal nodes.

    Leaves are the eight literals plus the two constants.  And/Or combine as
    binary nodes with order-insensitive dedup; with `ternary`, three-leaf
    And/Or nodes (and their negations) are appended as well to cover the
    wide-node code paths, but are not fed back into deeper combinations to
    keep the corpus a tractable size.  Levels are by exact connective count.
    """
    levels = [list(_LEAVES)]
    for depth in range(1, max_connectives + 1):
        level = [Not(f) for f in levels[depth - 1]]
        for lo in range((depth - 1) // 2 + 1):
            hi = depth - 1 - lo
            if lo == hi:
                pairs = itertools.combinations_with_replacement(levels[lo], 2)
            else:
                pairs = itertools.product(levels[lo], levels[hi])
            for a, b in pairs:
                level.append(And((a, b)))
                level.append(Or((a, b)))
        levels.append(level)
    out = []
    for level in levels:
        out.extend(level)
    if ternary and max_connectives >= 1:
        wide = []
        for triple in itertools.combinations_with_replacement(_LEAVES, 3):
            wide.append(And(triple))
            wide.append(Or(triple))
        out.extend(wide)
        if max_connectives >= 2:
            out.extend(Not(f) for f in wide)
    return out


def spec_evaluate(f, a):
    """Standard Boolean semantics by plain recursion, kept as the reference
    the fold is checked against; every variable in f must be assigned."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Literal):
        v = a.values[f.var]
        if v is None:
            raise UnassignedVariableError(f.var)
        return (not v) if f.negated else v
    if isinstance(f, Not):
        return not spec_evaluate(f.child, a)
    if isinstance(f, And):
        return all(spec_evaluate(c, a) for c in f.children)
    if isinstance(f, Or):
        return any(spec_evaluate(c, a) for c in f.children)
    raise TypeError(f"not a formula node: {f!r}")


def spec_blatantly_false(f, a):
    """Syntactically evident falsity relative to a partial assignment.

    The paper's recursive definition, kept as the reference the fold is
    checked against.  Holds for: a false-assigned literal, the constant
    false, a Not over a blatantly true child, an Or whose children are all
    blatantly false, and an And with at least one blatantly false child.
    Literals on unassigned variables are neither blatantly false nor
    blatantly true.
    """
    if isinstance(f, Const):
        return not f.value
    if isinstance(f, Literal):
        v = a.values[f.var]
        return v is not None and v == f.negated
    if isinstance(f, Not):
        return spec_blatantly_true(f.child, a)
    if isinstance(f, And):
        return any(spec_blatantly_false(c, a) for c in f.children)
    if isinstance(f, Or):
        return all(spec_blatantly_false(c, a) for c in f.children)
    raise TypeError(f"not a formula node: {f!r}")


def spec_blatantly_true(f, a):
    """Dual of `spec_blatantly_false`: syntactically evident truth."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Literal):
        v = a.values[f.var]
        return v is not None and v != f.negated
    if isinstance(f, Not):
        return spec_blatantly_false(f.child, a)
    if isinstance(f, And):
        return all(spec_blatantly_true(c, a) for c in f.children)
    if isinstance(f, Or):
        return any(spec_blatantly_true(c, a) for c in f.children)
    raise TypeError(f"not a formula node: {f!r}")


def node_count(f) -> int:
    """Number of AST nodes in f."""
    count = 0
    stack = [f]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
    return count


def is_positive(cnf) -> bool:
    """True iff no literal of the CNF is negated."""
    return all(not negated for clause in cnf.clauses for _, negated in clause)


def not_(f: Formula) -> Formula:
    """Negation builder; folds constants and literal signs, removes double Not."""
    if isinstance(f, Const):
        return FALSE if f.value else TRUE
    if isinstance(f, Literal):
        return Literal(f.var, not f.negated)
    if isinstance(f, Not):
        return f.child
    return Not(f)


def and_(*parts: Formula) -> Formula:
    """Conjunction builder; empty product is true, single part is unwrapped."""
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def or_(*parts: Formula) -> Formula:
    """Disjunction builder; empty sum is false, single part is unwrapped."""
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))


def random_snort_graph(rng: random.Random, n: int, edge_prob: float = 0.5,
                       paint_prob: float = 0.3) -> Graph:
    """Random graph with some vertices pre-painted, kept Snort-valid by
    never painting opposite colors on the two ends of an edge."""
    g = random_graph(rng, n, edge_prob)
    adj = [[] for _ in range(n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    paint = [None] * n
    for v in range(n):
        if rng.random() >= paint_prob:
            continue
        barred = {not paint[u] for u in adj[v] if paint[u] is not None}
        options = [value for value in (True, False) if value not in barred]  # blue, red
        if options:
            paint[v] = rng.choice(options)
    return Graph(n, g.edges, paint)


def random_formula(rng: random.Random, n: int, budget: int = 8) -> Formula:
    """Random formula tree over n variables with about `budget` connectives."""

    def build(budget: int) -> Formula:
        if budget <= 0 or rng.random() < 0.25:
            r = rng.random()
            if r < 0.05:
                return TRUE if rng.random() < 0.5 else FALSE
            return Literal(rng.randrange(n), rng.random() < 0.5)
        kind = rng.choice(("not", "and", "or", "and", "or"))
        if kind == "not":
            return not_(build(budget - 1))
        arity = rng.randint(2, 3)
        parts = [build((budget - 1) // arity) for _ in range(arity)]
        return and_(*parts) if kind == "and" else or_(*parts)

    if n <= 0:
        raise ValueError("need at least one variable")
    return build(budget)


def random_position(
    rng: random.Random,
    config: RulesetConfig,
    n: int,
    clauses: int,
    width: int = 3,
    max_open: int | None = None,
) -> Position:
    """Random mid-game position: a random CNF formula plus a random partial
    assignment (a prefix under local play).  `max_open` caps the number of
    still-unassigned variables."""
    formula = random_cnf(rng, n, clauses, width).to_formula()
    low = 0 if max_open is None else max(0, n - max_open)
    k = rng.randint(low, n)
    if config.locality is Locality.LOCAL:
        chosen = range(k)
    else:
        chosen = rng.sample(range(n), k)
    pairs = [(var, rng.random() < 0.5) for var in chosen]
    assignment = Assignment.from_pairs(n, pairs)
    return Position.initial(formula, n, config, assignment)


def format_trace(t: GameTrace) -> str:
    lines = [format_position(t.initial).rstrip("\n")]
    for m in t.moves:
        lines.append(f"move x{m.var} {'T' if m.value else 'F'}")
    return "\n".join(lines) + "\n"


def replay_all(trace: GameTrace):
    """(steps, error, winner) of a whole replay: the (move, position) pairs
    played, the IllegalMoveError that stopped it or None, and the winner when
    the game ran to its end without one, else None."""
    steps, error = [], None
    try:
        steps.extend(replay(trace))
    except IllegalMoveError as e:
        error = e
    p = steps[-1][1] if steps else trace.initial
    winner = final_winner(p) if error is None and is_terminal(p) else None
    return steps, error, winner


def check_memo_proof(position: Position, memo: dict, winner: Player) -> None:
    """Check `solve(position, memo=memo)`'s memo as a proof that `winner`
    wins, by the engine's rules alone; an AssertionError names the first
    entry that fails.

    Each entry's key is decoded into its assignment (base 4: digit 0
    unassigned, 1 false, 2 true for variable i at 4^i), the original formula
    is folded under it with `substitute`, and the mover follows from parity
    against the root.  Then: a constant fold under the different goal is a
    leaf with its fixed winner; with no legal move the winner is
    `final_winner`; a mover who wins has a legal child whose entry says so;
    and a mover who loses has an entry naming the opponent at every legal
    child.  Nothing of `Circuit` is used.
    """
    n, config = position.n, position.config
    root_key = sum((1 + value) << 2 * var for var, value in position.assignment.items())
    root_count = position.assignment.assigned_count
    assert memo.get(root_key) is winner, "root entry"
    for key, won in memo.items():
        values = [None if digit == 0 else digit == 2
                  for digit in ((key >> 2 * var) & 3 for var in range(n))]
        assignment = Assignment(tuple(values))
        mover = position.mover
        if (assignment.assigned_count - root_count) % 2:
            mover = mover.opponent
        folded = substitute(position.formula, values)
        if config.goal is Goal.DIFFERENT and type(folded) is Const:
            assert won is (Player.P1 if folded.value else Player.P2), ("leaf", key)
            continue
        p = Position(folded, n, assignment, config, mover)
        moves = legal_moves(p)
        if not moves:
            assert won is final_winner(p), ("finished", key)
            continue
        children = [memo.get(key + ((1 + m.value) << 2 * m.var)) for m in moves]
        if won is mover:
            assert mover in children, ("no winning child", key)
        else:
            assert won is mover.opponent, ("winner", key)
            assert all(child is won for child in children), ("a child unsearched or won", key)
