"""Shared test corpora: the worked-game formula, long forced-line
positions, exhaustive small-formula enumeration, an independent bit-parallel
truth-table oracle, the paper's recursive definition of blatant falsity
and truth, and the node count and sign check the shape tests read."""

import itertools
import random

from qbfgames.formula import (
    FALSE,
    TRUE,
    And,
    Assignment,
    Const,
    Literal,
    Not,
    Or,
)

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

    Computed with plain bit arithmetic, independently of evaluate().
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
