"""Boolean formula ASTs with partial evaluation by one And/Or fold.

Formulas are immutable trees built from five node kinds: `Const`, `Literal`,
`Not`, and the n-ary `And` / `Or`.  Variables are non-negative indices below a
declared count.  An assignment is a sequence with one value per variable:
``True``, ``False`` or ``None`` (unassigned).

Partial evaluation is one routine, `substitute(f, values)`, also bound as
`simplify`.  `blatantly_false`, the legality test of the same-goal rulesets,
asks whether the fold gives the false constant, and `evaluate` is the fold
too: it reads the constant the fold gives.

The text format is parenthesized prefix notation:

    formula := var | "(not " formula ")" | "(and " formula+ ")"
             | "(or " formula+ ")" | "true" | "false"
    var     := "x" nonnegative-decimal-integer

Whitespace between tokens is insignificant, and parentheses nest at most
`MAX_DEPTH` deep.  A negation applied directly to a variable parses to a
negated `Literal` rather than a `Not` node, and `to_text` renders negated
literals the same way, so parse -> to_text -> parse is a fixpoint.
"""

from __future__ import annotations

import itertools
import re

# Deepest parenthesis nesting `parse_formula` accepts.  The recursive walks,
# `substitute`, `to_text`, `Circuit`'s compile and the reader, spend at most
# two Python frames per level, so this keeps each well inside the default
# recursion limit.
MAX_DEPTH = 256

# A formula token: a parenthesis, or a run of anything but whitespace and
# parentheses.  `\s` is `str.isspace`; only "\n" starts a new line.
_TOKEN = re.compile(r"[()]|[^\s()]+")


class FormulaError(ValueError):
    """Base class for formula-level errors."""


class FormulaSyntaxError(FormulaError):
    """Malformed formula text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class VariableRangeError(FormulaError):
    """A variable index at or above the declared variable count."""

    def __init__(self, var: int, n: int):
        super().__init__(f"variable x{var} out of range for {n} variable(s)")
        self.var = var
        self.n = n


class UnassignedVariableError(FormulaError):
    """evaluate() hit a variable the assignment leaves open."""

    def __init__(self, var: int):
        super().__init__(f"variable x{var} is unassigned")
        self.var = var


_set = object.__setattr__


class Record:
    """Immutable value whose fields are its class's `__slots__`.

    Equality goes by type and fields, the hash by the tuple of fields, and
    `repr` names each field.  Setting or deleting an attribute raises
    AttributeError, so fields are stored with `object.__setattr__`: this
    `__init__` stores its arguments in slot order, and a subclass that
    normalises or validates calls it (the formula nodes, built in bulk by
    parsing and folding, store theirs directly).  A class that is not meant
    to be hashed sets `__hash__ = None`.  Copy and pickle rebuild a record
    from its fields through its constructor.
    """

    __slots__ = ()

    def __init__(self, *args):
        if len(args) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} arguments")
        for name, arg in zip(self.__slots__, args):
            _set(self, name, arg)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Formula(Record):
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()

    def __repr__(self):
        return to_text(self)


class Const(Formula):
    __slots__ = ("value",)


class Literal(Formula):
    __slots__ = ("var", "negated")

    def __init__(self, var: int, negated: bool = False):
        _set(self, "var", var)
        _set(self, "negated", negated)


class Not(Formula):
    __slots__ = ("child",)


class And(Formula):
    __slots__ = ("children",)

    def __init__(self, children):
        _set(self, "children", tuple(children))
        if not self.children:
            raise ValueError("And requires at least one child; use Const(True)")


class Or(Formula):
    __slots__ = ("children",)

    def __init__(self, children):
        _set(self, "children", tuple(children))
        if not self.children:
            raise ValueError("Or requires at least one child; use Const(False)")


TRUE = Const(True)
FALSE = Const(False)


def evaluate(f: Formula, values) -> bool:
    """Standard Boolean semantics: the fold of f under values, which must be
    a constant; otherwise raises UnassignedVariableError naming the lowest
    variable left open in the fold."""
    s = substitute(f, values)
    if type(s) is Const:
        return s.value
    raise UnassignedVariableError(min(free_variables(s)))


def blatantly_false(f: Formula, values) -> bool:
    """The same-goal legality test: f folds to the false constant under values.

    The paper calls f blatantly false when a false-assigned literal, the
    constant false, a Not over a blatantly true child, an Or of blatantly
    false children, or an And with a blatantly false child makes it so.
    The fold `substitute` decides exactly that, and its TRUE result decides
    the dual, blatant truth.  Literals on unassigned variables fold to
    neither, so e.g. x0 AND (not x0) is a contradiction but not blatantly
    false.
    """
    s = substitute(f, values)
    return type(s) is Const and not s.value


def substitute(f: Formula, values) -> Formula:
    """Partially evaluate f under values, one True/False/None per variable.

    Substitutes assigned variables by constants, then applies a fixed rule
    set: constant short-circuiting, removal of constant children, flattening
    of nested same-kind connectives, single-child unwrapping, and double
    negation removal; a negated literal is a `Literal`, as the parser builds
    it.  No distribution or absorption.  The result mentions only unassigned
    variables, or is a constant, and agrees with f on every completion of
    the remaining variables.

    Any subtree the fold leaves unchanged is returned as the same object, so
    refolding a residual after one more assignment rebuilds only the paths
    that hold the new variable.  `apply_move` relies on that: it refolds
    the last position's formula at every move.
    """
    kind = type(f)
    if kind is And or kind is Or:
        is_and = kind is And
        other = Or if is_and else And
        parts = []
        changed = False
        for c in f.children:
            # Literal children, most of what the solver folds, are handled
            # inline: a call per literal would cost more than the loop.
            kind_c = type(c)
            if kind_c is Literal:
                v = values[c.var]
                if v is None:
                    parts.append(c)
                    continue
                truth = v != c.negated
            else:
                # So is a clause: the other connective over two or more open
                # literals, which folds to itself.  A same-kind or one-child
                # connective may flatten or unwrap, so it recurses.
                if kind_c is other and len(c.children) > 1:
                    for g in c.children:
                        if type(g) is not Literal or values[g.var] is not None:
                            break
                    else:
                        parts.append(c)
                        continue
                s = substitute(c, values)
                if type(s) is Const:
                    truth = s.value
                elif type(s) is kind:
                    parts.extend(s.children)
                    changed = True
                    continue
                else:
                    parts.append(s)
                    changed = changed or s is not c
                    continue
            # A constant child: the absorbing value decides the node, the
            # identity value is dropped.
            if truth != is_and:
                return FALSE if is_and else TRUE
            changed = True
        if not changed and len(parts) > 1:
            return f
        if not parts:
            return TRUE if is_and else FALSE
        if len(parts) == 1:
            return parts[0]
        return kind(tuple(parts))
    if kind is Literal:
        v = values[f.var]
        if v is None:
            return f
        return TRUE if v != f.negated else FALSE
    if kind is Not:
        s = substitute(f.child, values)
        if type(s) is Const:
            return FALSE if s.value else TRUE
        if type(s) is Not:
            return s.child
        if type(s) is Literal:
            return Literal(s.var, not s.negated)
        return f if s is f.child else Not(s)
    if kind is Const:
        return f
    raise TypeError(f"not a formula node: {f!r}")


# The fold's other name, which the engine and the CLI call it by.
simplify = substitute


class Circuit:
    """A formula compiled for incremental three-valued evaluation.

    Negations are pushed down to the literals by De Morgan and nested
    connectives of one kind merge, which leaves a tree of And/Or gates over
    literals and constants in which a gate's kind always differs from its
    parent's.  Each gate counts its children at its controlling value (false
    for And, true for Or) and its open children.  The gate is at its
    controlling value while the first count is non-zero, at the other value
    once both are zero, and open otherwise, which is what `substitute` folds
    it to.  `assign` updates the counts from the variable's occurrences
    upward and stops at the first gate whose value does not change, so it
    takes time in the variable's occurrences, not in the formula's size.
    Chaff (Moskewicz et al., DAC 2001) tracks clause states with counters in
    the same way.  A caller takes a move back by restoring a copy of
    `counts` in place and setting the variable's `values` entry to None.

    Gate 0 is an And over the whole formula, so `value` is True, False or
    None exactly as `substitute(f, values)` is TRUE, FALSE or not a
    constant.  `counts[g]` packs gate g's two counts as
    controlling * base + open, with `base` above any gate's open count.
    One more slot trails the gates' counts: 0 here, and in a
    `DecidedCircuit` the mask of the gates that have a value.
    """

    __slots__ = ("values", "counts", "_base", "_parent", "_occ")

    def __init__(self, f: Formula, n: int):
        self.values = [None] * n
        self._occ = occ = {}
        self._parent = parent = [-1]
        is_or, ctrl, open_ = [False], [0], [0]

        def add(children, negate, gate):
            """Compile `children`, each negated if `negate`, under `gate`."""
            gate_is_or = is_or[gate]
            for f in children:
                neg = negate
                while type(f) is Not:
                    f, neg = f.child, not neg
                kind = type(f)
                if kind is Literal:
                    # (gate, hit) under each value: hit iff the literal then
                    # takes the gate's controlling value
                    hit = (f.negated != neg) == gate_is_or
                    entry = occ.get(f.var)
                    if entry is None:  # cheaper than setdefault's fresh pair
                        entry = occ[f.var] = ([], [])
                    falses, trues = entry
                    falses.append((gate, hit))
                    trues.append((gate, not hit))
                    open_[gate] += 1
                elif kind is Const:
                    if (f.value != neg) == gate_is_or:
                        ctrl[gate] += 1
                elif kind is And or kind is Or:
                    child_is_or = (kind is Or) != neg
                    if child_is_or == gate_is_or:
                        add(f.children, neg, gate)
                        continue
                    child = len(is_or)
                    is_or.append(child_is_or)
                    ctrl.append(0)
                    open_.append(0)
                    parent.append(gate)
                    add(f.children, neg, child)
                    # A gate that constants decide stays decided.  At its
                    # controlling value it is at the parent's other value.
                    if not ctrl[child]:
                        if open_[child]:
                            open_[gate] += 1
                        else:
                            ctrl[gate] += 1
                else:
                    raise TypeError(f"not a formula node: {f!r}")

        add((f,), False, 0)
        self._base = base = max(open_) + 1
        self.counts = [c * base + o for c, o in zip(ctrl, open_)] + [0]

    @property
    def value(self):
        """The root's three-valued value: True, False, or None when open."""
        count = self.counts[0]
        if count >= self._base:
            return False
        return None if count else True

    def assign(self, var: int, value: bool):
        """Set an unassigned variable and return the root's new value."""
        if self.values[var] is not None:
            raise ValueError(f"variable x{var} is already assigned")
        self.values[var] = value
        counts, parent, base = self.counts, self._parent, self._base
        step = base - 1
        for gate, hit in self._occ.get(var, ((), ()))[value]:
            while True:
                count = counts[gate]
                if hit:
                    counts[gate] = count + step
                    if count >= base:
                        break
                else:
                    count -= 1
                    counts[gate] = count
                    if count:
                        break
                # The gate took a value.  A gate and its parent differ in
                # kind, so its controlling value is the parent's other one.
                gate = parent[gate]
                if gate < 0:
                    break
                hit = not hit
        # `value`, inline: `solve` reads it after every move
        count = counts[0]
        return False if count >= base else None if count else True


class DecidedCircuit(Circuit):
    """A `Circuit` that also keeps one decided bit per gate, in the last
    slot of `counts`: bit g of `counts[-1]` is set iff gate g has a value.
    `assign` sets the bit of each gate that takes a value on the path it
    already walks, so restoring a copy of `counts` takes the bits back too.

    Under an open gate every decided child sits at its non-controlling
    value, so the decided gates and the root's value fix the fold up to
    which variables are open.  The bits are a subclass's because setting
    them costs every move, and only `solve`'s either-local search needs them.
    """

    __slots__ = ()

    def __init__(self, f: Formula, n: int):
        super().__init__(f, n)
        counts, base = self.counts, self._base
        counts[-1] = sum(1 << g for g, count in enumerate(counts[:-1]) if count >= base or not count)

    def assign(self, var: int, value: bool):
        """`Circuit.assign`, setting the bit of each gate that takes a value."""
        if self.values[var] is not None:
            raise ValueError(f"variable x{var} is already assigned")
        self.values[var] = value
        counts, parent, base = self.counts, self._parent, self._base
        step = base - 1
        decided = counts[-1]
        for gate, hit in self._occ.get(var, ((), ()))[value]:
            while True:
                count = counts[gate]
                if hit:
                    counts[gate] = count + step
                    if count >= base:
                        break
                else:
                    count -= 1
                    counts[gate] = count
                    if count:
                        break
                decided |= 1 << gate
                gate = parent[gate]
                if gate < 0:
                    break
                hit = not hit
        counts[-1] = decided
        count = counts[0]
        return False if count >= base else None if count else True


def free_variables(f: Formula) -> set:
    """Indices of all variables occurring in f."""
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is And or kind is Or:
            stack.extend(node.children)
        elif kind is Literal:
            out.add(node.var)
        elif kind is Not:
            stack.append(node.child)
    return out


def to_text(f: Formula, memo: dict | None = None) -> str:
    """Render f in the text grammar; inverse of `parse_formula`.

    `memo`, when given, maps `id(node)` to `(node, text)` for the And and Or
    nodes already rendered, and may be shared across calls: formulas that
    `substitute` folds from one another share their unchanged subtrees as
    the same objects, so each shared subtree is rendered once.  An entry
    holds its node, so the id cannot be reused by another node while the
    entry exists.
    """
    kind = type(f)
    if kind is And or kind is Or:
        head = "(and " if kind is And else "(or "
        if memo is None:
            return head + " ".join([to_text(c) for c in f.children]) + ")"
        get = memo.get
        hit = get(id(f))
        if hit is not None:
            return hit[1]
        # a memoized child's text is read here, with no call for it
        texts = [
            to_text(c, memo) if (hit := get(id(c))) is None else hit[1] for c in f.children
        ]
        text = head + " ".join(texts) + ")"
        memo[id(f)] = (f, text)
        return text
    if kind is Literal:
        return f"(not x{f.var})" if f.negated else f"x{f.var}"
    if kind is Not:
        return f"(not {to_text(f.child, memo)})"
    if kind is Const:
        return "true" if f.value else "false"
    raise TypeError(f"not a formula node: {f!r}")


def is_decimal(text: str) -> bool:
    """True iff `text` is ASCII digits only; `str.isdigit` also takes "²" and "٣"."""
    return text.isascii() and text.isdigit()


def parse_formula(text: str, n: int) -> Formula:
    """Parse formula text over n declared variables.

    Raises FormulaSyntaxError with position info on malformed input or
    nesting deeper than MAX_DEPTH, and VariableRangeError when an index is
    not below n.
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 1, 1)
    end = len(tokens)

    def error(message, index):
        """The syntax error at token `index`; only an error scans again for offsets."""
        offset = next(itertools.islice(_TOKEN.finditer(text), index, None)).start()
        line = text.count("\n", 0, offset) + 1
        return FormulaSyntaxError(message, line, offset - text.rfind("\n", 0, offset))

    def token(i):
        if i == end:
            raise error("unexpected end of input", end - 1)
        return tokens[i]

    def read(i, depth):
        """The formula that starts at token i, and the index after it."""
        tok = token(i)
        if tok == "(":
            if depth == MAX_DEPTH:
                raise error(f"nesting deeper than {MAX_DEPTH} levels", i)
            head = token(i + 1)
            if head == "not":
                child, j = read(i + 2, depth + 1)
                tok = token(j)
                if tok != ")":
                    raise error(f"expected ')', got {tok!r}", j)
                if type(child) is Literal:
                    return Literal(child.var, not child.negated), j + 1
                return Not(child), j + 1
            if head != "and" and head != "or":
                raise error(f"expected 'not', 'and' or 'or', got {head!r}", i + 1)
            children = []
            j = i + 2
            while True:
                child, j = read(j, depth + 1)
                children.append(child)
                if j == end:
                    raise error("missing ')'", i)
                if tokens[j] == ")":
                    return (And if head == "and" else Or)(tuple(children)), j + 1
        if tok == ")":
            raise error("unexpected ')'", i)
        if tok == "true":
            return TRUE, i + 1
        if tok == "false":
            return FALSE, i + 1
        if tok.startswith("x") and is_decimal(tok[1:]):
            var = int(tok[1:])
            if var >= n:
                raise VariableRangeError(var, n)
            return Literal(var, False), i + 1
        raise error(f"unrecognized token {tok!r}", i)

    result, i = read(0, 0)
    if i < end:
        raise error(f"trailing input {tokens[i]!r}", i)
    return result
