"""Boolean formula ASTs with partial evaluation by one And/Or fold.

Formulas are immutable trees built from five node kinds: `Const`, `Literal`,
`Not`, and the n-ary `And` / `Or`.  Variables are non-negative indices below a
declared count, and game state assigns each variable one of three values:
true, false, or unassigned (represented as ``True`` / ``False`` / ``None``).

Partial evaluation is one routine, `substitute(f, values)`.  `simplify` is
that fold under an `Assignment`, `blatantly_false`, the legality test of
the same-goal rulesets, asks whether the fold gives the false constant, and
`evaluate` is the fold too: it reads the constant the fold gives.

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

import re

# Deepest parenthesis nesting `parse_formula` accepts.  The recursive walks,
# `substitute`, `to_text`, `Circuit`'s compile and the reader, spend at most
# two Python frames per level, so this keeps each well inside the default
# recursion limit.
MAX_DEPTH = 256

# A formula token: a parenthesis, or a run of anything but whitespace and
# parentheses.  `\s` is `str.isspace`; only "\n" starts a new line.
_TOKEN = re.compile(r"[()]|[^\s()]+")


class FormulaError(Exception):
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
    normalises or validates calls it (the formula nodes and `Assignment`,
    built in bulk by parsing and folding, store theirs directly).  A class
    that is not meant to be hashed sets `__hash__ = None`.  Copy and pickle
    rebuild a record from its fields through its constructor.
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


class Assignment(Record):
    """Per-variable ternary state: a tuple holding True, False, or None.

    Values are never overwritten; `assign` returns a new Assignment and
    refuses to touch an already-assigned variable.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        _set(self, "values", tuple(values))

    @classmethod
    def empty(cls, n: int) -> "Assignment":
        if n < 0:
            raise ValueError("variable count must be non-negative")
        return cls((None,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Assignment":
        values = [None] * n
        for var, value in pairs:
            if not 0 <= var < n:
                raise VariableRangeError(var, n)
            if values[var] is not None:
                raise ValueError(f"variable x{var} assigned twice")
            values[var] = bool(value)
        return cls(tuple(values))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, var: int):
        return self.values[var]

    def assign(self, var: int, value: bool) -> "Assignment":
        if self.values[var] is not None:
            raise ValueError(f"variable x{var} is already assigned")
        values = list(self.values)
        values[var] = bool(value)
        return Assignment(tuple(values))

    @property
    def assigned_count(self) -> int:
        return sum(1 for v in self.values if v is not None)

    def unassigned(self) -> list:
        return [i for i, v in enumerate(self.values) if v is None]

    def lowest_unassigned(self):
        for i, v in enumerate(self.values):
            if v is None:
                return i
        return None

    def items(self):
        """Assigned (var, value) pairs in ascending variable order."""
        return [(i, v) for i, v in enumerate(self.values) if v is not None]


def evaluate(f: Formula, a: Assignment) -> bool:
    """Standard Boolean semantics: the fold of f under a, which must be a
    constant; otherwise raises UnassignedVariableError naming the lowest
    variable left open in the fold."""
    s = substitute(f, a.values)
    if type(s) is Const:
        return s.value
    raise UnassignedVariableError(min(free_variables(s)))


def blatantly_false(f: Formula, a: Assignment) -> bool:
    """The same-goal legality test: f folds to the false constant under a.

    The paper calls f blatantly false when a false-assigned literal, the
    constant false, a Not over a blatantly true child, an Or of blatantly
    false children, or an And with a blatantly false child makes it so.
    The fold `substitute` decides exactly that, and its TRUE result decides
    the dual, blatant truth.  Literals on unassigned variables fold to
    neither, so e.g. x0 AND (not x0) is a contradiction but not blatantly
    false.
    """
    s = substitute(f, a.values)
    return type(s) is Const and not s.value


def simplify(f: Formula, a: Assignment) -> Formula:
    """Partially evaluate f under a.

    Substitutes assigned variables by constants, then applies a fixed rule
    set: constant short-circuiting, removal of constant children, flattening
    of nested same-kind connectives, single-child unwrapping, and double
    negation removal; a negated literal is a `Literal`, as the parser builds
    it.  No distribution or absorption.  The result mentions only unassigned
    variables, or is a constant, and agrees with f on every completion of
    the remaining variables.
    """
    return substitute(f, a.values)


def substitute(f: Formula, values) -> Formula:
    """`simplify` over a bare per-variable sequence (None = unassigned).

    Any subtree the fold leaves unchanged is returned as the same object, so
    refolding a residual after one more assignment rebuilds only the paths
    that hold the new variable.  `apply_move` relies on that: it refolds
    the last position's formula at every move.
    """
    kind = type(f)
    if kind is And or kind is Or:
        is_and = kind is And
        parts = []
        changed = False
        for c in f.children:
            # Literal children, most of what the solver folds, are handled
            # inline: a call per literal would cost more than the loop.
            if type(c) is Literal:
                v = values[c.var]
                if v is None:
                    parts.append(c)
                    continue
                truth = v != c.negated
            else:
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


class Circuit:
    """A formula compiled for incremental three-valued evaluation.

    Negations are pushed down to the literals by De Morgan and nested
    connectives of one kind merge, which leaves a tree of And/Or gates over
    literals and constants in which a gate's kind always differs from its
    parent's.  Each gate counts its children at its controlling value (false
    for And, true for Or) and its open children.  The gate is at its
    controlling value while the first count is non-zero, at the other value
    once both are zero, and open otherwise, which is what `substitute` folds
    it to.  `assign` and `unassign` update the counts
    from the variable's occurrences upward and stop at the first gate whose
    value does not change, so they take time in the variable's occurrences,
    not in the formula's size.  Chaff (Moskewicz et al., DAC 2001) tracks
    clause states with counters in the same way.

    Gate 0 is an And over the whole formula, so `value` is True, False or
    None exactly as `substitute(f, values)` is TRUE, FALSE or not a
    constant.  `counts[g]` packs gate g's two counts as
    controlling * base + open, with `base` above any gate's open count.
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
        self.counts = [c * base + o for c, o in zip(ctrl, open_)]

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

    def unassign(self, var: int):
        """Undo `assign(var, ...)` and return the root's value."""
        value = self.values[var]
        if value is None:
            raise ValueError(f"variable x{var} is not assigned")
        self.values[var] = None
        counts, parent, base = self.counts, self._parent, self._base
        step = base - 1
        for gate, hit in self._occ.get(var, ((), ()))[value]:
            while True:
                count = counts[gate]
                if hit:
                    count -= step
                    counts[gate] = count
                    if count >= base:
                        break
                else:
                    counts[gate] = count + 1
                    if count:
                        break
                gate = parent[gate]
                if gate < 0:
                    break
                hit = not hit
        count = counts[0]
        return False if count >= base else None if count else True


def free_variables(f: Formula) -> set:
    """Indices of all variables occurring in f."""
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Literal):
            out.add(node.var)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
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
        if memo is not None:
            hit = memo.get(id(f))
            if hit is not None:
                return hit[1]
        head = "(and " if kind is And else "(or "
        text = head + " ".join([to_text(c, memo) for c in f.children]) + ")"
        if memo is not None:
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
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    if not tokens:
        raise FormulaSyntaxError("empty formula", 1, 1)
    end = len(tokens)

    def error(message, offset):
        line = text.count("\n", 0, offset) + 1
        return FormulaSyntaxError(message, line, offset - text.rfind("\n", 0, offset))

    def token(i):
        if i == end:
            raise error("unexpected end of input", tokens[-1][1])
        return tokens[i]

    def read(i, depth):
        """The formula that starts at token i, and the index after it."""
        tok, at = token(i)
        if tok == "(":
            if depth == MAX_DEPTH:
                raise error(f"nesting deeper than {MAX_DEPTH} levels", at)
            head, head_at = token(i + 1)
            if head == "not":
                child, i = read(i + 2, depth + 1)
                tok, close_at = token(i)
                if tok != ")":
                    raise error(f"expected ')', got {tok!r}", close_at)
                if type(child) is Literal:
                    return Literal(child.var, not child.negated), i + 1
                return Not(child), i + 1
            if head != "and" and head != "or":
                raise error(f"expected 'not', 'and' or 'or', got {head!r}", head_at)
            children = []
            i += 2
            while True:
                child, i = read(i, depth + 1)
                children.append(child)
                if i == end:
                    raise error("missing ')'", at)
                if tokens[i][0] == ")":
                    return (And if head == "and" else Or)(tuple(children)), i + 1
        if tok == ")":
            raise error("unexpected ')'", at)
        if tok == "true":
            return TRUE, i + 1
        if tok == "false":
            return FALSE, i + 1
        if tok.startswith("x") and is_decimal(tok[1:]):
            var = int(tok[1:])
            if var >= n:
                raise VariableRangeError(var, n)
            return Literal(var, False), i + 1
        raise error(f"unrecognized token {tok!r}", at)

    result, i = read(0, 0)
    if i < end:
        tok, at = tokens[i]
        raise error(f"trailing input {tok!r}", at)
    return result
