"""Per-layer tracing, installed from outside the program.

Each layer is timed at its public boundary: a wrapper replaces the module or
class attribute through which one layer calls the next (for example
`qbfgames.solver.substitute`, which `solve` looks up at call time).  Calls a
function makes to itself go through its own module and stay unwrapped, so a
layer's numbers cover top-level calls only.

A span's self time is its duration minus the time its child spans cover.
Counts and self times are accumulated per layer as the spans close.  Every
span is far too many to keep (`substitute` runs hundreds of thousands of
times per pass), so only spans at depth 0 and 1 (an invocation and the
layers it calls directly) are kept in memory and written out at the end.
"""

from __future__ import annotations

import importlib
import enum
import inspect
import sys
import time
from collections import defaultdict

# Layer name -> the attributes its callers reach it through.  A target that
# no longer exists is skipped and reported in the run record.
LAYERS = {
    "formula.parse_formula": ["qbfgames.engine:parse_formula"],
    "formula.simplify": ["qbfgames.engine:simplify", "qbfgames.solver:simplify"],
    "formula.substitute": ["qbfgames.solver:substitute"],
    "formula.blatantly_false": ["qbfgames.engine:blatantly_false"],
    "formula.evaluate": ["qbfgames.engine:evaluate"],
    "formula.to_text": ["qbfgames.cli:to_text", "qbfgames.engine:to_text"],
    "cnf.to_formula": ["qbfgames.cnf:Cnf.to_formula"],
    "cnf.to_dimacs": ["qbfgames.cnf:Cnf.to_dimacs"],
    "cnf.parse_dimacs": ["qbfgames.cli:parse_dimacs"],
    "engine.parse_position": ["qbfgames.cli:parse_position"],
    "engine.parse_trace": ["qbfgames.cli:parse_trace"],
    "engine.format_position": ["qbfgames.cli:format_position"],
    "engine.replay": ["qbfgames.cli:replay"],
    "engine.legal_moves": ["qbfgames.solver:legal_moves"],
    "engine.apply_move": [
        "qbfgames.engine:apply_move", "qbfgames.solver:apply_move", "qbfgames.cli:apply_move",
    ],
    "engine.Position.initial": ["qbfgames.engine:Position.initial"],
    "solver.solve": ["qbfgames.cli:solve", "qbfgames.reductions:solve"],
    "solver.solve_abstract": ["qbfgames.reductions:solve_abstract"],
    "reductions.check": [
        f"qbfgames.cli:{name}"
        for name in (
            "check_snort", "check_p2c", "check_qbf_cnf", "check_positive_cnf",
            "toy_positive_equivalence_check",
        )
    ],
    "reductions.encode": [
        f"qbfgames.cli:{name}"
        for name in (
            "snort_to_position", "p2c_to_position", "qbf_cnf_to_either_local_same",
            "positive_cnf_to_bpad",
        )
    ] + [
        f"qbfgames.reductions:{name}"
        for name in (
            "snort_to_position", "p2c_to_position", "qbf_cnf_to_either_local_same",
            "positive_cnf_to_bpad", "toy_positive_to_ead",
        )
    ],
    "reductions.source_game": [
        f"qbfgames.reductions:{cls}.{method}"
        for cls in ("SnortGame", "ProperTwoColoringGame", "PositiveCnfGame")
        for method in (
            "initial_state", "mover", "legal_moves", "apply", "is_terminal", "winner",
        )
    ],
    "generators": [
        f"qbfgames.cli:{name}"
        for name in ("random_cnf", "random_positive_cnf", "random_graph", "enumerate_graphs_up_to")
    ],
}

SOLVE_TARGETS = LAYERS["solver.solve"]
# Layers whose results carry an `Outcome.nodes` count.
NODE_LAYERS = ("solver.solve", "solver.solve_abstract")


def _resolve(target: str):
    """(owner, attribute name, static value) or None when absent."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        return owner, attr, inspect.getattr_static(owner, attr)
    except AttributeError:
        return None


class Patches:
    """Replaces attributes and puts the originals back on exit."""

    def __init__(self):
        self.saved = []
        self.missing = []

    def install(self, target: str, make_wrapper):
        found = _resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr, static = found
        if isinstance(static, classmethod):
            replacement = classmethod(make_wrapper(static.__func__))
        else:
            replacement = make_wrapper(static)
        self.saved.append((owner, attr, static))
        setattr(owner, attr, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, static in reversed(self.saved):
            setattr(owner, attr, static)
        self.saved.clear()


class Tracer:
    """Span stack plus per-layer accumulators."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.nodes = defaultdict(int)
        self.spans = []  # (invocation, name, start, end, parent name)
        self._stack = []  # [name, child time]
        self._invocation = None

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, name, start, result=None):
        end = time.perf_counter()
        duration = end - start
        _, child = self._stack.pop()
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if name in NODE_LAYERS and result is not None:
            self.nodes[name] += getattr(result, "nodes", 0)
        if self._stack:
            self._stack[-1][1] += duration
        if len(self._stack) <= 1:
            parent = self._stack[0][0] if self._stack else None
            self.spans.append((self._invocation, name, start, end, parent))

    def invocation(self, label: str, call):
        """Run `call()` as the root span of one invocation."""
        self._invocation = label
        start = self._enter(label)
        try:
            return call()
        finally:
            self._exit(label, start)

    def wrapper_for(self, name: str):
        def make(fn):
            if inspect.isgeneratorfunction(fn):
                def traced_generator(*args, **kwargs):
                    iterator = fn(*args, **kwargs)
                    while True:
                        start = self._enter(name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            self._exit(name, start)
                        yield item

                return traced_generator

            def traced(*args, **kwargs):
                start = self._enter(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self._exit(name, start, result)

            return traced

        return make

    def install(self, patches: Patches):
        for name, targets in LAYERS.items():
            for target in targets:
                patches.install(target, self.wrapper_for(name))


class CountingMemo(dict):
    """A `solve` memo that counts its lookups and hits."""

    __slots__ = ("lookups", "hits")

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        value = dict.get(self, key, default)
        if value is not None:
            self.hits += 1
        return value


def deep_size(obj, seen: set) -> int:
    """Bytes of `obj` and of everything it holds that no one else shares.

    Shared singletons (None, booleans, enum members, small ints) count 0.
    Used instead of tracemalloc, which undercounts small memos: CPython
    refills them from tuples its free lists kept from earlier solves.
    """
    if obj is None or isinstance(obj, (bool, enum.Enum)) or id(obj) in seen:
        return 0
    if isinstance(obj, int) and -5 <= obj <= 256:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        size += sum(deep_size(item, seen) for item in obj)
    elif isinstance(obj, dict):
        size += sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    elif hasattr(obj, "__dict__"):
        size += deep_size(vars(obj), seen)
    else:
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                size += deep_size(getattr(obj, slot, None), seen)
    return size


class MemoProbe:
    """Hands every `solve` call a counting memo and sizes it on return."""

    def __init__(self):
        self.entries = 0
        self.lookups = 0
        self.hits = 0
        self.bytes = 0
        self.unsupported = False

    def wrapper(self, fn):
        if "memo" not in inspect.signature(fn).parameters:
            self.unsupported = True
            return fn

        def probed(position, *args, **kwargs):
            if len(args) >= 2 or "memo" in kwargs:
                return fn(position, *args, **kwargs)
            memo = CountingMemo()
            result = fn(position, *args, memo=memo, **kwargs)
            self.entries += len(memo)
            self.lookups += memo.lookups
            self.hits += memo.hits
            self.bytes += deep_size(memo, set())
            return result

        return probed

    def install(self, patches: Patches):
        for target in SOLVE_TARGETS:
            patches.install(target, self.wrapper)
