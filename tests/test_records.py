"""Value semantics of the `Record` classes, and what importing the CLI loads."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import qbfgames
from qbfgames.cnf import Cnf
from qbfgames.engine import (
    EITHER_LOCAL_SAME,
    BooleanChoice,
    GameTrace,
    Goal,
    Locality,
    Player,
    Position,
    RulesetConfig,
)
from qbfgames.formula import And, Const, Formula, Literal, Not, Or, to_text
from qbfgames.reductions import Graph, ReductionCheck
from qbfgames.solver import Outcome

X0, X1 = Literal(0), Literal(1)
F = And((X0, Or((X1, Not(And((X0, X1)))))))
P = Position.initial(F, 2, EITHER_LOCAL_SAME)
Q = Position.initial(F, 2, EITHER_LOCAL_SAME, mover=Player.P2)
WON, LOST = Outcome(Player.P1, [(0, True)], 3), Outcome(Player.P2)

# class -> (a value, an equal value built another way, an unequal value)
FROZEN = {
    Const: (Const(True), Const(True), Const(False)),
    Literal: (Literal(0), Literal(0, False), Literal(0, True)),
    Not: (Not(F), Not(And([X0, Or([X1, Not(And([X0, X1]))])])), Not(X0)),
    And: (And((X0,)), And([X0]), Or((X0,))),
    Or: (Or((X0, X1)), Or(iter([X0, X1])), Or((X1, X0))),
    Cnf: (
        Cnf(2, [[(0, False), (1, True)]]),
        Cnf(2, (((0, False), (1, True)),)),
        Cnf(2, (((0, False),),)),
    ),
    RulesetConfig: (
        RulesetConfig(BooleanChoice.EITHER, Locality.LOCAL, Goal.SAME),
        RulesetConfig.from_name("either-local-same"),
        RulesetConfig(BooleanChoice.EITHER, Locality.LOCAL, Goal.DIFFERENT),
    ),
    Position: (P, Position.initial(F, 2, EITHER_LOCAL_SAME), Q),
    Graph: (Graph(2, [(0, 1)]), Graph(2, [(1, 0)]), Graph(2, [])),
}
# the three that are records but were never hashable
UNHASHABLE = {
    GameTrace: (GameTrace(P, [(0, True)]), GameTrace(P, [(0, True)]), GameTrace(P, [])),
    Outcome: (WON, Outcome(winner=Player.P1, variation=[(0, True)], nodes=3), LOST),
    ReductionCheck: (
        ReductionCheck(WON, WON),
        ReductionCheck(WON, WON),
        ReductionCheck(WON, LOST),
    ),
}


def dataclass_repr(value):
    """The repr a plain dataclass with the same name and fields gives."""
    twin = dataclasses.make_dataclass(type(value).__name__, type(value).__slots__)
    return repr(twin(*(getattr(value, name) for name in type(value).__slots__)))


@pytest.mark.parametrize("cls", [*FROZEN, *UNHASHABLE], ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    a, b, other = {**FROZEN, **UNHASHABLE}[cls]
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()
    if cls in FROZEN:
        assert hash(a) == hash(b)
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    if issubclass(cls, Formula):
        assert repr(a) == to_text(a)
    else:
        assert repr(a) == dataclass_repr(a)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a


def test_repr_and_arity():
    assert repr(Outcome(Player.P1)) == "Outcome(winner=<Player.P1: 1>, variation=None, nodes=0)"
    with pytest.raises(TypeError):
        Position(F, 2)
    with pytest.raises(TypeError):
        Const()


def test_cli_import_loads_no_heavy_modules():
    # `-S` keeps site-packages `.pth` files from importing anything first
    heavy = ("dataclasses", "inspect", "importlib.resources")
    code = f"import sys, qbfgames.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(qbfgames.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
