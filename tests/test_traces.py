"""The bundled worked games: every move legal, winners and the step-by-step
simplified formulas exactly as displayed."""

import pytest

from qbfgames.engine import Player, parse_trace, replay
from qbfgames.fixtures import FIXTURE_NAMES, fixture_text
from qbfgames.formula import parse_formula, simplify, to_text

from _corpus import SAMPLE_TEXT, SAMPLE_VARS, format_trace, replay_all

# fixture name -> (expected winner, per-step simplified formula)
WORKED_GAMES = {
    "either-local-different": (
        Player.P2,
        [
            "(and (or x3 (not x1)) (or x2 x1 (not x6)) (or (not x2) (not x4) x3))",
            "(and x3 (or (not x2) (not x4) x3))",
            "x3",
            "false",
            "false",
            "false",
            "false",
        ],
    ),
    "by-player-local-same": (
        Player.P2,
        [
            "(and (or x3 (not x1)) (or x2 x1 (not x6)) (or (not x2) (not x4) x3))",
            "(and (or x2 (not x6)) (or (not x2) (not x4) x3))",
            "(or (not x4) x3)",
            "(not x4)",
        ],
    ),
    "by-player-local-different": (
        Player.P2,
        [
            "(and (or x3 (not x1)) (or x2 x1 (not x6)) (or (not x2) (not x4) x3))",
            "(and (or x2 (not x6)) (or (not x2) (not x4) x3))",
            "(or (not x4) x3)",
            "(not x4)",
            "false",
            "false",
            "false",
        ],
    ),
    "by-player-anywhere-same": (
        Player.P1,
        [
            "(and (or x2 x1 (not x6)) (or x4 (not x6) x0))",
            "(and (or x2 (not x6)) (or x4 (not x6) x0))",
            "(or x4 (not x6) x0)",
            "(or (not x6) x0)",
            "true",
            "true",
            "true",
        ],
    ),
    "by-player-anywhere-different": (
        Player.P1,
        [
            "(and (or x2 x1 (not x6)) (or x4 (not x6) x0))",
            "(and (or x1 (not x6)) (or x4 (not x6) x0))",
            "(or x4 (not x6) x0)",
            "(or (not x6) x0)",
            "true",
            "true",
            "true",
        ],
    ),
    "either-local-same": (
        Player.P1,
        [
            "(and (or x2 x1 (not x6)) (or x4 (not x6)) (or (not x2) (not x4) x3))",
            "(and (or x2 (not x6)) (or x4 (not x6)) (or (not x2) (not x4) x3))",
            "(and (or x4 (not x6)) (or (not x4) x3))",
            "(and (or x4 (not x6)) (not x4))",
            "(not x6)",
            "(not x6)",
            "true",
        ],
    ),
    "either-anywhere-same": (
        Player.P1,
        [
            "(and (or (not x0) x3 (not x1)) (or (not x2) (not x4) x3))",
            "(and (or (not x0) x3 (not x1)) (or (not x4) x3))",
            "true",
            "true",
            "true",
            "true",
            "true",
        ],
    ),
    "either-anywhere-different": (
        Player.P1,
        [
            "(and (or x2 x1 (not x6)) (or x4 (not x6) x0))",
            "(and (or x2 x1) (or x4 x0))",
            "(or x2 x1)",
            "x2",
            "true",
            "true",
            "true",
        ],
    ),
}


def test_every_ruleset_has_a_fixture():
    assert set(FIXTURE_NAMES) == set(WORKED_GAMES)
    assert len(FIXTURE_NAMES) == 8


@pytest.mark.parametrize("name", sorted(WORKED_GAMES))
def test_worked_game(name):
    expected_winner, displays = WORKED_GAMES[name]
    trace = parse_trace(fixture_text(name))
    assert trace.initial.config.name == name
    assert trace.initial.n == SAMPLE_VARS
    assert to_text(trace.initial.formula) == SAMPLE_TEXT

    steps, error, winner = replay_all(trace)
    assert error is None, f"illegal move in {name}: {error}"
    assert winner is expected_winner
    assert len(steps) == len(displays)
    for i, ((_, p), display) in enumerate(zip(steps, displays)):
        expected = parse_formula(display, SAMPLE_VARS)
        assert p.formula == expected, (
            f"{name} step {i + 1}: got {to_text(p.formula)}, want {display}"
        )


@pytest.mark.parametrize("name", sorted(WORKED_GAMES))
def test_snapshots_equal_a_fold_of_the_original(name):
    # replay folds each snapshot from the one before it
    trace = parse_trace(fixture_text(name))
    for _, p in replay(trace):
        assert p.formula == simplify(trace.initial.formula, p.assignment)


@pytest.mark.parametrize("name", sorted(WORKED_GAMES))
def test_fixture_round_trips_through_formatter(name):
    trace = parse_trace(fixture_text(name))
    again = parse_trace(format_trace(trace))
    assert again.initial == trace.initial
    assert again.moves == trace.moves


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        fixture_text("no-such-game")
