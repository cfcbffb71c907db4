"""Solvers: memoized search vs the naive oracle, forced lines of any length,
and the generic abstract-game search."""

import hashlib
import random
import sys

import pytest

from qbfgames import engine
from qbfgames.cnf import Cnf
from qbfgames.engine import (
    ALL_CONFIGS,
    BY_PLAYER_LOCAL_DIFFERENT,
    BY_PLAYER_LOCAL_SAME,
    EITHER_ANYWHERE_DIFFERENT,
    EITHER_ANYWHERE_SAME,
    EITHER_LOCAL_DIFFERENT,
    GameTrace,
    Move,
    Player,
    Position,
    RulesetConfig,
    parse_position,
    parse_trace,
)
from qbfgames.fixtures import FIXTURE_NAMES, fixture_text
from qbfgames.formula import TRUE, Assignment, parse_formula
from qbfgames.generators import enumerate_graphs_up_to, random_cnf, random_positive_cnf
from qbfgames.reductions import (
    Graph,
    PositiveCnfGame,
    ProperTwoColoringGame,
    QbfGame,
    SnortGame,
    _Board,
)
from qbfgames.solver import (
    BudgetExceededError,
    NaiveLimitError,
    solve,
    solve_abstract,
    solve_naive,
)

from _corpus import (
    SAMPLE_TEXT,
    SAMPLE_VARS,
    check_memo_proof,
    enumerate_formulas,
    forced_line_position_text,
    random_position,
    random_snort_graph,
    replay_all,
)


def sample_position(config):
    return Position.initial(parse_formula(SAMPLE_TEXT, SAMPLE_VARS), SAMPLE_VARS, config)


class TestSolve:
    def test_one_move_game(self):
        p = Position.initial(parse_formula("x0", 1), 1, EITHER_LOCAL_DIFFERENT)
        out = solve(p)
        assert out.winner is Player.P1
        assert out.variation == [Move(0, True)]

    def test_terminal_position_passthrough(self):
        p = Position.initial(
            parse_formula("x0", 1),
            1,
            EITHER_LOCAL_DIFFERENT,
            Assignment.from_pairs(1, [(0, False)]),
        )
        out = solve(p)
        assert out.winner is Player.P2
        assert out.variation == []

    def test_forced_rulesets_on_sample_formula(self):
        assert solve(sample_position(BY_PLAYER_LOCAL_SAME)).winner is Player.P2
        assert solve(sample_position(BY_PLAYER_LOCAL_DIFFERENT)).winner is Player.P2

    def test_sample_formula_agrees_with_naive_as_full_qbf(self):
        p = sample_position(EITHER_LOCAL_DIFFERENT)
        assert solve(p).winner is solve_naive(p).winner

    def test_deterministic(self):
        p = sample_position(EITHER_ANYWHERE_SAME)
        a, b = solve(p), solve(p)
        assert a.winner is b.winner
        assert a.variation == b.variation
        assert a.nodes == b.nodes

    def test_warm_memo_refuses_another_root_mover(self):
        # (or x0 x1) under either-anywhere-same: with P2 to move on an empty
        # board P1 wins; P1's memo, keyed on the assignment alone, says P2
        f = parse_formula("(or x0 x1)", 2)
        first = Position.initial(f, 2, EITHER_ANYWHERE_SAME)
        second = Position.initial(f, 2, EITHER_ANYWHERE_SAME, mover=Player.P2)
        memo = {}
        solve(first, memo=memo)
        with pytest.raises(ValueError):
            solve(second, memo=memo)
        assert solve(second).winner is Player.P1

    def test_warm_memo_refuses_another_formula_or_ruleset(self):
        memo = {}
        solve(sample_position(EITHER_ANYWHERE_SAME), memo=memo)
        with pytest.raises(ValueError):
            solve(sample_position(EITHER_ANYWHERE_DIFFERENT), memo=memo)
        other = Position.initial(parse_formula("x0", SAMPLE_VARS), SAMPLE_VARS, EITHER_ANYWHERE_SAME)
        with pytest.raises(ValueError):
            solve(other, memo=memo)

    def test_budget_error(self):
        p = sample_position(EITHER_ANYWHERE_DIFFERENT)
        with pytest.raises(BudgetExceededError):
            solve(p, node_budget=5)

    def test_budget_bounds_the_memo(self):
        # the memo gains at most one entry per counted node
        rng = random.Random(17)
        for config in ALL_CONFIGS:
            for _ in range(10):
                p = random_position(rng, config, 8, 10)
                nodes = solve(p).nodes
                if nodes < 2:
                    continue
                budget = rng.randint(1, nodes - 1)
                memo = {}
                with pytest.raises(BudgetExceededError):
                    solve(p, node_budget=budget, memo=memo)
                assert len(memo) <= budget

    def test_memo_holds_one_entry_per_node(self):
        rng = random.Random(19)
        for config in ALL_CONFIGS:
            for _ in range(10):
                p = random_position(rng, config, 8, 10)
                memo = {}
                out = solve(p, memo=memo)
                assert len(memo) == out.nodes

    def test_principal_variation_replays_to_reported_winner(self):
        rng = random.Random(21)
        for config in ALL_CONFIGS:
            for _ in range(40):
                p = random_position(rng, config, rng.randint(1, 7), rng.randint(1, 5))
                out = solve(p)
                _, error, winner = replay_all(GameTrace(p, out.variation))
                assert error is None
                assert winner is out.winner


class TestOracleEquivalence:
    def test_random_suite_all_configs(self):
        rng = random.Random(31)
        for config in ALL_CONFIGS:
            for _ in range(150):
                p = random_position(rng, config, rng.randint(1, 8), rng.randint(1, 6))
                assert solve(p).winner is solve_naive(p).winner

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_exhaustive_corpus(self, config):
        # every formula over x0..x3 with up to two connectives, Not and the
        # constants included: the oracle's winner, and a PV that plays out
        # to a finished game won by that winner
        for f in enumerate_formulas(2, ternary=False):
            p = Position.initial(f, 4, config)
            out = solve(p)
            assert out.winner is solve_naive(p).winner, f
            _, error, winner = replay_all(GameTrace(p, out.variation))
            assert error is None and winner is out.winner, f

    def test_line_rule(self):
        # the winner plays the first legal move after which the oracle still
        # gives them the game, the loser the first legal move, to the end
        rng = random.Random(53)
        for config in ALL_CONFIGS:
            for _ in range(60):
                p = random_position(rng, config, rng.randint(1, 7), rng.randint(1, 6))
                out = solve(p)
                q = p
                for move in out.variation:
                    moves = engine.legal_moves(q)
                    if q.mover is out.winner:
                        keeps = [
                            m for m in moves
                            if solve_naive(engine.apply_move(q, m)).winner is out.winner
                        ]
                        assert move == keeps[0]
                    else:
                        assert move == moves[0]
                    q = engine.apply_move(q, move)
                assert engine.legal_moves(q) == []

    def test_naive_limit(self):
        p = Position.initial(parse_formula("x0", 13), 13, EITHER_LOCAL_DIFFERENT)
        with pytest.raises(NaiveLimitError):
            solve_naive(p)

    def test_naive_counts_more_nodes_than_memoized(self):
        p = sample_position(EITHER_ANYWHERE_DIFFERENT)
        assert solve_naive(p).nodes > solve(p).nodes

    def test_naive_checks_legality_once_at_a_finished_position(self, monkeypatch):
        checked = engine.blatantly_false
        calls = {"all": 0, "in_winner": 0}

        def counted(f, a):
            calls["all"] += 1
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is engine.final_winner.__code__:
                    calls["in_winner"] += 1
                    break
                frame = frame.f_back
            return checked(f, a)

        monkeypatch.setattr(engine, "blatantly_false", counted)
        f = parse_formula("(and (or x0 x1) (or (not x1) x2) (or x3 (not x0)))", 4)
        solve_naive(Position.initial(f, 4, EITHER_ANYWHERE_SAME))
        assert calls["all"] > 0
        assert calls["in_winner"] == 0


def _random_3cnf_position(ruleset, n, seed=1):
    rng = random.Random(f"{ruleset}:{n}:{seed}")
    return Position.initial(random_cnf(rng, n, 2 * n).to_formula(), n,
                            RulesetConfig.from_name(ruleset))


class TestMemoProof:
    """`solve`'s memo checked entry by entry as a proof of its winner, by the
    engine's rules alone: an oracle above `solve_naive`'s 12 variables."""

    @pytest.mark.parametrize("ruleset, n", [
        ("either-anywhere-same", 10),
        ("either-anywhere-different", 13),
        ("by-player-anywhere-same", 13),
        ("by-player-anywhere-different", 16),
        ("either-local-same", 24),
        ("either-local-different", 24),
        ("by-player-local-same", 30),
        ("by-player-local-different", 30),
    ])
    def test_memo_proves_the_winner(self, ruleset, n):
        p = _random_3cnf_position(ruleset, n)
        memo = {}
        out = solve(p, memo=memo)
        check_memo_proof(p, memo, out.winner)

    @pytest.mark.parametrize("ruleset", ["either-anywhere-different", "by-player-anywhere-same",
                                         "either-local-same"])
    def test_a_flipped_entry_fails(self, ruleset):
        p = _random_3cnf_position(ruleset, 8)
        memo = {}
        winner = solve(p, memo=memo).winner
        rng = random.Random(ruleset)
        for key in rng.sample(sorted(memo), 20):
            flipped = dict(memo)
            flipped[key] = memo[key].opponent
            with pytest.raises(AssertionError):
                check_memo_proof(p, flipped, winner)


# fixture name -> solve's (winner, nodes, PV) on the trace's initial position
FIXTURE_SOLVES = {
    "either-local-different": (Player.P1, 30, "x0=F x1=F x2=F x3=F x4=F x5=F x6=F"),
    "either-local-same": (Player.P1, 30, "x0=F x1=F x2=F x3=F x4=F x5=F x6=F"),
    "either-anywhere-different": (Player.P1, 428, "x3=T x0=F x1=T x2=F x4=T x5=F x6=F"),
    "either-anywhere-same": (Player.P1, 375, "x0=F x1=F x2=F x3=F x4=F x5=F x6=F"),
    "by-player-local-different": (Player.P2, 6, "x0=T x1=F x2=T x3=F x4=T x5=F x6=T"),
    "by-player-local-same": (Player.P2, 5, "x0=T x1=F x2=T x3=F"),
    "by-player-anywhere-different": (Player.P1, 134, "x3=T x0=F x4=T x1=F x2=T x5=F x6=T"),
    "by-player-anywhere-same": (Player.P1, 231, "x3=T x0=F x4=T x1=F x2=T x5=F x6=T"),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_solve_is_pinned(name):
    out = solve(parse_trace(fixture_text(name)).initial)
    assert (out.winner, out.nodes, " ".join(map(str, out.variation))) == FIXTURE_SOLVES[name]


def _pinned_solves():
    """`solve` on 800 seeded positions, 100 per ruleset with n <= 10, a
    quarter of them with the mover overridden."""
    rng = random.Random(2024)
    for config in ALL_CONFIGS:
        for _ in range(100):
            p = random_position(rng, config, rng.randint(1, 10), rng.randint(1, 20))
            if rng.random() < 0.25:
                p = Position.initial(p.formula, p.n, config, p.assignment, p.mover.opponent)
            yield config, solve(p)


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_solve_outputs_are_pinned():
    # the winners and PVs; a change of search order must keep them
    rows = [(config.name, out.winner.name, [str(m) for m in out.variation])
            for config, out in _pinned_solves()]
    assert _digest(rows) == "7ffcf11be08491bbedc7fd32fb387407e3d04f67fdada9f11ec831c9273fd9de"


def test_solve_nodes_are_pinned():
    # the node counts, which the search order decides
    rows = [(config.name, out.nodes) for config, out in _pinned_solves()]
    assert _digest(rows) == "fb7685d6395c6682bf9643b48a95e095d693d5c2f0ba41655fb94b7bc2632d59"


class TestSimulation:
    """`solve` on the two by-player-local rulesets, where every position has
    at most one move, so the game is one forced line."""

    def test_forced_same_goal_line(self):
        out = solve(sample_position(BY_PLAYER_LOCAL_SAME))
        assert out.winner is Player.P2
        assert out.variation == [
            Move(0, True), Move(1, False), Move(2, True), Move(3, False)
        ]
        assert out.nodes == 5

    def test_forced_different_goal_line(self):
        out = solve(sample_position(BY_PLAYER_LOCAL_DIFFERENT))
        assert out.winner is Player.P2
        assert len(out.variation) == 7

    def test_constant_true_formula(self):
        p = Position.initial(TRUE, 2, BY_PLAYER_LOCAL_DIFFERENT)
        out = solve(p)
        assert out.variation == [Move(0, True), Move(1, False)]
        assert out.winner is Player.P1

    def test_matches_naive_and_touches_at_most_n(self):
        rng = random.Random(41)
        for config in (BY_PLAYER_LOCAL_SAME, BY_PLAYER_LOCAL_DIFFERENT):
            for _ in range(80):
                n = rng.randint(1, 8)
                p = random_position(rng, config, n, rng.randint(1, 6))
                out = solve(p)
                assert out.nodes <= n - p.assignment.assigned_count + 1
                assert out.winner is solve_naive(p).winner

    @pytest.mark.parametrize(
        "ruleset, winner", [("by-player-local-same", "P2"), ("by-player-local-different", "P1")]
    )
    def test_long_forced_line(self, ruleset, winner):
        # one recursive call per move, far past the default recursion limit
        n = 2000
        limit = sys.getrecursionlimit()
        p = parse_position(forced_line_position_text(ruleset, n))
        out = solve(p)
        assert out.winner is Player[winner]
        assert out.nodes <= n + 1
        assert len(out.variation) == n
        assert sys.getrecursionlimit() == limit
        with pytest.raises(BudgetExceededError):
            solve(p, node_budget=n // 2)
        assert sys.getrecursionlimit() == limit


class _Chain:
    """A game of `length` forced moves; whoever cannot move loses."""

    def __init__(self, length):
        self.length = length

    def initial_state(self):
        return 0

    def mover(self, state):
        return Player.P1 if state % 2 == 0 else Player.P2

    def legal_moves(self, state):
        return [state] if state < self.length else []

    def apply(self, state, move):
        return state + 1

    def winner(self, state):
        return self.mover(state).opponent


class TestAbstractGames:
    def test_snort_single_vertex_first_player_wins(self):
        game = SnortGame(Graph(1, []))
        out = solve_abstract(game)
        assert out.winner is Player.P1

    def test_p2c_on_an_edge_second_player_wins(self):
        game = ProperTwoColoringGame(Graph(2, [(0, 1)]))
        assert solve_abstract(game).winner is Player.P2

    def test_p2c_on_an_edge_matches_exhaustive_enumeration(self):
        # brute force over every maximal play sequence: with optimal play the
        # first player wins iff they can force an odd-length sequence
        game = ProperTwoColoringGame(Graph(2, [(0, 1)]))

        def value(state):
            moves = game.legal_moves(state)
            if not moves:
                return game.winner(state)
            mover = game.mover(state)
            results = [value(game.apply(state, m)) for m in moves]
            return mover if mover in results else mover.opponent

        assert value(game.initial_state()) is solve_abstract(game).winner

    def test_positive_cnf_conjunction_false_wins(self):
        cnf = Cnf(2, (((0, False),), ((1, False),)))
        assert solve_abstract(PositiveCnfGame(cnf)).winner is Player.P2

    def test_positive_cnf_single_clause_true_wins(self):
        cnf = Cnf(2, (((0, False), (1, False)),))
        assert solve_abstract(PositiveCnfGame(cnf)).winner is Player.P1

    def test_budget_applies(self):
        game = SnortGame(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(BudgetExceededError):
            solve_abstract(game, node_budget=2)

    def test_deep_line_stops_at_the_budget(self):
        # a line of 1,200 forced moves goes past the default recursion limit
        game = _Chain(1200)
        with pytest.raises(BudgetExceededError):
            solve_abstract(game, node_budget=1100)
        out = solve_abstract(game)
        assert out.winner is Player.P2

    def test_source_games_share_one_board(self):
        snort = SnortGame(Graph(3, [(0, 1)], [None, False, True]))
        p2c = ProperTwoColoringGame(Graph(2, [(0, 1)]))
        poscnf = PositiveCnfGame(Cnf(2, (((0, False), (1, False)),)))
        for game in (snort, p2c, poscnf):
            for name in ("initial_state", "mover", "apply", "is_terminal"):
                assert getattr(type(game), name) is getattr(_Board, name)
        # (trues, falses, mover): blue is true, red is false
        assert snort.initial_state() == (0b100, 0b010, Player.P1)
        assert snort.legal_moves(snort.initial_state()) == []
        assert p2c.legal_moves(p2c.initial_state()) == [(0, True), (0, False), (1, True), (1, False)]
        assert p2c.apply(p2c.initial_state(), (1, False)) == (0, 0b10, Player.P2)
        assert poscnf.legal_moves((0b01, 0, Player.P2)) == [(1, False)]

    def test_search_builds_one_move_list_per_node(self):
        # a game ends where its move list is empty, so no node asks twice
        class CountingSnort(SnortGame):
            calls = 0

            def legal_moves(self, state):
                self.calls += 1
                return super().legal_moves(state)

        for graph in enumerate_graphs_up_to(4):
            game = CountingSnort(graph)
            assert solve_abstract(game).nodes == game.calls, graph


def _tally(games):
    """(first-player wins, total nodes) of `solve_abstract` over the games."""
    outcomes = [solve_abstract(game) for game in games]
    return sum(o.winner is Player.P1 for o in outcomes), sum(o.nodes for o in outcomes)


def _painted_snort_games():
    rng = random.Random(5)
    return (SnortGame(random_snort_graph(rng, rng.randint(1, 7))) for _ in range(200))


def _positive_cnf_games():
    rng = random.Random(3)
    return (
        PositiveCnfGame(random_positive_cnf(rng, rng.randint(1, 7), rng.randint(1, 9)))
        for _ in range(300)
    )


def _qbf_games():
    rng = random.Random(7)
    return (
        QbfGame(random_cnf(rng, rng.randint(1, 8), rng.randint(1, 10), rng.randint(1, 3)))
        for _ in range(300)
    )


@pytest.mark.parametrize(
    "games, pinned",
    [
        (lambda: map(SnortGame, enumerate_graphs_up_to(5)), (1091, 9291)),
        (lambda: map(ProperTwoColoringGame, enumerate_graphs_up_to(5)), (515, 46536)),
        (_painted_snort_games, (137, 623)),
        (_positive_cnf_games, (300, 7755)),
        (_qbf_games, (80, 2480)),
    ],
    ids=["snort", "p2c", "painted-snort", "positive-cnf", "qbf"],
)
def test_source_search_is_pinned(games, pinned):
    # winners and node totals of the search; a change of state format must keep them
    assert _tally(games()) == pinned
