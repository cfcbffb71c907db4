"""Position engine: legality filters, terminal detection, replay, file IO."""

import random

import pytest

from qbfgames.engine import (
    ALL_CONFIGS,
    BY_PLAYER_ANYWHERE_SAME,
    BY_PLAYER_LOCAL_DIFFERENT,
    BY_PLAYER_LOCAL_SAME,
    EITHER_ANYWHERE_DIFFERENT,
    EITHER_ANYWHERE_SAME,
    EITHER_LOCAL_DIFFERENT,
    EITHER_LOCAL_SAME,
    BooleanChoice,
    GameTrace,
    Goal,
    IllegalMoveError,
    Locality,
    Player,
    Position,
    PositionError,
    PositionFormatError,
    RulesetConfig,
    apply_move,
    final_winner,
    format_position,
    is_terminal,
    legal_moves,
    parse_position,
    parse_trace,
    replay,
)
from qbfgames.formula import Literal, parse_formula, simplify

from _corpus import (
    SAMPLE_TEXT,
    SAMPLE_VARS,
    format_trace,
    from_pairs,
    random_formula,
    random_position,
    replay_all,
    spec_blatantly_false,
)


def sample_formula():
    return parse_formula(SAMPLE_TEXT, SAMPLE_VARS)


def played(config, *moves, formula=None, n=SAMPLE_VARS):
    p = Position.initial(formula if formula is not None else sample_formula(), n, config)
    for var, value in moves:
        p = apply_move(p, (var, value))
    return p


class TestConfig:
    def test_eight_configs(self):
        assert len(ALL_CONFIGS) == 8
        assert len({c.name for c in ALL_CONFIGS}) == 8

    def test_name_round_trip(self):
        for config in ALL_CONFIGS:
            assert RulesetConfig.from_name(config.name) == config

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            RulesetConfig.from_name("sometimes-local-same")

    def test_from_tokens(self):
        assert RulesetConfig.from_tokens("by-player", "anywhere", "same") == BY_PLAYER_ANYWHERE_SAME
        with pytest.raises(ValueError):
            RulesetConfig.from_tokens("both", "local", "same")

    def test_player_labels(self):
        assert BY_PLAYER_LOCAL_SAME.player_label(Player.P1) == "True"
        assert BY_PLAYER_LOCAL_SAME.player_label(Player.P2) == "False"
        assert EITHER_LOCAL_DIFFERENT.player_label(Player.P1) == "Even/True"
        assert EITHER_LOCAL_DIFFERENT.player_label(Player.P2) == "Odd/False"
        assert EITHER_ANYWHERE_SAME.player_label(Player.P1) == "Even"
        assert EITHER_ANYWHERE_SAME.player_label(Player.P2) == "Odd"


class TestPositionConstruction:
    def test_mover_defaults_to_parity(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_DIFFERENT)
        assert p.mover is Player.P1
        a = from_pairs(SAMPLE_VARS, [(3, True)])
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_DIFFERENT, a)
        assert p.mover is Player.P2

    def test_mover_override(self):
        a = from_pairs(SAMPLE_VARS, [(3, True)])
        p = Position.initial(
            sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_DIFFERENT, a, Player.P1
        )
        assert p.mover is Player.P1

    def test_local_requires_prefix_assignment(self):
        a = from_pairs(3, [(2, True)])
        with pytest.raises(PositionError):
            Position.initial(parse_formula("x0", 3), 3, EITHER_LOCAL_SAME, a)
        prefix = from_pairs(3, [(0, True)])
        Position.initial(parse_formula("x0", 3), 3, EITHER_LOCAL_SAME, prefix)

    def test_formula_variables_must_fit(self):
        with pytest.raises(PositionError):
            Position.initial(parse_formula("x6", 7), 3, EITHER_LOCAL_SAME)

    def test_negative_variable_index_is_rejected(self):
        # x-1 would read x1 through Python's negative indexing
        with pytest.raises(PositionError):
            Position.initial(Literal(-1), 2, EITHER_ANYWHERE_SAME)

    def test_assignment_length_must_match(self):
        with pytest.raises(PositionError):
            Position.initial(parse_formula("x0", 2), 2, EITHER_LOCAL_SAME, (None,) * 3)

    @pytest.mark.parametrize("assignment", [["no", None], [1, None]])
    def test_assignment_values_must_be_bool_or_none(self, assignment):
        # "no" would read as true, and 1 == True
        with pytest.raises(PositionError, match="True, False or None"):
            Position.initial(parse_formula("x0", 2), 2, EITHER_ANYWHERE_SAME, assignment)


class TestLegalMoves:
    def test_local_start_offers_x0_both_values(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_LOCAL_DIFFERENT)
        assert legal_moves(p) == [(0, False), (0, True)]

    def test_blocked_forced_line_has_no_moves(self):
        # after T,F,T,F the True player's only slot x4 would go blatantly false
        p = played(BY_PLAYER_LOCAL_SAME, (0, True), (1, False), (2, True), (3, False))
        assert p.mover is Player.P1
        assert legal_moves(p) == []

    def test_anywhere_by_player_start_offers_all_seven(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, BY_PLAYER_ANYWHERE_SAME)
        moves = legal_moves(p)
        assert moves == [(v, True) for v in range(7)]

    def test_normative_ordering(self):
        p = played(EITHER_ANYWHERE_DIFFERENT, (3, True))
        moves = legal_moves(p)
        expected = []
        for var in (0, 1, 2, 4, 5, 6):
            expected += [(var, False), (var, True)]
        assert moves == expected

    def test_same_goal_filters_blatant_falsity(self):
        f = parse_formula("(and x0 x1)", 2)
        p = Position.initial(f, 2, EITHER_ANYWHERE_SAME)
        assert legal_moves(p) == [(0, True), (1, True)]


class TestApplyMove:
    def test_occupied(self):
        p = played(EITHER_ANYWHERE_DIFFERENT, (3, True))
        with pytest.raises(IllegalMoveError) as err:
            apply_move(p, (3, True))
        assert err.value.reason == IllegalMoveError.OCCUPIED
        # `play` prints these texts after "illegal move: "
        assert str(err.value) == "illegal move x3=T: occupied"

    def test_wrong_location(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_LOCAL_DIFFERENT)
        with pytest.raises(IllegalMoveError) as err:
            apply_move(p, (3, True))
        assert err.value.reason == IllegalMoveError.WRONG_LOCATION
        assert str(err.value) == "illegal move x3=T: wrong-location (lowest unassigned is x0)"

    def test_wrong_value_for_player(self):
        p = played(BY_PLAYER_ANYWHERE_SAME, (3, True))  # P2 = False to move
        with pytest.raises(IllegalMoveError) as err:
            apply_move(p, (1, True))
        assert err.value.reason == IllegalMoveError.WRONG_VALUE
        assert str(err.value) == "illegal move x1=T: wrong-value (False assigns only F)"
        with pytest.raises(IllegalMoveError) as err:
            apply_move(played(BY_PLAYER_ANYWHERE_SAME), (1, False))
        assert str(err.value) == "illegal move x1=F: wrong-value (True assigns only T)"

    def test_blatantly_false_result(self):
        p = played(BY_PLAYER_LOCAL_SAME, (0, True), (1, False), (2, True), (3, False))
        with pytest.raises(IllegalMoveError) as err:
            apply_move(p, (4, True))
        assert err.value.reason == IllegalMoveError.BLATANTLY_FALSE
        assert str(err.value) == "illegal move x4=T: blatantly-false"

    def test_out_of_range(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_DIFFERENT)
        with pytest.raises(IllegalMoveError) as err:
            apply_move(p, (7, True))
        assert err.value.reason == IllegalMoveError.OUT_OF_RANGE
        assert str(err.value) == "illegal move x7=T: out-of-range (n=7)"

    @pytest.mark.parametrize(
        "move, reason, text",
        [
            ((0, 1), IllegalMoveError.WRONG_VALUE, "x0=T: wrong-value (value must be True or False)"),
            ((0, 2), IllegalMoveError.WRONG_VALUE, "x0=T: wrong-value (value must be True or False)"),
            ((True, True), IllegalMoveError.OUT_OF_RANGE, "xTrue=T: out-of-range (n=7)"),
            ((0.0, True), IllegalMoveError.OUT_OF_RANGE, "x0.0=T: out-of-range (n=7)"),
        ],
        ids=["int-value", "int-value-2", "bool-var", "float-var"],
    )
    def test_mistyped_move(self, move, reason, text):
        # a move is an int var and a bool value: 1 is not True, True not x1
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_DIFFERENT)
        with pytest.raises(IllegalMoveError) as err:
            apply_move(p, move)
        assert err.value.reason == reason
        assert str(err.value) == "illegal move " + text

    def test_mover_toggles_and_state_is_new(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_DIFFERENT)
        q = apply_move(p, (3, True))
        assert q.mover is Player.P2
        assert p.assignment[3] is None
        assert q.assignment[3] is True
        assert q.formula == simplify(p.formula, q.assignment)
        assert q.config is p.config


class TestTerminalAndWinner:
    def test_self_contradiction_is_immediately_terminal_under_same(self):
        f = parse_formula("(and x0 (not x0))", 1)
        for config in (EITHER_LOCAL_SAME, EITHER_ANYWHERE_SAME, BY_PLAYER_LOCAL_SAME):
            p = Position.initial(f, 1, config)
            assert is_terminal(p)
            assert final_winner(p) is Player.P2

    def test_different_goal_runs_all_variables(self):
        p = played(EITHER_LOCAL_DIFFERENT, (0, True), (1, True))
        assert not is_terminal(p)

    def test_blocked_position_is_terminal(self):
        p = played(BY_PLAYER_LOCAL_SAME, (0, True), (1, False), (2, True), (3, False))
        assert is_terminal(p)
        assert final_winner(p) is Player.P2

    def test_sample_game_winner(self):
        p = played(
            EITHER_LOCAL_DIFFERENT,
            (0, True), (1, True), (2, False), (3, False), (4, True), (5, False), (6, False),
        )
        assert is_terminal(p)
        assert final_winner(p) is Player.P2

    def test_anywhere_same_full_board_winner_is_last_mover(self):
        p = played(
            BY_PLAYER_ANYWHERE_SAME,
            (3, True), (1, False), (2, True), (4, False), (0, True), (6, False), (5, True),
        )
        assert is_terminal(p)
        assert final_winner(p) is Player.P1


class TestRulesetRelations:
    """Cross-toggle containments on random positions."""

    def _positions(self, seed, config, count=60):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 7)
            yield random_position(rng, config, n, rng.randint(1, 5))

    def test_local_is_anywhere_filtered_to_lowest(self):
        for goal in Goal:
            for choice in BooleanChoice:
                local_cfg = RulesetConfig(choice, Locality.LOCAL, goal)
                anywhere_cfg = RulesetConfig(choice, Locality.ANYWHERE, goal)
                for p in self._positions(11, local_cfg):
                    low = next((i for i, v in enumerate(p.assignment) if v is None), None)
                    q = Position.initial(p.formula, p.n, anywhere_cfg, p.assignment, p.mover)
                    filtered = [m for m in legal_moves(q) if m[0] == low]
                    assert legal_moves(p) == filtered

    def test_by_player_is_either_filtered_to_own_value(self):
        for goal in Goal:
            for locality in Locality:
                bp_cfg = RulesetConfig(BooleanChoice.BY_PLAYER, locality, goal)
                either_cfg = RulesetConfig(BooleanChoice.EITHER, locality, goal)
                for p in self._positions(12, bp_cfg):
                    q = Position.initial(p.formula, p.n, either_cfg, p.assignment, p.mover)
                    own = p.mover is Player.P1
                    filtered = [m for m in legal_moves(q) if m[1] == own]
                    assert legal_moves(p) == filtered

    def test_same_is_different_minus_blatant(self):
        from qbfgames.formula import blatantly_false

        for choice in BooleanChoice:
            for locality in Locality:
                same_cfg = RulesetConfig(choice, locality, Goal.SAME)
                diff_cfg = RulesetConfig(choice, locality, Goal.DIFFERENT)
                for p in self._positions(13, same_cfg):
                    q = Position.initial(p.formula, p.n, diff_cfg, p.assignment, p.mover)
                    filtered = [
                        (var, value)
                        for var, value in legal_moves(q)
                        if not blatantly_false(
                            p.formula, p.assignment[:var] + (value,) + p.assignment[var + 1 :]
                        )
                    ]
                    assert legal_moves(p) == filtered

    def test_alternation_and_length_along_playouts(self):
        rng = random.Random(14)
        for config in ALL_CONFIGS:
            for _ in range(40):
                n = rng.randint(1, 7)
                p = Position.initial(
                    random_position(rng, config, n, rng.randint(1, 5)).formula, n, config
                )
                expected = Player.P1
                count = 0
                while not is_terminal(p):
                    assert p.mover is expected
                    moves = legal_moves(p)
                    p = apply_move(p, rng.choice(moves))
                    expected = expected.opponent
                    count += 1
                assert count <= n
                if config.goal is Goal.DIFFERENT:
                    assert count == n

    def test_by_player_local_is_deterministic(self):
        rng = random.Random(15)
        for config in (BY_PLAYER_LOCAL_SAME, BY_PLAYER_LOCAL_DIFFERENT):
            for _ in range(50):
                p = random_position(rng, config, rng.randint(1, 8), rng.randint(1, 5))
                while True:
                    moves = legal_moves(p)
                    assert len(moves) <= 1
                    if not moves:
                        break
                    p = apply_move(p, moves[0])


class TestReplay:
    def test_empty_trace(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_LOCAL_DIFFERENT)
        assert replay_all(GameTrace(p, [])) == ([], None, None)

    def test_full_game_reports_winner(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_LOCAL_DIFFERENT)
        moves = [(0, True), (1, True), (2, False), (3, False), (4, True), (5, False), (6, False)]
        steps, error, winner = replay_all(GameTrace(p, moves))
        assert error is None
        assert len(steps) == 7
        assert winner is Player.P2

    def test_illegal_move_is_raised_after_the_steps_before_it(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_DIFFERENT)
        moves = [(3, True), (3, False), (1, True)]
        steps = replay(GameTrace(p, moves))
        assert next(steps) == ((3, True), apply_move(p, (3, True)))
        with pytest.raises(IllegalMoveError) as raised:
            next(steps)
        assert raised.value.move == (3, False)
        assert raised.value.reason == IllegalMoveError.OCCUPIED

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_replay_agrees_with_apply_move_on_the_original(self, config):
        # replay is apply_move in a loop, and apply_move decides legality on
        # the previous snapshot; the paper's recursion on the original
        # formula and its fold are the independent references
        rng = random.Random(f"replay-{config.name}")
        reasons, winners, same_goal_decisions = set(), 0, 0
        for _ in range(250):
            n = rng.randint(1, 6)
            initial = Position.initial(random_formula(rng, n, rng.randint(1, 10)), n, config)
            # mostly legal moves, and random ones that break any of the rules
            moves, positions, error, p = [], [], None, initial
            while error is None and rng.random() < 0.85:
                options = legal_moves(p)
                if not options and rng.random() < 0.5:
                    break
                if options and rng.random() < 0.7:
                    m = rng.choice(options)
                else:
                    m = (rng.randrange(n + 1), rng.random() < 0.5)
                moves.append(m)
                try:
                    p = apply_move(p, m)
                    positions.append(p)
                except IllegalMoveError as e:
                    error = (len(positions), e.reason)
                if config.goal is Goal.SAME and error is None:
                    assert not spec_blatantly_false(initial.formula, p.assignment)
                    same_goal_decisions += 1
                elif error is not None and error[1] == IllegalMoveError.BLATANTLY_FALSE:
                    var, value = m
                    extended = p.assignment[:var] + (value,) + p.assignment[var + 1 :]
                    assert spec_blatantly_false(initial.formula, extended)
                    same_goal_decisions += 1
            winner = final_winner(p) if error is None and is_terminal(p) else None

            steps, raised, won = replay_all(GameTrace(initial, moves))
            assert [move for move, _ in steps] == moves[: len(positions)]
            for (_, step), q in zip(steps, positions):
                assert step == q
                assert q.formula == simplify(initial.formula, q.assignment)
                # a fold reads back from the file format as the same tree
                assert parse_position(format_position(q)) == q
            if error is None:
                assert raised is None
            else:
                assert (len(steps), raised.reason) == error
                reasons.add(error[1])
            assert won is winner
            winners += winner is not None
        expected = {IllegalMoveError.OUT_OF_RANGE, IllegalMoveError.OCCUPIED}
        if config.locality is Locality.LOCAL:
            expected.add(IllegalMoveError.WRONG_LOCATION)
        if config.choice is BooleanChoice.BY_PLAYER:
            expected.add(IllegalMoveError.WRONG_VALUE)
        if config.goal is Goal.SAME:
            expected.add(IllegalMoveError.BLATANTLY_FALSE)
        assert reasons == expected
        assert winners >= 10
        if config.goal is Goal.SAME:
            assert same_goal_decisions > 100


class TestFileFormats:
    def test_position_round_trip(self):
        a = from_pairs(SAMPLE_VARS, [(1, True), (4, False)])
        p = Position.initial(sample_formula(), SAMPLE_VARS, BY_PLAYER_ANYWHERE_SAME, a, Player.P2)
        text = format_position(p)
        assert "mover 2" in text  # two variables assigned, so parity says P1
        q = parse_position(text)
        assert q == p

    def test_mover_line_only_when_overriding_parity(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_LOCAL_DIFFERENT)
        assert "mover" not in format_position(p)
        a = from_pairs(SAMPLE_VARS, [(2, True)])
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_SAME, a, Player.P1)
        assert "mover 1" in format_position(p)

    def test_parse_position_example(self):
        text = (
            "ruleset by-player anywhere same\n"
            "vars 3\n"
            "assigned 0=T 2=F\n"
            "(and (or x0 (not x1)) (or (not x0) x1))\n"
        )
        p = parse_position(text)
        assert p.config == BY_PLAYER_ANYWHERE_SAME
        assert p.n == 3
        assert p.assignment == (True, None, False)
        assert p.mover is Player.P1  # k=2, parity

    def test_comments_and_blank_lines_ignored(self):
        text = "# a note\n\nruleset either local same\nvars 1\nassigned\n\nx0\n"
        p = parse_position(text)
        assert p.n == 1

    def test_multiline_formula(self):
        text = "ruleset either local same\nvars 2\nassigned\n(and x0\n  x1)\n"
        assert parse_position(text).formula == parse_formula("(and x0 x1)", 2)

    def test_position_file_rejects_move_lines(self):
        text = "ruleset either local same\nvars 1\nassigned\nx0\nmove x0 T\n"
        with pytest.raises(PositionFormatError):
            parse_position(text)

    def test_parse_errors(self):
        bad = [
            "",
            "vars 1\nassigned\nx0\n",
            "ruleset either local\nvars 1\nassigned\nx0\n",
            "ruleset either local bogus\nvars 1\nassigned\nx0\n",
            "ruleset either local same\nvars -1\nassigned\nx0\n",
            "ruleset either local same\nvars 1\nassigned 0=Q\nx0\n",
            "ruleset either local same\nvars 1\nassigned\nmover 3\nx0\n",
            "ruleset either local same\nvars 1\nassigned\n",
            "ruleset either local same\nvars 1\nassigned\nx4\n",
            "ruleset either local same\nvars 1\nassigned 2=T\nx0\n",
            "ruleset either local same\nvars 2\nassigned 0=T 0=F\nx0\n",
        ]
        for text in bad:
            with pytest.raises(PositionFormatError):
                parse_position(text)

    def test_non_ascii_digits_are_format_errors(self):
        for text, line in (
            ("ruleset either local same\nvars ²\nassigned\nx0\n", 2),
            ("ruleset either local same\nvars 2\nassigned ¹=T\nx0\n", 3),
            ("ruleset either local same\nvars 2\nassigned\nx0\nmove x¹ T\n", 5),
            ("ruleset either local same\nvars 2\nassigned\nx0\nmove x٠ T\n", 5),
        ):
            with pytest.raises(PositionFormatError) as err:
                parse_trace(text)
            assert err.value.line == line

    def test_trace_round_trip(self):
        p = Position.initial(sample_formula(), SAMPLE_VARS, EITHER_ANYWHERE_SAME)
        t = GameTrace(p, [(6, False), (2, True)])
        parsed = parse_trace(format_trace(t))
        assert parsed.initial == p
        assert parsed.moves == t.moves

    def test_trace_bad_move_line(self):
        text = "ruleset either local same\nvars 1\nassigned\nx0\nmove x0 maybe\n"
        with pytest.raises(PositionFormatError):
            parse_trace(text)
