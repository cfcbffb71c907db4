"""Reductions: construction shapes, validation, and winner preservation."""

import random

import pytest

from qbfgames.cnf import Cnf, CnfError
from qbfgames.engine import (
    BY_PLAYER_ANYWHERE_DIFFERENT,
    BY_PLAYER_ANYWHERE_SAME,
    EITHER_ANYWHERE_SAME,
    EITHER_LOCAL_DIFFERENT,
    EITHER_LOCAL_SAME,
    Player,
    Position,
)
from qbfgames.formula import (
    TRUE,
    And,
    Literal,
    Or,
    free_variables,
    to_text,
)
from qbfgames.generators import (
    enumerate_graphs_up_to,
    random_cnf,
    random_graph,
    random_positive_cnf,
)
from qbfgames import reductions
from qbfgames.reductions import (
    Graph,
    GraphFormatError,
    InvalidGraphError,
    InvalidSnortGraphError,
    NegationError,
    PositiveCnfError,
    PositiveCnfGame,
    QbfGame,
    check_p2c,
    check_positive_cnf,
    check_qbf_cnf,
    check_snort,
    format_graph,
    p2c_to_position,
    parse_graph,
    positive_cnf,
    positive_cnf_to_bpad,
    qbf_cnf_to_either_local_same,
    snort_to_position,
    toy_positive_equivalence_check,
    toy_positive_to_ead,
)
from qbfgames.solver import BudgetExceededError, Outcome, solve, solve_abstract, solve_naive

from _corpus import node_count, random_snort_graph


@pytest.fixture
def flipped_solve(monkeypatch):
    """A `solve` that flips every winner: a check whose source side does not
    use `solve` then reports a disagreement on every instance."""
    real_solve = reductions.solve

    def flipped(position, *args, **kwargs):
        out = real_solve(position, *args, **kwargs)
        return Outcome(out.winner.opponent, out.variation, out.nodes)

    monkeypatch.setattr(reductions, "solve", flipped)


class TestGraphType:
    def test_normalizes_edges(self):
        g = Graph(3, [(1, 2), (2, 0), (0, 2)])
        assert g.edges == ((0, 2), (1, 2))
        assert g.paint == (None, None, None)

    def test_rejects_self_loops_and_range(self):
        with pytest.raises(InvalidGraphError):
            Graph(3, [(1, 1)])
        with pytest.raises(InvalidGraphError):
            Graph(3, [(0, 3)])

    def test_rejects_bad_paint(self):
        with pytest.raises(InvalidGraphError, match="paint must be True, False or None, got 1"):
            Graph(2, [], [None, 1])
        with pytest.raises(InvalidGraphError, match="paint list length"):
            Graph(3, [], [True, None])

    def test_file_round_trip(self):
        g = Graph(4, [(0, 1), (1, 3)], [True, None, False, None])
        assert parse_graph(format_graph(g)) == g

    def test_parse_example(self):
        g = parse_graph("graph 3\ne 0 1\ne 1 2\npaint 2 red\n# comment\n")
        assert g.n_vertices == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.paint == (None, None, False)

    def test_parse_errors(self):
        bad = [
            "",
            "e 0 1\n",
            "graph -1\n",
            "graph 2\ne 0\n",
            "graph 2\ne 0 2\n",
            "graph 2\npaint 0 green\n",
            "graph 2\npaint 5 red\n",
            "graph 2\npaint 0 red\npaint 0 red\n",
            "graph 2\ngraph 2\n",
            "graph 2\nvertex 1\n",
        ]
        for text in bad:
            with pytest.raises(GraphFormatError):
                parse_graph(text)

    def test_non_ascii_digits_are_format_errors(self):
        for text, line in (("graph ²\n", 1), ("graph 2\ne ¹ 0\n", 2), ("graph 2\npaint ٠ red\n", 2)):
            with pytest.raises(GraphFormatError, match=rf"\(line {line}\)"):
                parse_graph(text)


class TestSnortReduction:
    def test_single_edge_formula(self):
        p = snort_to_position(Graph(2, [(0, 1)]))
        assert to_text(p.formula) == "(and (or x0 (not x1)) (or (not x0) x1))"
        assert p.config == BY_PLAYER_ANYWHERE_SAME
        assert p.mover is Player.P1

    def test_edgeless_graph(self):
        p = snort_to_position(Graph(3, []))
        assert p.formula == TRUE
        assert solve(p).winner is Player.P1  # three free moves, odd length

    def test_painted_vertices_become_assignments(self):
        g = Graph(3, [(0, 1)], [True, None, False])
        p = snort_to_position(g)
        assert p.assignment == (True, None, False)
        assert p.mover is Player.P1  # caller's choice, default Blue/True

    def test_first_player_parameter(self):
        p = snort_to_position(Graph(2, []), first_player=Player.P2)
        assert p.mover is Player.P2

    def test_adjacent_opposite_paint_rejected(self):
        g = Graph(2, [(0, 1)], [True, False])
        with pytest.raises(InvalidSnortGraphError):
            snort_to_position(g)

    def test_clause_shape_and_linear_size(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            p = snort_to_position(g)
            if not g.edges:
                assert p.formula == TRUE
                continue
            assert isinstance(p.formula, And)
            for clause in p.formula.children:
                assert isinstance(clause, Or)
                assert len(clause.children) == 2
                assert all(isinstance(c, Literal) for c in clause.children)
            assert node_count(p.formula) == 6 * len(g.edges) + 1

    def test_winner_preserved_small_exhaustive(self):
        for g in enumerate_graphs_up_to(3):
            assert check_snort(g).agree

    def test_winner_preserved_with_paint_and_either_mover(self):
        rng = random.Random(6)
        for _ in range(60):
            g = random_snort_graph(rng, rng.randint(1, 5))
            for first in (Player.P1, Player.P2):
                assert check_snort(g, first).agree


class TestProperTwoColoringReduction:
    def test_single_edge_gadget(self):
        p = p2c_to_position(Graph(2, [(0, 1)]))
        assert to_text(p.formula) == "(and (or (and x0 (not x1)) (and (not x0) x1)))"
        assert p.config == EITHER_ANYWHERE_SAME

    def test_edgeless_two_vertices_second_player_wins(self):
        p = p2c_to_position(Graph(2, []))
        assert p.formula == TRUE
        assert solve(p).winner is Player.P2  # two free moves, even length

    def test_colored_input_rejected(self):
        g = Graph(2, [], [True, None])
        with pytest.raises(InvalidGraphError):
            p2c_to_position(g)

    def test_gadget_shape_and_linear_size(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            p = p2c_to_position(g)
            if not g.edges:
                continue
            for gadget in p.formula.children:
                assert isinstance(gadget, Or)
                assert len(gadget.children) == 2
                for conj in gadget.children:
                    assert isinstance(conj, And)
                    assert len(conj.children) == 2
                    assert all(isinstance(c, Literal) for c in conj.children)
            assert node_count(p.formula) == 7 * len(g.edges) + 1

    def test_winner_preserved_small_exhaustive(self):
        for g in enumerate_graphs_up_to(3):
            assert check_p2c(g).agree

    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        check = check_p2c(g)
        assert check.agree
        # a triangle blocks after two proper moves, so the second player wins
        assert check.source.winner is Player.P2


class TestQbfCnfReduction:
    def test_even_top_clause_unchanged(self):
        cnf = Cnf(3, (((0, False), (1, True), (2, False)),))
        p = qbf_cnf_to_either_local_same(cnf)
        assert to_text(p.formula) == "(and (or x0 (not x1) x2))"

    def test_odd_top_clause_gets_padding(self):
        cnf = Cnf(2, (((0, False), (1, False)),))
        p = qbf_cnf_to_either_local_same(cnf)
        assert to_text(p.formula) == "(and (or x0 x1 (and x2 (not x2))))"

    def test_padding_reuses_existing_variable(self):
        # top index 1 is odd, so x2 is reused even though it already occurs
        cnf = Cnf(3, (((0, False), (1, False)), ((2, False),)))
        p = qbf_cnf_to_either_local_same(cnf)
        assert to_text(p.formula) == "(and (or x0 x1 (and x2 (not x2))) (or x2))"
        assert p.n == 5

    def test_variable_count_padded_to_odd(self):
        assert qbf_cnf_to_either_local_same(Cnf(3, (((2, False),),))).n == 5
        assert qbf_cnf_to_either_local_same(Cnf(4, (((2, False),),))).n == 5
        assert qbf_cnf_to_either_local_same(Cnf(1, (((0, False),),))).n == 3

    def test_config_and_fresh_variable_for_top_odd(self):
        cnf = Cnf(2, (((1, False),),))
        p = qbf_cnf_to_either_local_same(cnf)
        assert p.config == EITHER_LOCAL_SAME
        assert free_variables(p.formula) == {1, 2}
        assert p.n == 3

    def test_gamma_parity_invariants(self):
        rng = random.Random(8)
        for _ in range(60):
            cnf = random_cnf(rng, rng.randint(1, 7), rng.randint(1, 8))
            p = qbf_cnf_to_either_local_same(cnf)
            assert p.n % 2 == 1
            assert p.n in (cnf.n + 1, cnf.n + 2)
            if isinstance(p.formula, And):
                for clause in p.formula.children:
                    assert max(free_variables(clause)) % 2 == 0

    def test_output_size_linear(self):
        rng = random.Random(9)
        for _ in range(30):
            cnf = random_cnf(rng, rng.randint(1, 7), rng.randint(1, 8))
            grown = node_count(qbf_cnf_to_either_local_same(cnf).formula)
            assert grown <= node_count(cnf.to_formula()) + 3 * len(cnf.clauses)

    def test_winner_preserved_random(self):
        rng = random.Random(10)
        for _ in range(60):
            cnf = random_cnf(rng, rng.randint(1, 5), rng.randint(1, 6))
            assert check_qbf_cnf(cnf).agree

    def test_qbf_game_keeps_the_node_budget(self):
        # every clause closes at x21 and P2 wins, so the search tries both
        # values of each of P1's eleven variables: 8,189 distinct prefixes
        cnf = Cnf(22, tuple(((i, False), (21, False)) for i in range(21)))
        assert solve_abstract(QbfGame(cnf)) == Outcome(Player.P2, nodes=8189)
        with pytest.raises(BudgetExceededError):
            solve_abstract(QbfGame(cnf), node_budget=1000)

    def test_qbf_game_matches_naive_game_solve(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randint(1, 7)
            cnf = random_cnf(rng, n, rng.randint(1, 10), rng.randint(1, 3))
            game = Position.initial(cnf.to_formula(), n, EITHER_LOCAL_DIFFERENT)
            assert solve_abstract(QbfGame(cnf)).winner is solve_naive(game).winner, cnf
        assert solve_abstract(QbfGame(Cnf(0, ()))).winner is Player.P1

    def test_source_side_does_not_use_solve(self, flipped_solve):
        rng = random.Random(11)
        for _ in range(20):
            cnf = random_cnf(rng, rng.randint(1, 5), rng.randint(1, 6))
            assert not check_qbf_cnf(cnf).agree


class TestPositiveCnf:
    def test_instance_validation(self):
        wide = Cnf(4, (((0, False), (1, False), (2, False), (3, False)),))
        with pytest.raises(PositiveCnfError, match="clause width must be 1..3, got 4"):
            positive_cnf(wide)
        with pytest.raises(CnfError):
            Cnf(2, ((),))  # empty clause
        with pytest.raises(CnfError):
            Cnf(2, (((5, False),),))  # out of range
        # variables sorted, repeats dropped: four literals on three variables pass
        repeated = Cnf(4, (((3, False), (0, False), (3, False), (1, False)),))
        assert positive_cnf(repeated) == Cnf(4, (((0, False), (1, False), (3, False)),))

    def test_normalised_instance_is_returned_as_is(self):
        rng = random.Random(29)
        for _ in range(50):
            cnf = random_positive_cnf(rng, rng.randint(1, 8), rng.randint(0, 8), rng.randint(1, 3))
            assert positive_cnf(cnf) is cnf
        # out of order or repeated: a new, normalised instance
        unsorted = Cnf(3, (((2, False), (0, False)),))
        assert positive_cnf(unsorted) == Cnf(3, (((0, False), (2, False)),))
        # the checks still come first: a negated or over-wide clause raises
        # even when its variables are ascending
        with pytest.raises(NegationError):
            positive_cnf(Cnf(3, (((0, False), (1, True)),)))
        with pytest.raises(PositiveCnfError):
            positive_cnf(Cnf(4, (tuple((var, False) for var in range(4)),)))

    def test_positive_cnf_rejects_negations(self):
        negated = Cnf(2, (((0, True),),))
        rejecting = (
            positive_cnf, PositiveCnfGame, positive_cnf_to_bpad, toy_positive_to_ead,
            check_positive_cnf, toy_positive_equivalence_check,
        )
        for reject in rejecting:
            with pytest.raises(NegationError, match="negated literal on x0"):
                reject(negated)

    def test_identity_embedding(self):
        cnf = Cnf(2, (((0, False), (1, False)),))
        p = positive_cnf_to_bpad(cnf)
        assert p.config == BY_PLAYER_ANYWHERE_DIFFERENT
        assert p.mover is Player.P1
        assert p.formula == cnf.to_formula()
        assert to_text(p.formula) == "(and (or x0 x1))"

    def test_single_variable_true_wins(self):
        cnf = Cnf(1, (((0, False),),))
        assert solve(positive_cnf_to_bpad(cnf)).winner is Player.P1

    def test_two_conjuncts_false_wins(self):
        cnf = Cnf(2, (((0, False),), ((1, False),)))
        assert solve(positive_cnf_to_bpad(cnf)).winner is Player.P2

    def test_embedding_matches_direct_game(self):
        rng = random.Random(11)
        for _ in range(60):
            cnf = random_positive_cnf(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert check_positive_cnf(cnf).agree

    @pytest.mark.parametrize("check", [check_positive_cnf, toy_positive_equivalence_check])
    def test_source_side_does_not_use_solve(self, flipped_solve, check):
        rng = random.Random(13)
        for _ in range(20):
            cnf = random_positive_cnf(rng, rng.randint(1, 5), rng.randint(1, 6))
            assert not check(cnf).agree

    def test_toy_equivalence_examples(self):
        single = Cnf(1, (((0, False),),))
        report = toy_positive_equivalence_check(single)
        assert report.agree and report.source.winner is Player.P1

        triangle = Cnf(
            3, (((0, False), (1, False)), ((0, False), (2, False)), ((1, False), (2, False)))
        )
        assert toy_positive_equivalence_check(triangle).agree

    def test_toy_equivalence_random(self):
        rng = random.Random(12)
        for _ in range(120):
            cnf = random_positive_cnf(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert toy_positive_equivalence_check(cnf).agree


class TestPlayerCorrespondence:
    def test_blue_maps_to_true(self):
        # single vertex: whoever moves first paints it and wins
        g = Graph(1, [])
        blue_first = check_snort(g, Player.P1)
        assert blue_first.agree and blue_first.source.winner is Player.P1
        red_first = check_snort(g, Player.P2)
        assert red_first.agree and red_first.source.winner is Player.P2

    def test_middle_of_a_path_dominates(self):
        # painting the middle vertex of a 3-path blocks the opponent from
        # both neighbors, so the first player wins on both sides of the map
        g = Graph(3, [(0, 1), (1, 2)])
        check = check_snort(g)
        assert check.agree
        assert check.source.winner is Player.P1


def _snort_instance(rng):
    graph = random_snort_graph(rng, rng.randint(1, 6))
    return graph, snort_to_position(graph, Player.P1)


def _p2c_instance(rng):
    graph = random_graph(rng, rng.randint(1, 6))
    return graph, p2c_to_position(graph)


def _cnf_instance(draw, encode):
    def instance(rng):
        cnf = draw(rng, rng.randint(1, 6), rng.randint(1, 6))
        return cnf, encode(cnf)
    return instance


@pytest.mark.parametrize("check, instance", [
    (check_snort, _snort_instance),
    (check_p2c, _p2c_instance),
    (check_qbf_cnf, _cnf_instance(random_cnf, qbf_cnf_to_either_local_same)),
    (check_positive_cnf, _cnf_instance(random_positive_cnf, positive_cnf_to_bpad)),
    (toy_positive_equivalence_check, _cnf_instance(random_positive_cnf, toy_positive_to_ead)),
], ids=["snort", "p2c", "qbf", "poscnf", "toy-poscnf"])
def test_check_solves_the_reduced_side_for_its_winner_alone(check, instance):
    # a check compares winners, so its reduced side walks no line
    rng = random.Random(41)
    for _ in range(30):
        source, encoded = instance(rng)
        reduced = check(source).reduced
        assert reduced.variation is None
        assert reduced.winner is solve(encoded).winner
