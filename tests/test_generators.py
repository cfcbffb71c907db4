"""Random instance generators and DIMACS IO: determinism and validity."""

import random

import pytest

from qbfgames.cnf import Cnf, CnfError, parse_dimacs
from qbfgames.engine import (
    BY_PLAYER_ANYWHERE_SAME,
    EITHER_LOCAL_DIFFERENT,
    EITHER_LOCAL_SAME,
)
from qbfgames.formula import free_variables, parse_formula, to_text
from qbfgames.generators import (
    enumerate_graphs,
    enumerate_graphs_up_to,
    random_cnf,
    random_graph,
    random_positive_cnf,
)
from qbfgames.reductions import parse_graph, format_graph

from _corpus import is_positive, random_formula, random_position, random_snort_graph


class TestDeterminism:
    def test_same_seed_same_cnf(self):
        a = random_cnf(random.Random(99), 7, 4, 3)
        b = random_cnf(random.Random(99), 7, 4, 3)
        assert a == b
        assert a.to_dimacs() == b.to_dimacs()

    def test_same_seed_same_graph(self):
        a = random_graph(random.Random(5), 6, 0.4)
        b = random_graph(random.Random(5), 6, 0.4)
        assert a == b

    def test_stream_continues_deterministically(self):
        rng1, rng2 = random.Random(1), random.Random(1)
        for _ in range(5):
            assert random_positive_cnf(rng1, 5, 3) == random_positive_cnf(rng2, 5, 3)


class TestShapes:
    def test_cnf_shape(self):
        cnf = random_cnf(random.Random(1), 7, 4, 3)
        assert cnf.n == 7
        assert len(cnf.clauses) == 4
        for clause in cnf.clauses:
            assert len({var for var, _ in clause}) == 3

    def test_width_capped_by_variable_count(self):
        cnf = random_cnf(random.Random(2), 2, 3, 3)
        for clause in cnf.clauses:
            assert len(clause) == 2

    def test_positive_instances_have_no_negations(self):
        cnf = random_positive_cnf(random.Random(3), 6, 10)
        assert is_positive(cnf)
        for clause in cnf.clauses:
            variables = [var for var, _ in clause]
            assert 1 <= len(variables) <= 3
            assert variables == sorted(set(variables))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            random_cnf(random.Random(0), 0, 1)
        with pytest.raises(ValueError):
            random_cnf(random.Random(0), 3, -1)
        with pytest.raises(ValueError):
            random_graph(random.Random(0), -1)
        with pytest.raises(ValueError):
            random_graph(random.Random(0), 3, 1.5)

    def test_graph_edge_probability_extremes(self):
        assert random_graph(random.Random(0), 5, 0.0).edges == ()
        assert len(random_graph(random.Random(0), 5, 1.0).edges) == 10

    def test_snort_graph_is_valid(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_snort_graph(rng, rng.randint(1, 8), 0.5, 0.6)
            for i, j in g.edges:
                assert {g.paint[i], g.paint[j]} != {True, False}

    def test_random_formula_stays_in_range(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(1, 6)
            f = random_formula(rng, n, budget=rng.randint(0, 10))
            assert all(v < n for v in free_variables(f))
            assert parse_formula(to_text(f), n) == f


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_graphs(0))) == 1
        assert len(list(enumerate_graphs(3))) == 8
        assert len(list(enumerate_graphs(4))) == 64
        assert len(list(enumerate_graphs_up_to(3))) == 12

    def test_all_distinct(self):
        graphs = list(enumerate_graphs_up_to(4))
        assert len(set(graphs)) == len(graphs)


class TestRandomPosition:
    def test_local_positions_have_prefix_assignments(self):
        rng = random.Random(15)
        for _ in range(60):
            p = random_position(rng, EITHER_LOCAL_SAME, rng.randint(1, 9), 3)
            k = p.n - p.assignment.count(None)
            assert all(p.assignment[i] is not None for i in range(k))

    def test_max_open_cap(self):
        rng = random.Random(16)
        for _ in range(60):
            n = rng.randint(1, 10)
            p = random_position(rng, BY_PLAYER_ANYWHERE_SAME, n, 3, max_open=4)
            assert p.assignment.count(None) <= 4

    def test_mover_follows_parity(self):
        rng = random.Random(17)
        for _ in range(30):
            p = random_position(rng, EITHER_LOCAL_DIFFERENT, rng.randint(1, 8), 2)
            expected = (p.n - p.assignment.count(None)) % 2
            assert (p.mover.value - 1) == expected


class TestDimacs:
    def test_round_trip(self):
        cnf = random_cnf(random.Random(18), 6, 5, 3)
        assert parse_dimacs(cnf.to_dimacs()) == cnf

    def test_comment_lines_preserved_in_output(self):
        text = Cnf(2, (((0, False),),)).to_dimacs(comment="hello\nworld")
        assert text.startswith("c hello\nc world\np cnf 2 1\n")
        assert parse_dimacs(text) == Cnf(2, (((0, False),),))

    def test_signs(self):
        cnf = parse_dimacs("p cnf 3 2\n1 -2 0\n-3 0\n")
        assert cnf.clauses == (((0, False), (1, True)), ((2, True),))

    def test_parse_errors(self):
        bad = [
            "",
            "1 2 0\n",
            "p cnf x 1\n1 0\n",
            "p cnf 2 1\n1 2\n",
            "p cnf 2 1\n0\n",
            "p cnf 2 1\n3 0\n",
            "p cnf 2 2\n1 0\n",
            "p sat 2 1\n1 0\n",
            "p cnf 2 1\n1 a 0\n",
            "p cnf 3 2\n1 2 0\np cnf 3 1\n",
        ]
        for text in bad:
            with pytest.raises(CnfError):
                parse_dimacs(text)

    def test_non_ascii_or_underscored_integers_are_errors(self):
        # `int` takes "١" and "1_0"
        for text, line in (
            ("p cnf ١ 1\n1 0\n", 1),
            ("p cnf 1_0 1\n1 0\n", 1),
            ("p cnf 2 1\n١ 0\n", 2),
            ("p cnf 20 1\n1_0 0\n", 2),
        ):
            with pytest.raises(CnfError, match=rf"\(line {line}\)"):
                parse_dimacs(text)

    def test_graph_format_idempotent(self):
        rng = random.Random(19)
        for _ in range(20):
            g = random_snort_graph(rng, rng.randint(1, 6))
            assert parse_graph(format_graph(g)) == g
