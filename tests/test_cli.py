"""CLI subcommands, output shapes, and exit codes."""

import io
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc

import pytest

import qbfgames
import qbfgames.cli as cli
from qbfgames.cli import main
from qbfgames.cnf import Cnf
from qbfgames.engine import Player, apply_move, parse_position
from qbfgames.formula import simplify
from qbfgames.generators import random_cnf, random_positive_cnf
from qbfgames.reductions import (
    ReductionCheck,
    format_graph,
    parse_graph,
    positive_cnf_to_bpad,
    qbf_cnf_to_either_local_same,
    toy_positive_to_ead,
)
from qbfgames.solver import Outcome, solve

from _corpus import SAMPLE_TEXT, SAMPLE_VARS, forced_line_position_text

SAMPLE_POSITION = (
    f"ruleset by-player local same\nvars {SAMPLE_VARS}\nassigned\n{SAMPLE_TEXT}\n"
)


# a million declared variables, two of them in an open formula
WIDE_OPEN = "vars 1000000\nassigned\n(or x999999 (not x999998))\n"


@pytest.fixture
def sample_position_file(tmp_path):
    path = tmp_path / "sample.pos"
    path.write_text(SAMPLE_POSITION)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_forced_ruleset_winner(self, capsys, sample_position_file):
        code, out, _ = run(capsys, "solve", sample_position_file)
        assert code == 0
        assert "winner: P2 (False)" in out
        assert "nodes:" in out

    def test_trivial_true_formula(self, capsys, tmp_path):
        path = tmp_path / "t.pos"
        path.write_text("ruleset either local different\nvars 1\nassigned\ntrue\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert "winner: P1" in out

    def test_naive_agrees(self, capsys, sample_position_file):
        code, out, _ = run(capsys, "solve", sample_position_file, "--ruleset",
                           "either-local-different")
        code2, out2, _ = run(capsys, "solve", sample_position_file, "--ruleset",
                             "either-local-different", "--naive")
        assert code == code2 == 0
        assert out.splitlines()[1] == out2.splitlines()[1]

    def test_json_output(self, capsys, sample_position_file):
        code, out, _ = run(capsys, "solve", sample_position_file, "--json", "--pv")
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == "P2"
        assert payload["ruleset"] == "by-player-local-same"
        assert isinstance(payload["nodes"], int)
        assert isinstance(payload["pv"], list)

    def test_pv_line(self, capsys, sample_position_file):
        code, out, _ = run(capsys, "solve", sample_position_file, "--pv")
        assert code == 0
        assert any(line.startswith("pv: ") for line in out.splitlines())

    def test_mover_override_changes_result(self, capsys, tmp_path):
        path = tmp_path / "m.pos"
        path.write_text("ruleset either anywhere same\nvars 1\nassigned\nx0\n")
        _, out1, _ = run(capsys, "solve", str(path))
        code, out2, _ = run(capsys, "solve", str(path), "--mover", "2")
        assert code == 0
        assert "winner: P1" in out1
        assert "winner: P2" in out2

    def test_budget_exceeded_exits_3(self, capsys, sample_position_file):
        code, _, err = run(capsys, "solve", sample_position_file, "--ruleset",
                           "either-anywhere-different", "--budget", "3")
        assert code == 3
        assert "budget" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.pos"
        path.write_text("ruleset wrong tokens here\nvars 1\nassigned\nx0\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "no-such-file.pos")
        assert code == 2

    @pytest.mark.parametrize(
        "ruleset, winner", [("by-player-local-same", "P2"), ("by-player-local-different", "P1")]
    )
    def test_long_forced_line(self, capsys, tmp_path, ruleset, winner):
        path = tmp_path / "long.pos"
        path.write_text(forced_line_position_text(ruleset, 2000))
        code, out, _ = run(capsys, "solve", str(path), "--json", "--pv")
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == winner
        assert len(payload["pv"]) == 2000

    @pytest.mark.parametrize("goal, winner, nodes", [("same", "P2", 62), ("different", "P1", 60)])
    def test_local_play_merges_equal_residuals(self, capsys, tmp_path, goal, winner, nodes):
        # x0..x57 do not occur, so both values of each lead to one residual:
        # keyed on the whole assignment the search doubles at each of them
        path = tmp_path / "tail.pos"
        path.write_text(f"ruleset either local {goal}\nvars 60\nassigned\n(or x59 (not x58))\n")
        code, out, _ = run(capsys, "solve", str(path), "--budget", "1000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["winner"], payload["nodes"]) == (winner, nodes)

    def _cli_peak(self, tmp_path, argv, address_space=None):
        """The CLI on argv in a child process killed after 60 s of CPU time,
        its address space limited to `address_space` bytes if given: its
        exit code, stdout, stderr and peak RSS in KiB."""
        out, err = tmp_path / "out", tmp_path / "err"
        src = os.path.dirname(os.path.dirname(qbfgames.__file__))

        def limit():
            resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
            if address_space is not None:
                resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

        with open(out, "w") as stdout, open(err, "w") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-m", "qbfgames.cli", *argv],
                env=dict(os.environ, PYTHONPATH=src), stdout=stdout, stderr=stderr,
                preexec_fn=limit,
            )
            # wait4 gives this child's own peak, where getrusage would give
            # the largest of every child the test run has waited for
            _, status, usage = os.wait4(child.pid, 0)
        return os.waitstatus_to_exitcode(status), out.read_text(), err.read_text(), usage.ru_maxrss

    def _solve_peak(self, tmp_path, text, *flags):
        """`solve` on the position text, as `_cli_peak` runs it, with the
        last line of its stdout in place of the whole."""
        path = tmp_path / "wide.pos"
        path.write_text(text)
        code, out, err, peak = self._cli_peak(tmp_path, ["solve", str(path), *flags])
        return code, (out.splitlines() or [""])[-1], err, peak

    @pytest.mark.parametrize("choice", ["either", "by-player"])
    @pytest.mark.parametrize("locality", ["local", "anywhere"])
    def test_budget_bounds_memory_on_a_wide_position(self, tmp_path, choice, locality):
        # set-up, the clause rules' tables included, must not grow with the
        # million variables that the file declares and never uses; under
        # anywhere-different P1 wins at once by writing x999999 true, and
        # otherwise the budget stops the search at 10 nodes
        for goal in ("same", "different"):
            text = f"ruleset {choice} {locality} {goal}\n{WIDE_OPEN}"
            code, last, err, peak = self._solve_peak(tmp_path, text, "--budget", "10")
            if (goal, locality) == ("different", "anywhere"):
                assert (code, last, err) == (0, "nodes: 2", ""), goal
            else:
                assert (code, err) == (3, "error: node budget of 10 exceeded\n"), goal
            assert peak < 120 * 1024, goal  # KiB

    @pytest.mark.parametrize("argv, text", [
        (["solve"], f"ruleset either anywhere same\nvars {10**15}\nassigned\nx0\n"),
        (["reduce", "snort"], f"graph {10**15}\n"),
        (["reduce", "qbf"], f"p cnf {10**15} 0\n"),
        (["solve"], f"ruleset either anywhere same\nvars {10**20}\nassigned\nx0\n"),
        (["reduce", "snort"], f"graph {10**20}\n"),
        (["reduce", "qbf"], f"p cnf {10**20} 1\n1 0\n"),
        (["gen", "formula", "--vars", str(10**20)], None),
        (["gen", "poscnf", "--vars", str(10**20)], None),
        (["gen", "graph", "--vertices", str(10**20)], None),
        (["verify", "snort", "--vertices", str(10**20), "--count", "1"], None),
        (["verify", "p2c", "--vertices", str(10**20), "--count", "1"], None),
        (["verify", "qbf", "--vars", str(10**20), "--count", "1"], None),
    ])
    def test_size_too_large_to_hold_exits_2(self, tmp_path, argv, text):
        # 10**15 slots are 8 PB, beyond any address space, so the first
        # allocation fails at once without touching memory (MemoryError);
        # 10**20 is past 2**63, too large to index (OverflowError).  The
        # first allocation by the count must come before anything grows
        # towards it, an edge list or a per-variable table: under the 1 GB
        # limit such growth ends in MemoryError too, but at a peak far above
        # 100 MB
        if text is not None:
            path = tmp_path / "huge.in"
            path.write_text(text)
            argv = [*argv, str(path)]
        code, _, err, peak = self._cli_peak(tmp_path, argv, address_space=2**30)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert peak < 100 * 1024  # KiB

    def _timed_solve(self, tmp_path, text, *flags, timeout):
        path = tmp_path / "wide.pos"
        path.write_text(text)
        src = os.path.dirname(os.path.dirname(qbfgames.__file__))
        return subprocess.run(
            [sys.executable, "-m", "qbfgames.cli", "solve", str(path), *flags],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=timeout,
        )

    def test_decided_line_is_written_in_one_pass(self, tmp_path):
        # the root is decided, so the PV is the lowest open variable at each
        # turn, written in one pass; a scan from x0 at each turn is quadratic
        text = "ruleset by-player anywhere different\nvars 20000\nassigned\ntrue\n"
        done = self._timed_solve(tmp_path, text, "--pv", timeout=5)
        assert done.returncode == 0
        pv = done.stdout.splitlines()[-1].split()
        assert pv[1:4] == ["x0=T", "x1=F", "x2=T"] and len(pv) == 20001

    @pytest.mark.parametrize("choice", ["either", "by-player"])
    @pytest.mark.parametrize("locality", ["local", "anywhere"])
    def test_budget_leaves_a_decided_wide_position_quick(self, tmp_path, choice, locality):
        # a decided root is one node under either goal, with nothing set up
        # for a search and no million-move line walked that is not printed
        for goal in ("same", "different"):
            text = f"ruleset {choice} {locality} {goal}\nvars 1000000\nassigned\ntrue\n"
            code, last, err, peak = self._solve_peak(tmp_path, text, "--budget", "10")
            assert (code, last, err) == (0, "nodes: 1", ""), goal
            assert peak < 120 * 1024, goal  # KiB

    def test_plain_solve_walks_no_line(self, capsys, tmp_path):
        # the line searches children that the winner search did not visit,
        # so it costs nodes, which only --pv and --json pay
        text = f"ruleset either anywhere different\nvars {SAMPLE_VARS}\nassigned\n{SAMPLE_TEXT}\n"
        path = tmp_path / "sample.pos"
        path.write_text(text)
        position = parse_position(text)
        search, walked = solve(position, line=False).nodes, solve(position).nodes
        assert search < walked
        code, out, _ = run(capsys, "solve", str(path))
        assert (code, out.splitlines()[-1]) == (0, f"nodes: {search}")
        code, out, _ = run(capsys, "solve", str(path), "--json")
        assert (code, json.loads(out)["nodes"]) == (0, walked)

    def test_printed_line_is_formatted_in_place(self, tmp_path):
        # each move's text replaces its pair in the line, so a million-move
        # line never holds a million pairs and their texts at once
        text = "ruleset either anywhere different\nvars 1000000\nassigned\ntrue\n"
        for flag in ("--pv", "--json"):
            code, last, err, peak = self._solve_peak(tmp_path, text, flag)
            assert (code, err) == (0, ""), flag
            assert last.startswith("pv: x0=F x1=F " if flag == "--pv" else '{"ruleset": ')
            assert peak < 180 * 1024, flag  # KiB

    def test_pv_is_formatted_only_when_printed(self, capsys, monkeypatch, tmp_path):
        # a decided 50-move line, which neither --pv nor --json asks for
        path = tmp_path / "line.pos"
        path.write_text("ruleset by-player anywhere different\nvars 50\nassigned\ntrue\n")
        formatted = []
        move_text = cli.move_text
        monkeypatch.setattr(cli, "move_text", lambda m: formatted.append(m) or move_text(m))
        assert run(capsys, "solve", str(path)) == (
            0, "ruleset: by-player-anywhere-different\nwinner: P1 (True)\nnodes: 1\n", ""
        )
        assert formatted == []


def nested_position(head, depth):
    """One-variable either-anywhere-same position whose formula nests `depth`
    (even) parentheses and is equivalent to x0.  The chain wraps a connective,
    so the parser cannot fold a `not` chain into a literal."""
    chain = depth - 2
    formula = f"({head} " * chain + "(and x0 (or x0 x0))" + ")" * chain
    return f"ruleset either anywhere same\nvars 1\nassigned\n{formula}\n"


@pytest.mark.parametrize("budget, expected", [("-1", 2), ("0", 3)])
@pytest.mark.parametrize("argv", [("solve",), ("verify", "qbf"), ("play", "--human", "2")],
                         ids=["solve", "verify", "play"])
def test_budget_bounds(capsys, sample_position_file, argv, budget, expected):
    if argv[0] != "verify":
        argv = (argv[0], sample_position_file, *argv[1:])
    code, _, err = run(capsys, *argv, "--budget", budget)
    assert code == expected
    assert ("--budget" in err) == (expected == 2)


class TestNestingLimit:
    @pytest.mark.parametrize("head", ["and", "not"])
    def test_too_deep_exits_2_with_one_line(self, capsys, tmp_path, head):
        path = tmp_path / "deep.pos"
        path.write_text(nested_position(head, 3000))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "nesting deeper than 256" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("head", ["and", "not"])
    def test_limit_depth_solves_and_replays(self, capsys, tmp_path, head):
        position = nested_position(head, 256)
        path = tmp_path / "limit.pos"
        path.write_text(position)
        code, out, _ = run(capsys, "solve", str(path), "--json")
        assert code == 0
        assert json.loads(out)["winner"] == "P1"
        trace = tmp_path / "limit.trace"
        trace.write_text(position + "move x0 T\n")
        code, out, _ = run(capsys, "replay", str(trace), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"][0]["formula"] == "true"
        assert payload["winner"] == "P1"


# replay's whole output, byte for byte: name -> (fixture name or trace text,
# {mode: (exit code, stdout, stderr)}), one bundled fixture per goal, illegal
# moves before and after a legal step, and a trace that stops before the end
_SMALL = "ruleset either anywhere same\nvars 3\nassigned\n(or (and x0 x1) x2)\n"
_SMALL_HEAD = "ruleset: either-anywhere-same\ninitial: (or (and x0 x1) x2)\n"
_SMALL_JSON = '{"ruleset": "either-anywhere-same", "initial": "(or (and x0 x1) x2)", "steps": ['
_SAMPLE_JSON = f'"initial": "{SAMPLE_TEXT}", "steps": ['
REPLAY_PINS = {
    "same-goal-fixture": ("by-player-local-same", {
        "text": (0, (
            "ruleset: by-player-local-same\n"
            f"initial: {SAMPLE_TEXT}\n"
            "  1. True x0=T -> (and (or x3 (not x1)) (or x2 x1 (not x6)) (or (not x2) (not x4) x3))\n"
            "  2. False x1=F -> (and (or x2 (not x6)) (or (not x2) (not x4) x3))\n"
            "  3. True x2=T -> (or (not x4) x3)\n"
            "  4. False x3=F -> (not x4)\n"
            "winner: P2 (False)\n"
        ), ""),
        "json": (0, (
            '{"ruleset": "by-player-local-same", ' + _SAMPLE_JSON
            + '{"mover": "P1", "move": "x0=T", "formula": '
            '"(and (or x3 (not x1)) (or x2 x1 (not x6)) (or (not x2) (not x4) x3))"}, '
            '{"mover": "P2", "move": "x1=F", "formula": '
            '"(and (or x2 (not x6)) (or (not x2) (not x4) x3))"}, '
            '{"mover": "P1", "move": "x2=T", "formula": "(or (not x4) x3)"}, '
            '{"mover": "P2", "move": "x3=F", "formula": "(not x4)"}], '
            '"illegal": null, "winner": "P2"}\n'
        ), ""),
    }),
    "different-goal-fixture": ("either-anywhere-different", {
        "text": (0, (
            "ruleset: either-anywhere-different\n"
            f"initial: {SAMPLE_TEXT}\n"
            "  1. Even/True x3=T -> (and (or x2 x1 (not x6)) (or x4 (not x6) x0))\n"
            "  2. Odd/False x6=T -> (and (or x2 x1) (or x4 x0))\n"
            "  3. Even/True x4=T -> (or x2 x1)\n"
            "  4. Odd/False x1=F -> x2\n"
            "  5. Even/True x2=T -> true\n"
            "  6. Odd/False x0=F -> true\n"
            "  7. Even/True x5=T -> true\n"
            "winner: P1 (Even/True)\n"
        ), ""),
        "json": (0, (
            '{"ruleset": "either-anywhere-different", ' + _SAMPLE_JSON
            + '{"mover": "P1", "move": "x3=T", "formula": '
            '"(and (or x2 x1 (not x6)) (or x4 (not x6) x0))"}, '
            '{"mover": "P2", "move": "x6=T", "formula": "(and (or x2 x1) (or x4 x0))"}, '
            '{"mover": "P1", "move": "x4=T", "formula": "(or x2 x1)"}, '
            '{"mover": "P2", "move": "x1=F", "formula": "x2"}, '
            '{"mover": "P1", "move": "x2=T", "formula": "true"}, '
            '{"mover": "P2", "move": "x0=F", "formula": "true"}, '
            '{"mover": "P1", "move": "x5=T", "formula": "true"}], '
            '"illegal": null, "winner": "P1"}\n'
        ), ""),
    }),
    "illegal-first-move": (_SMALL + "move x3 T\n", {
        "text": (4, _SMALL_HEAD, "illegal move at step 1: x3=T (out-of-range)\n"),
        "json": (4, (
            _SMALL_JSON + '], "illegal": {"index": 0, "move": "x3=T", '
            '"reason": "out-of-range"}, "winner": null}\n'
        ), ""),
    }),
    "illegal-second-move": (_SMALL + "move x0 F\nmove x2 F\n", {
        "text": (
            4,
            _SMALL_HEAD + "  1. Even x0=F -> x2\n",
            "illegal move at step 2: x2=F (blatantly-false)\n",
        ),
        "json": (4, (
            _SMALL_JSON + '{"mover": "P1", "move": "x0=F", "formula": "x2"}], '
            '"illegal": {"index": 1, "move": "x2=F", "reason": "blatantly-false"}, '
            '"winner": null}\n'
        ), ""),
    }),
    "unfinished": (_SMALL + "move x0 T\n", {
        "text": (0, (
            _SMALL_HEAD + "  1. Even x0=T -> (or x1 x2)\n"
            "no winner: final position is not terminal\n"
        ), ""),
        "json": (0, (
            _SMALL_JSON + '{"mover": "P1", "move": "x0=T", "formula": "(or x1 x2)"}], '
            '"illegal": null, "winner": null}\n'
        ), ""),
    }),
}


class TestReplay:
    def test_bundled_sample_game(self, capsys):
        code, out, _ = run(capsys, "replay", "either-local-different")
        assert code == 0
        assert "winner: P2 (Odd/False)" in out
        assert "x0=T" in out

    def test_bundled_anywhere_different_game(self, capsys):
        code, out, _ = run(capsys, "replay", "either-anywhere-different")
        assert code == 0
        assert "winner: P1" in out

    def test_file_path_replay(self, capsys, tmp_path):
        path = tmp_path / "game.trace"
        path.write_text(SAMPLE_POSITION + "move x0 T\nmove x1 F\n")
        code, out, _ = run(capsys, "replay", str(path))
        assert code == 0
        assert "no winner" in out

    def test_out_of_turn_move_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(SAMPLE_POSITION + "move x3 T\n")  # local play must start at x0
        code, out, err = run(capsys, "replay", str(path))
        assert code == 4
        assert "wrong-location" in err

    def test_illegal_value_reports_rule(self, capsys, tmp_path):
        path = tmp_path / "bad2.trace"
        path.write_text(SAMPLE_POSITION + "move x0 F\n")  # True player must write T
        code, _, err = run(capsys, "replay", str(path))
        assert code == 4
        assert "wrong-value" in err

    def test_json_replay(self, capsys):
        code, out, _ = run(capsys, "replay", "by-player-anywhere-same", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == "P1"
        assert len(payload["steps"]) == 7
        assert payload["steps"][0]["move"] == "x3=T"

    def test_unknown_fixture_exits_2(self, capsys):
        code, _, err = run(capsys, "replay", "no-such-fixture")
        assert code == 2

    @pytest.mark.parametrize("mode", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(REPLAY_PINS))
    def test_outputs_are_pinned(self, capsys, tmp_path, case, mode):
        trace, pins = REPLAY_PINS[case]
        if trace.startswith("ruleset"):
            path = tmp_path / "pin.trace"
            path.write_text(trace)
            trace = str(path)
        argv = ("replay", trace) + (("--json",) if mode == "json" else ())
        assert run(capsys, *argv) == pins[mode]

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_memory_stays_below_half_the_output(self, tmp_path, monkeypatch, mode):
        # every step writes its whole residual, so the output grows with the
        # square of the line; replay holds the position it is at and the
        # texts of the subtrees it still shares, not the steps it has written
        n = 600
        moves = "".join(f"move x{i} {'TF'[i % 2]}\n" for i in range(n))
        path = tmp_path / "line.trace"
        path.write_text(forced_line_position_text("by-player-local-different", n) + moves)
        written = 0

        class Sink:
            def write(self, text):
                nonlocal written
                written += len(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            code = main(["replay", str(path), *mode])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < written / 2, (peak, written)



class TestReduce:
    def test_snort_edge(self, capsys, tmp_path):
        graph = tmp_path / "k2.graph"
        graph.write_text("graph 2\ne 0 1\n")
        code, out, _ = run(capsys, "reduce", "snort", str(graph))
        assert code == 0
        assert "(and (or x0 (not x1)) (or (not x0) x1))" in out

    def test_graph_outputs_are_pinned(self, capsys, tmp_path):
        painted = tmp_path / "painted.graph"
        painted.write_text("graph 4\ne 3 1\ne 0 2\ne 2 1\npaint 3 red\npaint 0 blue\n")
        clauses = (
            "(and (or x0 (not x2)) (or (not x0) x2) (or x1 (not x2)) (or (not x1) x2)"
            " (or x1 (not x3)) (or (not x1) x3))\n"
        )
        head = "ruleset by-player anywhere same\nvars 4\nassigned 0=T 3=F\n"
        for mover, line in (("1", ""), ("2", "mover 2\n")):
            code, out, err = run(capsys, "reduce", "snort", str(painted), "--mover", mover)
            assert (code, out, err) == (0, head + line + clauses, "")
        assert format_graph(parse_graph(painted.read_text())) == (
            "graph 4\ne 0 2\ne 1 2\ne 1 3\npaint 0 blue\npaint 3 red\n"
        )
        unpainted = tmp_path / "unpainted.graph"
        unpainted.write_text("graph 4\ne 3 1\ne 0 3\ne 2 1\ne 1 3\n")
        assert run(capsys, "reduce", "p2c", str(unpainted)) == (
            0,
            "ruleset either anywhere same\nvars 4\nassigned\n"
            "(and (or (and x0 (not x3)) (and (not x0) x3))"
            " (or (and x1 (not x2)) (and (not x1) x2))"
            " (or (and x1 (not x3)) (and (not x1) x3)))\n",
            "",
        )

    def test_output_file_round_trips(self, capsys, tmp_path):
        graph = tmp_path / "g.graph"
        graph.write_text("graph 3\ne 0 1\ne 1 2\npaint 0 blue\n")
        out_path = tmp_path / "out.pos"
        code, _, _ = run(capsys, "reduce", "snort", str(graph), "-o", str(out_path))
        assert code == 0
        p = parse_position(out_path.read_text())
        assert p.assignment[0] is True
        assert p.config.name == "by-player-anywhere-same"

    def test_p2c_empty_graph(self, capsys, tmp_path):
        graph = tmp_path / "e.graph"
        graph.write_text("graph 0\n")
        code, out, _ = run(capsys, "reduce", "p2c", str(graph))
        assert code == 0
        assert "true" in out

    def test_qbf_reduction(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        code, out, _ = run(capsys, "reduce", "qbf", str(cnf))
        assert code == 0
        assert "(and (or x0 x1 (and x2 (not x2))))" in out
        assert "vars 3" in out

    def test_poscnf_reduction_and_mover(self, capsys, tmp_path):
        cnf = tmp_path / "p.cnf"
        cnf.write_text("p cnf 2 2\n1 0\n2 0\n")
        code, out, _ = run(capsys, "reduce", "poscnf", str(cnf), "--mover", "2")
        assert code == 0
        assert "ruleset by-player anywhere different" in out
        assert "mover 2" in out

    def test_invalid_snort_paint_exits_2(self, capsys, tmp_path):
        graph = tmp_path / "bad.graph"
        graph.write_text("graph 2\ne 0 1\npaint 0 blue\npaint 1 red\n")
        code, _, err = run(capsys, "reduce", "snort", str(graph))
        assert code == 2

    def test_duplicate_problem_line_exits_2(self, capsys, tmp_path):
        cnf = tmp_path / "dup.cnf"
        cnf.write_text("p cnf 3 2\n1 2 0\np cnf 3 1\n")
        code, out, err = run(capsys, "reduce", "qbf", str(cnf))
        assert code == 2
        assert out == ""
        assert "duplicate problem line (line 3)" in err

    def test_poscnf_clauses_are_sorted_sets(self, capsys, tmp_path):
        cnf = tmp_path / "p.cnf"
        cnf.write_text("p cnf 4 3\n2 1 0\n3 3 1 0\n4 0\n")
        code, out, _ = run(capsys, "reduce", "poscnf", str(cnf))
        assert code == 0
        assert "(and (or x0 x1) (or x0 x2) (or x3))" in out
        cnf.write_text("p cnf 4 1\n1 2 3 4 0\n")
        code, out, err = run(capsys, "reduce", "poscnf", str(cnf))
        assert (code, out) == (2, "")
        assert err == "error: clause width must be 1..3, got 4\n"

    def test_negated_poscnf_exits_2(self, capsys, tmp_path):
        cnf = tmp_path / "neg.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 0\n")
        code, _, _ = run(capsys, "reduce", "poscnf", str(cnf))
        assert code == 2

    def test_reduce_output_reparses_losslessly(self, capsys, tmp_path):
        graph = tmp_path / "g.graph"
        graph.write_text("graph 4\ne 0 1\ne 2 3\ne 1 2\n")
        code, out, _ = run(capsys, "reduce", "p2c", str(graph))
        assert code == 0
        p = parse_position(out)
        from qbfgames.engine import format_position

        assert format_position(p) == out


class TestVerify:
    def test_snort_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "verify", "snort", "--vertices", "3", "--exhaustive")
        assert code == 0
        assert "checked 12 instance(s): 12 agree" in out

    def test_p2c_random(self, capsys):
        code, out, _ = run(capsys, "verify", "p2c", "--count", "25", "--vertices", "4",
                           "--seed", "3")
        assert code == 0

    def test_qbf_random_json(self, capsys):
        code, out, _ = run(capsys, "verify", "qbf", "--count", "15", "--vars", "4",
                           "--clauses", "5", "--seed", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 15
        assert payload["agreements"] == 15
        assert payload["counterexample"] is None

    def test_toy_poscnf(self, capsys):
        code, out, _ = run(capsys, "verify", "toy-poscnf", "--count", "40", "--seed", "2")
        assert code == 0

    def test_poscnf(self, capsys):
        code, out, _ = run(capsys, "verify", "poscnf", "--count", "40", "--seed", "2")
        assert code == 0

    @pytest.mark.parametrize(
        "kind, n, clauses, width, seed, budget",
        [
            # 1,481 variables: the source search goes 1,421 levels deep and
            # needs 8,850 nodes, the reduced side 8,812
            ("qbf", 1500, 24, 2, 20, 8830),
            # 1,176 variables: the source search goes past 1,000 levels
            # before it counts 1,100 nodes, the reduced side takes 2
            ("poscnf", 1200, 1, 3, 6, 1100),
            ("toy-poscnf", 1200, 1, 3, 6, 1100),
        ],
        ids=["qbf", "poscnf", "toy-poscnf"],
    )
    def test_deep_source_side_exits_3(self, capsys, kind, n, clauses, width, seed, budget):
        code, out, err = run(capsys, "verify", kind, "--vars", str(n), "--clauses", str(clauses),
                             "--width", str(width), "--count", "1", "--seed", str(seed),
                             "--budget", str(budget))
        assert code == 3
        assert out == ""
        assert err == f"error: node budget of {budget} exceeded\n"
        # the instance verify draws: the reduced side alone stays in the
        # budget, so the source side is the one that ran out
        draw, encode = {
            "qbf": (random_cnf, qbf_cnf_to_either_local_same),
            "poscnf": (random_positive_cnf, positive_cnf_to_bpad),
            "toy-poscnf": (random_positive_cnf, toy_positive_to_ead),
        }[kind]
        rng = random.Random(seed)
        cnf = draw(rng, rng.randint(1, n), rng.randint(1, clauses), width)
        assert solve(encode(cnf), budget, line=False).nodes <= budget

    def test_qbf_with_few_clauses_stays_small(self, capsys):
        # up to 30 variables and 6 clauses: most variables occur in no
        # clause, and the reduced side merges the residuals they leave
        code, out, _ = run(capsys, "verify", "qbf", "--count", "200", "--vars", "30",
                           "--clauses", "6", "--seed", "22", "--budget", "1000", "--json")
        assert code == 0
        assert json.loads(out)["agreements"] == 200

    def test_budget_past_c_int_is_accepted(self, capsys):
        # the recursion allowance is capped where the interpreter's limit is
        code, _, _ = run(capsys, "verify", "p2c", "--count", "1", "--budget", "3000000000")
        assert code == 0

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("qbf", "--count", "-3"), "--count"),
            (("snort", "--exhaustive", "--vertices", "-1"), "--vertices"),
            (("p2c", "--vertices", "0"), "--vertices"),
            (("qbf", "--vars", "0"), "--vars"),
            (("poscnf", "--clauses", "0"), "--clauses"),
            (("p2c", "--count", "0", "--edge-prob", "5"), "--edge-prob"),
            (("snort", "--exhaustive", "--vertices", "2", "--edge-prob", "7"), "--edge-prob"),
            (("qbf", "--count", "0", "--width", "0"), "--width"),
            (("qbf", "--exhaustive", "--count", "3"), "--exhaustive"),
            # options the kind or mode would ignore
            (("snort", "--exhaustive", "--vertices", "2", "--count", "0"), "--count"),
            (("qbf", "--count", "2", "--vertices", "-5", "--edge-prob", "0.3"), "--vertices"),
            (("p2c", "--exhaustive", "--vertices", "2", "--edge-prob", "0.3"), "--edge-prob"),
            (("poscnf", "--count", "2", "--edge-prob", "0.3"), "--edge-prob"),
            (("snort", "--count", "2", "--vars", "3"), "--vars"),
            (("p2c", "--count", "2", "--clauses", "3"), "--clauses"),
            (("snort", "--count", "2", "--width", "2"), "--width"),
        ],
        ids=["count", "exhaustive-vertices", "sampled-vertices", "vars", "clauses",
             "edge-prob", "exhaustive-edge-prob", "width", "exhaustive-cnf",
             "exhaustive-count", "cnf-vertices", "exhaustive-edge-prob-in-range",
             "cnf-edge-prob", "graph-vars", "graph-clauses", "graph-width"],
    )
    def test_bad_bound_exits_2(self, capsys, argv, option):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert option in err

    @pytest.mark.parametrize("kind, mode, defaults", [
        ("p2c", (), ("--count", "100", "--vertices", "4", "--edge-prob", "0.5")),
        ("snort", ("--exhaustive",), ("--vertices", "4")),
        ("qbf", (), ("--count", "100", "--vars", "5", "--clauses", "6", "--width", "3")),
    ], ids=["sampled-graph", "exhaustive-graph", "cnf"])
    def test_omitted_options_take_their_defaults(self, capsys, kind, mode, defaults):
        omitted = run(capsys, "verify", kind, *mode, "--seed", "3", "--json")
        assert omitted[0] == 0
        assert run(capsys, "verify", kind, *mode, *defaults, "--seed", "3", "--json") == omitted

    def test_help_reads_each_default_from_verify_defaults(self, capsys, monkeypatch):
        defaults = {name: 900 + i for i, name in enumerate(cli.VERIFY_DEFAULTS)}
        monkeypatch.setattr(cli, "VERIFY_DEFAULTS", defaults)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["verify", "-h"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert help_text.count("(default ") == len(defaults)
        for value in defaults.values():
            assert f"(default {value})" in help_text

    def test_disagreement_exits_5(self, capsys, monkeypatch):
        lying = Outcome(winner=Player.P1)
        truthful = Outcome(winner=Player.P2)

        def fake_check(graph, first_player=Player.P1, node_budget=0):
            return ReductionCheck(lying, truthful)

        monkeypatch.setattr(cli, "check_snort", fake_check)
        code, out, err = run(capsys, "verify", "snort", "--count", "3", "--seed", "0",
                             "--vertices", "3")
        assert code == 5
        assert "DISAGREEMENT" in err
        assert "source winner P1" in err

    @pytest.fixture
    def formatted(self, monkeypatch):
        """Every instance `verify` renders as DIMACS or graph text."""
        seen = []
        to_dimacs, format_graph = Cnf.to_dimacs, cli.format_graph

        def counting_to_dimacs(cnf, comment=""):
            seen.append(cnf)
            return to_dimacs(cnf, comment)

        def counting_format_graph(graph):
            seen.append(graph)
            return format_graph(graph)

        monkeypatch.setattr(Cnf, "to_dimacs", counting_to_dimacs)
        monkeypatch.setattr(cli, "format_graph", counting_format_graph)
        return seen

    @pytest.mark.parametrize("kind", ["snort", "p2c", "qbf", "poscnf", "toy-poscnf"])
    def test_agreeing_instances_are_not_formatted(self, capsys, formatted, kind):
        code, out, _ = run(capsys, "verify", kind, "--count", "50", "--seed", "4")
        assert code == 0
        assert "checked 50 instance(s): 50 agree" in out
        assert formatted == []

    def test_only_the_counterexample_is_formatted(self, capsys, monkeypatch, formatted):
        checked = []

        def lying_on_the_third(cnf, node_budget=0):
            checked.append(cnf)
            reduced = Outcome(Player.P2 if len(checked) == 3 else Player.P1)
            return ReductionCheck(Outcome(Player.P1), reduced)

        monkeypatch.setattr(cli, "check_positive_cnf", lying_on_the_third)
        code, out, err = run(capsys, "verify", "poscnf", "--count", "50", "--seed", "4")
        assert code == 5
        assert out == "checked 3 instance(s): 2 agree\n"
        assert formatted == [checked[2]]
        assert err == (
            "DISAGREEMENT on instance #2:\n"
            + checked[2].to_dimacs()
            + "source winner P1, reduced winner P2\n"
        )


class TestGen:
    def test_formula_deterministic(self, capsys):
        argv = ("gen", "formula", "--vars", "7", "--clauses", "4", "--width", "3",
                "--seed", "1")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert "p cnf 7 4" in out1

    def test_formula_shape(self, capsys):
        code, out, _ = run(capsys, "gen", "formula", "--vars", "7", "--clauses", "4",
                           "--width", "3", "--seed", "9")
        assert code == 0
        from qbfgames.cnf import parse_dimacs

        cnf = parse_dimacs(out)
        assert cnf.n == 7 and len(cnf.clauses) == 4
        assert all(len(c) == 3 for c in cnf.clauses)

    def test_poscnf_positive(self, capsys):
        code, out, _ = run(capsys, "gen", "poscnf", "--vars", "5", "--clauses", "6",
                           "--seed", "4")
        assert code == 0
        assert "-" not in out.replace("c seed", "")

    def test_graph_output_is_valid(self, capsys, tmp_path):
        out_path = tmp_path / "g.graph"
        code, _, _ = run(capsys, "gen", "graph", "--vertices", "5", "--edge-prob",
                         "0.5", "--seed", "7", "-o", str(out_path))
        assert code == 0
        from qbfgames.reductions import parse_graph

        g = parse_graph(out_path.read_text())
        assert g.n_vertices == 5

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "formula", "--vars", "0", "--clauses", "4")
        assert code == 2
        code, _, _ = run(capsys, "gen", "graph", "--vertices", "3", "--edge-prob", "2.0")
        assert code == 2


class TestPlay:
    def _play(self, capsys, monkeypatch, position_text, stdin_text, *flags, tmp_path):
        path = tmp_path / "play.pos"
        path.write_text(position_text)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        return run(capsys, "play", str(path), *flags)

    def test_stuck_human_loses_immediately(self, capsys, monkeypatch, tmp_path):
        text = "ruleset either local same\nvars 1\nassigned\n(and x0 (not x0))\n"
        code, out, _ = self._play(capsys, monkeypatch, text, "", tmp_path=tmp_path)
        assert code == 0
        assert "you have no legal moves; you lose." in out
        assert "solver wins." in out

    def test_winning_move_wins(self, capsys, monkeypatch, tmp_path):
        text = "ruleset either local different\nvars 1\nassigned\nx0\n"
        code, out, _ = self._play(capsys, monkeypatch, text, "x0 T\n", tmp_path=tmp_path)
        assert code == 0
        assert "you win!" in out

    def test_illegal_input_reprompts(self, capsys, monkeypatch, tmp_path):
        text = "ruleset either anywhere different\nvars 2\nassigned 1=T\nmover 1\n(or x0 x1)\n"
        code, out, _ = self._play(
            capsys, monkeypatch, text, "nonsense\nx1 T\nx0 T\n", tmp_path=tmp_path
        )
        assert code == 0
        assert "could not read that" in out
        assert "illegal move" in out
        assert "occupied" in out

    def test_eof_aborts_with_input_error(self, capsys, monkeypatch, tmp_path):
        text = "ruleset either local different\nvars 1\nassigned\nx0\n"
        code, _, err = self._play(capsys, monkeypatch, text, "", tmp_path=tmp_path)
        assert code == 2
        assert "input closed" in err

    def test_assigned_file_prints_its_fold_once_folded(self, capsys, monkeypatch, tmp_path):
        # the file's assigned variables are folded once, before the first
        # turn; later turns print the fold `apply_move` keeps
        text = (
            "ruleset either anywhere different\nvars 5\nassigned 1=T 3=F\n"
            "(and (or x0 x1 (not x3)) (or (not x1) x2 x4) (or x0 (not x2) x3) (or (not x0) x4))\n"
        )
        folds = []
        monkeypatch.setattr(cli, "simplify", lambda f, a: folds.append(f) or simplify(f, a))
        code, out, _ = self._play(capsys, monkeypatch, text, "x2 T\nx4 F\n", tmp_path=tmp_path)
        assert code == 0
        assert len(folds) == 1
        prompt = "your move (Even/True), e.g. 'x3 T': "
        assert out == (
            "ruleset: either-anywhere-different\n"
            "you play P1 (Even/True)\n"
            "formula: (and (or x2 x4) (or x0 (not x2)) (or (not x0) x4))\n"
            f"{prompt}formula: (and x0 (or (not x0) x4))\n"
            "solver plays x0=F\n"
            "formula: false\n"
            f"{prompt}formula: false\n"
            "winner: P2 (Odd/False)\n"
            "solver wins.\n"
        )

    def test_solver_keeps_winning_position(self, capsys, monkeypatch, tmp_path):
        # solver moves first on a formula it can always win; after its printed
        # move the position must still be winning for it
        text = f"ruleset either local different\nvars {SAMPLE_VARS}\nassigned\n{SAMPLE_TEXT}\n"
        code, out, _ = self._play(
            capsys, monkeypatch, text,
            "x1 T\nx3 F\nx5 F\n",
            "--human", "2", tmp_path=tmp_path,
        )
        assert code == 0
        first = next(line for line in out.splitlines() if line.startswith("solver plays"))
        move_text = first.split()[-1]
        var, value = move_text.split("=")
        position = parse_position(text)
        baseline = solve(position).winner
        after = apply_move(position, (int(var[1:]), value == "T"))
        assert solve(after).winner is baseline
        assert f"winner: {baseline.name}" in out