"""The three workloads: their seeded inputs, invocations and output checks.

A workload is built once per run from the seed (inputs written, reference
verdicts computed) and then replays the same pass of CLI invocations, one
at a time, as often as the run allows.  Each invocation's output is checked
against the reference, and a `Row` records what it cost and what it said.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

from instances import (
    dimacs_text,
    digest,
    instance_rng,
    planted_3cnf,
    position_text,
    random_3cnf,
    trace_text,
)
from reference import EffortLimitExceeded, reference_winner


@dataclass
class Row:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    winner: str | None = None
    nodes: int | None = None
    failure: str | None = None  # why the invocation counts as failed
    ref_wall_s: float | None = None  # the host reference around it, if timed
    ref_cpu_s: float | None = None

    def as_dict(self):
        return asdict(self)


def _player(winner: int) -> str:
    return f"P{winner}"


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def invoke(runner, name: str, argv: list, check) -> Row:
    """Run one invocation and apply `check(payload, row)` to its JSON output.

    `check` sets row fields and returns a failure reason or None.  A non-zero
    exit, unreadable output or a failed check marks the row failed.
    """
    run = runner.run(argv)
    row = Row(name, run.wall_s, run.cpu_s, run.rss_mb, run.code,
              ref_wall_s=run.ref_wall_s, ref_cpu_s=run.ref_cpu_s)
    if run.code != 0:
        row.failure = f"exit code {run.code}"
        return row
    try:
        row.failure = check(_last_json(run.stdout), row)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        row.failure = f"unreadable output: {exc!r}"
    return row


def skipped(name: str, reason: str) -> Row:
    """A row for an invocation that could not be made; it counts as failed."""
    return Row(name, 0.0, 0.0, 0.0, -1, failure=reason)


def expect_winner(expected: int, sink: dict | None = None):
    """Check for `solve --json`: the reported winner must be the reference's."""

    def check(payload, row):
        row.winner = payload["winner"]
        row.nodes = int(payload["nodes"])
        if sink is not None:
            sink["pv"] = payload["pv"]
        if row.winner != _player(expected):
            return f"winner {row.winner}, reference {_player(expected)}"
        return None

    return check


def expect_replay(expected: int):
    """Check for `replay --json`: no illegal move and the reference winner."""

    def check(payload, row):
        row.winner = payload["winner"]
        row.nodes = len(payload["steps"])
        if payload["illegal"] is not None:
            return f"illegal move {payload['illegal']}"
        if row.winner != _player(expected):
            return f"replay winner {row.winner}, reference {_player(expected)}"
        return None

    return check


def expect_verify(checked: int):
    """Check for `verify --json`: every instance agrees, none is skipped."""

    def check(payload, row):
        row.nodes = payload["checked"]
        if payload["agreements"] != payload["checked"]:
            return f"{payload['checked'] - payload['agreements']} disagreement(s)"
        if payload["checked"] != checked:
            return f"checked {payload['checked']} instance(s), expected {checked}"
        return None

    return check


def parse_pv(pv: list) -> list:
    """["x3=T", ...] -> [(3, True), ...]"""
    moves = []
    for token in pv:
        var, _, value = token.partition("=")
        moves.append((int(var[1:]), value == "T"))
    return moves


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.inputs = {}  # file name -> digest

    def write(self, file_name: str, text: str) -> str:
        path = os.path.join(self.work_dir, file_name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.inputs[file_name] = digest(text)
        return path

    def run_pass(self, runner) -> list:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"inputs": self.inputs}


class SearchLadder(Workload):
    """Seeded random 3-CNF (2n clauses) under the six rulesets that branch.

    Within a ruleset, search effort varies several-fold between random
    instances of one size, which would make a pass's cost depend on the seed
    more than on the program.  Each instance is therefore the one, among
    CANDIDATES seeded draws, whose reference search effort is closest to a
    fixed target (the median over 40 calibration draws).  The reference is
    independent of the program, so a change to the program cannot change
    which instances are drawn.
    """

    name = "search-ladder"
    # ruleset -> ((n, target reference effort), ...)
    LADDER = {
        "either-anywhere-same": ((9, 19400), (10, 49000)),
        "either-anywhere-different": ((10, 22600), (11, 51000)),
        "by-player-anywhere-same": ((12, 73000), (13, 182000)),
        "by-player-anywhere-different": ((13, 27700), (14, 56000)),
        "either-local-different": ((28, 23500), (30, 40000)),
        "either-local-same": ((30, 128000), (32, 226000)),
    }
    PER_SIZE = 1
    CANDIDATES = 8
    EFFORT_LIMIT = 4  # candidates beyond this multiple of the target are dropped

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.slots = []  # (label, path, expected winner)
        for ruleset, sizes in self.LADDER.items():
            for n, target in sizes:
                for j in range(self.PER_SIZE):
                    clauses, winner = self.pick(ruleset, n, j, target)
                    label = f"{ruleset}-n{n}-{j}"
                    path = self.write(f"{label}.pos", position_text(ruleset, n, clauses))
                    self.slots.append((label, path, winner))

    def pick(self, ruleset: str, n: int, j: int, target: int):
        best = None
        for c in range(self.CANDIDATES):
            rng = instance_rng(self.seed, self.name, ruleset, n, j, c)
            clauses = random_3cnf(rng, n, 2 * n)
            try:
                winner, effort = reference_winner(
                    ruleset, n, clauses, effort_limit=self.EFFORT_LIMIT * target
                )
            except EffortLimitExceeded:
                continue
            distance = abs(math.log(max(effort, 1) / target))
            if best is None or distance < best[0]:
                best = (distance, clauses, winner)
        if best is None:  # every draw was far too hard: take the first
            rng = instance_rng(self.seed, self.name, ruleset, n, j, 0)
            clauses = random_3cnf(rng, n, 2 * n)
            return clauses, reference_winner(ruleset, n, clauses)[0]
        return best[1], best[2]

    def run_pass(self, runner) -> list:
        return [
            invoke(runner, f"solve {label}", ["solve", path, "--json"], expect_winner(winner))
            for label, path, winner in self.slots
        ]


class BigFormula(Workload):
    """One large 3-CNF through reduce, solve and replay.

    The clauses are drawn so that none is false under the alternating line
    x0=T, x1=F, ... that both by-player-local rulesets play, so both games
    run all N moves and a pass costs the same whatever the seed.
    """

    name = "big-formula"
    N = 400

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        n = self.N
        clauses = planted_3cnf(instance_rng(seed, self.name), n, 2 * n)
        self.cnf_path = self.write("big.cnf", dimacs_text(n, clauses))
        self.reduced_path = os.path.join(work_dir, "big-reduced.pos")
        self.games = []  # (ruleset, position text, path, expected winner)
        for ruleset in ("by-player-local-different", "by-player-local-same"):
            text = position_text(ruleset, n, clauses)
            path = self.write(f"big-{ruleset}.pos", text)
            self.games.append((ruleset, text, path, reference_winner(ruleset, n, clauses)[0]))
        # the padded reduction's extra variables occur only in false gadgets,
        # so under by-player-local-different it keeps the unpadded winner
        self.reduced_winner = self.games[0][3]

    def run_pass(self, runner) -> list:
        if os.path.exists(self.reduced_path):
            os.remove(self.reduced_path)
        rows = [
            invoke(
                runner, "reduce qbf", ["reduce", "qbf", self.cnf_path, "-o", self.reduced_path],
                lambda payload, row: None,
            ),
        ]
        if rows[0].failure is None and not os.path.exists(self.reduced_path):
            rows[0].failure = "reduce wrote no output file"
        rows.append(invoke(
            runner, "solve reduced by-player-local-different",
            ["solve", self.reduced_path, "--ruleset", "by-player-local-different", "--json"],
            expect_winner(self.reduced_winner),
        ))
        traces = []
        for ruleset, text, path, winner in self.games:
            sink = {}
            rows.append(invoke(
                runner, f"solve {ruleset}", ["solve", path, "--json"], expect_winner(winner, sink)
            ))
            traces.append((ruleset, text, winner, sink.get("pv")))
        for ruleset, text, winner, pv in traces:
            name = f"replay {ruleset}"
            if pv is None:
                rows.append(skipped(name, "no principal variation to replay"))
                continue
            trace_path = os.path.join(self.work_dir, f"big-{ruleset}.trace")
            with open(trace_path, "w", encoding="utf-8") as handle:
                handle.write(trace_text(text, parse_pv(pv)))
            rows.append(invoke(runner, name, ["replay", trace_path, "--json"], expect_replay(winner)))
        return rows


class VerifyMix(Workload):
    """The five `verify` kinds, as nine invocations of under half a second.

    The sampled kinds check many small instances rather than fewer larger
    ones: their cost is dominated by the instances with the most variables,
    and many of them keep a pass's cost steady across seeds.  Each is split
    over two `--seed` values so that no invocation runs long; short
    invocations repeated often give the steadiest per-invocation medians.

    Instances come from the program's own `--seed` generation, so the
    `checked` counts are recorded to make a generation change visible.
    """

    name = "verify-mix"
    # (kind, extra arguments, invocations); each sampled invocation gets its own --seed
    KINDS = (
        ("snort", ["--exhaustive", "--vertices", "5"], 1),
        ("p2c", ["--count", "400", "--vertices", "5"], 2),
        ("qbf", ["--count", "600", "--vars", "10", "--clauses", "14"], 2),
        ("poscnf", ["--count", "600", "--vars", "7", "--clauses", "9"], 2),
        ("toy-poscnf", ["--count", "600", "--vars", "6", "--clauses", "8"], 2),
    )
    # graphs on 0..5 labelled vertices: sum of 2^C(v, 2)
    EXHAUSTIVE_GRAPHS = sum(2 ** (v * (v - 1) // 2) for v in range(6))

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.calls = []  # (label, argv, expected checked count)
        for kind, extra, copies in self.KINDS:
            for copy in range(copies):
                argv = ["verify", kind, *extra, "--json"]
                if "--exhaustive" in extra:
                    expected = self.EXHAUSTIVE_GRAPHS
                else:
                    argv += ["--seed", str(seed * 100 + len(self.calls))]
                    expected = int(extra[extra.index("--count") + 1])
                self.calls.append((f"{kind} #{copy}", argv, expected))

    def run_pass(self, runner) -> list:
        return [
            invoke(runner, f"verify {label}", argv, expect_verify(expected))
            for label, argv, expected in self.calls
        ]

    def describe(self) -> dict:
        return {"inputs": self.inputs, "verify": [argv for _, argv, _ in self.calls]}


WORKLOADS = {cls.name: cls for cls in (SearchLadder, BigFormula, VerifyMix)}
