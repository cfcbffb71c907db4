"""Checks of the benchmark itself: its reference verdicts, its inputs, its
failure accounting and the metrics it reports.

Run with the program's sources importable, as the repository's tests are:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from children import ProcessRunner  # noqa: E402
from instances import (  # noqa: E402
    RULESETS,
    formula_text,
    instance_rng,
    planted_3cnf,
    position_text,
    random_3cnf,
)
from layers import Patches, Tracer  # noqa: E402
from reference import reference_winner  # noqa: E402

from qbfgames.engine import Position, RulesetConfig  # noqa: E402
from qbfgames.formula import parse_formula  # noqa: E402
from qbfgames.solver import solve_naive  # noqa: E402


def all_clauses(n):
    """Every clause over distinct variables below n, with every sign pattern."""
    out = []
    for k in range(1, n + 1):
        for chosen in itertools.combinations(range(n), k):
            for signs in itertools.product((False, True), repeat=k):
                out.append(tuple(zip(chosen, signs)))
    return out


def small_corpus():
    """Every CNF of at most two clauses over one to three variables."""
    for n in (1, 2, 3):
        clauses = all_clauses(n)
        yield n, []
        for clause in clauses:
            yield n, [clause]
        for pair in itertools.combinations_with_replacement(clauses, 2):
            yield n, list(pair)


def naive_winner(ruleset, n, clauses):
    config = RulesetConfig.from_name(ruleset)
    position = Position.initial(parse_formula(formula_text(clauses), n), n, config)
    return solve_naive(position).winner.value


@pytest.mark.parametrize("ruleset", RULESETS)
def test_reference_matches_naive_solver_on_exhaustive_corpus(ruleset):
    for n, clauses in small_corpus():
        assert reference_winner(ruleset, n, clauses)[0] == naive_winner(ruleset, n, clauses), (
            n, clauses,
        )


@pytest.mark.parametrize("ruleset", RULESETS)
def test_reference_matches_naive_solver_on_random_3cnf(ruleset):
    for n in (4, 5):
        for j in range(8):
            clauses = random_3cnf(instance_rng(0, ruleset, n, j), n, 2 * n)
            assert reference_winner(ruleset, n, clauses)[0] == naive_winner(ruleset, n, clauses)


def test_inputs_follow_the_seed():
    a = random_3cnf(instance_rng(5, "x"), 12, 24)
    assert a == random_3cnf(instance_rng(5, "x"), 12, 24)
    assert a != random_3cnf(instance_rng(6, "x"), 12, 24)


def test_planted_clauses_hold_under_the_alternating_line():
    clauses = planted_3cnf(instance_rng(1, "planted"), 40, 80)
    assert len(clauses) == 80
    line = {var: var % 2 == 0 for var in range(40)}
    assert all(any(line[var] != negated for var, negated in clause) for clause in clauses)
    for ruleset in ("by-player-local-different", "by-player-local-same"):
        assert reference_winner(ruleset, 40, clauses)[1] == 41  # every move is played


@pytest.fixture
def runner(tmp_path):
    with ProcessRunner(run.SRC, str(tmp_path)) as process_runner:
        yield process_runner


def test_wrong_verdict_and_bad_exit_count_as_failed(runner, tmp_path):
    good = tmp_path / "one.pos"
    good.write_text(position_text("either-local-different", 1, [((0, False),)]))
    bad = tmp_path / "bad.pos"
    bad.write_text("ruleset nonsense\n")
    right = workloads.invoke(runner, "right", ["solve", str(good), "--json"],
                             workloads.expect_winner(1))
    wrong = workloads.invoke(runner, "wrong", ["solve", str(good), "--json"],
                             workloads.expect_winner(2))
    broken = workloads.invoke(runner, "broken", ["solve", str(bad), "--json"],
                              workloads.expect_winner(1))
    assert right.failure is None and right.winner == "P1" and right.rss_mb > 0
    assert wrong.failure is not None
    assert broken.code == 2 and broken.failure is not None
    summary = run.summarize([right, wrong, broken])
    assert summary["attempted"] == 3
    assert summary["failed"] == 2
    assert summary["failed_frac"] == pytest.approx(2 / 3)


def test_self_time_excludes_child_spans():
    module = types.ModuleType("perfbench_fake_layers")

    def inner():
        return sum(range(20000))

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    tracer = Tracer()
    try:
        with Patches() as patches:
            patches.install(f"{module.__name__}:inner", tracer.wrapper_for("inner"))
            patches.install(f"{module.__name__}:outer", tracer.wrapper_for("outer"))
            tracer.invocation("call", module.outer)
    finally:
        del sys.modules[module.__name__]
    assert module.inner is inner
    assert tracer.calls["inner"] == 2 and tracer.calls["outer"] == 1
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"]
    )
    assert [span[1] for span in tracer.spans] == ["outer", "call"]


@pytest.fixture
def small_big_formula(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.BigFormula, "N", 30)
    return workloads.BigFormula(3, str(tmp_path))


def test_timed_run_reports_every_end_to_end_metric(small_big_formula, tmp_path):
    result = run.timed_run(small_big_formula, 0, str(tmp_path))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in result["metrics"].values())
    assert run.summarize(result["rows"])["failed"] == 0


def test_traced_run_reports_every_per_layer_metric(small_big_formula):
    result = run.traced_run(small_big_formula)
    metrics = result["metrics"]
    assert list(metrics) == list(run.PER_LAYER)
    assert result["missing_targets"] == []
    assert run.summarize(result["rows"])["failed"] == 0
    for name in ("formula.parse_formula.calls", "engine.apply_move.calls",
                 "solver.solve.nodes", "solver.solve.memo_entries", "engine.replay.self_s",
                 "solver.solve.memo_bytes_per_entry", "cnf.parse_dimacs.self_s"):
        assert metrics[name] > 0, name


def test_benchmark_json_matches_the_script():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
