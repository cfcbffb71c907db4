"""Benchmark of the qbfgames command line, one closed-loop client.

    python3 perfbench/run.py --workload search-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is run from `src/` there.
Workloads (see workloads.py): search-ladder, big-formula, verify-mix, or
`all` to run each in turn.

With `--trace 0` every invocation is a child process (`python -m
qbfgames.cli ...`), run one at a time, and whole passes over the workload
repeat until `--seconds` is used up.  A fixed solve by the benchmark's own
reference solver (HostReference) is timed in this process between
consecutive invocations.  An invocation's relative time is its own time
divided by the mean of the reference times just before and just after it:
the host's speed, which drifts by up to twice over seconds to minutes on a
shared machine, largely cancels out.  The end-to-end metrics are:

  setup_s          median wall time of the CLI solving a one-variable
                   position, three times before each pass
  wall_rel         relative wall time of one pass: the sum, over the pass's
                   invocations, of each one's median relative wall time over
                   the run's passes
  cpu_rel          the same sum for child user+sys time over the reference's
                   CPU time
  verdict_p50_rel  median over the pass's invocations of their median
                   relative wall time
  peak_rss_mb      largest peak RSS of any child

The same figures in seconds (wall_s, cpu_s, verdict_p50_s: each
invocation's fastest repeat) are printed and recorded but not gated.

With `--trace 1` the same invocations run in this process through
`qbfgames.cli.main`, once untraced, once with per-layer spans (see
layers.py) and once with every `solve` handed a counting memo that is
sized when `solve` returns.  The per-layer metrics come from those passes;
this fixed sequence takes the place of `--seconds`.

Every invocation's verdict is checked against an independent reference;
a wrong verdict, a non-zero exit or a timeout counts as failed.  Progress
lines go to stdout and the last line is one JSON object.  The full record,
one row per invocation, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from children import InProcessRunner, ProcessRunner  # noqa: E402
from layers import LAYERS, MemoProbe, Patches, Tracer  # noqa: E402
from instances import instance_rng, position_text, random_3cnf  # noqa: E402
from reference import reference_winner  # noqa: E402
from workloads import WORKLOADS, expect_winner, invoke  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "x",
    "cpu_rel": "x",
    "verdict_p50_rel": "x",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict:
    units = {"calls": "count", "self_s": "s"}
    metrics = {"cli.import_s": "s"}
    for fn in ("parse_formula", "simplify", "substitute", "blatantly_false", "evaluate", "to_text"):
        metrics.update({f"formula.{fn}.{kind}": unit for kind, unit in units.items()})
    for fn in ("to_formula", "to_dimacs", "parse_dimacs"):
        metrics[f"cnf.{fn}.self_s"] = "s"
    for fn in ("parse_position", "parse_trace", "format_position", "replay"):
        metrics[f"engine.{fn}.self_s"] = "s"
    for fn in ("legal_moves", "apply_move", "Position.initial"):
        metrics.update({f"engine.{fn}.{kind}": unit for kind, unit in units.items()})
    metrics.update({
        "solver.solve.calls": "count",
        "solver.solve.self_s": "s",
        "solver.solve.nodes": "count",
        "solver.solve.nodes_per_s": "1/s",
        "solver.solve.memo_entries": "count",
        "solver.solve.memo_hit_ratio": "ratio",
        "solver.solve.memo_bytes_per_entry": "B",
        "solver.solve_abstract.calls": "count",
        "solver.solve_abstract.self_s": "s",
        "solver.solve_abstract.nodes": "count",
        "reductions.check.calls": "count",
        "reductions.check.self_s": "s",
        "reductions.encode.self_s": "s",
        "reductions.source_game.self_s": "s",
        "generators.self_s": "s",
        "trace.overhead_s": "s",
    })
    return metrics


PER_LAYER = _per_layer()
SETUP_PER_PASS = 3
IMPORT_REPEATS = 5


def host_ref_s() -> float:
    """A fixed pure-Python loop that never touches qbfgames: host drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


class HostReference:
    """A fixed solve by reference.py, the yardstick for the host's speed.

    On the shared machine the benchmark was built on, the program's times
    drift by up to twice, over seconds to minutes, with the load other
    tenants put on the host.  A plain arithmetic loop (host_ref_s) barely
    sees that drift; this solve, which like the program builds a large
    memo of tuples and dicts in pure Python, slows down with it.  Timed
    alternately with the program for 60 s, in-process, the program's times
    spread by 0.37 of their median and the ratio of the two by 0.08.  The
    instance does not depend on the seed and nothing here uses `qbfgames`,
    so a change to the program cannot change the yardstick.
    """

    RULESET = "by-player-anywhere-same"
    N = 12  # about 0.12 s on the machine it was sized on

    def __init__(self):
        rng = instance_rng(0, "host-reference", self.RULESET, self.N)
        self.clauses = random_3cnf(rng, self.N, 2 * self.N)

    def time(self) -> tuple:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_winner(self.RULESET, self.N, self.clauses)
        return time.perf_counter() - wall, time.process_time() - cpu


class ReferencedRunner:
    """Times the host reference between consecutive invocations of a pass,
    and hands each invocation the mean of the reference times around it."""

    def __init__(self, runner, reference: HostReference):
        self.runner = runner
        self.reference = reference
        self.before = None

    def start_pass(self):
        self.before = self.reference.time()

    def run(self, argv):
        run = self.runner.run(argv)
        after = self.reference.time()
        run.ref_wall_s = (self.before[0] + after[0]) / 2
        run.ref_cpu_s = (self.before[1] + after[1]) / 2
        self.before = after
        return run


class SetupProbe:
    """The CLI solving a one-variable position: interpreter start, package
    import and argument parsing, with next to no search."""

    def __init__(self, runner, work_dir: str):
        clauses = [((0, False),)]
        self.runner = runner
        self.path = os.path.join(work_dir, "one-variable.pos")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(position_text("either-local-different", 1, clauses))
        self.check = expect_winner(reference_winner("either-local-different", 1, clauses)[0])

    def run(self, times: int) -> list:
        return [
            invoke(self.runner, "setup one-variable solve", ["solve", self.path, "--json"], self.check)
            for _ in range(times)
        ]


def _ratio(value: float, ref: float) -> float:
    return value / ref if ref else 0.0


def per_invocation(passes: list) -> list:
    """Per invocation: its median relative wall and CPU time over all
    passes, and its fastest wall and CPU time in seconds."""
    return [
        (
            statistics.median(_ratio(row.wall_s, row.ref_wall_s) for row in same),
            statistics.median(_ratio(row.cpu_s, row.ref_cpu_s) for row in same),
            min(row.wall_s for row in same),
            min(row.cpu_s for row in same),
        )
        for same in zip(*passes)
    ]


def pinned_to_one_cpu():
    """Pin this process, and so the spawner and every child, to one CPU, so
    that the host reference and the child it brackets see the same CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def timed_run(workload, seconds: float, work_dir: str) -> dict:
    allowed = pinned_to_one_cpu()
    try:
        reference = HostReference()
        with ProcessRunner(SRC, work_dir) as runner:
            referenced = ReferencedRunner(runner, reference)
            setup = SetupProbe(runner, work_dir)
            warmup = setup.run(1)
            reference.time()  # warm-up
            setup_rows, passes, host = [], [], []
            start = time.perf_counter()
            while True:
                host.append(host_ref_s())
                setup_rows += setup.run(SETUP_PER_PASS)
                referenced.start_pass()
                passes.append(workload.run_pass(referenced))
                elapsed = time.perf_counter() - start
                if elapsed / len(passes) * (len(passes) + 1) > seconds:
                    break
    finally:
        os.sched_setaffinity(0, allowed)
    rows = [row for rows in passes for row in rows]
    each = per_invocation(passes)
    metrics = {
        "setup_s": statistics.median(row.wall_s for row in setup_rows),
        "wall_rel": sum(wall for wall, _, _, _ in each),
        "cpu_rel": sum(cpu for _, cpu, _, _ in each),
        "verdict_p50_rel": statistics.median(wall for wall, _, _, _ in each),
        "peak_rss_mb": max(row.rss_mb for row in rows),
    }
    seconds_metrics = {
        "wall_s": sum(wall for _, _, wall, _ in each),
        "cpu_s": sum(cpu for _, _, _, cpu in each),
        "verdict_p50_s": statistics.median(wall for _, _, wall, _ in each),
    }
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "in_seconds": seconds_metrics,
        "rows": warmup + setup_rows + rows,
        "host_ref_s": host,
        "samples": {
            "passes": len(passes), "invocations": len(rows), "setup": len(setup_rows),
        },
        "passes": [[row.as_dict() for row in rows] for rows in passes],
        "setup": [row.as_dict() for row in warmup + setup_rows],
    }


def measure_import() -> float:
    code = "import time; t = time.perf_counter(); import qbfgames.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


class TracedRunner:
    """Makes each invocation the root span of the tracer."""

    def __init__(self, runner, tracer):
        self.runner = runner
        self.tracer = tracer

    def run(self, argv):
        label = " ".join(os.path.basename(arg) for arg in argv[:2])
        return self.tracer.invocation(label, lambda: self.runner.run(argv))


def traced_run(workload) -> dict:
    import_s = measure_import()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    runner = InProcessRunner()
    host = [host_ref_s()]
    plain_rows = workload.run_pass(runner)

    tracer = Tracer()
    with Patches() as patches:
        tracer.install(patches)
        traced_rows = workload.run_pass(TracedRunner(runner, tracer))
        missing = list(patches.missing)

    counter = MemoProbe()
    with Patches() as patches:
        counter.install(patches)
        memo_rows = workload.run_pass(runner)

    values = {"cli.import_s": import_s}
    for layer in LAYERS:
        values[f"{layer}.calls"] = tracer.calls[layer]
        values[f"{layer}.self_s"] = tracer.self_s[layer]
    solve_s = tracer.total_s["solver.solve"]
    values.update({
        "solver.solve.nodes": tracer.nodes["solver.solve"],
        "solver.solve.nodes_per_s": tracer.nodes["solver.solve"] / solve_s if solve_s else 0.0,
        "solver.solve.memo_entries": counter.entries,
        "solver.solve.memo_hit_ratio": counter.hits / counter.lookups if counter.lookups else 0.0,
        "solver.solve.memo_bytes_per_entry": counter.bytes / counter.entries if counter.entries else 0.0,
        "solver.solve_abstract.nodes": tracer.nodes["solver.solve_abstract"],
        "trace.overhead_s": sum(r.wall_s for r in traced_rows) - sum(r.wall_s for r in plain_rows),
    })
    rows = plain_rows + traced_rows + memo_rows
    return {
        "metrics": {name: values[name] for name in PER_LAYER},
        "units": PER_LAYER,
        "rows": rows,
        "host_ref_s": host,
        "samples": {"invocations": len(rows)},
        "passes": [[row.as_dict() for row in part]
                   for part in (plain_rows, traced_rows, memo_rows)],
        "layer_totals_s": dict(tracer.total_s),
        "missing_targets": missing,
        "memo_probe_unsupported": counter.unsupported,
        "spans": tracer.spans,
    }


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def summarize(rows: list) -> dict:
    """Failure accounting: a non-zero exit, a timeout or a wrong verdict."""
    failures = [(row.name, row.failure) for row in rows if row.failure]
    return {
        "attempted": len(rows),
        "failed": len(failures),
        "failed_frac": len(failures) / len(rows),
        "failures": failures,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work_dir)
        result = traced_run(workload) if trace else timed_run(workload, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(summarize(result.pop("rows")))
    result.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **workload.describe(),
    })
    record = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    result["record"] = os.path.relpath(record, ROOT)
    return result


def report(result: dict):
    name = result["workload"]
    samples = ", ".join(f"{key} {value}" for key, value in result["samples"].items())
    print(f"{name}: seed {result['seed']}, {samples}, host_ref_s "
          f"{statistics.median(result['host_ref_s']):.4f}, record {result['record']}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:36} {value:>14.6g} {result['units'][metric]}")
    for metric, value in result.get("in_seconds", {}).items():
        print(f"  {metric:36} {value:>14.6g} s (not gated)")
    print(f"  {'failed_frac':36} {result['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']})")
    for label, why in result["failures"][:10]:
        print(f"  FAILED {label}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbfgames", "cli.py")):
        print(f"error: no qbfgames sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        results.append(result)
    if len(results) == 1:
        metrics = {
            metric: {"value": value, "unit": results[0]["units"][metric]}
            for metric, value in results[0]["metrics"].items()
        }
    else:
        metrics = {
            f"{r['workload']}/{metric}": {"value": value, "unit": r["units"][metric]}
            for r in results
            for metric, value in r["metrics"].items()
        }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
