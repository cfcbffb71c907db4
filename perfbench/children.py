"""Running one CLI invocation at a time, as a child process or in-process.

Both runners return a `Run` with the invocation's wall time, exit code and
standard output.  The process runner's children are started and reaped by
spawner.py, which also reports each child's own CPU time and peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
# A child still running after this long is killed and counted as failed.
TIMEOUT_S = 60.0


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    # the host reference solve's wall and CPU time around this invocation
    # (see run.HostReference); None where it was not timed
    ref_wall_s: float | None = None
    ref_cpu_s: float | None = None


class ProcessRunner:
    """Runs `python -m qbfgames.cli ...` against the checkout's sources."""

    def __init__(self, src_dir: str, work_dir: str):
        self.out_path = os.path.join(work_dir, "child.out")
        self.err_path = os.path.join(work_dir, "child.err")
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py"), str(TIMEOUT_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src_dir),
        )

    def run(self, argv: list) -> Run:
        request = {
            "argv": [sys.executable, "-m", "qbfgames.cli", *argv],
            "stdout": self.out_path,
            "stderr": self.err_path,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the child-process spawner exited")
        reply = json.loads(line)
        with open(self.out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        return Run(reply["wall_s"], reply["cpu_s"], reply["rss_mb"], reply["code"], stdout)

    def close(self):
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class InProcessRunner:
    """Calls `qbfgames.cli.main(argv)` in this process, capturing its output."""

    def __init__(self):
        from qbfgames import cli

        self.main = cli.main

    def run(self, argv: list) -> Run:
        out = io.StringIO()
        start = time.perf_counter()
        cpu = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is exit 1 in a real process
                code = 1
        wall = time.perf_counter() - start
        return Run(wall, time.process_time() - cpu, 0.0, code, out.getvalue())
