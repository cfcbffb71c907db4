"""Launches and reaps the benchmark's children, one at a time.

Reads one JSON request per line on stdin, {"argv": [...], "stdout": path,
"stderr": path}, runs it, and answers with one JSON line holding the
child's wall time, user+sys time, peak RSS and exit code.

Children are started from this small process rather than from the
benchmark itself because Linux carries the spawning process's peak RSS into
a child's `ru_maxrss` across `exec`; from here that floor is a few MB, below
any child's own peak.  Reaping with `os.wait4` gives the child's own CPU
time.  A child running past the timeout is killed and reported with the
signal as a negative exit code.
"""

import json
import os
import signal
import sys
import threading
import time


def run(argv: list, stdout: str, stderr: str, timeout: float) -> dict:
    files = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=files)
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        with lock:
            reaped = True
        timer.cancel()
        timer.join()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": os.waitstatus_to_exitcode(status),
    }


def main():
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"], timeout)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
