"""Run one command and record its exit code, wall time and resource usage.

    python3 perfbench/launch.py RESULT_JSON TIMEOUT_S CMD ARG...

The benchmark starts every operation through this small process.  Linux
carries the peak RSS of the process that starts a program into that
program's ``ru_maxrss``, and the benchmark process itself holds numpy and the
parsed outputs; started from here, an operation's ``ru_maxrss`` is its own.
The command inherits stdin, stdout and stderr.  It is killed after
TIMEOUT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    result_path, timeout, cmd = argv[0], float(argv[1]), argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as fh:
        json.dump({"exit": proc.returncode, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
