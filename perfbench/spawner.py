"""Start one command per request line, one at a time, and report how it ran.

    python3 perfbench/spawner.py TIMEOUT_S

A child's ``ru_maxrss`` counts the resident set of the process that forked
it, so run.py starts this small process before it loads anything and has
it fork every child: the peak each child reports is then its own.

Request line: JSON ``[argv, stdout_path, stderr_path]``.  Reply line: JSON
with the child's start time (``time.perf_counter``, shared by all
processes), wall time, exit code and peak resident set.  A child that
outlives TIMEOUT_S seconds is killed.  The process ends at end of input.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "start": start,
            "wall": wall,
            "returncode": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
