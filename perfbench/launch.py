"""Start one process, wait for it, and print its wall time and peak RSS.

    python3 launch.py TIMEOUT_S READY COMMAND...

Prints one JSON object: ``wall_s``, ``ready_s`` (time until the first line
on the command's stdout when READY is 1, else null), ``exit_code``,
``peak_rss_mib`` and ``first_line``.  The command is killed after TIMEOUT_S.

Linux counts a process's peak RSS from the moment it is forked, so a
process started straight from the benchmark, which holds fmgt and its
solves in memory, would report at least the benchmark's own peak.  This
small launcher is the parent instead.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    timeout, ready, command = float(argv[0]), argv[1] == "1", argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE if ready else subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready_s, line = None, ""
        if ready:
            line = proc.stdout.readline().decode()
            ready_s = time.perf_counter() - start
            proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    print(json.dumps({
        "wall_s": wall,
        "ready_s": ready_s,
        "exit_code": proc.returncode,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "first_line": line,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
