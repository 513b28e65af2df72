"""Runs the benchmark's child processes and reports their time and peak RSS.

Linux copies the RSS high-water mark of the address space a process leaves
at exec into that process's rusage, so a child forked from the benchmark,
which holds the fixtures, would report at least the benchmark's own peak.
This process is started before the benchmark allocates anything and stays
small; every measured child is forked from it instead.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "log",
"timeout"}``; one JSON reply per line on stdout, ``{"code", "wall_s",
"rss_mb"}``. The children inherit this process's environment. It exits when
stdin closes.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=log, stderr=subprocess.STDOUT, cwd=request["cwd"]
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
