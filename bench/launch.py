"""Runs the benchmark's commands from a process that stays small.

The kernel starts a child's peak-RSS count from the resident size of the
process that spawned it, so commands spawned by the benchmark itself, which
grows as it checks outputs, would all report at least its size. run.py
starts this launcher before it imports numpy and sends it one JSON request
per line on stdin: {"argv": [...], "log": path, "timeout_s": s}. For each, it
writes one JSON line on stdout: {"rc": exit code or null on timeout,
"wall_s": wall time, "peak_rss_kb": highest peak RSS of any command so far}.
"""
import json
import resource
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "a") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=log, stderr=log, stdin=subprocess.DEVNULL)
            try:
                rc = proc.wait(timeout=req["timeout_s"])
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
            wall = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_kb": peak}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
