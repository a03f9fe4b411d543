#!/usr/bin/env python3
"""Run one command and print its wall time, peak RSS and exit status as one
JSON line.

    python3 perfbench/launch.py --timeout 60 --stderr err.txt -- python3 -m champagne ...

run.py starts every measured child through this launcher, which imports only
the standard library.  At exec, Linux copies the old address space's RSS
high-water mark into the child's ``ru_maxrss``, so a child started straight
from run.py, which holds numpy, scipy and the loaded outputs, would report at
least run.py's own peak.  run.py also starts ``python3 -c pass`` this way
and reports its peak RSS as ``rss_floor_mb``, the floor that any child's
figure includes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import threading
import time


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--timeout", type=float, required=True, help="kill the child after this")
    p.add_argument("--stderr", help="file for the child's standard error")
    p.add_argument("argv", nargs="+")
    args = p.parse_args()

    err = open(args.stderr, "wb") if args.stderr else subprocess.DEVNULL
    t0 = time.perf_counter()
    proc = subprocess.Popen(args.argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(args.timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "status": proc.returncode,
    }))


if __name__ == "__main__":
    main()
