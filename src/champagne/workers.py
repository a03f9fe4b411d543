"""Forked workers: one contiguous block of a range per CPU this process may
use, block 0 run here and each other block in a child made by ``os.fork``.
``BubbleConfig.to_csv`` writes the rows of ``bubbles.csv`` this way and the
simulator runs its trajectories this way; ``_run_blocks`` holds the rules
for forking, reaping, killing and reporting a worker's failure that both
follow.  With one CPU, or where ``os.fork`` is missing, nothing is forked.

Workers are forked, not threads, because two threads sharing the
interpreter lock ran no faster than one; and forked, not spawned by
``multiprocessing``, so that they inherit what the caller has built instead
of rebuilding it.

These helpers sit in a module of their own because, without cached
bytecode, every CLI stage compiles the package, and the largest module's
compilation sets a floor under the stage's peak RSS: inside ``bubbles``
they raised its compilation's peak (``tracemalloc`` over ``compile``) from
1,656 to 1,906 KiB, above ``harness``'s 1,847 KiB, and the W2 ``simulate``
child's peak RSS by about 0.17 MiB.
"""

from __future__ import annotations

import os
import pickle

__all__ = []


def _worker_count() -> int:
    """The CPUs this process may run on, or 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(n: int, unit: int) -> list:
    """The bounds of one contiguous block of range(n) per CPU
    (``_worker_count``), cut at multiples of ``unit``: w + 1 ints from 0 to
    n, with w at least 1 and at most the number of units, ceil(n/unit)."""
    units = -(-n // unit)
    w = max(1, min(units, _worker_count()))
    return [min(n, unit * (units * i // w)) for i in range(w + 1)]


def _run_blocks(bounds, work, name: str) -> list:
    """``work(lo, hi)`` of every block [lo, hi) of ``bounds`` (``_split``),
    in block order: block 0 in this process and each other block in a
    worker forked before block 0 starts.  A worker pickles its value back
    over a pipe and ends with ``os._exit``, so it neither flushes inherited
    buffers nor runs exit hooks.  A worker's exception is raised here as a
    RuntimeError that names the worker, ``f"{name} {lo}..{hi - 1}"``, and
    carries its message; on any exception the workers still running are
    killed, and every worker is reaped before this returns or raises.  No
    other thread of the caller may hold a lock that a worker then needs.
    With one block nothing is forked."""
    workers = []  # (pid, read end of its pipe, name) of the workers not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        out = (True, work(lo, hi))
                    except BaseException as exc:  # reported to the parent, which raises it
                        out = (False, f"{type(exc).__name__}: {exc}")
                    with open(wr, "wb") as f:
                        pickle.dump(out, f, protocol=pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            workers.append((pid, open(r, "rb"), f"{name} {lo}..{hi - 1}"))
        values = [work(bounds[0], bounds[1])]
        while workers:
            pid, pipe, worker = workers[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if code != 0:
                raise RuntimeError(f"{worker} exited with status {code}")
            ok, value = pickle.loads(data)
            if not ok:
                raise RuntimeError(f"{worker} failed: {value}")
            values.append(value)
    finally:
        for pid, pipe, _ in workers:  # left only by an exception
            import signal  # here, not at the top: importing it adds ≈2 ms to every start

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return values
