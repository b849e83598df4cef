"""Fork-parallel map over independent jobs, in which the caller takes a share.

Each job must own everything that makes its result: its inputs and its
random stream.  The results then do not depend on which process ran which
job, and a parallel map returns exactly what the serial loop returns.
"""

from __future__ import annotations

import os
import threading


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _claim(counter, n: int) -> int | None:
    """Next unclaimed job index from the shared counter, or None when done."""
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i if i < n else None


def _child(fn, items, counter, conn) -> None:
    n = len(items)
    while (i := _claim(counter, n)) is not None:
        try:
            conn.send((i, True, fn(items[i])))
        except Exception as exc:
            with counter.get_lock():
                counter.value = n  # no process starts another job
            conn.send((i, False, exc))
            return


def fork_map(fn, items) -> list:
    """``[fn(x) for x in items]``, spread over forked workers and the caller.

    Uses one process per usable CPU (at most one per job), the caller
    included: the caller runs the first job, then every process takes the
    next unclaimed job from a shared counter, so pass the costliest jobs
    first.  Falls back to the serial loop when there is one job or one
    usable CPU, when ``fork`` is unavailable, or when another Python thread
    is alive (forking a threaded process can copy a held lock).  A job's
    exception re-raises here; a worker that dies without reporting raises
    RuntimeError.  No worker outlives the call.
    """
    items = list(items)
    n = len(items)
    n_procs = min(_usable_cpus(), n)
    if n_procs <= 1 or threading.active_count() > 1:
        return [fn(x) for x in items]
    import multiprocessing  # not paid for by serial callers

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 1)  # job 0 is the caller's
    results: dict[int, object] = {}
    procs, conns = [], []
    failed = True
    try:
        for _ in range(n_procs - 1):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(fn, items, counter, writer))
            proc.start()
            writer.close()  # so the reader sees EOF once the child exits
            procs.append(proc)
            conns.append(reader)
        i = 0
        while i is not None:
            results[i] = fn(items[i])
            i = _claim(counter, n)
        for conn in conns:
            while True:
                try:
                    i, ok, value = conn.recv()
                except EOFError:
                    break
                if not ok:
                    raise value
                results[i] = value
        failed = False
    finally:
        for proc in procs:
            if failed:
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()
    missing = sorted(set(range(n)) - results.keys())
    if missing:
        codes = [proc.exitcode for proc in procs]
        raise RuntimeError(f"a worker process died (exit codes {codes}) before "
                           f"reporting job(s) {missing}")
    return [results[i] for i in range(n)]
