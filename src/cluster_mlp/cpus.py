"""The CPU budget of concurrent work.

A call may keep `budget()` threads busy, its own included. On a thread of
its own that is the number of CPUs the process may run on. A worker of
`map_widest_first` gets an equal share of its caller's budget, one when the
map fills the CPUs, so work that fans out again inside it (the objective
of one training) never runs more busy threads than there are CPUs.
"""

from __future__ import annotations

import os
import threading

_local = threading.local()


def budget() -> int:
    """Threads the calling thread may keep busy, itself included."""
    share = getattr(_local, "share", None)
    if share is not None:
        return share
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def map_widest_first(fn, widths: list[int]) -> tuple[list, int]:
    """([fn(w) for w in widths], thread count) for sorted widths. The calls
    run last (widest) first on min(len(widths), budget()) threads, the
    caller one of them; each thread takes the next width from a shared
    queue, and each sees a budget of budget() // threads. Every call runs,
    then the exception of the first failing width is raised. An exception
    escaping the caller's own share (an interrupt) stops the helpers from
    taking new widths; they are joined before it propagates."""
    results = [None] * len(widths)
    failures = {}
    pending = iter(range(len(widths) - 1, -1, -1))
    lock = threading.Lock()
    stop = threading.Event()
    cpus = budget()
    threads = min(len(widths), cpus)
    share = cpus // max(threads, 1)

    def work():
        saved = getattr(_local, "share", None)
        _local.share = share
        try:
            while not stop.is_set():
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                try:
                    results[i] = fn(widths[i])
                except Exception as e:
                    failures[i] = e
        finally:
            _local.share = saved

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        stop.set()  # a no-op once work() returned: nothing is left to take
        for t in helpers:
            t.join()
    if failures:
        raise failures[min(failures)]
    return results, threads
