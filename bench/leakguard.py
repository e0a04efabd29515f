"""Leak guard: threads, child processes and ``/dev/shm`` segments must be
back at the pre-workload baseline once a workload has closed what it owns."""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path


def _children() -> set[int]:
    pids: set[int] = set()
    for task in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(p) for p in task.read_text().split())
        except OSError:
            continue  # the thread ended while we were listing
    return pids


def _shm() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def snapshot() -> dict[str, set]:
    return {
        "threads": {t.ident for t in threading.enumerate()},
        "children": _children(),
        "shm": _shm(),
    }


def stop_resource_tracker() -> None:
    """End the stdlib's shared-memory resource tracker process.

    ``multiprocessing.shared_memory`` starts it lazily and leaves it running
    until interpreter exit; the benchmark must have stopped every process it
    started before it reports, so it is ended here, after the last segment
    was unlinked. It restarts on demand.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def leaks(before: dict[str, set], grace_s: float = 3.0) -> dict[str, list]:
    """What is still alive beyond ``before``; empty when nothing leaked.

    Threads and processes that were told to stop may take a moment to end,
    so the check polls for up to ``grace_s`` before it reports.
    """
    deadline = time.monotonic() + grace_s
    while True:
        now = snapshot()
        extra = {k: sorted(now[k] - before[k]) for k in before}
        if not any(extra.values()) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    names = {t.ident: t.name for t in threading.enumerate()}
    extra["threads"] = [names.get(i, str(i)) for i in extra["threads"]]
    return {k: v for k, v in extra.items() if v}
