"""How many CPUs this process may run on, and how the package works side by
side on them: ``usable_cpus`` is the one rule for every part that does, and
``side_by_side`` is the one way the package forks processes."""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask, read at each call; 1 where
    the platform does not tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def side_by_side(
    fn: Callable, tasks: Sequence[tuple], process: str, meanwhile: Callable | None = None
) -> tuple[list, object]:
    """``[fn(*task) for task in tasks]``, and ``meanwhile()`` (None without
    it), computed side by side on the usable CPUs.

    The tasks run in forked processes, one per usable CPU, less the one the
    caller keeps when it has ``meanwhile`` to compute; with fewer than two
    processes to keep busy, everything runs in this process, the tasks
    first.  ``fn``, the tasks and the results travel by pickle.  An
    exception raised in a child is raised here with its type and message.
    A child that dies or cannot be started raises ``ChildProcessError``
    naming the ``process`` kind ("a training process died: ...").  Every
    child is joined before this returns or raises.  Call it only while no
    other thread runs: a forked child holds every lock as it was at the
    fork.
    """
    caller = meanwhile is not None
    workers = min(len(tasks), usable_cpus() - caller)
    if workers + caller < 2:
        results = [fn(*task) for task in tasks]
        return results, meanwhile() if caller else None
    # imported here, so that a command that forks nothing does not load the
    # process pool at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a child starts with numpy, scipy and dupliq already
    # imported.  The pool forks all its workers before it starts its thread
    started = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        try:
            futures = [pool.submit(fn, *task) for task in tasks]
        except OSError as exc:
            # the children forked before a fork that failed wait for work
            # the pool never hands out
            for child in set(multiprocessing.active_children()) - started:
                child.terminate()
                child.join()
            raise ChildProcessError(f"could not start a {process} process: {exc}") from None
        mine = meanwhile() if caller else None
        return [future.result() for future in futures], mine
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a {process} process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)
