"""How many CPUs this process may run on: the one rule for every part of
the package that works side by side."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask, read at each call; 1 where
    the platform does not tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
