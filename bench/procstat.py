"""This process's CPU time and peak memory.

``ru_maxrss`` survives ``execve`` on Linux, so a child reports at least
its parent's size at the fork; ``VmHWM`` in ``/proc/self/status``
belongs to the address space and starts afresh.  It can also be reset,
which lets a long-lived process measure one phase.
"""

from __future__ import annotations

import resource


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reset_peak_rss() -> None:
    """Restart the peak from the current size (best effort, Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass
