"""CPU and memory of a process and all its descendants, from ``/proc``.

CPU is ``utime + stime + cutime + cstime`` summed over the live tree.
The ``c*`` fields carry every child a process has already reaped, so a
worker that was evicted and waited for between two snapshots still
counts: its time moved from its own line into its parent's.  A process
that exited but is not yet reaped is a zombie whose line still reads.
"""

from __future__ import annotations

import os

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            text = fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # the command name may hold spaces and parentheses: cut at the last ')'
    return text[text.rindex(")") + 2 :].split()


def descendants(root: int) -> list[int]:
    """*root* followed by every live descendant pid."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            # fields[0] is the state, fields[1] the parent pid
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, stack = [], [root]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds(root: int) -> float:
    """User + system CPU of *root*'s tree, reaped children included."""
    ticks = 0
    for pid in descendants(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # stat fields 14-17 (1-based) are utime, stime, cutime, cstime;
            # here the list starts at field 3
            ticks += sum(int(v) for v in fields[11:15])
    return ticks / _TICKS


def tree_pss_mib(root: int) -> float:
    """Proportional set size summed over *root*'s tree, in MiB."""
    kib = 0
    for pid in descendants(root):
        try:
            with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        kib += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return kib / 1024.0


def session_pids(sid: int) -> list[int]:
    """Live pids whose session id is *sid* (zombies excluded)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[3] is the session id
        if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def host_jiffies() -> tuple[int, int]:
    """``(busy, steal)`` clock ticks summed over all CPUs since boot.

    *steal* is time the hypervisor kept a runnable virtual CPU off the
    physical one; *busy* is user, nice, system, irq and softirq time.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of runnable CPU time the host stole between two readings."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0
