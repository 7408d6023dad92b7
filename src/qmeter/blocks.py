"""How a table pass is cut into blocks and shared between two processes.

The node kernel and the CSV writer both walk their tables ``NODE_BLOCK``
items at a time through ``split_blocks``, which gives the second half of a
big table to a forked child when the host has two usable CPUs.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import warnings

# Items per block of split_blocks: the nodes of one kernel call in
# evaluate_nodes, whose scratch arrays take about 1.5 kB per node at their
# peak (0.55 kB of it the grouped products' scratch), and the rows of one
# csv_lines call in the CSV writer, about 2.2 kB per row at its peak, so a
# block's scratch stays near 2 MiB whatever the table size.
NODE_BLOCK = 1024
# The fewest blocks split_blocks gives a second process (2-vCPU VM): a fork
# and its reap cost 1-3 ms, a block 1.3-2.5 ms, and two busy vCPUs run each
# half in about 62% of the one-process time.  It was set where a split broke
# even with blocks of 2-5 ms; with today's blocks a 4-block split runs about
# 1.5 times as long as one process, and the break-even is near 8 blocks.
SPLIT_BLOCKS = 4


def usable_cpus(cgroups: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """The CPUs this process can keep busy: those of its affinity mask, or
    fewer under a CPU quota on its cgroup or a parent one, as in a container
    run with ``--cpus=1`` (``cpu.max`` under cgroup v2, ``cpu.cfs_quota_us``
    over ``cpu.cfs_period_us`` under v1)."""
    cpus = float(len(os.sched_getaffinity(0)))
    try:
        with open(cgroups) as fh:
            groups = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        groups = []
    for _, controllers, group in groups:
        if not controllers:
            names = ["cpu.max"]
        elif "cpu" in controllers.split(","):
            names = ["cpu.cfs_quota_us", "cpu.cfs_period_us"]
        else:
            continue
        parts = [part for part in group.split("/") if part]
        for depth in range(len(parts) + 1):
            words = []
            for name in names:
                with contextlib.suppress(OSError), \
                        open(os.path.join(root, controllers, *parts[:depth], name)) as fh:
                    words += fh.read().split()
            if len(words) == 2 and words[0] not in ("max", "-1"):
                cpus = min(cpus, int(words[0]) / int(words[1]))
    return cpus


def split_blocks(size: int, work, receive) -> None:
    """Run ``work(starts, out)`` on the blocks of ``NODE_BLOCK`` items that
    start at ``starts``.  From ``SPLIT_BLOCKS`` blocks on, a forked child
    runs the second half, from item ``cut``, and writes its results to
    ``out``, an unnamed temporary file; the parent runs the first half with
    ``out`` None, reaps the child and calls ``receive(out, cut)`` to take
    them in place.  A child that fails or cannot be forked leaves its half
    to the parent, so every result and exception is the serial one.  One
    process runs it all without ``os.fork``, 2 usable CPUs (``usable_cpus``)
    or a temporary file, or while another thread is alive (the child would
    inherit the locks that thread holds, but not the thread).
    """
    blocks = -(-size // NODE_BLOCK)
    cut = (blocks + 1) // 2 * NODE_BLOCK
    out = None
    if (blocks >= SPLIT_BLOCKS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and usable_cpus() >= 2):
        with contextlib.suppress(OSError):  # no room for a temporary file
            out = tempfile.TemporaryFile()
    if out is None:
        work(range(0, size, NODE_BLOCK), None)
        return
    with out:
        pid = None
        try:
            # Python 3.12+ warns in the parent, once the child exists, if
            # another OS thread (a BLAS one, say) is alive.  No Python thread
            # is, and raised as an error the warning would lose the child.
            with warnings.catch_warnings(), contextlib.suppress(OSError):  # no free process id
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child never returns, flushes inherited stdio or runs atexit
                work(range(cut, size, NODE_BLOCK), out)
                out.flush()
                os._exit(0)
            work(range(0, cut, NODE_BLOCK), None)
        finally:
            if pid == 0:  # the child's work raised
                os._exit(1)
            status = 1 if pid is None else os.waitpid(pid, 0)[1]
        if status == 0:
            out.seek(0)
            receive(out, cut)
        else:
            work(range(cut, size, NODE_BLOCK), None)
