"""How a table pass is cut into blocks and shared between two processes.

The node kernel and the CSV writer both walk their tables ``NODE_BLOCK``
items at a time through ``split_blocks``.  When the host has two usable
CPUs, a forked child takes the blocks of a big table from the back while
the calling process takes them from the front, so the two meet wherever
their speeds put them; the caller first runs its own ``first`` work
(``verify``'s serial suites) while the child starts.
"""

from __future__ import annotations

import contextlib
import os
import struct
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
# and its reap cost 1-5 ms, a block 1.3-2.5 ms, and the first blocks after a
# fork run 2-3 times as long in both processes, as each scratch page they
# write is a copy-on-write fault.  A plain table breaks even near 7 blocks (a
# 4-block split runs 1.4-2.2 times as long as one process, in the host's fast
# and slow states alike); verify, whose serial suites run as ``first`` while
# the child works, already gains at 5 blocks.
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


def _claim(tokens: int) -> bool:
    """Take one token from the eventfd semaphore ``tokens``; False when none is left."""
    try:
        os.eventfd_read(tokens)
    except BlockingIOError:
        return False
    return True


def split_blocks(size: int, work, receive, first=None) -> None:
    """Run ``work(start, out)`` once on each block of ``NODE_BLOCK`` items,
    named by the item ``start`` it begins at, after ``first()`` if given.

    From ``SPLIT_BLOCKS`` blocks on, a forked child and the calling process
    share the blocks from both ends of the table.  Each claims one block at a
    time from a counter shared across the fork, an ``os.eventfd`` semaphore
    that holds one token per block, so the kernel hands each block out once
    and a claim never waits on a lock.  The child takes blocks from the back
    and appends their results to ``out``, an unnamed temporary file, then
    the file offset after each one.  The caller runs ``first``, takes blocks
    from the front with ``out`` None until no token is left, reaps the child
    and calls ``receive(out, start, length)`` on each of the child's blocks,
    in table order, with ``out`` at the ``length`` bytes that block wrote.
    A child that fails or cannot be forked leaves every block it claimed to
    the caller, so every result and exception is the serial one.  If
    ``first`` or the caller's ``work`` raises, the tokens left are taken, so
    that the child stops at its next claim, and it is reaped before the
    exception goes on.  One process runs it all, ``first`` first, without
    ``os.fork``, 2 usable CPUs (``usable_cpus``) or a temporary file, or
    while another thread is alive (the child would inherit the locks that
    thread holds, but not the thread).
    """
    blocks = -(-size // NODE_BLOCK)
    out = tokens = None
    if (blocks >= SPLIT_BLOCKS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and usable_cpus() >= 2):
        with contextlib.suppress(OSError):  # no free descriptor or no room for a temporary file
            tokens = os.eventfd(blocks, os.EFD_SEMAPHORE | os.EFD_NONBLOCK | os.EFD_CLOEXEC)
            out = tempfile.TemporaryFile()
    if out is None:
        if tokens is not None:
            os.close(tokens)
        if first is not None:
            first()
        for start in range(0, size, NODE_BLOCK):
            work(start, None)
        return
    with out:
        pid, front = None, 0  # front: the blocks the caller claimed
        try:
            # Python 3.12+ warns in the parent, once the child exists, if
            # another OS thread (a BLAS one, say) is alive.  No Python thread
            # is, and raised as an error the warning would lose the child.
            with warnings.catch_warnings(), contextlib.suppress(OSError):  # no free process id
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child never returns, flushes inherited stdio or runs atexit
                ends = []  # the file offset after each block, in claim order
                while _claim(tokens):
                    work((blocks - 1 - len(ends)) * NODE_BLOCK, out)
                    ends.append(out.tell())
                out.write(struct.pack(f"{len(ends)}q", *ends))
                out.flush()
                os._exit(0)
            if first is not None:
                first()
            while _claim(tokens):
                work(front * NODE_BLOCK, None)
                front += 1
        finally:
            if pid == 0:  # the child's work raised
                os._exit(1)
            while _claim(tokens):  # the caller raised: the child stops at its next claim
                pass
            os.close(tokens)
            status = 1 if pid is None else os.waitpid(pid, 0)[1]
        taken = blocks - front  # the child's blocks, front to back of the table
        if status == 0:
            out.seek(-8 * taken, os.SEEK_END)  # the child's offsets, 8 bytes each
            ends = struct.unpack(f"{taken}q", out.read(8 * taken))
            for i in reversed(range(taken)):  # the child's i-th claim is block blocks - 1 - i
                begin = ends[i - 1] if i else 0
                out.seek(begin)
                receive(out, (blocks - 1 - i) * NODE_BLOCK, ends[i] - begin)
        else:
            for start in range(front * NODE_BLOCK, size, NODE_BLOCK):
                work(start, None)
