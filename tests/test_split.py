"""The two-process path of ``split_blocks``: a forked child takes the blocks
of a large node batch or CSV write from the back while this process takes
them from the front, and every byte, exception and file is the one-process
result, wherever the two ends meet.

A test of the split path reports two usable CPUs and no CPU quota, so it
runs on any host with ``os.fork``; the real count only decides the speed.
"""

import functools
import os
import select
import threading
import warnings

import numpy as np
import pytest

from qmeter import blocks, csvfmt, cycle
from qmeter.blocks import NODE_BLOCK, SPLIT_BLOCKS, usable_cpus
from qmeter.cli import main
from qmeter.csvfmt import CSV_FIELDS, write_rows_csv
from qmeter.cycle import CycleEngine
from qmeter.errors import ValidationError
from qmeter.verification import SYMMETRY_GRID, suite_symmetry

from conftest import default_params

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture()
def forks(monkeypatch):
    """The pids that called ``os.fork``, with two usable CPUs reported and
    no cgroup read."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(blocks, "usable_cpus", functools.partial(usable_cpus, cgroups=os.devnull))
    return calls


def cgroups(folder, groups, files):
    """``usable_cpus`` reading a ``/proc/self/cgroup`` of ``groups`` lines
    and a cgroup root under ``folder`` that holds ``files``, path -> text."""
    (folder / "cgroup").write_text("".join(line + "\n" for line in groups))
    for name, text in files.items():
        (folder / "root" / name).parent.mkdir(parents=True, exist_ok=True)
        (folder / "root" / name).write_text(text + "\n")
    return functools.partial(usable_cpus, cgroups=str(folder / "cgroup"),
                             root=str(folder / "root"))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def received(monkeypatch):
    """One list per ``split_blocks`` call of the kernel or the CSV writer:
    the starts of the blocks taken in from the child, in the order taken."""
    calls, real_split = [], blocks.split_blocks

    def recording_split(size, work, receive, first=None):
        calls.append([])

        def recording_receive(out, start, length):
            calls[-1].append(start)
            receive(out, start, length)
        real_split(size, work, recording_receive, first)

    monkeypatch.setattr(cycle, "split_blocks", recording_split)
    monkeypatch.setattr(csvfmt, "split_blocks", recording_split)
    return calls


def meeting(starts, size):
    """Where the two ends met: the first item of the child's blocks, which
    must be the blocks after it, received in table order."""
    meet = starts[0] if starts else size
    assert starts == list(range(meet, size, NODE_BLOCK))
    return meet


def wait_for(fd, count):
    """The ``count`` bytes read from the pipe ``fd``; fails after 10 s without one."""
    data = b""
    while len(data) < count:
        if not select.select([fd], [], [], 10)[0]:
            raise TimeoutError("no block reported within 10 s")
        data += os.read(fd, count - len(data))
    return data


def serial_rows(engine, alphas, phis):
    """The nodes evaluated in pieces too small to split."""
    piece = (SPLIT_BLOCKS - 1) * NODE_BLOCK
    return np.concatenate([engine.evaluate_nodes(alphas[i:i + piece], phis[i:i + piece])
                           for i in range(0, alphas.size, piece)])


def serial_csv(rows, tmp_path):
    """The data lines of ``rows``, written in pieces too small to split."""
    piece, path = (SPLIT_BLOCKS - 1) * NODE_BLOCK, tmp_path / "piece.csv"
    lines = b""
    for i in range(0, len(rows), piece):
        write_rows_csv(rows[i:i + piece], CSV_FIELDS, path)
        lines += path.read_bytes().split(b"\n", 1)[1]
    path.unlink()
    return lines


def test_a_split_sweep_equals_its_halves_evaluated_in_one_process(default_table, forks,
                                                                   received):
    """The halves are the nodes before and after the point where the two ends met."""
    rows = default_table.rows
    engine = default_table.engine
    assert -(-rows.size // NODE_BLOCK) >= 2 * SPLIT_BLOCKS
    split = engine.evaluate_nodes(rows["alpha"], rows["phi"])
    assert forks == [os.getpid()]
    meet = meeting(received[0], rows.size)
    halves = [serial_rows(engine, rows["alpha"][part], rows["phi"][part])
              for part in (slice(0, meet), slice(meet, None))]
    assert forks == [os.getpid()]
    assert split.tobytes() == np.concatenate(halves).tobytes()
    assert split.tobytes() == rows.tobytes()
    assert_no_child_left()


def test_a_split_csv_equals_the_header_and_its_halves_written_in_one_process(
        default_table, forks, received, tmp_path):
    rows = default_table.rows
    write_rows_csv(rows, CSV_FIELDS, tmp_path / "sweep.csv")
    assert forks == [os.getpid()]
    meet = meeting(received[0], len(rows))
    expected = ("\n".join([",".join(CSV_FIELDS), ""]).encode()
                + serial_csv(rows[:meet], tmp_path) + serial_csv(rows[meet:], tmp_path))
    assert forks == [os.getpid()]
    assert (tmp_path / "sweep.csv").read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
    assert_no_child_left()


def test_the_split_starts_at_split_blocks(default_table, forks, received, tmp_path):
    """A node batch and a CSV of ``SPLIT_BLOCKS`` blocks, the last one
    partial or full, both split, and take in the child's blocks as the tail
    of the table; one block fewer splits neither."""
    path, header = tmp_path / "sweep.csv", "\n".join([",".join(CSV_FIELDS), ""]).encode()
    fewest = (SPLIT_BLOCKS - 1) * NODE_BLOCK + 1
    for size in (fewest - 1, fewest, SPLIT_BLOCKS * NODE_BLOCK):
        rows = default_table.rows[:size]
        del forks[:], received[:]
        nodes = default_table.engine.evaluate_nodes(rows["alpha"], rows["phi"])
        write_rows_csv(rows, CSV_FIELDS, path)
        assert len(forks) == (2 if size >= fewest else 0)
        assert len(received) == 2
        for starts in received:
            meeting(starts, size)
        if size < fewest:
            assert received == [[], []]
        assert nodes.tobytes() == rows.tobytes()
        assert path.read_bytes() == header + serial_csv(rows, tmp_path)
    assert_no_child_left()


@pytest.fixture(scope="module")
def one_process(default_table, tmp_path_factory):
    """size -> the node rows and the CSV lines of the default table's first
    ``size`` nodes, each evaluated or written in pieces too small to split."""
    tmp_path = tmp_path_factory.mktemp("one_process")
    rows = default_table.rows
    return {size: (serial_rows(default_table.engine, rows["alpha"][:size],
                               rows["phi"][:size]).tobytes(),
                   serial_csv(rows[:size], tmp_path))
            for size in PUSHED_SIZES}


# 4 blocks, then 5, 17 (verify's 129x129 grid) and 65 (the default sweep),
# each with a short last block
PUSHED_SIZES = (4 * NODE_BLOCK, 4 * NODE_BLOCK + 7, 129 * 129, 257 * 257)


@pytest.fixture(params=["first waits", "child waits"])
def pushed(request, received, monkeypatch):
    """Splits whose two ends meet away from the middle: ``first`` waits
    until the child has run more than half the blocks, or the child's first
    block waits until this process has.  Each block reports itself on a pipe."""
    test_pid, recording_split, state = os.getpid(), cycle.split_blocks, {}
    first_waits = request.param == "first waits"

    def split(size, work, receive, first=None):
        need = -(-size // NODE_BLOCK) // 2 + 1
        state.update(zip(("r", "w"), os.pipe()), need=need, waited=False)
        try:
            recording_split(size, work, receive,
                            (lambda: wait_for(state["r"], need)) if first_waits else None)
        finally:
            os.close(state["r"])
            os.close(state["w"])

    def reporting(block):
        def reported(*args):
            child = os.getpid() != test_pid
            if child and not first_waits and not state["waited"]:
                state["waited"] = True
                wait_for(state["r"], state["need"])
            result = block(*args)
            if child == first_waits:
                os.write(state["w"], b"x")
            return result
        return reported

    monkeypatch.setattr(cycle, "split_blocks", split)
    monkeypatch.setattr(csvfmt, "split_blocks", split)
    monkeypatch.setattr(CycleEngine, "_evaluate_block", reporting(CycleEngine._evaluate_block))
    monkeypatch.setattr(csvfmt, "csv_lines", reporting(csvfmt.csv_lines))
    return first_waits


@pytest.mark.parametrize("size", PUSHED_SIZES, ids=lambda size: f"{-(-size // NODE_BLOCK)} blocks")
def test_a_table_and_its_csv_keep_their_bytes_wherever_the_two_ends_meet(
        default_table, one_process, forks, received, pushed, tmp_path, size):
    rows = default_table.rows[:size]
    blocks, need = -(-size // NODE_BLOCK), -(-size // NODE_BLOCK) // 2 + 1
    nodes = default_table.engine.evaluate_nodes(rows["alpha"], rows["phi"])
    write_rows_csv(rows, CSV_FIELDS, tmp_path / "sweep.csv")
    assert forks == [os.getpid()] * 2
    for starts in received:
        child_blocks = blocks - meeting(starts, size) // NODE_BLOCK
        assert child_blocks >= need if pushed else child_blocks <= blocks - need
    expected_rows, expected_lines = one_process[size]
    assert nodes.tobytes() == expected_rows
    assert (tmp_path / "sweep.csv").read_bytes() == (
        "\n".join([",".join(CSV_FIELDS), ""]).encode() + expected_lines)
    assert_no_child_left()


def test_a_failed_child_leaves_its_nodes_to_the_parent(default_table, forks, monkeypatch, capfd):
    rows = default_table.rows[:2 * SPLIT_BLOCKS * NODE_BLOCK + 7]
    engine = default_table.engine
    test_pid, real_block = os.getpid(), CycleEngine._evaluate_block

    def failing_in_a_child(self, *args):
        if os.getpid() != test_pid:
            raise RuntimeError("child fault")
        return real_block(self, *args)

    monkeypatch.setattr(CycleEngine, "_evaluate_block", failing_in_a_child)
    split = engine.evaluate_nodes(rows["alpha"], rows["phi"])
    assert len(forks) == 1
    assert split.tobytes() == rows.tobytes()
    assert capfd.readouterr() == ("", "")
    assert_no_child_left()


def test_a_failed_child_leaves_its_csv_lines_to_the_parent(default_table, forks, monkeypatch,
                                                           tmp_path, capfd):
    rows = default_table.rows[:2 * SPLIT_BLOCKS * NODE_BLOCK + 7]
    write_rows_csv(rows, CSV_FIELDS, tmp_path / "parent.csv")  # splits, as checked below
    # a temporary file that refuses writes makes the child fail
    monkeypatch.setattr("tempfile.TemporaryFile", lambda: open(os.devnull, "rb"))
    write_rows_csv(rows, CSV_FIELDS, tmp_path / "sweep.csv")
    assert len(forks) == 2
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "parent.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["parent.csv", "sweep.csv"]
    assert capfd.readouterr() == ("", "")
    assert_no_child_left()


def test_a_child_that_fails_after_claiming_blocks_leaves_exactly_those_to_the_parent(
        forks, capfd):
    """The child claims the last two blocks and fails in the second; this
    process, which waits in ``first`` until it has, runs the first six
    blocks from the front and then the child's two, and takes nothing in."""
    size, test_pid, ran, taken, claimed = 8 * NODE_BLOCK - 5, os.getpid(), [], [], []
    r, w = os.pipe()

    def work(start, out):
        if os.getpid() == test_pid:
            ran.append(start)
            return
        os.write(w, start.to_bytes(8, "little"))
        if start == 6 * NODE_BLOCK:
            raise RuntimeError("child fault")

    def first():
        data = wait_for(r, 16)
        claimed.extend(int.from_bytes(data[i:i + 8], "little") for i in (0, 8))

    try:
        blocks.split_blocks(size, work, lambda *args: taken.append(args), first)
    finally:
        os.close(r)
        os.close(w)
    assert forks == [os.getpid()]
    assert claimed == [7 * NODE_BLOCK, 6 * NODE_BLOCK]
    assert ran == list(range(0, size, NODE_BLOCK))
    assert ran[6:] == sorted(claimed)
    assert taken == []
    assert capfd.readouterr() == ("", "")
    assert_no_child_left()


def test_each_block_runs_once_when_both_ends_claim_as_fast_as_they_can(forks):
    """Blocks that only report their start, so that the two processes claim
    as fast as they can: over repeated splits, every block runs once, on one
    side, and each of the child's comes back under its own start."""
    size = 64 * NODE_BLOCK
    for _ in range(20):
        ran, taken = [], []

        def work(start, out):
            if out is None:
                ran.append(start)
            else:
                out.write(start.to_bytes(8, "little"))

        def receive(out, start, length):
            taken.append((start, int.from_bytes(out.read(length), "little")))

        blocks.split_blocks(size, work, receive)
        assert all(start == reported for start, reported in taken)
        assert sorted(ran + [start for start, _ in taken]) == list(range(0, size, NODE_BLOCK))
    assert len(forks) == 20
    assert_no_child_left()


def test_a_raising_first_reaps_the_child_before_it_propagates(default_table, forks):
    rows = default_table.rows[:2 * SPLIT_BLOCKS * NODE_BLOCK]

    def first():
        raise RuntimeError("first fault")

    with pytest.raises(RuntimeError, match="first fault"):
        default_table.engine.evaluate_nodes(rows["alpha"], rows["phi"], first)
    assert forks == [os.getpid()]
    assert_no_child_left()


@pytest.mark.parametrize("where", ["parent", "child"])
def test_a_nan_angle_in_either_half_raises_once_from_the_parent(default_table, forks, capfd,
                                                                where):
    rows = default_table.rows[:2 * SPLIT_BLOCKS * NODE_BLOCK]
    alphas = rows["alpha"].copy()
    alphas[5 if where == "parent" else -5] = np.nan
    with pytest.raises(ValidationError, match="alpha and phi must be finite"):
        default_table.engine.evaluate_nodes(alphas, rows["phi"])
    assert forks == [os.getpid()]
    assert capfd.readouterr() == ("", "")
    assert_no_child_left()


def test_a_fork_warning_raised_as_an_error_loses_no_child(default_table, forks, monkeypatch):
    """From Python 3.12, ``os.fork`` warns in the parent, after the fork,
    when the process has another OS thread, such as a BLAS worker."""
    rows = default_table.rows[:2 * SPLIT_BLOCKS * NODE_BLOCK]
    counting_fork = os.fork

    def warning_fork():
        pid = counting_fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split = default_table.engine.evaluate_nodes(rows["alpha"], rows["phi"])
    assert forks == [os.getpid()]
    assert split.tobytes() == rows.tobytes()
    assert_no_child_left()


@pytest.mark.parametrize("groups, files, cpus", [
    (["0::/"], {}, 4),
    (["0::/a/b"], {"a/cpu.max": "100000 100000", "a/b/cpu.max": "max 100000"}, 1),
    (["0::/a/b"], {"a/cpu.max": "max 100000", "a/b/cpu.max": "300000 200000"}, 1.5),
    (["1:cpu:/"], {"cpu/cpu.cfs_quota_us": "-1", "cpu/cpu.cfs_period_us": "100000"}, 4),
    # a container sees its own cgroup at the mount, under its host path
    (["9:name=systemd:/docker/c", "4:cpu,cpuacct:/docker/c", "3:memory:/docker/c"],
     {"cpu,cpuacct/cpu.cfs_quota_us": "100000", "cpu,cpuacct/cpu.cfs_period_us": "100000",
      "memory/cpu.max": "50000 100000"}, 1),
])
def test_usable_cpus_are_the_affinity_mask_capped_by_a_cgroup_quota(monkeypatch, tmp_path,
                                                                     groups, files, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert cgroups(tmp_path, groups, files)() == cpus
    assert usable_cpus(cgroups=str(tmp_path / "missing")) == 4


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_this_hosts_usable_cpus_are_at_most_its_affinity_mask():
    assert 0 < usable_cpus() <= len(os.sched_getaffinity(0))


def refuse(*args):
    raise BlockingIOError("resource temporarily unavailable")


@pytest.fixture(params=["one cpu", "cpu quota", "second thread", "below threshold", "no fork",
                        "no temporary file"])
def guarded(request, forks, monkeypatch, tmp_path_factory):
    """A case that keeps the work in one process; the blocks of work to
    give it, which would split but for the case."""
    if request.param == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if request.param == "cpu quota":  # as under docker --cpus=1.5
        monkeypatch.setattr(blocks, "usable_cpus", cgroups(
            tmp_path_factory.mktemp("cgroup"), ["0::/"], {"cpu.max": "150000 100000"}))
    if request.param == "no fork":  # as when no process id is free
        monkeypatch.setattr(os, "fork", refuse)
    if request.param == "no temporary file":
        monkeypatch.setattr("tempfile.TemporaryFile", refuse)
    if request.param == "second thread":
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        request.addfinalizer(thread.join)
        request.addfinalizer(done.set)
    return SPLIT_BLOCKS - 1 if request.param == "below threshold" else 2 * SPLIT_BLOCKS


def test_a_guard_keeps_the_nodes_in_one_process(default_table, guarded, forks):
    rows = default_table.rows[:guarded * NODE_BLOCK]
    nodes = default_table.engine.evaluate_nodes(rows["alpha"], rows["phi"])
    assert forks == []
    assert nodes.tobytes() == rows.tobytes()


def nodes_after_first(default_table, n_blocks, monkeypatch, tmp_path):
    """``evaluate_nodes`` on ``n_blocks`` blocks with a ``first`` that logs
    its pid to a file; returns the pids logged and, in order, ``first`` and
    the blocks that ran in this process."""
    log, events = tmp_path / "first.log", []
    test_pid, real_block = os.getpid(), CycleEngine._evaluate_block

    def block(self, *args):
        if os.getpid() == test_pid:
            events.append("block")
        return real_block(self, *args)

    def first():
        events.append("first")
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    monkeypatch.setattr(CycleEngine, "_evaluate_block", block)
    rows = default_table.rows[:n_blocks * NODE_BLOCK]
    nodes = default_table.engine.evaluate_nodes(rows["alpha"], rows["phi"], first)
    assert nodes.tobytes() == rows.tobytes()
    return [int(pid) for pid in log.read_text().split()], events


def test_first_runs_once_in_this_process_before_its_blocks_when_split(
        default_table, forks, monkeypatch, tmp_path):
    pids, events = nodes_after_first(default_table, 2 * SPLIT_BLOCKS, monkeypatch, tmp_path)
    assert forks == [os.getpid()]
    assert pids == [os.getpid()]
    assert events[0] == "first" and events.count("first") == 1
    assert_no_child_left()


def test_first_runs_once_before_the_blocks_when_guarded(default_table, guarded, forks,
                                                       monkeypatch, tmp_path):
    pids, events = nodes_after_first(default_table, guarded, monkeypatch, tmp_path)
    assert forks == []
    assert pids == [os.getpid()]
    assert events == ["first"] + ["block"] * guarded


def test_a_guard_keeps_the_csv_in_one_process(default_table, guarded, forks, tmp_path):
    rows = default_table.rows[:guarded * NODE_BLOCK]
    write_rows_csv(rows, CSV_FIELDS, tmp_path / "sweep.csv")
    assert forks == []
    assert (tmp_path / "sweep.csv").read_bytes() == (
        "\n".join([",".join(CSV_FIELDS), ""]).encode() + serial_csv(rows, tmp_path))


def test_only_the_large_tables_of_the_commands_split(forks, tmp_path, capsys):
    assert main(["run", "--alpha-rad", "1.39", "--phi-rad", "2.05",
                 "--csv", str(tmp_path / "row.csv")]) == 0
    assert main(["slice", "--fixed-phi", "2.53", "--output", str(tmp_path / "slice.csv")]) == 0
    assert forks == []
    assert suite_symmetry(default_params(), SYMMETRY_GRID).passed  # verify's grid: 17 blocks
    assert len(forks) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["row.csv", "slice.csv"]
    assert_no_child_left()


def test_a_repeated_split_verify_builds_nothing(fresh_builds, forks, capsys):
    """The serial suites run in this process while the child starts on a
    65x65 symmetry grid (5 blocks), so their builds stay in its cache."""
    args = ["verify", "--seed", "401", "--samples", "20",
            "--grid-alpha-points", "65", "--grid-phi-points", "65"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert forks == [os.getpid()]
    misses = fresh_builds.cache_info().misses
    assert main(args) == 0
    assert forks == [os.getpid()] * 2
    assert fresh_builds.cache_info().misses == misses
    assert capsys.readouterr().out == first
    assert_no_child_left()
