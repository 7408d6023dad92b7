"""The two-process path of ``split_blocks``: a forked child takes the second
half of a large node batch or CSV write, and every byte, exception and file
is the one-process result.

A test of the split path reports two usable CPUs and no CPU quota, so it
runs on any host with ``os.fork``; the real count only decides the speed.
"""

import functools
import os
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


def test_a_split_sweep_equals_its_halves_evaluated_in_one_process(default_table, forks):
    rows = default_table.rows
    engine = default_table.engine
    blocks = -(-rows.size // NODE_BLOCK)
    cut = (blocks + 1) // 2 * NODE_BLOCK  # the parent's share
    assert blocks >= 2 * SPLIT_BLOCKS
    halves = [serial_rows(engine, rows["alpha"][part], rows["phi"][part])
              for part in (slice(0, cut), slice(cut, None))]
    assert forks == []
    split = engine.evaluate_nodes(rows["alpha"], rows["phi"])
    assert forks == [os.getpid()]
    assert split.tobytes() == np.concatenate(halves).tobytes()
    assert split.tobytes() == rows.tobytes()
    assert_no_child_left()


def test_a_split_csv_equals_the_header_and_its_halves_written_in_one_process(
        default_table, forks, tmp_path):
    rows = default_table.rows
    cut = (-(-len(rows) // NODE_BLOCK) + 1) // 2 * NODE_BLOCK
    expected = ("\n".join([",".join(CSV_FIELDS), ""]).encode()
                + serial_csv(rows[:cut], tmp_path) + serial_csv(rows[cut:], tmp_path))
    assert forks == []
    write_rows_csv(rows, CSV_FIELDS, tmp_path / "sweep.csv")
    assert forks == [os.getpid()]
    assert (tmp_path / "sweep.csv").read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
    assert_no_child_left()


def test_the_split_starts_at_split_blocks(default_table, forks, monkeypatch, tmp_path):
    """A node batch and a CSV of ``SPLIT_BLOCKS`` blocks, the last one
    partial or full, both split at the same row; one block fewer splits
    neither."""
    cuts, real_split = [], blocks.split_blocks

    def recording_split(size, work, receive):
        def recording_receive(out, cut):
            cuts.append(cut)
            receive(out, cut)
        real_split(size, work, recording_receive)

    monkeypatch.setattr(cycle, "split_blocks", recording_split)
    monkeypatch.setattr(csvfmt, "split_blocks", recording_split)
    path, header = tmp_path / "sweep.csv", "\n".join([",".join(CSV_FIELDS), ""]).encode()
    fewest = (SPLIT_BLOCKS - 1) * NODE_BLOCK + 1
    for size in (fewest - 1, fewest, SPLIT_BLOCKS * NODE_BLOCK):
        rows = default_table.rows[:size]
        del forks[:], cuts[:]
        nodes = default_table.engine.evaluate_nodes(rows["alpha"], rows["phi"])
        write_rows_csv(rows, CSV_FIELDS, path)
        splits = 2 if size >= fewest else 0
        assert len(forks) == splits
        assert cuts == [(SPLIT_BLOCKS + 1) // 2 * NODE_BLOCK] * splits
        assert nodes.tobytes() == rows.tobytes()
        assert path.read_bytes() == header + serial_csv(rows, tmp_path)
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
