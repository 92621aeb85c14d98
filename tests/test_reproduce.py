"""The reproduce table in forked workers: the same rows as in-process.

``reproduce.run`` forks one worker per usable CPU, the calling process
included, and each claims the next row from one ticket pipe. The rows are
independent, so any split of them over workers gives the same table. The
tests set the usable CPU count by hand, so they fork on any host, and
check after each case that no child process is left.
"""

import errno
import os
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gderive import reproduce
from gderive.errors import InputError
from gderive.reproduce import Row

KEYS = sorted(reproduce._RUNNERS)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    _assert_no_child()


@pytest.fixture(scope="module")
def table():
    """The full table, run in-process, by key."""
    with mock.patch.object(reproduce, "_usable_cpus", lambda: 1):
        return {row.key: row for row in reproduce.run()}


def _cpus(monkeypatch, count):
    monkeypatch.setattr(reproduce, "_usable_cpus", lambda: count)


def _count_forks(monkeypatch) -> list:
    """The pids of the children forked from here on."""
    real, forks = os.fork, []

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _plant(monkeypatch, tmp_path, keys, error, parent_raises=True, wait=True):
    """Make the runners of ``keys`` raise ``error`` in a forked worker. In
    this process the runner raises it too, or with ``parent_raises``
    false returns a verdict; with ``wait`` it first waits until a worker
    has run one of the rows, so a worker surely claims one."""
    parent = os.getpid()
    marker = tmp_path / "worker-ran"

    def runner():
        if os.getpid() != parent:
            marker.touch()
            raise error
        deadline = time.monotonic() + 60
        while wait and not marker.exists():
            assert time.monotonic() < deadline, "no worker ran a row"
            time.sleep(0.005)
        if parent_raises:
            raise error
        return True, "confirmed", "planted"

    for key in keys:
        title = reproduce._RUNNERS[key][0]
        monkeypatch.setitem(reproduce._RUNNERS, key, (title, runner))


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_workers_give_the_full_table(monkeypatch, table, cpus):
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, cpus)
    assert reproduce.run() == [table[key] for key in KEYS]
    assert len(forks) == cpus - 1


@settings(max_examples=15, deadline=None)
@given(
    keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=len(KEYS)),
    cpus=st.sampled_from([1, 2, 4]),
)
def test_workers_give_the_rows_of_any_key_subset(table, keys, cpus):
    with mock.patch.object(reproduce, "_usable_cpus", lambda: cpus):
        rows = reproduce.run(keys)
    assert rows == [table[key] for key in sorted(set(keys))]
    _assert_no_child()


@pytest.mark.parametrize("key", KEYS)
def test_each_row_alone_equals_its_row_in_the_table(table, key):
    assert reproduce.run([key]) == [table[key]]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_gderive_error_gives_the_error_row_in_both_modes(
    monkeypatch, tmp_path, cpus
):
    keys = ["rem3.7", "thm1.6"]
    _plant(monkeypatch, tmp_path, keys, InputError("planted"), wait=cpus > 1)
    _cpus(monkeypatch, cpus)
    assert reproduce.run(keys) == [
        Row(key, reproduce._RUNNERS[key][0], False, "error", "aborted: planted")
        for key in keys
    ]


def test_an_exception_in_a_worker_raises_with_its_traceback(monkeypatch, tmp_path):
    keys = ["rem3.7", "thm1.6"]
    _plant(monkeypatch, tmp_path, keys, ValueError("planted"), parent_raises=False)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError) as info:
        reproduce.run(keys)
    text = str(info.value)
    assert "exited with code 1" in text
    assert "Traceback (most recent call last)" in text
    assert "in runner" in text and "ValueError: planted" in text


def test_an_exception_here_still_reaps_every_worker(monkeypatch, tmp_path):
    keys = ["rem3.7", "thm1.6"]
    _plant(monkeypatch, tmp_path, keys, ValueError("planted"))
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="planted"):
        reproduce.run(keys)
    assert len(forks) == 1


def test_a_failed_fork_runs_the_rows_here(monkeypatch, table):
    calls = []

    def fork():
        calls.append(1)
        raise OSError(errno.EAGAIN, "planted")

    monkeypatch.setattr(os, "fork", fork)
    _cpus(monkeypatch, 4)
    assert reproduce.run() == [table[key] for key in KEYS]
    assert calls == [1]


def test_rows_run_here_while_another_thread_runs(monkeypatch, table):
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        rows = reproduce.run(["rem3.7", "thm1.6"])
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert rows == [table["rem3.7"], table["thm1.6"]]
    assert forks == []
