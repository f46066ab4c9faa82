"""``ingest`` over feed shards in forked children.

``cli.ingest_to_rows`` splits its feed files into one share per usable
CPU; each share but the first is parsed, filtered and grouped in a forked
child, whose groups and counters join the main process's before the edge
rows are taken. These tests patch the CPU count, so the fork path runs on any
runner: the output must be byte-identical to one process reading one
feed, a failing share must exit 1 with its error, and no child may be left
behind or unwind into the caller's stack.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import PingRecord, edge_rows_of, sample_of
from detourkit import cli, errors
from detourkit.errors import ParseError, ToolkitError
from detourkit.graph import edge_rows, group_samples
from detourkit.ingest import FeedStats
from test_golden import COMMAND_CASES, GOLDEN, INPUTS, run_command_case

FEED = INPUTS / "feed.jsonl"


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_feed(work, parts: int = 3) -> list[str]:
    """The golden feed's lines dealt round-robin into ``parts`` files."""
    lines = FEED.read_text(encoding="utf-8").splitlines(keepends=True)
    paths = []
    for index in range(parts):
        path = work / f"feed-{index}.jsonl"
        path.write_text("".join(lines[index::parts]), encoding="utf-8")
        paths.append(str(path))
    return paths


def run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize(
    "cls",
    [
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == errors.__name__
    ],
)
def test_every_error_class_survives_pickling(cls):
    error = cls(3, "bad") if cls is ParseError else cls("bad input")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
    if cls is ParseError:
        assert (copy.position, copy.reason) == (3, "bad")


def ping_records(rng: random.Random, count: int, sources, destinations, msms) -> list[PingRecord]:
    return [
        PingRecord(
            measurement_id=rng.choice(msms),
            source_id=rng.choice(sources),
            destination_id=rng.choice(destinations),
            address_family=4,
            status="stopped",
            start_time=0,
            rtt_runs=tuple(rng.uniform(0.1, 300.0) for _ in range(rng.randint(0, 3))),
        )
        for _ in range(count)
    ]


def test_merged_groups_give_the_graph_of_all_records():
    # shares intern the same endpoints and measurement ids in different
    # orders, and under different spellings; one share's endpoints are its
    # own, and one share is empty
    rng = random.Random(15)
    common = ping_records(
        rng,
        3000,
        ["8.8.0.1", "8.8.000.1", "008.8.0.1", "8.8.0.2", "100"],
        ["8.8.0.1", "9.9.0.1", "9.9.00.1", "101", "host.example"],
        [f"m{index}" for index in range(5)],
    )
    disjoint = ping_records(rng, 300, ["7.7.0.1", "7.7.0.02"], ["7.7.0.2", "102"], ["m0", "m9"])
    whole_stats = FeedStats()
    whole = edge_rows_of(common + disjoint, whole_stats)
    for parts in (1, 2, 3, 5):
        for _ in range(3):
            shuffled = rng.sample(common, len(common))
            shares = [shuffled[part::parts] for part in range(parts)] + [disjoint, []]
            rng.shuffle(shares)
            stats = FeedStats()
            layouts = []
            for share in shares:
                part_stats = FeedStats()
                layout = group_samples(map(sample_of, share), part_stats)
                layouts.append(pickle.loads(pickle.dumps(layout)))  # as a child sends it
                stats.merge(part_stats)
            rows = edge_rows(layouts)
            assert [repr(row) for row in rows] == [repr(row) for row in whole]
            assert stats == whole_stats


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("case", ["flags", "config"])
def test_sharded_ingest_equals_golden_single_feed(tmp_path, monkeypatch, case, cpus):
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    shards = split_feed(tmp_path)
    argv = COMMAND_CASES[("ingest", case)]

    def sharded(work):
        return [arg for text in argv(work) for arg in (shards if text == str(FEED) else [text])]

    monkeypatch.setitem(COMMAND_CASES, ("ingest", case), sharded)
    produced = run_command_case(tmp_path, "ingest", case)
    expected_dir = GOLDEN / "ingest" / case
    assert sorted(produced) == sorted(p.name for p in expected_dir.iterdir())
    for name, content in produced.items():
        assert content == (expected_dir / name).read_bytes(), name
    assert len(forks) == min(cpus, len(shards)) - 1
    assert_no_child_left()


def test_usable_cpus_is_one_without_fork(monkeypatch):
    assert cli.usable_cpus() >= 1
    monkeypatch.delattr(os, "fork")
    assert cli.usable_cpus() == 1


def failing_share(monkeypatch, tmp_path, fail) -> list[str]:
    """Two CPUs over three shards; ``fail(path)`` runs in place of reading
    the child's share, the second shard (the main process reads the first
    and third)."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    shards = split_feed(tmp_path)
    target = Path(shards[1])
    read = cli.read_result_file

    def patched(path, *args, **kwargs):
        if path == target:
            fail(path)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(cli, "read_result_file", patched)
    return ["--output-dir", str(tmp_path / "out"), "ingest", *shards]


def raise_toolkit_error(path):
    raise ToolkitError(f"cannot read {path}")


def raise_parse_error(path):
    raise ParseError(7, "broken share")


def die(path):
    os._exit(3)


@pytest.mark.parametrize(
    "fail,message",
    [
        (raise_toolkit_error, "error: cannot read "),
        (raise_parse_error, "analysis error: parse error at 7: broken share"),
        (die, "error: ingest worker "),
    ],
)
def test_failing_child_share_exits_1_and_leaves_nothing(tmp_path, monkeypatch, fail, message):
    argv = failing_share(monkeypatch, tmp_path, fail)
    marks = tmp_path / "finally.txt"
    try:
        code, stdout, stderr = run(argv)
    finally:
        # a child that unwound into this frame would run this block too
        with open(marks, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
    assert marks.read_text(encoding="utf-8") == f"{os.getpid()}\n"
    assert code == 1
    assert message in stderr
    assert stdout == ""
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


def test_failing_main_share_stops_and_reaps_the_children(tmp_path, monkeypatch):
    # the child would read for a minute: it is stopped, not waited for
    argv = failing_share(monkeypatch, tmp_path, lambda path: time.sleep(60))
    read = cli.read_result_file
    own = Path(argv[3])

    def patched(path, *args, **kwargs):
        if path == own:
            raise ToolkitError("main share failed")
        return read(path, *args, **kwargs)

    monkeypatch.setattr(cli, "read_result_file", patched)
    start = time.perf_counter()
    code, _, stderr = run(argv)
    assert time.perf_counter() - start < 30
    assert code == 1
    assert "error: main share failed" in stderr
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


# a command whose child reads its share forever while the main process
# sleeps; argv: three shards, the file for the child's pid, the output dir
KILLED_COMMAND = """
import os, sys, time
from pathlib import Path
from detourkit import cli

shards, pid_file = [Path(arg) for arg in sys.argv[1:4]], sys.argv[4]
read = cli.read_result_file

def patched(path, *args, **kwargs):
    if path == shards[1]:
        with open(pid_file + ".tmp", "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        os.replace(pid_file + ".tmp", pid_file)
        while True:
            yield from read(path, *args, **kwargs)
    time.sleep(60)
    yield from read(path, *args, **kwargs)

cli.usable_cpus = lambda: 2
cli.read_result_file = patched
cli.main(["--output-dir", sys.argv[5], "ingest", *sys.argv[1:4]])
"""


def running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def assert_worker_of_killed_command_exits(script: str, argv: list[str], pid_file: Path) -> None:
    """Run ``script`` with ``argv``, kill it once its worker has written
    ``pid_file``, and wait for that worker to exit by itself: SIGKILL runs
    no finally block, so the worker itself must see its parent go."""
    src = Path(cli.__file__).resolve().parents[1]
    command = subprocess.Popen(
        [sys.executable, "-c", script, *argv], env=dict(os.environ, PYTHONPATH=str(src))
    )
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists():
            assert command.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        command.kill()
        command.wait()
    worker = int(pid_file.read_text(encoding="ascii"))
    deadline = time.monotonic() + 20
    try:
        while running(worker):
            assert time.monotonic() < deadline, "the worker outlived its killed command"
            time.sleep(0.01)
    finally:
        if running(worker):  # it would go on for a long time
            os.kill(worker, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_worker_of_a_killed_command_exits(tmp_path):
    pid_file = tmp_path / "worker.pid"
    argv = [*split_feed(tmp_path), str(pid_file), str(tmp_path / "out")]
    assert_worker_of_killed_command_exits(KILLED_COMMAND, argv, pid_file)
