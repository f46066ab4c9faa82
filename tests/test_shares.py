"""``traceroutes`` and ``overlay`` on every CPU, through ``cli.run_shares``.

``cli.map_in_order`` cuts a command's inputs into one contiguous slice per
usable CPU, runs the first slice in the command's own process and each
other one in a forked child, and hands the results back in input order.
These tests patch the CPU count, so the fork path runs on any runner: the
output, stdout, stderr and exit code must be byte-identical to one process
going through the inputs in order, errors included, and no child may be
left behind.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

import pytest

from conftest import FIXTURES
from detourkit import cli
from detourkit import traceroute as traceroute_mod
from test_golden import COMMAND_CASES, GOLDEN, run_command_case
from test_parallel_ingest import assert_no_child_left, assert_worker_of_killed_command_exits, run

TRACES = sorted((FIXTURES / "traceroutes").iterdir())
OVERLAY = FIXTURES / "overlay"


def patch_cpus(monkeypatch, cpus: int) -> list[int]:
    """Patch the usable CPU count; returns the list each fork appends to."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    forks: list[int] = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize(
    "command,case", list(COMMAND_CASES), ids=[f"{c}-{k}" for c, k in COMMAND_CASES]
)
def test_golden_output_at_any_cpu_count(tmp_path, monkeypatch, command, case, cpus):
    forks = patch_cpus(monkeypatch, cpus)
    expected_dir = GOLDEN / command / case
    produced = run_command_case(tmp_path, command, case)
    assert sorted(produced) == sorted(p.name for p in expected_dir.iterdir())
    for name, content in produced.items():
        assert content == (expected_dir / name).read_bytes(), name
    if command in ("traceroutes", "overlay"):
        inputs = len(TRACES) + 1 if command == "traceroutes" else 3
        assert len(forks) == min(cpus, inputs) - 1
    else:  # one feed file, a graph, an address list: nothing to share out
        assert forks == []
    assert_no_child_left()


def trace_dir(work: Path, count: int = 24, broken: tuple[int, ...] = (2, 9, 14, 21)) -> Path:
    """``count`` traces copied from the fixtures, the ``broken`` ones
    (indices in name order) malformed, so that they fall in different
    shares at 2 and 4 CPUs."""
    traces = work / "traces"
    traces.mkdir()
    for index in range(count):
        path = traces / f"t{index:03d}.txt"
        if index in broken:
            path.write_text(f"garbage {index}, not a trace\n", encoding="utf-8")
        else:
            shutil.copy(TRACES[index % len(TRACES)], path)
    return traces


def traceroutes(work: Path, traces: Path, fmt: str = "csv") -> tuple[int, str, str, bytes]:
    out = work / f"out-{fmt}"
    code, stdout, stderr = run(
        ["--output-dir", str(out), "--format", fmt, "traceroutes", str(traces)]
    )
    report = out / f"traceroute_report.{fmt}"
    return code, stdout, stderr, report.read_bytes() if report.exists() else b""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sharded_traceroutes_equal_one_process(tmp_path, monkeypatch, fmt):
    traces = trace_dir(tmp_path)
    patch_cpus(monkeypatch, 1)
    expected = traceroutes(tmp_path / "one", traces, fmt)
    code, stdout, stderr, report = expected
    assert code == 0
    assert stdout == "traces=20 errors=4\n"
    assert [line.split(":")[0:2] for line in stderr.splitlines()] == [
        ["error", f" t{index:03d}.txt"] for index in (2, 9, 14, 21)
    ]
    assert report.count(b"\n") > 20
    for cpus in (2, 4):
        forks = patch_cpus(monkeypatch, cpus)
        assert traceroutes(tmp_path / f"cpus-{cpus}", traces, fmt) == expected
        assert len(forks) == cpus - 1
        assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_traceroutes_io_error_follows_the_earlier_error_lines(tmp_path, monkeypatch, cpus):
    # at 2 CPUs the second share is t012..t023: t014 is malformed, t018 fails
    # to read, and t021, malformed, comes after it
    traces = trace_dir(tmp_path)
    patch_cpus(monkeypatch, cpus)
    read = traceroute_mod.read_trace_file

    def patched(path):
        if path.name == "t018.txt":
            raise OSError(5, "Input/output error", str(path))
        return read(path)

    monkeypatch.setattr(traceroute_mod, "read_trace_file", patched)
    code, stdout, stderr, report = traceroutes(tmp_path, traces)
    lines = stderr.splitlines()
    assert code == 2
    assert stdout == ""
    assert [line.split(":")[1] for line in lines[:3]] == [" t002.txt", " t009.txt", " t014.txt"]
    assert lines[3:] == [f"io error: [Errno 5] Input/output error: '{traces / 't018.txt'}'"]
    assert report == b""
    assert_no_child_left()


def test_dying_traceroutes_worker_is_named(tmp_path, monkeypatch):
    traces = trace_dir(tmp_path)
    patch_cpus(monkeypatch, 2)
    read = traceroute_mod.read_trace_file

    def patched(path):
        if path.name == "t020.txt":
            os._exit(3)
        return read(path)

    monkeypatch.setattr(traceroute_mod, "read_trace_file", patched)
    code, stdout, stderr, _ = traceroutes(tmp_path, traces)
    assert code == 1
    assert stdout == ""
    assert "error: traceroutes worker " in stderr
    assert "exited with status 3" in stderr
    assert "ingest" not in stderr
    assert_no_child_left()


def test_failing_traceroutes_share_stops_the_later_ones(tmp_path, monkeypatch):
    # the child would read for a minute: it is stopped, not waited for
    traces = trace_dir(tmp_path)
    patch_cpus(monkeypatch, 2)
    read = traceroute_mod.read_trace_file

    def patched(path):
        if path.name == "t001.txt":
            raise OSError(5, "Input/output error", str(path))
        if path.name == "t012.txt":
            time.sleep(60)
        return read(path)

    monkeypatch.setattr(traceroute_mod, "read_trace_file", patched)
    start = time.perf_counter()
    code, stdout, stderr, report = traceroutes(tmp_path, traces)
    assert time.perf_counter() - start < 30
    assert code == 2
    assert stderr == f"io error: [Errno 5] Input/output error: '{traces / 't001.txt'}'\n"
    assert (stdout, report) == ("", b"")
    assert_no_child_left()


def overlay(work: Path, legs: list[Path], direct: Path) -> tuple[int, str, str, dict]:
    out = work / "out"
    argv = ["--output-dir", str(out), "overlay", "--direct", str(direct)]
    for index, path in enumerate(legs):
        argv += ["--leg", f"L{index}={path}"]
    code, stdout, stderr = run(argv)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, stdout, stderr, files


@pytest.mark.parametrize(
    "failing,message",
    [
        ((1, 3), "analysis error: parse error at 2: bad sample 'x'"),
        ((2, 3), "input not found: "),
        ((3,), "analysis error: no samples in "),
    ],
)
def test_overlay_reports_the_first_failing_input(tmp_path, monkeypatch, failing, message):
    # inputs in command-line order: three legs, then --direct; input 1 has a
    # bad sample, input 2 is missing and input 3 is empty
    faults = {
        1: ("bad.txt", "12.5\nx\n"),
        2: ("missing.txt", None),
        3: ("empty.txt", "# none\n"),
    }
    inputs = [OVERLAY / "leg_ab.txt", OVERLAY / "leg_bc.txt", OVERLAY / "leg_ab.txt",
              OVERLAY / "direct_ac.txt"]
    for index in failing:
        name, text = faults[index]
        inputs[index] = tmp_path / name
        if text is not None:
            inputs[index].write_text(text, encoding="utf-8")
    patch_cpus(monkeypatch, 1)
    expected = overlay(tmp_path / "one", inputs[:3], inputs[3])
    code, stdout, stderr, files = expected
    assert code in (1, 2)
    assert stdout == ""
    assert stderr.startswith(message) and stderr.count("\n") == 1
    assert files == {}
    for cpus in (2, 4):
        patch_cpus(monkeypatch, cpus)
        assert overlay(tmp_path / f"cpus-{cpus}", inputs[:3], inputs[3]) == expected
        assert_no_child_left()


def test_overlay_composing_error_comes_before_the_direct_inputs(tmp_path, monkeypatch):
    # two legs near the largest float add up past it; --direct is missing
    huge = tmp_path / "huge.txt"
    huge.write_text("1.7e308\n", encoding="utf-8")
    argv = ["--output-dir", str(tmp_path / "out"), "overlay", "--mode-bin-width", "1e10",
            "--leg", f"A={huge}", "--leg", f"B={huge}", "--direct", str(tmp_path / "none.txt")]
    for cpus in (1, 2, 4):
        patch_cpus(monkeypatch, cpus)
        assert run(argv) == (
            1, "", "error: composing the legs gives a value that is not finite\n"
        )
        assert not (tmp_path / "out").exists()
        assert_no_child_left()


# a traceroutes command whose child goes through its slice slowly while the
# main process sleeps; argv: the trace directory, the file for the child's
# pid, the output dir
KILLED_TRACEROUTES = """
import os, sys, time
from pathlib import Path
from detourkit import cli
from detourkit import traceroute as traceroute_mod

traces, pid_file = sorted(Path(sys.argv[1]).iterdir()), sys.argv[2]
read = traceroute_mod.read_trace_file

def patched(path):
    if path == traces[0]:
        time.sleep(60)
    elif not os.path.exists(pid_file):
        with open(pid_file + ".tmp", "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        os.replace(pid_file + ".tmp", pid_file)
    time.sleep(1)  # the child's slice takes 40 s in all
    return read(path)

cli.usable_cpus = lambda: 2
traceroute_mod.read_trace_file = patched
cli.main(["--output-dir", sys.argv[3], "traceroutes", str(Path(sys.argv[1]))])
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_traceroutes_worker_of_a_killed_command_exits(tmp_path):
    # killed mid-slice, the worker stops at its next trace, not its last
    traces = trace_dir(tmp_path, count=80, broken=())
    pid_file = tmp_path / "worker.pid"
    argv = [str(traces), str(pid_file), str(tmp_path / "out")]
    assert_worker_of_killed_command_exits(KILLED_TRACEROUTES, argv, pid_file)
