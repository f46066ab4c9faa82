"""``ingest``, ``traceroutes``, ``overlay`` and ``detours`` on every CPU,
through ``cli.run_shares``.

``ingest`` deals its feed files round-robin into one share per usable CPU.
``cli.map_in_order`` cuts a command's inputs into one contiguous slice per
usable CPU, runs the first slice in the command's own process and each
other one in a forked child, and hands the results back in input order.
``detours`` cuts its bridge rows by source the same way, and copies each
child's part file in after its own rows. These tests patch the CPU count
(and, for ``detours``, the bridges a share needs), so the fork path runs on
any runner: the output, stdout, stderr and exit code must be byte-identical
to one process going through the inputs in order, errors included, and no
child, part file or temporary file may be left behind.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    load_graph,
    make_graph,
    random_graph,
    ranked,
    save_graph,
    write_insights_csv,
)
from detourkit import cli
from detourkit import detours as detours_mod
from detourkit import traceroute as traceroute_mod
from test_cli import FUZZED_INPUTS, _spliced
from test_detours import reference_json
from test_golden import CASES, COMMAND_CASES, GOLDEN, case_name, run_case, run_command_case
from test_ingest_oracle import (
    LINE,
    TIMES,
    assert_conserved,
    counters,
    csv_lines,
    endpoints,
    json_lines,
    other_lines,
)
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
        # overlay writes one distribution file per input
        overlay_inputs = sum(name.startswith("distribution_") for name in produced)
        inputs = len(TRACES) + 1 if command == "traceroutes" else overlay_inputs
        assert len(forks) == min(cpus, inputs) - 1
    else:  # one feed file, a graph, an address list: nothing to share out
        assert forks == []
    assert_no_child_left()


def ping_line(source: str, destination: str, rtt: float) -> str:
    return json.dumps({"msm_id": 1, "prb_id": 1, "from": source, "dst_addr": destination,
                       "af": 4, "timestamp": 1_680_000_000, "result": [{"rtt": rtt}]}) + "\n"


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_overflow_names_the_first_pair_in_row_order_at_any_cpu_count(tmp_path, monkeypatch, cpus):
    # two pairs' RTTs add up past the largest float; at 2 CPUs f0 and f2
    # share the main process and f1 is a child's, so the pair met first in
    # the joined groups is not the first in row order
    lines = {
        "f0": [ping_line("8.8.0.5", "8.8.0.6", 10.0)],
        "f1": [ping_line("8.8.0.1", "8.8.0.2", 1.5e308)] * 2,
        "f2": [ping_line("8.8.0.3", "8.8.0.4", 1.5e308)] * 2,
    }
    feeds = []
    for name, text in lines.items():
        feeds.append(tmp_path / f"{name}.jsonl")
        feeds[-1].write_text("".join(text), encoding="utf-8")
    forks = patch_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    code, stdout, stderr = run(["--output-dir", str(out), "ingest", *map(str, feeds)])
    assert (code, stdout) == (1, "")
    assert stderr == "error: RTTs of 8.8.0.1 -> 8.8.0.2 add up past the largest float\n"
    assert not out.exists()
    assert len(forks) == min(cpus, len(feeds)) - 1
    assert_no_child_left()


# lines whose RTTs add up past the largest float once two meet in one edge,
# between few pairs, each endpoint spelled several ways
overflow_lines = st.builds(
    lambda source, destination: (LINE % (source, destination, 104)).replace("1.5}", "1.5e308}"),
    st.sampled_from(["8.8.0.1", "8.8.000.1"]),
    st.sampled_from(["8.8.0.3", "008.8.0.3", "8.8.0.4"]),
)
NOT_UTF8_LINES = [
    (LINE % ("8.8.0.1", "8.8.0.2", 100)).encode().replace(b"0.2", b"0.\xff"),
    b"1,8.8.0.1,8.8.0.2,4,stopped,100,1.5,\xe9,",
]
# lines kept but for the filters drawn
plain_lines = st.builds(LINE.__mod__, st.tuples(endpoints, endpoints, st.sampled_from(TIMES)))
# the per-line oracle's JSON, CSV-fallback and malformed lines, and those above
feed_files = st.lists(
    st.lists(
        st.one_of(
            plain_lines,
            plain_lines,
            json_lines(),
            csv_lines(),
            st.one_of(other_lines, overflow_lines, st.sampled_from(NOT_UTF8_LINES)),
        ),
        min_size=4,
        max_size=20,
    ),
    min_size=1,
    max_size=4,
)
FILTER_FLAGS = [("--status", "stopped"), ("--min-start", "102"), ("--regions", "US"), ("--af-any",)]
SIDECAR = "measurement_id,status,start_time\n1,ongoing,\nm3,stopped,105\n"


def ingest_run(work: Path, argv: list[str], cpus: int) -> tuple:
    """``ingest``'s exit code, stdout, stderr, snapshot bytes and merged
    counters with ``cpus`` usable CPUs; the merged record must conserve."""
    merged = []
    ingest_to_rows = cli.ingest_to_rows

    def recorded(*args, **kwargs):
        merged.append(ingest_to_rows(*args, **kwargs))
        return merged[-1]

    snapshot = work / "out" / "graph.csv"
    snapshot.unlink(missing_ok=True)
    with mock.patch.object(cli, "usable_cpus", lambda: cpus):
        with mock.patch.object(cli, "ingest_to_rows", recorded):
            code, stdout, stderr = run(argv)
    assert_no_child_left()
    for _, stats in merged:
        assert_conserved(load_graph(snapshot), stats)
    written = snapshot.read_bytes() if snapshot.exists() else None
    return code, stdout, stderr, written, [counters(stats) for _, stats in merged]


@settings(max_examples=40, deadline=None)
@given(
    files=feed_files,
    flags=st.lists(st.sampled_from(FILTER_FLAGS), unique=True, max_size=3),
    sidecar=st.booleans(),
    cpus=st.integers(2, 4),
)
# the pair that fails first in row order is a child's, another failing pair
# the command's own process's
@example(
    files=[
        [LINE % ("8.8.0.5", "8.8.0.6", 104)],
        [(LINE % ("8.8.0.1", "8.8.0.3", 104)).replace("1.5}", "1.5e308}")] * 2,
        [(LINE % ("8.8.0.2", "8.8.0.4", 104)).replace("1.5}", "1.5e308}")] * 2,
    ],
    flags=[],
    sidecar=False,
    cpus=2,
)
def test_ingest_is_the_same_at_any_cpu_count(files, flags, sidecar, cpus):
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)
        argv = ["--output-dir", str(work / "out"), "ingest"]
        for index, lines in enumerate(files):
            feed = work / f"feed-{index}.jsonl"
            feed.write_bytes(b"".join(
                (line if isinstance(line, bytes) else line.encode()) + b"\n" for line in lines
            ))
            argv.append(str(feed))
        argv += [word for flag in flags for word in flag]
        if sidecar:
            (work / "meta.csv").write_text(SIDECAR, encoding="utf-8")
            argv += ["--sidecar", str(work / "meta.csv")]
        one = ingest_run(work, argv, 1)
        assert ingest_run(work, argv, cpus) == one
    assert one[0] in (0, 1)


def command_run(work: Path, argv: list[str], cpus: int) -> tuple:
    """The command's exit code, stdout, stderr and the files it wrote in
    ``work / "out"``, its output dir, with ``cpus`` usable CPUs."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    with mock.patch.object(cli, "usable_cpus", lambda: cpus):
        code, stdout, stderr = run(argv)
    assert_no_child_left()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, stdout, stderr, files


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


# trace files that fail to parse, each in another way
MALFORMED_TRACES = [
    b"garbage, not a trace\n",
    b"# a label | but no hops\n",
    b"",
    b" 1  a.example (192.0.2.1)  1.0 ms\n 1  b.example (192.0.2.2)  2.0 ms\n",
    b" 1  a.example (192.0.2.1)  1.0 ms\n# a header after hop lines\n",
    b" 1  a.example (192.0.2.1)  1.0\n",
    b"traceroute to \xff.example (192.0.2.9), 30 hops max\n 1  a (192.0.2.1)  1.0 ms\n",
]
# a trace directory's files in name order: fixture traces, malformed ones,
# and a trace with a few arbitrary bytes put in
trace_files = st.lists(
    st.one_of(
        st.sampled_from(TRACES),
        st.sampled_from(MALFORMED_TRACES),
        _spliced(FUZZED_INPUTS["trace"][1]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(files=trace_files, fmt=st.sampled_from(["csv", "json"]), cpus=st.integers(2, 4))
def test_traceroutes_is_the_same_at_any_cpu_count(files, fmt, cpus):
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)
        traces = work / "traces"
        traces.mkdir()
        for index, trace in enumerate(files):
            text = trace.read_bytes() if isinstance(trace, Path) else trace
            (traces / f"t{index:02d}.txt").write_bytes(text)
        argv = ["--output-dir", str(work / "out"), "--format", fmt, "traceroutes", str(traces)]
        one = command_run(work, argv, 1)
        assert command_run(work, argv, cpus) == one
    assert one[0] == 0


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
        ((0, 1, 3), "analysis error: parse error at 5001: sample must be finite and > 0, got 'nan'"),
    ],
)
def test_overlay_reports_the_first_failing_input(tmp_path, monkeypatch, failing, message):
    # inputs in command-line order: three legs, then --direct; input 0 has a
    # nan at line 5001, input 1 has a bad sample, input 2 is missing and
    # input 3 is empty
    faults = {
        0: ("late.txt", "12.5\n" * 5000 + "nan\n13.5\n"),
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


# an overlay input: a fixture leg, a few samples drawn from clusters or at
# random, a sample file with a few arbitrary bytes put in, or one that fails
# (empty, a bad sample, a zero, a nan, a byte that is not UTF-8, past the
# largest float once binned, or missing)
overlay_inputs = st.one_of(
    st.sampled_from([OVERLAY / "leg_ab.txt", OVERLAY / "leg_bc.txt", OVERLAY / "direct_ac.txt"]),
    st.lists(
        st.sampled_from([5.0, 5.5, 6.25, 20.0, 21.5, 40.0]) | st.floats(1.0, 60.0),
        min_size=1,
        max_size=40,
    ).map(lambda samples: "".join(f"{sample!r}\n" for sample in samples).encode()),
    _spliced(FUZZED_INPUTS["samples"][1]),
    st.sampled_from(
        [b"# none\n", b"12.5\nx\n", b"12.5\n0\n", b"12.5\nnan\n", b"12.5\n\xff\n", b"1.7e308\n",
         "missing"]
    ),
)


@settings(max_examples=25, deadline=None)
@given(
    legs=st.lists(overlay_inputs, max_size=3),
    direct=st.none() | overlay_inputs,
    width=st.sampled_from(["0.5", "5"]),
    fmt=st.sampled_from(["csv", "json"]),
    cpus=st.integers(2, 4),
)
# at 3 CPUs each input has a share: the legs' composing error still comes
# before the missing --direct input's
@example(legs=[b"1.7e308\n", b"1.7e308\n"], direct="missing", width="5", fmt="csv", cpus=3)
def test_overlay_is_the_same_at_any_cpu_count(legs, direct, width, fmt, cpus):
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)

        def path_of(index: int, sample: Path | bytes | str) -> Path:
            if isinstance(sample, Path):
                return sample
            path = work / f"input-{index}.txt"
            if sample != "missing":
                path.write_bytes(sample)
            return path

        argv = ["--output-dir", str(work / "out"), "--format", fmt, "overlay",
                "--mode-bin-width", width]
        for index, leg in enumerate(legs):
            argv += ["--leg", f"L{index}={path_of(index, leg)}"]
        if direct is not None:
            argv += ["--direct", str(path_of(len(legs), direct))]
        one = command_run(work, argv, 1)
        assert command_run(work, argv, cpus) == one
    assert one[0] in (0, 1, 2)


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


DETOURS_CASES = [case_name(*case) for case in CASES] + ["config", "geo"]


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("case", DETOURS_CASES)
def test_golden_detours_output_with_bridges_in_shares(tmp_path, monkeypatch, case, cpus):
    # one bridge is enough for a share, so the golden graphs take the fork path
    forks = patch_cpus(monkeypatch, cpus)
    monkeypatch.setattr(detours_mod, "BRIDGE_ROWS_PER_SHARE", 1)
    expected_dir = GOLDEN / "detours" / case
    if case in ("config", "geo"):
        produced = run_command_case(tmp_path, "detours", case)
    else:
        produced = run_case(tmp_path, *CASES[DETOURS_CASES.index(case)])
    assert sorted(produced) == sorted(p.name for p in expected_dir.iterdir())
    for name, content in produced.items():
        assert content == (expected_dir / name).read_bytes(), name
    bridges = int(re.search(rb"bridges=(\d+)", produced["stdout.txt"]).group(1))
    assert len(forks) == min(cpus, bridges) - 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        name for name in produced if name.startswith(("insights.", "histogram."))
    )
    assert_no_child_left()


def ring(count: int) -> dict[tuple[str, str], float]:
    """Edges h000 -> h001 -> ... -> h<count-1> -> h000: each source bridges
    to the endpoint after next through the next one, one triplet each."""
    return {(f"h{i:03d}", f"h{(i + 1) % count:03d}"): 1.0 + i for i in range(count)}


# a0, a1 and a2 all linked: 12 triplets and no bridge, ranked before the
# ring's 12, so at 2 CPUs the first share has no bridge and the second all
TRIANGLE = {(s, d): 1.0 for s in ("a0", "a1", "a2") for d in ("a0", "a1", "a2") if s != d}
SLOW_TRIANGLE = {**TRIANGLE, ("a0", "a2"): 10.0}  # a0 -> a2 saves 80% through a1

EDGE_GRAPHS = {
    "bridges-only": ring(12),
    "first-share-without-bridges": {**TRIANGLE, **ring(12)},
    "improvements-then-first-share-without-bridges": {**SLOW_TRIANGLE, **ring(12)},
    "improvements-without-bridges": SLOW_TRIANGLE,
    "no-insights": {("a0", "a1"): 1.0},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("graph", list(EDGE_GRAPHS))
def test_detours_file_edge_cases_at_any_cpu_count(tmp_path, monkeypatch, graph, fmt):
    edges = make_graph(EDGE_GRAPHS[graph])
    rows = detours_mod.search_detours(*ranked(edges), 1.0)
    if graph.endswith("first-share-without-bridges"):
        first, second = rows.bridge_slices(2)
        assert not list(rows.bridge_runs(first)) and list(rows.bridge_runs(second))
    expected = tmp_path / "expected"
    if fmt == "json":
        expected.write_text(reference_json(rows.insights()), encoding="utf-8")
    else:
        write_insights_csv(rows.insights(), expected)
    snapshot = tmp_path / "graph.csv"
    save_graph(edges, snapshot)
    monkeypatch.setattr(detours_mod, "BRIDGE_ROWS_PER_SHARE", 1)
    for cpus in (1, 2, 4):
        forks = patch_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus-{cpus}"
        code, _, stderr = run(["--output-dir", str(out), "--format", fmt, "detours", str(snapshot)])
        assert (code, stderr) == (0, "")
        assert (out / f"insights.{fmt}").read_bytes() == expected.read_bytes()
        assert sorted(p.name for p in out.iterdir()) == [f"histogram.{fmt}", f"insights.{fmt}"]
        assert len(forks) == max(min(cpus, rows.bridge_count), 1) - 1
        assert_no_child_left()


# snapshot edges between a few endpoints, drawn from the 21 ordered pairs of
# two different ones, with integer RTTs so that improvements of equal pct
# fall in different bridge slices
EDGE_PAIRS = [
    (source, destination)
    for source in ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5"]
    for destination in ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.6"]
    if source != destination
]
snapshot_edges = st.dictionaries(
    st.sampled_from(EDGE_PAIRS), st.integers(1, 9), min_size=4, max_size=18
)
# a malformed row to put in among the others, in about a third of the examples
SNAPSHOT_FAULTS = st.sampled_from(
    [None] * 6 + ["10.0.0.1,10.0.0.2,x,1,1", "10.0.0.1,10.0.0.2,0,1,1", "10.0.0.3,10.0.0.3,1,1,1"]
)


def detours_run(work: Path, argv: list[str], cpus: int) -> tuple:
    """:func:`command_run` of ``detours``, a share for every bridge."""
    with mock.patch.object(detours_mod, "BRIDGE_ROWS_PER_SHARE", 1):
        return command_run(work, argv, cpus)


@settings(max_examples=60, deadline=None)
@given(
    edges=snapshot_edges,
    fault=SNAPSHOT_FAULTS,
    at=st.integers(0, 18),
    duplicate=st.sampled_from([False, False, False, True]),
    fmt=st.sampled_from(["csv", "json"]),
    threshold=st.sampled_from(["0", "1", "30", "100"]),
    cpus=st.integers(2, 4),
)
# improvements that tie at 50% in the first source's slice and the last
# one's, with bridges in between
@example(
    edges={
        ("10.0.0.1", "10.0.0.2"): 1, ("10.0.0.2", "10.0.0.3"): 1, ("10.0.0.1", "10.0.0.3"): 4,
        ("10.0.0.3", "10.0.0.4"): 1, ("10.0.0.4", "10.0.0.1"): 1, ("10.0.0.4", "10.0.0.2"): 4,
        ("10.0.0.2", "10.0.0.6"): 2,
    },
    fault=None,
    at=0,
    duplicate=False,
    fmt="json",
    threshold="1",
    cpus=4,
)
# no improvements, and at 2 CPUs only the second slice has bridges (4 -> 1 -> 2
# and 4 -> 1 -> 3), so the JSON separator cut moves on to the child's part
@example(
    edges={
        **{(f"10.0.0.{s}", f"10.0.0.{d}"): 1 for s in (1, 2, 3) for d in (1, 2, 3) if s != d},
        ("10.0.0.4", "10.0.0.1"): 1,
    },
    fault=None,
    at=0,
    duplicate=False,
    fmt="json",
    threshold="100",
    cpus=2,
)
def test_detours_is_the_same_at_any_cpu_count(edges, fault, at, duplicate, fmt, threshold, cpus):
    rows = [f"{source},{destination},{rtt},1,1" for (source, destination), rtt in edges.items()]
    # 10.0.0.5 is spelled 10.0.0.05 in every other row
    rows[1::2] = [row.replace("10.0.0.5", "10.0.0.05") for row in rows[1::2]]
    if duplicate and rows:
        rows.append(rows[0].replace(",1,1", ",2,2"))  # the first row's edge again
    if fault is not None:
        rows.insert(at, fault)
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)
        snapshot = work / "graph.csv"
        snapshot.write_text(
            "\n".join(["source,destination,rtt_ms,sample_count,measurement_count", *rows]) + "\n",
            encoding="utf-8",
        )
        argv = ["--output-dir", str(work / "out"), "--format", fmt, "detours", str(snapshot),
                "--threshold-pct", threshold]
        one = detours_run(work, argv, 1)
        assert detours_run(work, argv, cpus) == one
    assert one[0] in (0, 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
    count=st.integers(1, 6),
)
def test_bridge_runs_over_contiguous_slices_are_the_whole_walk(seed, cuts, count):
    rows = detours_mod.search_detours(*ranked(random_graph(random.Random(seed), max_nodes=14)), 1.0)
    whole = list(rows.bridge_runs())
    size = len(rows.nodes)
    bounds = [0, *sorted(int(cut * size) for cut in cuts), size]
    partition = [range(start, stop) for start, stop in zip(bounds, bounds[1:])]
    assert [run for part in partition for run in rows.bridge_runs(part)] == whole
    slices = rows.bridge_slices(count)
    assert len(slices) == count
    assert [rank for part in slices for rank in part] == list(range(size))
    assert [run for part in slices for run in rows.bridge_runs(part)] == whole


def bridge_runs_failing_in(monkeypatch, fail) -> None:
    """Make a forked child's walk call ``fail()`` once it has rendered a
    run; the command's own process walks as before."""
    walk = detours_mod.DetourRows.bridge_runs
    command = os.getpid()

    def patched(self, sources=None):
        for index, run in enumerate(walk(self, sources)):
            if index == 1 and os.getpid() != command:
                fail()
            yield run

    monkeypatch.setattr(detours_mod.DetourRows, "bridge_runs", patched)


def raise_toolkit_error():
    raise cli.ToolkitError("walk failed")


def die():
    os._exit(3)


@pytest.mark.parametrize(
    "fail,message",
    [
        (die, r"error: detours worker \d+ exited with status 3"),
        (raise_toolkit_error, "error: walk failed"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failing_detours_worker_leaves_the_old_file_alone(
    tmp_path, monkeypatch, fmt, fail, message
):
    snapshot = tmp_path / "graph.csv"
    save_graph(make_graph(ring(40)), snapshot)
    out = tmp_path / "out"
    out.mkdir()
    (out / f"insights.{fmt}").write_text("earlier insights\n", encoding="utf-8")
    patch_cpus(monkeypatch, 2)
    monkeypatch.setattr(detours_mod, "BRIDGE_ROWS_PER_SHARE", 1)
    bridge_runs_failing_in(monkeypatch, fail)
    argv = ["--output-dir", str(out), "--format", fmt, "detours", str(snapshot)]
    code, stdout, stderr = run(argv)
    assert code == 1
    assert stdout == ""
    assert re.fullmatch(message + "\n", stderr)
    assert [p.name for p in out.iterdir()] == [f"insights.{fmt}"]
    assert (out / f"insights.{fmt}").read_text(encoding="utf-8") == "earlier insights\n"
    assert_no_child_left()


@pytest.mark.parametrize(
    "child_done,left",
    [(False, "..insights.csv.*.part1.*.tmp"), (True, ".insights.csv.*.part1")],
    ids=["child-writing", "child-done"],
)
def test_failing_detours_main_share_removes_the_worker_files(
    tmp_path, monkeypatch, child_done, left
):
    # the command's own share fails once the child has its temporary part
    # file open (the child, which would walk for a minute, is killed) or
    # once the child has renamed its finished part
    snapshot = tmp_path / "graph.csv"
    save_graph(make_graph(ring(40)), snapshot)
    out = tmp_path / "out"
    patch_cpus(monkeypatch, 2)
    monkeypatch.setattr(detours_mod, "BRIDGE_ROWS_PER_SHARE", 1)
    walk = detours_mod.DetourRows.bridge_runs
    command = os.getpid()

    def patched(self, sources=None):
        for run in walk(self, sources):
            if os.getpid() != command:
                if not child_done:
                    time.sleep(60)
                yield run
                continue
            deadline = time.monotonic() + 20
            while not list(out.glob(left)):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            raise cli.ToolkitError("main share failed")

    monkeypatch.setattr(detours_mod.DetourRows, "bridge_runs", patched)
    start = time.perf_counter()
    code, stdout, stderr = run(["--output-dir", str(out), "detours", str(snapshot)])
    assert time.perf_counter() - start < 30
    assert (code, stdout, stderr) == (1, "", "error: main share failed\n")
    assert list(out.iterdir()) == []
    assert_no_child_left()


# a detours command whose child walks its bridges slowly while the main
# process sleeps; argv: the snapshot, the file for the child's pid, the output dir
KILLED_DETOURS = """
import os, sys, time
from detourkit import cli
from detourkit import detours as detours_mod

pid_file, command = sys.argv[2], os.getpid()
walk = detours_mod.DetourRows.bridge_runs

def patched(self, sources=None):
    if os.getpid() == command:
        time.sleep(60)
    elif not os.path.exists(pid_file):
        with open(pid_file + ".tmp", "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        os.replace(pid_file + ".tmp", pid_file)
    for run in walk(self, sources):
        time.sleep(1)  # the child's 40 runs take 40 s in all
        yield run

cli.usable_cpus = lambda: 2
detours_mod.BRIDGE_ROWS_PER_SHARE = 1
detours_mod.DetourRows.bridge_runs = patched
cli.main(["--output-dir", sys.argv[3], "detours", sys.argv[1]])
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_detours_worker_of_a_killed_command_exits(tmp_path):
    snapshot = tmp_path / "graph.csv"
    save_graph(make_graph(ring(80)), snapshot)
    pid_file = tmp_path / "worker.pid"
    argv = [str(snapshot), str(pid_file), str(tmp_path / "out")]
    assert_worker_of_killed_command_exits(KILLED_DETOURS, argv, pid_file)
