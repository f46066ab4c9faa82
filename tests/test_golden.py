"""Golden-output gate: every command's output must stay byte-identical.

Each case runs the CLI and compares stdout (and, for the non-detours
commands, stderr) plus every file it writes with the captured files under
``fixtures/golden/<command>/<case>/``. The `detours` cases run on fixture
graphs; the others read the small inputs in ``fixtures/golden/inputs/``,
the traceroute corpus and the overlay samples. Work-directory paths in
stdout/stderr are written as ``<work>``, and the geo cache is compared
without its wall-clock ``timestamp`` column. Regenerate the files
deliberately, from a build whose output is known good, with::

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, make_graph, save_graph
from detourkit.cli import main
from test_cli import FOUR_NODE_EDGES, REFERENCE_EDGES

GOLDEN = FIXTURES / "golden"
INPUTS = GOLDEN / "inputs"
GRAPHS = {"reference": REFERENCE_EDGES, "four_node": FOUR_NODE_EDGES}
CASES = [
    (graph, fmt, cumulative)
    for graph in GRAPHS
    for fmt in ("csv", "json")
    for cumulative in (False, True)
]


def case_name(graph: str, fmt: str, cumulative: bool) -> str:
    return f"{graph}-{fmt}" + ("-cumulative" if cumulative else "")


def run_case(work: Path, graph: str, fmt: str, cumulative: bool) -> dict[str, bytes]:
    """Run `detours` in ``work``; returns output file name -> bytes."""
    snapshot = work / "graph.csv"
    save_graph(make_graph(GRAPHS[graph]), snapshot)
    out = work / "out"
    argv = ["--output-dir", str(out), "--format", fmt, "detours", str(snapshot)]
    if cumulative:
        argv.append("--cumulative")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0
    files = {"stdout.txt": stdout.getvalue().encode("utf-8")}
    for name in (f"insights.{fmt}", f"histogram.{fmt}"):
        files[name] = (out / name).read_bytes()
    return files


def _config(work: Path, text: str) -> list[str]:
    path = work / "pipeline.cfg"
    path.write_text(text.format(work=work, inputs=INPUTS), encoding="utf-8")
    return ["--config", str(path)]


def _trace_dir(work: Path) -> str:
    traces = work / "traces"
    shutil.copytree(FIXTURES / "traceroutes", traces)
    (traces / "00_broken.txt").write_text("utter garbage, not a trace\n", encoding="utf-8")
    return str(traces)


def _reference_snapshot(work: Path) -> str:
    snapshot = work / "graph.csv"
    save_graph(make_graph(REFERENCE_EDGES), snapshot)
    return str(snapshot)


def _warm_cache(work: Path, name: str = "geo_cache.csv") -> str:
    cache = work / "cache.csv"
    shutil.copy(INPUTS / name, cache)
    return str(cache)


# located endpoints (8.8.0.1, 8.8.0.3), a country without a city (8.8.0.9),
# an uncached address (8.8.0.7), and a reserved address, a probe id and a host
# name that all have rows in the cache but must still print as themselves
GEO_EDGES = {
    ("8.8.0.1", "8.8.0.9"): 1.0,
    ("8.8.0.9", "8.8.0.3"): 1.0,
    ("8.8.0.1", "8.8.0.3"): 10.0,
    ("100", "10.0.0.1"): 1.0,
    ("10.0.0.1", "host.example"): 1.0,
    ("100", "host.example"): 5.0,
    ("host.example", "8.8.0.7"): 2.0,
    ("8.8.0.7", "8.8.0.1"): 2.0,
    ("8.8.0.3", "100"): 1.0,
}


def _geo_snapshot(work: Path) -> str:
    snapshot = work / "graph.csv"
    save_graph(make_graph(GEO_EDGES), snapshot)
    return str(snapshot)


def _overlay_args(*extra: str) -> list[str]:
    return [
        "overlay",
        "--leg",
        f"AB={FIXTURES / 'overlay' / 'leg_ab.txt'}",
        "--leg",
        f"BC={FIXTURES / 'overlay' / 'leg_bc.txt'}",
        "--direct",
        str(FIXTURES / "overlay" / "direct_ac.txt"),
        *extra,
    ]


INGEST_FLAGS = [
    "--status",
    "stopped",
    "--af",
    "4",
    "--min-start",
    "2023-05-13",
    "--max-start",
    "2023-05-16",
    "--sidecar",
    str(INPUTS / "sidecar.csv"),
    "--regions",
    "us, de",
    "--geo-cache",
    str(INPUTS / "geo_cache.csv"),
]

# (command, case) -> work dir -> argv; the CLI writes into work/out or work/cache.csv
COMMAND_CASES = {
    ("ingest", "flags"): lambda w: [
        "--output-dir", str(w / "out"), "ingest", str(INPUTS / "feed.jsonl"), *INGEST_FLAGS
    ],
    ("ingest", "config"): lambda w: _config(
        w,
        "[filter]\nstatus = Stopped\naf = any\nmin_start = 1683950000\n"
        "max_start = 2023-05-17T06:00:00\n\n"
        "[ingest]\nkey_by = probe\nsidecar = {inputs}/sidecar.csv\n\n"
        "[output]\ndir = {work}/out\nformat = JSON\n",
    )
    + ["ingest", str(INPUTS / "feed.jsonl")],
    ("traceroutes", "csv"): lambda w: [
        "--output-dir", str(w / "out"), "--format", "csv",
        "traceroutes", _trace_dir(w), "--geo-cache", str(INPUTS / "geo_cache.csv"),
    ],
    ("traceroutes", "json"): lambda w: [
        "--output-dir", str(w / "out"), "--format", "json",
        "traceroutes", _trace_dir(w), "--geo-cache", str(INPUTS / "geo_cache.csv"),
    ],
    # rDNS tokens alone: a trace with mostly dark hops is Unknown
    ("traceroutes", "no-geo"): lambda w: [
        "--output-dir", str(w / "out"), "traceroutes", _trace_dir(w),
    ],
    ("overlay", "csv"): lambda w: ["--output-dir", str(w / "out"), "--format", "csv"]
    + _overlay_args("--mode-bin-width", "0.01", "--forwarding-delay", "0.25"),
    ("overlay", "json"): lambda w: ["--output-dir", str(w / "out"), "--format", "json"]
    + _overlay_args("--mode-bin-width", "0.01", "--forwarding-delay", "0.25"),
    ("overlay", "config"): lambda w: _config(
        w,
        "[overlay]\nmode_bin_width_ms = 0.25\nforwarding_delay_ms = 1.5\n\n"
        "[output]\ndir = {work}/out\n",
    )
    + _overlay_args(),
    # one leg composed, and a verdict decided by mean
    ("overlay", "one-leg"): lambda w: [
        "--output-dir", str(w / "out"), "overlay",
        "--leg", f"AB={FIXTURES / 'overlay' / 'leg_ab.txt'}",
        "--direct", str(FIXTURES / "overlay" / "direct_ac.txt"),
        "--mode-bin-width", "0.01",
    ],
    ("detours", "config"): lambda w: _config(
        w,
        "[detours]\nthreshold_pct = 10\nbucket_width_pct = 5\ntop = 2\ncumulative = yes\n\n"
        "[output]\ndir = {work}/out\nformat = json\n",
    )
    + ["detours", _reference_snapshot(w)],
    ("detours", "geo"): lambda w: [
        "--output-dir", str(w / "out"), "detours", _geo_snapshot(w),
        "--geo-cache", _warm_cache(w, "detours_geo_cache.csv"),
    ],
    ("geo-warm", "flags"): lambda w: [
        "geo-warm", str(INPUTS / "ips.txt"), "--geo-cache", _warm_cache(w),
        "--geo-provider", "static", "--geo-static-file", str(INPUTS / "static_geo.csv"),
    ],
    ("geo-warm", "config"): lambda w: _config(
        w,
        "[geo]\nprovider = Static\nstatic_file = {inputs}/static_geo.csv\n"
        "cache = {work}/cache.csv\n",
    )
    + ["geo-warm", str(INPUTS / "ips.txt")],
}


def run_command_case(work: Path, command: str, case: str) -> dict[str, bytes]:
    """Run one command case in ``work``; returns output file name -> bytes."""
    argv = COMMAND_CASES[(command, case)](work)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 0, stderr.getvalue()
    files = {
        "stdout.txt": stdout.getvalue().replace(str(work), "<work>").encode("utf-8"),
        "stderr.txt": stderr.getvalue().replace(str(work), "<work>").encode("utf-8"),
    }
    out = work / "out"
    if out.is_dir():
        files.update((path.name, path.read_bytes()) for path in sorted(out.iterdir()))
    cache = work / "cache.csv"
    if cache.exists():
        with open(cache, newline="", encoding="utf-8") as handle:
            rows = [row[:-1] for row in csv.reader(handle)]
        text = io.StringIO()
        csv.writer(text).writerows(rows)
        files["cache_rows.csv"] = text.getvalue().encode("utf-8")
    return files


@pytest.mark.parametrize(
    "graph,fmt,cumulative", CASES, ids=[case_name(*case) for case in CASES]
)
def test_detours_golden_output(tmp_path, graph, fmt, cumulative):
    expected_dir = GOLDEN / "detours" / case_name(graph, fmt, cumulative)
    for name, produced in run_case(tmp_path, graph, fmt, cumulative).items():
        assert produced == (expected_dir / name).read_bytes(), name


@pytest.mark.parametrize(
    "command,case", list(COMMAND_CASES), ids=[f"{c}-{k}" for c, k in COMMAND_CASES]
)
def test_command_golden_output(tmp_path, command, case):
    expected_dir = GOLDEN / command / case
    produced = run_command_case(tmp_path, command, case)
    assert sorted(produced) == sorted(p.name for p in expected_dir.iterdir())
    for name, content in produced.items():
        assert content == (expected_dir / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    def capture(target: Path, files: dict[str, bytes]) -> None:
        target.mkdir(parents=True, exist_ok=True)
        for name, produced in files.items():
            (target / name).write_bytes(produced)
        print(f"wrote {target}", file=sys.stderr)

    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            capture(GOLDEN / "detours" / case_name(*case), run_case(Path(work), *case))
    for command, case in COMMAND_CASES:
        with tempfile.TemporaryDirectory() as work:
            capture(GOLDEN / command / case, run_command_case(Path(work), command, case))
