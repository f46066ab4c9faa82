"""Golden-output gate: `detours` output must stay byte-identical.

Each case runs the CLI on a fixture graph and compares stdout, the insight
file and the histogram file with the captured files under
``fixtures/golden/detours/<case>/``. Regenerate them deliberately, from a
build whose output is known good, with::

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, make_graph
from detourkit.cli import main
from detourkit.graph import save_graph
from test_cli import FOUR_NODE_EDGES, REFERENCE_EDGES

GOLDEN = FIXTURES / "golden" / "detours"
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


@pytest.mark.parametrize(
    "graph,fmt,cumulative", CASES, ids=[case_name(*case) for case in CASES]
)
def test_detours_golden_output(tmp_path, graph, fmt, cumulative):
    expected_dir = GOLDEN / case_name(graph, fmt, cumulative)
    for name, produced in run_case(tmp_path, graph, fmt, cumulative).items():
        assert produced == (expected_dir / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    for case in CASES:
        target = GOLDEN / case_name(*case)
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as work:
            for name, produced in run_case(Path(work), *case).items():
                (target / name).write_bytes(produced)
        print(f"wrote {target}", file=sys.stderr)
