"""Self-tests of the benchmark harness, on small generated inputs.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import io
import shutil
import unittest
from pathlib import Path

import gen
import run
import spans

SCALE = 0.05
SELFTEST = run.WORK / "selftest"


def small_run(workload: str, name: str) -> run.Run:
    base = SELFTEST / name
    shutil.rmtree(base, ignore_errors=True)
    expected = gen.generate(workload, 7, base / "inputs", scale=SCALE)
    return run.Run(workload, 7, base / "inputs", expected, base / "rundir")


def tree(root: Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                dirs = [SELFTEST / f"same-{workload}-{i}" for i in range(3)]
                for d in dirs:
                    shutil.rmtree(d, ignore_errors=True)
                gen.generate(workload, 11, dirs[0], scale=SCALE)
                gen.generate(workload, 11, dirs[1], scale=SCALE)
                gen.generate(workload, 12, dirs[2], scale=SCALE)
                self.assertEqual(tree(dirs[0]), tree(dirs[1]))
                self.assertNotEqual(tree(dirs[0]), tree(dirs[2]))


class ChecksTest(unittest.TestCase):
    def test_every_workload_passes_its_checks(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                bench = small_run(workload, f"pass-{workload}")
                bench.sequence(0, traced=False)
                self.assertGreater(bench.attempted, 0)
                self.assertEqual(bench.failed, 0)

    def test_corrupted_histogram_count_is_a_failure(self) -> None:
        bench = small_run("detours-dense", "corrupt")
        original = run.spawn

        def corrupting_spawn(*args, **kwargs):
            result = original(*args, **kwargs)
            histogram = bench.rundir / "out" / "histogram.csv"
            rows = histogram.read_text(encoding="utf-8").splitlines()
            bucket, count = rows[1].split(",")
            rows[1] = f"{bucket},{int(count) + 1}"
            histogram.write_text("\n".join(rows) + "\n", encoding="utf-8")
            return result

        run.spawn = corrupting_spawn
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                bench.sequence(0, traced=False)
        finally:
            run.spawn = original
        self.assertEqual((bench.attempted, bench.failed), (1, 1))
        self.assertGreater(bench.failed / bench.attempted, 0)

    def test_wrong_ingest_count_is_a_failure(self) -> None:
        bench = small_run("ingest-sharded", "ingest-count")
        bench.expected["parse_errors"] += 1
        with contextlib.redirect_stderr(io.StringIO()):
            bench.sequence(0, traced=False)
        self.assertEqual(bench.failed, 1)


class SpansTest(unittest.TestCase):
    def test_self_times_are_non_negative_and_fit_in_their_parent(self) -> None:
        for workload in ("pipeline-wide", "reports"):
            with self.subTest(workload=workload):
                bench = small_run(workload, f"spans-{workload}")
                result = bench.sequence(0, traced=True)
                self.assertEqual(bench.failed, 0)
                self.assertEqual(len(result["docs"]), bench.attempted)
                for doc in result["docs"]:
                    own = spans.self_times(doc["spans"])
                    by_id = {s["id"]: s for s in doc["spans"]}
                    children: dict = {}
                    for s in doc["spans"]:
                        self.assertGreaterEqual(own[s["id"]], -1e-9, s["name"])
                        self.assertLessEqual(s["start"], s["end"])
                        if s["parent"] is not None:
                            children.setdefault(s["parent"], []).append(s["id"])
                    for parent, kids in children.items():
                        self.assertLessEqual(
                            sum(own[k] for k in kids), by_id[parent]["total"] + 1e-9
                        )

    def test_bypassed_layers_read_zero(self) -> None:
        bench = small_run("ingest-sharded", "bypass")
        layers = bench.sequence(0, traced=True)["layers"]
        self.assertGreater(layers["ingest.parse_s"], 0)
        self.assertEqual(layers["ingest.lines"], bench.expected["lines"])
        self.assertEqual(layers["detours.enumerate_s"], 0)
        self.assertEqual(layers["geo.lookup_s"], 0)


if __name__ == "__main__":
    unittest.main()
