"""detourkit benchmark: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: its CLI commands run one
after another, each in a fresh child process, and the sequence repeats until
``--seconds`` have passed. Every command's output is checked outside the
timed region. With ``--trace 1`` untraced and traced sequences alternate;
the traced ones run each command in-process under ``spans.py`` and give the
per-layer metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
KEPT_SEEDS = 4
CLI = ("-c", "import sys; from detourkit.cli import main; sys.exit(main())")
SETUP = ("-c", "import detourkit.cli as cli; cli.build_parser()")


def plan(workload: str, inp: Path, out: Path, expected: dict, references: dict) -> list:
    """The workload's commands as (name, arguments, check of stdout)."""

    def detours_check(snapshot: Path, fmt: str):
        def run_check(stdout: str) -> list[str]:
            key = hashlib.sha256(snapshot.read_bytes()).hexdigest()
            if key not in references:
                references.clear()
                references[key] = check.detours_reference(snapshot)
            return check.check_detours(stdout, out, references[key], fmt)

        return run_check

    o = str(out)
    if workload == "ingest-sharded":
        feeds = sorted(str(p) for p in inp.glob("feed-*.jsonl"))
        return [
            (
                "ingest",
                ["--output-dir", o, "ingest", *feeds, "--status", "stopped", "--af", "4",
                 "--min-start", str(gen.MIN_START), "--max-start", str(gen.MAX_START),
                 "--sidecar", str(inp / "sidecar.csv")],
                lambda stdout: check.check_ingest(stdout, out, expected),
            )
        ]
    if workload == "detours-dense":
        snapshot = inp / "graph.csv"
        return [
            (
                "detours",
                ["--output-dir", o, "detours", str(snapshot)],
                detours_check(snapshot, "csv"),
            )
        ]
    if workload == "pipeline-wide":
        cache = str(out / "geo_cache.csv")
        return [
            (
                "geo-warm",
                ["geo-warm", str(inp / "ips.txt"), "--geo-provider", "static",
                 "--geo-static-file", str(inp / "geo_static.csv"), "--geo-cache", cache],
                lambda stdout: check.check_geo_warm(stdout, Path(cache), expected),
            ),
            (
                "ingest",
                ["--output-dir", o, "ingest", str(inp / "feed.jsonl"), "--regions", "US,CA",
                 "--geo-cache", cache],
                lambda stdout: check.check_ingest(stdout, out, expected),
            ),
            (
                "detours",
                ["--output-dir", o, "--format", "json", "detours", str(out / "graph.csv"),
                 "--geo-cache", cache],
                detours_check(out / "graph.csv", "json"),
            ),
        ]
    if workload == "reports":
        return [
            (
                "traceroutes",
                ["--output-dir", o, "traceroutes", str(inp / "traces"),
                 "--geo-cache", str(inp / "trace_geo_cache.csv")],
                lambda stdout: check.check_traceroutes(stdout, out, expected),
            ),
            (
                "overlay",
                ["--output-dir", o, "overlay", "--leg", f"AB={inp / 'leg_ab.txt'}",
                 "--leg", f"BC={inp / 'leg_bc.txt'}", "--direct", str(inp / "direct_ac.txt")],
                lambda stdout: check.check_overlay(stdout, out, expected),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ingest-sharded", "detours-dense", "pipeline-wide", "reports")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], log: Path, env: dict) -> tuple[int, float, int, str, str]:
    """Run one child to completion: (exit code, wall s, ru_maxrss KB, stdout, stderr)."""
    with open(log.with_suffix(".out"), "w+") as stdout, open(
        log.with_suffix(".err"), "w+"
    ) as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
            env=env, cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        return proc.returncode, wall, usage.ru_maxrss, stdout.read(), stderr.read()


def inputs(workload: str, seed: int) -> tuple[Path, dict]:
    """Generated inputs for (workload, seed), cached under the work dir."""
    base = WORK / "inputs" / workload
    # a changed generator must not reuse inputs cached by an older one
    version = hashlib.sha256(Path(gen.__file__).read_bytes()).hexdigest()[:12]
    final = base / f"seed-{seed}-{version}"
    if not (final / "expected.json").exists():
        tmp = base / f".tmp-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        # generate in a child: a child process's ru_maxrss starts at its
        # parent's peak, so this process must stay small
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), workload, str(seed), str(tmp)], check=True
        )
        try:
            os.replace(tmp, final)
        except OSError:  # another run cached the same seed first
            shutil.rmtree(tmp, ignore_errors=True)
        cached = sorted(base.glob("seed-*"), key=lambda p: p.stat().st_mtime)
        for old in cached[:-KEPT_SEEDS]:
            if old != final:
                shutil.rmtree(old, ignore_errors=True)
    os.utime(final)
    return final, json.loads((final / "expected.json").read_text(encoding="utf-8"))


class Run:
    """One benchmark run: repeated command sequences and their checks."""

    def __init__(self, workload: str, seed: int, inp: Path, expected: dict, rundir: Path):
        self.workload = workload
        self.seed = seed
        self.inp = inp
        self.expected = expected
        self.rundir = rundir
        self.env = child_env()
        self.references: dict = {}
        self.attempted = 0
        self.failed = 0

    def sequence(self, index: int, traced: bool) -> dict:
        out = self.rundir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        logs = self.rundir / "logs"
        logs.mkdir(exist_ok=True)
        run_id = f"{self.workload}-{self.seed}-{index}"
        walls: dict[str, float] = {}
        peak_kb = 0
        docs = []
        for name, args, check_stdout in plan(
            self.workload, self.inp, out, self.expected, self.references
        ):
            span_file = logs / f"{name}.spans.json"
            if traced:
                argv = [str(HERE / "spans.py"), str(span_file), run_id, "--", *args]
            else:
                argv = [*CLI, *args]
            code, wall, rss_kb, stdout, stderr = spawn(argv, logs / name, self.env)
            walls[name] = wall
            peak_kb = max(peak_kb, rss_kb)
            if rss_kb <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss:
                print(f"warning: {name} peak RSS is masked by the harness's own", file=sys.stderr)
            problems = []
            if code != 0 or "Traceback" in stderr:
                problems.append(f"exit {code}: {stderr.strip()[-500:]}")
            else:
                try:
                    problems = check_stdout(stdout)
                except Exception as exc:  # a check that cannot read the output fails the operation
                    problems = [f"check raised {exc!r}"]
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {run_id} {name}: {problems[:3]}", file=sys.stderr)
            if traced and span_file.exists():
                docs.append(json.loads(span_file.read_text(encoding="utf-8")))
        result = {"wall": sum(walls.values()), "peak_kb": peak_kb, "walls": walls}
        if traced:
            result["docs"] = docs
            result["layers"] = spans.layer_metrics(docs)
            result["layers"]["detours.output_bytes"] = sum(
                p.stat().st_size
                for p in out.glob("*")
                if p.name.startswith(("insights.", "histogram."))
            )
        return result


def setup_samples(env: dict, rundir: Path) -> list[float]:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    spawn(list(SETUP), rundir / "setup", env)  # warm the bytecode and file caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _, _, stderr = spawn(list(SETUP), rundir / "setup", env)
        if code != 0:
            raise RuntimeError(f"importing detourkit.cli failed: {stderr.strip()[-500:]}")
        samples.append(wall)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "detourkit" / "cli.py").is_file():
        print(f"no detourkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inp, expected = inputs(args.workload, args.seed)
    rundir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, inp, expected, rundir)
        setup = [] if args.trace else setup_samples(run.env, rundir)
        plain, traced = [], []
        start = time.perf_counter()
        # start a sequence only if it should end within the budget, judged by
        # the last one; every run has an untraced sequence, and a traced one
        # when tracing
        last = 0.0
        while (
            not plain
            or (args.trace and not traced)
            or time.perf_counter() - start + last <= args.seconds
        ):
            use_trace = bool(args.trace) and len(traced) < len(plain)
            began = time.perf_counter()
            result = run.sequence(len(plain) + len(traced), use_trace)
            (traced if use_trace else plain).append(result)
            last = time.perf_counter() - began
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    median = statistics.median
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"sequences={len(plain)} untraced, {len(traced)} traced"
    )
    print("  untraced walls: " + " ".join(f"{p['wall']:.3f}" for p in plain))
    if args.trace:
        layers = {
            name: median(t["layers"][name] for t in traced) for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = median(t["wall"] for t in traced) - median(
            p["wall"] for p in plain
        )
        metrics = {
            name: {"value": value, "unit": unit_of(name)} for name, value in sorted(layers.items())
        }
        trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps([d for t in traced for d in t["docs"]]), encoding="utf-8")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": median(p["wall"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": median(p["peak_kb"] for p in plain) / 1024, "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    report = dict(metrics)
    if not args.trace:
        report.update(command_metrics(plain, expected))
    report["error_rate"] = {"value": run.failed / run.attempted, "unit": "fraction"}
    for name, metric in report.items():
        print(f"  {name:28} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def command_metrics(plain: list[dict], expected: dict) -> dict:
    """Per-command end-to-end metrics for the commands this workload runs."""

    def walls(name: str) -> float:
        return statistics.median(p["walls"][name] for p in plain)

    names = plain[0]["walls"]
    found = {}
    if "ingest" in names:
        found["ingest_lines_per_s"] = {
            "value": expected["lines"] / walls("ingest"),
            "unit": "lines/s",
        }
    for name in ("detours", "traceroutes", "overlay"):
        if name in names:
            found[f"{name}_s"] = {"value": walls(name), "unit": "s"}
    return found


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_insight")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
