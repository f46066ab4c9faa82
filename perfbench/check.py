"""Output checks for the benchmark's CLI commands.

Each check returns a list of problems; an empty list means the command's
output is right. Checks compare against the generator's expected values or,
for ``detours``, against :func:`detours_reference`, a plain-dict relay search
over the snapshot file. Nothing here imports detourkit.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

THRESHOLD_PCT = 1.0
BUCKET_WIDTH_PCT = 1.0
TOP_N = 20


def _close(printed: str, expected: float, min_decimals: int = 2) -> bool:
    """True when ``printed`` is ``expected`` to the digits it shows, which
    must be at least ``min_decimals``."""
    decimals = max(len(printed.partition(".")[2]), min_decimals)
    return abs(float(printed) - expected) <= 0.5 * 10.0**-decimals + 1e-12 * abs(expected)


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def check_ingest(stdout: str, out_dir: Path, expected: dict) -> list[str]:
    """Summary counts and every snapshot row against the generator's tally."""
    lines = stdout.splitlines()
    if not lines:
        return ["ingest printed nothing"]
    problems = []
    head = _fields(lines[0])
    for key, want in (
        ("lines", expected["lines"]),
        ("parse_errors", expected["parse_errors"]),
        ("kept", expected["kept"]),
    ):
        if head.get(key) != str(want):
            problems.append(f"ingest {key}={head.get(key)}, expected {want}")
    counters = {}
    for line in lines[1:]:
        match = re.fullmatch(r"(dropped|skipped)\[(\w+)\]=(\d+)", line)
        if match:
            counters.setdefault(match[1], {})[match[2]] = int(match[3])
    for kind in ("dropped", "skipped"):
        if counters.get(kind, {}) != expected[kind]:
            problems.append(f"ingest {kind} {counters.get(kind, {})}, expected {expected[kind]}")
    tail = _fields(lines[-1])
    if tail.get("edges") != str(len(expected["edges"])) or tail.get("nodes") != str(
        expected["nodes"]
    ):
        problems.append(f"ingest graph line {lines[-1]!r}")
    return problems + check_snapshot(out_dir / "graph.csv", expected["edges"])


def check_snapshot(path: Path, edges: list[list]) -> list[str]:
    if not path.exists():
        return [f"missing snapshot {path.name}"]
    want = {(row[0], row[1]): row[2:] for row in edges}
    problems = []
    seen = 0
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        for row in reader:
            seen += 1
            expected = want.get((row[0], row[1]))
            if expected is None:
                problems.append(f"unexpected edge {row[0]}->{row[1]}")
            elif not _close(row[2], expected[0], min_decimals=3) or [
                int(row[3]),
                int(row[4]),
            ] != expected[1:]:
                problems.append(f"edge {row[0]}->{row[1]} is {row[2:]}, expected {expected}")
            if len(problems) > 5:
                break
    if not problems and seen != len(want):
        problems.append(f"snapshot has {seen} edges, expected {len(want)}")
    return problems


def detours_reference(snapshot: Path) -> dict:
    """Insight counts and the per-pair best-improvement histogram, computed
    by brute force over every (source, via, destination) triplet."""
    out: dict[str, dict[str, float]] = {}
    with open(snapshot, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        for row in reader:
            out.setdefault(row[0], {})[row[1]] = float(row[2])
    bridges = improvements = 0
    best: dict[tuple[str, str], float] = {}
    for source, legs in out.items():
        for via, first in legs.items():
            for destination, second in out.get(via, {}).items():
                if destination == source:
                    continue
                overlay = first + second
                direct = legs.get(destination)
                if direct is None:
                    bridges += 1
                    continue
                gain = direct - overlay
                if gain > 0 and 100.0 * gain / direct >= THRESHOLD_PCT:
                    improvements += 1
                    pct = 100.0 * gain / direct
                    pair = (source, destination)
                    if pct > best.get(pair, -math.inf):
                        best[pair] = pct
    histogram: dict[str, int] = {}
    for pct in best.values():
        bucket = f"{math.floor(pct / BUCKET_WIDTH_PCT) * BUCKET_WIDTH_PCT:g}"
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return {
        "insights": improvements + bridges,
        "improvements": improvements,
        "bridges": bridges,
        "improvable_pairs": len(best),
        "histogram": histogram,
    }


def check_detours(stdout: str, out_dir: Path, reference: dict, fmt: str) -> list[str]:
    """Printed counts, the histogram file and the insight row count."""
    lines = stdout.splitlines()
    if not lines:
        return ["detours printed nothing"]
    problems = []
    head = _fields(lines[0])
    for key in ("insights", "improvements", "bridges", "improvable_pairs"):
        if head.get(key) != str(reference[key]):
            problems.append(f"detours {key}={head.get(key)}, expected {reference[key]}")
    if len(lines) - 1 != min(TOP_N, reference["insights"]):
        problems.append(f"detours printed {len(lines) - 1} top insights")
    if fmt == "json":
        histogram = {
            f"{item['bucket_pct']:g}": item["pair_count"]
            for item in json.loads((out_dir / "histogram.json").read_text(encoding="utf-8"))
        }
        with open(out_dir / "insights.json", "rb") as handle:
            rows = sum(1 for line in handle if line.lstrip().startswith(b'"kind":'))
    else:
        with open(out_dir / "histogram.csv", encoding="utf-8", newline="") as handle:
            histogram = {row[0]: int(row[1]) for row in list(csv.reader(handle))[1:]}
        with open(out_dir / "insights.csv", "rb") as handle:
            rows = sum(1 for _ in handle) - 1
    if histogram != reference["histogram"]:
        diff = sorted(
            (k, histogram.get(k), reference["histogram"].get(k))
            for k in set(histogram) | set(reference["histogram"])
            if histogram.get(k) != reference["histogram"].get(k)
        )
        problems.append(f"histogram differs (bucket, got, expected): {diff[:5]}")
    if rows != reference["insights"]:
        problems.append(f"insight file has {rows} rows, expected {reference['insights']}")
    return problems


def check_geo_warm(stdout: str, cache: Path, expected: dict) -> list[str]:
    want = f"warmed {expected['warm_total']} addresses, {expected['warm_resolved']} resolved"
    problems = [] if stdout.startswith(want) else [f"geo-warm said {stdout.strip()!r}"]
    with open(cache, encoding="utf-8", newline="") as handle:
        rows = sum(1 for row in csv.reader(handle) if row and row[0] != "ip")
    if rows != expected["warm_resolved"]:
        problems.append(f"geo cache has {rows} rows, expected {expected['warm_resolved']}")
    return problems


def check_traceroutes(stdout: str, out_dir: Path, expected: dict) -> list[str]:
    """Planted hop counts and city verdicts; planted malformed files are
    counted as errors, not failures."""
    problems = []
    want = f"traces={len(expected['traces'])} errors={expected['trace_errors']}"
    if stdout.strip() != want:
        problems.append(f"traceroutes said {stdout.strip()!r}, expected {want!r}")
    with open(out_dir / "traceroute_report.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    got = [[label, dest, int(hops), verdict] for label, dest, hops, verdict in rows]
    if got != expected["traces"]:
        bad = [(g, w) for g, w in zip(got, expected["traces"]) if g != w]
        problems.append(f"{len(bad)} report rows differ, first {bad[:2]}; {len(got)} rows")
    return problems


def check_overlay(stdout: str, out_dir: Path, expected: dict) -> list[str]:
    """Leg, composed and direct rows: mean, median, count and modality."""
    legs = expected["legs"]
    ab, bc = legs["leg_ab"], legs["leg_bc"]
    composed = {
        "n": min(ab["n"], bc["n"]),
        "mean": ab["mean"] + bc["mean"],
        "median": ab["median"] + bc["median"],
        "modality": "bimodal" if "bimodal" in (ab["modality"], bc["modality"]) else "unimodal",
    }
    want = {"AB": ab, "BC": bc, "composed:AB+BC": composed, "direct": legs["direct_ac"]}
    with open(out_dir / "overlay_summary.csv", encoding="utf-8", newline="") as handle:
        rows = {row[0]: row for row in list(csv.reader(handle))[1:]}
    problems = []
    if set(rows) != set(want):
        return [f"overlay rows {sorted(rows)}, expected {sorted(want)}"]
    for label, moments in want.items():
        row = rows[label]
        if not (
            _close(row[1], moments["mean"])
            and _close(row[2], moments["median"])
            and int(row[6]) == moments["n"]
            and row[7] == moments["modality"]
        ):
            problems.append(f"overlay row {row}, expected {moments}")
    if "verdict:" not in stdout:
        problems.append("overlay printed no verdict")
    return problems
