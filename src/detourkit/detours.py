"""One-hop relay search over a latency graph.

For every ordered endpoint pair (s, d) the finder considers each relay m
with edges s->m and m->d. When the direct edge exists and the relay path is
faster by at least the configured percentage, that is an improvement
insight; when no direct edge exists, the relay path is a connectivity
bridge. Improvements are bucketed per source-destination pair into a
histogram using each pair's best relay (:meth:`DetourRows.histogram`).

The search walks endpoints in key order and keeps its findings as compact
rank-indexed rows (:class:`DetourRows`) that are already in report order, so
the CLI renders them without building an object or sorting per insight. It
holds the rank-sorted adjacency, the improvement rows and a count of
bridges, so memory is O(edges + improvements); bridges, the bulk of the
rows on a dense graph, are walked again from the adjacency on output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, Optional, TextIO

from .errors import ToolkitError
from .graph import EndpointKey, LatencyGraph, replaced_on_success

KIND_IMPROVEMENT = "improvement"
KIND_BRIDGE = "bridge"

INSIGHT_HEADER = (
    "source",
    "via",
    "destination",
    "overlay_rtt_ms",
    "direct_rtt_ms",
    "improvement_ms",
    "improvement_pct",
    "kind",
)


@dataclass(frozen=True, slots=True)
class DetourInsight:
    """A (source, via, destination) finding.

    ``overlay_rtt_ms`` is the exact sum of the two leg RTTs. Bridges have no
    direct edge, so their improvement fields are None.
    """

    source: EndpointKey
    via: EndpointKey
    destination: EndpointKey
    overlay_rtt_ms: float
    direct_rtt_ms: Optional[float]
    improvement_ms: Optional[float]
    improvement_pct: Optional[float]
    kind: str


@dataclass(frozen=True, slots=True)
class DetourRows:
    """Every insight of one search as compact rows, already in report order.

    Endpoints are ranks into ``nodes``, which is sorted by key, and
    ``successors[s]`` is the ``(destination, rtt)`` list of s's edges,
    sorted by rank. Improvement rows are ``(source, via, destination,
    overlay, direct, gain, pct)``, ordered by pct descending then by rank.
    Bridges are not held: :meth:`bridge_runs` and :meth:`bridges` walk
    ``successors`` again on each call, in rank order, and ``bridge_count``
    is how many bridges there are. Memory is O(edges + improvements).
    """

    nodes: list[EndpointKey]
    successors: list[list[tuple[int, float]]]
    improvements: list[tuple[int, int, int, float, float, float, float]]
    bridge_count: int

    def __len__(self) -> int:
        return len(self.improvements) + self.bridge_count

    def bridge_runs(self) -> Iterator[tuple[int, int, float, list[tuple[int, float]]]]:
        """``(source, via, leg_in, legs_out)`` for each (source, via) with
        bridges, in rank order; ``legs_out`` is the rank-sorted ``(destination,
        leg_out)`` list of that via's bridged destinations. Walks
        ``successors`` again on each call."""
        successors = self.successors
        # marks the source and its direct destinations; reset per source
        direct = [False] * len(self.nodes)
        for s, out in enumerate(successors):
            direct[s] = True
            for d, _ in out:
                direct[d] = True
            for v, leg_in in out:
                legs_out = [leg for leg in successors[v] if not direct[leg[0]]]
                if legs_out:
                    yield s, v, leg_in, legs_out
            direct[s] = False
            for d, _ in out:
                direct[d] = False

    def bridges(self) -> Iterator[tuple[int, int, int, float]]:
        """Bridge rows ``(source, via, destination, overlay)``, ordered by rank."""
        for s, v, leg_in, legs_out in self.bridge_runs():
            for d, leg_out in legs_out:
                yield (s, v, d, leg_in + leg_out)

    def insights(self) -> Iterator[DetourInsight]:
        """The rows as insights, in report order."""
        nodes = self.nodes
        for s, v, d, overlay, direct, gain, pct in self.improvements:
            yield DetourInsight(
                nodes[s], nodes[v], nodes[d], overlay, direct, gain, pct, KIND_IMPROVEMENT
            )
        for s, v, d, overlay in self.bridges():
            yield DetourInsight(nodes[s], nodes[v], nodes[d], overlay, None, None, None, KIND_BRIDGE)

    def histogram(self, bucket_width_pct: float = 1.0) -> ImprovementHistogram:
        """Each improvable (source, destination) pair counted once, in the
        floored bucket of its best improvement percentage."""
        if bucket_width_pct <= 0:
            raise ValueError("bucket_width_pct must be > 0")
        # pct descending means a pair's first row is its best; iterating in
        # reverse lets that first row's value be the last one written
        best = {(row[0], row[2]): row[6] for row in reversed(self.improvements)}
        counts: dict[float, int] = {}
        try:
            for pct in best.values():
                bucket = math.floor(pct / bucket_width_pct) * bucket_width_pct
                counts[bucket] = counts.get(bucket, 0) + 1
        except OverflowError:
            # an RTT near the float limit makes 100 * gain, and so pct, infinite
            raise ToolkitError(
                f"improvement of {pct!r}% does not fit a {bucket_width_pct!r}% bucket: "
                "edge RTTs are too large"
            ) from None
        return ImprovementHistogram(bucket_width_pct=bucket_width_pct, counts=counts)


def search_detours(graph: LatencyGraph, threshold_pct: float = 1.0) -> DetourRows:
    """Find improvement and bridge insights for every viable triplet.

    Improvements require a strictly faster relay path whose gain is at
    least ``threshold_pct`` percent of the direct RTT. Each (s, m, d)
    triplet with both legs present is considered exactly once. Sources,
    vias and destinations are walked in key order, so improvements need
    only a stable sort on pct; bridges are only counted here, and
    :meth:`DetourRows.bridges` walks them again in the same order.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be >= 0")
    # EndpointKey order, compared as plain tuples
    nodes = sorted(graph.nodes(), key=lambda node: (node.kind, node.value))
    rank = {node: i for i, node in enumerate(nodes)}
    successors = [
        sorted([(rank[d], edge.rtt_ms) for d, edge in graph.successors(node).items()])
        for node in nodes
    ]
    improvements: list[tuple[int, int, int, float, float, float, float]] = []
    add_improvement = improvements.append
    bridge_count = 0
    # direct[d] is the source's direct RTT to d, or None; reset per source
    direct: list[Optional[float]] = [None] * len(nodes)
    for s, out in enumerate(successors):
        for d, rtt in out:
            direct[d] = rtt
        for v, leg_in in out:
            for d, leg_out in successors[v]:
                if d == s:
                    continue
                direct_rtt = direct[d]
                if direct_rtt is None:
                    bridge_count += 1
                    continue
                overlay = leg_in + leg_out
                gain = direct_rtt - overlay
                if gain > 0:
                    pct = 100.0 * gain / direct_rtt
                    if pct >= threshold_pct:
                        add_improvement((s, v, d, overlay, direct_rtt, gain, pct))
        for d, _ in out:
            direct[d] = None
    improvements.sort(key=lambda row: -row[6])
    return DetourRows(nodes, successors, improvements, bridge_count)


@dataclass(frozen=True)
class ImprovementHistogram:
    """Counts of source-destination pairs by floored improvement bucket.

    Each pair is counted once, using its best detour's improvement
    percentage. Bucket key = floor(pct / width) * width.
    """

    bucket_width_pct: float
    counts: dict[float, int]

    def total_pairs(self) -> int:
        return sum(self.counts.values())

    def cumulative(self) -> dict[float, int]:
        """Per-bucket counts re-rendered as at-least-this-bucket totals."""
        out: dict[float, int] = {}
        running = 0
        for bucket, count in sorted(self.counts.items(), reverse=True):
            running += count
            out[bucket] = running
        return out


def _write_batched(handle: TextIO, items: Iterator[str], separator: str = "") -> None:
    """Write ``separator.join(items)`` a few thousand items at a time."""
    first = True
    while batch := list(islice(items, 4096)):
        if not first:
            handle.write(separator)
        handle.write(separator.join(batch))
        first = False


def _csv_cells(nodes: list[EndpointKey]) -> list[str]:
    """Each node's value as a cell of a :func:`csv.writer` row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    cells = []
    for node in nodes:
        buffer.seek(0)
        buffer.truncate()
        # a trailing empty field keeps an empty value unquoted, as in a full row
        writer.writerow((node.value, ""))
        cells.append(buffer.getvalue()[: -len(",\r\n")])
    return cells


def write_rows_csv(rows: DetourRows, path: str | Path) -> int:
    """Write ``rows`` as :func:`csv.writer` writes the :data:`INSIGHT_HEADER`
    row and then one row per insight of ``rows.insights()``: RTTs and gains
    to 3 decimals, pct to 2, a bridge's absent values empty. Replaces
    ``path`` atomically; returns the number of rows written."""
    cell = _csv_cells(rows.nodes)
    lines = chain(
        (
            f"{cell[s]},{cell[v]},{cell[d]},{overlay:.3f},{direct:.3f},{gain:.3f},{pct:.2f},"
            f"{KIND_IMPROVEMENT}\r\n"
            for s, v, d, overlay, direct, gain, pct in rows.improvements
        ),
        # the source and via cells are joined once per run, not per row
        (
            f"{prefix}{cell[d]},{leg_in + leg_out:.3f},,,,{KIND_BRIDGE}\r\n"
            for s, v, leg_in, legs_out in rows.bridge_runs()
            for prefix in [f"{cell[s]},{cell[v]},"]
            for d, leg_out in legs_out
        ),
    )
    with replaced_on_success(path, newline="") as handle:
        handle.write(",".join(INSIGHT_HEADER) + "\r\n")
        _write_batched(handle, lines)
    return len(rows)


def _json_float(value: float) -> str:
    # json.dump spells an overflowed leg sum Infinity; finite floats are repr
    return repr(value) if math.isfinite(value) else json.dumps(value)


def write_rows_json(rows: DetourRows, path: str | Path) -> int:
    """Write ``rows`` byte-identical to ``json.dump(indent=2)`` of one object
    per insight keyed by :data:`INSIGHT_HEADER`, plus a newline, replacing
    ``path`` atomically; returns the number of rows written."""
    cell = [json.dumps(node.value) for node in rows.nodes]
    objects = chain(
        (
            f'  {{\n    "source": {cell[s]},\n    "via": {cell[v]},\n    "destination": {cell[d]},'
            f'\n    "overlay_rtt_ms": {overlay!r},\n    "direct_rtt_ms": {direct!r},'
            f'\n    "improvement_ms": {gain!r},\n    "improvement_pct": {pct!r},'
            f'\n    "kind": "{KIND_IMPROVEMENT}"\n  }}'
            for s, v, d, overlay, direct, gain, pct in rows.improvements
        ),
        (
            f'{prefix}{cell[d]},'
            f'\n    "overlay_rtt_ms": {_json_float(leg_in + leg_out)},\n    "direct_rtt_ms": null,'
            f'\n    "improvement_ms": null,\n    "improvement_pct": null,'
            f'\n    "kind": "{KIND_BRIDGE}"\n  }}'
            for s, v, leg_in, legs_out in rows.bridge_runs()
            for prefix in [
                f'  {{\n    "source": {cell[s]},\n    "via": {cell[v]},\n    "destination": '
            ]
            for d, leg_out in legs_out
        ),
    )
    with replaced_on_success(path) as handle:
        if not len(rows):
            handle.write("[]\n")
            return 0
        handle.write("[\n")
        _write_batched(handle, objects, ",\n")
        handle.write("\n]\n")
    return len(rows)
