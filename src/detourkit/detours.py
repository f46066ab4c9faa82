"""One-hop relay search over a latency graph's rank-sorted adjacency.

For every ordered endpoint pair (s, d) the finder considers each relay m
with edges s->m and m->d. When the direct edge exists and the relay path is
faster by at least the configured percentage, that is an improvement
insight; when no direct edge exists, the relay path is a connectivity
bridge. Improvements are bucketed per source-destination pair into a
histogram using each pair's best relay (:meth:`DetourRows.histogram`).

The search takes the graph as :func:`graph.read_snapshot` reads it: the
endpoints in order and each one's rank-sorted ``(destination rank, rtt)``
successor list. It walks endpoints in rank order and keeps its findings as
compact rank-indexed rows (:class:`DetourRows`) that are already in report
order, so the CLI renders them without building an object or sorting per
insight. It holds the adjacency, the improvement rows and a count of
bridges, so memory is O(edges + improvements); bridges, the bulk of the
rows on a dense graph, are walked again from the adjacency on output.

The writers can share that walk out over processes: given a share runner
(``cli.run_shares``) and a CPU count, they cut the source ranks into
contiguous slices of about equal work, render the first slice's bridges
in this process and each other slice's into a part file in a forked
child, and copy the parts in after it in slice order, so the file is the
one a single process writes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice
from pathlib import Path
from typing import Callable, Iterator, Optional, TextIO

from .errors import ToolkitError
from .graph import replaced_on_success

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

# The fewest bridge rows worth a share of their own. Whole `detours` runs
# on 2 CPUs (Python 3.11.7) of graphs made like the benchmark's dense one,
# one share against two: 20,721 bridges ran 1.15x as long in two, 61,206
# about as long (0.98x) and 106,267 to 497,028 faster (0.83-0.86x).
BRIDGE_ROWS_PER_SHARE = 50_000


@dataclass(frozen=True, slots=True)
class DetourRows:
    """Every insight of one search as compact rows, already in report order.

    Endpoints are ranks into ``nodes``, the endpoints in order, and
    ``successors[s]`` is the ``(destination, rtt)`` list of s's edges,
    sorted by rank. Improvement rows are ``(source, via, destination,
    overlay, direct, gain, pct)``, ordered by pct descending then by rank.
    Bridges are not held: :meth:`bridge_runs` and :meth:`bridges` walk
    ``successors`` again on each call, in rank order, and ``bridge_count``
    is how many bridges there are. Memory is O(edges + improvements).
    :meth:`bridge_slices` cuts the sources into ranges of about equal work,
    whose walks, one after the other, are the walk of every source.
    """

    nodes: list[str]
    successors: list[list[tuple[int, float]]]
    improvements: list[tuple[int, int, int, float, float, float, float]]
    bridge_count: int

    def __len__(self) -> int:
        return len(self.improvements) + self.bridge_count

    def bridge_runs(
        self, sources: Optional[range] = None
    ) -> Iterator[tuple[int, int, float, list[tuple[int, float]]]]:
        """``(source, via, leg_in, legs_out)`` for each (source, via) with
        bridges, in rank order, over the source ranks ``sources`` (every
        source when None); ``legs_out`` is the rank-sorted ``(destination,
        leg_out)`` list of that via's bridged destinations. Walks
        ``successors`` again on each call."""
        successors = self.successors
        # marks the source and its direct destinations; reset per source
        direct = [False] * len(self.nodes)
        for s in range(len(successors)) if sources is None else sources:
            out = successors[s]
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

    def bridge_slices(self, count: int) -> list[range]:
        """``count`` contiguous ranges of source ranks that cover every
        source in order, each walking about the same number of (source,
        via, destination) triplets."""
        successors = self.successors
        walked = list(
            accumulate(sum(len(successors[v]) for v, _ in out) for out in successors)
        )
        total = walked[-1] if walked else 0
        # each cut follows the first source at which its share of the total is walked
        cuts = [
            min(bisect_left(walked, -(-total * index // count)) + 1, len(successors))
            for index in range(1, count)
        ]
        bounds = [0, *cuts, len(successors)]
        return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]

    def bridges(self) -> Iterator[tuple[int, int, int, float]]:
        """Bridge rows ``(source, via, destination, overlay)``, ordered by rank."""
        for s, v, leg_in, legs_out in self.bridge_runs():
            for d, leg_out in legs_out:
                yield (s, v, d, leg_in + leg_out)

    def insights(self) -> Iterator[tuple]:
        """The rows as insights, in report order: tuples of the
        :data:`INSIGHT_HEADER` fields, endpoints by name. ``overlay_rtt_ms``
        is the exact sum of the two leg RTTs; bridges have no direct edge,
        so their direct RTT and improvement fields are None."""
        nodes = self.nodes
        for s, v, d, overlay, direct, gain, pct in self.improvements:
            yield nodes[s], nodes[v], nodes[d], overlay, direct, gain, pct, KIND_IMPROVEMENT
        for s, v, d, overlay in self.bridges():
            yield nodes[s], nodes[v], nodes[d], overlay, None, None, None, KIND_BRIDGE

    def histogram(self, bucket_width_pct: float = 1.0) -> dict[float, int]:
        """``{bucket: pair_count}``: each improvable (source, destination)
        pair counted once, in the bucket ``floor(pct / width) * width`` of
        its best improvement percentage."""
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
        return counts


def search_detours(
    nodes: list[str],
    successors: list[list[tuple[int, float]]],
    threshold_pct: float = 1.0,
) -> DetourRows:
    """Find improvement and bridge insights for every viable triplet of the
    graph whose sorted ``nodes`` and rank-sorted ``successors``
    :func:`graph.read_snapshot` gives; both are kept in the result.

    Improvements require a strictly faster relay path whose gain is at
    least ``threshold_pct`` percent of the direct RTT. Each (s, m, d)
    triplet with both legs present is considered exactly once. Sources,
    vias and destinations are walked in rank order, so improvements need
    only a stable sort on pct; bridges are only counted here, and
    :meth:`DetourRows.bridges` walks them again in the same order.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be >= 0")
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


def _write_batched(handle: TextIO, items: Iterator[str], separator: str = "") -> None:
    """Write ``separator.join(items)`` a few thousand items at a time."""
    first = True
    while batch := list(islice(items, 4096)):
        if not first:
            handle.write(separator)
        handle.write(separator.join(batch))
        first = False


def _csv_cells(nodes: list[str]) -> list[str]:
    """Each node as a cell of a :func:`csv.writer` row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    cells = []
    for node in nodes:
        buffer.seek(0)
        buffer.truncate()
        # a trailing empty field keeps an empty value unquoted, as in a full row
        writer.writerow((node, ""))
        cells.append(buffer.getvalue()[: -len(",\r\n")])
    return cells


def _write_runs(handle: TextIO, runs: Iterator[list[str]], cut: int) -> bool:
    """Write the rows of ``runs`` a few thousand at a time, the first row
    without its first ``cut`` characters; returns whether there was any."""
    batch = next(runs, None)
    if batch is None:
        return False
    batch[0] = batch[0][cut:]
    for rows in runs:
        batch += rows
        if len(batch) >= 4096:
            handle.write("".join(batch))
            batch = []
    handle.write("".join(batch))
    return True


def _append_part(handle: TextIO, part: Path, cut: int) -> None:
    """Copy the file ``part``, but for its first ``cut`` bytes, to the end of
    ``handle`` 64 KiB at a time, and remove it."""
    handle.flush()
    with open(part, "rb") as source:
        source.seek(cut)
        while chunk := source.read(1 << 16):
            handle.buffer.write(chunk)
    part.unlink()


def _write_bridges(
    handle: TextIO,
    path: str | Path,
    newline: Optional[str],
    rows: DetourRows,
    render: Callable[..., list[str]],
    cut: int,
    run_shares: Optional[Callable],
    cpus: int,
) -> None:
    """Write the bridges of ``rows`` to ``handle``, the rows of each
    :meth:`DetourRows.bridge_runs` run as ``render`` gives them, each row
    led by its separator; the first row written goes without its first
    ``cut`` characters, the separator it would have after nothing.

    With ``run_shares`` (:func:`cli.run_shares` bound to a name), the
    sources are cut into one slice per CPU of ``cpus``, but at most one per
    :data:`BRIDGE_ROWS_PER_SHARE` bridges. The first slice is written here;
    each other one goes to a part file beside ``path`` (opened with
    ``newline``) in a child, and the parts are copied in after it, in slice
    order. No part file or temporary file of one is left behind."""
    count = 1
    if run_shares is not None:
        count = max(1, min(cpus, rows.bridge_count // BRIDGE_ROWS_PER_SHARE))
    if count == 1:
        _write_runs(handle, (render(*run) for run in rows.bridge_runs()), cut)
        return
    slices = rows.bridge_slices(count)
    target = Path(path)
    parts = [target.with_name(f".{target.name}.{os.getpid()}.part{i}") for i in range(count)]

    def share(index: int, alive: Callable) -> bool:
        runs = (render(*run) for run in alive(rows.bridge_runs(slices[index])))
        if index == 0:
            return _write_runs(handle, runs, cut)
        with replaced_on_success(parts[index], newline=newline) as part:
            return _write_runs(part, runs, 0)

    skip = cut  # what the first row written loses, until one is written
    try:
        with contextlib.closing(run_shares(share, range(count))) as wrote:
            for index, any_rows in enumerate(wrote):
                if index:
                    _append_part(handle, parts[index], skip)
                if any_rows:
                    skip = 0
    finally:  # the children are reaped by now, so none writes a file after this
        for part in parts[1:]:
            part.unlink(missing_ok=True)
            for temporary in part.parent.glob(f".{part.name}.*.tmp"):
                temporary.unlink()


def write_rows_csv(
    rows: DetourRows, path: str | Path, run_shares: Optional[Callable] = None, cpus: int = 1
) -> int:
    """Write ``rows`` as :func:`csv.writer` writes the :data:`INSIGHT_HEADER`
    row and then one row per insight of ``rows.insights()``: RTTs and gains
    to 3 decimals, pct to 2, a bridge's absent values empty. Replaces
    ``path`` atomically; returns the number of rows written. The bridges
    are written in shares over ``cpus`` CPUs when ``run_shares`` is given
    (see :func:`_write_bridges`)."""
    cell = _csv_cells(rows.nodes)
    lines = (
        f"{cell[s]},{cell[v]},{cell[d]},{overlay:.3f},{direct:.3f},{gain:.3f},{pct:.2f},"
        f"{KIND_IMPROVEMENT}\r\n"
        for s, v, d, overlay, direct, gain, pct in rows.improvements
    )

    def bridge_rows(s: int, v: int, leg_in: float, legs_out: list[tuple[int, float]]) -> list[str]:
        # one list comprehension per (source, via) run, whose source and via
        # cells are joined once
        prefix = f"{cell[s]},{cell[v]},"
        return [
            f"{prefix}{cell[d]},{leg_in + leg_out:.3f},,,,{KIND_BRIDGE}\r\n"
            for d, leg_out in legs_out
        ]

    with replaced_on_success(path, newline="") as handle:
        handle.write(",".join(INSIGHT_HEADER) + "\r\n")
        _write_batched(handle, lines)
        _write_bridges(handle, path, "", rows, bridge_rows, 0, run_shares, cpus)
    return len(rows)


def _json_float(value: float) -> str:
    # json.dump spells an overflowed leg sum Infinity; finite floats are repr
    return repr(value) if math.isfinite(value) else json.dumps(value)


def write_rows_json(
    rows: DetourRows, path: str | Path, run_shares: Optional[Callable] = None, cpus: int = 1
) -> int:
    """Write ``rows`` byte-identical to ``json.dump(indent=2)`` of one object
    per insight keyed by :data:`INSIGHT_HEADER`, plus a newline, replacing
    ``path`` atomically; returns the number of rows written. The bridges
    are written in shares over ``cpus`` CPUs when ``run_shares`` is given
    (see :func:`_write_bridges`)."""
    cell = [json.dumps(node) for node in rows.nodes]
    objects = (
        f'  {{\n    "source": {cell[s]},\n    "via": {cell[v]},\n    "destination": {cell[d]},'
        f'\n    "overlay_rtt_ms": {overlay!r},\n    "direct_rtt_ms": {direct!r},'
        f'\n    "improvement_ms": {gain!r},\n    "improvement_pct": {pct!r},'
        f'\n    "kind": "{KIND_IMPROVEMENT}"\n  }}'
        for s, v, d, overlay, direct, gain, pct in rows.improvements
    )

    def bridge_objects(
        s: int, v: int, leg_in: float, legs_out: list[tuple[int, float]]
    ) -> list[str]:
        # each object is led by the ",\n" that joins it to the one before
        prefix = f',\n  {{\n    "source": {cell[s]},\n    "via": {cell[v]},\n    "destination": '
        return [
            f'{prefix}{cell[d]},'
            f'\n    "overlay_rtt_ms": {_json_float(leg_in + leg_out)},'
            f'\n    "direct_rtt_ms": null,'
            f'\n    "improvement_ms": null,\n    "improvement_pct": null,'
            f'\n    "kind": "{KIND_BRIDGE}"\n  }}'
            for d, leg_out in legs_out
        ]

    with replaced_on_success(path) as handle:
        if not len(rows):
            handle.write("[]\n")
            return 0
        handle.write("[\n")
        _write_batched(handle, objects, ",\n")
        # the file's first object has no separator before it
        cut = 0 if rows.improvements else len(",\n")
        _write_bridges(handle, path, None, rows, bridge_objects, cut, run_shares, cpus)
        handle.write("\n]\n")
    return len(rows)
