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
rank-indexed rows (:class:`DetourRows`) with their report order, so the
CLI renders them without building an object or sorting per insight. The
improvement rows are flat columns of 8-byte numbers, 48 bytes a row;
besides them it holds the adjacency and a count of bridges, so memory is
O(edges + improvements). Bridges, the bulk of the rows on a dense graph,
are walked again from the adjacency on output.

One writer, :func:`write_rows`, renders the rows as CSV or JSON and
shares that walk out over processes through a share runner
(``cli.run_shares``): it cuts the source ranks into contiguous slices of
about equal work, writes the improvements and the first slice's bridges
in this process and each other slice's bridges into a part file in a
forked child, and copies the parts in after them in slice order, so the
file is the one a single process writes.
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
from itertools import accumulate, chain, starmap
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, TextIO

from .errors import ToolkitError
from .graph import replaced_on_success

if TYPE_CHECKING:
    from array import array

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
    """Every insight of one search as compact rows, with their report order.

    Endpoints are ranks into ``nodes``, the endpoints in order, and
    ``successors[s]`` is the ``(destination, rtt)`` list of s's edges,
    sorted by rank. The improvement rows are held in walk order, one
    ``array`` column per field: ``pairs[i]`` is row i's ``source *
    len(nodes) + destination`` and ``vias[i]`` its via (8-byte ints);
    ``overlays[i]``, ``directs[i]`` and ``pcts[i]`` are its overlay RTT,
    direct RTT and improvement percentage (8-byte floats). Its gain is
    ``directs[i] - overlays[i]``, the float the search computed. ``order``
    (8-byte ints) lists the row indices in report order, by pct descending
    then by rank, so a row takes 48 bytes in all; :meth:`improvements`
    reads the rows in that order.
    Bridges are not held: :meth:`bridge_runs` and :meth:`bridges` walk
    ``successors`` again on each call, in rank order, and ``bridge_count``
    is how many bridges there are. Memory is O(edges + improvements).
    :meth:`bridge_slices` cuts the sources into ranges of about equal work,
    whose walks, one after the other, are the walk of every source.
    """

    nodes: list[str]
    successors: list[list[tuple[int, float]]]
    pairs: array
    vias: array
    overlays: array
    directs: array
    pcts: array
    order: array
    bridge_count: int

    def __len__(self) -> int:
        return len(self.pcts) + self.bridge_count

    def improvements(self) -> Iterator[tuple[int, int, int, float, float, float, float]]:
        """Improvement rows ``(source, via, destination, overlay, direct,
        gain, pct)``, endpoints by rank, in report order."""
        size = len(self.nodes)
        pairs, vias, overlays, directs, pcts = (
            self.pairs, self.vias, self.overlays, self.directs, self.pcts
        )
        for i in self.order:
            pair = pairs[i]
            overlay, direct = overlays[i], directs[i]
            yield pair // size, vias[i], pair % size, overlay, direct, direct - overlay, pcts[i]

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
        for s, v, d, overlay, direct, gain, pct in self.improvements():
            yield nodes[s], nodes[v], nodes[d], overlay, direct, gain, pct, KIND_IMPROVEMENT
        for s, v, d, overlay in self.bridges():
            yield nodes[s], nodes[v], nodes[d], overlay, None, None, None, KIND_BRIDGE

    def histogram(self, bucket_width_pct: float = 1.0) -> dict[float, int]:
        """``{bucket: pair_count}``: each improvable (source, destination)
        pair counted once, in the bucket ``floor(pct / width) * width`` of
        its best improvement percentage."""
        if bucket_width_pct <= 0:
            raise ValueError("bucket_width_pct must be > 0")
        # report order puts a pair's best row first; read backwards, that
        # row's pct is the last one written
        pairs, pcts = self.pairs, self.pcts
        best: dict[int, float] = {}
        for i in reversed(self.order):
            best[pairs[i]] = pcts[i]
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
    only a stable sort on pct, which orders their row indices; bridges
    are only counted here, and :meth:`DetourRows.bridges` walks them again
    in the same order.
    """
    from array import array  # here, so that CLI start-up imports no new module

    if threshold_pct < 0:
        raise ValueError("threshold_pct must be >= 0")
    columns = (array("q"), array("q"), array("d"), array("d"), array("d"))
    add_pair, add_via, add_overlay, add_direct, add_pct = (c.append for c in columns)
    bridge_count = 0
    size = len(nodes)
    # direct[d] is the source's direct RTT to d, or None; reset per source.
    # direct[s] is 0.0, so a relay back to s is no bridge and its gain,
    # -overlay, is < 0
    direct: list[Optional[float]] = [None] * size
    for s, out in enumerate(successors):
        pair = s * size  # the pair (s, d) is pair + d
        for d, rtt in out:
            direct[d] = rtt
        direct[s] = 0.0
        for v, leg_in in out:
            for d, leg_out in successors[v]:
                direct_rtt = direct[d]
                if direct_rtt is None:
                    bridge_count += 1
                    continue
                overlay = leg_in + leg_out
                gain = direct_rtt - overlay
                if gain > 0:
                    pct = 100.0 * gain / direct_rtt
                    if pct >= threshold_pct:
                        add_pair(pair + d)
                        add_via(v)
                        add_overlay(overlay)
                        add_direct(direct_rtt)
                        add_pct(pct)
        direct[s] = None
        for d, _ in out:
            direct[d] = None
    pcts = columns[-1]
    # a stable sort keeps walk order, which is rank order, among equal pcts
    order = array("q", sorted(range(len(pcts)), key=pcts.__getitem__, reverse=True))
    return DetourRows(nodes, successors, *columns, order, bridge_count)


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


def _json_float(value: float) -> str:
    # json.dump spells an overflowed leg sum, or the pct of a gain near the
    # float limit, Infinity; finite floats are repr
    return repr(value) if math.isfinite(value) else json.dumps(value)


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


def write_rows(
    rows: DetourRows, path: str | Path, fmt: str, run_shares: Callable, cpus: int
) -> int:
    """Write ``rows`` as ``fmt``, replacing ``path`` atomically; returns the
    number of rows written. As ``"csv"``, the file is what :func:`csv.writer`
    writes of the :data:`INSIGHT_HEADER` row and then one row per insight of
    ``rows.insights()``: RTTs and gains to 3 decimals, pct to 2, a bridge's
    absent values empty. As ``"json"``, it is ``json.dump(indent=2)`` of one
    object per insight keyed by :data:`INSIGHT_HEADER`, plus a newline.

    Each row is rendered led by its separator, which the first row written
    goes without. The rows are written in shares by ``run_shares``
    (:func:`cli.run_shares` bound to a name): the sources are cut into one
    slice per CPU of ``cpus``, but at most one per
    :data:`BRIDGE_ROWS_PER_SHARE` bridges. The first share, the improvements
    and the first slice's bridges, is written here; each other slice's
    bridges go to a part file beside ``path`` in a child, and the parts are
    copied in after it, in slice order. No part file or temporary file of
    one is left behind."""
    if fmt == "json":
        cell = [json.dumps(node) for node in rows.nodes]
        newline, separator = None, ",\n"
        header, footer = ("[\n", "\n]\n") if len(rows) else ("[]\n", "")

        def improvement(s, v, d, overlay, direct, gain, pct) -> list[str]:
            return [
                f',\n  {{\n    "source": {cell[s]},\n    "via": {cell[v]},'
                f'\n    "destination": {cell[d]},'
                f'\n    "overlay_rtt_ms": {overlay!r},\n    "direct_rtt_ms": {direct!r},'
                f'\n    "improvement_ms": {gain!r},\n    "improvement_pct": {_json_float(pct)},'
                f'\n    "kind": "{KIND_IMPROVEMENT}"\n  }}'
            ]

        def bridges(s, v, leg_in, legs_out) -> list[str]:
            prefix = (
                f',\n  {{\n    "source": {cell[s]},\n    "via": {cell[v]},\n    "destination": '
            )
            return [
                f'{prefix}{cell[d]},'
                f'\n    "overlay_rtt_ms": {_json_float(leg_in + leg_out)},'
                f'\n    "direct_rtt_ms": null,'
                f'\n    "improvement_ms": null,\n    "improvement_pct": null,'
                f'\n    "kind": "{KIND_BRIDGE}"\n  }}'
                for d, leg_out in legs_out
            ]

    else:
        cell = _csv_cells(rows.nodes)
        newline, separator = "", ""
        header, footer = ",".join(INSIGHT_HEADER) + "\r\n", ""

        def improvement(s, v, d, overlay, direct, gain, pct) -> list[str]:
            return [
                f"{cell[s]},{cell[v]},{cell[d]},{overlay:.3f},{direct:.3f},{gain:.3f},{pct:.2f},"
                f"{KIND_IMPROVEMENT}\r\n"
            ]

        def bridges(s, v, leg_in, legs_out) -> list[str]:
            # one list comprehension per (source, via) run, whose source and
            # via cells are joined once
            prefix = f"{cell[s]},{cell[v]},"
            return [
                f"{prefix}{cell[d]},{leg_in + leg_out:.3f},,,,{KIND_BRIDGE}\r\n"
                for d, leg_out in legs_out
            ]

    count = max(1, min(cpus, rows.bridge_count // BRIDGE_ROWS_PER_SHARE))
    slices = rows.bridge_slices(count)
    target = Path(path)
    parts = [target.with_name(f".{target.name}.{os.getpid()}.part{i}") for i in range(count)]
    with replaced_on_success(path, newline=newline) as handle:

        def share(index: int, alive: Callable) -> bool:
            runs = starmap(bridges, alive(rows.bridge_runs(slices[index])))
            if index == 0:
                runs = chain(starmap(improvement, rows.improvements()), runs)
                return _write_runs(handle, runs, len(separator))
            with replaced_on_success(parts[index], newline=newline) as part:
                return _write_runs(part, runs, 0)

        handle.write(header)
        skip = len(separator)  # what the first row written loses, until one is written
        try:
            with contextlib.closing(run_shares(share, range(count))) as wrote:
                for index, any_rows in enumerate(wrote):
                    if index:
                        handle.flush()  # the text written so far goes before the part's bytes
                        with open(parts[index], "rb") as part:
                            part.seek(skip)
                            while chunk := part.read(1 << 16):
                                handle.buffer.write(chunk)
                        parts[index].unlink()
                    if any_rows:
                        skip = 0
        finally:  # the children are reaped by now, so none writes a file after this
            for part in parts[1:]:
                part.unlink(missing_ok=True)
                for temporary in part.parent.glob(f".{part.name}.*.tmp"):
                    temporary.unlink()
        handle.write(footer)
    return len(rows)
