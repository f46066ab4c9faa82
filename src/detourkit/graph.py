"""Directed latency graph aggregated from ping records.

Edge weights are noise-reduced RTT estimates: each record is reduced to its
representative RTT, samples are averaged within a measurement, and the
per-measurement means are averaged across measurements. A missing edge means
no connectivity was observed between the two endpoints.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, TextIO

from .errors import NoDataError, ParseError, ToolkitError, open_text
from .ingest import PingRecord, representative_rtt

KIND_PROBE = "probe"
KIND_IP = "ip"

SNAPSHOT_HEADER = ("source", "destination", "rtt_ms", "sample_count", "measurement_count")


# each spelling of an octet with at most three ASCII digits -> its canonical text
_OCTETS = {text.zfill(width): text for text in map(str, range(256)) for width in (1, 2, 3)}


def canonical_ipv4(text: str) -> Optional[str]:
    """Return the canonical dotted-quad form (no leading zeros), or None.

    Octets are ASCII digits, as :mod:`ipaddress` reads them; unlike it,
    leading zeros are accepted and dropped. Never raises.
    """
    parts = text.split(".")
    if len(parts) != 4:
        return None
    octets = []
    for part in parts:
        if len(part) > 3:  # longer spellings are octets only through leading zeros
            part = part.lstrip("0") or "0"
        octet = _OCTETS.get(part)
        if octet is None:
            return None
        octets.append(octet)
    return ".".join(octets)


@dataclass(frozen=True, order=True, slots=True)
class EndpointKey:
    """A graph node: a numeric probe id or an IP address.

    Ordering is (kind, value), used for deterministic tie-breaking.
    """

    kind: str
    value: str

    @classmethod
    def from_text(cls, text: str) -> "EndpointKey":
        """Classify raw endpoint text: all-digits -> probe, else ip.

        IPv4 values are canonicalized; non-IP text (e.g. a hostname used as
        a ping target) is kept verbatim under the ip kind.
        """
        text = text.strip()
        if text.isdigit():
            return cls(KIND_PROBE, text)
        canonical = canonical_ipv4(text)
        return cls(KIND_IP, canonical if canonical is not None else text)

    def __str__(self) -> str:
        return self.value


def _shared_key(keys: dict[str, EndpointKey], text: str) -> EndpointKey:
    """The key of endpoint ``text``, parsed once per distinct text; texts
    canonicalizing alike (8.8.000.1, 8.8.0.1) share it through ``keys``."""
    key = keys.get(text)
    if key is None:
        key = EndpointKey.from_text(text)
        key = keys[text] = keys.setdefault(key.value, key)
    return key


@dataclass(frozen=True, slots=True)
class LatencyEdge:
    """Aggregated directed RTT between two endpoints."""

    source: EndpointKey
    destination: EndpointKey
    rtt_ms: float
    sample_count: int
    measurement_count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rtt_ms) and self.rtt_ms > 0):
            raise ValueError(f"edge rtt must be finite and > 0, got {self.rtt_ms!r}")
        if not self.sample_count >= self.measurement_count >= 1:
            raise ValueError("need sample_count >= measurement_count >= 1")
        if self.source == self.destination:
            raise ValueError("self-edges are not allowed")


class LatencyGraph:
    """Directed graph of endpoints, adjacency-indexed by source.

    Immutable once built; edge(a, b) may exist without edge(b, a), and a
    missing edge is the no-observed-connectivity signal.
    """

    def __init__(self) -> None:
        self._out: dict[EndpointKey, dict[EndpointKey, LatencyEdge]] = {}

    def add_edge(self, edge: LatencyEdge) -> None:
        self._out.setdefault(edge.source, {})[edge.destination] = edge
        self._out.setdefault(edge.destination, {})

    @property
    def node_count(self) -> int:
        return len(self._out)

    @property
    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._out.values())

    def nodes(self) -> Iterator[EndpointKey]:
        return iter(self._out)

    def edges(self) -> Iterator[LatencyEdge]:
        for dsts in self._out.values():
            yield from dsts.values()

    def edge(self, source: EndpointKey, destination: EndpointKey) -> Optional[LatencyEdge]:
        dsts = self._out.get(source)
        return dsts.get(destination) if dsts else None

    def successors(self, source: EndpointKey) -> Mapping[EndpointKey, LatencyEdge]:
        return self._out.get(source, {})


@dataclass
class BuildStats:
    """Accounting for build_graph: records seen, used and skipped."""

    records: int = 0
    used: int = 0
    skipped: Counter = field(default_factory=Counter)

    def merge(self, other: "BuildStats") -> None:
        self.records += other.records
        self.used += other.used
        self.skipped.update(other.skipped)


def group_samples(
    records: Iterable[PingRecord], stats: BuildStats, keys: dict[str, EndpointKey]
) -> dict:
    """The representative RTTs of ``records`` as ``{(source value,
    destination value): {measurement_id: array('d') of RTTs}}``, skipping
    and counting self-pairs and no-data records. ``keys`` maps each
    endpoint text, and each key's value, to its key; a value names one key,
    as only a probe id is all digits."""
    from array import array  # here, so that CLI start-up imports no new module

    groups: dict[tuple[str, str], dict[str, array]] = {}
    for record in records:
        stats.records += 1
        source = keys.get(record.source_id) or _shared_key(keys, record.source_id)
        destination = keys.get(record.destination_id) or _shared_key(keys, record.destination_id)
        if source is destination:
            stats.skipped["self_pair"] += 1
            continue
        try:
            rtt = representative_rtt(record)
        except NoDataError:
            stats.skipped["no_data"] += 1
            continue
        by_msm = groups.setdefault((source.value, destination.value), {})
        by_msm.setdefault(record.measurement_id, array("d")).append(rtt)
        stats.used += 1
    return groups


def build_graph(
    records: Iterable[PingRecord],
    stats: Optional[BuildStats] = None,
    merge: Iterable[dict] = (),
) -> LatencyGraph:
    """Aggregate filtered records into a latency graph.

    Edge weight = mean over measurements of (mean over that measurement's
    samples of the representative RTT). Self-pairs and no-data records are
    skipped and counted. Groups in ``merge``, made by :func:`group_samples`
    from other records, join those of ``records`` before the weights are
    taken. fsum is correctly rounded, so a weight does not depend on the
    order of its samples: the graph is bit-identical under any record
    reordering or split of the records between ``records`` and ``merge``.
    Raises :class:`ToolkitError` when finite RTTs add up past the largest
    float.
    """
    if stats is None:
        stats = BuildStats()
    keys: dict[str, EndpointKey] = {}
    groups = group_samples(records, stats, keys)
    for other in merge:
        while other:  # each merged run is freed at once
            pair, other_by_msm = other.popitem()
            for value in pair:
                _shared_key(keys, value)
            by_msm = groups.setdefault(pair, {})
            for msm, rtts in other_by_msm.items():
                run = by_msm.setdefault(msm, rtts)
                if run is not rtts:
                    run.extend(rtts)

    graph = LatencyGraph()
    for (source, destination), by_msm in groups.items():
        try:
            means = [math.fsum(rtts) / len(rtts) for _, rtts in sorted(by_msm.items())]
            rtt = math.fsum(means) / len(means)
        except OverflowError:
            rtt = math.inf
        # inf also comes from a two-run mean that overflowed
        if rtt == math.inf:
            raise ToolkitError(f"RTTs of {source} -> {destination} add up past the largest float")
        graph.add_edge(
            LatencyEdge(
                source=keys[source],
                destination=keys[destination],
                rtt_ms=rtt,
                sample_count=sum(len(rtts) for rtts in by_msm.values()),
                measurement_count=len(by_msm),
            )
        )
    return graph


@contextmanager
def replaced_on_success(path: str | Path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Write UTF-8 text to a temporary file beside ``path`` that replaces
    ``path`` when the ``with`` block completes, creating ``path``'s
    directory first if it is missing.

    If the block raises, the temporary file is removed and ``path`` keeps
    what it held before, so a reader never sees a partial output.
    """
    target = Path(path)
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    target.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(temporary, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_graph(graph: LatencyGraph, path: str | Path) -> None:
    """Write the snapshot CSV (RTTs in shortest round-trip form, so
    :func:`load_graph` reads back the exact weights), replacing ``path``
    atomically."""
    with replaced_on_success(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SNAPSHOT_HEADER)
        rows = sorted(graph.edges(), key=lambda e: (e.source, e.destination))
        for edge in rows:
            writer.writerow(
                [
                    edge.source.value,
                    edge.destination.value,
                    repr(edge.rtt_ms),
                    edge.sample_count,
                    edge.measurement_count,
                ]
            )


def load_graph(path: str | Path) -> LatencyGraph:
    """Read a snapshot CSV back into a graph.

    Raises :class:`ParseError` with the offending line number on malformed
    snapshots, including a second row for the same edge.
    """
    graph = LatencyGraph()
    for lineno, edge in _snapshot_edges(path):
        if graph.edge(edge.source, edge.destination) is not None:
            # found again rather than remembered, so a valid load keeps no line table
            pair = (edge.source, edge.destination)
            first = next(n for n, e in _snapshot_edges(path) if (e.source, e.destination) == pair)
            raise ParseError(
                lineno, f"duplicate edge {edge.source} -> {edge.destination}, first at line {first}"
            )
        graph.add_edge(edge)
    return graph


def _snapshot_edges(path: str | Path) -> Iterator[tuple[int, LatencyEdge]]:
    """``(line number, edge)`` of each row of a snapshot CSV."""
    keys: dict[str, EndpointKey] = {}  # text, and each key's value -> its key
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row:
                    continue
                if lineno == 1:
                    if tuple(cell.strip() for cell in row) != SNAPSHOT_HEADER:
                        raise ParseError(lineno, "bad snapshot header")
                    continue
                if len(row) != len(SNAPSHOT_HEADER):
                    raise ParseError(lineno, f"expected {len(SNAPSHOT_HEADER)} columns")
                try:
                    edge = LatencyEdge(
                        source=_shared_key(keys, row[0]),
                        destination=_shared_key(keys, row[1]),
                        rtt_ms=float(row[2]),
                        sample_count=int(row[3]),
                        measurement_count=int(row[4]),
                    )
                except ValueError as exc:
                    raise ParseError(lineno, str(exc)) from exc
                yield lineno, edge
        except csv.Error as exc:  # e.g. a field past csv's size limit
            raise ParseError(reader.line_num, str(exc)) from None
