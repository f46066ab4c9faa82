"""Directed latency graph: aggregation into snapshot rows, the snapshot
writer and reader.

Edge weights are noise-reduced RTT estimates: each record is reduced to its
representative RTT, samples are averaged within a measurement, and the
per-measurement means are averaged across measurements. A missing edge means
no connectivity was observed between the two endpoints.

The graph has one shape on each side of the snapshot file: :func:`edge_rows`
gives its rows sorted by endpoint key, :func:`write_snapshot` writes them in
that order, and :func:`read_snapshot` reads the file straight into the
key-sorted nodes and rank-sorted successor lists that the relay search walks.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from .errors import NoDataError, ParseError, ToolkitError, open_text
from .ingest import PingRecord, representative_rtt

KIND_PROBE = "probe"
KIND_IP = "ip"

SNAPSHOT_HEADER = ("source", "destination", "rtt_ms", "sample_count", "measurement_count")

# a snapshot row: source and destination key values, rtt_ms, sample_count,
# measurement_count
EdgeRow = tuple[str, str, float, int, int]


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


def _key_order(value: str) -> tuple[str, str]:
    """The ``(kind, value)`` of the key whose value is ``value``, which
    orders keys as :class:`EndpointKey` does: only a probe id is all digits."""
    return (KIND_PROBE, value) if value.isdigit() else (KIND_IP, value)


def _shared_key(keys: dict[str, EndpointKey], text: str) -> EndpointKey:
    """The key of endpoint ``text``, parsed once per distinct text; texts
    canonicalizing alike (8.8.000.1, 8.8.0.1) share it through ``keys``."""
    key = keys.get(text)
    if key is None:
        key = EndpointKey.from_text(text)
        key = keys[text] = keys.setdefault(key.value, key)
    return key


@dataclass
class BuildStats:
    """Accounting for edge_rows: records seen, used and skipped."""

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


def edge_rows(
    records: Iterable[PingRecord],
    stats: Optional[BuildStats] = None,
    merge: Iterable[dict] = (),
) -> list[EdgeRow]:
    """Aggregate filtered records into the snapshot's edge rows.

    A row is ``(source, destination, rtt_ms, sample_count,
    measurement_count)``, endpoints as key values, and the rows are sorted
    by source key, then destination key. Edge weight = mean over
    measurements of (mean over that measurement's samples of the
    representative RTT). Self-pairs and no-data records are skipped and
    counted. Groups in ``merge``, made by :func:`group_samples` from other
    records, join those of ``records`` before the weights are taken. fsum
    is correctly rounded, so a weight does not depend on the order of its
    samples: the rows are bit-identical under any record reordering or
    split of the records between ``records`` and ``merge``. Raises
    :class:`ToolkitError` when finite RTTs add up past the largest float.
    """
    if stats is None:
        stats = BuildStats()
    groups = group_samples(records, stats, {})
    for other in merge:
        if not groups:  # nothing to join it to: taken as it is
            groups = other
            continue
        while other:  # each merged run is freed at once
            pair, other_by_msm = other.popitem()
            by_msm = groups.setdefault(pair, {})
            for msm, rtts in other_by_msm.items():
                run = by_msm.setdefault(msm, rtts)
                if run is not rtts:
                    run.extend(rtts)

    rows = []
    for (source, destination), by_msm in groups.items():
        try:
            means = [math.fsum(rtts) / len(rtts) for _, rtts in sorted(by_msm.items())]
            rtt = math.fsum(means) / len(means)
        except OverflowError:
            rtt = math.inf
        # inf also comes from a two-run mean that overflowed
        if rtt == math.inf:
            raise ToolkitError(f"RTTs of {source} -> {destination} add up past the largest float")
        samples = sum(len(rtts) for rtts in by_msm.values())
        rows.append((source, destination, rtt, samples, len(by_msm)))
    # each endpoint is ranked once, so that the sort keys are pairs of ints
    endpoints = sorted({value for pair in groups for value in pair}, key=_key_order)
    rank = {value: r for r, value in enumerate(endpoints)}
    rows.sort(key=lambda row: (rank[row[0]], rank[row[1]]))
    return rows


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


def write_snapshot(rows: Iterable[EdgeRow], path: str | Path) -> None:
    """Write edge rows, as :func:`edge_rows` gives them, as the snapshot CSV
    in their order, RTTs in shortest round-trip form so that
    :func:`read_snapshot` reads back the exact weights, replacing ``path``
    atomically."""
    with replaced_on_success(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SNAPSHOT_HEADER)
        writer.writerows((s, d, repr(rtt), samples, msms) for s, d, rtt, samples, msms in rows)


def read_snapshot(path: str | Path) -> tuple[list[EndpointKey], list[list[tuple[int, float]]]]:
    """Read a snapshot CSV into its nodes, sorted by key, and each node's
    successors: the ``(destination rank, rtt_ms)`` list of its edges, sorted
    by rank, where a rank is an index into the nodes.

    Raises :class:`ParseError` with the offending line number on a
    malformed snapshot, including a second row for the same edge. Only then
    is the file read again, to report the fault that comes first in it.
    """
    keys: dict[str, EndpointKey] = {}
    out: defaultdict[str, list[tuple[str, float]]] = defaultdict(list)
    try:
        for _, source, destination, rtt in _snapshot_rows(path, keys):
            out[source].append((destination, rtt))
    except ParseError:
        _raise_first_fault(path)
        raise
    distinct = {key.value: key for key in keys.values()}.values()
    nodes = sorted(distinct, key=lambda node: (node.kind, node.value))
    rank = {node.value: r for r, node in enumerate(nodes)}
    successors = []
    for node in nodes:
        # each source's (value, rtt) tuples are freed as its ranked ones are made
        ranked = sorted([(rank[d], rtt) for d, rtt in out.pop(node.value, ())])
        if any(a[0] == b[0] for a, b in pairwise(ranked)):
            _raise_first_fault(path)  # two rows of one edge
        successors.append(ranked)
    return nodes, successors


def _raise_first_fault(path: str | Path) -> None:
    """Raise the first fault of the snapshot at ``path`` in file order: a
    malformed row or a second row for an edge, naming the first one's line."""
    lines: dict[tuple[str, str], int] = {}
    for lineno, source, destination, _ in _snapshot_rows(path, {}):
        first = lines.setdefault((source, destination), lineno)
        if first != lineno:
            raise ParseError(
                lineno, f"duplicate edge {source} -> {destination}, first at line {first}"
            )


def _snapshot_rows(
    path: str | Path, keys: dict[str, EndpointKey]
) -> Iterator[tuple[int, str, str, float]]:
    """``(line number, source, destination, rtt_ms)`` of each edge row of a
    snapshot CSV, endpoints as key values; ``keys`` is the endpoint key map
    of :func:`_shared_key`. Raises :class:`ParseError` at a first line that
    is not the header, and at the first malformed row."""
    columns = len(SNAPSHOT_HEADER)
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or tuple(cell.strip() for cell in header) != SNAPSHOT_HEADER:
                raise ParseError(1, "bad snapshot header")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != columns:
                    raise ParseError(lineno, f"expected {columns} columns")
                source, destination = _shared_key(keys, row[0]), _shared_key(keys, row[1])
                try:
                    rtt, samples, msms = float(row[2]), int(row[3]), int(row[4])
                except ValueError as exc:
                    raise ParseError(lineno, str(exc)) from exc
                if not (math.isfinite(rtt) and rtt > 0):
                    raise ParseError(lineno, f"edge rtt must be finite and > 0, got {rtt!r}")
                if not samples >= msms >= 1:
                    raise ParseError(lineno, "need sample_count >= measurement_count >= 1")
                if source is destination:
                    raise ParseError(lineno, "self-edges are not allowed")
                yield lineno, source.value, destination.value, rtt
        except csv.Error as exc:  # e.g. a field past csv's size limit
            raise ParseError(reader.line_num, str(exc)) from None
