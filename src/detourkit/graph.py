"""Directed latency graph: aggregation into snapshot rows, the snapshot
writer and reader.

Edge weights are noise-reduced RTT estimates: each kept sample is reduced to
its representative RTT, samples are averaged within a measurement, and the
per-measurement means are averaged across measurements. A missing edge means
no connectivity was observed between the two endpoints.

An endpoint is its canonical text (:func:`canonical_endpoint`), and
:func:`_key_order` is the one order of endpoints. The graph has one shape on
each side of the snapshot file: :func:`edge_rows` gives its rows sorted by
endpoint, :func:`write_snapshot` writes them in that order, and
:func:`read_snapshot` reads the file straight into the sorted endpoints and
rank-sorted successor lists that the relay search walks.
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
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .errors import ParseError, ToolkitError, open_text

SNAPSHOT_HEADER = ("source", "destination", "rtt_ms", "sample_count", "measurement_count")

# a snapshot row: source and destination endpoints, rtt_ms, sample_count,
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


def canonical_endpoint(text: str) -> str:
    """The canonical text of an endpoint: ``text`` stripped, an all-digit
    probe id as it is, an IPv4 address canonicalized, and any other name
    (e.g. a hostname used as a ping target) verbatim."""
    text = text.strip()
    if text.isdigit():
        return text
    canonical = canonical_ipv4(text)
    return canonical if canonical is not None else text


def _key_order(endpoint: str) -> tuple[str, str]:
    """The sort key of an endpoint's canonical text, the one endpoint order:
    addresses and names, then probe ids, each by text. Only a probe id is
    all digits."""
    return ("probe", endpoint) if endpoint.isdigit() else ("ip", endpoint)


def _shared_key(endpoints: dict[str, str], text: str) -> str:
    """The canonical text of endpoint ``text``, worked out once per distinct
    text; texts canonicalizing alike (8.8.000.1, 8.8.0.1) share one string
    through ``endpoints``."""
    endpoint = endpoints.get(text)
    if endpoint is None:
        endpoint = canonical_endpoint(text)
        endpoint = endpoints[text] = endpoints.setdefault(endpoint, endpoint)
    return endpoint


@dataclass
class BuildStats:
    """Accounting for group_samples: records seen, used and skipped."""

    records: int = 0
    used: int = 0
    skipped: Counter = field(default_factory=Counter)

    def merge(self, other: "BuildStats") -> None:
        self.records += other.records
        self.used += other.used
        self.skipped.update(other.skipped)


def group_samples(
    samples: Iterable[tuple[str, str, str, Sequence[float]]], stats: BuildStats
) -> dict:
    """The representative RTTs of ``samples``, the ``(measurement_id, source,
    destination, runs)`` tuples that ``ingest.read_result_file`` yields, as
    ``{(source, destination): {measurement_id: array('d') of RTTs}}``,
    endpoints as canonical text, skipping and counting self-pairs and
    samples with no run.

    A sample's representative RTT is the middle of three runs, the mean of
    two, or the single run: permutation-invariant, and noise-resistant.
    """
    from array import array  # here, so that CLI start-up imports no new module

    groups: dict[tuple[str, str], dict[str, array]] = {}
    # each endpoint text, and each canonical text, -> its canonical text
    endpoints: dict[str, str] = {}
    records = self_pairs = no_data = 0
    for measurement_id, source_text, destination_text, runs in samples:
        records += 1
        source = endpoints.get(source_text) or _shared_key(endpoints, source_text)
        destination = endpoints.get(destination_text) or _shared_key(endpoints, destination_text)
        if source == destination:
            self_pairs += 1
            continue
        count = len(runs)
        if count == 3:
            a, b, c = runs
            if a > b:
                a, b = b, a
            # a <= b: the middle is b, unless c is below it
            rtt = b if c >= b else (c if c > a else a)
        elif count == 2:
            rtt = (runs[0] + runs[1]) / 2.0
        elif count == 1:
            rtt = runs[0]
        else:
            no_data += 1
            continue
        by_msm = groups.get((source, destination))
        if by_msm is None:
            by_msm = groups[source, destination] = {}
        rtts = by_msm.get(measurement_id)
        if rtts is None:
            rtts = by_msm[measurement_id] = array("d")
        rtts.append(rtt)
    stats.records += records
    stats.used += records - self_pairs - no_data
    if self_pairs:
        stats.skipped["self_pair"] += self_pairs
    if no_data:
        stats.skipped["no_data"] += no_data
    return groups


def edge_rows(groups: Iterable[dict]) -> list[EdgeRow]:
    """Join the groups that :func:`group_samples` made of each share of the
    records and take the snapshot's edge rows.

    A row is ``(source, destination, rtt_ms, sample_count,
    measurement_count)``, and the rows are sorted by source, then
    destination. Edge weight = mean over measurements of (mean over that
    measurement's samples of the representative RTT). fsum is correctly
    rounded, so a weight does not depend on the order of its samples: the
    rows are bit-identical under any record reordering or split of the
    records between shares. Raises :class:`ToolkitError` when finite RTTs
    add up past the largest float.
    """
    joined: dict = {}
    for other in groups:
        if not joined:  # nothing to join it to: taken as it is
            joined = other
            continue
        while other:  # each merged run is freed at once
            pair, other_by_msm = other.popitem()
            by_msm = joined.setdefault(pair, {})
            for msm, rtts in other_by_msm.items():
                run = by_msm.setdefault(msm, rtts)
                if run is not rtts:
                    run.extend(rtts)

    rows = []
    for (source, destination), by_msm in joined.items():
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
    endpoints = sorted({endpoint for pair in joined for endpoint in pair}, key=_key_order)
    rank = {endpoint: r for r, endpoint in enumerate(endpoints)}
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


def read_snapshot(path: str | Path) -> tuple[list[str], list[list[tuple[int, float]]]]:
    """Read a snapshot CSV into its nodes, its endpoints in order, and each
    node's successors: the ``(destination rank, rtt_ms)`` list of its edges,
    sorted by rank, where a rank is an index into the nodes.

    Raises :class:`ParseError` with the offending line number on a
    malformed snapshot, including a second row for the same edge. Only then
    is the file read again, to report the fault that comes first in it.
    """
    endpoints: dict[str, str] = {}
    out: defaultdict[str, list[tuple[str, float]]] = defaultdict(list)
    try:
        for _, source, destination, rtt in _snapshot_rows(path, endpoints):
            out[source].append((destination, rtt))
    except ParseError:
        _raise_first_fault(path)
        raise
    nodes = sorted(set(endpoints.values()), key=_key_order)
    rank = {node: r for r, node in enumerate(nodes)}
    successors = []
    for node in nodes:
        # each source's (endpoint, rtt) tuples are freed as its ranked ones are made
        ranked = sorted([(rank[d], rtt) for d, rtt in out.pop(node, ())])
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
    path: str | Path, endpoints: dict[str, str]
) -> Iterator[tuple[int, str, str, float]]:
    """``(line number, source, destination, rtt_ms)`` of each edge row of a
    snapshot CSV, endpoints as canonical text; ``endpoints`` is the map of
    :func:`_shared_key`. Raises :class:`ParseError` at a first line that is
    not the header, and at the first malformed row."""
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
                source = _shared_key(endpoints, row[0])
                destination = _shared_key(endpoints, row[1])
                try:
                    rtt, samples, msms = float(row[2]), int(row[3]), int(row[4])
                except ValueError as exc:
                    raise ParseError(lineno, str(exc)) from exc
                if not (math.isfinite(rtt) and rtt > 0):
                    raise ParseError(lineno, f"edge rtt must be finite and > 0, got {rtt!r}")
                if not samples >= msms >= 1:
                    raise ParseError(lineno, "need sample_count >= measurement_count >= 1")
                if source == destination:
                    raise ParseError(lineno, "self-edges are not allowed")
                yield lineno, source, destination, rtt
        except csv.Error as exc:  # e.g. a field past csv's size limit
            raise ParseError(reader.line_num, str(exc)) from None
