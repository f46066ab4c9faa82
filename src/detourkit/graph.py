"""Directed latency graph: aggregation into snapshot rows, the snapshot
writer and reader.

Edge weights are noise-reduced RTT estimates: each kept sample is reduced to
its representative RTT, samples are averaged within a measurement, and the
per-measurement means are averaged across measurements. A missing edge means
no connectivity was observed between the two endpoints.

An endpoint is its canonical text (:func:`canonical_endpoint`), and
:func:`_key_order` is the one order of endpoints. Aggregation is flat:
:func:`group_samples` interns a share's endpoints and measurement ids to
ints and keeps one int-keyed dict of RTT arrays, and :func:`edge_rows` joins
the shares' layouts by id. The graph has one shape on each side of the
snapshot file: :func:`edge_rows` gives its rows sorted by endpoint,
:func:`write_snapshot` writes them in that order, and :func:`read_snapshot`
reads the file straight into the sorted endpoints and rank-sorted successor
lists that the relay search walks.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from itertools import pairwise
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TextIO

from .errors import ParseError, ToolkitError, open_text

if TYPE_CHECKING:
    from .ingest import FeedStats

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


# a share's group key packs (source id, destination id, measurement id) into
# one int, 32 bits each; ids fit by construction, since each id names a
# distinct str that the share holds, and 2**32 of them would not fit in memory
_ID_BITS = 32
_ID = (1 << _ID_BITS) - 1

# a share's groups, endpoint id table and measurement id table, as
# group_samples gives them
Layout = tuple[dict, list[str], list[str]]


def _endpoint_id(ids: dict[str, int], endpoints: list[str], text: str) -> int:
    """The id of endpoint ``text``'s canonical text, its index in
    ``endpoints``, worked out once per distinct text: ``ids`` maps each
    text, and each canonical text, to it, so that texts canonicalizing alike
    (8.8.000.1, 8.8.0.1) share one id."""
    endpoint = ids.get(text)
    if endpoint is None:
        canonical = canonical_endpoint(text)
        endpoint = ids.get(canonical)
        if endpoint is None:
            endpoint = ids[canonical] = len(endpoints)
            endpoints.append(canonical)
        ids[text] = endpoint
    return endpoint


def group_samples(
    samples: Iterable[tuple[str, str, str, Sequence[float]]], stats: FeedStats
) -> Layout:
    """The representative RTTs of ``samples``, the ``(measurement_id, source,
    destination, runs)`` tuples that ``ingest.read_result_file`` yields,
    grouped by (source, destination, measurement), skipping self-pairs and
    samples with no run. The records, those used and those skipped by reason
    are added to ``stats``, the share's one ``ingest.FeedStats``.

    Returns ``(groups, endpoints, measurements)``: each endpoint's canonical
    text and each measurement id is interned to a small int, its index in
    ``endpoints`` or ``measurements``, and ``groups`` maps the packed int
    ``source << 64 | destination << 32 | measurement`` of each group to the
    ``array('d')`` of its RTTs. :func:`edge_rows` joins such layouts.

    A sample's representative RTT is the middle of three runs, the mean of
    two, or the single run: permutation-invariant, and noise-resistant.
    """
    from array import array  # here, so that CLI start-up imports no new module

    groups: dict[int, array] = {}
    endpoint_ids: dict[str, int] = {}
    endpoints: list[str] = []
    measurement_ids: dict[str, int] = {}
    records = self_pairs = no_data = 0
    for measurement_id, source_text, destination_text, runs in samples:
        records += 1
        source = endpoint_ids.get(source_text)
        if source is None:
            source = _endpoint_id(endpoint_ids, endpoints, source_text)
        destination = endpoint_ids.get(destination_text)
        if destination is None:
            destination = _endpoint_id(endpoint_ids, endpoints, destination_text)
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
        measurement = measurement_ids.get(measurement_id)
        if measurement is None:
            measurement = measurement_ids[measurement_id] = len(measurement_ids)
        key = (source << _ID_BITS | destination) << _ID_BITS | measurement
        rtts = groups.get(key)
        if rtts is None:
            rtts = groups[key] = array("d")
        rtts.append(rtt)
    stats.records += records
    stats.used += records - self_pairs - no_data
    if self_pairs:
        stats.skipped["self_pair"] += self_pairs
    if no_data:
        stats.skipped["no_data"] += no_data
    return groups, endpoints, list(measurement_ids)


def _ranks(keys: list) -> list[int]:
    """The rank of each of ``keys`` in their sorted order."""
    ranks = [0] * len(keys)
    for rank, index in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        ranks[index] = rank
    return ranks


def _rekey(endpoint_of: list[int], measurement_of: list[int]) -> Callable[[int], int]:
    """The map from a group's key to its key under new ids: ``endpoint_of``
    and ``measurement_of`` give the new id of each old one."""
    source_of = [endpoint << 2 * _ID_BITS for endpoint in endpoint_of]
    destination_of = [endpoint << _ID_BITS for endpoint in endpoint_of]

    def rekeyed(key: int) -> int:
        return (
            source_of[key >> 2 * _ID_BITS]
            | destination_of[key >> _ID_BITS & _ID]
            | measurement_of[key & _ID]
        )

    return rekeyed


def _joined(layouts: Iterable[Layout]) -> Layout:
    """The layouts of all shares, at least one, joined into one. The first
    share's layout is taken as it is; a later share's ids are mapped onto
    the joined tables, which grow by the texts they lack, and its arrays are
    joined group by group."""
    shares = iter(layouts)
    first = groups, endpoints, measurements = next(shares)
    # each text of the joined tables -> its id, made once a second share comes
    endpoint_ids: Optional[dict[str, int]] = None
    for other, other_endpoints, other_measurements in shares:
        if endpoint_ids is None:
            endpoint_ids = {text: index for index, text in enumerate(endpoints)}
            measurement_ids = {text: index for index, text in enumerate(measurements)}
        # each of this share's ids -> the joined id of its text
        rekeyed = _rekey(
            [endpoint_ids.setdefault(text, len(endpoint_ids)) for text in other_endpoints],
            [
                measurement_ids.setdefault(text, len(measurement_ids))
                for text in other_measurements
            ],
        )
        while other:  # each joined array is freed at once
            key, rtts = other.popitem()
            run = groups.setdefault(rekeyed(key), rtts)
            if run is not rtts:
                run.extend(rtts)
    if endpoint_ids is None:
        return first
    return groups, list(endpoint_ids), list(measurement_ids)


def edge_rows(layouts: Iterable[Layout]) -> list[EdgeRow]:
    """Join the layouts that :func:`group_samples` made of each share of the
    records, one share at least, and take the snapshot's edge rows.

    The layouts are joined by id (:func:`_joined`). The groups are then
    sorted by the ranks of their endpoints in :func:`_key_order` and of
    their measurement ids in text order, and the pairs are finished in that
    order.

    A row is ``(source, destination, rtt_ms, sample_count,
    measurement_count)``, and the rows are sorted by source, then
    destination. Edge weight = mean over measurements of (mean over that
    measurement's samples of the representative RTT). fsum is correctly
    rounded, so a weight does not depend on the order of its samples: the
    rows are bit-identical under any record reordering or split of the
    records between shares. Raises :class:`ToolkitError` naming the first
    pair, in row order, whose finite RTTs add up past the largest float.
    """
    groups, endpoints, measurements = _joined(layouts)

    # each endpoint and measurement id is ranked once: a group's key under
    # ranks for ids sorts it by source, destination and measurement id
    ranked = _rekey(_ranks([_key_order(endpoint) for endpoint in endpoints]), _ranks(measurements))
    rows: list[EdgeRow] = []
    runs: list = []  # the RTT arrays of the pair, one per measurement
    for key in sorted(groups, key=ranked):
        if runs and key >> _ID_BITS != pair:
            rows.append(_row(endpoints, pair, runs))
            runs = []
        pair = key >> _ID_BITS
        runs.append(groups.pop(key))  # each pair's arrays are freed once its row is made
    if runs:
        rows.append(_row(endpoints, pair, runs))
    return rows


def _row(endpoints: list[str], pair: int, runs: list) -> EdgeRow:
    """The snapshot row of the pair of endpoint ids ``pair`` (source id <<
    32 | destination id) from the RTT arrays of its measurements, in
    measurement id order."""
    source, destination = endpoints[pair >> _ID_BITS], endpoints[pair & _ID]
    try:
        means = [math.fsum(rtts) / len(rtts) for rtts in runs]
        rtt = math.fsum(means) / len(means)
    except OverflowError:
        rtt = math.inf
    # inf also comes from a two-run mean that overflowed
    if rtt == math.inf:
        raise ToolkitError(f"RTTs of {source} -> {destination} add up past the largest float")
    return source, destination, rtt, sum(map(len, runs)), len(runs)


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
    sorted by rank, where a rank is an index into the nodes. Endpoints are
    interned and ranked as :func:`group_samples` and :func:`edge_rows` do it.

    Raises :class:`ParseError` with the offending line number on a
    malformed snapshot, including a second row for the same edge. Only then
    is the file read again, to report the fault that comes first in it.
    """
    ids: dict[str, int] = {}
    endpoints: list[str] = []
    out: defaultdict[int, list[tuple[int, float]]] = defaultdict(list)
    try:
        for _, source, destination, rtt in _snapshot_rows(path, ids, endpoints):
            out[source].append((destination, rtt))
    except ParseError:
        _raise_first_fault(path)
        raise
    ranks = _ranks([_key_order(endpoint) for endpoint in endpoints])
    nodes: list[str] = [""] * len(endpoints)
    successors: list[list[tuple[int, float]]] = [[]] * len(endpoints)
    for source, endpoint in enumerate(endpoints):
        # each source's (id, rtt) tuples are freed as its ranked ones are made
        ranked = sorted([(ranks[d], rtt) for d, rtt in out.pop(source, ())])
        if any(a[0] == b[0] for a, b in pairwise(ranked)):
            _raise_first_fault(path)  # two rows of one edge
        nodes[ranks[source]] = endpoint
        successors[ranks[source]] = ranked
    return nodes, successors


def _raise_first_fault(path: str | Path) -> None:
    """Raise the first fault of the snapshot at ``path`` in file order: a
    malformed row or a second row for an edge, naming the first one's line."""
    endpoints: list[str] = []
    lines: dict[tuple[int, int], int] = {}
    for lineno, source, destination, _ in _snapshot_rows(path, {}, endpoints):
        first = lines.setdefault((source, destination), lineno)
        if first != lineno:
            raise ParseError(
                lineno,
                f"duplicate edge {endpoints[source]} -> {endpoints[destination]}, "
                f"first at line {first}",
            )


def _snapshot_rows(
    path: str | Path, ids: dict[str, int], endpoints: list[str]
) -> Iterator[tuple[int, int, int, float]]:
    """``(line number, source, destination, rtt_ms)`` of each edge row of a
    snapshot CSV, endpoints as the ids that :func:`_endpoint_id` gives them
    through ``ids`` and ``endpoints``. Raises :class:`ParseError` at a first
    line that is not the header, and at the first malformed row."""
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
                source = _endpoint_id(ids, endpoints, row[0])
                destination = _endpoint_id(ids, endpoints, row[1])
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
