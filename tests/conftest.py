"""Shared test helpers: tiny graph builders and reference oracles.

The in-memory graph is an oracle here: ``src/`` keeps a graph only as
snapshot rows and as the rank-sorted adjacency that the snapshot reader
gives. :class:`LatencyEdge` checks each edge as the reader checks each row,
:class:`LatencyGraph` holds the edges by source and destination endpoint,
and :func:`load_graph` reads a snapshot one row at a time, raising a
:class:`ParseError` at the first fault, so that ``read_snapshot`` can be
held to it. :func:`graph_of`, :func:`rows_of`, :func:`ranked` and
:func:`save_graph` go between the graph and the shapes ``src/`` uses, and
:func:`edge_rows_of` aggregates records in one share.

The oracles key endpoints by the canonical text ``src/`` gives them, but
sort them by a rule of their own, :func:`endpoint_order`, so that the
order ``src/`` states in one place is checked independently.

The oracles deliberately re-derive results by exhaustive triple loops over
edge lookups, independent of the adjacency-driven production code paths.
The reference report path (one object per insight, sorted, then written
with :mod:`csv`), the reference per-pair improvement histogram and the
reference histogram binning live here too: no command runs them, so they
check the streamed writers, ``DetourRows.histogram`` and ``describe``
rather than sit beside them in ``src/``. So do the one-pair best detour
(:func:`best_detour`), the resampled sum distribution of relay legs
(:func:`monte_carlo_compose`, the empirical check on ``compose``) and the
feed-line writer (:func:`serialize_record`, which ``parse_fields`` reads
back), with small helpers over what the commands run: :func:`edge_rtt`,
:func:`summarize`, :func:`summary_from_moments` and
:func:`parse_result_line`. The traceroute parser's first forms are kept as
oracles of the faster ones: the regular expression that told a hop line
(:func:`hop_line_parts`), the hop-line reader that took the line's rest as
text (:func:`parse_hop_line`) and the token matcher that built every hop
name's segments (:func:`hop_token_match`).

The per-record ingest pipeline is the reference for ``read_result_file``'s
one pass over a feed and for the representative RTT that ``group_samples``
takes inline: :func:`read_records` makes a checked :class:`PingRecord` of
each line (:func:`parse_fields`, over the field readers in ``src/``) and
patches in the sidecar (:func:`_patched`), :func:`filter_records` applies
the drop rules one record at a time, and :func:`representative_rtt` reduces
a record's runs, raising :class:`NoDataError` when there are none.
:func:`sample_of` is a record as the tuple ``read_result_file`` yields.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import pytest

from detourkit.cli import resolve_config
from detourkit.detours import INSIGHT_HEADER, KIND_BRIDGE, KIND_IMPROVEMENT
from detourkit.errors import EmptyInputError, ParseError, ToolkitError, open_text
from detourkit.graph import (
    SNAPSHOT_HEADER,
    EdgeRow,
    canonical_endpoint,
    canonical_ipv4,
    edge_rows,
    group_samples,
    write_snapshot,
)
from detourkit.ingest import (
    MAX_RUNS,
    STATUSES,
    FeedStats,
    FilterSpec,
    _csv_fields,
    _json_fields,
    normalize_status,
)
from detourkit.stats import MODALITY_UNIMODAL, RttSummary, describe

FIXTURES = Path(__file__).parent / "fixtures"


def endpoint_order(endpoint: str) -> tuple[bool, str]:
    """Addresses and host names first, then probe ids (all digits), each by text."""
    return (endpoint.isdigit(), endpoint)


class NoDataError(ToolkitError):
    """A measurement sample carried no successful runs."""


class _PingFields(NamedTuple):
    measurement_id: str
    source_id: str
    destination_id: str
    address_family: int
    status: str
    start_time: int
    rtt_runs: tuple[float, ...]
    region: Optional[str] = None


class PingRecord(_PingFields):
    """One ping measurement sample.

    ``rtt_runs`` holds only the successful runs, in feed order; lost runs
    are simply absent. ``start_time`` is UTC epoch seconds.

    A named tuple, so that :func:`read_records` turns the fields that
    :func:`parse_fields` has already checked into a record without copying
    them one by one. The constructor checks the fields it is given;
    ``_make`` and ``_replace`` do not.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PingRecord":
        record = super().__new__(cls, *args, **kwargs)
        if record.status not in STATUSES:
            raise ValueError(f"unknown status {record.status!r}")
        if len(record.rtt_runs) > MAX_RUNS:
            raise ValueError(f"at most {MAX_RUNS} runs per sample")
        for rtt in record.rtt_runs:
            if not (math.isfinite(rtt) and rtt > 0):
                raise ValueError(f"rtt runs must be finite and > 0, got {rtt!r}")
        return record


def parse_fields(line: str, key_by: str = "ip") -> tuple:
    """Parse one feed line into the fields of a :class:`PingRecord`.

    Returns ``(measurement_id, source_id, destination_id, address_family,
    status, start_time, rtt_runs, region)``, already valid for a record:
    the status is normalized and the runs are finite and positive.
    ``key_by`` selects the source endpoint text for JSON lines: ``"ip"``
    uses the ``from`` address, ``"probe"`` prefers the numeric ``prb_id``.
    Under ``"probe"``, a line with no probe id (every CSV line, and a JSON
    line without ``prb_id``) keys its source by address, so a feed that
    mixes them can name one host twice: as its probe and as its address.
    Raises :class:`ParseError` (with byte offset) on malformed lines,
    including a number that is not finite or too large where an integer is
    needed; the caller is expected to skip and count those.
    """
    stripped = line.strip()
    if not stripped:
        raise ParseError(0, "empty line")
    if stripped.startswith("{"):
        return _json_fields(stripped, key_by)
    return _csv_fields(stripped)


def representative_rtt(record: PingRecord) -> float:
    """Reduce a sample's runs to one noise-resistant RTT.

    Three runs give the middle value after sorting, two give their mean,
    one passes through. Permutation-invariant. Raises :class:`NoDataError`
    when every run was lost.
    """
    runs = record.rtt_runs
    n = len(runs)
    if n == 3:
        a, b, c = runs
        if a > b:
            a, b = b, a
        return min(b, max(a, c))
    if n == 2:
        return (runs[0] + runs[1]) / 2.0
    if n == 1:
        return runs[0]
    raise NoDataError(f"sample {record.measurement_id} has no successful runs")


def filter_records(
    records: Iterable[PingRecord],
    spec: FilterSpec,
    drops: Optional[Counter] = None,
    region_of: Optional[Callable[[str], Optional[str]]] = None,
) -> Iterator[PingRecord]:
    """Yield the records satisfying every present filter field, in order.

    ``drops`` (a ``collections.Counter``) is incremented per drop reason:
    ``status``, ``address_family``, ``start_time``, ``region``,
    ``region_unresolved``.

    When a region allowlist is set, both endpoints must resolve to allowed
    regions. ``region_of`` maps an endpoint's text to its region code; without
    it the record's own ``region`` field stands in for both endpoints.
    Endpoints that resolve to nothing are dropped and counted.
    """
    if drops is None:
        drops = Counter()
    for record in records:
        if spec.required_status is not None and record.status != spec.required_status:
            drops["status"] += 1
            continue
        if spec.address_family is not None and record.address_family != spec.address_family:
            drops["address_family"] += 1
            continue
        if spec.min_start_time is not None and record.start_time < spec.min_start_time:
            drops["start_time"] += 1
            continue
        if spec.max_start_time is not None and record.start_time >= spec.max_start_time:
            drops["start_time"] += 1
            continue
        if spec.region_allowlist is not None:
            if region_of is not None:
                regions = (region_of(record.source_id), region_of(record.destination_id))
            else:
                regions = (record.region, record.region)
            if any(r is None for r in regions):
                drops["region_unresolved"] += 1
                continue
            if any(r not in spec.region_allowlist for r in regions):
                drops["region"] += 1
                continue
        yield record


def _patched(fields: tuple, status: Optional[str], start_time: Optional[int]) -> tuple:
    """``fields`` with the sidecar's status and start time, where given."""
    msm_id, source, destination, af, own_status, own_start_time, runs, region = fields
    return (
        msm_id,
        source,
        destination,
        af,
        normalize_status(status) if status is not None else own_status,
        start_time if start_time is not None else own_start_time,
        runs,
        region,
    )


def read_records(
    path: str | Path,
    key_by: str = "ip",
    sidecar: Optional[dict[str, tuple[Optional[str], Optional[int]]]] = None,
    stats: Optional[FeedStats] = None,
) -> Iterator[PingRecord]:
    """Stream records from a feed file, skipping and counting bad lines,
    a line with a byte that is not UTF-8 among them.

    ``sidecar`` patches status (and start time, when given) by measurement
    id, for feeds where that metadata is not inline.
    """
    if stats is None:
        stats = FeedStats()
    make = PingRecord._make  # parse_fields has checked the fields
    # a byte that is not UTF-8 comes in as a lone surrogate, which encode()
    # rejects; utf-8-sig skips a byte-order mark at the start of the file
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            stats.lines += 1
            try:
                if not line.isascii():
                    line.encode()
                fields = parse_fields(line, key_by=key_by)
            except (ParseError, UnicodeEncodeError):
                stats.parse_errors += 1
                continue
            stats.parsed += 1
            if sidecar is not None:
                meta = sidecar.get(fields[0])
                if meta is not None:
                    fields = _patched(fields, *meta)
            yield make(fields)


def sample_of(record: PingRecord) -> tuple[str, str, str, tuple[float, ...]]:
    """The record as the ``(measurement_id, source, destination, runs)``
    tuple that ``read_result_file`` yields for a kept line."""
    return (record.measurement_id, record.source_id, record.destination_id, record.rtt_runs)


@dataclass(frozen=True, slots=True)
class LatencyEdge:
    """Aggregated directed RTT between two endpoints."""

    source: str
    destination: str
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

    edge(a, b) may exist without edge(b, a), and a missing edge is the
    no-observed-connectivity signal.
    """

    def __init__(self) -> None:
        self._out: dict[str, dict[str, LatencyEdge]] = {}
        self._sorted: Optional[list[str]] = None

    def add_edge(self, edge: LatencyEdge) -> None:
        self._out.setdefault(edge.source, {})[edge.destination] = edge
        self._out.setdefault(edge.destination, {})
        self._sorted = None

    @property
    def node_count(self) -> int:
        return len(self._out)

    @property
    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._out.values())

    def nodes(self) -> Iterator[str]:
        return iter(self._out)

    def sorted_nodes(self) -> list[str]:
        """The nodes in :func:`endpoint_order`, sorted once until an edge is added."""
        if self._sorted is None:
            self._sorted = sorted(self._out, key=endpoint_order)
        return self._sorted

    def edges(self) -> Iterator[LatencyEdge]:
        for dsts in self._out.values():
            yield from dsts.values()

    def edge(self, source: str, destination: str) -> Optional[LatencyEdge]:
        dsts = self._out.get(source)
        return dsts.get(destination) if dsts else None

    def successors(self, source: str) -> Mapping[str, LatencyEdge]:
        return self._out.get(source, {})


def graph_of(rows: Iterable[EdgeRow]) -> LatencyGraph:
    """The graph of snapshot edge rows, each row checked as an edge."""
    graph = LatencyGraph()
    key = canonical_endpoint
    for source, destination, rtt, samples, measurements in rows:
        graph.add_edge(LatencyEdge(key(source), key(destination), rtt, samples, measurements))
    return graph


def rows_of(graph: LatencyGraph) -> list[EdgeRow]:
    """The graph's edges as snapshot rows, in the order ``edge_rows`` gives."""
    edges = sorted(
        graph.edges(), key=lambda e: (endpoint_order(e.source), endpoint_order(e.destination))
    )
    return [
        (e.source, e.destination, e.rtt_ms, e.sample_count, e.measurement_count) for e in edges
    ]


def edge_rows_of(
    records: Iterable[PingRecord], stats: Optional[FeedStats] = None
) -> list[EdgeRow]:
    """The edge rows of ``records`` grouped in one share, as ``ingest`` takes them."""
    samples = map(sample_of, records)
    return edge_rows([group_samples(samples, FeedStats() if stats is None else stats)])


def save_graph(graph: LatencyGraph, path: str | Path) -> None:
    """Write the graph's snapshot with the writer ``ingest`` uses."""
    write_snapshot(rows_of(graph), path)


def ranked(graph: LatencyGraph) -> tuple[list[str], list[list[tuple[int, float]]]]:
    """The graph's nodes in endpoint order and each one's ``(destination rank,
    rtt)`` successor list sorted by rank: what ``read_snapshot`` reads from
    the graph's snapshot, and the input of ``search_detours``."""
    nodes = graph.sorted_nodes()
    rank = {node: i for i, node in enumerate(nodes)}
    successors = [
        sorted([(rank[d], edge.rtt_ms) for d, edge in graph.successors(node).items()])
        for node in nodes
    ]
    return list(nodes), successors


def load_graph(path: str | Path) -> LatencyGraph:
    """Read a snapshot CSV back into a graph, one row at a time.

    Raises :class:`ParseError` with the offending line number on malformed
    snapshots, including a second row for the same edge.
    """
    graph = LatencyGraph()
    for lineno, edge in _snapshot_edges(path):
        if graph.edge(edge.source, edge.destination) is not None:
            pair = (edge.source, edge.destination)
            first = next(n for n, e in _snapshot_edges(path) if (e.source, e.destination) == pair)
            raise ParseError(
                lineno, f"duplicate edge {edge.source} -> {edge.destination}, first at line {first}"
            )
        graph.add_edge(edge)
    return graph


def _snapshot_edges(path: str | Path) -> Iterator[tuple[int, LatencyEdge]]:
    """``(line number, edge)`` of each row of a snapshot CSV, whose first
    line must be its header."""
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            for lineno, row in enumerate(reader, start=1):
                if lineno == 1:
                    if tuple(cell.strip() for cell in row) != SNAPSHOT_HEADER:
                        raise ParseError(lineno, "bad snapshot header")
                    continue
                if not row:
                    continue
                if len(row) != len(SNAPSHOT_HEADER):
                    raise ParseError(lineno, f"expected {len(SNAPSHOT_HEADER)} columns")
                try:
                    edge = LatencyEdge(
                        source=canonical_endpoint(row[0]),
                        destination=canonical_endpoint(row[1]),
                        rtt_ms=float(row[2]),
                        sample_count=int(row[3]),
                        measurement_count=int(row[4]),
                    )
                except ValueError as exc:
                    raise ParseError(lineno, str(exc)) from exc
                yield lineno, edge
            if reader.line_num == 0:  # no line at all, so no header
                raise ParseError(1, "bad snapshot header")
        except csv.Error as exc:  # e.g. a field past csv's size limit
            raise ParseError(reader.line_num, str(exc)) from None


def make_graph(edges: dict[tuple[str, str], float]) -> LatencyGraph:
    return graph_of((*pair, rtt, 1, 1) for pair, rtt in edges.items())


def random_graph(rng: random.Random, max_nodes: int = 50, density: float = 0.3) -> LatencyGraph:
    n = rng.randint(4, max_nodes)
    names = [f"{i:03d}" for i in range(n)]
    edges: dict[tuple[str, str], float] = {}
    for source in names:
        for destination in names:
            if source != destination and rng.random() < density:
                edges[(source, destination)] = rng.uniform(0.1, 300.0)
    if not edges:
        edges[(names[0], names[1])] = rng.uniform(0.1, 300.0)
    return make_graph(edges)


def edge_rtt(graph: LatencyGraph, source: str, destination: str) -> Optional[float]:
    """Aggregated RTT in ms, or None when no connectivity was observed."""
    edge = graph.edge(source, destination)
    return edge.rtt_ms if edge is not None else None


def brute_force_detours(graph: LatencyGraph, threshold_pct: float) -> set[tuple]:
    """O(V^3) re-derivation of every insight, keyed for set comparison."""
    found = set()
    nodes = graph.sorted_nodes()
    for source in nodes:
        for destination in nodes:
            if source == destination:
                continue
            direct = edge_rtt(graph, source, destination)
            for via in nodes:
                if via == source or via == destination:
                    continue
                leg_in = edge_rtt(graph, source, via)
                leg_out = edge_rtt(graph, via, destination)
                if leg_in is None or leg_out is None:
                    continue
                overlay = leg_in + leg_out
                if direct is None:
                    found.add((source, via, destination, overlay, None, None, None, "bridge"))
                    continue
                gain = direct - overlay
                if gain > 0 and 100.0 * gain / direct >= threshold_pct:
                    found.add(
                        (
                            source,
                            via,
                            destination,
                            overlay,
                            direct,
                            gain,
                            100.0 * gain / direct,
                            "improvement",
                        )
                    )
    return found


def brute_force_best(
    graph: LatencyGraph, source: str, destination: str
) -> Optional[tuple[float, str]]:
    """Minimal-overlay via, first-in-sorted-order on ties."""
    best: Optional[tuple[float, str]] = None
    for via in graph.sorted_nodes():
        if via == source or via == destination:
            continue
        leg_in = edge_rtt(graph, source, via)
        leg_out = edge_rtt(graph, via, destination)
        if leg_in is None or leg_out is None:
            continue
        overlay = leg_in + leg_out
        if best is None or overlay < best[0]:
            best = (overlay, via)
    return best


def best_detour(graph: LatencyGraph, source: str, destination: str) -> Optional[tuple]:
    """The minimal-overlay relay insight tuple, in :data:`INSIGHT_HEADER`
    order, for one pair, or None.

    Ties on overlay RTT break to the first via in endpoint order. The result reports
    the best relay regardless of any improvement threshold: when the direct
    edge exists the improvement fields may even be negative.
    """
    if source == destination:
        raise ValueError("source and destination must differ")
    best = brute_force_best(graph, source, destination)
    if best is None:
        return None
    overlay, via = best
    direct = edge_rtt(graph, source, destination)
    if direct is None:
        return source, via, destination, overlay, None, None, None, KIND_BRIDGE
    gain = direct - overlay
    return source, via, destination, overlay, direct, gain, 100.0 * gain / direct, KIND_IMPROVEMENT


def report_order(insights: Iterable[tuple]) -> list[tuple]:
    """Deterministic report ordering.

    Improvements first, by percentage descending then source/via/destination;
    bridges after, by source/via/destination, endpoints in :func:`endpoint_order`.
    """
    return sorted(
        insights,
        key=lambda i: (
            0 if i[7] == KIND_IMPROVEMENT else 1,
            -(i[6] or 0.0),
            endpoint_order(i[0]),
            endpoint_order(i[1]),
            endpoint_order(i[2]),
        ),
    )


def _fmt_opt(value: Optional[float], digits: int) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def insight_row(insight: tuple) -> list[str]:
    source, via, destination, overlay, direct, gain, pct, kind = insight
    return [
        source,
        via,
        destination,
        f"{overlay:.3f}",
        _fmt_opt(direct, 3),
        _fmt_opt(gain, 3),
        _fmt_opt(pct, 2),
        kind,
    ]


def write_insights_csv(insights: Iterable[tuple], path: str | Path) -> int:
    """Write the insight export; returns the number of rows written."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(INSIGHT_HEADER)
        for insight in insights:
            writer.writerow(insight_row(insight))
            rows += 1
    return rows


def improvement_histogram(
    insights: Iterable[tuple], bucket_width_pct: float = 1.0
) -> dict[float, int]:
    """Pair count per bucket: each (source, destination) pair's best
    improvement percentage among ``insights``, bridges skipped, counted in
    the bucket floor(pct / width) * width."""
    best: dict[tuple[str, str], float] = {}
    for source, _, destination, *_, pct, _ in insights:
        pair = (source, destination)
        if pct is not None and (pair not in best or pct > best[pair]):
            best[pair] = pct
    buckets = (math.floor(pct / bucket_width_pct) * bucket_width_pct for pct in best.values())
    return dict(Counter(buckets))


def frequency_distribution(
    samples: Sequence[float], bin_width_ms: float
) -> list[tuple[float, int]]:
    """(bin center, count) pairs sorted by center: a sample v falls in the
    bin k = floor(v / w + 0.5) centered on k * w."""
    counts = Counter(math.floor(value / bin_width_ms + 0.5) for value in samples)
    return [(index * bin_width_ms, counts[index]) for index in sorted(counts)]


def summarize(samples: Sequence[float], mode_bin_width_ms: float = 0.5) -> RttSummary:
    """The summary :func:`describe` gives, without its histogram."""
    return describe(samples, mode_bin_width_ms)[0]


def summary_from_moments(
    mean_ms: float,
    median_ms: float,
    variance_ms2: float,
    mode_ms: float,
    sample_count: int = 1,
    modality: str = MODALITY_UNIMODAL,
) -> RttSummary:
    """A summary of known moments; the std dev is derived."""
    return RttSummary(
        mean_ms=mean_ms,
        median_ms=median_ms,
        variance_ms2=variance_ms2,
        mode_ms=mode_ms,
        std_dev_ms=math.sqrt(variance_ms2),
        sample_count=sample_count,
        modality=modality,
    )


def monte_carlo_compose(
    leg_samples: Sequence[Sequence[float]],
    draws: int = 100_000,
    rng: Optional[random.Random] = None,
    mode_bin_width_ms: float = 0.5,
) -> RttSummary:
    """Empirical sum-distribution summary: resample each leg and add.

    This is the independent check on ``compose``: the mean and variance
    agree, while median and mode of sums need not match the added per-leg
    values.
    """
    if rng is None:
        rng = random.Random()
    if not leg_samples or any(len(leg) == 0 for leg in leg_samples):
        raise EmptyInputError("every leg needs samples")
    legs = [list(leg) for leg in leg_samples]
    try:
        sums = [math.fsum(rng.choice(leg) for leg in legs) for _ in range(draws)]
    except OverflowError:
        raise ToolkitError("leg samples add up past the largest float") from None
    return summarize(sums, mode_bin_width_ms=mode_bin_width_ms)


def parse_result_line(line: str, key_by: str = "ip") -> PingRecord:
    """One feed line as a record, as ``read_result_file`` makes it."""
    return PingRecord(*parse_fields(line, key_by))


def serialize_record(record: PingRecord) -> str:
    """Render a record as one JSON feed line.

    ``parse_result_line(serialize_record(r))`` reproduces ``r`` exactly.
    """
    obj: dict[str, object] = {
        "msm_id": record.measurement_id,
        "from": record.source_id,
        "dst_addr": record.destination_id,
        "af": record.address_family,
        "timestamp": record.start_time,
        "result": [{"rtt": rtt} for rtt in record.rtt_runs],
        "status": record.status,
    }
    if record.region is not None:
        obj["region"] = record.region
    return json.dumps(obj, separators=(",", ":"))


HOP_LINE = re.compile(r"^\s*(\d+)\s+(.*)$")


def hop_line_parts(line: str) -> Optional[tuple[str, str]]:
    """The index text and the rest of a stripped trace line that is a hop
    line, or None."""
    match = HOP_LINE.match(line)
    return None if match is None else (match.group(1), match.group(2))


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_hop_line(index: int, rest: str, lineno: int) -> tuple:
    """The ``(index, address, rdns_name)`` hop of a hop line whose text
    past the index is ``rest``."""
    tokens = rest.split()
    address: Optional[str] = None
    name: Optional[str] = None
    saw_endpoint = False
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "*" or token.startswith("!"):
            i += 1
            continue
        # an RTT: float text followed by "ms"
        if i + 1 < len(tokens) and tokens[i + 1] == "ms" and _is_float(token):
            i += 2
            continue
        # a responding endpoint: "name (ip)" or a bare address
        if i + 1 < len(tokens) and tokens[i + 1].startswith("(") and tokens[i + 1].endswith(")"):
            endpoint_name = token
            endpoint_addr = tokens[i + 1][1:-1]
            i += 2
        else:
            canonical = canonical_ipv4(token)
            if canonical is None and _is_float(token):
                raise ParseError(lineno, f"dangling value {token!r}")
            endpoint_name = None if canonical is not None else token
            endpoint_addr = canonical
            i += 1
        if not saw_endpoint:
            address = endpoint_addr
            name = endpoint_name if endpoint_name != endpoint_addr else None
            saw_endpoint = True
    return index, address, name


def token_match(rdns_name: Optional[str], tokens: list[tuple[str, str]]) -> Optional[str]:
    """The first token of ``tokens``, sorted ``(token, token.lower())``
    pairs, that begins a segment of the reverse-DNS name ``rdns_name``."""
    if rdns_name is None:
        return None
    segments = rdns_name.lower().split(".")
    candidates = set(segments)
    for segment in segments:
        candidates.update(segment.split("-"))
    for token, lowered in tokens:
        if any(candidate.startswith(lowered) for candidate in candidates):
            return token
    return None


def load_config_file(path: Path) -> argparse.Namespace:
    """The settings of a config file, as if no flag were given."""
    return resolve_config(argparse.Namespace(config=path))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
