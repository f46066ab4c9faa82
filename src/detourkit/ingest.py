"""Parsing and cleanup of ping measurement feeds.

Feeds are line-delimited, one measurement result per line. Two layouts are
accepted and auto-detected per line:

* JSON objects using the public ping-result field names (``msm_id``,
  ``prb_id``, ``from``, ``dst_addr``/``dst_name``, ``af``, ``timestamp``,
  ``result`` array with per-run ``rtt``). Optional inline ``status`` and
  ``region`` keys are recognized; unknown keys are ignored.
* A CSV fallback:
  ``measurement_id,source,destination,af,status,start_time,rtt1,rtt2,rtt3``
  where an empty RTT cell means the run was lost.

Each sample carries up to three round-trip runs; :func:`representative_rtt`
reduces them to one value (middle of three, mean of two, or the single run).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .errors import NoDataError, ParseError

STATUS_STOPPED = "stopped"
STATUS_ONGOING = "ongoing"
STATUS_OTHER = "other"
STATUSES = (STATUS_STOPPED, STATUS_ONGOING, STATUS_OTHER)

MAX_RUNS = 3

CSV_FIELDS = (
    "measurement_id",
    "source",
    "destination",
    "af",
    "status",
    "start_time",
    "rtt1",
    "rtt2",
    "rtt3",
)


def normalize_status(raw: object) -> str:
    """Map a raw status string onto {stopped, ongoing, other}."""
    text = str(raw).strip().lower() if raw is not None else ""
    if text in (STATUS_STOPPED, STATUS_ONGOING):
        return text
    return STATUS_OTHER


@dataclass(frozen=True, slots=True)
class PingRecord:
    """One ping measurement sample.

    ``rtt_runs`` holds only the successful runs, in feed order; lost runs
    are simply absent. ``start_time`` is UTC epoch seconds.
    """

    measurement_id: str
    source_id: str
    destination_id: str
    address_family: int
    status: str
    start_time: int
    rtt_runs: tuple[float, ...]
    region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if len(self.rtt_runs) > MAX_RUNS:
            raise ValueError(f"at most {MAX_RUNS} runs per sample")
        for rtt in self.rtt_runs:
            if not (math.isfinite(rtt) and rtt > 0):
                raise ValueError(f"rtt runs must be finite and > 0, got {rtt!r}")


@dataclass(frozen=True)
class FilterSpec:
    """Cleanup rules applied to a record stream.

    All fields are optional; ``address_family`` defaults to 4. Time bounds
    are half-open: a record passes when
    ``min_start_time <= start_time < max_start_time``.
    """

    required_status: Optional[str] = None
    min_start_time: Optional[int] = None
    max_start_time: Optional[int] = None
    address_family: Optional[int] = 4
    region_allowlist: Optional[frozenset[str]] = None


def parse_result_line(line: str, key_by: str = "ip") -> PingRecord:
    """Parse one feed line into a :class:`PingRecord`.

    ``key_by`` selects the source endpoint key for JSON lines: ``"ip"``
    uses the ``from`` address, ``"probe"`` prefers the numeric ``prb_id``.
    Raises :class:`ParseError` (with byte offset) on malformed lines; the
    caller is expected to skip and count those.
    """
    stripped = line.strip()
    if not stripped:
        raise ParseError(0, "empty line")
    if stripped.startswith("{"):
        return _parse_json_line(stripped, key_by)
    return _parse_csv_line(stripped)


def _parse_json_line(text: str, key_by: str) -> PingRecord:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        reason = "unterminated record" if exc.pos >= len(text) else exc.msg
        raise ParseError(exc.pos, reason) from exc
    if not isinstance(obj, dict):
        raise ParseError(0, "record is not an object")

    msm_id = obj.get("msm_id")
    if msm_id is None:
        raise ParseError(0, "missing msm_id")

    if key_by == "probe" and obj.get("prb_id") is not None:
        source = str(obj["prb_id"])
    else:
        source = obj.get("from") or (str(obj["prb_id"]) if obj.get("prb_id") is not None else None)
    destination = obj.get("dst_addr") or obj.get("dst_name")
    if not source:
        raise ParseError(0, "missing source endpoint (from/prb_id)")
    if not destination:
        raise ParseError(0, "missing destination endpoint (dst_addr/dst_name)")

    timestamp = obj.get("timestamp")
    if timestamp is None:
        raise ParseError(0, "missing timestamp")

    runs: list[float] = []
    result = obj.get("result", [])
    if not isinstance(result, list):
        raise ParseError(0, "result is not an array")
    for entry in result:
        if len(runs) == MAX_RUNS:
            break
        if not isinstance(entry, dict):
            continue
        rtt = entry.get("rtt")
        if type(rtt) in (int, float) and math.isfinite(rtt) and rtt > 0:
            runs.append(float(rtt))
        # entries with "x", "error", or a bad rtt (a boolean included) are lost runs

    region = obj.get("region")
    try:
        return PingRecord(
            measurement_id=str(msm_id),
            source_id=str(source),
            destination_id=str(destination),
            address_family=int(obj.get("af", 4)),
            status=normalize_status(obj.get("status")),
            start_time=int(timestamp),
            rtt_runs=tuple(runs),
            region=str(region) if region is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(0, str(exc)) from exc


def _parse_csv_line(text: str) -> PingRecord:
    cells = text.split(",")
    if len(cells) != len(CSV_FIELDS):
        raise ParseError(0, f"expected {len(CSV_FIELDS)} fields, got {len(cells)}")
    msm_id, source, destination, af, status, start_time = (c.strip() for c in cells[:6])
    if not source or not destination:
        raise ParseError(0, "missing endpoint")
    runs: list[float] = []
    for cell in cells[6:]:
        cell = cell.strip()
        if not cell:
            continue
        try:
            rtt = float(cell)
        except ValueError as exc:
            raise ParseError(text.find(cell), f"bad rtt value {cell!r}") from exc
        if math.isfinite(rtt) and rtt > 0:
            runs.append(rtt)
    try:
        return PingRecord(
            measurement_id=msm_id,
            source_id=source,
            destination_id=destination,
            address_family=int(af),
            status=normalize_status(status),
            start_time=int(float(start_time)),
            rtt_runs=tuple(runs),
        )
    except ValueError as exc:
        raise ParseError(0, str(exc)) from exc


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
    regions. ``region_of`` maps an endpoint key to its region code; without
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


@dataclass
class FeedStats:
    """Per-feed accounting: line, parse and drop counts."""

    lines: int = 0
    parsed: int = 0
    parse_errors: int = 0
    drops: Counter = field(default_factory=Counter)


def read_result_file(
    path: str | Path,
    key_by: str = "ip",
    sidecar: Optional[dict[str, tuple[Optional[str], Optional[int]]]] = None,
    stats: Optional[FeedStats] = None,
) -> Iterator[PingRecord]:
    """Stream records from a feed file, skipping and counting bad lines.

    ``sidecar`` patches status (and start time, when given) by measurement
    id, for feeds where that metadata is not inline.
    """
    if stats is None:
        stats = FeedStats()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            stats.lines += 1
            try:
                record = parse_result_line(line, key_by=key_by)
            except ParseError:
                stats.parse_errors += 1
                continue
            stats.parsed += 1
            if sidecar is not None:
                meta = sidecar.get(record.measurement_id)
                if meta is not None:
                    status, start_time = meta
                    changes: dict[str, object] = {}
                    if status is not None:
                        changes["status"] = normalize_status(status)
                    if start_time is not None:
                        changes["start_time"] = start_time
                    if changes:
                        record = replace(record, **changes)
            yield record


def load_status_sidecar(path: str | Path) -> dict[str, tuple[Optional[str], Optional[int]]]:
    """Load a measurement-id -> (status, start_time) CSV table.

    Expected columns: ``measurement_id,status,start_time`` (header row
    optional, start_time column optional).
    """
    table: dict[str, tuple[Optional[str], Optional[int]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for row in csv.reader(handle):
            if not row or not row[0].strip():
                continue
            if row[0].strip().lower() == "measurement_id":
                continue
            msm_id = row[0].strip()
            status = row[1].strip() if len(row) > 1 and row[1].strip() else None
            start_time: Optional[int] = None
            if len(row) > 2 and row[2].strip():
                start_time = int(float(row[2]))
            table[msm_id] = (status, start_time)
    return table
