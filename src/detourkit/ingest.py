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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import NoDataError, ParseError, open_text

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

    A named tuple, so that :func:`read_result_file` turns the fields that
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


# json.loads less its per-call checks for a BOM and for whitespace around
# the value, which a stripped line starting with "{" has none of
_decode = json.JSONDecoder().raw_decode


def _json_fields(text: str, key_by: str) -> tuple:
    try:
        obj, end = _decode(text)
    except json.JSONDecodeError as exc:
        reason = "unterminated record" if exc.pos >= len(text) else exc.msg
        raise ParseError(exc.pos, reason) from exc
    except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
        raise ParseError(0, str(exc)) from exc
    if end != len(text):
        # where json.loads reports it: past the whitespace after the value
        raise ParseError(len(text) - len(text[end:].lstrip(" \t\n\r")), "Extra data")
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

    result = obj.get("result", [])
    if not isinstance(result, list):
        raise ParseError(0, "result is not an array")
    region = obj.get("region")
    try:
        runs: list[float] = []
        for entry in result:
            if len(runs) == MAX_RUNS:
                break
            if not isinstance(entry, dict):
                continue
            rtt = entry.get("rtt")
            # entries with "x", "error", or a bad rtt (a boolean included) are lost runs
            if type(rtt) in (int, float) and math.isfinite(rtt) and rtt > 0:
                runs.append(float(rtt))
        return (
            str(msm_id),
            str(source),
            str(destination),
            int(obj.get("af", 4)),
            normalize_status(obj.get("status")),
            int(timestamp),
            tuple(runs),
            str(region) if region is not None else None,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(0, str(exc)) from exc


def _csv_fields(text: str) -> tuple:
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
        return (
            msm_id,
            source,
            destination,
            int(af),
            normalize_status(status),
            int(float(start_time)),
            tuple(runs),
            None,
        )
    except (ValueError, OverflowError) as exc:
        raise ParseError(0, str(exc)) from exc


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


@dataclass
class FeedStats:
    """Per-feed accounting: line, parse and drop counts."""

    lines: int = 0
    parsed: int = 0
    parse_errors: int = 0
    drops: Counter = field(default_factory=Counter)

    def merge(self, other: "FeedStats") -> None:
        self.lines += other.lines
        self.parsed += other.parsed
        self.parse_errors += other.parse_errors
        self.drops.update(other.drops)


def read_result_file(
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


def load_status_sidecar(path: str | Path) -> dict[str, tuple[Optional[str], Optional[int]]]:
    """Load a measurement-id -> (status, start_time) CSV table.

    Expected columns: ``measurement_id,status,start_time`` (header row
    optional, start_time column optional). Raises ``ValueError`` naming the
    line of a row that cannot be read, such as a start time that is not a
    finite number, or of a byte that is not UTF-8.
    """
    table: dict[str, tuple[Optional[str], Optional[int]]] = {}
    try:
        with open_text(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                for row in reader:
                    msm_id, status, start = (cell.strip() for cell in [*row, "", "", ""][:3])
                    if msm_id and msm_id.lower() != "measurement_id":
                        table[msm_id] = (status or None, int(float(start)) if start else None)
            except UnicodeDecodeError:
                raise  # open_text names its line
            except (ValueError, OverflowError, csv.Error) as exc:
                raise ParseError(reader.line_num, f"{path}: {exc}") from exc
    except ParseError as exc:
        # a settings file: a fault in it is a usage error (exit 2), not bad data
        raise ValueError(f"sidecar line {exc.position}: {exc.reason}") from exc
    return table
