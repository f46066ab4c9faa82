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

:func:`read_result_file` is the one pass from a feed line to a kept sample:
it reads each line's fields, patches them from the sidecar, applies the
:class:`FilterSpec` drop rules and yields the line as a ``(measurement_id,
source, destination, runs)`` tuple. ``runs`` holds up to three successful
round-trip times, which ``graph.group_samples`` reduces to one value
(middle of three, mean of two, or the single run).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from .errors import ParseError, open_text

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


# the statuses that normalize_status returns as they are: a raw status is
# tested against these before the call, which most lines then skip
_AS_IS = (STATUS_STOPPED, STATUS_ONGOING)


def normalize_status(raw: object) -> str:
    """Map a raw status string onto {stopped, ongoing, other}."""
    text = str(raw).strip().lower() if raw is not None else ""
    if text in _AS_IS:
        return text
    return STATUS_OTHER


@dataclass(frozen=True)
class FilterSpec:
    """Drop rules that :func:`read_result_file` applies to each parsed line.

    All fields are optional; ``address_family`` defaults to 4. Time bounds
    are half-open: a line passes when
    ``min_start_time <= start_time < max_start_time``.
    """

    required_status: Optional[str] = None
    min_start_time: Optional[int] = None
    max_start_time: Optional[int] = None
    address_family: Optional[int] = 4
    region_allowlist: Optional[frozenset[str]] = None


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
    status = obj.get("status")
    try:
        runs: list[float] = []
        for entry in result:
            if not isinstance(entry, dict):
                continue
            rtt = entry.get("rtt")
            if type(rtt) is int:
                # OverflowError past the largest float, as math.isfinite raises
                rtt = float(rtt)
            # entries with "x", "error", or a bad rtt (a boolean included) are
            # lost runs; NaN fails both comparisons
            if type(rtt) is float and 0.0 < rtt < math.inf:
                runs.append(rtt)
                if len(runs) == MAX_RUNS:
                    break  # the entries after the third run are never read
        return (
            str(msm_id),
            str(source),
            str(destination),
            int(obj.get("af", 4)),
            status if status in _AS_IS else normalize_status(status),
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
            status if status in _AS_IS else normalize_status(status),
            int(float(start_time)),
            tuple(runs),
            None,
        )
    except (ValueError, OverflowError) as exc:
        raise ParseError(0, str(exc)) from exc


@dataclass
class FeedStats:
    """Ingest accounting, one conserving chain: :func:`read_result_file`
    counts lines, parsed lines, parse errors and drops by reason, and
    ``graph.group_samples`` counts the kept records, those it used and those
    it skipped by reason. ``lines == parsed + parse_errors``, ``parsed ==
    sum(drops) + records`` and ``records == used + sum(skipped)``."""

    lines: int = 0
    parsed: int = 0
    parse_errors: int = 0
    drops: Counter = field(default_factory=Counter)
    records: int = 0
    used: int = 0
    skipped: Counter = field(default_factory=Counter)

    def merge(self, other: "FeedStats") -> None:
        self.lines += other.lines
        self.parsed += other.parsed
        self.parse_errors += other.parse_errors
        self.drops.update(other.drops)
        self.records += other.records
        self.used += other.used
        self.skipped.update(other.skipped)


def read_result_file(
    path: str | Path,
    key_by: str = "ip",
    sidecar: Optional[dict[str, tuple[Optional[str], Optional[int]]]] = None,
    stats: Optional[FeedStats] = None,
    spec: FilterSpec = FilterSpec(),
    region_of: Optional[Callable[[str], Optional[str]]] = None,
) -> Iterator[tuple[str, str, str, tuple[float, ...]]]:
    """Stream the kept lines of a feed file, in file order, each as a
    ``(measurement_id, source, destination, runs)`` tuple.

    Blank lines and lines starting with ``#`` are skipped. Each other line
    counts in ``stats.lines`` and is read once:

    * its fields are checked as ``key_by`` selects the source endpoint text:
      ``"ip"`` uses a JSON line's ``from`` address, ``"probe"`` prefers its
      numeric ``prb_id``; a line with no probe id (every CSV line, and a
      JSON line without ``prb_id``) keys its source by address, so a feed
      that mixes them can name one host twice. A malformed line, a number
      that is not finite or too large where an integer is needed and a
      byte that is not UTF-8 among them, counts in ``stats.parse_errors``;
    * ``sidecar`` patches its status (and start time, when given) by
      measurement id, for feeds where that metadata is not inline;
    * the ``spec`` drop rules apply in this order, each drop counted in
      ``stats.drops`` by reason: ``status``, ``address_family``,
      ``start_time``, then, with a region allowlist, ``region_unresolved``
      or ``region``. Both endpoints must resolve to allowed regions:
      ``region_of`` maps an endpoint's text to its region code, and without
      it the line's own ``region`` field stands in for both endpoints.

    ``runs`` holds the line's successful runs in feed order, finite and
    positive, at most three; lost runs are simply absent. The counts reach
    ``stats`` once the file is done or the stream is closed.
    """
    if stats is None:
        stats = FeedStats()
    required_status = spec.required_status
    address_family = spec.address_family
    min_start_time = spec.min_start_time
    max_start_time = spec.max_start_time
    allowlist = spec.region_allowlist
    lines = parse_errors = 0
    status_drops = family_drops = time_drops = unresolved_drops = region_drops = 0
    try:
        # a byte that is not UTF-8 comes in as a lone surrogate, which encode()
        # rejects; utf-8-sig skips a byte-order mark at the start of the file
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
            for line in handle:
                text = line.strip()
                if not text or line[0] == "#":
                    continue
                lines += 1
                try:
                    if not line.isascii():
                        line.encode()
                    fields = _json_fields(text, key_by) if text[0] == "{" else _csv_fields(text)
                except (ParseError, UnicodeEncodeError):
                    parse_errors += 1
                    continue
                msm_id, source, destination, family, status, start_time, runs, region = fields
                if sidecar is not None:
                    meta = sidecar.get(msm_id)
                    if meta is not None:
                        if meta[0] is not None:
                            status = meta[0] if meta[0] in _AS_IS else normalize_status(meta[0])
                        if meta[1] is not None:
                            start_time = meta[1]
                if required_status is not None and status != required_status:
                    status_drops += 1
                    continue
                if address_family is not None and family != address_family:
                    family_drops += 1
                    continue
                if (min_start_time is not None and start_time < min_start_time) or (
                    max_start_time is not None and start_time >= max_start_time
                ):
                    time_drops += 1
                    continue
                if allowlist is not None:
                    if region_of is not None:
                        source_region = region_of(source)
                        destination_region = region_of(destination)
                    else:
                        source_region = destination_region = region
                    if source_region is None or destination_region is None:
                        unresolved_drops += 1
                        continue
                    if source_region not in allowlist or destination_region not in allowlist:
                        region_drops += 1
                        continue
                yield msm_id, source, destination, runs
    finally:
        stats.lines += lines
        stats.parsed += lines - parse_errors
        stats.parse_errors += parse_errors
        for reason, count in (
            ("status", status_drops),
            ("address_family", family_drops),
            ("start_time", time_drops),
            ("region_unresolved", unresolved_drops),
            ("region", region_drops),
        ):
            if count:
                stats.drops[reason] += count


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
