"""IP-to-location enrichment with a local cache.

Two questions are asked. :meth:`GeoLookup.lookup` (``geo-warm``) goes
cache first; on a miss the configured provider is queried once and the
answer persisted. Reserved and private ranges short-circuit to unknown
without touching the provider, and provider failures degrade to unknown
fields instead of erroring, so desk-scale runs work fully offline.
:meth:`GeoCache.place` (``ingest --regions``, ``detours`` and
``traceroutes``) answers from the cache alone, with None for any text that
is not a known, unreserved address.

The cache is a plain append-friendly CSV (``ip,city,region,country,
timestamp``); the last entry for an IP wins.
"""

from __future__ import annotations

import csv
import ipaddress
import json
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO

from .errors import InvalidAddressError, ParseError, open_text
from .graph import canonical_ipv4

SOURCE_CACHE = "cache"
SOURCE_PROVIDER = "provider"
SOURCE_STATIC = "static_file"

# seconds an HTTP provider waits for one answer
HTTP_TIMEOUT_S = 5.0

# (city, region, country), each None where unknown
Place = tuple[Optional[str], Optional[str], Optional[str]]
ProviderResult = Optional[Place]


@dataclass(frozen=True, slots=True)
class GeoRecord:
    """Location of one IP; None fields are unknown."""

    ip: str
    city: Optional[str]
    region: Optional[str]
    country: Optional[str]
    source: str

    def __post_init__(self) -> None:
        if self.city is not None and self.country is None:
            raise ValueError("a record with a city must carry its country")


def _normalize_fields(
    city: Optional[str], region: Optional[str], country: Optional[str]
) -> Place:
    city = city or None
    region = region or None
    country = country or None
    if country is None:
        city = None
    return city, region, country


def unknown_record(ip: str, source: str = SOURCE_PROVIDER) -> GeoRecord:
    return GeoRecord(ip=ip, city=None, region=None, country=None, source=source)


def _location_rows(
    handle: TextIO, path: str | Path, places: dict[Place, Place], ips: Optional[set[str]] = None
) -> Iterator[tuple[str, Place]]:
    """``(ip, place)`` of each row of an ``ip,city,region,country`` CSV but
    blank and header rows (and, when ``ips`` is given, the rows of other
    IPs), cells stripped and the place normalized; every row is read, and an
    unreadable one is a :class:`ParseError` naming ``path``. Rows of one
    place share one tuple through ``places``."""
    reader = csv.reader(handle)
    try:
        for row in reader:
            if (
                row
                and (ip := row[0].strip())
                and (ips is None or ip in ips)
                and ip.lower() != "ip"
            ):
                cells = [cell.strip() for cell in row[1:4]] + [""] * (4 - len(row))
                place = _normalize_fields(*cells)
                yield ip, places.setdefault(place, place)
    except csv.Error as exc:
        raise ParseError(reader.line_num, f"{path}: {exc}") from None


class NullGeoProvider:
    """Always answers unknown; the fully-offline default."""

    source_label = SOURCE_PROVIDER

    def fetch(self, ip: str) -> ProviderResult:
        return None


class StaticFileGeoProvider:
    """Serves lookups from a CSV of ip,city,region,country rows."""

    source_label = SOURCE_STATIC

    def __init__(self, path: str | Path):
        with open_text(path, newline="") as handle:
            self._table = dict(_location_rows(handle, path, {}))

    def fetch(self, ip: str) -> ProviderResult:
        return self._table.get(ip)


class HttpGeoProvider:
    """Queries a per-IP HTTP resource returning city/region/country JSON.

    Requests are spaced at least ``min_interval_s`` apart. Any transport or
    decoding failure yields None so callers degrade to unknown.
    """

    source_label = SOURCE_PROVIDER

    def __init__(
        self,
        base_url: str,
        min_interval_s: float = 0.1,
        fetcher: Optional[Callable[[str, float], dict]] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.min_interval_s = min_interval_s
        self._fetcher = fetcher if fetcher is not None else self._http_get
        self._last_request = 0.0

    @staticmethod
    def _http_get(url: str, timeout_s: float) -> dict:
        # imported here: it adds tens of ms to every command, and only this provider needs it
        import urllib.request

        # urlopen raises on a non-2xx status
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            return json.load(response)

    def fetch(self, ip: str) -> ProviderResult:
        wait = self._last_request + self.min_interval_s - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self._last_request = time.monotonic()
        try:
            payload = self._fetcher(f"{self.base_url}/{ip}", HTTP_TIMEOUT_S)
        except Exception:
            return None
        if not isinstance(payload, dict):
            return None
        return _normalize_fields(
            payload.get("city"), payload.get("region"), payload.get("country")
        )


class GeoCache:
    """CSV-backed ip -> location cache; appends only, last entry wins.

    Rows are appended through one handle, opened on the first put (which
    creates the file's directory if it is missing) and flushed after every
    row; close the cache (or use it as a context manager) once done. A last
    line without its newline is a torn write: loading skips it and counts it
    in ``torn_lines``, and the first put cuts it off so that the new row
    starts on a line of its own.

    With ``only``, a cache that answers for a few texts keeps the rows of
    the addresses they spell and builds no record for the others; the
    whole file is still read and checked.
    """

    HEADER = ("ip", "city", "region", "country", "timestamp")

    def __init__(self, path: str | Path, only: Optional[Iterable[str]] = None):
        self.path = Path(path)
        # ip -> its place, one shared tuple per distinct place
        self._entries: dict[str, Place] = {}
        self._places: dict[Place, Place] = {}
        self._handle: Optional[TextIO] = None
        self._writer = None
        self._complete_bytes: Optional[int] = None
        self.torn_lines = 0
        if self.path.exists():
            ips = None
            if only is not None:
                ips = {ip for text in only if (ip := canonical_ipv4(text.strip())) is not None}
            self._load(ips)

    def _load(self, ips: Optional[set[str]]) -> None:
        with open(self.path, "rb") as raw:
            raw.seek(max(raw.seek(0, os.SEEK_END) - 1, 0))
            if raw.read(1) not in (b"", b"\n", b"\r"):
                # cut on bytes: the write may have stopped inside a
                # multi-byte character, which would fail to decode
                raw.seek(0)
                data = raw.read()
                self._complete_bytes = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
                self.torn_lines += 1
        with open_text(self.path, newline="", size=self._complete_bytes) as handle:
            self._entries.update(_location_rows(handle, self.path, self._places, ips))

    def get(self, ip: str) -> Optional[GeoRecord]:
        place = self._entries.get(ip)
        return None if place is None else GeoRecord(ip, *place, SOURCE_CACHE)

    def place(self, text: str) -> Optional[GeoRecord]:
        """The cached record of the IPv4 address ``text`` spells, or None
        where it spells none, a reserved one or one with no cache row."""
        canonical = canonical_ipv4(text.strip())
        if canonical is None:
            return None
        place = self._entries.get(canonical)
        if place is None or _is_reserved(canonical):
            return None
        return GeoRecord(canonical, *place, SOURCE_CACHE)

    def put(self, record: GeoRecord) -> None:
        place = (record.city, record.region, record.country)
        self._entries[record.ip] = self._places.setdefault(place, place)
        if self._writer is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8", newline="")
            if self._complete_bytes is not None:
                self._handle.truncate(self._complete_bytes)
                self._complete_bytes = None
            self._writer = csv.writer(self._handle)
            if self._handle.seek(0, os.SEEK_END) == 0:
                self._writer.writerow(self.HEADER)
        self._writer.writerow(
            [
                record.ip,
                record.city or "",
                record.region or "",
                record.country or "",
                int(time.time()),
            ]
        )
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = self._writer = None

    def __enter__(self) -> "GeoCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._entries)


def _reserved_bounds() -> list[int]:
    """Sorted ``[start, end + 1, ...]`` of the disjoint address ranges that
    :mod:`ipaddress` of the running Python classes as private, reserved,
    loopback, link-local, multicast or unspecified."""
    constants = ipaddress.IPv4Address._constants

    def span(network) -> tuple[int, int]:
        return int(network.network_address), int(network.broadcast_address) + 1

    ranges = [span(network) for network in constants._private_networks]
    # newer releases carve a few globally reachable blocks out of the private ones
    for network in getattr(constants, "_private_networks_exceptions", ()):
        cut_start, cut_end = span(network)
        ranges = [
            (start, end)
            for low, high in ranges
            for start, end in ((low, min(high, cut_start)), (max(low, cut_end), high))
            if start < end
        ]
    ranges += [
        span(network)
        for network in (
            constants._reserved_network,
            constants._loopback_network,
            constants._linklocal_network,
            constants._multicast_network,
            ipaddress.IPv4Network(constants._unspecified_address),
        )
    ]
    bounds: list[int] = []
    for start, end in sorted(ranges):
        if bounds and start <= bounds[-1]:
            bounds[-1] = max(bounds[-1], end)
        else:
            bounds += (start, end)
    return bounds


_RESERVED_BOUNDS = _reserved_bounds()


def _is_reserved(ip: str) -> bool:
    """Whether a canonical dotted quad lies in one of the ranges of
    :func:`_reserved_bounds`."""
    a, b, c, d = map(int, ip.split("."))
    return bisect_right(_RESERVED_BOUNDS, (a << 24) | (b << 16) | (c << 8) | d) % 2 == 1


class GeoLookup:
    """Cache-then-provider lookup pipeline.

    A miss is not remembered: each lookup of an address that is neither
    cached nor resolved asks the provider again, so a caller that wants
    one provider call per address asks once per distinct address.
    """

    def __init__(self, cache: Optional[GeoCache] = None, provider=None):
        self.cache = cache
        self.provider = provider if provider is not None else NullGeoProvider()

    def lookup(self, ip: str) -> GeoRecord:
        """Locate one IPv4 address; never fails for valid input."""
        canonical = canonical_ipv4(ip.strip())
        if canonical is None:
            raise InvalidAddressError(f"not an IPv4 address: {ip!r}")
        if _is_reserved(canonical):
            return unknown_record(canonical)
        if self.cache is not None:
            cached = self.cache.get(canonical)
            if cached is not None:
                return cached
        result = self.provider.fetch(canonical)
        if result is None:
            return unknown_record(canonical, source=self.provider.source_label)
        city, region, country = _normalize_fields(*result)
        record = GeoRecord(
            ip=canonical,
            city=city,
            region=region,
            country=country,
            source=self.provider.source_label,
        )
        if self.cache is not None:
            self.cache.put(record)
        return record
