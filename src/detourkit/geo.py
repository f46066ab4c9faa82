"""IP-to-location enrichment with a local cache.

Lookups go cache first; on a miss the configured provider is queried once
and the answer persisted. Reserved and private ranges short-circuit to
unknown without touching the provider, and provider failures degrade to
unknown fields instead of erroring, so desk-scale runs work fully offline.

The cache is a plain append-friendly CSV (``ip,city,region,country,
timestamp``); the last entry for an IP wins.
"""

from __future__ import annotations

import csv
import io
import ipaddress
import json
import os
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Optional, TextIO

from .errors import InvalidAddressError, ParseError
from .graph import canonical_ipv4

SOURCE_CACHE = "cache"
SOURCE_PROVIDER = "provider"
SOURCE_STATIC = "static_file"

ProviderResult = Optional[tuple[Optional[str], Optional[str], Optional[str]]]


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
) -> tuple[Optional[str], Optional[str], Optional[str]]:
    city = city or None
    region = region or None
    country = country or None
    if country is None:
        city = None
    return city, region, country


def unknown_record(ip: str, source: str = SOURCE_PROVIDER) -> GeoRecord:
    return GeoRecord(ip=ip, city=None, region=None, country=None, source=source)


def _location_rows(handle: TextIO, path: str | Path) -> Iterator[list[str]]:
    """Stripped ``[ip, city, region, country]`` of each row of an ``ip,city,
    region,country`` CSV but blank and header rows; an unreadable row is a
    :class:`ParseError` naming ``path``."""
    reader = csv.reader(handle)
    try:
        for row in reader:
            if row and (ip := row[0].strip()) and ip.lower() != "ip":
                yield [ip, *(cell.strip() for cell in row[1:4])] + [""] * (4 - len(row))
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
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = _location_rows(handle, path)
            self._table = {ip: _normalize_fields(*place) for ip, *place in rows}

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
        timeout_s: float = 5.0,
        min_interval_s: float = 0.1,
        fetcher: Optional[Callable[[str, float], dict]] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.min_interval_s = min_interval_s
        self._fetcher = fetcher if fetcher is not None else self._http_get
        self._last_request = 0.0
        self._lock = threading.Lock()

    @staticmethod
    def _http_get(url: str, timeout_s: float) -> dict:
        # imported here: it adds tens of ms to every command, and only this provider needs it
        import urllib.request

        # urlopen raises on a non-2xx status
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            return json.load(response)

    def fetch(self, ip: str) -> ProviderResult:
        with self._lock:
            wait = self._last_request + self.min_interval_s - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()
        try:
            payload = self._fetcher(f"{self.base_url}/{ip}", self.timeout_s)
        except Exception:
            return None
        if not isinstance(payload, dict):
            return None
        return _normalize_fields(
            payload.get("city"), payload.get("region"), payload.get("country")
        )


class GeoCache:
    """CSV-backed ip -> location cache; appends only, last entry wins.

    Rows are appended through one handle, opened on the first put and
    flushed after every row; close the cache (or use it as a context
    manager) once done. A last line without its newline is a torn write:
    loading skips it and counts it in ``torn_lines``, and the first put
    cuts it off so that the new row starts on a line of its own.
    """

    HEADER = ("ip", "city", "region", "country", "timestamp")

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, GeoRecord] = {}
        self._handle: Optional[TextIO] = None
        self._complete_bytes: Optional[int] = None
        self.torn_lines = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as raw:
            raw.seek(max(raw.seek(0, os.SEEK_END) - 1, 0))
            torn = raw.read(1) not in (b"", b"\n", b"\r")
            raw.seek(0)
            source: BinaryIO = raw
            if torn:
                # cut on bytes: the write may have stopped inside a
                # multi-byte character, which would fail to decode
                data = raw.read()
                self._complete_bytes = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
                self.torn_lines += 1
                source = io.BytesIO(data[: self._complete_bytes])
            # one shared str per distinct place name instead of one per row
            names: dict[str, str] = {}
            with io.TextIOWrapper(source, encoding="utf-8", newline="") as handle:
                for ip, *place in _location_rows(handle, self.path):
                    city, region, country = _normalize_fields(
                        *(names.setdefault(name, name) for name in place)
                    )
                    self._entries[ip] = GeoRecord(
                        ip=ip,
                        city=city,
                        region=region,
                        country=country,
                        source=SOURCE_CACHE,
                    )

    def get(self, ip: str) -> Optional[GeoRecord]:
        return self._entries.get(ip)

    def put(self, record: GeoRecord) -> None:
        with self._lock:
            self._entries[record.ip] = replace(record, source=SOURCE_CACHE)
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8", newline="")
                if self._complete_bytes is not None:
                    self._handle.truncate(self._complete_bytes)
                    self._complete_bytes = None
                if self._handle.seek(0, os.SEEK_END) == 0:
                    csv.writer(self._handle).writerow(self.HEADER)
            csv.writer(self._handle).writerow(
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
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

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

    Safe to call from parallel workers: provider calls and cache writes are
    serialized. Failed lookups are remembered in-process so repeat calls
    stay idempotent and never re-query the provider.
    """

    def __init__(self, cache: Optional[GeoCache] = None, provider=None):
        self.cache = cache
        self.provider = provider if provider is not None else NullGeoProvider()
        self._lock = threading.Lock()
        self._unresolved: dict[str, GeoRecord] = {}

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
        with self._lock:
            known = self._unresolved.get(canonical)
            if known is not None:
                return known
            if self.cache is not None:
                cached = self.cache.get(canonical)
                if cached is not None:
                    return cached
            result = self.provider.fetch(canonical)
            if result is None:
                record = unknown_record(canonical, source=self.provider.source_label)
                self._unresolved[canonical] = record
                return record
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

    def locate(self, text: str) -> GeoRecord:
        """:meth:`lookup`, except that text that is not an IPv4 address (a
        probe id or a host name) is unknown instead of an error."""
        try:
            return self.lookup(text)
        except InvalidAddressError:
            return unknown_record(text)
