"""Textual traceroute parsing and city-transit detection.

Trace files carry a one-line header ``# source_label | destination``
followed by conventional traceroute output (hop number, responding
name/address pairs, up to three RTTs, ``*`` for timeouts). Each hop line
is read as an ``(index, address, rdns_name)`` tuple, and a trace's hop
count is its number of hop lines, timeouts included.

Whether a trace transits a given city is decided by reverse-DNS token
matching first (airport-code style router names), geolocation second;
router geo data alone is too unreliable to lead. The first hop with
either kind of evidence decides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from .errors import ParseError, open_text
from .geo import GeoRecord
from .graph import canonical_ipv4

VERDICT_YES = "yes"
VERDICT_NO = "no"
VERDICT_UNKNOWN = "unknown"

# fraction of hops that must be unassessable before "no" degrades to "unknown"
UNKNOWN_HOP_FRACTION = 0.5

_TRACEROUTE_TO = re.compile(r"^traceroute to (\S+)", re.IGNORECASE)


# One hop line as ``(index, address, rdns_name)``. Unresponsive hops have no
# address. When a line shows several responding endpoints (per-packet load
# balancing), the first one names the hop; the RTTs on the line are read
# past, not kept.
Hop = tuple[int, Optional[str], Optional[str]]


@dataclass(frozen=True, slots=True)
class TracerouteTrace:
    source_label: str
    destination: str
    hops: tuple[Hop, ...]


# the city that traceroutes looks for by default: (rDNS tokens, geolocation city)
LOS_ANGELES = (frozenset({"lax", "losangeles", "la-"}), "Los Angeles")


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_hop_line(index: int, tokens: list[str], lineno: int) -> Hop:
    """The hop of a hop line's whitespace-separated ``tokens``, the first
    of which is its ``index``."""
    count = len(tokens)
    address: Optional[str] = None
    name: Optional[str] = None
    saw_endpoint = False
    i = 1
    while i < count:
        token = tokens[i]
        i += 1
        following = tokens[i] if i < count else ""  # no token is empty
        # an RTT: float text followed by "ms"
        if following == "ms" and _is_float(token):
            i += 1
            continue
        if token == "*" or token.startswith("!"):  # neither is float text
            continue
        # a responding endpoint: "name (ip)" or a bare address
        if following.startswith("(") and following.endswith(")"):
            endpoint_name = token
            endpoint_addr = following[1:-1]
            i += 1
        else:
            canonical = canonical_ipv4(token)
            if canonical is None and _is_float(token):
                raise ParseError(lineno, f"dangling value {token!r}")
            endpoint_name = None if canonical is not None else token
            endpoint_addr = canonical
        if not saw_endpoint:
            address = endpoint_addr
            # traceroute prints the address twice when reverse DNS fails
            name = endpoint_name if endpoint_name != endpoint_addr else None
            saw_endpoint = True
    return index, address, name


def parse_traceroute(text: str) -> TracerouteTrace:
    """Parse one trace. Raises :class:`ParseError` with the line number."""
    source_label = ""
    destination = ""
    hops: list[Hop] = []
    last_index = 0
    saw_content = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        # a hop line: its index (decimal digits), then at least one more token
        if len(tokens) > 1 and tokens[0].isdecimal():
            saw_content = True
            try:
                index = int(tokens[0])
            except ValueError:  # past the int-digit limit
                raise ParseError(lineno, "hop index too long") from None
            if index <= last_index:
                raise ParseError(lineno, f"hop index {index} not increasing")
            last_index = index
            hops.append(_parse_hop_line(index, tokens, lineno))
            continue
        line = raw.strip()
        if line.startswith("#"):
            if saw_content:
                raise ParseError(lineno, "header after hop lines")
            body = line.lstrip("#").strip()
            if "|" in body:
                label_part, dest_part = body.split("|", 1)
                source_label = label_part.strip()
                destination = dest_part.strip()
            else:
                source_label = body
            continue
        header = _TRACEROUTE_TO.match(line)
        if header is None:
            raise ParseError(lineno, f"unrecognizable line {line!r}")
        if not destination:
            destination = header.group(1)
        saw_content = True

    if not hops:
        raise ParseError(1, "no hop lines found")
    return TracerouteTrace(source_label=source_label, destination=destination, hops=tuple(hops))


def read_trace_file(path: str | Path) -> TracerouteTrace:
    with open_text(path) as handle:
        return parse_traceroute(handle.read())


def _token_match(rdns_name: Optional[str], tokens: list[tuple[str, str]]) -> Optional[str]:
    """The first token of ``tokens``, sorted ``(token, token.lower())``
    pairs, that begins a dot- or hyphen-separated segment of the
    reverse-DNS name ``rdns_name``."""
    if rdns_name is None:
        return None
    name = rdns_name.lower()
    # each segment is a substring of the name, so a token in none is in no segment
    if not any(lowered in name for _, lowered in tokens):
        return None
    segments = name.split(".")
    candidates = set(segments)
    for segment in segments:
        candidates.update(segment.split("-"))
    for token, lowered in tokens:
        if any(candidate.startswith(lowered) for candidate in candidates):
            return token
    return None


def detect_city(
    trace: TracerouteTrace,
    tokens: Iterable[str],
    geo_city: Optional[str] = None,
    place: Optional[Callable[[str], Optional[GeoRecord]]] = None,
) -> str:
    """Decide whether the trace transits the city named by its reverse-DNS
    ``tokens`` and its geolocation city ``geo_city``: the verdict
    :data:`VERDICT_YES`, :data:`VERDICT_NO` or :data:`VERDICT_UNKNOWN`.
    Raises ``ValueError`` when there is neither a token nor a geo city.

    ``yes`` needs evidence (a matched rDNS token or a geolocated hop) and
    is returned at the first hop with evidence; with no evidence the
    verdict degrades from ``no`` to ``unknown`` when at least half the hops
    cannot be assessed (no reverse DNS and no geo). ``place`` (such as
    :meth:`GeoCache.place`) gives a hop address's record, or None where it
    is unknown; it is asked only for the address of a hop that no token
    matched.
    """
    lowered = [(token, token.lower()) for token in sorted(tokens)]
    if not lowered and geo_city is None:
        raise ValueError("need at least one token or a geo city")
    wanted = geo_city.lower() if geo_city is not None else None
    unassessable = 0
    for _, address, rdns_name in trace.hops:
        if _token_match(rdns_name, lowered) is not None:
            return VERDICT_YES
        city = None
        if place is not None and address is not None:
            record = place(address)
            if record is not None:
                city = record.city
        if city is not None and city.lower() == wanted:
            return VERDICT_YES
        if rdns_name is None and city is None:
            unassessable += 1
    if trace.hops and unassessable / len(trace.hops) >= UNKNOWN_HOP_FRACTION:
        return VERDICT_UNKNOWN
    return VERDICT_NO
