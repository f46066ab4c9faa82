"""Ping-measurement analysis toolkit.

Builds a directed latency graph from ping feeds, searches it for one-hop
relay paths that beat (or bridge) the direct route, enriches findings with
IP locations, analyzes traceroutes for city transit, and composes per-leg
RTT distributions into end-to-end relay predictions.
"""

from .detours import DetourRows, search_detours
from .errors import (
    EmptyInputError,
    InvalidAddressError,
    ParseError,
    ToolkitError,
)
from .geo import GeoCache, GeoLookup, GeoRecord
from .graph import edge_rows, read_snapshot, write_snapshot
from .ingest import FilterSpec
from .stats import RttSummary, compare, compose
from .traceroute import TracerouteTrace, detect_city, parse_traceroute

__all__ = [
    "DetourRows",
    "EmptyInputError",
    "FilterSpec",
    "GeoCache",
    "GeoLookup",
    "GeoRecord",
    "InvalidAddressError",
    "ParseError",
    "RttSummary",
    "ToolkitError",
    "TracerouteTrace",
    "compare",
    "compose",
    "detect_city",
    "edge_rows",
    "parse_traceroute",
    "read_snapshot",
    "search_detours",
    "write_snapshot",
]

__version__ = "0.1.0"
