"""Ping-measurement analysis toolkit.

Builds a directed latency graph from ping feeds, searches it for one-hop
relay paths that beat (or bridge) the direct route, enriches findings with
IP locations, analyzes traceroutes for city transit, and composes per-leg
RTT distributions into end-to-end relay predictions.
"""

from .detours import DetourInsight, DetourRows, ImprovementHistogram, search_detours
from .errors import (
    EmptyInputError,
    InvalidAddressError,
    NoDataError,
    ParseError,
    ToolkitError,
)
from .geo import GeoCache, GeoLookup, GeoRecord
from .graph import EndpointKey, LatencyEdge, LatencyGraph, build_graph, load_graph, save_graph
from .ingest import (
    FilterSpec,
    PingRecord,
    filter_records,
    representative_rtt,
)
from .stats import (
    ComparisonVerdict,
    OverlayPath,
    RttSummary,
    compare,
    compose,
)
from .traceroute import (
    CityDetection,
    CitySpec,
    TracerouteHop,
    TracerouteTrace,
    detect_city,
    parse_traceroute,
)

__all__ = [
    "ComparisonVerdict",
    "CityDetection",
    "CitySpec",
    "DetourInsight",
    "DetourRows",
    "EmptyInputError",
    "EndpointKey",
    "FilterSpec",
    "GeoCache",
    "GeoLookup",
    "GeoRecord",
    "ImprovementHistogram",
    "InvalidAddressError",
    "LatencyEdge",
    "LatencyGraph",
    "NoDataError",
    "OverlayPath",
    "ParseError",
    "PingRecord",
    "RttSummary",
    "ToolkitError",
    "TracerouteHop",
    "TracerouteTrace",
    "build_graph",
    "compare",
    "compose",
    "detect_city",
    "filter_records",
    "load_graph",
    "parse_traceroute",
    "representative_rtt",
    "save_graph",
    "search_detours",
]

__version__ = "0.1.0"
