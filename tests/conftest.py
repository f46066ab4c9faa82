"""Shared test helpers: tiny graph builders and reference oracles.

The oracles deliberately re-derive results by exhaustive triple loops over
edge lookups, independent of the adjacency-driven production code paths.
The reference report path (one object per insight, sorted, then written
with :mod:`csv`), the reference per-pair improvement histogram and the
reference histogram binning live here too: no command runs them, so they
check the streamed writers, ``DetourRows.histogram`` and ``describe``
rather than sit beside them in ``src/``.
"""

from __future__ import annotations

import argparse
import csv
import math
import random
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import pytest

from detourkit.cli import PipelineConfig, resolve_config
from detourkit.detours import INSIGHT_HEADER, KIND_IMPROVEMENT, DetourInsight
from detourkit.graph import EndpointKey, LatencyEdge, LatencyGraph

FIXTURES = Path(__file__).parent / "fixtures"


def make_graph(edges: dict[tuple[str, str], float]) -> LatencyGraph:
    graph = LatencyGraph()
    for (source, destination), rtt in edges.items():
        graph.add_edge(
            LatencyEdge(
                source=EndpointKey.from_text(source),
                destination=EndpointKey.from_text(destination),
                rtt_ms=rtt,
                sample_count=1,
                measurement_count=1,
            )
        )
    return graph


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


def brute_force_detours(graph: LatencyGraph, threshold_pct: float) -> set[tuple]:
    """O(V^3) re-derivation of every insight, keyed for set comparison."""
    found = set()
    nodes = sorted(graph.nodes())
    for source in nodes:
        for destination in nodes:
            if source == destination:
                continue
            direct = graph.edge_rtt(source, destination)
            for via in nodes:
                if via == source or via == destination:
                    continue
                leg_in = graph.edge_rtt(source, via)
                leg_out = graph.edge_rtt(via, destination)
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
    graph: LatencyGraph, source: EndpointKey, destination: EndpointKey
) -> Optional[tuple[float, EndpointKey]]:
    """Minimal-overlay via, first-in-sorted-order on ties."""
    best: Optional[tuple[float, EndpointKey]] = None
    for via in sorted(graph.nodes()):
        if via == source or via == destination:
            continue
        leg_in = graph.edge_rtt(source, via)
        leg_out = graph.edge_rtt(via, destination)
        if leg_in is None or leg_out is None:
            continue
        overlay = leg_in + leg_out
        if best is None or overlay < best[0]:
            best = (overlay, via)
    return best


def insight_key(insight) -> tuple:
    return (
        insight.source,
        insight.via,
        insight.destination,
        insight.overlay_rtt_ms,
        insight.direct_rtt_ms,
        insight.improvement_ms,
        insight.improvement_pct,
        insight.kind,
    )


def report_order(insights: Iterable[DetourInsight]) -> list[DetourInsight]:
    """Deterministic report ordering.

    Improvements first, by percentage descending then source/via/destination;
    bridges after, by keys.
    """
    return sorted(
        insights,
        key=lambda i: (
            0 if i.kind == KIND_IMPROVEMENT else 1,
            -(i.improvement_pct or 0.0),
            i.source,
            i.via,
            i.destination,
        ),
    )


def _fmt_opt(value: Optional[float], digits: int) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def insight_row(insight: DetourInsight) -> list[str]:
    return [
        insight.source.value,
        insight.via.value,
        insight.destination.value,
        f"{insight.overlay_rtt_ms:.3f}",
        _fmt_opt(insight.direct_rtt_ms, 3),
        _fmt_opt(insight.improvement_ms, 3),
        _fmt_opt(insight.improvement_pct, 2),
        insight.kind,
    ]


def write_insights_csv(insights: Iterable[DetourInsight], path: str | Path) -> int:
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
    insights: Iterable[DetourInsight], bucket_width_pct: float = 1.0
) -> dict[float, int]:
    """Pair count per bucket: each (source, destination) pair's best
    improvement percentage among ``insights``, bridges skipped, counted in
    the bucket floor(pct / width) * width."""
    best: dict[tuple[EndpointKey, EndpointKey], float] = {}
    for insight in insights:
        pct = insight.improvement_pct
        pair = (insight.source, insight.destination)
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


def load_config_file(path: Path) -> PipelineConfig:
    """The settings of a config file, as if no flag were given."""
    return resolve_config(argparse.Namespace(config=path))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
