"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Global-scale reproduction (the multi-million-logline public dataset, its
absolute pair counts and bucket totals) is explicitly out of reach at desk
scale; the final test here is a throughput check on a synthetic feed
instead.
"""

from __future__ import annotations

import random
import time
from itertools import permutations, product

import pytest

from conftest import (
    FIXTURES,
    PingRecord,
    best_detour,
    edge_rows_of,
    edge_rtt,
    graph_of,
    improvement_histogram,
    make_graph,
    random_graph,
    ranked,
    summarize,
    summary_from_moments,
)
from detourkit.cli import ingest_to_rows
from detourkit.detours import KIND_BRIDGE, KIND_IMPROVEMENT, search_detours
from detourkit.graph import canonical_endpoint
from detourkit.ingest import FilterSpec
from detourkit.stats import compare, compose
from detourkit.traceroute import LOS_ANGELES, detect_city, read_trace_file


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def key(text: str) -> str:
    return canonical_endpoint(text)


def reference_legs():
    leg_ab = summary_from_moments(57.451, 58.0, 159.085, 59.0, sample_count=1000)
    leg_bc = summary_from_moments(
        10.467, 12.217, 11.511, 12.52, sample_count=1000, modality="bimodal"
    )
    return leg_ab, leg_bc


def test_composition_of_reference_leg_summaries():
    started = time.perf_counter()
    leg_ab, leg_bc = reference_legs()
    composed = compose((leg_ab, leg_bc))
    assert composed.mean_ms == pytest.approx(67.918, abs=0.005)
    assert composed.median_ms == pytest.approx(70.217, abs=0.005)
    assert composed.variance_ms2 == pytest.approx(170.596, abs=0.005)
    assert composed.mode_ms == pytest.approx(71.52, abs=0.005)
    assert composed.std_dev_ms == pytest.approx(13.061, abs=0.005)
    assert time.perf_counter() - started < 1.0
    report("leg-composition")


def test_direct_vs_overlay_verdict():
    started = time.perf_counter()
    leg_ab, leg_bc = reference_legs()
    composed = compose((leg_ab, leg_bc))
    direct = summary_from_moments(61.723, 62.0, 117.503, 61.0, sample_count=1000)
    description, median_delta, mode_delta, _ = compare(direct, composed)
    assert median_delta == pytest.approx(8.22, abs=0.01)
    assert mode_delta == pytest.approx(10.52, abs=0.01)
    assert description == "direct route is 8.22 ms faster by median"
    assert time.perf_counter() - started < 1.0
    report("route-comparison-verdict")


def test_reference_insight_fixtures():
    started = time.perf_counter()
    graph = make_graph(
        {
            ("Milpitas", "Morrisdale"): 265.49,
            ("Milpitas", "LasCruces"): 30.0,
            ("LasCruces", "Morrisdale"): 35.0,
            ("Newark", "LasCruces"): 53.5,
            ("Newark", "KenettSquare"): 6.25,
            ("KenettSquare", "LasCruces"): 37.6,
            ("Illinois", "France"): 0.3,
            ("France", "Australia"): 4.6,
        }
    )

    # insights are (source, via, destination, overlay, direct, gain, pct, kind)
    milpitas = best_detour(graph, key("Milpitas"), key("Morrisdale"))
    assert milpitas[1] == key("LasCruces")
    assert milpitas[5] == pytest.approx(200.49, abs=0.01)

    newark = best_detour(graph, key("Newark"), key("LasCruces"))
    assert newark[1] == key("KenettSquare")
    assert newark[3] == pytest.approx(43.85, abs=0.01)
    assert newark[6] == pytest.approx(18.04, abs=0.05)

    assert edge_rtt(graph, key("Illinois"), key("Australia")) is None
    bridge = best_detour(graph, key("Illinois"), key("Australia"))
    assert bridge[7] == KIND_BRIDGE
    assert bridge[1] == key("France")
    assert bridge[3] == pytest.approx(4.9, abs=0.01)
    assert bridge[4] is None

    found = search_detours(*ranked(graph), threshold_pct=1.0)
    emitted = set(found.insights())
    assert milpitas in emitted
    assert newark in emitted
    assert bridge in emitted
    assert time.perf_counter() - started < 1.0
    report("reference-insight-fixtures")


def _oracle_scan(graph, threshold_pct):
    """Independent O(V^3) scan; returns the insight set and best-via map."""
    nodes = graph.sorted_nodes()
    rtt = {(e.source, e.destination): e.rtt_ms for e in graph.edges()}
    insights = set()
    best = {}
    for s in nodes:
        for m in nodes:
            if m == s:
                continue
            leg_in = rtt.get((s, m))
            if leg_in is None:
                continue
            for d in nodes:
                if d == s or d == m:
                    continue
                leg_out = rtt.get((m, d))
                if leg_out is None:
                    continue
                overlay = leg_in + leg_out
                pair = (s, d)
                held = best.get(pair)
                if held is None or overlay < held[0]:
                    best[pair] = (overlay, m)
                direct = rtt.get(pair)
                if direct is None:
                    insights.add((s, m, d, overlay, None, None, None, KIND_BRIDGE))
                else:
                    gain = direct - overlay
                    if gain > 0 and 100.0 * gain / direct >= threshold_pct:
                        insights.add(
                            (s, m, d, overlay, direct, gain, 100.0 * gain / direct, KIND_IMPROVEMENT)
                        )
    return insights, best


def test_detour_search_matches_brute_force_oracle():
    started = time.perf_counter()
    rng = random.Random(2023)
    for round_no in range(200):
        graph = random_graph(rng, max_nodes=50, density=0.3)
        threshold = rng.choice([0.0, 0.5, 1.0, 2.0, 10.0])
        expected_insights, expected_best = _oracle_scan(graph, threshold)

        produced = list(search_detours(*ranked(graph), threshold).insights())
        assert len(produced) == len(set(produced))
        assert set(produced) == expected_insights

        for (source, destination), (overlay, via) in expected_best.items():
            found = best_detour(graph, source, destination)
            assert found[1] == via
            assert found[3] == overlay
        # pairs with no two-leg path stay absent
        nodes = graph.sorted_nodes()
        checked = 0
        for source in nodes:
            for destination in nodes:
                if source != destination and (source, destination) not in expected_best:
                    assert best_detour(graph, source, destination) is None
                    checked += 1
                    if checked >= 10:
                        break
            if checked >= 10:
                break
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(f"oracle-equivalence ({elapsed:.1f}s for 200 graphs)")


def test_threshold_monotonicity_and_histogram_conservation():
    started = time.perf_counter()
    rng = random.Random(99)
    for _ in range(100):
        graph = random_graph(rng, max_nodes=25, density=0.3)
        rows = {t: search_detours(*ranked(graph), t) for t in (1.0, 0.5, 0.0)}
        by_threshold = {
            t: [i for i in rows[t].insights() if i[7] == KIND_IMPROVEMENT] for t in rows
        }
        sets = {t: set(by_threshold[t]) for t in by_threshold}
        assert sets[1.0] <= sets[0.5] <= sets[0.0]

        # the histogram `detours` writes, bucket for bucket against the
        # per-insight reference binning
        at_one = by_threshold[1.0]
        histogram = rows[1.0].histogram(bucket_width_pct=1.0)
        assert histogram == improvement_histogram(at_one, bucket_width_pct=1.0)
        improvable_pairs = {(i[0], i[2]) for i in at_one}
        assert sum(histogram.values()) == len(improvable_pairs)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(f"threshold-monotonicity ({elapsed:.1f}s for 100 graphs)")


def test_aggregation_properties():
    started = time.perf_counter()

    def sample(runs):
        return PingRecord(
            measurement_id="m",
            source_id="a",
            destination_id="b",
            address_family=4,
            status="stopped",
            start_time=0,
            rtt_runs=tuple(runs),
        )

    grid = (0.1, 1.0, 10.0, 100.0)
    for runs in product(grid, repeat=3):
        expected = sorted(runs)[1]
        for ordering in permutations(runs):
            # the weight of an edge of one sample is its representative RTT
            assert edge_rows_of([sample(ordering)])[0][2] == expected

    rng = random.Random(4)
    records = [
        PingRecord(
            measurement_id=f"m{rng.randint(0, 19)}",
            source_id=f"{rng.randint(0, 29)}",
            destination_id=f"{rng.randint(0, 29)}",
            address_family=4,
            status="stopped",
            start_time=0,
            rtt_runs=tuple(rng.uniform(0.5, 200.0) for _ in range(rng.randint(0, 3))),
        )
        for _ in range(1000)
    ]
    baseline = edge_rows_of(records)
    for _ in range(50):
        rng.shuffle(records)
        assert edge_rows_of(records) == baseline
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"aggregation-properties ({elapsed:.1f}s)")


def test_traceroute_corpus():
    started = time.perf_counter()
    expected = [
        (5, "no"),
        (5, "no"),
        (12, "yes"),
        (18, "yes"),
        (12, "yes"),
        (14, "yes"),
        (16, "yes"),
        (14, "yes"),
        (16, "yes"),
        (15, "unknown"),
    ]
    files = sorted((FIXTURES / "traceroutes").iterdir())
    assert len(files) == 10
    results = []
    for path in files:
        trace = read_trace_file(path)
        results.append((len(trace.hops), detect_city(trace, *LOS_ANGELES)))
    assert results == expected
    assert time.perf_counter() - started < 1.0
    report("traceroute-corpus")


def test_two_cluster_bimodality():
    started = time.perf_counter()
    rng = random.Random(42)
    samples = [rng.gauss(4.0, 0.5) for _ in range(200)]
    samples += [rng.gauss(12.5, 0.5) for _ in range(800)]
    summary = summarize(samples)
    assert summary.modality == "bimodal"
    assert abs(summary.mode_ms - 12.5) <= 0.5
    assert time.perf_counter() - started < 1.0
    report("two-cluster-bimodality")


def test_throughput_on_synthetic_feed(tmp_path):
    # The published global statistics (309,959 probe loglines, 4,212,728 IP
    # loglines, 16,756 unique IPs, 105,479 improvable combinations, absolute
    # bucket counts) need the full external dataset and are NOT asserted here.
    # This is purely an end-to-end throughput check on one million lines.
    rng = random.Random(0)
    nodes = [f"10.1.{i // 250}.{i % 250}" for i in range(50)]
    feed = tmp_path / "million.jsonl"
    chunks = []
    for i in range(1_000_000):
        source = nodes[rng.randrange(50)]
        destination = nodes[rng.randrange(50)]
        status = "stopped" if i % 10 else "ongoing"
        af = 4 if i % 20 else 6
        rtt = 1.0 + (i % 997) * 0.25
        chunks.append(
            f'{{"msm_id":"m{i % 20}","from":"{source}","dst_addr":"{destination}",'
            f'"af":{af},"timestamp":1680000000,"result":[{{"rtt":{rtt}}},'
            f'{{"rtt":{rtt + 0.5}}},{{"rtt":{rtt + 1.0}}}],"status":"{status}"}}'
        )
    feed.write_text("\n".join(chunks) + "\n", encoding="utf-8")

    started = time.perf_counter()
    rows, stats = ingest_to_rows(
        [feed], FilterSpec(required_status="stopped", address_family=4)
    )
    elapsed = time.perf_counter() - started
    graph = graph_of(rows)

    assert stats.lines == 1_000_000
    assert stats.parse_errors == 0
    assert stats.drops["status"] == 100_000
    assert stats.records == 1_000_000 - sum(stats.drops.values())
    assert graph.node_count == 50
    assert graph.edge_count > 2000
    assert elapsed < 60.0
    report(f"throughput-1M-lines ({elapsed:.1f}s)")
