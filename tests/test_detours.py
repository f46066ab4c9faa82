"""Relay-detour search against brute-force oracles."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    best_detour,
    brute_force_best,
    brute_force_detours,
    edge_rtt,
    improvement_histogram,
    insight_row,
    make_graph,
    random_graph,
    ranked,
    report_order,
    save_graph,
    write_insights_csv,
)
from detourkit.cli import HISTOGRAM_COLUMNS, main, run_shares, write_table
from detourkit.detours import (
    INSIGHT_HEADER,
    KIND_BRIDGE,
    KIND_IMPROVEMENT,
    search_detours,
    write_rows,
)
from detourkit.errors import ToolkitError
from detourkit.graph import canonical_endpoint, read_snapshot

DETOURS_SHARES = functools.partial(run_shares, "detours")


def key(text):
    return canonical_endpoint(text)


class TestBestDetour:
    def test_minimal_overlay_example(self):
        graph = make_graph(
            {("A", "B"): 1.0, ("B", "C"): 1.0, ("A", "X"): 3.0, ("X", "C"): 3.0, ("A", "C"): 10.0}
        )
        # frozen from the brute-force oracle: B gives 1+1=2, X gives 3+3=6
        oracle = brute_force_best(graph, key("A"), key("C"))
        assert oracle == (2.0, key("B"))
        _, via, _, overlay, _, gain, _, kind = best_detour(graph, key("A"), key("C"))
        assert via == key("B")
        assert overlay == 2.0
        assert kind == KIND_IMPROVEMENT
        assert gain == 8.0

    def test_no_intermediate(self):
        graph = make_graph({("A", "C"): 10.0})
        assert best_detour(graph, key("A"), key("C")) is None

    def test_tie_breaks_to_smallest_via(self):
        graph = make_graph(
            {("A", "m1"): 1.0, ("m1", "C"): 1.0, ("A", "m2"): 1.0, ("m2", "C"): 1.0}
        )
        assert best_detour(graph, key("A"), key("C"))[1] == key("m1")

    def test_bridge_when_no_direct(self):
        graph = make_graph({("A", "B"): 1.0, ("B", "C"): 1.5})
        _, _, _, overlay, direct, _, _, kind = best_detour(graph, key("A"), key("C"))
        assert kind == KIND_BRIDGE
        assert direct is None
        assert overlay == 2.5

    def test_same_endpoints_rejected(self):
        graph = make_graph({("A", "B"): 1.0})
        with pytest.raises(ValueError):
            best_detour(graph, key("A"), key("A"))


class TestEnumerate:
    def test_equal_overlay_not_emitted(self):
        graph = make_graph({("A", "B"): 5.0, ("B", "C"): 5.0, ("A", "C"): 10.0})
        assert list(search_detours(*ranked(graph), threshold_pct=1.0).insights()) == []
        # still not an improvement at threshold 0: nothing is strictly saved
        assert list(search_detours(*ranked(graph), threshold_pct=0.0).insights()) == []

    def test_bridge_emitted(self):
        graph = make_graph({("A", "B"): 0.3, ("B", "C"): 4.6})
        insights = list(search_detours(*ranked(graph), threshold_pct=1.0).insights())
        assert len(insights) == 1
        _, _, _, overlay, direct, _, _, kind = insights[0]
        assert kind == KIND_BRIDGE
        assert overlay == pytest.approx(4.9)
        assert direct is None

    def test_threshold_filters_improvements(self):
        graph = make_graph({("A", "B"): 49.8, ("B", "C"): 49.8, ("A", "C"): 100.0})
        # saving 0.4 of 100 = 0.4%
        assert list(search_detours(*ranked(graph), threshold_pct=1.0).insights()) == []
        found = list(search_detours(*ranked(graph), threshold_pct=0.1).insights())
        assert len(found) == 1 and found[0][6] == pytest.approx(0.4)

    def test_improvement_is_exact_leg_sum(self):
        rng = random.Random(3)
        graph = random_graph(rng, max_nodes=20)
        for insight in search_detours(*ranked(graph), threshold_pct=0.0).insights():
            source, via, destination, overlay, direct, _, _, kind = insight
            leg_in = edge_rtt(graph, source, via)
            leg_out = edge_rtt(graph, via, destination)
            assert overlay == leg_in + leg_out
            if kind == KIND_IMPROVEMENT:
                assert overlay < direct

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(123)
        for _ in range(25):
            graph = random_graph(rng, max_nodes=14)
            threshold = rng.choice([0.0, 0.5, 1.0, 5.0])
            rows = search_detours(*ranked(graph), threshold)
            produced = list(rows.insights())
            assert len(produced) == len(set(produced))  # each triplet once
            assert set(produced) == brute_force_detours(graph, threshold)

    def test_monotone_in_threshold(self):
        rng = random.Random(5)
        for _ in range(10):
            graph = random_graph(rng, max_nodes=12)
            sets = [
                set(search_detours(*ranked(graph), t).insights())
                for t in (1.0, 0.5, 0.0)
            ]
            assert sets[0] <= sets[1] <= sets[2]

    def test_scaling_invariance(self):
        rng = random.Random(17)
        graph = random_graph(rng, max_nodes=12)
        scaled = make_graph(
            {(e.source, e.destination): e.rtt_ms * 3.5 for e in graph.edges()}
        )
        base_pairs = {
            i[:3]: i[6]
            for i in search_detours(*ranked(graph), 1.0).insights()
            if i[7] == KIND_IMPROVEMENT
        }
        scaled_pairs = {
            i[:3]: i[6]
            for i in search_detours(*ranked(scaled), 1.0).insights()
            if i[7] == KIND_IMPROVEMENT
        }
        assert base_pairs.keys() == scaled_pairs.keys()
        for triplet, pct in base_pairs.items():
            assert scaled_pairs[triplet] == pytest.approx(pct, rel=1e-12)
        for source, destination in {(s, d) for s, _, d in base_pairs}:
            assert (
                best_detour(graph, source, destination)[1]
                == best_detour(scaled, source, destination)[1]
            )


    def test_endpoint_order_on_mixed_endpoints(self, tmp_path):
        # probe ids, spelled and canonical addresses and host names: the
        # snapshot's nodes and the report order, pinned
        snapshot = tmp_path / "graph.csv"
        snapshot.write_text(
            "source,destination,rtt_ms,sample_count,measurement_count\n"
            "10,010.000.0.2,5.0,1,1\n"
            "010.0.0.2,example.net,5.0,1,1\n"
            "9,10,1.0,1,1\n"
            "9,10.0.0.2,10.0,1,1\n"
            "10,Zed,2.0,1,1\n"
            "Zed,example.net,1.0,1,1\n"
            "10,example.net,50.0,1,1\n",
            encoding="utf-8",
        )
        nodes, successors = read_snapshot(snapshot)
        assert nodes == ["10.0.0.2", "Zed", "example.net", "10", "9"]
        found = [(*i[:3], i[7]) for i in search_detours(nodes, successors, 1.0).insights()]
        assert found == [
            ("10", "Zed", "example.net", KIND_IMPROVEMENT),
            ("10", "10.0.0.2", "example.net", KIND_IMPROVEMENT),
            ("9", "10", "10.0.0.2", KIND_IMPROVEMENT),
            ("9", "10.0.0.2", "example.net", KIND_BRIDGE),
            ("9", "10", "Zed", KIND_BRIDGE),
            ("9", "10", "example.net", KIND_BRIDGE),
        ]


class TestBridgeStream:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), threshold=st.sampled_from([0.0, 1.0, 20.0]))
    def test_bridges_are_the_oracle_in_report_order(self, seed, threshold):
        graph = random_graph(random.Random(seed), max_nodes=12)
        rows = search_detours(*ranked(graph), threshold)
        walked = list(rows.bridges())
        assert list(rows.bridges()) == walked
        nodes = rows.nodes
        produced = [
            (nodes[s], nodes[v], nodes[d], overlay, None, None, None, KIND_BRIDGE)
            for s, v, d, overlay in walked
        ]
        oracle = report_order(
            row for row in brute_force_detours(graph, threshold) if row[-1] == KIND_BRIDGE
        )
        assert produced == oracle
        assert len(walked) == rows.bridge_count
        with tempfile.TemporaryDirectory() as work:
            csv_path = Path(work) / "insights.csv"
            assert write_rows(rows, csv_path, "csv", DETOURS_SHARES, 1) == len(rows)
            # endpoint names are digits, so one line per row after the header
            assert len(csv_path.read_bytes().splitlines()) == len(rows) + 1
            json_path = Path(work) / "insights.json"
            assert write_rows(rows, json_path, "json", DETOURS_SHARES, 1) == len(rows)

    def test_search_holds_no_bridge_rows(self):
        # 150 nodes: 205,469 bridges and 14,592 improvements at 1%
        graph = random_graph(random.Random(6), max_nodes=160)
        tracemalloc.start()
        try:
            rows = search_detours(*ranked(graph), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.bridge_count >= 100_000
        # an improvement row peaks at about 125 bytes while the search sorts
        # the row indices (216 as a tuple of seven fields); a held bridge row
        # would take about 120
        beyond_improvements = peak - 160 * len(rows.pcts)
        assert beyond_improvements < 16 * rows.bridge_count

    def test_search_holds_improvements_in_flat_columns(self):
        # 150 nodes: 14,592 improvements at 1%
        graph = random_graph(random.Random(6), max_nodes=160)
        adjacency = ranked(graph)
        tracemalloc.start()
        try:
            rows = search_detours(*adjacency, 1.0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows.pcts) == 14_592
        # six columns of 8-byte numbers, with the arrays' spare room: about
        # 51 bytes a row; a tuple of seven fields took about 176
        assert held <= 64 * len(rows.pcts)

    def test_snapshot_read_holds_no_graph(self, tmp_path):
        # 150 nodes and 6,655 edges, read straight into the adjacency
        graph = random_graph(random.Random(6), max_nodes=160)
        snapshot = tmp_path / "graph.csv"
        save_graph(graph, snapshot)
        tracemalloc.start()
        try:
            adjacency = read_snapshot(snapshot)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert adjacency == ranked(graph)
        # a (rank, rtt) successor takes about 88 bytes; a graph of edge
        # objects alone took about 136 per edge before any ranking
        assert peak < 110 * graph.edge_count

class TestHistogram:
    @staticmethod
    def _graph(pcts):
        """A graph in which pair (a<i>, b<i>) has one relay, via V, saving
        about ``pcts[i]`` percent of its direct RTT."""
        edges = {}
        for i, pct in enumerate(pcts):
            # overlay is 2.0; direct chosen so 100*(direct-2)/direct == pct
            edges[(f"a{i}", "V")] = 1.0
            edges[("V", f"b{i}")] = 1.0
            edges[(f"a{i}", f"b{i}")] = 2.0 / (1.0 - pct / 100.0)
        return make_graph(edges)

    def _rows(self, pcts):
        """The search over :meth:`_graph`, every relay an improvement."""
        rows = search_detours(*ranked(self._graph(pcts)), threshold_pct=0.0)
        assert len(rows.pcts) == len(pcts)
        return rows

    def test_floor_bucketing(self):
        rows = self._rows([1.2, 1.9, 2.5])
        # percentages land near the requested values; buckets are what matter
        histogram = rows.histogram(bucket_width_pct=1.0)
        assert histogram == {1.0: 2, 2.0: 1}
        assert histogram == improvement_histogram(rows.insights(), 1.0)

    def test_best_per_pair(self):
        graph = make_graph(
            {
                ("A", "m1"): 10.0,
                ("m1", "C"): 10.0,  # overlay 20 -> 80% saved
                ("A", "m2"): 40.0,
                ("m2", "C"): 53.0,  # overlay 93 -> 7% saved
                ("A", "C"): 100.0,
            }
        )
        rows = search_detours(*ranked(graph), 1.0)
        assert len(rows.pcts) == 2
        assert rows.histogram(bucket_width_pct=1.0) == {80.0: 1}

    def test_matches_brute_force_recount(self):
        rng = random.Random(20)
        for _ in range(20):
            graph = random_graph(rng, max_nodes=20)
            threshold = rng.choice([0.0, 1.0, 20.0])
            rows = search_detours(*ranked(graph), threshold)
            # independent recount from the oracle's raw triplets
            oracle = brute_force_detours(graph, threshold)
            pairs = {(i[0], i[2]) for i in oracle if i[7] == KIND_IMPROVEMENT}
            for width in (0.25, 1.0, 2.5, 10.0):
                histogram = rows.histogram(bucket_width_pct=width)
                assert histogram == improvement_histogram(oracle, width)
                assert sum(histogram.values()) == len(pairs)

    def test_cumulative_rendering(self, tmp_path):
        # `detours --cumulative` counts each bucket's pairs and those above it
        snapshot = tmp_path / "graph.csv"
        save_graph(self._graph([1.2, 1.9, 2.5, 4.5]), snapshot)
        for flags, counts in (([], ["1,2", "2,1", "4,1"]), (["--cumulative"], ["1,4", "2,2", "4,1"])):
            argv = ["--output-dir", str(tmp_path), "detours", str(snapshot), "--threshold-pct", "0"]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main(argv + flags) == 0
            assert "improvable_pairs=4\n" in stdout.getvalue()
            lines = (tmp_path / "histogram.csv").read_text(encoding="utf-8").splitlines()
            assert lines == ["bucket_pct,pair_count", *counts]

    def test_bucket_width_must_be_positive(self):
        rows = self._rows([1.2])
        for width in (0.0, -1.0):
            with pytest.raises(ValueError, match="bucket_width_pct"):
                rows.histogram(width)

    def test_infinite_pct_is_a_toolkit_error(self):
        # 100 * gain passes the largest float, so the pct is infinite
        graph = make_graph({("A", "B"): 1.0, ("B", "C"): 1.0, ("A", "C"): 1.7e308})
        with pytest.raises(ToolkitError, match="edge RTTs are too large"):
            search_detours(*ranked(graph), 1.0).histogram(1.0)


class TestExport:
    def test_insight_rows_render_absent_as_empty(self):
        graph = make_graph({("A", "B"): 0.3, ("B", "C"): 4.6})
        bridge = next(search_detours(*ranked(graph), 1.0).insights())
        row = insight_row(bridge)
        assert row == ["A", "B", "C", "4.900", "", "", "", "bridge"]

    def test_csv_files(self, tmp_path):
        graph = make_graph(
            {("A", "B"): 1.0, ("B", "C"): 1.0, ("A", "C"): 10.0, ("A", "D"): 1.0}
        )
        insights = report_order(search_detours(*ranked(graph), 1.0).insights())
        out = tmp_path / "insights.csv"
        assert write_insights_csv(insights, out) == len(insights)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "source,via,destination,overlay_rtt_ms,direct_rtt_ms,"
            "improvement_ms,improvement_pct,kind"
        )
        assert lines[1] == "A,B,C,2.000,10.000,8.000,80.00,improvement"

        histogram = search_detours(*ranked(graph), 1.0).histogram(1.0)
        hist_path = tmp_path / "hist.csv"
        write_table(hist_path, "csv", HISTOGRAM_COLUMNS, sorted(histogram.items()))
        assert hist_path.read_text(encoding="utf-8").splitlines() == [
            "bucket_pct,pair_count",
            "80,1",
        ]

    def test_json_rows_spell_overflowed_overlay_as_json_does(self, tmp_path):
        # E -> G through F gains nearly the largest float, so its pct is infinite
        graph = make_graph(
            {("A", "B"): 1e308, ("B", "C"): 1e308, ("C", "D"): 1.0,
             ("E", "F"): 1.0, ("F", "G"): 1.0, ("E", "G"): 1.7e308}
        )
        rows = search_detours(*ranked(graph), 1.0)
        path = tmp_path / "insights.json"
        assert write_rows(rows, path, "json", DETOURS_SHARES, 1) == 3
        text = path.read_text(encoding="utf-8")
        assert text == reference_json(rows.insights())
        assert '"overlay_rtt_ms": Infinity' in text
        assert '"improvement_pct": Infinity' in text

    def test_report_order_improvements_then_bridges(self):
        graph = make_graph(
            {
                ("A", "B"): 1.0,
                ("B", "C"): 1.0,
                ("A", "C"): 10.0,
                ("X", "B"): 1.0,  # X->C has no direct edge: bridge
            }
        )
        ordered = report_order(search_detours(*ranked(graph), 1.0).insights())
        kinds = [i[7] for i in ordered]
        assert kinds == sorted(kinds, key=lambda k: k == KIND_BRIDGE)


# IPs and hostnames sort before probe ids, each by text; some need CSV quoting
ENDPOINTS = ["7", "12", "300", "10.0.0.1", "10.0.0.12", "9.9.9.9", "a,b", 'say "hi"', 'x",y']


def reference_json(insights) -> str:
    """The insight file as ``json.dump(indent=2)`` renders it."""
    objects = [dict(zip(INSIGHT_HEADER, i)) for i in insights]
    return json.dumps(objects, indent=2) + "\n"


@st.composite
def quirky_graphs(draw):
    names = draw(st.lists(st.sampled_from(ENDPOINTS), min_size=3, max_size=7, unique=True))
    pairs = [(s, d) for s in names for d in names if s != d]
    # a few integer RTTs make improvement percentages tie across vias and pairs
    weights = st.sampled_from([None, 1, 2, 3, 4, 6, 8, 12])
    rtts = draw(st.lists(weights, min_size=len(pairs), max_size=len(pairs)))
    edges = {pair: float(rtt) for pair, rtt in zip(pairs, rtts) if rtt is not None}
    return make_graph(edges or {pairs[0]: 1.0})


class TestReportOrderProperty:
    @settings(max_examples=150, deadline=None)
    @given(graph=quirky_graphs(), threshold=st.sampled_from([0.0, 1.0, 20.0, 50.0]))
    def test_enumeration_is_oracle_in_report_order(self, graph, threshold):
        oracle = report_order(brute_force_detours(graph, threshold))
        assert list(search_detours(*ranked(graph), threshold).insights()) == oracle

    @settings(max_examples=40, deadline=None)
    @given(graph=quirky_graphs(), threshold=st.sampled_from([0.0, 1.0, 20.0]))
    def test_cli_files_match_reference_writers(self, graph, threshold):
        oracle = report_order(brute_force_detours(graph, threshold))
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            snapshot = work / "graph.csv"
            save_graph(graph, snapshot)
            expected = work / "expected.csv"
            write_insights_csv(oracle, expected)
            for fmt in ("csv", "json"):
                argv = ["--output-dir", str(work / fmt), "--format", fmt, "detours", str(snapshot)]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv + ["--threshold-pct", str(threshold)]) == 0
            assert (work / "csv" / "insights.csv").read_bytes() == expected.read_bytes()
            produced = (work / "json" / "insights.json").read_text(encoding="utf-8")
            assert produced == reference_json(oracle)
