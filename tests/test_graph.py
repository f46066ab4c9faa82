"""Graph aggregation: two-level averaging, directedness, snapshots."""

from __future__ import annotations

import ipaddress
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import edge_rtt
from detourkit.errors import ParseError
from detourkit.graph import (
    SNAPSHOT_HEADER,
    BuildStats,
    EndpointKey,
    LatencyEdge,
    build_graph,
    canonical_ipv4,
    load_graph,
    save_graph,
)
from detourkit.ingest import PingRecord


def record(source, destination, runs, msm="m1"):
    return PingRecord(
        measurement_id=msm,
        source_id=source,
        destination_id=destination,
        address_family=4,
        status="stopped",
        start_time=0,
        rtt_runs=tuple(runs),
    )


def key(text):
    return EndpointKey.from_text(text)


class TestEndpointKey:
    def test_digits_are_probe(self):
        assert key("10194") == EndpointKey("probe", "10194")

    def test_ip_canonicalized(self):
        assert key("010.0.0.001") == EndpointKey("ip", "10.0.0.1")
        assert key("192.168.1.1").value == "192.168.1.1"

    def test_hostname_kept_verbatim(self):
        assert key("example.net") == EndpointKey("ip", "example.net")

    def test_canonical_ipv4_rejects_garbage(self):
        assert canonical_ipv4("1.2.3") is None
        assert canonical_ipv4("1.2.3.999") is None
        assert canonical_ipv4("a.b.c.d") is None

    @pytest.mark.parametrize(
        "text",
        ["1.2.3.\u00b2", "1.2.3.\u0663", "1.2.3." + "9" * 4400],
        ids=["superscript-two", "arabic-indic-three", "4400-digit-octet"],
    )
    def test_canonical_ipv4_takes_ascii_digits_only_and_never_raises(self, text):
        # a superscript passed str.isdigit and failed int(); other scripts'
        # digits passed both; a long octet hit the int-digit limit
        assert canonical_ipv4(text) is None

    def test_canonical_ipv4_drops_leading_zeros(self):
        assert canonical_ipv4("8.8.000.1") == "8.8.0.1"
        assert canonical_ipv4("8.8.0000.01") == "8.8.0.1"
        assert canonical_ipv4("1.2.3." + "0" * 4400 + "1") == "1.2.3.1"

    def test_ordering_is_kind_then_value(self):
        assert EndpointKey("ip", "a") < EndpointKey("probe", "1")
        assert EndpointKey("probe", "1") < EndpointKey("probe", "2")


OCTET_TEXT = st.one_of(
    st.integers(0, 300).map(str),
    st.integers(0, 255).map(lambda value: f"{value:03d}"),
    st.text(st.sampled_from("0123456789\u00b2\u0663 +-x"), max_size=5),
    st.text(max_size=4),
)


@given(st.one_of(st.text(), st.lists(OCTET_TEXT, min_size=3, max_size=5).map(".".join)))
@example("1.2.3." + "9" * 4400)
def test_canonical_ipv4_agrees_with_ipaddress(text):
    canonical = canonical_ipv4(text)  # never raises
    try:
        expected = str(ipaddress.IPv4Address(text))
    except ValueError:
        expected = None
    if expected is not None:
        assert canonical == expected
    if canonical is not None:
        assert str(ipaddress.IPv4Address(canonical)) == canonical


class TestBuildGraph:
    def test_mean_across_measurements(self):
        # per-measurement medians 10 and 20 -> edge 15
        records = [
            record("A", "B", (10.0, 10.0, 10.0), msm="m1"),
            record("A", "B", (20.0,), msm="m2"),
        ]
        graph = build_graph(records)
        assert edge_rtt(graph, key("A"), key("B")) == 15.0

    def test_two_level_averaging_not_flat(self):
        # m1 holds two samples (10, 20 -> mean 15), m2 one sample (25)
        records = [
            record("A", "B", (10.0,), msm="m1"),
            record("A", "B", (20.0,), msm="m1"),
            record("A", "B", (25.0,), msm="m2"),
        ]
        graph = build_graph(records)
        assert edge_rtt(graph, key("A"), key("B")) == pytest.approx(20.0)  # (15+25)/2, not 55/3
        edge = graph.edge(key("A"), key("B"))
        assert edge.sample_count == 3 and edge.measurement_count == 2

    def test_self_pair_dropped(self):
        stats = BuildStats()
        graph = build_graph([record("A", "A", (1.0,))], stats=stats)
        assert graph.edge_count == 0 and graph.node_count == 0
        assert stats.skipped["self_pair"] == 1

    def test_self_pair_after_canonicalization(self):
        stats = BuildStats()
        graph = build_graph([record("10.0.0.1", "010.0.0.001", (1.0,))], stats=stats)
        assert graph.edge_count == 0
        assert stats.skipped["self_pair"] == 1

    def test_directed(self):
        graph = build_graph([record("A", "B", (10.0,))])
        assert edge_rtt(graph, key("A"), key("B")) == 10.0
        assert edge_rtt(graph, key("B"), key("A")) is None

    def test_no_data_skipped_and_counted(self):
        stats = BuildStats()
        graph = build_graph([record("A", "B", ()), record("A", "B", (3.0,))], stats=stats)
        assert stats.skipped["no_data"] == 1
        assert edge_rtt(graph, key("A"), key("B")) == 3.0

    def test_node_count_is_distinct_keys(self):
        records = [record("A", "B", (1.0,)), record("B", "C", (2.0,)), record("A", "C", (3.0,))]
        graph = build_graph(records)
        assert graph.node_count == 3

    def test_order_invariance(self):
        rng = random.Random(7)
        records = []
        for i in range(300):
            records.append(
                record(
                    f"{rng.randint(0, 9)}",
                    f"{rng.randint(0, 9)}",
                    tuple(rng.uniform(1, 50) for _ in range(rng.randint(0, 3))),
                    msm=f"m{rng.randint(0, 5)}",
                )
            )
        base = build_graph(records)
        baseline = {(e.source, e.destination): e.rtt_ms for e in base.edges()}
        for _ in range(10):
            rng.shuffle(records)
            shuffled = build_graph(records)
            assert {(e.source, e.destination): e.rtt_ms for e in shuffled.edges()} == baseline

    def test_edge_within_contributing_range(self):
        rng = random.Random(11)
        records = []
        contributions = []
        for i in range(50):
            runs = tuple(sorted(rng.uniform(1, 100) for _ in range(3)))
            contributions.append(runs[1])
            records.append(record("A", "B", runs, msm=f"m{i % 7}"))
        graph = build_graph(records)
        rtt = edge_rtt(graph, key("A"), key("B"))
        assert min(contributions) <= rtt <= max(contributions)

    def test_disconnectivity_is_absent_edge(self):
        # one-way visibility between two far-apart probes, relay via a third
        graph = build_graph(
            [
                record("10194", "1003746", (0.3, 0.3, 0.3)),
                record("1003746", "6636", (4.6, 4.6, 4.6)),
            ]
        )
        assert edge_rtt(graph, key("10194"), key("6636")) is None


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        graph = build_graph(
            [
                record("10.0.0.1", "10.0.0.2", (1.25, 2.5, 3.125), msm="m1"),
                record("10.0.0.2", "777", (7.0,), msm="m2"),
            ]
        )
        path = tmp_path / "snap.csv"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.node_count == graph.node_count
        assert loaded.edge_count == graph.edge_count
        for edge in graph.edges():
            reloaded = loaded.edge(edge.source, edge.destination)
            assert reloaded.rtt_ms == pytest.approx(edge.rtt_ms, abs=5e-4)
            assert reloaded.sample_count == edge.sample_count
            assert reloaded.measurement_count == edge.measurement_count

    def test_second_round_trip_exact(self, tmp_path):
        graph = build_graph([record("A", "B", (1.2345,))])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        save_graph(graph, first)
        once = load_graph(first)
        save_graph(once, second)
        twice = load_graph(second)
        assert [e.rtt_ms for e in once.edges()] == [e.rtt_ms for e in twice.edges()]

    def test_header_written(self, tmp_path):
        path = tmp_path / "snap.csv"
        save_graph(build_graph([record("A", "B", (1.0,))]), path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "source,destination,rtt_ms,sample_count,measurement_count"

    def test_malformed_snapshot(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("source,destination,rtt_ms,sample_count,measurement_count\nA,B,-3,1,1\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.position == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\n")
        with pytest.raises(ParseError):
            load_graph(path)

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"{','.join(SNAPSHOT_HEADER)}\nA,B,1,1,1\n{'x' * 200_000},B,1,1,1\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.position == 3

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.one_of(
                st.just(",".join(SNAPSHOT_HEADER)),
                st.lists(st.sampled_from(["A", "10.0.0.1", "7", "1", "0", "-2", "nan", "1e999"]))
                .map(",".join),
                st.text(),
            )
        ).map("\n".join)
    )
    @example(f"{','.join(SNAPSHOT_HEADER)}\n\"{'x' * 131_073}\",B,1,1,1\n")
    def test_load_raises_only_parse_error(self, tmp_path, text):
        path = tmp_path / "snapshot.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            load_graph(path)
        except ParseError:
            pass


class TestEdgeInvariants:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            LatencyEdge(key("A"), key("A"), 1.0, 1, 1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            LatencyEdge(key("A"), key("B"), 1.0, 1, 2)

    def test_rejects_nonpositive_rtt(self):
        with pytest.raises(ValueError):
            LatencyEdge(key("A"), key("B"), 0.0, 1, 1)
