"""Graph aggregation: two-level averaging, directedness, snapshots.

The aggregation's rows are checked through the in-memory graph oracle of
``conftest.py``, and the snapshot reader against its row-by-row loader."""

from __future__ import annotations

import ipaddress
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import (
    LatencyEdge,
    PingRecord,
    edge_rows_of,
    edge_rtt,
    graph_of,
    load_graph,
    ranked,
    rows_of,
    save_graph,
)
from detourkit.errors import ParseError
from detourkit.graph import (
    SNAPSHOT_HEADER,
    _key_order,
    canonical_endpoint,
    canonical_ipv4,
    edge_rows,
    group_samples,
    read_snapshot,
    write_snapshot,
)
from detourkit.ingest import FeedStats


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
    return canonical_endpoint(text)


def build_graph(records, stats=None):
    """The in-memory graph of the edge rows of ``records``."""
    return graph_of(edge_rows_of(records, stats))


HEADER = ",".join(SNAPSHOT_HEADER)


class TestEndpointKey:
    """An endpoint's canonical text and its place in the endpoint order."""

    def test_digits_are_probe(self):
        assert key(" 10194 ") == "10194"
        assert key("007") == "007"  # a probe id is kept as given
        assert _key_order("10194") == ("probe", "10194")

    def test_ip_canonicalized(self):
        assert key("010.0.0.001") == "10.0.0.1"
        assert key("192.168.1.1") == "192.168.1.1"
        assert _key_order("10.0.0.1") == ("ip", "10.0.0.1")

    def test_hostname_kept_verbatim(self):
        assert key(" example.net\t") == "example.net"
        assert key("1.2.3.x") == "1.2.3.x"
        assert _key_order("example.net") == ("ip", "example.net")

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
        endpoints = ["2", "b", "10", "9.9.9.9", "1", "10.0.0.1", "B"]
        assert sorted(endpoints, key=_key_order) == [
            "10.0.0.1",
            "9.9.9.9",
            "B",
            "b",
            "1",
            "10",
            "2",
        ]


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
        stats = FeedStats()
        graph = build_graph([record("A", "A", (1.0,))], stats=stats)
        assert graph.edge_count == 0 and graph.node_count == 0
        assert stats.skipped["self_pair"] == 1

    def test_self_pair_after_canonicalization(self):
        stats = FeedStats()
        graph = build_graph([record("10.0.0.1", "010.0.0.001", (1.0,))], stats=stats)
        assert graph.edge_count == 0
        assert stats.skipped["self_pair"] == 1

    def test_directed(self):
        graph = build_graph([record("A", "B", (10.0,))])
        assert edge_rtt(graph, key("A"), key("B")) == 10.0
        assert edge_rtt(graph, key("B"), key("A")) is None

    def test_no_data_skipped_and_counted(self):
        stats = FeedStats()
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
        baseline = edge_rows_of(records)
        assert baseline == rows_of(graph_of(baseline))  # in endpoint order
        for _ in range(10):
            rng.shuffle(records)
            assert edge_rows_of(records) == baseline

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

    def test_aggregation_peak_per_pair(self):
        # 200,000 pairs over 1,000 endpoints and 40 measurements, a sample
        # each: many small groups, as on a feed over many endpoints
        rng = random.Random(25)
        names = [f"10.{index >> 8}.{index & 255}.1" for index in range(1000)]
        samples = []
        for index in rng.sample(range(1000 * 999), 200_000):
            source, destination = divmod(index, 999)
            destination += destination >= source
            runs = (rng.uniform(1, 300), rng.uniform(1, 300), rng.uniform(1, 300))
            samples.append((f"m{rng.randrange(40)}", names[source], names[destination], runs))
        tracemalloc.start()
        try:
            rows = edge_rows([group_samples(samples, FeedStats())])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 200_000
        # a group's key, array and dict entry take about 200 bytes, and a
        # row about 112; a tuple key and a dict per pair took about 590 per pair
        assert peak <= 350 * len(rows)


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        rows = edge_rows_of(
            [
                record("10.0.0.1", "10.0.0.2", (1.25, 2.5, 3.125), msm="m1"),
                record("10.0.0.2", "777", (7.0,), msm="m2"),
            ]
        )
        path = tmp_path / "snap.csv"
        write_snapshot(rows, path)
        assert rows_of(load_graph(path)) == rows
        assert read_snapshot(path) == ranked(graph_of(rows))

    def test_second_round_trip_exact(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_snapshot(edge_rows_of([record("A", "B", (1.2345,))]), first)
        save_graph(load_graph(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_header_written(self, tmp_path):
        path = tmp_path / "snap.csv"
        write_snapshot(edge_rows_of([record("A", "B", (1.0,))]), path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "source,destination,rtt_ms,sample_count,measurement_count"

    def test_malformed_snapshot(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\nA,B,-3,1,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_snapshot(path)
        assert exc.value.position == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "text",
        ["\nA,B,1.5,1,1\n", f"\n{HEADER}\nA,B,1.5,1,1\n", ""],
        ids=["blank-then-row", "blank-then-header", "empty"],
    )
    def test_first_line_must_be_the_header(self, tmp_path, text):
        path = tmp_path / "snap.csv"
        path.write_text(text, encoding="utf-8")
        for read in (read_snapshot, load_graph):
            with pytest.raises(ParseError) as exc:
                read(path)
            assert str(exc.value) == "parse error at 1: bad snapshot header"

    def test_blank_lines_after_the_header_are_skipped(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text(f"{HEADER}\n\nA,B,1.5,1,1\n\n", encoding="utf-8")
        assert read_snapshot(path) == ([key("A"), key("B")], [[(1, 1.5)], []])

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"{HEADER}\nA,B,1,1,1\n{'x' * 200_000},B,1,1,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_snapshot(path)
        assert exc.value.position == 3

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.one_of(
                st.just(HEADER),
                st.lists(st.sampled_from(["A", "10.0.0.1", "7", "1", "0", "-2", "nan", "1e999"]))
                .map(",".join),
                st.tuples(
                    *[st.sampled_from(["A", "B", "10.0.0.1", "10.0.0.01", "7", " 7"])] * 2,
                    st.sampled_from(["1", "2.5", "0", "x"]),
                    *[st.sampled_from(["1", "2", "0"])] * 2,
                ).map(",".join),
                st.text(),
            )
        ).map("\n".join)
    )
    @example(f"{HEADER}\n\"{'x' * 131_073}\",B,1,1,1\n")
    @example(f"{HEADER}\nA,B,1,1,1\nA,B,2,1,1\nA,C,x,1,1\n")  # duplicate, then a bad row
    @example(f"{HEADER}\nA,B,1,1,1\nA,B,2,1,1\n\"{'x' * 131_073}\",B,1,1,1\n")  # csv.Error
    @example(f"{HEADER}\n10.0.0.1,B,1,1,1\n10.0.0.01,B,2,1,1\n")  # one edge spelled twice
    @example(f"{HEADER}\n10.0.0.1,010.0.0.001,1,1,1\n")  # a self-edge once canonical
    @example(f"{HEADER}\n")
    def test_load_raises_only_parse_error(self, tmp_path, text):
        # the reader agrees with the row-by-row oracle loader on every text:
        # the same fault at the same line, or the adjacency of the same graph
        path = tmp_path / "snapshot.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            expected = ranked(load_graph(path))
        except ParseError as exc:
            with pytest.raises(ParseError) as raised:
                read_snapshot(path)
            assert (raised.value.position, raised.value.reason) == (exc.position, exc.reason)
        else:
            assert read_snapshot(path) == expected


class TestEdgeInvariants:
    """Each row check of the snapshot reader, with the message of the edge
    oracle's."""

    @staticmethod
    def check(tmp_path, source, destination, rtt, samples, measurements):
        with pytest.raises(ValueError) as oracle:
            LatencyEdge(key(source), key(destination), rtt, samples, measurements)
        path = tmp_path / "snap.csv"
        row = f"{source},{destination},{rtt!r},{samples},{measurements}"
        path.write_text(f"{HEADER}\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError) as raised:
            read_snapshot(path)
        assert (raised.value.position, raised.value.reason) == (2, str(oracle.value))

    def test_rejects_self_edge(self, tmp_path):
        self.check(tmp_path, "A", "A", 1.0, 1, 1)

    def test_rejects_bad_counts(self, tmp_path):
        self.check(tmp_path, "A", "B", 1.0, 1, 2)

    def test_rejects_nonpositive_rtt(self, tmp_path):
        self.check(tmp_path, "A", "B", 0.0, 1, 1)
