"""Command-line behavior: outputs, accounting, exit codes."""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import io
import json
import random
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import detourkit
from conftest import (
    FIXTURES,
    PingRecord,
    graph_of,
    load_config_file,
    load_graph,
    make_graph,
    ranked,
    save_graph,
    serialize_record,
)
from detourkit.cli import (
    CONFIG_KEYS,
    HISTOGRAM_COLUMNS,
    build_parser,
    ingest_to_rows,
    main,
    resolve_config,
    run_shares,
    write_table,
)
from detourkit import errors, geo
from detourkit import stats as stats_module
from detourkit.detours import DetourRows, search_detours, write_rows
from detourkit.errors import ToolkitError
from detourkit.graph import SNAPSHOT_HEADER, read_snapshot, write_snapshot
from detourkit.ingest import FilterSpec

REFERENCE_EDGES = {
    ("Milpitas", "Morrisdale"): 265.49,
    ("Milpitas", "LasCruces"): 30.0,
    ("LasCruces", "Morrisdale"): 35.0,
    ("Newark", "LasCruces"): 53.5,
    ("Newark", "KenettSquare"): 6.25,
    ("KenettSquare", "LasCruces"): 37.6,
    ("Illinois", "France"): 0.3,
    ("France", "Australia"): 4.6,
}

FOUR_NODE_EDGES = {
    ("A", "B"): 5.0,
    ("B", "C"): 5.0,
    ("A", "C"): 20.0,
    ("A", "D"): 2.0,
    ("D", "C"): 3.0,
    ("B", "A"): 6.0,
}


def feed_line(i, status="stopped", af=4, source=None, dest=None):
    record = PingRecord(
        measurement_id=f"m{i % 7}",
        source_id=source or f"10.0.{i % 5}.1",
        destination_id=dest or f"10.0.{(i % 5) + 1}.2",
        address_family=af,
        status=status,
        start_time=1_680_000_000 + i,
        rtt_runs=(1.0 + i % 3, 2.0, 3.0),
    )
    return serialize_record(record)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestIngest:
    def test_filter_accounting(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        lines = [feed_line(i) for i in range(90)] + [
            feed_line(90 + i, status="ongoing") for i in range(10)
        ]
        feed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            [
                "--output-dir",
                str(tmp_path / "out"),
                "ingest",
                str(feed),
                "--status",
                "stopped",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "kept=90" in captured.out
        assert "dropped[status]=10" in captured.out
        assert (tmp_path / "out" / "graph.csv").exists()

    @pytest.mark.parametrize("status", ["stopped", "Stopped", "STOPPED"])
    def test_status_flag_reads_any_case(self, tmp_path, capsys, status):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(f"{feed_line(0)}\n{feed_line(1)}\n", encoding="utf-8")
        out = str(tmp_path / "out")
        assert main(["--output-dir", out, "ingest", str(feed), "--status", status]) == 0
        assert "kept=2" in capsys.readouterr().out

    def test_empty_input(self, tmp_path, capsys):
        feed = tmp_path / "empty.jsonl"
        feed.write_text("", encoding="utf-8")
        code = main(["--output-dir", str(tmp_path / "out"), "ingest", str(feed)])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err.lower()
        rows = read_csv(tmp_path / "out" / "graph.csv")
        assert rows == [["source", "destination", "rtt_ms", "sample_count", "measurement_count"]]

    def test_snapshot_name_in_a_new_directory(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(feed_line(1) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["--output-dir", str(out), "ingest", str(feed), "--snapshot-name", "sub/g.csv"]
        assert main(argv) == 0
        assert f"snapshot={out / 'sub' / 'g.csv'}" in capsys.readouterr().out
        assert [p.name for p in (out / "sub").iterdir()] == ["g.csv"]
        assert sum(map(len, read_snapshot(out / "sub" / "g.csv")[1])) == 1

    @pytest.mark.parametrize(
        "name", ["../escaped.csv", "sub/../../escaped.csv", "{tmp}/abs.csv", ".", ""]
    )
    def test_snapshot_name_outside_the_output_directory_is_refused(self, tmp_path, capsys, name):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(feed_line(1) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        name = name.format(tmp=tmp_path)
        argv = ["--output-dir", str(out), "ingest", str(feed), "--snapshot-name", name]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--snapshot-name must be a relative file path" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["feed.jsonl"]

    def test_missing_input(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "input not found" in capsys.readouterr().err

    def test_corrupt_lines_not_fatal(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(feed_line(1) + "\n{broken json\n" + feed_line(2) + "\n", encoding="utf-8")
        code = main(["--output-dir", str(tmp_path / "out"), "ingest", str(feed)])
        assert code == 0
        assert "parse_errors=1" in capsys.readouterr().out

    def test_undecodable_line_is_one_parse_error(self, tmp_path, capsys):
        good = [feed_line(1).encode(), feed_line(2).encode()]
        feed = tmp_path / "feed.jsonl"
        feed.write_bytes(b"\n".join([good[0], b'{"msm_id":"m\xff1"}', good[1], b""]))
        clean = tmp_path / "clean.jsonl"
        clean.write_bytes(b"\n".join([*good, b""]))
        assert main(["--output-dir", str(tmp_path / "out"), "ingest", str(feed)]) == 0
        # lines = parsed + parse_errors, and the good lines are in the snapshot
        assert capsys.readouterr().out.startswith("lines=3 parse_errors=1 kept=2\n")
        assert main(["--output-dir", str(tmp_path / "clean"), "ingest", str(clean)]) == 0
        snapshot = (tmp_path / "out" / "graph.csv").read_bytes()
        assert snapshot == (tmp_path / "clean" / "graph.csv").read_bytes()

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"msm_id":1,"from":"8.0.0.1","dst_addr":"8.0.0.2","timestamp":Infinity,'
            '"result":[{"rtt":1.0}]}',
            '{"msm_id":1,"from":"8.0.0.1","dst_addr":"8.0.0.2","timestamp":1680000000,'
            '"result":[{"rtt":' + "9" * 400 + "}]}",
            "m1,8.0.0.1,8.0.0.2,4,stopped,1e999,1.0,,",
        ],
        ids=["json-infinite-timestamp", "json-400-digit-rtt", "csv-overflowing-start-time"],
    )
    def test_out_of_range_number_is_a_parse_error(self, tmp_path, capsys, bad_line):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(feed_line(1) + "\n" + bad_line + "\n", encoding="utf-8")
        code = main(["--output-dir", str(tmp_path / "out"), "ingest", str(feed)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.startswith("lines=2 parse_errors=1 kept=1\n")

    def test_non_ascii_digit_address_is_kept_as_a_name(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        odd = feed_line(2, source="1.2.3.\u00b2")
        feed.write_text(feed_line(1) + "\n" + odd + "\n", encoding="utf-8")
        code = main(["--output-dir", str(tmp_path / "out"), "ingest", str(feed)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.startswith("lines=2 parse_errors=0 kept=2\n")

    def test_overflowing_sidecar_start_time_is_a_usage_error(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(feed_line(1) + "\n", encoding="utf-8")
        sidecar = tmp_path / "meta.csv"
        sidecar.write_text(
            "measurement_id,status,start_time\nm1,stopped,1e999\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        code = main(["--output-dir", str(out), "ingest", str(feed), "--sidecar", str(sidecar)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err and "infinity" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines", [[[1.5e308], [1.5e308]], [[1.5e308, 1.5e308]]], ids=["fsum", "two-run-mean"]
    )
    def test_rtts_past_the_float_range_are_an_error(self, tmp_path, capsys, lines):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            "".join(
                json.dumps({"msm_id": 1, "prb_id": 1, "from": "8.8.0.1", "dst_addr": "8.8.0.2",
                            "af": 4, "timestamp": 1_680_000_000,
                            "result": [{"rtt": rtt} for rtt in runs]}) + "\n"
                for runs in lines
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "ingest", str(feed)]) == 1
        err = capsys.readouterr().err
        assert err == "error: RTTs of 8.8.0.1 -> 8.8.0.2 add up past the largest float\n"
        assert not out.exists()

    @pytest.mark.parametrize("key_by", ["ip", "probe"])
    def test_region_filter_matches_per_record_lookup(self, tmp_path, capsys, monkeypatch, key_by):
        # endpoints repeat across records: cached (US, CA, DE), reserved,
        # invalid, a hostname, a non-canonical spelling and an uncached one
        cache = tmp_path / "cache.csv"
        cache.write_text(
            "ip,city,region,country,timestamp\n"
            "8.8.0.1,Mountain View,CA,US,1\n8.8.0.2,Ashburn,VA,US,1\n"
            "8.8.0.3,Frankfurt,HE,DE,1\n8.8.0.4,,,CA,1\n",
            encoding="utf-8",
        )
        endpoints = [
            "8.8.0.1", "8.8.0.2", "8.8.0.3", "8.8.0.4", "8.8.000.1",
            "10.1.2.3", "not-an-ip", "host.example", "9.9.9.9",
        ]
        rng = random.Random(4)
        lines = []
        for i in range(300):
            source, dest = rng.sample(endpoints, 2)
            rtt = round(rng.uniform(1.0, 90.0), 3)
            if i % 4 == 0:
                lines.append(f"{i % 5},{source},{dest},4,stopped,1680000000,{rtt},,")
            else:
                target = "dst_name" if dest == "host.example" else "dst_addr"
                lines.append(json.dumps({
                    "msm_id": i % 5, "prb_id": 100 + i % 3, "from": source, target: dest,
                    "af": 4, "timestamp": 1_680_000_000, "result": [{"rtt": rtt}],
                    "status": "stopped",
                }))
        feed = tmp_path / "feed.jsonl"
        feed.write_text("\n".join(lines) + "\n", encoding="utf-8")

        calls = []
        unmemoized = geo.GeoCache.place

        def counted(self, text):
            calls.append(text)
            return unmemoized(self, text)

        monkeypatch.setattr(geo.GeoCache, "place", counted)
        out = tmp_path / "out"
        code = main(
            ["--output-dir", str(out), "ingest", str(feed), "--key-by", key_by,
             "--regions", "US,CA", "--geo-cache", str(cache)]
        )
        assert code == 0
        memo_calls, calls[:] = list(calls), []

        # reference: ingest_to_rows with one uncached lookup per endpoint of
        # every record, asked through the provider pipeline with no provider
        lookup = geo.GeoLookup(cache=geo.GeoCache(cache))

        def region_of(endpoint):
            calls.append(endpoint)
            try:
                return lookup.lookup(endpoint).country
            except ToolkitError:
                return None

        spec = FilterSpec(region_allowlist=frozenset({"US", "CA"}))
        rows, stats = ingest_to_rows([feed], spec, key_by=key_by, region_of=region_of)
        reference = tmp_path / "reference.csv"
        write_snapshot(rows, reference)
        graph = graph_of(rows)
        snapshot = out / "graph.csv"
        expected = [f"lines={stats.lines} parse_errors={stats.parse_errors} kept={stats.records}"]
        expected += [f"dropped[{r}]={c}" for r, c in sorted(stats.drops.items())]
        expected += [f"skipped[{r}]={c}" for r, c in sorted(stats.skipped.items())]
        expected.append(f"nodes={graph.node_count} edges={graph.edge_count} snapshot={snapshot}")
        assert capsys.readouterr().out == "\n".join(expected) + "\n"
        assert snapshot.read_bytes() == reference.read_bytes()
        assert stats.drops["region_unresolved"] > 0 and stats.drops["region"] > 0
        assert stats.records > 0
        # one lookup per distinct endpoint text, against two per record
        assert sorted(memo_calls) == sorted(set(calls))
        assert len(calls) == 2 * (stats.lines - stats.parse_errors)


class TestDetours:
    def test_snapshot_path_matches_in_memory_graph(self, tmp_path):
        # ingest -> snapshot file -> detours sees exactly the weights that
        # the in-memory pipeline (the one the oracles check) computes
        rng = random.Random(8)
        hosts = [f"10.1.0.{i}" for i in range(8)]
        lines = []
        for i in range(400):
            source, dest = rng.sample(hosts, 2)
            runs = tuple(rng.uniform(0.1, 90.0) for _ in range(rng.randint(1, 3)))
            record = PingRecord(f"m{i % 3}", source, dest, 4, "stopped", 1_680_000_000, runs)
            lines.append(serialize_record(record))
        feed = tmp_path / "feed.jsonl"
        feed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["--output-dir", str(tmp_path), "ingest", str(feed)]) == 0
        rows, _ = ingest_to_rows([feed], FilterSpec(address_family=4))
        in_memory = graph_of(rows)
        snapshot = tmp_path / "graph.csv"
        assert set(load_graph(snapshot).edges()) == set(in_memory.edges())
        from_file = read_snapshot(snapshot)
        assert from_file == ranked(in_memory)
        produced = list(search_detours(*from_file, 0.0).insights())
        assert produced == list(search_detours(*ranked(in_memory), 0.0).insights())

    def test_duplicate_edge_is_a_parse_error(self, tmp_path, capsys):
        snapshot = tmp_path / "graph.csv"
        rows = ["10.0.0.1,B,1.0,1,1", "A,B,1.0,1,1", "10.0.0.01,B,2.0,1,1"]
        snapshot.write_text("\n".join([",".join(SNAPSHOT_HEADER), *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "detours", str(snapshot)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "analysis error: parse error at 4: duplicate edge 10.0.0.1 -> B, first at line 2\n"
        )
        assert not out.exists()

    def test_sub_millisecond_edge_survives_snapshot(self, tmp_path):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph({("A", "B"): 0.0004, ("B", "C"): 2.0, ("A", "C"): 3.0}), snapshot)
        assert read_snapshot(snapshot)[1][0] == [(1, 0.0004), (2, 3.0)]
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "detours", str(snapshot)]) == 0
        assert read_csv(out / "insights.csv")[1][:4] == ["A", "B", "C", "2.000"]

    def test_four_node_fixture_matches_hand_enumeration(self, tmp_path, capsys):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(FOUR_NODE_EDGES), snapshot)
        out = tmp_path / "out"
        code = main(["--output-dir", str(out), "detours", str(snapshot)])
        assert code == 0
        rows = read_csv(out / "insights.csv")
        assert rows[0] == [
            "source",
            "via",
            "destination",
            "overlay_rtt_ms",
            "direct_rtt_ms",
            "improvement_ms",
            "improvement_pct",
            "kind",
        ]
        assert rows[1:] == [
            ["A", "D", "C", "5.000", "20.000", "15.000", "75.00", "improvement"],
            ["A", "B", "C", "10.000", "20.000", "10.000", "50.00", "improvement"],
            ["B", "A", "D", "8.000", "", "", "", "bridge"],
        ]
        # both improvements share the pair (A, C); it counts once at its best
        hist = read_csv(out / "histogram.csv")
        assert hist == [["bucket_pct", "pair_count"], ["75", "1"]]

    def test_threshold_one_hundred_empty(self, tmp_path):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(FOUR_NODE_EDGES), snapshot)
        out = tmp_path / "out"
        code = main(
            ["--output-dir", str(out), "detours", str(snapshot), "--threshold-pct", "100"]
        )
        assert code == 0
        rows = read_csv(out / "insights.csv")
        improvements = [r for r in rows[1:] if r[-1] == "improvement"]
        assert improvements == []
        assert read_csv(out / "histogram.csv") == [["bucket_pct", "pair_count"]]

    def test_reference_fixture_top_row(self, tmp_path):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(REFERENCE_EDGES), snapshot)
        out = tmp_path / "out"
        code = main(["--output-dir", str(out), "detours", str(snapshot)])
        assert code == 0
        top = read_csv(out / "insights.csv")[1]
        assert top[:3] == ["Milpitas", "LasCruces", "Morrisdale"]
        assert float(top[5]) == pytest.approx(200.49, abs=0.01)
        assert float(top[6]) == pytest.approx(75.52, abs=0.01)

    def test_malformed_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "graph.csv"
        snapshot.write_text("source,destination,rtt_ms,sample_count,measurement_count\nA,B,zzz,1,1\n")
        code = main(["--output-dir", str(tmp_path / "out"), "detours", str(snapshot)])
        assert code == 1
        assert "analysis error" in capsys.readouterr().err

    def test_missing_snapshot(self, tmp_path):
        assert main(["detours", str(tmp_path / "nope.csv")]) == 2

    def test_huge_rtt_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # 100 * gain overflows to an infinite percentage, which no bucket holds
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph({("A", "B"): 1.0, ("B", "C"): 1.0, ("A", "C"): 1e307}), snapshot)
        out = tmp_path / "out"
        code = main(["--output-dir", str(out), "detours", str(snapshot)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: improvement of inf% does not fit")
        assert "Traceback" not in err
        assert not out.exists()

    def test_json_format(self, tmp_path):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(FOUR_NODE_EDGES), snapshot)
        out = tmp_path / "out"
        code = main(["--output-dir", str(out), "--format", "json", "detours", str(snapshot)])
        assert code == 0
        insights = json.loads((out / "insights.json").read_text())
        assert insights[0]["source"] == "A" and insights[0]["improvement_pct"] == 75.0
        assert insights[-1]["direct_rtt_ms"] is None
        histogram = json.loads((out / "histogram.json").read_text())
        assert {entry["bucket_pct"]: entry["pair_count"] for entry in histogram} == {75.0: 1}

    def test_geo_annotated_top_summary(self, tmp_path, capsys):
        snapshot = tmp_path / "graph.csv"
        save_graph(
            make_graph({("8.0.0.1", "8.0.0.2"): 1.0, ("8.0.0.2", "8.0.0.3"): 1.0, ("8.0.0.1", "8.0.0.3"): 10.0}),
            snapshot,
        )
        cache = tmp_path / "cache.csv"
        cache.write_text(
            "ip,city,region,country,timestamp\n"
            "8.0.0.1,Milpitas,CA,US,1\n8.0.0.2,Las Cruces,NM,US,1\n8.0.0.3,Morrisdale,PA,US,1\n",
            encoding="utf-8",
        )
        code = main(
            [
                "--output-dir",
                str(tmp_path / "out"),
                "detours",
                str(snapshot),
                "--geo-cache",
                str(cache),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Milpitas, US -> Morrisdale, US via Las Cruces, US" in out

    LABELED_EDGES = {("8.0.0.1", "8.0.0.2"): 1.0, ("8.0.0.2", "8.0.0.3"): 1.0, ("8.0.0.1", "8.0.0.3"): 10.0}

    def test_top_labels_keep_only_the_shown_rows_of_the_whole_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(self.LABELED_EDGES), snapshot)
        # an address's last row wins, however far down; other addresses'
        # rows (a non-canonical spelling among them) are read past, and a
        # torn last line is skipped
        cache = tmp_path / "cache.csv"
        cache.write_text(
            "ip,city,region,country,timestamp\n8.0.0.1,Old Town,CA,US,1\n"
            + "".join(f"9.0.{i // 256}.{i % 256},Elsewhere,,US,1\n" for i in range(600))
            + "8.0.0.1,Milpitas,CA,US,2\n8.0.0.2,Las Cruces,NM,US,1\n"
            "8.0.0.003,Nowhere,PA,US,1\n8.0.0.3,Morrisdale,PA,US,1\n8.0.0.2,Torn",
            encoding="utf-8",
        )
        held = []
        unspied = geo.GeoCache.place

        def spied(self, text):
            held.append(len(self))
            return unspied(self, text)

        monkeypatch.setattr(geo.GeoCache, "place", spied)
        argv = ["--output-dir", str(tmp_path / "out"), "detours", str(snapshot), "--geo-cache"]
        assert main([*argv, str(cache)]) == 0
        out = capsys.readouterr().out
        assert "Milpitas, US -> Morrisdale, US via Las Cruces, US" in out
        assert held and max(held) == 3

    def test_bad_cache_row_of_an_unshown_address_exits_1(self, tmp_path, capsys):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(self.LABELED_EDGES), snapshot)
        cache = tmp_path / "cache.csv"
        cache.write_text(
            "ip,city,region,country,timestamp\n8.0.0.1,Milpitas,CA,US,1\n"
            + OVERSIZED_ROW
            + "8.0.0.3,Morrisdale,PA,US,1\n",
            encoding="utf-8",
        )
        argv = ["--output-dir", str(tmp_path / "out"), "detours", str(snapshot), "--geo-cache"]
        assert main([*argv, str(cache)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("insights=")
        assert captured.err.startswith("analysis error: parse error at 3: ")
        assert "cache.csv" in captured.err and "field larger" in captured.err


class TestTraceroutes:
    def test_table_shaped_report(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["--output-dir", str(out), "traceroutes", str(FIXTURES / "traceroutes")]
        )
        assert code == 0
        rows = read_csv(out / "traceroute_report.csv")
        assert rows[0] == ["source_label", "destination", "hop_count", "city_verdict"]
        assert [(r[0], int(r[2]), r[3]) for r in rows[1:]] == [
            ("UCSD CSE wifi", 5, "No"),
            ("UCSD Geisel wifi", 5, "No"),
            ("SD Downtown wifi", 12, "Yes"),
            ("SD Downtown Verizon", 18, "Yes"),
            ("SD Downtown AT&T", 12, "Yes"),
            ("LJ Downtown wifi", 14, "Yes"),
            ("LJ Downtown AT&T", 16, "Yes"),
            ("Miramar wifi", 14, "Yes"),
            ("Miramar AT&T", 16, "Yes"),
            ("SAN wifi", 15, "Unknown"),
        ]

    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "traces"
        empty.mkdir()
        out = tmp_path / "out"
        code = main(["--output-dir", str(out), "traceroutes", str(empty)])
        assert code == 0
        assert read_csv(out / "traceroute_report.csv") == [
            ["source_label", "destination", "hop_count", "city_verdict"]
        ]

    def test_corrupt_file_reported_run_continues(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        shutil.copy(FIXTURES / "traceroutes" / "01_ucsd_cse_wifi.txt", traces / "a.txt")
        shutil.copy(FIXTURES / "traceroutes" / "02_ucsd_geisel_wifi.txt", traces / "b.txt")
        (traces / "broken.txt").write_text("utter garbage, not a trace\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--output-dir", str(out), "traceroutes", str(traces)])
        captured = capsys.readouterr()
        assert code == 0
        assert len(read_csv(out / "traceroute_report.csv")) == 3  # header + 2 rows
        assert "broken.txt" in captured.err

    def test_missing_directory(self, tmp_path):
        assert main(["traceroutes", str(tmp_path / "nothere")]) == 2

    def test_non_ascii_digit_hop_is_a_name(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "t.txt").write_text("# a | b\n 1  1.2.3.\u00b2  1.0 ms\n", encoding="utf-8")
        code = main(["--output-dir", str(tmp_path / "out"), "traceroutes", str(traces)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out == "traces=1 errors=0\n"

    def test_overlong_hop_index_is_a_parse_error(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        shutil.copy(FIXTURES / "traceroutes" / "01_ucsd_cse_wifi.txt", traces / "a.txt")
        (traces / "long.txt").write_text(
            "# a | b\n" + "1" * 4400 + "  gw (10.0.0.1)  1.0 ms\n", encoding="utf-8"
        )
        code = main(["--output-dir", str(tmp_path / "out"), "traceroutes", str(traces)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "traces=1 errors=1\n"
        assert "long.txt: parse error at 2" in captured.err

    def test_geo_cache_resolves_tokenless_hop(self, tmp_path):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "t.txt").write_text(
            "# somewhere | host.example\n"
            " 1  core7.carrier.net (4.68.111.18)  1.0 ms\n"
            " 2  host.example (4.68.111.99)  2.0 ms\n",
            encoding="utf-8",
        )
        cache = tmp_path / "cache.csv"
        cache.write_text(
            "ip,city,region,country,timestamp\n4.68.111.18,Los Angeles,CA,US,1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(
            [
                "--output-dir",
                str(out),
                "traceroutes",
                str(traces),
                "--geo-cache",
                str(cache),
            ]
        )
        assert code == 0
        rows = read_csv(out / "traceroute_report.csv")
        assert rows[1][3] == "Yes"


class TestOverlay:
    def test_reference_composition_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "--output-dir",
                str(out),
                "overlay",
                "--leg",
                f"AB={FIXTURES / 'overlay' / 'leg_ab.txt'}",
                "--leg",
                f"BC={FIXTURES / 'overlay' / 'leg_bc.txt'}",
                "--direct",
                str(FIXTURES / "overlay" / "direct_ac.txt"),
                "--mode-bin-width",
                "0.01",
            ]
        )
        assert code == 0
        rows = read_csv(out / "overlay_summary.csv")
        by_label = {row[0]: row for row in rows[1:]}
        assert by_label["composed:AB+BC"][1:6] == ["67.92", "70.22", "170.60", "71.52", "13.06"]
        assert by_label["AB"][1:6] == ["57.45", "58.00", "159.09", "59.00", "12.61"]
        assert by_label["BC"][7] == "bimodal"
        assert by_label["direct"][1:6] == ["61.72", "62.00", "117.50", "61.00", "10.84"]
        captured = capsys.readouterr().out
        assert "direct route is 8.22 ms faster by median" in captured
        assert "mode_delta=10.52" in captured
        assert (out / "distribution_AB.csv").exists()
        assert (out / "distribution_direct.csv").exists()

    def test_direct_only_no_verdict(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "--output-dir",
                str(out),
                "overlay",
                "--direct",
                str(FIXTURES / "overlay" / "direct_ac.txt"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "verdict" not in captured
        assert len(read_csv(out / "overlay_summary.csv")) == 2  # header + direct row

    def test_leg_equals_direct_gives_zero_deltas(self, tmp_path, capsys):
        out = tmp_path / "out"
        sample = FIXTURES / "overlay" / "direct_ac.txt"
        code = main(
            ["--output-dir", str(out), "overlay", "--leg", f"only={sample}", "--direct", str(sample)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "median_delta=0.00" in captured
        assert "routes tie" in captured

    def test_empty_sample_file_names_it(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n", encoding="utf-8")
        code = main(["--output-dir", str(tmp_path / "out"), "overlay", "--leg", f"X={empty}"])
        assert code == 1
        assert "empty.txt" in capsys.readouterr().err

    def test_no_inputs_is_usage_error(self, tmp_path):
        assert main(["--output-dir", str(tmp_path), "overlay"]) == 2

    @pytest.mark.parametrize(
        "legs, extra, message",
        [
            (["1e308\n1e308\n"], [], "the sample sum or variance passes the largest float"),
            (["1e200\n1\n"], [], "the sample sum or variance passes the largest float"),
            (["1e308\n"], [], "a sample over the bin width 0.5 passes the largest float"),
            (["1e308\n", "1e308\n"], ["--mode-bin-width", "1"],
             "composing the legs gives a value that is not finite"),
        ],
        ids=["fsum", "squared-deviation", "bin-index", "composed"],
    )
    def test_samples_past_the_float_range_are_an_error(
        self, tmp_path, capsys, legs, extra, message
    ):
        out = tmp_path / "out"
        argv = ["--output-dir", str(out), "overlay", *extra]
        for i, text in enumerate(legs):
            path = tmp_path / f"leg{i}.txt"
            path.write_text(text, encoding="utf-8")
            argv += ["--leg", f"L{i}={path}"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_sample_is_a_parse_error_with_its_line(self, tmp_path, capsys):
        leg = tmp_path / "leg.txt"
        leg.write_text("1.5\nnan\n", encoding="utf-8")
        assert main(["--output-dir", str(tmp_path / "out"), "overlay", "--leg", f"A={leg}"]) == 1
        assert capsys.readouterr().err == (
            "analysis error: parse error at 2: sample must be finite and > 0, got 'nan'\n"
        )

    @pytest.mark.parametrize(
        "first, second",
        [("A/B", "A_B"), ("A B", "A/B"), ("AB", "AB"), ("direct", None)],
    )
    def test_colliding_distribution_files_rejected(self, tmp_path, capsys, first, second):
        sample = str(FIXTURES / "overlay" / "direct_ac.txt")
        out = tmp_path / "out"
        argv = ["--output-dir", str(out), "overlay", "--leg", f"{first}={sample}"]
        argv += ["--leg", f"{second}={sample}"] if second else ["--direct", sample]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"labels {first!r} and {second or 'direct'!r} would both write" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["overlay", "--leg", "nolabel"], "bad --leg value 'nolabel', expected LABEL=FILE"),
        (["overlay"], "nothing to do: give --leg and/or --direct"),
        (
            ["overlay", "--leg", "A/B=s.txt", "--leg", "A_B=s.txt"],
            "labels 'A/B' and 'A_B' would both write distribution_A_B.csv",
        ),
        (["geo-warm", "ips.txt"], "geo-warm needs a cache path (--geo-cache)"),
    ],
    ids=["bad-leg", "nothing-to-do", "label-clash", "no-geo-cache"],
)
def test_usage_errors_are_reported_by_main(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), *argv]) == 2
    assert capsys.readouterr() == ("", f"bad arguments: {message}\n")
    assert not out.exists()


class TestGeoWarm:
    def test_warm_from_static_provider(self, tmp_path, capsys):
        ips = tmp_path / "ips.txt"
        ips.write_text("8.0.0.7\n10.0.0.1\n8.0.0.9\n", encoding="utf-8")
        static = tmp_path / "static.csv"
        static.write_text("ip,city,region,country\n8.0.0.7,Ashburn,VA,US\n", encoding="utf-8")
        cache = tmp_path / "cache.csv"
        code = main(
            [
                "geo-warm",
                str(ips),
                "--geo-cache",
                str(cache),
                "--geo-provider",
                "static",
                "--geo-static-file",
                str(static),
            ]
        )
        assert code == 0
        assert "warmed 3 addresses, 1 resolved" in capsys.readouterr().out
        assert "8.0.0.7,Ashburn,VA,US" in cache.read_text()

    def test_counts_each_distinct_address_once(self, tmp_path, capsys, monkeypatch):
        # lookups keep no memo of misses: the provider sees each distinct
        # non-reserved address once because geo-warm asks once
        fetched = []
        fetch = geo.StaticFileGeoProvider.fetch

        def counting_fetch(provider, ip):
            fetched.append(ip)
            return fetch(provider, ip)

        monkeypatch.setattr(geo.StaticFileGeoProvider, "fetch", counting_fetch)
        ips = tmp_path / "ips.txt"
        ips.write_text(
            "8.0.0.7\n8.0.000.7\n10.0.0.1\nbad\n9.0.0.9\n8.0.0.7\nbad\n9.0.0.09\n",
            encoding="utf-8",
        )
        static = tmp_path / "static.csv"
        static.write_text("ip,city,region,country\n8.0.0.7,Ashburn,VA,US\n", encoding="utf-8")
        cache = tmp_path / "cache.csv"
        argv = ["geo-warm", str(ips), "--geo-cache", str(cache)]
        argv += ["--geo-provider", "static", "--geo-static-file", str(static)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("warmed 4 addresses, 1 resolved")
        assert captured.err.count("skipping bad") == 1
        assert cache.read_text().count("8.0.0.7,") == 1
        assert fetched == ["8.0.0.7", "9.0.0.9"]

    def test_leaves_no_open_file_handle(self, tmp_path, capsys, monkeypatch):
        handles = []

        def tracked_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        for module in (geo, errors):
            monkeypatch.setattr(module, "open", tracked_open, raising=False)
        ips = tmp_path / "ips.txt"
        ips.write_text("8.0.0.7\n8.0.0.8\n8.0.0.9\n", encoding="utf-8")
        static = tmp_path / "static.csv"
        static.write_text("8.0.0.7,Ashburn,VA,US\n8.0.0.8,Paris,IDF,FR\n", encoding="utf-8")
        cache = tmp_path / "cache.csv"
        cache.write_text("ip,city,region,country,timestamp\n8.0.0.9,,,JP,1\n", encoding="utf-8")
        argv = ["geo-warm", str(ips), "--geo-cache", str(cache)]
        argv += ["--geo-provider", "static", "--geo-static-file", str(static)]
        assert main(argv) == 0
        assert "warmed 3 addresses, 3 resolved" in capsys.readouterr().out
        # the static table, the cache's torn-tail check and load, the address
        # list and one append handle for both puts
        names = ["static.csv", "cache.csv", "cache.csv", "ips.txt", "cache.csv"]
        assert [Path(h.name).name for h in handles] == names
        assert all(h.closed for h in handles)

    def test_line_torn_inside_a_character_is_skipped_and_cut(self, tmp_path, capsys):
        # the write stopped inside the two bytes of an accented city name
        cache = tmp_path / "cache.csv"
        cache.write_bytes(b"ip,city,region,country,timestamp\n8.0.0.6,Reno,NV,US,1\n8.8.0.7,S\xc3")
        ips = tmp_path / "ips.txt"
        ips.write_text("8.0.0.7\n", encoding="utf-8")
        static = tmp_path / "static.csv"
        static.write_text("8.0.0.7,Ashburn,VA,US\n", encoding="utf-8")
        argv = ["geo-warm", str(ips), "--geo-cache", str(cache)]
        argv += ["--geo-provider", "static", "--geo-static-file", str(static)]
        assert main(argv) == 0
        assert "warmed 1 addresses, 1 resolved" in capsys.readouterr().out
        lines = cache.read_bytes().splitlines()
        assert lines[:2] == [b"ip,city,region,country,timestamp", b"8.0.0.6,Reno,NV,US,1"]
        assert lines[2].startswith(b"8.0.0.7,Ashburn,VA,US,") and len(lines) == 3
        reloaded = geo.GeoCache(cache)
        assert reloaded.torn_lines == 0 and len(reloaded) == 2

    def test_cache_in_a_new_directory(self, tmp_path, capsys):
        ips = tmp_path / "ips.txt"
        ips.write_text("8.0.0.7\n", encoding="utf-8")
        static = tmp_path / "static.csv"
        static.write_text("8.0.0.7,Ashburn,VA,US\n", encoding="utf-8")
        cache = tmp_path / "nodir" / "c.csv"
        argv = ["geo-warm", str(ips), "--geo-cache", str(cache)]
        argv += ["--geo-provider", "static", "--geo-static-file", str(static)]
        assert main(argv) == 0
        assert "warmed 1 addresses, 1 resolved" in capsys.readouterr().out
        assert "8.0.0.7,Ashburn,VA,US," in cache.read_text(encoding="utf-8")

    def test_undecodable_address_list_appends_no_row(self, tmp_path, capsys):
        # the bad byte lies past the first 8 KiB, which a text reader decodes at once
        covered = [f"8.8.{i // 250}.{i % 250 + 1}" for i in range(1000)]
        ips = tmp_path / "ips.txt"
        ips.write_bytes("".join(f"{ip}\n" for ip in covered).encode() + b"8.8.\xff.1\n")
        static = tmp_path / "static.csv"
        static.write_text("".join(f"{ip},Ashburn,VA,US\n" for ip in covered), encoding="utf-8")
        cache = tmp_path / "cache.csv"
        cache.write_text("ip,city,region,country,timestamp\n8.0.0.9,,,JP,1\n", encoding="utf-8")
        before = cache.read_bytes()
        argv = ["geo-warm", str(ips), "--geo-cache", str(cache)]
        argv += ["--geo-provider", "static", "--geo-static-file", str(static)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("analysis error: parse error at 1001: ") and "ips.txt" in err
        assert cache.read_bytes() == before

    def test_cache_required(self, tmp_path):
        ips = tmp_path / "ips.txt"
        ips.write_text("8.0.0.7\n", encoding="utf-8")
        assert main(["geo-warm", str(ips)]) == 2

    def test_non_ascii_digit_address_is_skipped(self, tmp_path, capsys):
        ips = tmp_path / "ips.txt"
        ips.write_text("8.0.0.7\n1.2.3.\u00b2\n", encoding="utf-8")
        assert main(["geo-warm", str(ips), "--geo-cache", str(tmp_path / "cache.csv")]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("warmed 2 addresses, 0 resolved")
        assert "skipping 1.2.3.\u00b2: not an IPv4 address" in captured.err


# a geo row whose city is one character past csv's default field size limit
OVERSIZED_ROW = f'8.8.8.8,"{"x" * 131_073}",,US\n'


def _oversized_snapshot(tmp_path):
    path = tmp_path / "big_graph.csv"
    path.write_text(f"{','.join(SNAPSHOT_HEADER)}\nA,B,{'1' * 131_073},1,1\n", encoding="utf-8")
    return ["detours", str(path)]


def _ips(tmp_path):
    ips = tmp_path / "ips.txt"
    ips.write_text("8.8.8.8\n", encoding="utf-8")
    return ["geo-warm", str(ips)]


def _oversized_static_file(tmp_path):
    static = tmp_path / "big_static.csv"
    static.write_text("ip,city,region,country\n" + OVERSIZED_ROW, encoding="utf-8")
    return [
        *_ips(tmp_path),
        "--geo-cache",
        str(tmp_path / "cache.csv"),
        "--geo-provider",
        "static",
        "--geo-static-file",
        str(static),
    ]


def _oversized_cache(command):
    def argv(tmp_path):
        cache = tmp_path / "big_cache.csv"
        cache.write_text("ip,city,region,country,timestamp\n" + OVERSIZED_ROW, encoding="utf-8")
        return [*command(tmp_path), "--geo-cache", str(cache)]

    return argv


def _feed(tmp_path):
    feed = tmp_path / "feed.jsonl"
    feed.write_text(feed_line(0) + "\n", encoding="utf-8")
    return ["ingest", str(feed), "--regions", "US"]


def _traces(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    shutil.copy(FIXTURES / "traceroutes" / "01_ucsd_cse_wifi.txt", traces)
    return ["traceroutes", str(traces)]


@pytest.mark.parametrize(
    "command,name",
    [
        (_oversized_snapshot, None),
        (_oversized_cache(_feed), "big_cache.csv"),
        (_oversized_cache(_traces), "big_cache.csv"),
        (_oversized_cache(_ips), "big_cache.csv"),
        (_oversized_static_file, "big_static.csv"),
    ],
    ids=["detours", "ingest-regions", "traceroutes", "geo-warm-cache", "geo-warm-static-file"],
)
def test_oversized_csv_field_is_a_parse_error(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), *command(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analysis error: parse error at 2: ") and "field larger" in err
    assert "Traceback" not in err
    assert name is None or name in err
    assert not out.exists()


def _undecodable_snapshot(tmp_path):
    path = tmp_path / "bad_graph.csv"
    path.write_bytes(f"{','.join(SNAPSHOT_HEADER)}\nA,B,1,1,1\n".encode() + b"A,C\xff,1,1,1\n")
    return ["detours", str(path)]


def _undecodable_static_file(tmp_path):
    static = tmp_path / "bad_static.csv"
    static.write_bytes(b"ip,city,region,country\n8.8.4.4,,,US\n8.8.8.8,Mountain Vi\xe9w,CA,US\n")
    return [
        *_ips(tmp_path),
        "--geo-cache",
        str(tmp_path / "cache.csv"),
        "--geo-provider",
        "static",
        "--geo-static-file",
        str(static),
    ]


def _undecodable_cache(tmp_path):
    # the bad line is not the last one, so it is no torn write
    cache = tmp_path / "bad_cache.csv"
    cache.write_bytes(
        b"ip,city,region,country,timestamp\n8.8.4.4,,,US,1\n8.8.8.8,Z\xfcrich,,CH,1\n"
        b"1.1.1.1,,,AU,1\n"
    )
    return [*_ips(tmp_path), "--geo-cache", str(cache)]


def _undecodable_samples(tmp_path):
    samples = tmp_path / "bad_samples.txt"
    samples.write_bytes(b"12.5\n13\n1\xff4\n")
    return ["overlay", "--leg", f"A={samples}"]


def _undecodable_address_list(tmp_path):
    ips = tmp_path / "bad_ips.txt"
    ips.write_bytes(b"8.8.8.8\n8.8.4.4\n8.8.\xc3.1\n")
    return ["geo-warm", str(ips), "--geo-cache", str(tmp_path / "cache.csv")]


@pytest.mark.parametrize(
    "command,name",
    [
        (_undecodable_snapshot, "bad_graph.csv"),
        (_undecodable_static_file, "bad_static.csv"),
        (_undecodable_cache, "bad_cache.csv"),
        (_undecodable_samples, "bad_samples.txt"),
        (_undecodable_address_list, "bad_ips.txt"),
    ],
    ids=["detours", "geo-warm-static-file", "geo-warm-cache", "overlay", "geo-warm-address-list"],
)
def test_undecodable_byte_is_a_parse_error(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), *command(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analysis error: parse error at 3: ") and "is not UTF-8" in err
    assert name in err
    assert "codec" not in err and "bad arguments" not in err
    assert not out.exists()
    assert not (tmp_path / "cache.csv").exists()


def test_undecodable_trace_file_is_one_error(tmp_path, capsys):
    traces = tmp_path / "traces"
    traces.mkdir()
    shutil.copy(FIXTURES / "traceroutes" / "01_ucsd_cse_wifi.txt", traces / "a.txt")
    shutil.copy(FIXTURES / "traceroutes" / "02_ucsd_geisel_wifi.txt", traces / "c.txt")
    (traces / "b.txt").write_bytes(
        b"# x | y\n 1  r1 (10.0.0.1)  1.0 ms\n 2  r\xff (10.0.0.2)  2.0 ms\n"
    )
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), "traceroutes", str(traces)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "traces=2 errors=1\n"
    assert captured.err.startswith("error: b.txt: parse error at 3: ")
    assert "byte 0xff at column 6 is not UTF-8" in captured.err and "codec" not in captured.err
    report = read_csv(out / "traceroute_report.csv")
    assert [row[0] for row in report[1:]] == ["UCSD CSE wifi", "UCSD Geisel wifi"]


@pytest.mark.parametrize(
    "setting,argv,message",
    [
        (
            "meta.csv",
            lambda feed, path: ["ingest", str(feed), "--sidecar", str(path)],
            "bad arguments: sidecar line 3: ",
        ),
        (
            "pipeline.cfg",
            lambda feed, path: ["--config", str(path), "ingest", str(feed)],
            "bad configuration: parse error at 3: ",
        ),
    ],
    ids=["sidecar", "config"],
)
def test_undecodable_settings_file_is_a_usage_error(tmp_path, capsys, setting, argv, message):
    feed = tmp_path / "feed.jsonl"
    feed.write_text(feed_line(1) + "\n", encoding="utf-8")
    path = tmp_path / setting
    text = {
        "meta.csv": b"measurement_id,status,start_time\nm1,stopped,1\nm2,st\xf6pped,\n",
        "pipeline.cfg": b"[filter]\nstatus = stopped\n; caf\xe9\n",
    }[setting]
    path.write_bytes(text)
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), *argv(feed, path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and f"{setting}: byte " in err and "is not UTF-8" in err
    assert "codec" not in err and "line 0" not in err
    assert not out.exists()


# argv, per input kind, given a directory of valid inputs and the path of
# the missing one
MISSING_INPUTS = {
    "ingest-feed": lambda ok, missing: ["ingest", str(ok / "feed.jsonl"), missing],
    "ingest-sidecar": lambda ok, missing: [
        "ingest", str(ok / "feed.jsonl"), "--sidecar", missing
    ],
    "detours": lambda ok, missing: ["detours", missing],
    "traceroutes": lambda ok, missing: ["traceroutes", missing],
    "overlay-leg": lambda ok, missing: ["overlay", "--leg", f"A={missing}"],
    "overlay-direct": lambda ok, missing: ["overlay", "--direct", missing],
    "geo-warm-address-list": lambda ok, missing: [
        "geo-warm", missing, "--geo-cache", str(ok / "cache.csv")
    ],
    "geo-warm-static-file": lambda ok, missing: [
        "geo-warm", str(ok / "ips.txt"), "--geo-cache", str(ok / "cache.csv"),
        "--geo-provider", "static", "--geo-static-file", missing,
    ],
    "config": lambda ok, missing: ["--config", missing, "ingest", str(ok / "feed.jsonl")],
}


@pytest.mark.parametrize("kind", sorted(MISSING_INPUTS))
def test_missing_input_is_one_usage_error(tmp_path, capsys, kind):
    (tmp_path / "feed.jsonl").write_text(feed_line(1) + "\n", encoding="utf-8")
    (tmp_path / "ips.txt").write_text("8.8.8.8\n", encoding="utf-8")
    missing = str(tmp_path / "nothere")
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), *MISSING_INPUTS[kind](tmp_path, missing)]) == 2
    assert capsys.readouterr().err == f"input not found: {missing}\n"
    assert not out.exists()


# each input kind: (file name, valid contents, argv given the file's path and
# a directory holding valid inputs of the other kinds)
FUZZED_INPUTS = {
    "feed": (
        "feed.jsonl",
        f"{feed_line(1)}\n1,8.0.0.1,8.0.0.2,4,stopped,1680000000,1,2,3\n".encode(),
        lambda path, ok: ["ingest", str(path)],
    ),
    "sidecar": (
        "meta.csv",
        b"measurement_id,status,start_time\nm1,stopped,1680000000\n",
        lambda path, ok: ["ingest", str(ok / "feed.jsonl"), "--sidecar", str(path)],
    ),
    "snapshot": (
        "graph.csv",
        f"{','.join(SNAPSHOT_HEADER)}\nA,B,1,1,1\nB,C,2,1,1\nA,C,9,1,1\n".encode(),
        lambda path, ok: ["detours", str(path)],
    ),
    "static-geo-file": (
        "static.csv",
        "ip,city,region,country\n8.8.8.8,Z\u00fcrich,,CH\n".encode(),
        lambda path, ok: [
            "geo-warm", str(ok / "ips.txt"), "--geo-cache", str(ok / "warm.csv"),
            "--geo-provider", "static", "--geo-static-file", str(path),
        ],
    ),
    "geo-cache": (
        "cache.csv",
        "ip,city,region,country,timestamp\n8.8.8.8,Z\u00fcrich,,CH,1\n".encode(),
        lambda path, ok: ["geo-warm", str(ok / "ips.txt"), "--geo-cache", str(path)],
    ),
    "samples": (
        "samples.txt",
        b"# ms\n12.5\n13\n",
        lambda path, ok: ["overlay", "--leg", f"A={path}", "--direct", str(path)],
    ),
    "address-list": (
        "ips.txt",
        b"8.8.8.8\n# comment\n1.1.1.1\n",
        lambda path, ok: ["geo-warm", str(path), "--geo-cache", str(ok / "warm.csv")],
    ),
    "trace": (
        "traces/trace.txt",
        (FIXTURES / "traceroutes" / "01_ucsd_cse_wifi.txt").read_bytes(),
        lambda path, ok: ["traceroutes", str(path.parent)],
    ),
    "config": (
        "pipeline.cfg",
        b"[detours]\ntop = 3\n[output]\nformat = json\n",
        lambda path, ok: ["--config", str(path), "detours", str(ok / "graph.csv")],
    ),
}


def _spliced(valid: bytes):
    """``valid`` with a few arbitrary bytes put in at an arbitrary place."""
    return st.tuples(st.integers(0, len(valid)), st.binary(min_size=1, max_size=4)).map(
        lambda cut: valid[: cut[0]] + cut[1] + valid[cut[0] :]
    )


@pytest.mark.parametrize("kind", sorted(FUZZED_INPUTS))
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_arbitrary_input_bytes_exit_cleanly(tmp_path, capsys, kind, data):
    name, valid, argv = FUZZED_INPUTS[kind]
    ok = tmp_path / "ok"
    if not ok.exists():
        ok.mkdir()
        for other, contents, _ in FUZZED_INPUTS.values():
            if "/" not in other:
                (ok / other).write_bytes(contents)
    path = tmp_path / "fuzzed" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data.draw(st.one_of(st.binary(max_size=200), _spliced(valid))))
    code = main(["--output-dir", str(tmp_path / "out"), *argv(path, ok)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "codec can't" not in err


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("kind", sorted(FUZZED_INPUTS))
def test_byte_order_mark_is_skipped(tmp_path, capsys, monkeypatch, kind):
    # a geo cache row is stamped with the time it was written
    monkeypatch.setattr(geo.time, "time", lambda: 1_680_000_000)
    name, valid, argv = FUZZED_INPUTS[kind]

    def run(root: Path, contents: bytes):
        """Exit code, stdout and every file under ``root`` after the run,
        the input given without its mark."""
        ok = root / "ok"
        ok.mkdir(parents=True)
        for other, data, _ in FUZZED_INPUTS.values():
            if "/" not in other:
                (ok / other).write_bytes(data)
        path = root / "input" / name
        path.parent.mkdir(parents=True)
        path.write_bytes(contents)
        code = main(["--output-dir", str(root / "out"), *argv(path, ok)])
        stdout = capsys.readouterr().out.replace(str(root), "<root>")
        path.write_bytes(path.read_bytes().removeprefix(BOM))
        files = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        return code, stdout, files

    assert run(tmp_path / "marked", BOM + valid) == run(tmp_path / "plain", valid)


def failing_edge_rows():
    """Edge rows that fail after the snapshot header and a row are written."""
    yield ("A", "B", 1.0, 1, 1)
    raise RuntimeError("writer failed")


def failing_rows():
    yield (1.0, 2)
    raise RuntimeError("writer failed")


# a successor list naming a node rank that does not exist fails mid-file,
# when the writer walks the bridges after the improvement row A -> C via B;
# an empty fourth successor list lets the bridge slicing, which only counts
# each via's successors, read the rank
BROKEN_ROWS = DetourRows(
    nodes=["A", "B", "C"],
    successors=[[(1, 1.0)], [(3, 1.0)], [], []],
    pairs=array("q", [0 * 3 + 2]),  # source * len(nodes) + destination
    vias=array("q", [1]),
    overlays=array("d", [1.0]),
    directs=array("d", [3.0]),
    pcts=array("d", [66.67]),
    order=array("q", [0]),
    bridge_count=1,
)

DETOURS_SHARES = functools.partial(run_shares, "detours")
FAILING_WRITERS = {
    "write_snapshot": lambda path: write_snapshot(failing_edge_rows(), path),
    "write_table-csv": lambda path: write_table(path, "csv", HISTOGRAM_COLUMNS, failing_rows()),
    "write_table-json": lambda path: write_table(path, "json", HISTOGRAM_COLUMNS, failing_rows()),
    "write_rows-csv": lambda path: write_rows(BROKEN_ROWS, path, "csv", DETOURS_SHARES, 1),
    "write_rows-json": lambda path: write_rows(BROKEN_ROWS, path, "json", DETOURS_SHARES, 1),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(FAILING_WRITERS))
    def test_failed_writer_keeps_old_output(self, tmp_path, writer):
        target = tmp_path / "output"
        target.write_bytes(b"old contents\n")
        with pytest.raises((RuntimeError, IndexError)):
            FAILING_WRITERS[writer](target)
        assert target.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["output"]

    def test_failed_distribution_write_keeps_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        old = out / "distribution_direct.csv"
        old.write_bytes(b"old contents\n")

        real_describe = stats_module.describe

        def failing_distribution():
            yield (1.0, 1)
            raise RuntimeError("writer failed")

        def describe(samples, width):
            summary, _ = real_describe(samples, width)
            return summary, failing_distribution()

        monkeypatch.setattr(stats_module, "describe", describe)
        direct = FIXTURES / "overlay" / "direct_ac.txt"
        with pytest.raises(RuntimeError):
            main(["--output-dir", str(out), "overlay", "--direct", str(direct)])
        assert old.read_bytes() == b"old contents\n"
        written = sorted(p.name for p in out.iterdir())
        assert written == ["distribution_direct.csv", "overlay_summary.csv"]


class TestConfig:
    def test_config_file_and_cli_precedence(self, tmp_path):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(FOUR_NODE_EDGES), snapshot)
        config = tmp_path / "pipeline.cfg"
        config.write_text(
            f"[detours]\nthreshold_pct = 60.0\n\n[output]\ndir = {tmp_path / 'from_config'}\n",
            encoding="utf-8",
        )
        code = main(["--config", str(config), "detours", str(snapshot)])
        assert code == 0
        rows = read_csv(tmp_path / "from_config" / "insights.csv")
        improvements = [r for r in rows[1:] if r[-1] == "improvement"]
        assert len(improvements) == 1  # only the 75% insight clears 60%

        # explicit flag beats the config value
        code = main(
            [
                "--config",
                str(config),
                "--output-dir",
                str(tmp_path / "cli_wins"),
                "detours",
                str(snapshot),
                "--threshold-pct",
                "1",
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "cli_wins" / "insights.csv")
        improvements = [r for r in rows[1:] if r[-1] == "improvement"]
        assert len(improvements) == 2

    def test_negative_top_rejected(self, tmp_path, capsys):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(FOUR_NODE_EDGES), snapshot)
        out = str(tmp_path / "out")
        assert main(["--output-dir", out, "detours", str(snapshot), "--top", "-1"]) == 2
        config = tmp_path / "pipeline.cfg"
        config.write_text("[detours]\ntop = -1\n", encoding="utf-8")
        assert main(["--config", str(config), "--output-dir", out, "detours", str(snapshot)]) == 2
        assert capsys.readouterr().err.count("top must be >= 0") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,flag,key,refusal",
        [
            ("detours", "--threshold-pct", "threshold_pct", "must be >= 0, got -0.5"),
            ("detours", "--bucket-width", "bucket_width_pct", "must be > 0, got -0.5"),
            ("overlay", "--mode-bin-width", "mode_bin_width_ms", "must be > 0, got -0.5"),
        ],
        ids=["threshold-pct", "bucket-width", "mode-bin-width"],
    )
    def test_bad_setting_is_refused_before_any_input_is_read(
        self, tmp_path, capsys, command, flag, key, refusal
    ):
        # the input is malformed too: the setting is refused first, from its
        # flag and from the config file alike
        malformed = tmp_path / "input.csv"
        malformed.write_text("not a snapshot\n", encoding="utf-8")
        argv = [command, *(["--direct"] if command == "overlay" else []), str(malformed)]
        out = str(tmp_path / "out")
        assert main(["--output-dir", out, *argv, flag, "-0.5"]) == 2
        config = tmp_path / "pipeline.cfg"
        config.write_text(f"[{command}]\n{key} = -0.5\n", encoding="utf-8")
        assert main(["--config", str(config), "--output-dir", out, *argv]) == 2
        message = f"bad configuration: [{command}] {key} {refusal}\n"
        assert capsys.readouterr() == ("", message * 2)
        # a threshold of 0 is allowed, and the malformed input is then read
        zero = 1 if key == "threshold_pct" else 2
        assert main(["--output-dir", out, *argv, flag, "0"]) == zero
        assert not (tmp_path / "out").exists()

    def test_negative_forwarding_delay_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        legs = [
            "overlay",
            "--leg",
            f"AB={FIXTURES / 'overlay' / 'leg_ab.txt'}",
            "--leg",
            f"BC={FIXTURES / 'overlay' / 'leg_bc.txt'}",
        ]
        assert main(["--output-dir", out, *legs, "--forwarding-delay", "-200"]) == 2
        config = tmp_path / "pipeline.cfg"
        config.write_text("[overlay]\nforwarding_delay_ms = -200\n", encoding="utf-8")
        assert main(["--config", str(config), "--output-dir", out, *legs]) == 2
        message = "bad configuration: [overlay] forwarding_delay_ms must be >= 0, got -200.0\n"
        assert capsys.readouterr().err == message * 2
        assert not (tmp_path / "out").exists()
        # no delay is a delay
        assert main(["--output-dir", out, *legs, "--forwarding-delay", "0"]) == 0
        assert "composed:AB+BC: mean=67.92 " in capsys.readouterr().out

    def test_bad_format_rejected(self, tmp_path):
        snapshot = tmp_path / "graph.csv"
        save_graph(make_graph(FOUR_NODE_EDGES), snapshot)
        config = tmp_path / "pipeline.cfg"
        config.write_text("[output]\nformat = xml\n", encoding="utf-8")
        assert main(["--config", str(config), "detours", str(snapshot)]) == 2

    @pytest.mark.parametrize(
        "section,key,value",
        [("ingest", "key_by", "Probe"), ("geo", "provider", "htp"), ("output", "format", "xml")],
    )
    def test_config_values_checked_like_flags(self, tmp_path, capsys, section, key, value):
        ips = tmp_path / "ips.txt"
        ips.write_text("8.0.0.7\n", encoding="utf-8")
        config = tmp_path / "pipeline.cfg"
        sections = {"geo": [f"cache = {tmp_path / 'cache.csv'}"]}
        sections.setdefault(section, []).append(f"{key} = {value}")
        config.write_text(
            "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items()),
            encoding="utf-8",
        )
        assert main(["--config", str(config), "geo-warm", str(ips)]) == 2
        assert f"[{section}] {key} must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,setting",
        [
            (["detours", "g.csv", "--threshold-pct", "nan"], "threshold_pct"),
            (["detours", "g.csv", "--bucket-width", "inf"], "bucket_width_pct"),
            (["overlay", "--direct", "d.txt", "--mode-bin-width", "nan"], "mode_bin_width_ms"),
            (["overlay", "--direct", "d.txt", "--forwarding-delay", "inf"], "forwarding_delay_ms"),
        ],
        ids=["threshold-pct", "bucket-width", "mode-bin-width", "forwarding-delay"],
    )
    def test_non_finite_flag_rejected(self, tmp_path, capsys, argv, setting):
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), *argv]) == 2
        assert f"{setting} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value,command",
        [
            ("detours", "threshold_pct", "nan", ["detours", "g.csv"]),
            ("detours", "bucket_width_pct", "inf", ["detours", "g.csv"]),
            ("overlay", "mode_bin_width_ms", "nan", ["overlay", "--direct", "d.txt"]),
            ("overlay", "forwarding_delay_ms", "-inf", ["overlay", "--direct", "d.txt"]),
            ("geo", "min_interval_s", "inf", ["geo-warm", "ips.txt", "--geo-cache", "c.csv"]),
        ],
    )
    def test_non_finite_config_value_rejected(self, tmp_path, capsys, section, key, value, command):
        config = tmp_path / "pipeline.cfg"
        config.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--output-dir", str(out), *command]) == 2
        assert f"{key} must be a finite number, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "pipeline.cfg"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1), encoding="utf-8")
        cfg = load_config_file(path)
        assert cfg.max_start == 1684454400  # 2023-05-19, the comment stripped
        assert cfg.regions == frozenset({"US"})
        assert cfg.geo_provider == "static" and cfg.format == "csv"

    def test_readme_lists_every_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        listed = {
            (section, key): None if default == "unset" else default.strip("`")
            for section, key, default in re.findall(
                r"^\| `\[(\w+)\] (\w+)` \| .* \| (unset|`[^`]*`) \|$", readme, re.M
            )
        }
        assert sorted(listed) == sorted((section, key) for section, key, *_ in CONFIG_KEYS)
        for section, key, _, convert, _, default in CONFIG_KEYS:
            text = listed[section, key]
            assert (None if text is None else convert(text)) == default, (section, key)

    def test_one_table_covers_every_setting(self):
        names = {name for _, _, name, *_ in CONFIG_KEYS}
        pairs = {(section, key) for section, key, *_ in CONFIG_KEYS}
        assert len(names) == len(pairs) == len(CONFIG_KEYS) == 20
        # every flag stores a setting, but for help and the flags that name
        # a command's own inputs, which no config key stands for
        inputs = {"help", "config", "snapshot_name", "city_tokens", "geo_city", "leg", "direct"}
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {
            action.dest
            for command in (parser, *commands.choices.values())
            for action in command._actions
            if action.option_strings
        }
        assert inputs <= dests
        assert dests - inputs <= names

    def test_flags_reach_their_fields(self):
        parser = build_parser()
        cfg = resolve_config(parser.parse_args(["ingest", "f", "--af", "6", "--key-by", "probe"]))
        assert (cfg.address_family, cfg.key_by) == (6, "probe")
        cfg = resolve_config(
            parser.parse_args(
                ["overlay", "--direct", "d", "--mode-bin-width", "0.2", "--forwarding-delay", "3"]
            )
        )
        assert (cfg.mode_bin_width_ms, cfg.forwarding_delay_ms) == (0.2, 3.0)

    def test_switches_only_turn_settings_on(self, tmp_path):
        config = tmp_path / "pipeline.cfg"
        config.write_text("[filter]\naf = 6\n\n[detours]\ncumulative = yes\n", encoding="utf-8")
        parser = build_parser()
        cfg = resolve_config(parser.parse_args(["--config", str(config), "detours", "g"]))
        assert cfg.cumulative is True and cfg.address_family == 6
        argv = ["--config", str(config), "ingest", "f", "--af-any"]
        assert resolve_config(parser.parse_args(argv)).address_family is None


# setting name -> the command line around its flag's words
FLAG_COMMANDS = {
    **dict.fromkeys(
        ["status", "address_family", "min_start", "max_start", "regions", "key_by", "sidecar"],
        lambda flag: ["ingest", "f.jsonl", *flag],
    ),
    **dict.fromkeys(
        ["threshold_pct", "bucket_width_pct", "top", "cumulative"],
        lambda flag: ["detours", "g.csv", *flag],
    ),
    **dict.fromkeys(
        ["mode_bin_width_ms", "forwarding_delay_ms"],
        lambda flag: ["overlay", "--direct", "d.txt", *flag],
    ),
    **dict.fromkeys(
        ["geo_provider", "geo_static_file", "geo_base_url", "geo_cache"],
        lambda flag: ["geo-warm", "ips.txt", *flag],
    ),
    **dict.fromkeys(["output_dir", "format"], lambda flag: [*flag, "detours", "g.csv"]),
}

# (setting name, the flag's words, the same setting's config text)
FLAG_AND_KEY_CASES = [
    ("status", ["--status", "stopped"], "stopped"),
    ("status", ["--status", "Stopped"], "Stopped"),
    ("status", ["--status", " STOPPED "], "STOPPED"),
    ("status", ["--status", "ongoing"], "ongoing"),
    ("status", ["--status", "stoped"], "stoped"),
    ("status", ["--status", ""], ""),
    ("address_family", ["--af", "6"], "6"),
    ("address_family", ["--af", "any"], "any"),
    ("address_family", ["--af", "ANY"], "ANY"),
    ("address_family", ["--af-any"], "any"),
    ("address_family", ["--af", "four"], "four"),
    ("min_start", ["--min-start", "2023-05-19"], "2023-05-19"),
    ("min_start", ["--min-start", "1684454400"], "1684454400"),
    ("min_start", ["--min-start", "yesterday"], "yesterday"),
    ("max_start", ["--max-start", "2023-05-19T12:00:00+02:00"], "2023-05-19T12:00:00+02:00"),
    ("regions", ["--regions", "us, ca"], "us, ca"),
    ("regions", ["--regions", ","], ","),
    ("key_by", ["--key-by", "probe"], "probe"),
    ("key_by", ["--key-by", "Probe"], "Probe"),
    ("sidecar", ["--sidecar", "meta.csv"], "meta.csv"),
    ("threshold_pct", ["--threshold-pct", "60"], "60"),
    ("threshold_pct", ["--threshold-pct", "nan"], "nan"),
    ("threshold_pct", ["--threshold-pct", "abc"], "abc"),
    ("threshold_pct", ["--threshold-pct", "-1"], "-1"),
    ("bucket_width_pct", ["--bucket-width", "2.5"], "2.5"),
    ("bucket_width_pct", ["--bucket-width", "inf"], "inf"),
    ("bucket_width_pct", ["--bucket-width", "0"], "0"),
    ("top", ["--top", "3"], "3"),
    ("top", ["--top", "-1"], "-1"),
    ("top", ["--top", "abc"], "abc"),
    ("cumulative", ["--cumulative"], "yes"),
    ("mode_bin_width_ms", ["--mode-bin-width", "0.2"], "0.2"),
    ("mode_bin_width_ms", ["--mode-bin-width", "nan"], "nan"),
    ("mode_bin_width_ms", ["--mode-bin-width", "-0.5"], "-0.5"),
    ("forwarding_delay_ms", ["--forwarding-delay", "3"], "3"),
    ("forwarding_delay_ms", ["--forwarding-delay", "x"], "x"),
    ("forwarding_delay_ms", ["--forwarding-delay", "-200"], "-200"),
    ("geo_provider", ["--geo-provider", "static"], "static"),
    ("geo_provider", ["--geo-provider", "STATIC"], "STATIC"),
    ("geo_provider", ["--geo-provider", "htp"], "htp"),
    ("geo_static_file", ["--geo-static-file", "geo.csv"], "geo.csv"),
    ("geo_base_url", ["--geo-base-url", "https://geo.example/json"], "https://geo.example/json"),
    ("geo_base_url", ["--geo-base-url", "https://geo.example/a%20b"], "https://geo.example/a%20b"),
    ("geo_cache", ["--geo-cache", "cache.csv"], "cache.csv"),
    ("output_dir", ["--output-dir", "out"], "out"),
    ("format", ["--format", "json"], "json"),
    ("format", ["--format", "JSON"], "JSON"),
    ("format", ["--format", "xml"], "xml"),
]


FIELDS = [name for _, _, name, *_ in CONFIG_KEYS]
KEYS = [key for _, key, *_ in CONFIG_KEYS]
# section headers, key lines with any value, and any other line
CONFIG_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(sorted({f"[{section}]" for section, *_ in CONFIG_KEYS})),
        st.builds("{} = {}".format, st.sampled_from(KEYS), st.text()),
        st.text(),
    )
).map("\n".join)


def _settle(argv, capsys):
    """The settings ``main`` runs ``argv`` with, or its exit code and stderr
    when they are refused."""
    try:
        return resolve_config(build_parser().parse_args(argv))
    except ValueError:
        return main(argv), capsys.readouterr().err


class TestOneReadingPerSetting:
    def test_every_flag_has_cases(self):
        assert {name for name, _, _ in FLAG_AND_KEY_CASES} == set(FLAG_COMMANDS)
        assert set(FIELDS) - set(FLAG_COMMANDS) == {"geo_min_interval_s"}

    @pytest.mark.parametrize(
        "name,flag,text", FLAG_AND_KEY_CASES, ids=[" ".join(c[1]) for c in FLAG_AND_KEY_CASES]
    )
    def test_flag_reads_like_its_config_key(self, tmp_path, capsys, name, flag, text):
        section, key = next((sec, k) for sec, k, field, *_ in CONFIG_KEYS if field == name)
        config = tmp_path / "pipeline.cfg"
        config.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        command = FLAG_COMMANDS[name]
        from_flag = _settle(command(flag), capsys)
        assert from_flag == _settle(["--config", str(config), *command([])], capsys)
        if isinstance(from_flag, tuple):
            code, err = from_flag
            assert code == 2 and err.startswith(f"bad configuration: [{section}] {key}")

    @pytest.mark.parametrize(
        "command,choices",
        [
            ([], "--format {csv,json}"),
            (["ingest"], "--key-by {ip,probe}"),
            (["geo-warm"], "--geo-provider {none,static,http}"),
        ],
    )
    def test_help_lists_allowed_values(self, capsys, command, choices):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--help"])
        assert choices in capsys.readouterr().out

    def test_readme_command_lines_resolve(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```\n(.*?)```", readme, re.S)
        lines = [
            line
            for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("detourkit ")
        ]
        assert len(lines) >= 5
        parser = build_parser()
        for line in lines:
            resolve_config(parser.parse_args(shlex.split(line, comments=True)[1:]))

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(text=CONFIG_TEXTS, flags=st.dictionaries(st.sampled_from(FIELDS), st.text()))
    def test_config_errors_are_typed(self, tmp_path, text, flags):
        path = tmp_path / "pipeline.cfg"
        path.write_text(text, encoding="utf-8")
        for resolve in (
            lambda: load_config_file(path),
            lambda: resolve_config(argparse.Namespace(config=path, **flags)),
        ):
            try:
                resolve()
            except (ValueError, OSError, configparser.Error):
                pass


# generated command lines: run in a directory holding one small valid input
# of each kind, with paths relative to it; a path that is written to is only
# ever one of these names, so no run writes outside that directory
ARGV_INPUTS = {
    "feed.jsonl": f"{feed_line(1)}\n{feed_line(2)}\n1,8.0.0.1,8.0.0.2,4,stopped,1680000000,1,2,3\n",
    "meta.csv": "measurement_id,status,start_time\nm1,stopped,1680000000\n",
    "ab.txt": "12.5\n13\n",
    "bc.txt": "# ms\n3\n4.5\n",
    "ips.txt": "8.8.8.8\n8.8.000.8\n10.0.0.1\nbad\n",
    "static.csv": "ip,city,region,country\n8.8.8.8,Mountain View,CA,US\n",
    "cache.csv": "ip,city,region,country,timestamp\n8.8.4.4,Sydney,NSW,AU,1\n",
    "pipeline.cfg": "[detours]\ntop = 2\n",
}
WRITTEN_PATHS = st.sampled_from(["out", "out/sub", "new/dir", "", ".", "graph.csv", "a\x00b"])
# an input name, or any short name but a path (no "/" and no ".", so it
# never names a directory outside the run's own)
READ_PATHS = st.one_of(
    st.sampled_from(
        [*ARGV_INPUTS, "graph.csv", "traces", "missing.txt", "nodir/x.csv", "", "out"]
    ),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\\."), max_size=4),
)
# any short text on one line
SHORT_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Zl", "Zp", "Cc")), max_size=6)


def _values(*words):
    return st.one_of(st.sampled_from(words), SHORT_TEXT)


NUMBERS = _values("1", "0", "-1", "2.5", " 3 ", "nan", "inf", "1e308", "1e-320", "abc", "")
TIMES = _values("1680000000", "2023-03-28", "2023-03-28T12:00:00+02:00", "-1", "0001-01-01", "")
# each setting's text, from a flag or a config key
SETTING_VALUES = {
    "status": _values("stopped", "Stopped", "ongoing", "other"),
    "address_family": _values("4", "6", "any"),
    "min_start": TIMES,
    "max_start": TIMES,
    "regions": _values("US", "us, ca", ","),
    "key_by": _values("ip", "probe", "Probe"),
    "sidecar": READ_PATHS | st.just("meta.csv"),
    "threshold_pct": NUMBERS,
    "bucket_width_pct": NUMBERS,
    "top": NUMBERS,
    "cumulative": _values("yes", "no", "1"),
    "mode_bin_width_ms": NUMBERS,
    "forwarding_delay_ms": NUMBERS,
    # never "http": that provider would reach the network
    "geo_provider": _values("none", "static", "STATIC", "", "htp").filter(
        lambda text: text.strip().lower() != "http"
    ),
    "geo_static_file": READ_PATHS | st.just("static.csv"),
    "geo_base_url": _values("https://geo.example/json"),
    "geo_min_interval_s": NUMBERS,
    "geo_cache": WRITTEN_PATHS | st.sampled_from(["cache.csv", "new/c.csv", "missing.csv"]),
    "output_dir": WRITTEN_PATHS,
    "format": _values("csv", "json", "JSON", "xml"),
}
LEGS = st.one_of(
    st.builds("{}={}".format, st.sampled_from(["A", "B", "A/B", "A_B", "direct", ""]), READ_PATHS),
    SHORT_TEXT,
)
# per subcommand: its positional words, and each option's value (None for a switch)
ARGV_GRAMMAR = {
    "ingest": (
        st.lists(READ_PATHS | st.just("feed.jsonl"), min_size=1, max_size=2),
        {
            "--key-by": SETTING_VALUES["key_by"],
            "--status": SETTING_VALUES["status"],
            "--af": SETTING_VALUES["address_family"],
            "--af-any": None,
            "--min-start": TIMES,
            "--max-start": TIMES,
            "--regions": SETTING_VALUES["regions"],
            "--sidecar": SETTING_VALUES["sidecar"],
            "--geo-cache": SETTING_VALUES["geo_cache"],
            "--snapshot-name": st.sampled_from(["g.csv", "sub/g.csv", "", ".", "a\x00b"]),
        },
    ),
    "detours": (
        st.lists(READ_PATHS | st.just("graph.csv"), min_size=1, max_size=1),
        {
            "--threshold-pct": NUMBERS,
            "--bucket-width": NUMBERS,
            "--top": NUMBERS,
            "--cumulative": None,
            "--geo-cache": SETTING_VALUES["geo_cache"],
        },
    ),
    "traceroutes": (
        st.lists(READ_PATHS | st.just("traces"), min_size=1, max_size=1),
        {
            "--city-tokens": _values("lax", ",", "la-,sd"),
            "--geo-city": _values("Los Angeles", "Mountain View"),
            "--geo-cache": SETTING_VALUES["geo_cache"],
        },
    ),
    "overlay": (
        st.just([]),
        {
            "--leg": LEGS,
            "--direct": READ_PATHS | st.just("ab.txt"),
            "--mode-bin-width": NUMBERS,
            "--forwarding-delay": NUMBERS,
        },
    ),
    "geo-warm": (
        st.lists(READ_PATHS | st.just("ips.txt"), min_size=1, max_size=1),
        {
            "--geo-cache": SETTING_VALUES["geo_cache"],
            "--geo-provider": SETTING_VALUES["geo_provider"],
            "--geo-static-file": SETTING_VALUES["geo_static_file"],
            "--geo-base-url": SETTING_VALUES["geo_base_url"],
        },
    ),
}
GLOBAL_OPTIONS = {
    "--config": READ_PATHS | st.just("generated.cfg"),
    "--output-dir": WRITTEN_PATHS,
    "--format": SETTING_VALUES["format"],
}


@st.composite
def _options(draw, options):
    """Options in any order, each given any number of times, with a value or
    an empty value; now and then the last one is missing its value."""
    flags = draw(st.lists(st.sampled_from(sorted(options)), max_size=5))
    groups = [[flag] if options[flag] is None else [flag, draw(options[flag])] for flag in flags]
    if groups and draw(st.integers(0, 14)) == 0:
        groups.append([flags[-1]])
    return groups


@st.composite
def command_lines(draw):
    """``(argv, config file text)`` from :data:`ARGV_GRAMMAR`."""
    command = draw(st.sampled_from(sorted(ARGV_GRAMMAR)))
    positionals, options = ARGV_GRAMMAR[command]
    groups = [[word] for word in draw(positionals)] + draw(_options(options))
    if draw(st.integers(0, 19)) == 0:
        groups.append(["--help"])
    argv = [word for group in draw(_options(GLOBAL_OPTIONS)) for word in group] + [command]
    argv += [word for group in draw(st.permutations(groups)) for word in group]
    lines = []
    for section, key, name, *_ in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=4)):
        lines += [f"[{section}]", f"{key} = {draw(SETTING_VALUES[name])}"]
    return argv, "\n".join(lines)


def _run_main(argv):
    """``main(argv)``'s exit code, argparse's exit counted, and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(line=command_lines())
def test_generated_command_lines_exit_cleanly(tmp_path, monkeypatch, line):
    argv, config = line
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, text in ARGV_INPUTS.items():
        (work / name).write_text(text, encoding="utf-8")
    (work / "generated.cfg").write_text(config, encoding="utf-8")
    save_graph(make_graph(FOUR_NODE_EDGES), work / "graph.csv")
    (work / "traces").mkdir()
    shutil.copy(FIXTURES / "traceroutes" / "01_ucsd_cse_wifi.txt", work / "traces")
    monkeypatch.chdir(work)
    code, err = _run_main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err


def test_cli_import_loads_no_http_stack():
    # nor what only ingest's workers and aggregation need, imported where they run
    src = Path(detourkit.__file__).parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import detourkit.cli; "
        "print(sorted({'requests', 'urllib.request', 'array', 'pickle', 'signal'} "
        "& set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
