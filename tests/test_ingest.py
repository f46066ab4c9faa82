"""Feed parsing, filtering and per-sample RTT reduction."""

from __future__ import annotations

import json
import statistics
import tempfile
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from detourkit.errors import NoDataError, ParseError
from detourkit.ingest import (
    FeedStats,
    FilterSpec,
    PingRecord,
    filter_records,
    load_status_sidecar,
    parse_fields,
    parse_result_line,
    read_result_file,
    representative_rtt,
    serialize_record,
)


def record(**overrides) -> PingRecord:
    base = dict(
        measurement_id="m1",
        source_id="10.0.0.1",
        destination_id="10.0.0.2",
        address_family=4,
        status="stopped",
        start_time=1_672_531_200,
        rtt_runs=(1.0,),
        region=None,
    )
    base.update(overrides)
    return PingRecord(**base)


class TestParseJson:
    def test_three_runs(self):
        line = json.dumps(
            {
                "msm_id": 42,
                "prb_id": 101,
                "from": "10.0.0.1",
                "dst_addr": "10.0.0.2",
                "af": 4,
                "timestamp": 1680000000,
                "result": [{"rtt": 0.3}, {"rtt": 0.4}, {"rtt": 0.35}],
            }
        )
        rec = parse_result_line(line)
        assert rec.rtt_runs == (0.3, 0.4, 0.35)
        assert rec.measurement_id == "42"
        assert rec.source_id == "10.0.0.1"
        assert rec.destination_id == "10.0.0.2"
        assert rec.address_family == 4
        assert rec.start_time == 1680000000

    def test_lost_run_is_absent(self):
        line = json.dumps(
            {
                "msm_id": 1,
                "from": "a",
                "dst_addr": "b",
                "af": 4,
                "timestamp": 0,
                "result": [{"rtt": 5.0}, {"x": "*"}, {"rtt": 6.0}],
            }
        )
        assert parse_result_line(line).rtt_runs == (5.0, 6.0)

    def test_boolean_rtt_is_lost_run(self):
        # JSON true is not a 1 ms run; an integer rtt still is one
        line = json.dumps(
            {
                "msm_id": 1,
                "from": "8.0.0.1",
                "dst_addr": "8.0.0.2",
                "timestamp": 0,
                "result": [{"rtt": True}, {"rtt": 1}, {"rtt": False}],
            }
        )
        assert parse_result_line(line).rtt_runs == (1.0,)
        only_bool = line.replace('{"rtt": 1}, ', "")
        assert parse_result_line(only_bool).rtt_runs == ()

    def test_truncated_line(self):
        line = '{"msm_id": 1, "from": "a", "result": [{"rtt": 5.0}'
        with pytest.raises(ParseError) as exc:
            parse_result_line(line)
        assert exc.value.position > 0
        assert "unterminated" in exc.value.reason.lower() or "record" in exc.value.reason.lower()

    @pytest.mark.parametrize(
        "line", ['{"msm_id": 1} x', '{"msm_id": 1}{}', '{"msm_id": 1}\t ]', '{"msm_id": 1,}']
    )
    def test_error_position_and_reason_as_json_loads(self, line):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        with pytest.raises(ParseError) as exc:
            parse_result_line(line)
        assert (exc.value.position, exc.value.reason) == (expected.value.pos, expected.value.msg)

    def test_unrecognized_fields_ignored(self):
        line = json.dumps(
            {
                "msm_id": 1,
                "from": "a",
                "dst_addr": "b",
                "af": 4,
                "timestamp": 0,
                "result": [{"rtt": 1.0}],
                "fw": 5020,
                "proto": "ICMP",
                "lts": 20,
            }
        )
        assert parse_result_line(line).rtt_runs == (1.0,)

    def test_key_by_probe(self):
        line = json.dumps(
            {
                "msm_id": 1,
                "prb_id": 10194,
                "from": "10.0.0.1",
                "dst_addr": "b",
                "af": 4,
                "timestamp": 0,
                "result": [],
            }
        )
        assert parse_result_line(line, key_by="probe").source_id == "10194"
        assert parse_result_line(line, key_by="ip").source_id == "10.0.0.1"

    def test_key_by_probe_keys_a_line_without_probe_id_by_address(self, tmp_path):
        with_probe = {"msm_id": 1, "prb_id": 100, "from": "8.8.0.1", "dst_addr": "b"}
        without_probe = {"msm_id": 1, "from": "8.8.0.1", "dst_addr": "b"}
        feed = tmp_path / "feed.txt"
        feed.write_text(
            "\n".join(
                [
                    json.dumps({**with_probe, "timestamp": 0, "result": [{"rtt": 1.0}]}),
                    json.dumps({**without_probe, "timestamp": 0, "result": [{"rtt": 1.0}]}),
                    "1,8.8.0.1,b,4,stopped,0,1.0,,",
                ]
            ),
            encoding="utf-8",
        )
        sources = [r.source_id for r in read_result_file(feed, key_by="probe")]
        # one host, as its probe and twice as its address
        assert sources == ["100", "8.8.0.1", "8.8.0.1"]

    def test_status_normalization(self):
        for raw, expected in (("Stopped", "stopped"), ("Ongoing", "ongoing"), ("Failed", "other")):
            line = json.dumps(
                {
                    "msm_id": 1,
                    "from": "a",
                    "dst_addr": "b",
                    "af": 4,
                    "timestamp": 0,
                    "result": [],
                    "status": raw,
                }
            )
            assert parse_result_line(line).status == expected

    def test_missing_required_field(self):
        with pytest.raises(ParseError):
            parse_result_line('{"from": "a", "dst_addr": "b", "timestamp": 0}')


class TestParseCsv:
    def test_full_row(self):
        rec = parse_result_line("m7,1.2.3.4,5.6.7.8,4,stopped,1680000000,0.3,0.4,0.35")
        assert rec.measurement_id == "m7"
        assert rec.rtt_runs == (0.3, 0.4, 0.35)
        assert rec.status == "stopped"

    def test_empty_cell_is_lost_run(self):
        rec = parse_result_line("m7,a,b,4,stopped,0,5.0,,6.0")
        assert rec.rtt_runs == (5.0, 6.0)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_result_line("m7,a,b,4,stopped,0,1.0")


rtt_values = st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(
    msm=st.text(st.characters(categories=("Lu", "Ll", "Nd")), min_size=1, max_size=8),
    source=st.text(st.characters(categories=("Ll", "Nd")), min_size=1, max_size=12),
    dest=st.text(st.characters(categories=("Ll", "Nd")), min_size=1, max_size=12),
    af=st.sampled_from([4, 6]),
    status=st.sampled_from(["stopped", "ongoing", "other"]),
    start=st.integers(min_value=0, max_value=2**31),
    runs=st.lists(rtt_values, max_size=3),
    region=st.one_of(st.none(), st.sampled_from(["US", "FR", "AU"])),
)
def test_serialize_parse_round_trip(msm, source, dest, af, status, start, runs, region):
    original = PingRecord(
        measurement_id=msm,
        source_id=source,
        destination_id=dest,
        address_family=af,
        status=status,
        start_time=start,
        rtt_runs=tuple(runs),
        region=region,
    )
    assert parse_result_line(serialize_record(original)) == original


VALID_JSON = {
    "msm_id": 1,
    "prb_id": 100,
    "from": "8.8.0.1",
    "dst_addr": "8.8.0.2",
    "af": 4,
    "timestamp": 1680000000,
    "result": [{"rtt": 1.0}, {"rtt": 2.0}, {"rtt": 3.0}],
    "status": "stopped",
    "region": "US",
}
VALID_CSV = ["m1", "8.8.0.1", "8.8.0.2", "4", "stopped", "1680000000", "1.0", "2.0", "3.0"]

odd_numbers = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 1e308, -0.0, 10**400, -(10**400), 2**63]
    + [True, False]
)
json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6), odd_numbers
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
odd_cells = st.one_of(
    st.sampled_from(["1e999", "-1e999", "nan", "inf", "9" * 400, "1_0", "0x10", "", " ", "-1"]),
    st.text(max_size=8),
)


def parses_or_raises_parse_error(line: str, key_by: str = "ip") -> None:
    try:
        fields = parse_fields(line, key_by)
    except ParseError:
        with pytest.raises(ParseError):
            parse_result_line(line, key_by)
        return
    assert parse_result_line(line, key_by) == PingRecord(*fields)


class TestParserFuzz:
    """The feed parsers raise only their documented errors."""

    @given(
        text=st.one_of(st.text(), st.text().map(lambda t: "{" + t)),
        key_by=st.sampled_from(["ip", "probe"]),
    )
    def test_arbitrary_text(self, text, key_by):
        parses_or_raises_parse_error(text, key_by)

    @settings(max_examples=300)
    @given(
        field=st.sampled_from(sorted(VALID_JSON) + ["rtt", "result entry"]),
        value=json_values,
        key_by=st.sampled_from(["ip", "probe"]),
    )
    def test_mutated_json_line(self, field, value, key_by):
        obj = dict(VALID_JSON)
        if field == "rtt":
            obj["result"] = [{"rtt": value}, {"rtt": 1.0}]
        elif field == "result entry":
            obj["result"] = [value, {"rtt": 1.0}]
        else:
            obj[field] = value
        parses_or_raises_parse_error(json.dumps(obj), key_by)

    @given(index=st.integers(0, len(VALID_CSV) - 1), cell=odd_cells)
    def test_mutated_csv_line(self, index, cell):
        cells = list(VALID_CSV)
        cells[index] = cell
        parses_or_raises_parse_error(",".join(cells))

    @pytest.mark.parametrize(
        "line",
        [
            '{"msm_id": 1, "timestamp": ' + "9" * 5000 + "}",
            '{"msm_id": 1, "result": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=["integer-over-the-digit-limit", "nesting-over-the-recursion-limit"],
    )
    def test_decoder_limits_are_parse_errors(self, line):
        with pytest.raises(ParseError):
            parse_result_line(line)

    @given(
        data=st.one_of(st.binary(), st.text().map(lambda t: t.encode("utf-8", "surrogatepass")))
    )
    def test_arbitrary_sidecar(self, data):
        self._load_sidecar_or_value_error(data)

    @given(cells=st.lists(odd_cells, min_size=1, max_size=4))
    def test_mutated_sidecar_row(self, cells):
        text = "measurement_id,status,start_time\n" + ",".join(cells) + "\n"
        self._load_sidecar_or_value_error(text.encode("utf-8", "surrogatepass"))

    @staticmethod
    def _load_sidecar_or_value_error(data: bytes) -> None:
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "meta.csv"
            path.write_bytes(data)
            try:
                table = load_status_sidecar(path)
            except ValueError:
                return
        assert all(isinstance(start, (int, type(None))) for _, start in table.values())


class TestRepresentativeRtt:
    def test_median_of_three(self):
        assert representative_rtt(record(rtt_runs=(0.4, 0.3, 0.35))) == 0.35

    def test_single_run_passthrough(self):
        assert representative_rtt(record(rtt_runs=(5.0,))) == 5.0

    def test_two_runs_mean(self):
        assert representative_rtt(record(rtt_runs=(4.0, 6.0))) == 5.0

    def test_no_runs(self):
        with pytest.raises(NoDataError):
            representative_rtt(record(rtt_runs=()))

    def test_exhaustive_grid_matches_second_smallest(self):
        grid = (0.1, 1.0, 10.0, 100.0)
        for runs in product(grid, repeat=3):
            expected = sorted(runs)[1]
            assert representative_rtt(record(rtt_runs=runs)) == expected

    @given(runs=st.lists(rtt_values, min_size=1, max_size=3))
    def test_permutation_invariant_and_matches_median(self, runs):
        values = {
            representative_rtt(record(rtt_runs=tuple(p))) for p in permutations(runs)
        }
        assert len(values) == 1
        assert values.pop() == statistics.median(runs)


class TestFilter:
    def test_status_drop(self):
        drops = Counter()
        kept = list(
            filter_records(
                [record(status="ongoing"), record(status="stopped")],
                FilterSpec(required_status="stopped"),
                drops=drops,
            )
        )
        assert len(kept) == 1 and kept[0].status == "stopped"
        assert drops == Counter({"status": 1})

    def test_af_drop(self):
        drops = Counter()
        kept = list(
            filter_records([record(address_family=6), record()], FilterSpec(), drops=drops)
        )
        assert len(kept) == 1
        assert drops == Counter({"address_family": 1})

    def test_af_default_only_filter(self):
        records = [record(address_family=4), record(address_family=6), record(address_family=4)]
        kept = list(filter_records(records, FilterSpec()))
        assert kept == [records[0], records[2]]

    def test_half_open_time_window(self):
        spec = FilterSpec(min_start_time=100, max_start_time=200)
        kept = list(
            filter_records(
                [record(start_time=99), record(start_time=100), record(start_time=199), record(start_time=200)],
                spec,
            )
        )
        assert [r.start_time for r in kept] == [100, 199]

    def test_empty_spec_on_empty_stream(self):
        assert list(filter_records([], FilterSpec())) == []

    def test_region_from_record_field(self):
        drops = Counter()
        spec = FilterSpec(region_allowlist=frozenset({"US"}))
        kept = list(
            filter_records(
                [record(region="US"), record(region="FR"), record(region=None)],
                spec,
                drops=drops,
            )
        )
        assert len(kept) == 1 and kept[0].region == "US"
        assert drops == Counter({"region": 1, "region_unresolved": 1})

    def test_region_resolver_requires_both_endpoints(self):
        spec = FilterSpec(region_allowlist=frozenset({"US"}))
        regions = {"10.0.0.1": "US", "10.0.0.2": "FR", "10.0.0.3": "US"}
        drops = Counter()
        records = [
            record(source_id="10.0.0.1", destination_id="10.0.0.3"),
            record(source_id="10.0.0.1", destination_id="10.0.0.2"),
            record(source_id="10.0.0.1", destination_id="10.9.9.9"),
        ]
        kept = list(filter_records(records, spec, drops=drops, region_of=regions.get))
        assert kept == [records[0]]
        assert drops == Counter({"region": 1, "region_unresolved": 1})

    def test_order_preserved(self):
        records = [record(measurement_id=str(i)) for i in range(20)]
        assert list(filter_records(records, FilterSpec())) == records


class TestReader:
    def test_skip_and_count_bad_lines(self, tmp_path):
        feed = tmp_path / "feed.csv"
        feed.write_text(
            "m1,a,b,4,stopped,0,1.0,2.0,3.0\n"
            "not,a,valid,row\n"
            "m2,a,b,4,stopped,0,4.0,,\n",
            encoding="utf-8",
        )
        stats = FeedStats()
        records = list(read_result_file(feed, stats=stats))
        assert len(records) == 2
        assert stats.lines == 3 and stats.parsed == 2 and stats.parse_errors == 1

    def test_sidecar_patches_status_and_time(self, tmp_path):
        sidecar_path = tmp_path / "meta.csv"
        sidecar_path.write_text(
            "measurement_id,status,start_time\nm1,stopped,555\nm2,ongoing,\n", encoding="utf-8"
        )
        sidecar = load_status_sidecar(sidecar_path)
        assert sidecar == {"m1": ("stopped", 555), "m2": ("ongoing", None)}

        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            serialize_record(record(measurement_id="m1", status="other", start_time=1)) + "\n"
            + serialize_record(record(measurement_id="m2", status="other", start_time=2)) + "\n"
            + serialize_record(record(measurement_id="m3", status="other", start_time=3)) + "\n",
            encoding="utf-8",
        )
        records = list(read_result_file(feed, sidecar=sidecar))
        assert [(r.status, r.start_time) for r in records] == [
            ("stopped", 555),
            ("ongoing", 2),
            ("other", 3),
        ]

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        feed = tmp_path / "feed.csv"
        feed.write_text("# header comment\n\nm1,a,b,4,stopped,0,1.0,,\n", encoding="utf-8")
        stats = FeedStats()
        assert len(list(read_result_file(feed, stats=stats))) == 1
        assert stats.lines == 1


class TestRecordInvariants:
    def test_rejects_nonpositive_run(self):
        with pytest.raises(ValueError):
            record(rtt_runs=(1.0, -2.0))

    def test_rejects_too_many_runs(self):
        with pytest.raises(ValueError):
            record(rtt_runs=(1.0, 2.0, 3.0, 4.0))

    def test_self_pair_allowed_at_parse_time(self):
        rec = parse_result_line("m1,same,same,4,stopped,0,1.0,,")
        assert rec.source_id == rec.destination_id == "same"
