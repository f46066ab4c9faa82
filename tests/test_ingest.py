"""Feed parsing, filtering and per-sample RTT reduction.

Parsing is checked through the field readers of ``src/`` (``parse_fields``
in ``conftest.py`` picks the reader of a line as ``read_result_file`` does),
filtering through ``read_result_file`` itself, and the representative RTT
through ``group_samples``, which takes it inline."""

from __future__ import annotations

import json
import statistics
import tempfile
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    NoDataError,
    PingRecord,
    filter_records,
    parse_fields,
    parse_result_line,
    read_records,
    representative_rtt,
    sample_of,
    serialize_record,
)
from detourkit.errors import ParseError
from detourkit.graph import group_samples
from detourkit.ingest import FeedStats, FilterSpec, load_status_sidecar, read_result_file


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
        sources = [source for _, source, _, _ in read_result_file(feed, key_by="probe")]
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
        return
    # read_result_file yields the fields unchecked: they must pass the record's checks
    assert PingRecord(*fields) == fields


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


def grouped_rtt(runs) -> float | None:
    """The representative RTT that ``group_samples`` takes of one sample
    with ``runs``, or None where it skips the sample for having no run."""
    stats = FeedStats()
    groups, endpoints, measurements = group_samples(
        [("m1", "10.0.0.1", "10.0.0.2", tuple(runs))], stats
    )
    assert endpoints == ["10.0.0.1", "10.0.0.2"]
    if not groups:
        assert stats.skipped == Counter({"no_data": 1})
        assert measurements == []
        return None
    assert measurements == ["m1"]
    # source id 0, destination id 1, measurement id 0
    ((key, rtts),) = groups.items()
    assert key == (0 << 32 | 1) << 32 | 0
    return rtts[0]


class TestRepresentativeRtt:
    def test_median_of_three(self):
        assert grouped_rtt((0.4, 0.3, 0.35)) == 0.35

    def test_single_run_passthrough(self):
        assert grouped_rtt((5.0,)) == 5.0

    def test_two_runs_mean(self):
        assert grouped_rtt((4.0, 6.0)) == 5.0

    def test_no_runs(self):
        assert grouped_rtt(()) is None
        with pytest.raises(NoDataError):
            representative_rtt(record(rtt_runs=()))

    def test_exhaustive_grid_matches_second_smallest(self):
        grid = (0.1, 1.0, 10.0, 100.0)
        for runs in product(grid, repeat=3):
            expected = sorted(runs)[1]
            assert grouped_rtt(runs) == expected

    @given(runs=st.lists(rtt_values, min_size=1, max_size=3))
    def test_permutation_invariant_and_matches_median(self, runs):
        values = {grouped_rtt(p) for p in permutations(runs)}
        assert values == {statistics.median(runs), representative_rtt(record(rtt_runs=tuple(runs)))}


def read_kept(path, records, spec, region_of=None) -> tuple[list, Counter]:
    """The samples ``read_result_file`` keeps of a feed of ``records`` under
    ``spec``, and its drops."""
    path.write_text("".join(serialize_record(r) + "\n" for r in records), encoding="utf-8")
    stats = FeedStats()
    samples = list(read_result_file(path, stats=stats, spec=spec, region_of=region_of))
    return samples, stats.drops


class TestFilter:
    def test_status_drop(self, tmp_path):
        records = [record(measurement_id="m0", status="ongoing"), record(status="stopped")]
        spec = FilterSpec(required_status="stopped")
        samples, drops = read_kept(tmp_path / "feed.jsonl", records, spec)
        assert samples == [sample_of(records[1])]
        assert drops == Counter({"status": 1})

    def test_af_drop(self, tmp_path):
        records = [record(measurement_id="m6", address_family=6), record()]
        samples, drops = read_kept(tmp_path / "feed.jsonl", records, FilterSpec())
        assert samples == [sample_of(records[1])]
        assert drops == Counter({"address_family": 1})

    def test_af_default_only_filter(self, tmp_path):
        families = (4, 6, 4)
        records = [record(measurement_id=str(i), address_family=af) for i, af in enumerate(families)]
        samples, _ = read_kept(tmp_path / "feed.jsonl", records, FilterSpec())
        assert samples == [sample_of(records[0]), sample_of(records[2])]
        # the spec read_result_file takes when it is given none
        assert list(read_result_file(tmp_path / "feed.jsonl")) == samples

    def test_half_open_time_window(self, tmp_path):
        spec = FilterSpec(min_start_time=100, max_start_time=200)
        records = [record(measurement_id=str(t), start_time=t) for t in (99, 100, 199, 200)]
        samples, drops = read_kept(tmp_path / "feed.jsonl", records, spec)
        assert [msm for msm, _, _, _ in samples] == ["100", "199"]
        assert drops == Counter({"start_time": 2})

    def test_empty_spec_on_empty_stream(self, tmp_path):
        assert read_kept(tmp_path / "feed.jsonl", [], FilterSpec()) == ([], Counter())

    def test_region_from_record_field(self, tmp_path):
        spec = FilterSpec(region_allowlist=frozenset({"US"}))
        regions = ("US", "FR", None)
        records = [record(measurement_id=f"m{i}", region=r) for i, r in enumerate(regions)]
        samples, drops = read_kept(tmp_path / "feed.jsonl", records, spec)
        assert samples == [sample_of(records[0])]
        assert drops == Counter({"region": 1, "region_unresolved": 1})

    def test_region_resolver_requires_both_endpoints(self, tmp_path):
        spec = FilterSpec(region_allowlist=frozenset({"US"}))
        regions = {"10.0.0.1": "US", "10.0.0.2": "FR", "10.0.0.3": "US"}
        records = [
            record(source_id="10.0.0.1", destination_id="10.0.0.3"),
            record(source_id="10.0.0.1", destination_id="10.0.0.2"),
            record(source_id="10.0.0.1", destination_id="10.9.9.9"),
        ]
        samples, drops = read_kept(tmp_path / "feed.jsonl", records, spec, regions.get)
        assert samples == [sample_of(records[0])]
        assert drops == Counter({"region": 1, "region_unresolved": 1})

    def test_order_preserved(self, tmp_path):
        records = [record(measurement_id=str(i)) for i in range(20)]
        samples, _ = read_kept(tmp_path / "feed.jsonl", records, FilterSpec())
        assert samples == [sample_of(r) for r in records]


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
        # each line passes only the status and the one-second window of its
        # patched fields
        patched = {"m1": ("stopped", 555), "m2": ("ongoing", 2), "m3": ("other", 3)}
        for msm, (status, start) in patched.items():
            window = dict(min_start_time=start, max_start_time=start + 1)
            kept = read_result_file(feed, sidecar=sidecar, spec=FilterSpec(status, **window))
            assert [msm_id for msm_id, _, _, _ in kept] == [msm]

    def test_one_file_conserves_its_counts(self, tmp_path):
        def line(msm, destination="8.8.0.2", af=4, timestamp=150, status="stopped"):
            return json.dumps(
                {"msm_id": msm, "from": "8.8.0.1", "dst_addr": destination, "af": af,
                 "timestamp": timestamp, "result": [{"rtt": 1.5}], "status": status}
            ).encode() + b"\n"

        feed = tmp_path / "feed.jsonl"
        feed.write_bytes(
            b"\xef\xbb\xbf" + line(1)  # kept, past the byte-order mark
            + b"# comment\n"
            + b"\n"
            + line(2).replace(b"8.8.0.2", b"8.8.0.2\xff")  # a byte that is not UTF-8
            + b"m3,8.8.0.1,8.8.0.2,4,stopped,150,1.0,2.0,3.0\n"  # kept
            + b"m4,8.8.0.1,8.8.0.2,4,stopped\n"  # too few cells
            + b"m5,8.8.0.1,8.8.0.2,4,ongoing,150,1.0,,\n"
            + line(6, af=6)
            + line(7, timestamp=99)
            + line(8, timestamp=200)
            + line(9, destination="10.0.0.1")  # no region
            + line(10, destination="9.9.0.1")  # outside the allowlist
            + b"m11,8.8.0.1,8.8.0.2,4,stopped,150,,,\n"  # kept, with no run
        )
        spec = FilterSpec(
            required_status="stopped",
            min_start_time=100,
            max_start_time=200,
            region_allowlist=frozenset({"US"}),
        )
        regions = {"8.8.0.1": "US", "8.8.0.2": "US", "9.9.0.1": "FR"}.get
        stats = FeedStats()
        samples = list(read_result_file(feed, stats=stats, spec=spec, region_of=regions))
        assert samples == [
            ("1", "8.8.0.1", "8.8.0.2", (1.5,)),
            ("m3", "8.8.0.1", "8.8.0.2", (1.0, 2.0, 3.0)),
            ("m11", "8.8.0.1", "8.8.0.2", ()),
        ]
        assert (stats.lines, stats.parsed, stats.parse_errors) == (11, 9, 2)
        assert stats.drops == Counter(
            status=1, address_family=1, start_time=2, region_unresolved=1, region=1
        )
        assert stats.lines == stats.parsed + stats.parse_errors
        assert stats.parsed == sum(stats.drops.values()) + len(samples)
        # the per-record pipeline reads the file alike
        oracle = FeedStats()
        records = filter_records(read_records(feed, stats=oracle), spec, oracle.drops, regions)
        assert [sample_of(r) for r in records] == samples
        assert oracle == stats

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
