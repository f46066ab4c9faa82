"""Traceroute parsing, hop counting and city detection."""

from __future__ import annotations

import math

import pytest
from conftest import FIXTURES, hop_line_parts, parse_hop_line, token_match
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detourkit.cli import TRACE_REPORT_COLUMNS, write_table
from detourkit.errors import ParseError
from detourkit.geo import GeoRecord
from detourkit.traceroute import (
    _TRACEROUTE_TO,
    LOS_ANGELES,
    TracerouteTrace,
    _parse_hop_line,
    _token_match,
    detect_city,
    parse_traceroute,
    read_trace_file,
)

TABLE_SHAPE = [
    ("01_ucsd_cse_wifi.txt", "UCSD CSE wifi", 5, "no"),
    ("02_ucsd_geisel_wifi.txt", "UCSD Geisel wifi", 5, "no"),
    ("03_sd_downtown_wifi.txt", "SD Downtown wifi", 12, "yes"),
    ("04_sd_downtown_verizon.txt", "SD Downtown Verizon", 18, "yes"),
    ("05_sd_downtown_att.txt", "SD Downtown AT&T", 12, "yes"),
    ("06_lj_downtown_wifi.txt", "LJ Downtown wifi", 14, "yes"),
    ("07_lj_downtown_att.txt", "LJ Downtown AT&T", 16, "yes"),
    ("08_miramar_wifi.txt", "Miramar wifi", 14, "yes"),
    ("09_miramar_att.txt", "Miramar AT&T", 16, "yes"),
    ("10_san_wifi.txt", "SAN wifi", 15, "unknown"),
]

SIMPLE_TRACE = """\
# lab box | target.example.net
traceroute to target.example.net (203.0.113.9), 30 hops max, 60 byte packets
 1  gw.example.net (198.51.100.1)  1.000 ms  1.100 ms  0.900 ms
 2  203.0.113.9 (203.0.113.9)  2.000 ms  2.100 ms  1.900 ms
"""


class TestParse:
    def test_header_and_hops(self):
        trace = parse_traceroute(SIMPLE_TRACE)
        assert trace.source_label == "lab box"
        assert trace.destination == "target.example.net"
        assert len(trace.hops) == 2
        assert trace.hops[0] == (1, "198.51.100.1", "gw.example.net")

    def test_unresponsive_hop(self):
        trace = parse_traceroute(
            "# x | y\n 1  gw (10.0.0.1)  1.0 ms\n 2  * * *\n 3  y (10.0.0.9)  3.0 ms\n"
        )
        hop = trace.hops[1]
        assert hop == (2, None, None)

    def test_bare_ip_has_no_rdns(self):
        trace = parse_traceroute("# x | y\n 1  10.1.2.3  5.0 ms  5.1 ms\n")
        _, address, rdns_name = trace.hops[0]
        assert address == "10.1.2.3"
        assert rdns_name is None

    def test_self_named_ip_has_no_rdns(self):
        trace = parse_traceroute("# x | y\n 1  10.1.2.3 (10.1.2.3)  5.0 ms\n")
        assert trace.hops[0] == (1, "10.1.2.3", None)

    def test_multi_endpoint_line_keeps_first_and_all_rtts(self):
        trace = parse_traceroute(
            "# x | y\n 1  a.example (10.0.0.1)  1.0 ms  b.example (10.0.0.2)  2.0 ms\n"
        )
        # the first endpoint names the hop; each RTT is read past
        assert trace.hops == ((1, "10.0.0.1", "a.example"),)

    def test_repeat_rtt_for_same_endpoint(self):
        trace = parse_traceroute("# x | y\n 1  gw (10.0.0.1)  1.0 ms  1.2 ms  *\n")
        assert trace.hops == ((1, "10.0.0.1", "gw"),)

    def test_annotation_tokens_ignored(self):
        trace = parse_traceroute("# x | y\n 1  gw (10.0.0.1)  1.0 ms !H  1.2 ms\n")
        assert trace.hops == ((1, "10.0.0.1", "gw"),)

    # an RTT is any text float() reads, followed by "ms"; it is read past,
    # where the same text without "ms" is a dangling value
    @pytest.mark.parametrize(
        "token, rtt", [("1_0", 10.0), ("1e1", 10.0), (".5", 0.5), ("nan", math.nan)]
    )
    def test_float_text_before_ms_is_an_rtt(self, token, rtt):
        assert float(token) == rtt or math.isnan(rtt)
        trace = parse_traceroute(f"# x | y\n 1  gw (10.0.0.1)  {token} ms\n")
        assert trace.hops == ((1, "10.0.0.1", "gw"),)
        # and before the hop's endpoint
        trace = parse_traceroute(f"# x | y\n 1  {token} ms  gw (10.0.0.1)\n")
        assert trace.hops == ((1, "10.0.0.1", "gw"),)

    @pytest.mark.parametrize("token", ["12.5", "inf"])
    def test_float_text_without_ms_is_dangling(self, token):
        with pytest.raises(ParseError, match=f"dangling value '{token}'") as exc:
            parse_traceroute(f"# x | y\n 1  gw (10.0.0.1)  1.0 ms  {token}\n")
        assert exc.value.position == 2

    def test_garbage_input(self):
        with pytest.raises(ParseError) as exc:
            parse_traceroute("complete nonsense with no hops at all\n")
        assert exc.value.position == 1

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_traceroute("")

    def test_non_increasing_hop_index(self):
        with pytest.raises(ParseError):
            parse_traceroute("# x | y\n 2  gw (10.0.0.1)  1.0 ms\n 1  gw2 (10.0.0.2)  2.0 ms\n")

    def test_hop_index_past_the_int_digit_limit(self):
        with pytest.raises(ParseError) as exc:
            parse_traceroute("# x | y\n" + "1" * 4400 + "  gw (10.0.0.1)  1.0 ms\n")
        assert exc.value.position == 2


class TestHopCount:
    @pytest.mark.parametrize("filename,label,hops,verdict", TABLE_SHAPE)
    def test_fixture_corpus(self, fixtures_dir, filename, label, hops, verdict):
        trace = read_trace_file(fixtures_dir / "traceroutes" / filename)
        assert trace.source_label == label
        assert len(trace.hops) == hops
        assert detect_city(trace, *LOS_ANGELES) == verdict

    def test_single_hop_loopback(self):
        trace = parse_traceroute(
            "# local | localhost\ntraceroute to localhost (127.0.0.1), 30 hops max\n"
            " 1  localhost (127.0.0.1)  0.05 ms  0.04 ms  0.04 ms\n"
        )
        assert len(trace.hops) == 1

    def test_counts_unresponsive_trailing_hops(self):
        trace = parse_traceroute("# x | y\n 1  gw (10.0.0.1)  1.0 ms\n 2  * * *\n 3  * * *\n")
        assert len(trace.hops) == 3


class TestDetectCity:
    def test_token_evidence_with_hop_index(self, fixtures_dir):
        trace = read_trace_file(fixtures_dir / "traceroutes" / "03_sd_downtown_wifi.txt")
        assert detect_city(trace, *LOS_ANGELES) == "yes"
        # hop 7 is the first with evidence, a "lax" router name
        assert trace.hops[6][0] == 7 and "lax" in trace.hops[6][2]
        up_to = [TracerouteTrace("x", "y", trace.hops[:stop]) for stop in (6, 7)]
        lax_only = (frozenset({"lax"}), None)
        for city in (LOS_ANGELES, lax_only):
            assert [detect_city(cut, *city) == "yes" for cut in up_to] == [False, True]

    def test_no_match_on_embedded_token(self):
        trace = parse_traceroute("# x | y\n 1  relax.example.net (10.0.0.1)  1.0 ms\n")
        assert detect_city(trace, *LOS_ANGELES) == "no"

    def test_hyphen_prefix_token(self):
        trace = parse_traceroute("# x | y\n 1  la-cr1.carrier.net (10.0.0.1)  1.0 ms\n")
        assert detect_city(trace, *LOS_ANGELES) == "yes"
        assert detect_city(trace, frozenset({"la-"})) == "yes"

    def test_hyphen_separated_segment_token(self):
        trace = parse_traceroute("# x | y\n 1  ae-lax-3.carrier.net (10.0.0.1)  1.0 ms\n")
        assert detect_city(trace, *LOS_ANGELES) == "yes"

    def test_geo_city_fallback(self):
        trace = parse_traceroute("# x | y\n 1  core7.carrier.net (10.0.0.1)  1.0 ms\n")
        place = GeoRecord("10.0.0.1", "Los Angeles", "CA", "US", "cache")
        assert detect_city(trace, *LOS_ANGELES, {"10.0.0.1": place}.__getitem__) == "yes"
        assert detect_city(trace, *LOS_ANGELES) == "no"

    def test_unknown_when_half_unassessable(self):
        trace = parse_traceroute(
            "# x | y\n 1  gw.example.net (10.0.0.1)  1.0 ms\n 2  * * *\n 3  * * *\n 4  10.0.0.4  4.0 ms\n"
        )
        assert detect_city(trace, *LOS_ANGELES) == "unknown"

    def test_no_when_hops_resolvable(self):
        trace = parse_traceroute(
            "# x | y\n 1  gw.example.net (10.0.0.1)  1.0 ms\n 2  core.example.net (10.0.0.2)  2.0 ms\n"
        )
        assert detect_city(trace, *LOS_ANGELES) == "no"

    def test_yes_always_has_valid_evidence(self, fixtures_dir):
        # with no geo data, "yes" exactly when some hop's name has a token
        for filename, _, _, _ in TABLE_SHAPE:
            trace = read_trace_file(fixtures_dir / "traceroutes" / filename)
            matched = [hop for hop in trace.hops if reference_token(hop, LOS_ANGELES[0])]
            assert (detect_city(trace, *LOS_ANGELES) == "yes") == bool(matched)

    def test_city_spec_needs_criteria(self):
        trace = parse_traceroute("# x | y\n 1  gw.example.net (10.0.0.1)  1.0 ms\n")
        with pytest.raises(ValueError, match="need at least one token or a geo city"):
            detect_city(trace, frozenset())
        assert detect_city(trace, frozenset(), "Los Angeles") == "no"


def reference_token(hop, tokens):
    """First sorted token that starts a dot- or hyphen-separated part of
    the rDNS name of the ``(index, address, rdns_name)`` hop."""
    rdns_name = hop[2]
    if rdns_name is None:
        return None
    parts = set()
    for segment in rdns_name.lower().split("."):
        parts.update([segment, *segment.split("-")])
    return next((t for t in sorted(tokens) if any(p.startswith(t.lower()) for p in parts)), None)


def eager_detect_city(trace, tokens, geo_city, place) -> tuple[str, list[int]]:
    """Reference: place every hop with an address first, then decide. The
    verdict, and the positions in ``trace.hops`` of the hops with evidence."""
    places = {index: place(address) for index, address, _ in trace.hops if address is not None}
    evidence = []
    unassessable = 0
    for position, hop in enumerate(trace.hops):
        index, _, rdns_name = hop
        if reference_token(hop, tokens) is not None:
            evidence.append(position)
            continue
        record = places.get(index)
        city = record.city if record is not None else None
        if city is not None and geo_city is not None and city.lower() == geo_city.lower():
            evidence.append(position)
            continue
        if rdns_name is None and city is None:
            unassessable += 1
    if evidence:
        return "yes", evidence
    if trace.hops and unassessable / len(trace.hops) >= 0.5:
        return "unknown", evidence
    return "no", evidence


ADDRESSES = ["10.0.0.1", "198.51.100.7", "203.0.113.9", "(bogus)"]
NAMES = ["lax-core.carrier.net", "ae-lax-3.carrier.net", "relax.example", "la-cr1.x", "core7.net"]
CITIES = ["Los Angeles", "los angeles", "San Diego"]


@st.composite
def traces_and_tables(draw):
    hops = tuple(
        (
            index,
            draw(st.none() | st.sampled_from(ADDRESSES)),
            draw(st.none() | st.sampled_from(NAMES)),
        )
        for index in range(1, draw(st.integers(0, 8)) + 1)
    )
    tokens = draw(st.frozensets(st.sampled_from(["lax", "la-", "losangeles", "core"])))
    geo_city = draw(st.none() | st.sampled_from(CITIES))
    if not tokens and geo_city is None:
        geo_city = "Los Angeles"
    table = draw(st.dictionaries(st.sampled_from(ADDRESSES), st.none() | st.sampled_from(CITIES)))
    trace = TracerouteTrace(source_label="x", destination="y", hops=hops)
    return trace, tokens, geo_city, table


@settings(max_examples=300, deadline=None)
@given(traces_and_tables())
def test_lazy_locate_matches_eager_reference(case):
    trace, tokens, geo_city, table = case
    calls = []

    def place(address):
        # None where unknown, as GeoCache.place answers; a None city is a
        # cached country without a city
        calls.append(address)
        if address not in table:
            return None
        return GeoRecord(address, table[address], None, "US", "cache")

    verdict, evidence = eager_detect_city(trace, tokens, geo_city, place)
    calls.clear()
    assert detect_city(trace, tokens, geo_city, place) == verdict
    # asked, in hop order, only for the address of a hop that no token
    # matched, up to the first hop with evidence and for none after it
    asked = trace.hops[: evidence[0] + 1] if evidence else trace.hops
    assert calls == [
        address
        for hop in asked
        if (address := hop[1]) is not None and reference_token(hop, tokens) is None
    ]


class TestReport:
    def test_csv_shape(self, tmp_path):
        rows = [("UCSD CSE wifi", "ieng6.ucsd.edu", 5, "no"), ("SAN wifi", "ieng6.ucsd.edu", 15, "unknown")]
        out = tmp_path / "report.csv"
        # the report title-cases verdicts
        write_table(
            out, "csv", TRACE_REPORT_COLUMNS, [(*row[:3], row[3].capitalize()) for row in rows]
        )
        assert out.read_text(encoding="utf-8").splitlines() == [
            "source_label,destination,hop_count,city_verdict",
            "UCSD CSE wifi,ieng6.ucsd.edu,5,No",
            "SAN wifi,ieng6.ucsd.edu,15,Unknown",
        ]


CORPUS_LINES = [
    line
    for path in sorted((FIXTURES / "traceroutes").iterdir())
    for line in path.read_text(encoding="utf-8").splitlines()
]


@st.composite
def mutated_traces(draw):
    """Lines of the fixture corpus, some with a span replaced by other text."""
    lines = []
    for line in draw(st.lists(st.sampled_from(CORPUS_LINES), min_size=1, max_size=8)):
        if draw(st.booleans()):
            start = draw(st.integers(0, len(line)))
            end = draw(st.integers(start, min(start + 6, len(line))))
            filler = draw(st.text(max_size=6) | st.text("0123456789.()*!- ms", max_size=6))
            line = line[:start] + filler + line[end:]
        lines.append(line)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.text() | mutated_traces())
@example("# x | y\n" + "9" * 4400 + "  gw (10.0.0.1)  1.0 ms")
@example("# x | y\n 1  1.2.3.\u00b2  1.0 ms")
def test_parse_raises_only_parse_error(text):
    try:
        parse_traceroute(text)
    except ParseError:
        pass


# decimal digits of four scripts and digit-like characters that are not
# decimal (superscript two, Roman numeral twelve); whitespace that is not a
# line break for str.splitlines (the unit separator \x1f is, to str.split,
# whitespace) and a zero-width space that is none; the tokens of hop lines
DIGITS = "0129\u0663\u06f5\u0967\uff11\u00b2\u216b"
SPACES = " \t\x1f\xa0\u2003\u3000\u200b"
HOP_TOKENS = [
    "*", "!H", "!", "ms", "nan", "1_0", "12.5", "inf", ".5", "1e1", "-3", "(10.0.0.1)", "()",
    "(", "gw", "host.example", "la-cr1.x", "8.8.000.1", "10.1.2.3", "1.2.3.\u00b2", "#", "traceroute",
]
GENERATED_LINES = st.lists(
    st.text(DIGITS, min_size=1, max_size=3)
    | st.sampled_from(HOP_TOKENS)
    | st.text(SPACES, min_size=1, max_size=2),
    max_size=10,
).map("".join)


def one_line_oracle(line: str):
    """The hop of ``line`` as the second line of a trace, or the
    ``(position, reason)`` of its parse error, as the regular expression
    and the text-taking hop reader of ``conftest`` tell it."""
    stripped = line.strip()
    parts = hop_line_parts(stripped)
    if parts is None:
        if stripped and not stripped.startswith("#") and _TRACEROUTE_TO.match(stripped) is None:
            return 2, f"unrecognizable line {stripped!r}"
        return 1, "no hop lines found"
    try:
        index = int(parts[0])
    except ValueError:
        return 2, "hop index too long"
    if index <= 0:
        return 2, f"hop index {index} not increasing"
    try:
        return parse_hop_line(index, parts[1], 2)
    except ParseError as exc:
        return exc.position, exc.reason


@settings(max_examples=600, deadline=None)
@given(GENERATED_LINES | mutated_traces().map(lambda text: "".join(text.splitlines())))
@example("\u0663  gw (10.0.0.1)  1.0 ms")
@example("1\x1fgw\x1f(10.0.0.1)\x1f1.0\x1fms")
@example("\u00b2  gw (10.0.0.1)  1.0 ms")
@example("1  gw (10.0.0.1)  1.0 ms  12.5")
@example("1")
def test_hop_lines_match_the_regex_oracle(line):
    try:
        got = parse_traceroute("# s | d\n" + line).hops
    except ParseError as exc:
        got = exc.position, exc.reason
    else:
        assert len(got) == 1
        got = got[0]
    assert got == one_line_oracle(line)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(HOP_TOKENS) | st.text(DIGITS + ".()!*-", max_size=4)))
def test_hop_reader_matches_the_text_oracle(rest_tokens):
    rest = " ".join(rest_tokens)
    try:
        expected = parse_hop_line(7, rest, 3)
    except ParseError as exc:
        expected = exc.position, exc.reason
    try:
        got = _parse_hop_line(7, ["7", *rest.split()], 3)
    except ParseError as exc:
        got = exc.position, exc.reason
    assert got == expected


SEGMENTS = ["lax", "LAX7", "la", "la-cr1", "ae-lax-3", "relax", "core", "x", "", "\u0130stanbul", "l"]
CITY_TOKENS = ["lax", "LA-", "la-", "losangeles", "core", "x.l", "a-c", "-", ".", "\u0130", "i\u0307", ""]


@settings(max_examples=600, deadline=None)
@given(
    st.none() | st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=4).map(".".join),
    st.frozensets(st.sampled_from(CITY_TOKENS)),
)
def test_token_match_matches_the_segment_oracle(name, tokens):
    pairs = [(token, token.lower()) for token in sorted(tokens)]
    assert _token_match(name, pairs) == token_match(name, pairs)
