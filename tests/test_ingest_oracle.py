"""The CLI's ingest against a per-line oracle of the feed rules.

``cli.ingest_to_rows`` runs ``read_result_file``, which reads each line's
fields, patches them from the sidecar and applies every drop rule in one
loop, yielding only the kept samples; ``group_samples``, which takes each
sample's representative RTT inline and groups by canonical endpoint text,
worked out once per distinct text; and ``edge_rows``. The oracle is the
per-record pipeline of ``conftest.py``, each step done the plain way: a
validated record per line, the sidecar applied with ``_replace``, one
``filter_records`` call per record, ``representative_rtt`` and groups keyed
by each record's canonical endpoint pair. The two must agree edge for edge,
bit for bit, and in every counter, and both must conserve their counts,
also with the CPU count patched so that the files split between this
process and forked children.

The line generators reach every branch of the one-pass reader: run values
that are ints, too large for a float, not finite, booleans or strings;
result entries that are not objects, or that follow a third valid run;
statuses, address families, start times and measurement ids of every JSON
type; an int source; and lines with leading space or trailing extra data.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from conftest import (
    NoDataError,
    filter_records,
    graph_of,
    parse_result_line,
    representative_rtt,
    rows_of,
)
from detourkit import cli
from detourkit.errors import ParseError
from detourkit.graph import canonical_endpoint
from detourkit.ingest import FeedStats, FilterSpec, normalize_status
from test_golden import COMMAND_CASES

# equivalent spellings of one address, a probe id, a hostname and a
# private address; most draws come from the first three, so that pairs
# repeat across measurements and some are self-pairs
ENDPOINTS = [
    "8.8.0.1", "8.8.000.1", "8.8.0.2", " 8.8.0.1", "9.9.0.1", "100", "host.example", "10.0.0.1"
]
endpoints = st.one_of(st.sampled_from(ENDPOINTS[:3]), st.sampled_from(ENDPOINTS))
MSM_IDS = ["1", "2", "m3"]
TIMES = list(range(100, 111))


def mostly(value, others):
    """``value`` three times in four, else one of ``others``."""
    return st.one_of(st.just(value), st.just(value), st.just(value), st.sampled_from(others))

rtts = st.one_of(
    st.sampled_from([1.0, 2.5, 7.25, 0.1, 100.0, -1.0, 0]),
    st.floats(min_value=0.001, max_value=1e4),
)
# a number past the largest float, written as JSON number text (json.dumps
# would write float("inf") as Infinity)
BIG = "__1e400__"
# run values of every JSON type: an int, an int too large for a float (a
# parse error), NaN and the infinities (lost runs), a boolean and a string
json_rtts = st.one_of(
    rtts, rtts, st.sampled_from([3, 10**400, math.nan, math.inf, -math.inf, True, "1.5"])
)
result_entries = st.one_of(
    json_rtts.map(lambda r: {"rtt": r}),
    json_rtts.map(lambda r: {"rtt": r}),
    st.just({"x": "*"}),
    st.sampled_from([None, 5, []]),  # entries that are not objects
)


@st.composite
def json_lines(draw) -> str:
    obj: dict = {}
    if draw(st.integers(0, 9)):
        msm = draw(st.sampled_from(MSM_IDS))
        obj["msm_id"] = int(msm) if msm.isdigit() and draw(st.booleans()) else msm
        if not draw(st.integers(0, 9)):
            obj["msm_id"] = draw(st.sampled_from([1.0, [1], True]))
    if draw(st.booleans()):
        obj["prb_id"] = draw(st.sampled_from([100, 101, "102"]))
    if draw(st.integers(0, 4)):
        obj["from"] = draw(st.one_of(endpoints, endpoints, endpoints, st.just(7)))
    obj[draw(mostly("dst_addr", ["dst_name"]))] = draw(endpoints)
    if draw(st.booleans()):
        obj["af"] = draw(mostly(4, [6, "4", 4.0, True, None, BIG]))
    obj["timestamp"] = draw(mostly(draw(st.sampled_from(TIMES)), [100.5, "100", "x", BIG]))
    entries = draw(st.lists(result_entries, max_size=4))
    if not draw(st.integers(0, 4)):
        # an entry that fails the line if read: never read after a third valid run
        entries.append({"rtt": 10**400})
    obj["result"] = entries
    if draw(st.integers(0, 4)):
        obj["status"] = draw(
            mostly("stopped", ["Stopped", "ongoing", "failed", 1, True, None, " Stopped "])
        )
    if draw(st.booleans()):
        obj["region"] = draw(st.sampled_from(["US", "FR"]))
    line = json.dumps(obj).replace(f'"{BIG}"', "1e400")
    return draw(mostly(line, [" " + line, line + " x"]))


@st.composite
def csv_lines(draw) -> str:
    cells = [
        draw(st.sampled_from(MSM_IDS)),
        draw(endpoints).strip(),
        draw(endpoints).strip(),
        draw(mostly("4", ["6"])),
        draw(mostly("stopped", ["ongoing", ""])),
        str(draw(st.sampled_from(TIMES))),
    ]
    cells += [draw(st.one_of(st.just(""), rtts.map(repr))) for _ in range(3)]
    return ",".join(cells)


LINE = (
    '{"msm_id": 1, "from": "%s", "dst_addr": "%s", "timestamp": %d,'
    ' "result": [{"rtt": 1.5}], "status": "stopped"}'
)
# a kept line but for its result entries
RUNS_LINE = (LINE % ("8.8.0.1", "8.8.0.2", 100)).replace('{"rtt": 1.5}', "%s")
TOO_BIG_RUN = '{"rtt": %d}' % 10**400  # an int past the largest float

other_lines = st.sampled_from(
    [
        "",
        "   ",
        "# comment",
        '{"msm_id": 1, "from": "8.8.0.1", "dst_addr"',
        '{"from": "8.8.0.1", "dst_addr": "8.8.0.2", "timestamp": 100}',
        "1,8.8.0.1,8.8.0.2,4,stopped",
        "1,8.8.0.1,8.8.0.2,4,stopped,100,abc,,",
        "1,8.8.0.1,8.8.0.2,x,stopped,100,1.0,,",
        "[1, 2]",
        '{"msm_id": 1, "from": "8.8.0.1", "timestamp": 100}',
        '{"msm_id": 1, "from": "8.8.0.1", "dst_addr": "8.8.0.2"}',
        '{"msm_id": 1, "from": "8.8.0.1", "dst_addr": "8.8.0.2", "timestamp": 100, "result": {}}',
        LINE % ("8.8.0.1", "h\u00f4st.example", 104),  # not ASCII, but UTF-8
    ]
)

feeds = st.lists(
    st.lists(st.one_of(json_lines(), json_lines(), csv_lines(), other_lines), max_size=60),
    min_size=1,
    max_size=3,
)
specs = st.builds(
    FilterSpec,
    required_status=st.sampled_from([None, "stopped", "stopped", "ongoing"]),
    min_start_time=st.sampled_from([None, 102]),
    max_start_time=st.sampled_from([None, 108]),
    address_family=mostly(None, [4, 6]),
    region_allowlist=mostly(None, [frozenset({"US"}), frozenset({"US", "FR"})]),
)
sidecars = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(MSM_IDS + ["9"]),
        st.tuples(
            st.sampled_from([None, "stopped", "Ongoing", "x"]),
            st.sampled_from([None, 100, 105, 109]),
        ),
        min_size=1,
    ),
)
region_tables = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(ENDPOINTS + ["101", "102"]), mostly("US", ["FR", None])),
)


def oracle_ingest(paths, spec, key_by, sidecar, region_of):
    """Edges as ``{(source, destination): (rtt hex, samples, measurements)}``
    and the ingest counters, one line at a time."""
    stats = FeedStats()
    groups: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip() or line.startswith("#"):
                    continue
                stats.lines += 1
                try:
                    record = parse_result_line(line, key_by)
                except ParseError:
                    stats.parse_errors += 1
                    continue
                stats.parsed += 1
                status, start_time = (sidecar or {}).get(record.measurement_id, (None, None))
                if status is not None:
                    record = record._replace(status=normalize_status(status))
                if start_time is not None:
                    record = record._replace(start_time=start_time)
                if not list(filter_records([record], spec, stats.drops, region_of)):
                    continue
                stats.records += 1
                source = canonical_endpoint(record.source_id)
                destination = canonical_endpoint(record.destination_id)
                if source == destination:
                    stats.skipped["self_pair"] += 1
                    continue
                try:
                    rtt = representative_rtt(record)
                except NoDataError:
                    stats.skipped["no_data"] += 1
                    continue
                by_msm = groups.setdefault((source, destination), {})
                by_msm.setdefault(record.measurement_id, []).append(rtt)
                stats.used += 1
    edges = {}
    for pair, by_msm in groups.items():
        means = [math.fsum(rtts) / len(rtts) for rtts in by_msm.values()]
        edges[pair] = (
            (math.fsum(means) / len(means)).hex(),
            sum(len(rtts) for rtts in by_msm.values()),
            len(by_msm),
        )
    return edges, stats


def edges_of(graph) -> dict:
    return {
        (e.source, e.destination): (e.rtt_ms.hex(), e.sample_count, e.measurement_count)
        for e in graph.edges()
    }


def counters(stats: FeedStats) -> tuple:
    return (
        stats.lines,
        stats.parsed,
        stats.parse_errors,
        dict(stats.drops),
        stats.records,
        stats.used,
        dict(stats.skipped),
    )


def assert_conserved(graph, stats: FeedStats) -> None:
    assert stats.lines == stats.parsed + stats.parse_errors
    assert stats.parsed == sum(stats.drops.values()) + stats.records
    assert stats.records == stats.used + sum(stats.skipped.values())
    assert stats.used == sum(e.sample_count for e in graph.edges())


@settings(max_examples=300, deadline=None)
@given(
    files=feeds,
    spec=specs,
    key_by=st.sampled_from(["ip", "probe"]),
    sidecar=sidecars,
    regions=region_tables,
    cpus=st.sampled_from([1, 2, 4]),
)
# the sidecar moves a sample into the time window and out of the status
# filter; two spellings of one address make one edge, and a self-pair
@example(
    files=[
        [
            LINE % ("8.8.0.1", "8.8.0.2", 100),
            LINE % ("8.8.000.1", "8.8.0.2", 100),
            LINE % ("8.8.0.1", "8.8.000.1", 100),
        ]
    ],
    spec=FilterSpec(min_start_time=102),
    key_by="ip",
    sidecar={"1": (None, 105)},
    regions=None,
    cpus=1,
)
@example(
    files=[[LINE % ("8.8.0.1", "8.8.0.2", 100)]],
    spec=FilterSpec(required_status="stopped"),
    key_by="ip",
    sidecar={"1": ("ongoing", None)},
    regions=None,
    cpus=1,
)
# a too-large run after a third valid one is never read, before one it
# fails the line; leading space is no fault, trailing data is
@example(
    files=[
        [
            RUNS_LINE % ('{"rtt": 1}, null, {"rtt": 2.5}, {"rtt": 3.5}, ' + TOO_BIG_RUN),
            RUNS_LINE % ('{"rtt": 1}, ' + TOO_BIG_RUN),
            " " + LINE % ("8.8.0.1", "8.8.0.3", 100),
            LINE % ("8.8.0.1", "8.8.0.4", 100) + " x",
        ]
    ],
    spec=FilterSpec(),
    key_by="ip",
    sidecar=None,
    regions=None,
    cpus=1,
)
def test_ingest_equals_per_line_oracle(files, spec, key_by, sidecar, regions, cpus):
    # with more than one file and CPU, the files split between this process
    # and forked children, on any runner
    region_of = regions.get if regions is not None else None
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for index, lines in enumerate(files):
            path = Path(work) / f"feed-{index}.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            paths.append(path)
        with mock.patch.object(cli, "usable_cpus", lambda: cpus):
            rows, stats = cli.ingest_to_rows(paths, spec, key_by, sidecar, region_of)
        oracle_edges, oracle_stats = oracle_ingest(
            paths, spec, key_by, sidecar, region_of
        )
    graph = graph_of(rows)
    assert rows == rows_of(graph)  # in key order
    assert edges_of(graph) == oracle_edges
    assert set(graph.nodes()) == {node for pair in oracle_edges for node in pair}
    assert counters(stats) == counters(oracle_stats)
    assert_conserved(graph, stats)
    assert oracle_stats.used == sum(samples for _, samples, _ in oracle_edges.values())


def test_golden_ingest_counts_are_conserved(tmp_path, monkeypatch, capsys):
    seen = []
    ingest_to_rows = cli.ingest_to_rows

    def recorded(*args, **kwargs):
        seen.append(ingest_to_rows(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "ingest_to_rows", recorded)
    for case in ("flags", "config"):
        work = tmp_path / case
        work.mkdir()
        assert cli.main(COMMAND_CASES[("ingest", case)](work)) == 0
    capsys.readouterr()
    assert len(seen) == 2
    for rows, stats in seen:
        assert stats.parse_errors > 0 and stats.drops
        assert_conserved(graph_of(rows), stats)
