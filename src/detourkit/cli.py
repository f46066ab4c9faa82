"""Command-line pipeline: ingest feeds, find detours, report.

Stages communicate through snapshot files so a multi-gigabyte ingestion is
paid once. Subcommands: ingest, detours, traceroutes, overlay, geo-warm.

``ingest``, ``traceroutes``, ``overlay`` and ``detours`` work on every
usable CPU through one share runner, :func:`run_shares`: the command's own
process works through the first share of its inputs and a forked child
through each other share, and the results come back in share order, so the
output is that of one process whatever the CPU count. ``ingest`` deals its
feed files round-robin; ``traceroutes`` and ``overlay`` go through
:func:`map_in_order`, which cuts their inputs into contiguous slices.
``detours`` hands the runner to its insight writer, which cuts the bridge
rows by source into slices of about equal work, at most one per
``detours.BRIDGE_ROWS_PER_SHARE`` bridges, and copies each child's part
file in after its own rows. ``geo-warm`` runs in one process.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

from . import detours as detours_mod
from . import geo as geo_mod
from . import stats as stats_mod
from . import traceroute as traceroute_mod
from .errors import EmptyInputError, ParseError, ToolkitError, open_text
from .graph import (
    BuildStats,
    EdgeRow,
    Layout,
    canonical_ipv4,
    edge_rows,
    group_samples,
    read_snapshot,
    replaced_on_success,
    write_snapshot,
)
from .ingest import STATUSES, FeedStats, FilterSpec, load_status_sidecar, read_result_file

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2

DEFAULT_TOP_N = 20


@dataclass
class PipelineConfig:
    status: Optional[str] = None
    address_family: Optional[int] = 4
    min_start: Optional[int] = None
    max_start: Optional[int] = None
    regions: Optional[frozenset[str]] = None
    key_by: str = "ip"
    sidecar: Optional[Path] = None
    threshold_pct: float = 1.0
    bucket_width_pct: float = 1.0
    top: int = DEFAULT_TOP_N
    cumulative: bool = False
    mode_bin_width_ms: float = 0.5
    forwarding_delay_ms: float = 0.0
    geo_provider: str = "none"
    geo_static_file: Optional[Path] = None
    geo_base_url: Optional[str] = None
    geo_min_interval_s: float = 0.1
    geo_cache: Optional[Path] = None
    output_dir: Path = Path(".")
    format: str = "csv"


def parse_time(text: str) -> int:
    """Epoch seconds from an integer or an ISO date/datetime (UTC)."""
    if text.lstrip("-").isdigit():
        return int(text)
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())


def _parse_regions(text: str) -> Optional[frozenset[str]]:
    values = frozenset(part.strip().upper() for part in text.split(",") if part.strip())
    return values or None


def _address_family(text: str) -> Optional[int]:
    return None if text.lower() == "any" else int(text)


def _boolean(text: str) -> bool:
    # the spellings and the error of ConfigParser.getboolean
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


KEY_BY_CHOICES = ("ip", "probe")
GEO_PROVIDERS = ("none", "static", "http")
FORMATS = ("csv", "json")

# (section, key, PipelineConfig field, converter, allowed values or None);
# a setting's flag, where it has one, stores its text under the field's name
CONFIG_KEYS = (
    ("filter", "status", "status", str.lower, STATUSES),
    ("filter", "af", "address_family", _address_family, None),
    ("filter", "min_start", "min_start", parse_time, None),
    ("filter", "max_start", "max_start", parse_time, None),
    ("filter", "regions", "regions", _parse_regions, None),
    ("ingest", "key_by", "key_by", str, KEY_BY_CHOICES),
    ("ingest", "sidecar", "sidecar", Path, None),
    ("detours", "threshold_pct", "threshold_pct", float, None),
    ("detours", "bucket_width_pct", "bucket_width_pct", float, None),
    ("detours", "top", "top", int, None),
    ("detours", "cumulative", "cumulative", _boolean, None),
    ("overlay", "mode_bin_width_ms", "mode_bin_width_ms", float, None),
    ("overlay", "forwarding_delay_ms", "forwarding_delay_ms", float, None),
    ("geo", "provider", "geo_provider", str.lower, GEO_PROVIDERS),
    ("geo", "static_file", "geo_static_file", Path, None),
    ("geo", "base_url", "geo_base_url", str, None),
    ("geo", "min_interval_s", "geo_min_interval_s", float, None),
    ("geo", "cache", "geo_cache", Path, None),
    ("output", "dir", "output_dir", Path, None),
    ("output", "format", "format", str.lower, FORMATS),
)


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """The settings from the flags in ``args`` and the config file it names:
    a setting's flag text if given, else its config text, either stripped,
    converted and checked by its ``CONFIG_KEYS`` row; empty keeps the default."""
    file = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    if args.config:
        with open_text(args.config) as handle:
            file.read_string(handle.read())
    cfg = PipelineConfig()
    for section, key, name, convert, allowed in CONFIG_KEYS:
        text = getattr(args, name, None)
        if text is None:
            text = file.get(section, key, fallback="")
        if not (text := text.strip()):
            continue
        setting = f"[{section}] {key}"
        try:
            value = convert(text)
        except ValueError as exc:
            raise ValueError(f"{setting}: {exc}") from None
        if allowed is not None and value not in allowed:
            raise ValueError(f"{setting} must be one of {', '.join(allowed)}, got {value!r}")
        if convert is float and not math.isfinite(value):
            raise ValueError(f"{setting} must be a finite number, got {value}")
        if name in ("top", "forwarding_delay_ms") and value < 0:
            raise ValueError(f"{setting} must be >= 0, got {value}")
        setattr(cfg, name, value)
    return cfg


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _while_parent_lives(items: Iterable, parent: int) -> Iterator:
    """``items``, cut short by ``os._exit`` once the process ``parent`` is
    gone, so a child outlives a killed command by at most one item."""
    for item in items:
        if os.getppid() != parent:
            os._exit(1)
        yield item


def _fork_share(work: Callable) -> tuple[int, BinaryIO]:
    """Fork a child that pickles ``work(alive)``, or the exception it met,
    into a pipe; returns its pid and the pipe's read end."""
    import pickle

    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child leaves through os._exit, so an exception never unwinds
        # into the caller's stack and no finally block of it runs twice
        code = 1
        try:
            os.close(read_fd)
            try:
                result = work(functools.partial(_while_parent_lives, parent=parent))
            except BaseException as exc:  # raised again by the parent
                result = exc
            with os.fdopen(write_fd, "wb") as pipe:
                # with no memo, neither side holds an entry per pickled object
                # (for ingest, each RTT array's) until the whole result is through
                pickler = pickle.Pickler(pipe)
                pickler.fast = True
                pickler.dump(result)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def run_shares(name: str, work: Callable, shares: Sequence) -> Iterator:
    """Yield ``work(share, alive)`` of each share, in share order. The first
    share runs in this process; each other share runs in a child forked for
    it, which pickles its result back through a pipe. ``work`` draws the
    items it loops over through ``alive``, so that a child whose command
    was killed (no cleanup runs then) stops at its next item.

    An exception in any share, or closing this generator, stops and reaps
    the children left; the exception is raised here, in its share's place.
    A child that stops without a result raises :class:`ToolkitError`,
    naming it a ``name`` worker.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(functools.partial(work, share)))
        yield work(shares[0], lambda items: items)
        if children:
            import pickle
        while children:
            pid, pipe = children[0]
            with pipe:
                # read as it is unpickled, so its bytes are never all held at once
                try:
                    result, done = pickle.load(pipe), True
                except (EOFError, pickle.UnpicklingError):
                    done = False  # the child stopped before it was done
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0 or not done:
                raise ToolkitError(f"{name} worker {pid} exited with status {code}")
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        if children:  # left by an error or a consumer that stopped early
            import signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _share_count(items: Sequence) -> int:
    """One share per usable CPU, at most one per item, and at least one."""
    return min(len(items), usable_cpus()) or 1


def map_in_order(name: str, function: Callable, items: Sequence) -> Iterator:
    """``function(item)`` of each item, in item order, worked out by
    :func:`run_shares` over contiguous slices of ``items``. An exception is
    raised in the place of its item's result, after every earlier item's,
    as a loop over ``items`` in one process would raise it."""

    def share_results(share: Sequence, alive) -> tuple[list, Optional[Exception]]:
        results = []
        try:
            for item in alive(share):
                results.append(function(item))
        except Exception as exc:  # any error waits until the earlier items are out
            return results, exc
        return results, None

    count = _share_count(items)
    size = len(items)
    slices = [items[size * index // count : size * (index + 1) // count] for index in range(count)]
    # a failure or an early stop closes the runner, which stops the later shares
    with contextlib.closing(run_shares(name, share_results, slices)) as shares:
        for results, failure in shares:
            yield from results
            if failure is not None:
                raise failure


def ingest_to_rows(
    paths: Sequence[Path],
    spec: FilterSpec,
    key_by: str = "ip",
    sidecar: Optional[dict] = None,
    region_of=None,
) -> tuple[list[EdgeRow], FeedStats, BuildStats]:
    """Run the parse -> filter -> aggregate pipeline over feed files into
    the snapshot's edge rows.

    The files are dealt round-robin into the shares of :func:`run_shares`.
    In each share, ``read_result_file`` reads each file in one pass, parsing,
    patching and filtering every line and yielding only the kept samples,
    which :func:`group_samples` groups into its flat layout: the share's
    endpoint and measurement id tables and one int-keyed dict of RTT arrays,
    which a child pickles back as it is. ``edge_rows`` joins the layouts by
    id, one share's at a time, and takes the edge weights; the counters add
    up.
    ``math.fsum`` is correctly rounded, so a weight does not depend on the
    order of its samples: the rows and the counters are those of one
    process reading every file, bit for bit, whatever the CPU count.
    """
    count = _share_count(paths)

    def group(share: Sequence[Path], alive) -> tuple[Layout, FeedStats, BuildStats]:
        feed, build = FeedStats(), BuildStats()
        kept = chain.from_iterable(
            read_result_file(
                path, key_by=key_by, sidecar=sidecar, stats=feed, spec=spec, region_of=region_of
            )
            for path in share
        )
        return group_samples(alive(kept), build), feed, build

    shares = [paths[index::count] for index in range(count)]
    with contextlib.closing(run_shares("ingest", group, shares)) as results:
        layout, feed_stats, build_stats = next(results)

        def merge() -> Iterator[Layout]:
            # one child's layout at a time, each read once the last is joined
            yield layout
            for other_layout, feed, build in results:
                feed_stats.merge(feed)
                build_stats.merge(build)
                yield other_layout

        rows = edge_rows(merge())
    return rows, feed_stats, build_stats


# (column name, format spec of its CSV cell)
HISTOGRAM_COLUMNS = (("bucket_pct", "g"), ("pair_count", ""))
TRACE_REPORT_COLUMNS = (
    ("source_label", ""),
    ("destination", ""),
    ("hop_count", ""),
    ("city_verdict", ""),
)
SUMMARY_COLUMNS = (
    ("label", ""),
    ("mean_ms", ".2f"),
    ("median_ms", ".2f"),
    ("variance_ms2", ".2f"),
    ("mode_ms", ".2f"),
    ("std_dev_ms", ".2f"),
    ("sample_count", ""),
    ("modality", ""),
)


def write_table(
    path: Path, fmt: str, columns: Sequence[tuple[str, str]], rows: Iterable[Sequence]
) -> None:
    """Write ``rows`` as CSV, each cell rendered with its column's format
    spec, or as a JSON list of one object per row keyed by column name,
    replacing ``path`` atomically."""
    names = [name for name, _ in columns]
    if fmt == "json":
        with replaced_on_success(path) as handle:
            json.dump([dict(zip(names, row)) for row in rows], handle, indent=2)
            handle.write("\n")
        return
    specs = [spec for _, spec in columns]
    with replaced_on_success(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in rows:
            writer.writerow([format(value, spec) for value, spec in zip(row, specs)])


def _geo_lookup_from_config(cfg: PipelineConfig) -> geo_mod.GeoLookup:
    provider = geo_mod.NullGeoProvider()
    if cfg.geo_provider == "static":
        if cfg.geo_static_file is None:
            raise ValueError("static geo provider needs geo.static_file")
        provider = geo_mod.StaticFileGeoProvider(cfg.geo_static_file)
    elif cfg.geo_provider == "http":
        if cfg.geo_base_url is None:
            raise ValueError("http geo provider needs geo.base_url")
        provider = geo_mod.HttpGeoProvider(
            cfg.geo_base_url, min_interval_s=cfg.geo_min_interval_s
        )
    cache = geo_mod.GeoCache(cfg.geo_cache) if cfg.geo_cache is not None else None
    return geo_mod.GeoLookup(cache=cache, provider=provider)


def _read_geo_cache(
    cfg: PipelineConfig, only: Optional[Iterable[str]] = None
) -> Optional[geo_mod.GeoCache]:
    """The geo cache file, to be asked through :meth:`GeoCache.place` (with
    ``only``, for those texts alone), or None when there is no cache file."""
    if cfg.geo_cache is None or not cfg.geo_cache.exists():
        return None
    return geo_mod.GeoCache(cfg.geo_cache, only)


def cmd_ingest(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    name = Path(args.snapshot_name)
    if name.is_absolute() or not name.parts or ".." in name.parts:
        raise ValueError(
            f"--snapshot-name must be a relative file path under --output-dir, "
            f"got {args.snapshot_name!r}"
        )
    paths = [Path(p) for p in args.inputs]
    for path in paths:  # fail on a missing feed before reading any
        open(path, "rb").close()
    sidecar = load_status_sidecar(cfg.sidecar) if cfg.sidecar else None
    spec = FilterSpec(
        required_status=cfg.status,
        min_start_time=cfg.min_start,
        max_start_time=cfg.max_start,
        address_family=cfg.address_family,
        region_allowlist=cfg.regions,
    )
    cache = _read_geo_cache(cfg) if cfg.regions is not None else None
    region_of = None
    if cache is not None:
        # records far outnumber endpoints: look each endpoint text up once
        @functools.cache
        def region_of(endpoint: str) -> Optional[str]:
            record = cache.place(endpoint)
            return None if record is None else record.country

    rows, feed, build = ingest_to_rows(
        paths, spec, key_by=cfg.key_by, sidecar=sidecar, region_of=region_of
    )
    snapshot = cfg.output_dir / name
    write_snapshot(rows, snapshot)
    nodes = len({endpoint for row in rows for endpoint in row[:2]})

    print(f"lines={feed.lines} parse_errors={feed.parse_errors} kept={build.records}")
    for reason, count in sorted(feed.drops.items()):
        print(f"dropped[{reason}]={count}")
    for reason, count in sorted(build.skipped.items()):
        print(f"skipped[{reason}]={count}")
    print(f"nodes={nodes} edges={len(rows)} snapshot={snapshot}")
    if feed.lines == 0:
        print("warning: no input lines", file=sys.stderr)
    return EXIT_OK


def cmd_detours(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    nodes, successors = read_snapshot(args.snapshot)
    rows = detours_mod.search_detours(nodes, successors, threshold_pct=cfg.threshold_pct)
    histogram = rows.histogram(cfg.bucket_width_pct)
    improvable_pairs = sum(histogram.values())

    write = detours_mod.write_rows_json if cfg.format == "json" else detours_mod.write_rows_csv
    write(
        rows,
        cfg.output_dir / f"insights.{cfg.format}",
        functools.partial(run_shares, "detours"),
        usable_cpus(),
    )
    counts = sorted(histogram.items())
    if cfg.cumulative:
        # each bucket counts its own pairs and those of every bucket above it
        above = improvable_pairs
        for index, (bucket, count) in enumerate(counts):
            counts[index] = (bucket, above)
            above -= count
    write_table(
        cfg.output_dir / f"histogram.{cfg.format}", cfg.format, HISTOGRAM_COLUMNS, counts
    )

    print(
        f"insights={len(rows)} improvements={len(rows.improvements)} "
        f"bridges={rows.bridge_count} improvable_pairs={improvable_pairs}"
    )

    top = list(islice(rows.insights(), cfg.top))
    shown = {endpoint for insight in top for endpoint in insight[:3]}
    cache = _read_geo_cache(cfg, only=shown)

    def label(endpoint: str) -> str:
        place = cache.place(endpoint) if cache is not None else None
        if place is None or place.city is None:
            return endpoint
        return f"{place.city}, {place.country}"

    for insight in top:
        source, via, destination = map(label, insight[:3])
        print(f"{source} -> {destination} via {via}: {_describe(insight)}")
    return EXIT_OK


def _describe(insight: tuple) -> str:
    """One insight tuple of :meth:`DetourRows.insights` as the CLI prints it."""
    _, _, _, overlay, direct, gain, pct, kind = insight
    if kind == detours_mod.KIND_BRIDGE:
        return f"bridge, overlay {overlay:.3f} ms (no direct connectivity)"
    return f"overlay {overlay:.3f} ms vs direct {direct:.3f} ms (saves {gain:.3f} ms, {pct:.2f}%)"


def cmd_traceroutes(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    tokens = frozenset(t.strip().lower() for t in args.city_tokens.split(",") if t.strip())
    spec = traceroute_mod.CitySpec(tokens=tokens, geo_city=args.geo_city)
    cache = _read_geo_cache(cfg)
    place = cache.place if cache is not None else None

    def report(path: Path) -> tuple[Optional[tuple], Optional[str]]:
        """The trace's report row, or the error line of a malformed one."""
        try:
            trace = traceroute_mod.read_trace_file(path)
        except ParseError as exc:
            return None, f"error: {path.name}: {exc}"
        verdict = traceroute_mod.detect_city(trace, spec, place).capitalize()
        return (trace.source_label or path.stem, trace.destination, len(trace.hops), verdict), None

    rows = []
    failures = 0
    trace_dir = Path(args.trace_dir)
    with os.scandir(trace_dir) as entries:
        names = sorted(entry.name for entry in entries if entry.is_file())
    paths = [trace_dir / name for name in names]
    for row, error in map_in_order("traceroutes", report, paths):
        if error is not None:
            failures += 1
            print(error, file=sys.stderr)
        else:
            rows.append(row)

    write_table(
        cfg.output_dir / f"traceroute_report.{cfg.format}",
        cfg.format,
        TRACE_REPORT_COLUMNS,
        rows,
    )
    print(f"traces={len(rows)} errors={failures}")
    return EXIT_OK


def _distribution_name(label: str) -> str:
    safe = label.replace("/", "_").replace(" ", "_")
    return f"distribution_{safe}.csv"


def cmd_overlay(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    legs: list[tuple[str, Path]] = []
    for item in args.leg or []:
        label, _, path = item.partition("=")
        if not path:
            raise ValueError(f"bad --leg value {item!r}, expected LABEL=FILE")
        legs.append((label, Path(path)))
    if not legs and args.direct is None:
        raise ValueError("nothing to do: give --leg and/or --direct")
    labels = [label for label, _ in legs] + (["direct"] if args.direct is not None else [])
    owners: dict[str, str] = {}
    for label in labels:
        name = _distribution_name(label)
        if name in owners:
            raise ValueError(f"labels {owners[name]!r} and {label!r} would both write {name}")
        owners[name] = label

    def describe(path: Path) -> tuple[stats_mod.RttSummary, list[tuple[float, int]]]:
        # the samples are an array of 8-byte floats, summarized without a sorted
        # copy; only the distribution is kept, so they are freed once summarized
        samples = stats_mod.read_samples(path)
        if not samples:
            raise EmptyInputError(f"no samples in {path}")
        return stats_mod.describe(samples, cfg.mode_bin_width_ms)

    inputs = [path for _, path in legs] + ([Path(args.direct)] if args.direct is not None else [])
    rows: list[tuple[str, stats_mod.RttSummary]] = []
    distributions: list[tuple[str, list[tuple[float, int]]]] = []
    leg_summaries = []
    composed = direct = None
    # the legs are composed before the direct input's result is taken, so a
    # composing error comes before that input's own, as in one loop
    with contextlib.closing(map_in_order("overlay", describe, inputs)) as described:
        for label, _ in legs:
            summary, dist = next(described)
            rows.append((label, summary))
            distributions.append((label, dist))
            leg_summaries.append(summary)

        if leg_summaries:
            composed = stats_mod.compose(leg_summaries, cfg.forwarding_delay_ms)
            rows.append(("composed:" + "+".join(label for label, _ in legs), composed))

        if args.direct is not None:
            direct, dist = next(described)
            rows.append(("direct", direct))
            distributions.append(("direct", dist))

    write_table(
        cfg.output_dir / f"overlay_summary.{cfg.format}",
        cfg.format,
        SUMMARY_COLUMNS,
        [(label, *(getattr(s, name) for name, _ in SUMMARY_COLUMNS[1:])) for label, s in rows],
    )

    for label, dist in distributions:
        path = cfg.output_dir / _distribution_name(label)
        with replaced_on_success(path, newline="") as f:
            f.write("bin_center,count\n")
            for center, count in dist:
                f.write(f"{center:g},{count}\n")

    for label, summary in rows:
        print(
            f"{label}: mean={summary.mean_ms:.2f} median={summary.median_ms:.2f} "
            f"var={summary.variance_ms2:.2f} mode={summary.mode_ms:.2f} "
            f"std={summary.std_dev_ms:.2f} n={summary.sample_count} {summary.modality}"
        )
    if composed is not None and direct is not None:
        description, median_delta, mode_delta, mean_delta = stats_mod.compare(direct, composed)
        print(
            f"verdict: {description} (median_delta={median_delta:.2f} ms, "
            f"mode_delta={mode_delta:.2f} ms, mean_delta={mean_delta:.2f} ms)"
        )
    return EXIT_OK


def cmd_geo_warm(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    if cfg.geo_cache is None:
        raise ValueError("geo-warm needs a cache path (--geo-cache)")
    lookup = _geo_lookup_from_config(cfg)
    # the whole list is read, and so checked, before the first lookup
    with open_text(args.ips) as handle:
        ips = [ip for line in handle if (ip := line.strip()) and not ip.startswith("#")]
    resolved = 0
    seen: set[str] = set()
    with lookup.cache:
        for ip in ips:
            address = canonical_ipv4(ip) or ip
            if address in seen:
                continue
            seen.add(address)
            try:
                record = lookup.lookup(ip)
            except ToolkitError as exc:
                print(f"skipping {ip}: {exc}", file=sys.stderr)
                continue
            if record.country is not None:
                resolved += 1
    print(f"warmed {len(seen)} addresses, {resolved} resolved, cache={cfg.geo_cache}")
    return EXIT_OK


def _choices(values: Sequence[str]) -> str:
    return "{" + ",".join(values) + "}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detourkit",
        description="Analyze ping feeds for faster one-hop relay paths and report on them.",
    )
    parser.add_argument("--config", type=Path, default=None, help="key=value sections file")
    parser.add_argument("--output-dir")
    parser.add_argument("--format", metavar=_choices(FORMATS))
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse + filter feeds into a graph snapshot")
    p_ingest.add_argument("inputs", nargs="+")
    p_ingest.add_argument("--key-by", metavar=_choices(KEY_BY_CHOICES))
    p_ingest.add_argument("--status", metavar=_choices(STATUSES), help="required status")
    p_ingest.add_argument("--af", dest="address_family")
    p_ingest.add_argument(
        "--af-any", dest="address_family", action="store_const", const="any", help="= --af any"
    )
    p_ingest.add_argument("--min-start")
    p_ingest.add_argument("--max-start", help="exclusive bound")
    p_ingest.add_argument("--regions")
    p_ingest.add_argument("--sidecar")
    p_ingest.add_argument("--geo-cache")
    p_ingest.add_argument("--snapshot-name", default="graph.csv")
    p_ingest.set_defaults(func=cmd_ingest)

    p_detours = sub.add_parser("detours", help="enumerate relay insights from a snapshot")
    p_detours.add_argument("snapshot")
    p_detours.add_argument("--threshold-pct")
    p_detours.add_argument("--bucket-width", dest="bucket_width_pct")
    p_detours.add_argument("--top")
    p_detours.add_argument("--cumulative", action="store_const", const="yes")
    p_detours.add_argument("--geo-cache")
    p_detours.set_defaults(func=cmd_detours)

    p_traces = sub.add_parser("traceroutes", help="hop counts and city transit per trace file")
    p_traces.add_argument("trace_dir")
    default_city = traceroute_mod.LOS_ANGELES
    p_traces.add_argument("--city-tokens", default=",".join(sorted(default_city.tokens)))
    p_traces.add_argument("--geo-city", default=default_city.geo_city)
    p_traces.add_argument("--geo-cache")
    p_traces.set_defaults(func=cmd_traceroutes)

    p_overlay = sub.add_parser("overlay", help="summarize legs and compose a relay prediction")
    p_overlay.add_argument("--leg", action="append", metavar="LABEL=FILE")
    p_overlay.add_argument("--direct", default=None, metavar="FILE")
    p_overlay.add_argument("--mode-bin-width", dest="mode_bin_width_ms")
    p_overlay.add_argument("--forwarding-delay", dest="forwarding_delay_ms")
    p_overlay.set_defaults(func=cmd_overlay)

    p_warm = sub.add_parser("geo-warm", help="pre-populate the geo cache for a list of IPs")
    p_warm.add_argument("ips", help="file with one IP per line")
    p_warm.add_argument("--geo-cache")
    p_warm.add_argument("--geo-provider", metavar=_choices(GEO_PROVIDERS))
    p_warm.add_argument("--geo-static-file")
    p_warm.add_argument("--geo-base-url")
    p_warm.set_defaults(func=cmd_geo_warm)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            cfg = resolve_config(args)
        except (ValueError, configparser.Error) as exc:
            print(f"bad configuration: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return args.func(args, cfg)
    except FileNotFoundError as exc:  # any input file, the config file among them
        print(f"input not found: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, EmptyInputError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
