"""Command-line pipeline: ingest feeds, find detours, report.

Stages communicate through snapshot files so a multi-gigabyte ingestion is
paid once. Subcommands: ingest, detours, traceroutes, overlay, geo-warm.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

from . import detours as detours_mod
from . import geo as geo_mod
from . import stats as stats_mod
from . import traceroute as traceroute_mod
from .errors import EmptyInputError, ParseError, ToolkitError
from .graph import BuildStats, LatencyGraph, build_graph, load_graph, save_graph
from .ingest import FeedStats, FilterSpec, filter_records, load_status_sidecar, read_result_file

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
    text = text.strip()
    if text.lstrip("-").isdigit():
        return int(text)
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())


def _parse_regions(text: str) -> Optional[frozenset[str]]:
    values = frozenset(part.strip().upper() for part in text.split(",") if part.strip())
    return values or None


def load_config_file(path: Path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as handle:
        parser.read_string(handle.read())
    cfg = PipelineConfig()

    def get(section: str, key: str) -> Optional[str]:
        return parser.get(section, key, fallback=None)

    if value := get("filter", "status"):
        cfg.status = value.strip().lower()
    if value := get("filter", "af"):
        cfg.address_family = None if value.strip().lower() == "any" else int(value)
    if value := get("filter", "min_start"):
        cfg.min_start = parse_time(value)
    if value := get("filter", "max_start"):
        cfg.max_start = parse_time(value)
    if value := get("filter", "regions"):
        cfg.regions = _parse_regions(value)
    if value := get("ingest", "key_by"):
        cfg.key_by = value.strip()
    if value := get("ingest", "sidecar"):
        cfg.sidecar = Path(value.strip())
    if value := get("detours", "threshold_pct"):
        cfg.threshold_pct = float(value)
    if value := get("detours", "bucket_width_pct"):
        cfg.bucket_width_pct = float(value)
    if value := get("detours", "top"):
        cfg.top = int(value)
    if value := get("detours", "cumulative"):
        cfg.cumulative = parser.getboolean("detours", "cumulative")
    if value := get("overlay", "mode_bin_width_ms"):
        cfg.mode_bin_width_ms = float(value)
    if value := get("overlay", "forwarding_delay_ms"):
        cfg.forwarding_delay_ms = float(value)
    if value := get("geo", "provider"):
        cfg.geo_provider = value.strip().lower()
    if value := get("geo", "static_file"):
        cfg.geo_static_file = Path(value.strip())
    if value := get("geo", "base_url"):
        cfg.geo_base_url = value.strip()
    if value := get("geo", "min_interval_s"):
        cfg.geo_min_interval_s = float(value)
    if value := get("geo", "cache"):
        cfg.geo_cache = Path(value.strip())
    if value := get("output", "dir"):
        cfg.output_dir = Path(value.strip())
    if value := get("output", "format"):
        cfg.format = value.strip().lower()
    return cfg


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config_file(args.config) if args.config else PipelineConfig()
    overrides = {
        "status": getattr(args, "status", None),
        "address_family": getattr(args, "af", None),
        "min_start": getattr(args, "min_start", None),
        "max_start": getattr(args, "max_start", None),
        "regions": getattr(args, "regions", None),
        "key_by": getattr(args, "key_by", None),
        "sidecar": getattr(args, "sidecar", None),
        "threshold_pct": getattr(args, "threshold_pct", None),
        "bucket_width_pct": getattr(args, "bucket_width_pct", None),
        "top": getattr(args, "top", None),
        "mode_bin_width_ms": getattr(args, "mode_bin_width", None),
        "forwarding_delay_ms": getattr(args, "forwarding_delay", None),
        "geo_provider": getattr(args, "geo_provider", None),
        "geo_static_file": getattr(args, "geo_static_file", None),
        "geo_base_url": getattr(args, "geo_base_url", None),
        "geo_cache": getattr(args, "geo_cache", None),
        "output_dir": args.output_dir,
        "format": args.format,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "cumulative", False):
        cfg.cumulative = True
    if getattr(args, "af_any", False):
        cfg.address_family = None
    if cfg.top < 0:
        raise ValueError(f"top must be >= 0, got {cfg.top}")
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"unsupported format {cfg.format!r}")
    return cfg


def ingest_to_graph(
    paths: Sequence[Path],
    spec: FilterSpec,
    key_by: str = "ip",
    sidecar: Optional[dict] = None,
    region_of=None,
) -> tuple[LatencyGraph, FeedStats, BuildStats]:
    """Run the parse -> filter -> aggregate pipeline over feed files."""
    feed_stats = FeedStats()
    build_stats = BuildStats()

    def stream():
        for path in paths:
            yield from read_result_file(path, key_by=key_by, sidecar=sidecar, stats=feed_stats)

    kept = filter_records(stream(), spec, drops=feed_stats.drops, region_of=region_of)
    graph = build_graph(kept, stats=build_stats)
    return graph, feed_stats, build_stats


def _write_json(path: Path, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _geo_lookup_from_config(cfg: PipelineConfig, allow_provider: bool = True) -> geo_mod.GeoLookup:
    provider = geo_mod.NullGeoProvider()
    if allow_provider and cfg.geo_provider == "static":
        if cfg.geo_static_file is None:
            raise ValueError("static geo provider needs geo.static_file")
        provider = geo_mod.StaticFileGeoProvider(cfg.geo_static_file)
    elif allow_provider and cfg.geo_provider == "http":
        if cfg.geo_base_url is None:
            raise ValueError("http geo provider needs geo.base_url")
        provider = geo_mod.HttpGeoProvider(
            cfg.geo_base_url, min_interval_s=cfg.geo_min_interval_s
        )
    cache = geo_mod.GeoCache(cfg.geo_cache) if cfg.geo_cache is not None else None
    return geo_mod.GeoLookup(cache=cache, provider=provider)


def cmd_ingest(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    paths = [Path(p) for p in args.inputs]
    for path in paths:
        if not path.exists():
            print(f"input not found: {path}", file=sys.stderr)
            return EXIT_USAGE
    sidecar = load_status_sidecar(cfg.sidecar) if cfg.sidecar else None
    spec = FilterSpec(
        required_status=cfg.status,
        min_start_time=cfg.min_start,
        max_start_time=cfg.max_start,
        address_family=cfg.address_family,
        region_allowlist=cfg.regions,
    )
    region_of = None
    if cfg.regions is not None and cfg.geo_cache is not None and cfg.geo_cache.exists():
        lookup = _geo_lookup_from_config(cfg, allow_provider=False)

        def region_of(endpoint: str) -> Optional[str]:
            try:
                return lookup.lookup(endpoint).country
            except ToolkitError:
                return None

    graph, feed, build = ingest_to_graph(
        paths, spec, key_by=cfg.key_by, sidecar=sidecar, region_of=region_of
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    snapshot = cfg.output_dir / args.snapshot_name
    save_graph(graph, snapshot)

    print(f"lines={feed.lines} parse_errors={feed.parse_errors} kept={build.records}")
    for reason, count in sorted(feed.drops.items()):
        print(f"dropped[{reason}]={count}")
    for reason, count in sorted(build.skipped.items()):
        print(f"skipped[{reason}]={count}")
    print(f"nodes={graph.node_count} edges={graph.edge_count} snapshot={snapshot}")
    if feed.lines == 0:
        print("warning: no input lines", file=sys.stderr)
    return EXIT_OK


def _located_label(record: geo_mod.GeoRecord, fallback: str) -> str:
    if record.city is not None:
        return f"{record.city}, {record.country}"
    return fallback


def cmd_detours(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    snapshot = Path(args.snapshot)
    if not snapshot.exists():
        print(f"input not found: {snapshot}", file=sys.stderr)
        return EXIT_USAGE
    graph = load_graph(snapshot)
    rows = detours_mod.search_detours(graph, threshold_pct=cfg.threshold_pct)
    histogram = rows.histogram(cfg.bucket_width_pct)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if cfg.format == "json":
        detours_mod.write_rows_json(rows, cfg.output_dir / "insights.json")
        counts = histogram.cumulative() if cfg.cumulative else histogram.counts
        _write_json(
            cfg.output_dir / "histogram.json",
            [{"bucket_pct": bucket, "pair_count": count} for bucket, count in sorted(counts.items())],
        )
    else:
        detours_mod.write_rows_csv(rows, cfg.output_dir / "insights.csv")
        detours_mod.write_histogram_csv(
            histogram, cfg.output_dir / "histogram.csv", cumulative=cfg.cumulative
        )

    print(
        f"insights={len(rows)} improvements={len(rows.improvements)} "
        f"bridges={len(rows.bridges)} improvable_pairs={histogram.total_pairs()}"
    )

    top = list(islice(rows.insights(), cfg.top))
    use_geo = cfg.geo_cache is not None and cfg.geo_cache.exists()
    if use_geo:
        lookup = _geo_lookup_from_config(cfg, allow_provider=False)
        located = geo_mod.annotate(top, lookup)
        for item in located:
            i = item.insight
            source = _located_label(item.source_geo, i.source.value)
            via = _located_label(item.via_geo, i.via.value)
            destination = _located_label(item.destination_geo, i.destination.value)
            print(f"{source} -> {destination} via {via}: {_describe(i)}")
    else:
        for i in top:
            print(f"{i.source.value} -> {i.destination.value} via {i.via.value}: {_describe(i)}")
    return EXIT_OK


def _describe(insight: detours_mod.DetourInsight) -> str:
    if insight.kind == detours_mod.KIND_BRIDGE:
        return f"bridge, overlay {insight.overlay_rtt_ms:.3f} ms (no direct connectivity)"
    return (
        f"overlay {insight.overlay_rtt_ms:.3f} ms vs direct {insight.direct_rtt_ms:.3f} ms "
        f"(saves {insight.improvement_ms:.3f} ms, {insight.improvement_pct:.2f}%)"
    )


def cmd_traceroutes(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    directory = Path(args.trace_dir)
    if not directory.is_dir():
        print(f"input not found: {directory}", file=sys.stderr)
        return EXIT_USAGE
    tokens = frozenset(t.strip().lower() for t in args.city_tokens.split(",") if t.strip())
    spec = traceroute_mod.CitySpec(tokens=tokens, geo_city=args.geo_city)
    lookup = None
    if cfg.geo_cache is not None and cfg.geo_cache.exists():
        lookup = _geo_lookup_from_config(cfg, allow_provider=False)

    rows = []
    failures = 0
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            trace = traceroute_mod.read_trace_file(path)
        except ParseError as exc:
            failures += 1
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            continue
        if lookup is not None:
            trace = _annotate_hops(trace, lookup)
        detection = traceroute_mod.detect_city(trace, spec)
        rows.append(
            (
                trace.source_label or path.stem,
                trace.destination,
                traceroute_mod.hop_count(trace),
                detection.verdict,
            )
        )

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if cfg.format == "json":
        _write_json(
            cfg.output_dir / "traceroute_report.json",
            [
                {
                    "source_label": label,
                    "destination": destination,
                    "hop_count": hops,
                    "city_verdict": verdict.capitalize(),
                }
                for label, destination, hops, verdict in rows
            ],
        )
    else:
        traceroute_mod.write_trace_report_csv(rows, cfg.output_dir / "traceroute_report.csv")
    print(f"traces={len(rows)} errors={failures}")
    return EXIT_OK


def _annotate_hops(
    trace: traceroute_mod.TracerouteTrace, lookup: geo_mod.GeoLookup
) -> traceroute_mod.TracerouteTrace:
    hops = []
    for hop in trace.hops:
        if hop.address is not None and hop.geo is None:
            try:
                hop = dataclasses.replace(hop, geo=lookup.lookup(hop.address))
            except ToolkitError:
                pass
        hops.append(hop)
    return dataclasses.replace(trace, hops=tuple(hops))


def cmd_overlay(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    legs: list[tuple[str, Path]] = []
    for item in args.leg or []:
        label, _, path = item.partition("=")
        if not path:
            print(f"bad --leg value {item!r}, expected LABEL=FILE", file=sys.stderr)
            return EXIT_USAGE
        legs.append((label, Path(path)))
    if not legs and args.direct is None:
        print("nothing to do: give --leg and/or --direct", file=sys.stderr)
        return EXIT_USAGE

    def load(path: Path) -> list[float]:
        if not path.exists():
            raise FileNotFoundError(f"input not found: {path}")
        samples = stats_mod.read_samples(path)
        if not samples:
            raise EmptyInputError(f"no samples in {path}")
        return samples

    rows: list[tuple[str, stats_mod.RttSummary]] = []
    distributions: list[tuple[str, list[float]]] = []
    leg_summaries = []
    for label, path in legs:
        samples = load(path)
        summary = stats_mod.summarize(samples, mode_bin_width_ms=cfg.mode_bin_width_ms)
        rows.append((label, summary))
        distributions.append((label, samples))
        leg_summaries.append(summary)

    composed = None
    if leg_summaries:
        path_obj = stats_mod.OverlayPath(
            legs=tuple(leg_summaries), labels=tuple(label for label, _ in legs)
        )
        composed = stats_mod.compose(path_obj, forwarding_delay_ms=cfg.forwarding_delay_ms)
        rows.append(("composed:" + "+".join(label for label, _ in legs), composed))

    direct = None
    if args.direct is not None:
        direct_samples = load(Path(args.direct))
        direct = stats_mod.summarize(direct_samples, mode_bin_width_ms=cfg.mode_bin_width_ms)
        rows.append(("direct", direct))
        distributions.append(("direct", direct_samples))

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if cfg.format == "json":
        _write_json(
            cfg.output_dir / "overlay_summary.json",
            [
                {
                    "label": label,
                    "mean_ms": s.mean_ms,
                    "median_ms": s.median_ms,
                    "variance_ms2": s.variance_ms2,
                    "mode_ms": s.mode_ms,
                    "std_dev_ms": s.std_dev_ms,
                    "sample_count": s.sample_count,
                    "modality": s.modality,
                }
                for label, s in rows
            ],
        )
    else:
        with open(cfg.output_dir / "overlay_summary.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(stats_mod.SUMMARY_HEADER)
            for label, summary in rows:
                writer.writerow(stats_mod.summary_row(label, summary))

    for label, samples in distributions:
        safe = label.replace("/", "_").replace(" ", "_")
        dist = stats_mod.frequency_distribution(samples, cfg.mode_bin_width_ms)
        with open(
            cfg.output_dir / f"distribution_{safe}.csv", "w", encoding="utf-8", newline=""
        ) as f:
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
        verdict = stats_mod.compare(direct, composed)
        print(
            f"verdict: {verdict.description} "
            f"(median_delta={verdict.median_delta_ms:.2f} ms, "
            f"mode_delta={verdict.mode_delta_ms:.2f} ms, "
            f"mean_delta={verdict.mean_delta_ms:.2f} ms)"
        )
    return EXIT_OK


def cmd_geo_warm(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    if cfg.geo_cache is None:
        print("geo-warm needs a cache path (--geo-cache)", file=sys.stderr)
        return EXIT_USAGE
    ips_path = Path(args.ips)
    if not ips_path.exists():
        print(f"input not found: {ips_path}", file=sys.stderr)
        return EXIT_USAGE
    lookup = _geo_lookup_from_config(cfg)
    resolved = 0
    total = 0
    with open(ips_path, "r", encoding="utf-8") as handle:
        for line in handle:
            ip = line.strip()
            if not ip or ip.startswith("#"):
                continue
            total += 1
            try:
                record = lookup.lookup(ip)
            except ToolkitError as exc:
                print(f"skipping {ip}: {exc}", file=sys.stderr)
                continue
            if record.country is not None:
                resolved += 1
    print(f"warmed {total} addresses, {resolved} resolved, cache={cfg.geo_cache}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detourkit",
        description="Analyze ping feeds for faster one-hop relay paths and report on them.",
    )
    parser.add_argument("--config", type=Path, default=None, help="key=value sections file")
    parser.add_argument("--output-dir", type=Path, default=None)
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse + filter feeds into a graph snapshot")
    p_ingest.add_argument("inputs", nargs="+")
    p_ingest.add_argument("--key-by", dest="key_by", choices=("ip", "probe"), default=None)
    p_ingest.add_argument("--status", default=None, help="required status, e.g. stopped")
    p_ingest.add_argument("--af", type=int, default=None)
    p_ingest.add_argument("--af-any", action="store_true", help="disable the address-family filter")
    p_ingest.add_argument("--min-start", type=parse_time, default=None)
    p_ingest.add_argument("--max-start", type=parse_time, default=None, help="exclusive bound")
    p_ingest.add_argument("--regions", type=_parse_regions, default=None)
    p_ingest.add_argument("--sidecar", type=Path, default=None)
    p_ingest.add_argument("--geo-cache", type=Path, default=None)
    p_ingest.add_argument("--snapshot-name", default="graph.csv")
    p_ingest.set_defaults(func=cmd_ingest)

    p_detours = sub.add_parser("detours", help="enumerate relay insights from a snapshot")
    p_detours.add_argument("snapshot")
    p_detours.add_argument("--threshold-pct", dest="threshold_pct", type=float, default=None)
    p_detours.add_argument("--bucket-width", dest="bucket_width_pct", type=float, default=None)
    p_detours.add_argument("--top", type=int, default=None)
    p_detours.add_argument("--cumulative", action="store_true")
    p_detours.add_argument("--geo-cache", type=Path, default=None)
    p_detours.set_defaults(func=cmd_detours)

    p_traces = sub.add_parser("traceroutes", help="hop counts and city transit per trace file")
    p_traces.add_argument("trace_dir")
    p_traces.add_argument("--city-tokens", default="lax,losangeles,la-")
    p_traces.add_argument("--geo-city", default="Los Angeles")
    p_traces.add_argument("--geo-cache", type=Path, default=None)
    p_traces.set_defaults(func=cmd_traceroutes)

    p_overlay = sub.add_parser("overlay", help="summarize legs and compose a relay prediction")
    p_overlay.add_argument("--leg", action="append", metavar="LABEL=FILE")
    p_overlay.add_argument("--direct", default=None, metavar="FILE")
    p_overlay.add_argument("--mode-bin-width", dest="mode_bin_width", type=float, default=None)
    p_overlay.add_argument(
        "--forwarding-delay", dest="forwarding_delay", type=float, default=None
    )
    p_overlay.set_defaults(func=cmd_overlay)

    p_warm = sub.add_parser("geo-warm", help="pre-populate the geo cache for a list of IPs")
    p_warm.add_argument("ips", help="file with one IP per line")
    p_warm.add_argument("--geo-cache", type=Path, default=None)
    p_warm.add_argument("--geo-provider", choices=("none", "static", "http"), default=None)
    p_warm.add_argument("--geo-static-file", type=Path, default=None)
    p_warm.add_argument("--geo-base-url", default=None)
    p_warm.set_defaults(func=cmd_geo_warm)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
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
