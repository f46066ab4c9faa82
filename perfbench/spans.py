"""Span tracing for the traced benchmark run.

Run as a program, this module executes one detourkit CLI command in-process
with the benchmark's own wrappers around each layer's public functions, as
the CLI sees them, and writes the spans to a JSON file once at the end::

    python3 perfbench/spans.py SPANS.json RUN_ID -- <detourkit arguments>

Per-record and per-lookup calls are aggregated: all calls of one function
under one parent span share a span holding a count and a total time.
Generators are wrapped so that time spent pulling a record is charged to the
layer that produces it. :func:`layer_metrics` turns span files into the
per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "count", "total", "rss_kb", "kids")

    def __init__(self, span_id: int, name: str, parent: "Span | None") -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = None
        self.end = 0.0
        self.count = 0
        self.total = 0.0
        self.rss_kb = 0
        self.kids: dict[str, Span] = {}


class Tracer:
    """In-memory spans, aggregated per (name, parent)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.roots: dict[str, Span] = {}
        self.stack: list[Span] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _span(self, name: str, parent: Span | None) -> Span:
        kids = parent.kids if parent is not None else self.roots
        span = kids.get(name)
        if span is None:
            span = kids[name] = Span(len(self.spans), name, parent)
            self.spans.append(span)
        return span

    def call(self, name: str, fn, args=(), kwargs=None, rss: bool = False):
        stack = self.stack
        span = self._span(name, stack[-1] if stack else None)
        stack.append(span)
        rss_before = _maxrss_kb() if rss else 0
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            if span.start is None:
                span.start = start
            span.end = end
            span.count += 1
            span.total += end - start
            if rss:
                span.rss_kb += _maxrss_kb() - rss_before

    def iterate(self, name: str, iterator, items_key: str | None = None):
        """Re-yield ``iterator``, charging each pull to span ``name``."""
        stack = self.stack
        parent = span = None
        items = 0
        try:
            while True:
                top = stack[-1] if stack else None
                if span is None or top is not parent:
                    parent, span = top, self._span(name, top)
                stack.append(span)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    if span.start is None:
                        span.start = start
                    span.end = end
                    span.count += 1
                    span.total += end - start
                items += 1
                yield item
        finally:
            if items_key is not None:
                self.add(items_key, items)

    def wrap(self, name: str, fn, rss: bool = False, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, rss)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: Path, **extra) -> None:
        doc = {
            "run": self.run_id,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent.id if s.parent is not None else None,
                    "run": self.run_id,
                    "start": s.start,
                    "end": s.end,
                    "count": s.count,
                    "total": s.total,
                    "rss_kb": s.rss_kb,
                }
                for s in self.spans
            ],
            "counts": self.counts,
            **extra,
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def install(tracer: Tracer, cli) -> dict:
    """Wrap each layer's public functions where ``cli`` looks them up.

    Returns the graphs, files and feed counters seen, to be measured by
    :func:`count_after` once ``main`` returns, so that measuring them is not
    charged to any span.
    """
    from detourkit import geo, stats, traceroute
    from detourkit import detours as detours_mod
    from detourkit.errors import ParseError

    seen: dict = {"built": [], "loaded": [], "searched": [], "files": [], "feed_stats": {}}

    def patch(owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is not None:
            setattr(owner, attr, make(original))

    def generator(name, items_key=None, before=None):
        def make(fn):
            def traced(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                return tracer.iterate(name, iter(fn(*args, **kwargs)), items_key)

            return traced

        return make

    def plain(name, rss=False, after=None):
        return lambda fn: tracer.wrap(name, fn, rss, after)

    def remember_stats(*args, stats=None, **kwargs):
        if stats is not None:
            seen["feed_stats"][id(stats)] = stats

    def loaded(graph, path):
        seen["loaded"].append(graph)
        seen["files"].append(path)

    patch(cli, "read_result_file", generator("ingest.parse", before=remember_stats))
    patch(cli, "filter_records", generator("ingest.filter", items_key="ingest.kept"))
    patch(
        cli,
        "build_graph",
        plain("graph.build", rss=True, after=lambda g, *a, **k: seen["built"].append(g)),
    )
    patch(cli, "save_graph", plain("graph.save", after=lambda r, g, p: seen["files"].append(p)))
    patch(cli, "load_graph", plain("graph.load", after=loaded))
    patch(
        detours_mod,
        "enumerate_detours",
        generator("detours.enumerate", before=lambda g, **k: seen["searched"].append(g)),
    )
    patch(
        detours_mod,
        "report_order",
        plain(
            "detours.order",
            rss=True,
            after=lambda r, *a: tracer.add("detours.insights", len(r)),
        ),
    )
    patch(
        detours_mod,
        "improvement_histogram",
        plain(
            "detours.histogram",
            rss=True,
            after=lambda h, *a, **k: tracer.add("detours.improvable_pairs", h.total_pairs()),
        ),
    )
    patch(detours_mod, "write_insights_csv", plain("detours.write", rss=True))
    patch(detours_mod, "write_histogram_csv", plain("detours.write", rss=True))

    def count_hit(record, *args):
        if record.source == geo.SOURCE_CACHE:
            tracer.add("geo.cache_hits")

    patch(geo.GeoLookup, "lookup", plain("geo.lookup", after=count_hit))
    patch(geo.GeoCache, "get", plain("geo.cache_get"))
    patch(geo.GeoCache, "put", plain("geo.cache_put"))
    for provider in (geo.NullGeoProvider, geo.StaticFileGeoProvider, geo.HttpGeoProvider):
        patch(provider, "fetch", plain("geo.provider_fetch"))
    patch(geo, "annotate", generator("geo.annotate"))

    def read_trace(fn):
        def traced(*args, **kwargs):
            try:
                trace = tracer.call("traceroute.read", fn, args, kwargs)
            except ParseError:
                tracer.add("traceroute.parse_errors")
                raise
            tracer.add("traceroute.hops", len(trace.hops))
            return trace

        return traced

    patch(traceroute, "read_trace_file", read_trace)
    patch(traceroute, "detect_city", plain("traceroute.detect"))
    patch(
        stats,
        "read_samples",
        plain("stats.read_samples", after=lambda r, *a: tracer.add("stats.samples", len(r))),
    )
    patch(stats, "summarize", plain("stats.summarize"))
    patch(stats, "frequency_distribution", plain("stats.distribution"))
    return seen


def count_after(tracer: Tracer, seen: dict) -> None:
    """Counts taken from what the wrapped calls returned or were given."""
    for graph in seen["built"]:
        tracer.add("graph.groups", sum(e.measurement_count for e in graph.edges()))
    for graph in seen["built"] + seen["loaded"]:
        tracer.counts["graph.edges"] = max(tracer.counts.get("graph.edges", 0), graph.edge_count)
    for graph in seen["searched"]:
        # triplets (s, via, d) with s -> via -> d and d != s
        indegree: dict = {}
        two_way = 0
        for e in graph.edges():
            indegree[e.destination] = indegree.get(e.destination, 0) + 1
            two_way += graph.edge(e.destination, e.source) is not None
        triplets = sum(indegree.get(n, 0) * len(graph.successors(n)) for n in graph.nodes())
        tracer.add("detours.triplets", triplets - two_way)
    for path in seen["files"]:
        size = Path(path).stat().st_size if Path(path).exists() else 0
        tracer.counts["graph.snapshot_bytes"] = max(
            tracer.counts.get("graph.snapshot_bytes", 0), size
        )
    for stats in seen["feed_stats"].values():
        tracer.add("ingest.lines", stats.lines)
        tracer.add("ingest.parse_errors", stats.parse_errors)


def main(argv: list[str]) -> int:
    spans_path, run_id, _dashes, *cli_args = argv
    start = perf_counter()
    import detourkit.cli as cli

    import_s = perf_counter() - start
    tracer = Tracer(run_id)
    seen = install(tracer, cli)
    code = 1
    try:
        code = tracer.call("cli.main", cli.main, (cli_args,), rss=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        count_after(tracer, seen)
        tracer.dump(Path(spans_path), import_s=import_s)
    return code


# Span name -> per-layer metric of its self time (span minus children).
SELF_TIME = {
    "ingest.parse": "ingest.parse_s",
    "ingest.filter": "ingest.filter_s",
    "graph.build": "graph.build_s",
    "graph.save": "graph.save_s",
    "graph.load": "graph.load_s",
    "detours.enumerate": "detours.enumerate_s",
    "detours.order": "detours.order_s",
    "detours.histogram": "detours.histogram_s",
    "detours.write": "detours.write_s",
    "geo.annotate": "geo.annotate_s",
    "traceroute.read": "traceroute.read_s",
    "traceroute.detect": "traceroute.detect_s",
    "stats.read_samples": "stats.read_samples_s",
    "stats.summarize": "stats.summarize_s",
    "stats.distribution": "stats.distribution_s",
    "cli.main": "cli.self_s",
}
# Span name -> metric of its total time, children included.
TOTAL_TIME = {"geo.lookup": "geo.lookup_s", "geo.cache_put": "geo.cache_put_s"}
CALLS = {
    "geo.lookup": "geo.lookups",
    "geo.provider_fetch": "geo.provider_calls",
    "geo.cache_put": "geo.cache_puts",
    "traceroute.read": "traceroute.files",
}
COUNTS = (
    "ingest.lines",
    "ingest.parse_errors",
    "ingest.kept",
    "graph.groups",
    "graph.edges",
    "graph.snapshot_bytes",
    "detours.triplets",
    "detours.insights",
    "detours.improvable_pairs",
    "traceroute.parse_errors",
    "traceroute.hops",
    "stats.samples",
)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's total minus the totals of its direct children."""
    own = {s["id"]: s["total"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["total"]
    return own


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the span files of one workload run."""
    metrics = {name: 0.0 for name in (*SELF_TIME.values(), *TOTAL_TIME.values())}
    metrics.update({name: 0 for name in (*CALLS.values(), *COUNTS)})
    rss = {"graph.build": 0, "detours": 0}
    hits = 0
    for doc in docs:
        own = self_times(doc["spans"])
        for s in doc["spans"]:
            name = s["name"]
            if name in SELF_TIME:
                metrics[SELF_TIME[name]] += own[s["id"]]
            if name in TOTAL_TIME:
                metrics[TOTAL_TIME[name]] += s["total"]
            if name in CALLS:
                metrics[CALLS[name]] += s["count"]
            if name == "graph.build":
                rss["graph.build"] += s["rss_kb"]
            elif name in ("detours.order", "detours.histogram", "detours.write"):
                rss["detours"] += s["rss_kb"]
        for name in COUNTS:
            value = doc["counts"].get(name, 0)
            if name in ("graph.edges", "graph.snapshot_bytes"):
                metrics[name] = max(metrics[name], value)
            else:
                metrics[name] += value
        hits += doc["counts"].get("geo.cache_hits", 0)
    metrics["ingest.kept_ratio"] = (
        metrics["ingest.kept"] / metrics["ingest.lines"] if metrics["ingest.lines"] else 0.0
    )
    metrics["detours.pairs_per_insight"] = (
        metrics["detours.improvable_pairs"] / metrics["detours.insights"]
        if metrics["detours.insights"]
        else 0.0
    )
    metrics["geo.cache_hit_ratio"] = (
        hits / metrics["geo.lookups"] if metrics["geo.lookups"] else 0.0
    )
    metrics["graph.build_rss_growth_mb"] = rss["graph.build"] / 1024
    metrics["detours.rss_growth_mb"] = rss["detours"] / 1024
    metrics["cli.import_s"] = sum(doc["import_s"] for doc in docs) / len(docs) if docs else 0.0
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
