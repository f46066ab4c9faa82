"""Seeded input generators for the four benchmark workloads.

Each generator writes one workload's input files into a directory and
returns the values the outputs must show, worked out while generating and
without importing detourkit: line, parse-error and drop counts by reason,
the exact aggregated edge weights, planted hop counts and city verdicts,
and the overlay leg moments. Only ``random.Random(seed)`` is used, so the
same seed gives byte-identical files.

    python3 perfbench/gen.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from random import Random

# first octets of plainly public IPv4 space, so the geo layer's reserved-range
# short-circuit never applies
_PUBLIC_OCTETS = (12, 23, 31, 45, 52, 62, 77, 81, 88, 91, 104, 128, 151, 176, 185, 195, 212)

EPOCH_2023 = 1672531200
DAY = 86400

# filter window of ingest-sharded; timestamps are drawn a few days wider
MIN_START = EPOCH_2023
MAX_START = EPOCH_2023 + 30 * DAY

LA_TOKENS = ("lax", "losangeles", "la-")
OTHER_CITIES = (
    ("sjc", "San Jose", "CA", "US"),
    ("sea", "Seattle", "WA", "US"),
    ("chi", "Chicago", "IL", "US"),
    ("dfw", "Dallas", "TX", "US"),
    ("den", "Denver", "CO", "US"),
    ("phx", "Phoenix", "AZ", "US"),
)
CITIES_BY_COUNTRY = {
    "US": ("New York", "Chicago", "Seattle", "Austin"),
    "CA": ("Toronto", "Montreal", "Vancouver"),
    "MX": ("Mexico City", "Monterrey"),
    "GB": ("London", "Manchester"),
    "DE": ("Berlin", "Frankfurt"),
    "BR": ("Sao Paulo",),
    "JP": ("Tokyo", "Osaka"),
}
FOREIGN = ("MX", "GB", "DE", "BR", "JP")
REGIONS = ("US", "CA")

SIZES = {
    "ingest-sharded": {"lines": 200_000, "files": 4, "anchors": 20, "probes": 120, "per_anchor": 3},
    "detours-dense": {"nodes": 200, "density": 0.3},
    "pipeline-wide": {"anchors": 300, "probes": 12_000, "targets": 4_400},
    "reports": {"traces": 2_500, "samples": 200_000},
}


def public_ips(rng: Random, count: int) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        ip = (
            f"{rng.choice(_PUBLIC_OCTETS)}.{rng.randrange(256)}."
            f"{rng.randrange(256)}.{rng.randrange(1, 255)}"
        )
        if ip not in seen:
            seen.add(ip)
            out.append(ip)
    return out


def representative(runs: list[float]) -> float:
    """Middle of three, mean of two, or the single run."""
    if len(runs) == 3:
        return sorted(runs)[1]
    if len(runs) == 2:
        return (runs[0] + runs[1]) / 2.0
    return runs[0]


def aggregate(groups: dict) -> list[list]:
    """Edge rows [source, destination, rtt_ms, samples, measurements].

    The weight is the mean over measurements of the per-measurement mean,
    with exactly rounded sums so record order cannot change it.
    """
    rows = []
    for (source, destination), by_msm in sorted(groups.items()):
        means = [math.fsum(rtts) / len(rtts) for rtts in by_msm.values()]
        rows.append(
            [
                source,
                destination,
                math.fsum(means) / len(means),
                sum(len(rtts) for rtts in by_msm.values()),
                len(by_msm),
            ]
        )
    return rows


def _draw_runs(rng: Random, base: float, shares: tuple[float, float, float]) -> list[float]:
    roll = rng.random()
    count = 3 if roll < shares[0] else 2 if roll < shares[1] else 1 if roll < shares[2] else 0
    return [round(base * rng.uniform(1.0, 1.3), 3) for _ in range(count)]


def _json_line(msm, prb, source, destination, af, ts, runs, rng, status=None) -> str:
    entries = ['{"rtt":%r}' % rtt for rtt in runs]
    while len(entries) < 3:
        entries.insert(rng.randrange(len(entries) + 1), '{"x":"*"}')
    extra = f',"status":"{status}"' if status is not None else ""
    return (
        f'{{"msm_id":{msm},"prb_id":{prb},"from":"{source}","dst_addr":"{destination}",'
        f'"af":{af},"timestamp":{ts},"result":[{",".join(entries)}]{extra}}}'
    )


def _csv_line(msm, source, destination, af, status, ts, runs) -> str:
    cells = [repr(rtt) for rtt in runs] + [""] * (3 - len(runs))
    return f"{msm},{source},{destination},{af},{status},{ts}," + ",".join(cells)


def _malformed_line(rng: Random, valid_json: str) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return valid_json[: rng.randrange(5, len(valid_json) - 1)]
    if kind == 1:
        return valid_json.replace('"msm_id"', '"msm"', 1)
    if kind == 2:
        return "1000,1.2.3.4,5.6.7.8,4,stopped,1672531200,10.0"
    return "1000,1.2.3.4,5.6.7.8,4,stopped,1672531200,abc,,"


class _Tally:
    """Expected ingest accounting, kept while records are generated."""

    def __init__(self) -> None:
        self.lines = 0
        self.parse_errors = 0
        self.kept = 0
        self.dropped: dict[str, int] = {}
        self.skipped: dict[str, int] = {}
        self.groups: dict = {}

    def drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    def keep(self, source: str, destination: str, msm: str, runs: list[float]) -> None:
        self.kept += 1
        if source == destination:
            self.skipped["self_pair"] = self.skipped.get("self_pair", 0) + 1
        elif not runs:
            self.skipped["no_data"] = self.skipped.get("no_data", 0) + 1
        else:
            by_msm = self.groups.setdefault((source, destination), {})
            by_msm.setdefault(msm, []).append(representative(runs))

    def expected(self) -> dict:
        edges = aggregate(self.groups)
        nodes = {row[0] for row in edges} | {row[1] for row in edges}
        return {
            "lines": self.lines,
            "parse_errors": self.parse_errors,
            "kept": self.kept,
            "dropped": dict(sorted(self.dropped.items())),
            "skipped": dict(sorted(self.skipped.items())),
            "nodes": len(nodes),
            "edges": edges,
        }


def gen_ingest_sharded(rng: Random, out: Path, size: dict) -> dict:
    """JSON-lines feeds with CSV-fallback and malformed lines, filtered by
    status (inline or from a sidecar), address family and start time."""
    ips = public_ips(rng, size["anchors"] + size["probes"])
    anchors, probes = ips[: size["anchors"]], ips[size["anchors"] :]
    msms = []  # (msm id, destination, probe set, weight)
    for index, anchor in enumerate(anchors):
        # two measurements per anchor sharing one probe, so one pair's weight
        # averages over two measurements
        first = rng.sample(probes, size["per_anchor"])
        second = first[:1] + rng.sample(probes, size["per_anchor"] - 1)
        for offset, chosen in enumerate((first, second)):
            msms.append((str(1000 + 2 * index + offset), anchor, chosen, rng.uniform(0.5, 2.0)))
    msm_ids = [m[0] for m in msms]
    via_sidecar = set(rng.sample(msm_ids, 10))
    ongoing = set(rng.sample(sorted(via_sidecar), 1)) | set(
        rng.sample(sorted(set(msm_ids) - via_sidecar), 2)
    )
    statuses = {msm: "ongoing" if msm in ongoing else "stopped" for msm in msm_ids}
    probe_ids = {ip: 10_000 + i for i, ip in enumerate(probes + anchors)}
    base = {}
    cum, total = [], 0.0
    for msm in msms:
        total += msm[3]
        cum.append(total)

    tally = _Tally()
    shards = [[] for _ in range(size["files"])]
    for _ in range(size["lines"]):
        msm, destination, chosen, _weight = rng.choices(msms, cum_weights=cum)[0]
        source = destination if rng.random() < 0.001 else rng.choice(chosen)
        pair = (source, destination)
        if pair not in base:
            base[pair] = rng.uniform(5.0, 150.0)
        ts = rng.randrange(MIN_START - 3 * DAY, MAX_START + 3 * DAY)
        af = 6 if rng.random() < 0.01 else 4
        runs = _draw_runs(rng, base[pair], (0.70, 0.85, 0.95))
        inline = statuses[msm] if msm not in via_sidecar else None
        roll = rng.random()
        shard = shards[rng.randrange(len(shards))]
        tally.lines += 1
        if roll < 0.005:
            shard.append(
                _malformed_line(rng, _json_line(msm, 1, source, destination, af, ts, runs, rng))
            )
            tally.parse_errors += 1
            continue
        if roll < 0.055:
            shard.append(_csv_line(msm, source, destination, af, inline or "", ts, runs))
        else:
            shard.append(
                _json_line(msm, probe_ids[source], source, destination, af, ts, runs, rng, inline)
            )
        if statuses[msm] != "stopped":
            tally.drop("status")
        elif af != 4:
            tally.drop("address_family")
        elif not MIN_START <= ts < MAX_START:
            tally.drop("start_time")
        else:
            tally.keep(source, destination, msm, runs)

    for index, lines in enumerate(shards):
        (out / f"feed-{index}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = ["measurement_id,status,start_time"]
    sidecar += [f"{msm},{statuses[msm]}," for msm in sorted(via_sidecar)]
    (out / "sidecar.csv").write_text("\n".join(sidecar) + "\n", encoding="utf-8")
    return tally.expected()


def gen_detours_dense(rng: Random, out: Path, size: dict) -> dict:
    """A snapshot of nodes on a plane: RTT = distance x stretch in 1.0-1.8,
    so triangle-inequality violations exist; absent pairs give bridges."""
    nodes = sorted(public_ips(rng, size["nodes"]))
    where = {node: (rng.uniform(0, 100), rng.uniform(0, 100)) for node in nodes}
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    # a fixed edge count keeps the work the same from seed to seed
    chosen = sorted(rng.sample(pairs, round(size["density"] * len(pairs))))
    rows = ["source,destination,rtt_ms,sample_count,measurement_count"]
    for source, destination in chosen:
        (x1, y1), (x2, y2) = where[source], where[destination]
        rtt = 1.0 + math.hypot(x1 - x2, y1 - y2) * rng.uniform(1.0, 1.8)
        samples = rng.randint(1, 50)
        measurements = rng.randint(1, min(samples, 5))
        rows.append(f"{source},{destination},{rtt:.3f},{samples},{measurements}")
    (out / "graph.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {"edges": len(rows) - 1}


def gen_pipeline_wide(rng: Random, out: Path, size: dict) -> dict:
    """Probes, anchors that ping each other, and targets, with a static geo
    file covering ~90% of the addresses; few samples per pair."""
    count = size["anchors"] + size["probes"] + size["targets"]
    ips = public_ips(rng, count)
    anchors = ips[: size["anchors"]]
    probes = ips[size["anchors"] : size["anchors"] + size["probes"]]
    targets = ips[size["anchors"] + size["probes"] :]

    country: dict[str, str] = {}
    geo_rows = ["ip,city,region,country"]
    for ip in ips:
        is_anchor = len(country) < size["anchors"]
        if not is_anchor and rng.random() >= 0.9:
            country[ip] = ""
            continue
        roll = rng.random()
        us, ca = (0.6, 0.8) if is_anchor else (0.5, 0.65)
        code = "US" if roll < us else "CA" if roll < ca else rng.choice(FOREIGN)
        country[ip] = code
        geo_rows.append(f"{ip},{rng.choice(CITIES_BY_COUNTRY[code])},,{code}")
    (out / "geo_static.csv").write_text("\n".join(geo_rows) + "\n", encoding="utf-8")
    (out / "ips.txt").write_text("# endpoints\n" + "\n".join(ips) + "\n", encoding="utf-8")

    msm_of = {ip: str(5000 + i) for i, ip in enumerate(anchors + targets)}
    plan = []  # (source, destination, samples)
    for anchor in anchors:
        others = rng.sample(anchors, 7)
        plan += [(anchor, other, 3) for other in others if other != anchor][:6]
    for probe in probes:
        plan.append((probe, rng.choice(anchors), 2))
        for target in rng.sample(targets, rng.randint(1, 2)):
            plan.append((probe, target, rng.randint(1, 2)))

    tally = _Tally()
    lines = []
    for source, destination, samples in plan:
        base = rng.uniform(5.0, 200.0)
        msm = msm_of[destination]
        for _ in range(samples):
            ts = rng.randrange(MIN_START, MAX_START)
            af = 6 if rng.random() < 0.005 else 4
            runs = _draw_runs(rng, base, (0.75, 0.87, 0.97))
            lines.append(_json_line(msm, 1, source, destination, af, ts, runs, rng, "stopped"))
            tally.lines += 1
            regions = (country[source], country[destination])
            if af != 4:
                tally.drop("address_family")
            elif "" in regions:
                tally.drop("region_unresolved")
            elif any(code not in REGIONS for code in regions):
                tally.drop("region")
            else:
                tally.keep(source, destination, msm, runs)
    rng.shuffle(lines)
    (out / "feed.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = tally.expected()
    expected["warm_total"] = count
    expected["warm_resolved"] = len(geo_rows) - 1
    return expected


def _rtts(rng: Random, count: int) -> str:
    return "  ".join(f"{rng.uniform(1, 80):.3f} ms" for _ in range(count))


def gen_reports(rng: Random, out: Path, size: dict) -> dict:
    """Trace files with planted hop counts and city verdicts, a geo cache for
    their hop addresses, and two overlay legs (one bimodal) plus a direct file."""
    traces = out / "traces"
    traces.mkdir()
    cache = ["ip,city,region,country,timestamp"]
    pool = iter(public_ips(rng, size["traces"] * 32))
    rows = []
    errors = 0
    for index in range(size["traces"]):
        label = f"site{index:05d}-{rng.choice(('wifi', 'att', 'verizon', 'campus'))}"
        destination = f"host{index}.example.org"
        path = traces / f"{index:05d}_{label}.txt"
        if rng.random() < 0.01:
            errors += 1
            body = [f"# {label} | {destination}"]
            kind = rng.randrange(3)
            if kind != 1:
                body += [f" 1  {next(pool)}  {_rtts(rng, 3)}"]
            if kind == 0:
                body += [f" 1  {next(pool)}  {_rtts(rng, 3)}"]
            if kind == 2:
                body += ["this line is not a hop"]
            path.write_text("\n".join(body) + "\n", encoding="utf-8")
            continue
        hops = rng.randint(10, 30)
        verdict = rng.choices(("yes", "no", "unknown"), weights=(40, 35, 25))[0]
        # unassessable hops: "no" needs fewer than half, "unknown" at least half
        half = (hops + 1) // 2
        if verdict == "no":
            dark = rng.randrange(0, half)
        elif verdict == "unknown":
            dark = rng.randint(half, hops)
        else:
            dark = rng.randint(0, hops - 1)
        kinds = ["dark"] * dark + ["lit"] * (hops - dark)
        rng.shuffle(kinds)
        if verdict == "yes":
            lit = [i for i, kind in enumerate(kinds) if kind == "lit"]
            kinds[rng.choice(lit)] = rng.choice(("la_token", "la_geo"))
        body = [
            f"# {label} | {destination}",
            f"traceroute to {destination} ({next(pool)}), 30 hops max, 60 byte packets",
        ]
        for number, kind in enumerate(kinds, start=1):
            address = next(pool)
            tag, city, region, country = rng.choice(OTHER_CITIES)
            isp = rng.choice(("zayo", "cogent", "telia", "ntt"))
            name = f"ae-{rng.randint(0, 9)}.core{rng.randint(1, 4)}.{tag}.{isp}.net"
            if kind == "dark":
                style = rng.randrange(3)
                if style == 0:
                    hop = "*  *  *"
                elif style == 1:
                    hop = f"{address}  {_rtts(rng, 3)}"
                else:
                    hop = f"{address} ({address})  {_rtts(rng, 2)}"
            elif kind == "la_token":
                token = rng.choice(LA_TOKENS)
                core = "core" if token == "la-" else ""
                hop = f"{token}{core}{rng.randint(1, 9)}.{isp}.net ({address})  {_rtts(rng, 3)}"
            elif kind == "la_geo":
                cache.append(f"{address},Los Angeles,CA,US,{EPOCH_2023}")
                hop = f"{address}  {_rtts(rng, 3)}"
            else:
                style = rng.randrange(4)
                if style == 0:
                    # located bare address: assessable through the geo cache
                    cache.append(f"{address},{city},{region},{country},{EPOCH_2023}")
                    hop = f"{address}  {_rtts(rng, 3)}"
                elif style == 1:
                    # load balanced: only the first responder names the hop,
                    # so an LA token on the second one is not evidence
                    other = f"lax{rng.randint(1, 9)}.{isp}.net"
                    hop = (
                        f"{name} ({address})  {_rtts(rng, 1)} "
                        f"{other} ({next(pool)})  {_rtts(rng, 2)}"
                    )
                else:
                    hop = f"{name} ({address})  {_rtts(rng, 3)}"
            body.append(f"{number:2d}  {hop}")
        path.write_text("\n".join(body) + "\n", encoding="utf-8")
        rows.append([label, destination, hops, verdict.capitalize()])
    (out / "trace_geo_cache.csv").write_text("\n".join(cache) + "\n", encoding="utf-8")

    normal = statistics.NormalDist()

    def stratified(parts: list[tuple[int, float, float]]) -> list[float]:
        # one draw per equal-probability stratum keeps every histogram bin
        # within one count of its expectation, so planted modality is exact
        values = []
        for count, mean, sd in parts:
            for i in range(count):
                p = (i + 1.0 - rng.random()) / (count + 1)
                values.append(round(mean + sd * normal.inv_cdf(p), 3))
        rng.shuffle(values)
        return values

    n = size["samples"]
    legs = {
        "leg_ab": (stratified([(n, 20.0, 2.0)]), "unimodal"),
        "leg_bc": (stratified([(n * 3 // 5, 15.0, 1.5), (n - n * 3 // 5, 30.0, 2.0)]), "bimodal"),
        "direct_ac": (stratified([(n, 40.0, 3.0)]), "unimodal"),
    }
    moments = {}
    for name, (values, modality) in legs.items():
        text = "# rtt_ms\n" + "\n".join(f"{v:.3f}" for v in values) + "\n"
        (out / f"{name}.txt").write_text(text, encoding="utf-8")
        moments[name] = {
            "n": len(values),
            "mean": math.fsum(values) / len(values),
            "median": statistics.median(values),
            "modality": modality,
        }
    return {"traces": rows, "trace_errors": errors, "legs": moments}


_SCALED = ("lines", "nodes", "probes", "targets", "traces", "samples")

GENERATORS = {
    "ingest-sharded": gen_ingest_sharded,
    "detours-dense": gen_detours_dense,
    "pipeline-wide": gen_pipeline_wide,
    "reports": gen_reports,
}


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write the workload's inputs into ``out`` and return the expected values.

    ``scale`` shrinks the count-like sizes; the benchmark always uses 1.
    """
    size = {
        key: max(6, int(value * scale)) if key in _SCALED else value
        for key, value in SIZES[workload].items()
    }
    out.mkdir(parents=True, exist_ok=True)
    rng = Random(f"{workload}:{seed}")
    expected = GENERATORS[workload](rng, out, size)
    (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return expected


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
