"""Geolocation lookups: cache, providers, reserved ranges, locate."""

from __future__ import annotations

import ipaddress
import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from detourkit import geo as geo_module
from detourkit.errors import InvalidAddressError
from detourkit.geo import (
    GeoCache,
    GeoLookup,
    GeoRecord,
    HttpGeoProvider,
    StaticFileGeoProvider,
)


class CountingProvider:
    """Scripted provider that records how often it was asked."""

    source_label = "provider"

    def __init__(self, answers=None):
        self.answers = answers or {}
        self.calls = []

    def fetch(self, ip):
        self.calls.append(ip)
        return self.answers.get(ip)


def is_reserved_oracle(number: int) -> bool:
    """The six address classes of the running Python's ipaddress."""
    address = ipaddress.IPv4Address(number)
    return (
        address.is_private
        or address.is_reserved
        or address.is_loopback
        or address.is_link_local
        or address.is_multicast
        or address.is_unspecified
    )


# any address, or one of a few reserved, cacheable and never-cached ones
ADDRESS_NUMBERS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        [
            int(ipaddress.IPv4Address(ip))
            for ip in ("10.0.0.1", "127.0.0.1", "192.168.1.1", "8.0.0.1", "9.9.9.9")
        ]
    ),
)
# probe ids and host names: endpoint texts that are not addresses
NON_ADDRESSES = st.one_of(
    st.integers(0, 10**6).map(str),
    st.from_regex(r"[a-z][a-z0-9-]{0,8}\.example", fullmatch=True),
)
# a cache row's city, region and country; a city always has its country
PLACES = st.sampled_from(
    [
        ("Reno", "NV", "US"),
        (None, "IDF", "FR"),
        (None, None, "JP"),
        (None, None, None),
    ]
)


def spell_with_zeros(data, number: int) -> str:
    """The dotted quad of ``number`` with leading zeros drawn per octet."""
    octets = str(ipaddress.IPv4Address(number)).split(".")
    zeros = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    return ".".join("0" * count + octet for count, octet in zip(zeros, octets))


class TestLookup:
    def test_cache_hit(self, tmp_path):
        cache_path = tmp_path / "cache.csv"
        cache_path.write_text(
            "ip,city,region,country,timestamp\n8.8.8.8,San Diego,CA,US,123\n", encoding="utf-8"
        )
        provider = CountingProvider()
        lookup = GeoLookup(cache=GeoCache(cache_path), provider=provider)
        record = lookup.lookup("8.8.8.8")
        assert record == GeoRecord("8.8.8.8", "San Diego", "CA", "US", "cache")
        assert provider.calls == []

    def test_provider_miss_persists_to_cache(self, tmp_path):
        provider = CountingProvider({"9.9.9.9": ("Paris", "IDF", "FR")})
        with GeoCache(tmp_path / "cache.csv") as cache:
            lookup = GeoLookup(cache=cache, provider=provider)
            record = lookup.lookup("9.9.9.9")
        assert record.city == "Paris" and record.source == "provider"
        assert provider.calls == ["9.9.9.9"]
        # round-trip through a fresh cache object reads the persisted row
        again = GeoLookup(cache=GeoCache(tmp_path / "cache.csv"), provider=CountingProvider())
        reloaded = again.lookup("9.9.9.9")
        assert reloaded.city == "Paris" and reloaded.source == "cache"

    def test_provider_failure_degrades_to_unknown(self):
        provider = CountingProvider()  # answers nothing
        lookup = GeoLookup(cache=None, provider=provider)
        record = lookup.lookup("9.9.9.9")
        assert record.city is None and record.country is None
        assert record.source == "provider"

    def test_idempotent_and_each_miss_asks_the_provider(self):
        # a miss is not remembered: callers that repeat an address ask again
        provider = CountingProvider()
        lookup = GeoLookup(cache=None, provider=provider)
        first = lookup.lookup("9.9.9.9")
        second = lookup.lookup("9.9.9.9")
        assert first == second
        assert provider.calls == ["9.9.9.9", "9.9.9.9"]

    def test_reserved_ranges_skip_provider(self):
        provider = CountingProvider()
        lookup = GeoLookup(cache=None, provider=provider)
        for ip in ("10.0.0.1", "127.0.0.1", "192.168.1.1", "169.254.0.5", "224.0.0.1", "0.0.0.0"):
            assert is_reserved_oracle(int(ipaddress.IPv4Address(ip)))
            record = lookup.lookup(ip)
            assert record.city is None and record.country is None
        assert provider.calls == []

    @pytest.mark.parametrize(
        "number",
        sorted(
            {0, 2**32 - 1}
            | {
                bound + step
                for bound in geo_module._RESERVED_BOUNDS
                for step in (-1, 0, 1)
                if 0 <= bound + step < 2**32
            }
        ),
    )
    def test_reserved_table_edges_match_ipaddress(self, number):
        assert geo_module._is_reserved(str(ipaddress.IPv4Address(number))) == is_reserved_oracle(
            number
        )

    @given(st.integers(0, 2**32 - 1))
    def test_reserved_table_matches_ipaddress(self, number):
        assert geo_module._is_reserved(str(ipaddress.IPv4Address(number))) == is_reserved_oracle(
            number
        )

    def test_invalid_address(self):
        lookup = GeoLookup()
        with pytest.raises(InvalidAddressError):
            lookup.lookup("not-an-ip")
        with pytest.raises(InvalidAddressError):
            lookup.lookup("1.2.3.999")

    def test_null_provider_default(self):
        record = GeoLookup().lookup("9.9.9.9")
        assert record.country is None


class TestCache:
    def test_persist_reload_round_trip(self, tmp_path):
        path = tmp_path / "cache.csv"
        with GeoCache(path) as cache:
            cache.put(GeoRecord("1.1.1.1", "Sydney", "NSW", "AU", "provider"))
            cache.put(GeoRecord("2.2.2.2", None, None, None, "provider"))
            # every put is flushed: a second cache reads the rows before close
            reloaded = GeoCache(path)
        assert reloaded.get("1.1.1.1") == GeoRecord("1.1.1.1", "Sydney", "NSW", "AU", "cache")
        assert reloaded.get("2.2.2.2") == GeoRecord("2.2.2.2", None, None, None, "cache")
        assert len(reloaded) == 2

    def test_last_entry_wins(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text(
            "ip,city,region,country,timestamp\n"
            "1.1.1.1,Old Town,XX,US,1\n"
            "1.1.1.1,Sydney,NSW,AU,2\n",
            encoding="utf-8",
        )
        assert GeoCache(path).get("1.1.1.1").city == "Sydney"

    def test_puts_share_one_handle_and_read_back(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(geo_module, "open", counting_open, raising=False)
        path = tmp_path / "cache.csv"
        records = [GeoRecord(f"8.0.0.{i}", "Reno", "NV", "US", "provider") for i in range(1, 6)]
        with GeoCache(path) as cache:
            for record in records:
                cache.put(record)
        assert opened == [path]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ip,city,region,country,timestamp"
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"8.0.0.{i},Reno,NV,US" for i in range(1, 6)
        ]
        reloaded = GeoCache(path)
        assert [reloaded.get(r.ip) for r in records] == [
            GeoRecord(r.ip, "Reno", "NV", "US", "cache") for r in records
        ]

    def test_torn_last_line_is_skipped_and_cut_before_the_next_put(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text(
            "ip,city,region,country,timestamp\n8.8.0.6,Reno,NV,US,1\n8.8.0.7,San Di",
            encoding="utf-8",
        )
        cache = GeoCache(path)
        assert cache.torn_lines == 1
        assert len(cache) == 1
        # the torn row is a miss, not an unknown hit, so the provider is asked
        provider = CountingProvider({"8.8.0.8": ("Austin", "TX", "US")})
        with cache:
            lookup = GeoLookup(cache=cache, provider=provider)
            assert lookup.lookup("8.8.0.7").country is None
            assert lookup.lookup("8.8.0.8").city == "Austin"
        assert provider.calls == ["8.8.0.7", "8.8.0.8"]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["ip,city,region,country,timestamp", "8.8.0.6,Reno,NV,US,1"]
        assert lines[2].startswith("8.8.0.8,Austin,TX,US,") and len(lines) == 3
        reloaded = GeoCache(path)
        assert reloaded.torn_lines == 0
        assert reloaded.get("8.8.0.7") is None
        assert reloaded.get("8.8.0.8") == GeoRecord("8.8.0.8", "Austin", "TX", "US", "cache")

    def test_place_names_are_shared(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text(
            "ip,city,region,country\n8.0.0.1,Reno,NV,US\n8.0.0.2,Reno,NV,US\n", encoding="utf-8"
        )
        cache = GeoCache(path)
        first, second = cache.get("8.0.0.1"), cache.get("8.0.0.2")
        assert first.city is second.city and first.country is second.country

    def test_rows_of_one_place_share_one_place(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text(
            "ip,city,region,country,timestamp\n"
            "8.0.0.1,Reno,NV,US,1\n"
            "8.0.0.2, Reno ,NV,US,1\n"
            "8.0.0.3,,,US,1\n"
            "10.0.0.1,Reno,NV,US,1\n"
            "8.0.0.4,Ghost Town,,,1\n"
            "8.0.0.3,Austin,TX,US,2\n"
            "8.0.0.5,Re",
            encoding="utf-8",
        )
        reno, austin, unknown = ("Reno", "NV", "US"), ("Austin", "TX", "US"), (None, None, None)
        places = {"8.0.0.1": reno, "8.0.0.2": reno, "8.0.0.3": austin, "10.0.0.1": reno,
                  "8.0.0.4": unknown}
        cache = GeoCache(path)
        assert (cache.torn_lines, len(cache)) == (1, 5)
        for ip, place in places.items():
            assert cache.get(ip) == GeoRecord(ip, *place, "cache")
        assert cache.get("8.0.0.5") is None
        assert cache.place(" 8.0.0.001") == GeoRecord("8.0.0.1", *reno, "cache")
        assert cache.place("8.0.0.3") == GeoRecord("8.0.0.3", *austin, "cache")
        assert cache.place("10.0.0.1") is None  # reserved
        assert cache.place("8.0.0.5") is None  # torn
        with cache:
            cache.put(GeoRecord("8.0.0.9", *reno, "provider"))
        assert cache.get("8.0.0.9") == GeoRecord("8.0.0.9", *reno, "cache")
        # one place tuple per distinct place, whether loaded or put
        held = cache._entries
        assert held["8.0.0.1"] is held["8.0.0.2"] is held["10.0.0.1"] is held["8.0.0.9"]
        assert len({id(place) for place in held.values()}) == 3


class TestProviders:
    def test_static_file(self, tmp_path):
        table = tmp_path / "geo.csv"
        table.write_text(
            "ip,city,region,country\n"
            "8.0.0.7,Milpitas,CA,US\n9.0.0.9,,,AU\n8.0.0.8,Milpitas,CA,US\n",
            encoding="utf-8",
        )
        provider = StaticFileGeoProvider(table)
        assert provider.fetch("8.0.0.7") == ("Milpitas", "CA", "US")
        assert provider.fetch("8.0.0.8") is provider.fetch("8.0.0.7")  # one tuple per place
        assert provider.fetch("9.0.0.9") == (None, None, "AU")
        assert provider.fetch("9.0.0.250") is None
        lookup = GeoLookup(provider=provider)
        assert lookup.lookup("8.0.0.7").source == "static_file"

    def test_city_without_country_is_dropped(self, tmp_path):
        table = tmp_path / "geo.csv"
        table.write_text("8.0.0.7,Ghost Town,,\n", encoding="utf-8")
        record = GeoLookup(provider=StaticFileGeoProvider(table)).lookup("8.0.0.7")
        assert record.city is None and record.country is None

    def test_http_provider_with_injected_fetcher(self):
        seen = []

        def fake(url, timeout):
            seen.append(url)
            return {"city": "Newark", "region": "NJ", "country": "US", "org": "ISP"}

        provider = HttpGeoProvider("http://geo.example/json", min_interval_s=0.0, fetcher=fake)
        assert provider.fetch("8.0.0.7") == ("Newark", "NJ", "US")
        assert seen == ["http://geo.example/json/8.0.0.7"]

    def test_http_provider_error_degrades(self):
        def broken(url, timeout):
            raise OSError("offline")

        provider = HttpGeoProvider("http://geo.example", min_interval_s=0.0, fetcher=broken)
        assert provider.fetch("8.0.0.7") is None

    def test_http_provider_rate_limit(self):
        provider = HttpGeoProvider(
            "http://geo.example", min_interval_s=0.05, fetcher=lambda u, t: {}
        )
        started = time.monotonic()
        provider.fetch("8.0.0.1")
        provider.fetch("8.0.0.2")
        assert time.monotonic() - started >= 0.05

    def test_http_provider_against_local_server(self, tmp_path):
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                ip = self.path.rsplit("/", 1)[-1]
                payload = json.dumps({"city": "Hilliard", "region": "OH", "country": "US", "ip": ip})
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(payload.encode())

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_port}"
            provider = HttpGeoProvider(base, min_interval_s=0.0)
            with GeoCache(tmp_path / "cache.csv") as cache:
                record = GeoLookup(cache=cache, provider=provider).lookup("8.0.0.77")
            assert record == GeoRecord("8.0.0.77", "Hilliard", "OH", "US", "provider")
            assert GeoCache(tmp_path / "cache.csv").get("8.0.0.77").city == "Hilliard"
        finally:
            server.shutdown()
            server.server_close()


class TestLocate:
    """``GeoCache.place``: the cache-only question of ``ingest --regions``,
    ``detours`` and ``traceroutes``."""

    CACHE = (
        "ip,city,region,country,timestamp\n"
        "8.0.0.1,Milpitas,CA,US,1\n"
        "10.0.0.1,Reserved City,XX,US,1\n"
        "100,Chicago,IL,US,1\n"
        "host.example,Somewhere,XX,US,1\n"
    )

    def cache_with(self, tmp_path):
        cache_path = tmp_path / "cache.csv"
        cache_path.write_text(self.CACHE, encoding="utf-8")
        return GeoCache(cache_path)

    def test_cached_hit(self, tmp_path):
        place = self.cache_with(tmp_path).place
        assert place("8.0.0.1") == GeoRecord("8.0.0.1", "Milpitas", "CA", "US", "cache")
        assert place(" 8.0.0.001 ").city == "Milpitas"

    @pytest.mark.parametrize("text", ["100", "host.example", "10.0.0.1"])
    def test_unknown_without_provider_call(self, tmp_path, text):
        # a probe id, a host name and a reserved address, each with a cache
        # row: the cache alone answers, and it answers unknown
        assert self.cache_with(tmp_path).place(text) is None

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cache_only_locate_matches_a_dict_oracle(self, data):
        numbers = data.draw(st.lists(ADDRESS_NUMBERS, min_size=1, max_size=8, unique=True))
        addresses = [str(ipaddress.IPv4Address(number)) for number in numbers]
        others = data.draw(st.lists(NON_ADDRESSES, max_size=4))
        rows = data.draw(st.lists(st.tuples(st.sampled_from(addresses + others), PLACES)))
        cached = dict(rows)  # the last row wins
        with tempfile.TemporaryDirectory() as directory:
            cache_path = Path(directory) / "cache.csv"
            cache_path.write_text(
                "ip,city,region,country,timestamp\n"
                + "".join(f"{ip},{','.join(p or '' for p in place)},1\n" for ip, place in rows),
                encoding="utf-8",
            )
            # each text -> the address it spells, None for the other texts
            spelled = {spell_with_zeros(data, number): number for number in numbers}
            spelled.update(dict.fromkeys(others))
            texts = data.draw(st.lists(st.sampled_from(sorted(spelled)), min_size=1))
            # a cache kept for some texts answers for them as the whole cache does
            only = data.draw(st.lists(st.sampled_from(texts)))
            place, place_only = GeoCache(cache_path).place, GeoCache(cache_path, only).place
            for text in texts:
                number = spelled[text]
                address = None if number is None else str(ipaddress.IPv4Address(number))
                if address is None or is_reserved_oracle(number) or address not in cached:
                    expected = None
                else:
                    expected = GeoRecord(address, *cached[address], "cache")
                assert place(text) == expected
                if text in only:
                    assert place_only(text) == expected
            # and holds a record for the cached addresses they spell alone
            kept = {str(ipaddress.IPv4Address(spelled[t])) for t in only if spelled[t] is not None}
            assert len(GeoCache(cache_path, only)) == len(kept & cached.keys())


class TestGeoRecordInvariant:
    def test_city_requires_country(self):
        with pytest.raises(ValueError):
            GeoRecord("1.1.1.1", "Sydney", "NSW", None, "cache")
