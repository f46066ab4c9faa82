"""Distribution summaries, relay composition and route comparison."""

from __future__ import annotations

import math
import random
import statistics
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import frequency_distribution, monte_carlo_compose, summarize, summary_from_moments
from detourkit.cli import SUMMARY_COLUMNS, write_table
from detourkit.errors import EmptyInputError, ParseError, ToolkitError
from detourkit.stats import RttSummary, compare, compose, describe, read_samples
from detourkit.stats import _peaks

# full-precision per-leg statistics of the reference measurement runs
LEG_AB = dict(
    mean_ms=57.451219512195124,
    median_ms=58.0,
    variance_ms2=159.0850188379932,
    mode_ms=59.0,
)
LEG_BC = dict(
    mean_ms=10.466880566801635,
    median_ms=12.216999999999999,
    variance_ms2=11.510906220553505,
    mode_ms=12.52,
)
DIRECT_AC = dict(
    mean_ms=61.723446893787575,
    median_ms=62.0,
    variance_ms2=117.50267669607766,
    mode_ms=61.0,
)


def leg(stats_dict, modality="unimodal", n=1000):
    return summary_from_moments(sample_count=n, modality=modality, **stats_dict)


class TestSummarize:
    def test_constant_input(self):
        summary = summarize([4.0, 4.0, 4.0])
        assert summary.mean_ms == 4.0
        assert summary.median_ms == 4.0
        assert summary.variance_ms2 == 0.0
        assert summary.mode_ms == 4.0
        assert summary.std_dev_ms == 0.0
        assert summary.modality == "unimodal"
        assert summary.sample_count == 3

    def test_even_count_median_midpoint(self):
        assert summarize([1.0, 2.0, 3.0, 4.0]).median_ms == 2.5

    def test_mode_is_center_of_fullest_bin(self):
        # 10.2 and 10.3 fall in the bins centered at 10.0 and 10.5
        assert summarize([10.2, 10.2, 10.3]).mode_ms == 10.0

    def test_mode_count_tie_takes_lower_bin(self):
        assert summarize([1.0, 2.0]).mode_ms == 1.0

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            summarize([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            summarize([1.0, 0.0])

    def test_mean_and_variance_match_oracle(self):
        rng = random.Random(9)
        samples = [rng.uniform(1, 200) for _ in range(5000)]
        summary = summarize(samples)
        mu = statistics.fmean(samples)
        assert summary.mean_ms == pytest.approx(mu, rel=1e-12)
        assert summary.variance_ms2 == pytest.approx(statistics.pvariance(samples, mu), rel=1e-9)
        assert summary.median_ms == statistics.median(samples)
        assert summary.std_dev_ms == pytest.approx(math.sqrt(summary.variance_ms2), rel=1e-12)

    def test_mean_matches_naive_recomputation_at_scale(self):
        rng = random.Random(1)
        samples = [rng.uniform(0.5, 300) for _ in range(1_000_000)]
        # plain left-fold over sorted values: a different summation path
        naive = 0.0
        for value in sorted(samples):
            naive += value
        assert summarize(samples).mean_ms == pytest.approx(naive / len(samples), rel=1e-9)

    def test_two_cluster_sample_is_bimodal_with_heavy_mode(self):
        rng = random.Random(42)
        samples = [rng.gauss(4.0, 0.5) for _ in range(200)]
        samples += [rng.gauss(12.5, 0.5) for _ in range(800)]
        summary = summarize(samples)
        assert summary.modality == "bimodal"
        assert abs(summary.mode_ms - 12.5) <= 0.5

    def test_small_secondary_peak_is_noise(self):
        assert summarize([10.0] * 50 + [20.0] * 4).modality == "unimodal"
        assert summarize([10.0] * 50 + [20.0] * 5).modality == "bimodal"

    def test_three_clusters_multimodal(self):
        samples = [10.0] * 30 + [20.0] * 25 + [30.0] * 20
        assert summarize(samples).modality == "multimodal"

    def test_adjacent_plateau_is_one_peak(self):
        # equal-count neighboring bins form a single plateau peak
        assert summarize([10.0] * 5 + [10.5] * 5).modality == "unimodal"

    @given(
        samples=st.lists(st.integers(1, 400).map(lambda k: k / 4), min_size=1, max_size=60),
        shift_steps=st.integers(min_value=1, max_value=20),
    )
    def test_mode_shift_equivariance(self, samples, shift_steps):
        # quarter-quantized values keep every bin operation exact in binary
        width = 0.5
        offset = shift_steps * width
        base = summarize(samples, mode_bin_width_ms=width)
        shifted = summarize([v + offset for v in samples], mode_bin_width_ms=width)
        assert shifted.mode_ms == base.mode_ms + offset


class TestCompose:
    def test_reference_leg_composition(self):
        composed = compose((leg(LEG_AB), leg(LEG_BC, modality="bimodal")))
        assert composed.mean_ms == pytest.approx(67.918100079, abs=1e-8)
        assert composed.median_ms == pytest.approx(70.217, abs=1e-9)
        assert composed.variance_ms2 == pytest.approx(170.5959250585, abs=1e-8)
        assert composed.mode_ms == pytest.approx(71.52, abs=1e-9)
        assert composed.std_dev_ms == pytest.approx(13.061237501, abs=1e-8)
        assert composed.sample_count == 1000
        assert composed.modality == "bimodal"

    def test_single_leg_identity(self):
        one = leg(LEG_AB)
        composed = compose((one,))
        assert composed.mean_ms == one.mean_ms
        assert composed.median_ms == one.median_ms
        assert composed.variance_ms2 == one.variance_ms2
        assert composed.mode_ms == one.mode_ms
        assert composed.std_dev_ms == pytest.approx(one.std_dev_ms, rel=1e-15)

    def test_zero_variance_leg_keeps_other_std(self):
        flat = summary_from_moments(5.0, 5.0, 0.0, 5.0, sample_count=10)
        other = leg(LEG_BC, modality="bimodal")
        composed = compose((flat, other))
        assert composed.std_dev_ms == other.std_dev_ms

    def test_left_nested_composition_matches_flat(self):
        a, b, c = leg(LEG_AB), leg(LEG_BC), leg(DIRECT_AC)
        flat = compose((a, b, c))
        nested = compose((compose((a, b)), c))
        assert nested.mean_ms == flat.mean_ms
        assert nested.median_ms == flat.median_ms
        assert nested.mode_ms == flat.mode_ms
        assert nested.variance_ms2 == flat.variance_ms2

    def test_general_associativity_within_float_noise(self):
        a, b, c = leg(LEG_AB), leg(LEG_BC), leg(DIRECT_AC)
        flat = compose((a, b, c))
        right = compose((a, compose((b, c))))
        assert right.mean_ms == pytest.approx(flat.mean_ms, rel=1e-12)
        assert right.variance_ms2 == pytest.approx(flat.variance_ms2, rel=1e-12)

    def test_relay_forwarding_delay(self):
        composed = compose((leg(LEG_AB), leg(LEG_BC)), forwarding_delay_ms=2.0)
        plain = compose((leg(LEG_AB), leg(LEG_BC)))
        assert composed.mean_ms == plain.mean_ms + 2.0
        assert composed.median_ms == plain.median_ms + 2.0
        assert composed.variance_ms2 == plain.variance_ms2

    def test_variance_dominates_each_leg(self):
        rng = random.Random(31)
        for _ in range(50):
            legs = tuple(
                summary_from_moments(
                    rng.uniform(1, 50),
                    rng.uniform(1, 50),
                    rng.uniform(0, 40),
                    rng.uniform(1, 50),
                    sample_count=rng.randint(1, 500),
                )
                for _ in range(rng.randint(1, 4))
            )
            composed = compose(legs)
            assert composed.variance_ms2 >= max(l.variance_ms2 for l in legs) - 1e-12
            assert composed.std_dev_ms <= sum(l.std_dev_ms for l in legs) + 1e-12
            assert composed.sample_count == min(l.sample_count for l in legs)

    def test_multimodal_leg_flags_composition(self):
        composed = compose((leg(LEG_AB), leg(LEG_BC, modality="multimodal")))
        assert composed.modality == "multimodal"

    def test_degenerate_leg_rejected(self):
        empty = RttSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.5, "degenerate")
        with pytest.raises(ValueError, match="legs must be non-degenerate"):
            compose((leg(LEG_AB), empty))

    def test_no_legs_rejected(self):
        with pytest.raises(ValueError, match="a path needs at least one leg"):
            compose(())


class TestCompare:
    def test_reference_route_comparison(self):
        composed = compose((leg(LEG_AB), leg(LEG_BC, modality="bimodal")))
        description, median_delta, mode_delta, _ = compare(leg(DIRECT_AC), composed)
        assert median_delta == pytest.approx(8.22, abs=0.01)
        assert mode_delta == pytest.approx(10.52, abs=0.01)
        assert description == "direct route is 8.22 ms faster by median"

    def test_identical_summaries_tie(self):
        one = leg(LEG_AB)
        assert compare(one, one) == ("routes tie on mean", 0.0, 0.0, 0.0)

    def test_bimodal_direct_prefers_median(self):
        description, *_ = compare(leg(DIRECT_AC, modality="bimodal"), leg(LEG_AB))
        assert description == "overlay route is 4.00 ms faster by median"

    def test_all_unimodal_prefers_mean(self):
        description, *_ = compare(leg(DIRECT_AC), leg(LEG_AB))
        # 57.45 overlay beats 61.72 direct on mean
        assert description == "overlay route is 4.27 ms faster by mean"


class TestMonteCarlo:
    def test_sum_distribution_matches_composition_moments(self):
        rng = random.Random(77)
        leg_a = [rng.gauss(20.0, 2.0) for _ in range(2000)]
        leg_b = [rng.gauss(30.0, 3.0) for _ in range(2000)]
        composed = compose((summarize(leg_a), summarize(leg_b)))
        empirical = monte_carlo_compose(
            [leg_a, leg_b], draws=100_000, rng=random.Random(5)
        )
        assert empirical.mean_ms == pytest.approx(composed.mean_ms, rel=0.02)
        assert empirical.variance_ms2 == pytest.approx(composed.variance_ms2, rel=0.02)


class TestSampleIo:
    def test_read_samples_skips_comments(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# header\n1.5\n\n2.5\n", encoding="utf-8")
        # an array('d') does not equal a list
        assert list(read_samples(path)) == [1.5, 2.5]

    def test_read_samples_bad_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.5\nxyz\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_samples(path)
        assert exc.value.position == 2

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0", "-3"])
    def test_read_samples_rejects_non_finite_and_non_positive(self, tmp_path, text):
        path = tmp_path / "s.txt"
        path.write_text(f"1.5\n# comment\n{text}\n2.5\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_samples(path)
        assert exc.value.position == 3
        assert repr(text) in exc.value.reason

    @pytest.mark.parametrize(
        "fault,reason",
        [
            ("xyz", "bad sample 'xyz'"),
            ("nan", "sample must be finite and > 0, got 'nan'"),
            ("inf", "sample must be finite and > 0, got 'inf'"),
            ("0", "sample must be finite and > 0, got '0'"),
            ("-3", "sample must be finite and > 0, got '-3'"),
        ],
    )
    @pytest.mark.parametrize("lineno", [4097, 4100, 9000, 12289])
    def test_read_samples_fault_past_line_4096(self, tmp_path, fault, reason, lineno):
        # a fault many 8 KB decode blocks into the file names the same line
        # and reason as the one-line-at-a-time oracle
        lines = [f"{1 + index % 97 / 8}" for index in range(12_500)]
        lines[lineno - 1] = fault
        path = tmp_path / "s.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_samples(path)
        assert (exc.value.position, exc.value.reason) == (lineno, reason)
        assert (exc.value.position, exc.value.reason) == line_by_line_fault(lines)

    def test_read_samples_skips_comments_and_blanks_past_line_4096(self, tmp_path):
        lines = [f"{1 + index % 89 / 4}" for index in range(10_000)]
        for lineno, text in ((4096, "# line 4096"), (4097, ""), (4500, "  # indented"),
                             (8193, "   "), (9999, "# last but one")):
            lines[lineno - 1] = text
        path = tmp_path / "s.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = [float(line) for line in lines if line.strip() and "#" not in line]
        samples = read_samples(path)
        assert samples.typecode == "d"
        assert list(samples) == expected

    def test_read_samples_non_utf8_byte_past_line_4096(self, tmp_path):
        lines = [b"%d.25" % (1 + index % 50) for index in range(6000)]
        lines[5000] = b"12.\xff5"
        path = tmp_path / "s.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError) as exc:
            read_samples(path)
        assert exc.value.position == 5001
        assert "byte 0xff at column 4 is not UTF-8" in exc.value.reason

    def test_read_samples_first_fault_wins_over_a_later_non_utf8_byte(self, tmp_path):
        # a bad sample in the first 8 KB decode block, and a non-UTF-8 byte
        # in a later block before line 4097: lines are parsed in the order
        # they are decoded, so the bad sample is the one reported
        lines = [b"%d.25" % (1 + index % 50) for index in range(4000)]
        lines[1] = b"x"
        lines[3500] = b"12.\xff5"
        path = tmp_path / "s.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert path.stat().st_size > 2 * 8192
        with pytest.raises(ParseError) as exc:
            read_samples(path)
        assert (exc.value.position, exc.value.reason) == (2, "bad sample 'x'")

    def test_frequency_distribution(self):
        dist = frequency_distribution([1.0, 1.1, 2.0], bin_width_ms=0.5)
        assert dist == [(1.0, 2), (2.0, 1)]
        assert describe([1.0, 1.1, 2.0], 0.5)[1] == [(1.0, 2), (2.0, 1)]

    def test_summary_row_two_decimal_rendering(self, tmp_path):
        composed = compose((leg(LEG_AB), leg(LEG_BC, modality="bimodal")))
        row = ("via-relay", *(getattr(composed, name) for name, _ in SUMMARY_COLUMNS[1:]))
        out = tmp_path / "summary.csv"
        write_table(out, "csv", SUMMARY_COLUMNS, [row])
        assert out.read_text(encoding="utf-8").splitlines()[1].split(",") == [
            "via-relay", "67.92", "70.22", "170.60", "71.52", "13.06", "1000", "bimodal"
        ]


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=200),
    st.sampled_from([0.01, 0.1, 0.5, 1.0, 7.5]),
)
def test_describe_is_summarize_and_frequency_distribution(samples, width):
    summary, distribution = describe(samples, width)
    assert distribution == frequency_distribution(samples, width)
    # the mode is the center of the fullest bin of that histogram, ties to the lower
    assert summary.mode_ms == max(distribution, key=lambda bin: (bin[1], -bin[0]))[0]
    assert summary.median_ms == statistics.median(samples)
    assert summary.sample_count == len(samples)


def brute_force_peaks(counts):
    """Every plateau of equal counts over a dense bin range, kept when both
    bins around it hold fewer, reported at its lowest bin."""
    if not counts:
        return []
    low, high = min(counts) - 1, max(counts) + 1
    dense = [counts.get(index, 0) for index in range(low, high + 1)]
    peaks = []
    for start in range(1, len(dense) - 1):
        if dense[start] == 0 or dense[start - 1] == dense[start]:
            continue
        end = start
        while dense[end + 1] == dense[start]:
            end += 1
        if dense[start - 1] < dense[start] > dense[end + 1]:
            peaks.append((low + start, dense[start]))
    return peaks


@given(st.dictionaries(st.integers(-12, 12), st.integers(1, 3), max_size=20))
def test_peaks_match_brute_force(bins):
    assert _peaks(Counter(bins)) == brute_force_peaks(bins)


def test_overlay_leg_peak_per_sample(tmp_path):
    # a bimodal leg of 200,000 samples, shaped like the benchmark's leg_bc
    rng = random.Random(27)
    values = [rng.gauss(15.0, 1.5) for _ in range(120_000)]
    values += [rng.gauss(30.0, 2.0) for _ in range(80_000)]
    rng.shuffle(values)
    path = tmp_path / "leg.txt"
    path.write_text("# rtt_ms\n" + "".join(f"{value:.3f}\n" for value in values), encoding="utf-8")
    del values
    tracemalloc.start()
    try:
        summary, _ = describe(read_samples(path), 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (summary.sample_count, summary.modality) == (200_000, "bimodal")
    # the array takes 8 bytes a sample, and the median's bins hold about 5% of
    # the sample; a list of floats and its sorted copy took about 44
    assert peak <= 24 * summary.sample_count


def line_by_line_fault(lines):
    """(line number, reason) of the first line of ``lines`` that the
    one-line-at-a-time reading rejects, or None."""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            return lineno, f"bad sample {text!r}"
        if not 0 < value < math.inf:
            return lineno, f"sample must be finite and > 0, got {text!r}"
    return None


def sorted_median(samples):
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


@pytest.mark.parametrize(
    "samples,width",
    [
        # an even count whose middle ranks sit in two bins with empty bins between
        ([1.0, 1.2, 2.1, 4.0, 4.1, 4.3], 1.0),
        ([30.2, 5.0, 11.4, 5.1, 7.0, 9.0, 11.9, 30.0], 0.5),
        # the whole sample in one bin, with an odd and an even count
        ([10.01, 10.3, 9.8, 10.2, 9.9], 1.0),
        ([10.01, 10.3, 9.8, 10.2, 9.9, 10.0], 1.0),
        # one sample
        ([42.0], 0.5),
        # bin indices past 2**63
        ([1e20, 3e20], 0.5),
        ([3e20, 1e20, 2e20, 2e20 + 2**20], 0.5),
    ],
)
def test_describe_median_bins(samples, width):
    summary, distribution = describe(samples, width)
    assert distribution == frequency_distribution(samples, width)
    assert summary.median_ms == statistics.median(samples) == sorted_median(samples)
    assert summary.mode_ms == max(distribution, key=lambda bin: (bin[1], -bin[0]))[0]
    assert summary.sample_count == len(samples)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e30), min_size=1, max_size=60),
    st.sampled_from([1e-3, 0.5, 7.5, 1e6]),
)
def test_describe_median_at_any_magnitude(samples, width):
    # past about 2**52 bins from zero, floats are spaced wider than a bin,
    # and the median's bins are picked out with no bound from their
    # neighbours' centres
    summary, distribution = describe(samples, width)
    assert distribution == frequency_distribution(samples, width)
    assert summary.median_ms == statistics.median(samples) == sorted_median(samples)


def test_describe_array_and_list_agree():
    rng = random.Random(27)
    samples = [round(rng.gauss(15.0, 1.5), 3) for _ in range(3000)]
    samples += [round(rng.gauss(30.0, 2.0), 3) for _ in range(2001)]
    rng.shuffle(samples)
    for count in (len(samples), len(samples) - 1):
        as_list = samples[:count]
        assert describe(array("d", as_list), 0.5) == describe(as_list, 0.5)
        assert describe(as_list, 0.5)[0].median_ms == statistics.median(as_list)


@pytest.mark.parametrize(
    "samples",
    [
        [1.0, math.nan, 1e308, 1e308],
        [1.0, 1e308, 1e308, -2.0],
        [math.inf, 1e308, 1e308],
        [1e308, math.inf, -math.inf],
        [1e308, 1e308, 0.0],
        [2.0, -1.0, 3.0, 0.0],
    ],
)
def test_describe_names_the_first_invalid_sample(samples):
    # each sample is checked before the sum, also when the sum is finite or
    # passes the largest float
    bad = next(value for value in samples if not (math.isfinite(value) and value > 0))
    with pytest.raises(ValueError, match=f"got {bad!r}$"):
        describe(samples, 0.5)


def test_describe_bin_index_overflow_is_a_toolkit_error():
    with pytest.raises(ToolkitError, match="passes the largest float"):
        describe([1.0, 1e308], 1e-10)


class TestSummaryInvariants:
    def test_std_variance_consistency_enforced(self):
        with pytest.raises(ValueError):
            RttSummary(
                mean_ms=1.0,
                median_ms=1.0,
                variance_ms2=4.0,
                mode_ms=1.0,
                std_dev_ms=3.0,
                sample_count=5,
                mode_bin_width_ms=0.5,
                modality="unimodal",
            )

    def test_degenerate_iff_empty(self):
        with pytest.raises(ValueError):
            RttSummary(1.0, 1.0, 0.0, 1.0, 0.0, 0, 0.5, "unimodal")
        with pytest.raises(ValueError):
            RttSummary(1.0, 1.0, 0.0, 1.0, 0.0, 5, 0.5, "degenerate")


class TestFloatOverflow:
    """Finite values whose sum passes the largest float raise ToolkitError
    (``describe`` is checked through ``overlay`` in test_cli.py)."""

    def test_compose(self):
        huge = summary_from_moments(1e308, 1e308, 0.0, 1e308)
        with pytest.raises(ToolkitError):
            compose((huge, huge))

    def test_monte_carlo_compose(self):
        with pytest.raises(ToolkitError):
            monte_carlo_compose([[1e308], [1e308]], draws=10, rng=random.Random(1))
