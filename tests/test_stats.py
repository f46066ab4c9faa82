"""Distribution summaries, relay composition and route comparison."""

from __future__ import annotations

import math
import random
import statistics
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
        assert read_samples(path) == [1.5, 2.5]

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
