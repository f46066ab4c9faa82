"""RTT sample distribution summaries and relay-path composition.

A sample is summarized by mean, median, population variance, histogram mode
and a modality flag. Per-leg summaries compose into an end-to-end relay
prediction by adding means, medians and modes, adding variances, and taking
the square root of the variance total for the combined standard deviation.

The mode of a continuous sample is the center of the most populated
fixed-width histogram bin; bins are centered on multiples of the bin width,
so a constant sample reports its own value. Median and mode composition by
plain addition is a modeling convention, not a distributional identity: the
median and mode of a sum of draws need not match the added per-leg values.

A sample file is read into an ``array('d')``, 8 bytes a sample. The
histogram is counted in one pass, and the median is taken from the sorted
members of the one or two bins that hold the middle ranks, so the memory on
top of the array grows with those bins' share of the sample: 5-10% on the
benchmark's legs at a 0.5 ms width, and all of it, as much as a sorted copy
of the whole sample, when one or two bins hold nearly every sample.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, truediv
from pathlib import Path
from typing import Sequence

from .errors import EmptyInputError, ParseError, ToolkitError, open_text

MODALITY_UNIMODAL = "unimodal"
MODALITY_BIMODAL = "bimodal"
MODALITY_MULTIMODAL = "multimodal"
MODALITY_DEGENERATE = "degenerate"

_MODALITY_RANK = {
    MODALITY_UNIMODAL: 1,
    MODALITY_BIMODAL: 2,
    MODALITY_MULTIMODAL: 3,
}

# a secondary histogram peak below this fraction of the tallest peak is noise
PEAK_MIN_FRACTION = 0.10

@dataclass(frozen=True, slots=True)
class RttSummary:
    """Summary statistics of one RTT distribution."""

    mean_ms: float
    median_ms: float
    variance_ms2: float
    mode_ms: float
    std_dev_ms: float
    sample_count: int
    modality: str

    def __post_init__(self) -> None:
        if (self.sample_count == 0) != (self.modality == MODALITY_DEGENERATE):
            raise ValueError("sample_count = 0 exactly when modality is degenerate")
        tolerance = 1e-9 * max(abs(self.variance_ms2), 1.0)
        if abs(self.std_dev_ms**2 - self.variance_ms2) > tolerance:
            raise ValueError("std_dev_ms**2 must equal variance_ms2")


def _peaks(counts: Counter) -> list[tuple[int, int]]:
    """Local maxima of the binned histogram as (bin index, count).

    A maximal run of adjacent bins with equal counts is one peak, reported
    at its lowest bin, when the bins on both sides of it hold fewer (an
    empty bin holds 0).
    """
    indices = sorted(counts)
    peaks: list[tuple[int, int]] = []
    start = 0
    for end in range(1, len(indices) + 1):
        first, last, value = indices[start], indices[end - 1], counts[indices[start]]
        if end < len(indices) and indices[end] == last + 1 and counts[indices[end]] == value:
            continue
        if value > counts[first - 1] and value > counts[last + 1]:
            peaks.append((first, value))
        start = end
    return peaks


def _modality(counts: Counter) -> str:
    peaks = _peaks(counts)
    if not peaks:
        return MODALITY_DEGENERATE
    tallest = max(count for _, count in peaks)
    significant = sum(1 for _, count in peaks if count >= PEAK_MIN_FRACTION * tallest)
    if significant <= 1:
        return MODALITY_UNIMODAL
    if significant == 2:
        return MODALITY_BIMODAL
    return MODALITY_MULTIMODAL


def describe(
    samples: Sequence[float], mode_bin_width_ms: float
) -> tuple[RttSummary, list[tuple[float, int]]]:
    """Summarize a sequence of RTTs (ms), such as the ``array('d')``
    :func:`read_samples` gives, and give the ``(bin center, count)`` pairs,
    sorted by center, of the histogram the mode is taken from (for
    plotting). Samples must be finite and > 0.

    Median uses the midpoint convention for even counts; variance is the
    population variance; the mode is the center of the most populated bin
    of width ``mode_bin_width_ms``, with count ties going to the lower bin.
    Raises :class:`ToolkitError` when the sum, a squared deviation or a bin
    index passes the largest float.

    The bins are counted in one pass, and the median is taken from the
    sorted members of the one or two bins that hold the middle ranks, picked
    out in a second pass; only those members are copied, all of the sample
    when those bins hold all of it.
    """
    if mode_bin_width_ms <= 0:
        raise ValueError("mode_bin_width_ms must be > 0")
    n = len(samples)
    if n == 0:
        raise EmptyInputError("no samples")
    for value in samples:
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"samples must be finite and > 0, got {value!r}")

    try:
        mean = math.fsum(samples) / n
        variance = math.fsum((value - mean) ** 2 for value in samples) / n
    except OverflowError:
        raise ToolkitError("the sample sum or variance passes the largest float") from None

    # bin k = floor(v / w + 0.5) covers [k*w - w/2, k*w + w/2); k never
    # decreases as v grows, so each bin holds one run of the sorted samples
    width = mode_bin_width_ms
    try:
        halves = map(add, map(truediv, samples, repeat(width)), repeat(0.5))
        counts = Counter(map(math.floor, halves))
    except OverflowError:
        message = f"a sample over the bin width {width:g} passes the largest float"
        raise ToolkitError(message) from None
    indices = sorted(counts)
    mode_index, _ = max(counts.items(), key=lambda item: (item[1], -item[0]))
    mode = mode_index * width

    # the bins of the middle ranks (one bin, or two with only empty bins
    # between them) are one run of the sorted samples, after ``below`` of
    # them: the samples whose v / w + 0.5 lies in [start, stop)
    ends = list(accumulate(counts[index] for index in indices))
    high = n // 2
    low = high if n % 2 else high - 1
    first, last = bisect_right(ends, low), bisect_right(ends, high)
    below = ends[first - 1] if first else 0
    start, stop = indices[first], indices[last] + 1
    # as v / w + 0.5 never decreases either, a value on either side of that
    # range bounds the run, so that most samples take two comparisons and no
    # division; the centers of the neighboring bins do, unless the floats
    # there are spaced wider than a bin
    lower, upper = (start - 1) * width, stop * width
    if not lower / width + 0.5 < start:
        lower = 0.0
    if not upper / width + 0.5 >= stop:
        upper = math.inf
    run = [v for v in samples if lower < v < upper and start <= v / width + 0.5 < stop]
    run.sort()
    median = run[high - below] if n % 2 else (run[low - below] + run[high - below]) / 2

    summary = RttSummary(
        mean_ms=mean,
        median_ms=median,
        variance_ms2=variance,
        mode_ms=mode,
        std_dev_ms=math.sqrt(variance),
        sample_count=n,
        modality=_modality(counts),
    )
    return summary, [(index * width, counts[index]) for index in indices]


def compose(legs: Sequence[RttSummary], forwarding_delay_ms: float = 0.0) -> RttSummary:
    """Predict the end-to-end summary of a relay chain, given its ordered
    legs' summaries.

    Mean, median and mode are the sums of the per-leg values (plus any
    constant relay forwarding delay); variances add and the combined std
    dev is the square root of that total. A multi-peaked leg marks the
    whole prediction as multi-peaked. Median and mode addition follows the
    per-leg reporting convention, not the distribution of summed draws.
    Raises :class:`ValueError` for no legs or a degenerate one, and
    :class:`ToolkitError` when a result is not finite, as when a sum passes
    the largest float.
    """
    if not legs:
        raise ValueError("a path needs at least one leg")
    if any(leg.modality == MODALITY_DEGENERATE for leg in legs):
        raise ValueError("legs must be non-degenerate")
    relay_delay = forwarding_delay_ms * (len(legs) - 1)
    # plain left-fold addition, so nested composition reproduces flat
    # composition (sum() of floats is compensated from Python 3.12 on)
    mean = median = mode = variance = 0.0
    for leg in legs:
        mean += leg.mean_ms
        median += leg.median_ms
        mode += leg.mode_ms
        variance += leg.variance_ms2
    mean += relay_delay
    median += relay_delay
    mode += relay_delay
    if not all(map(math.isfinite, (mean, median, mode, variance))):
        raise ToolkitError("composing the legs gives a value that is not finite")
    rank = max(_MODALITY_RANK[leg.modality] for leg in legs)
    modality = {1: MODALITY_UNIMODAL, 2: MODALITY_BIMODAL, 3: MODALITY_MULTIMODAL}[rank]
    return RttSummary(
        mean_ms=mean,
        median_ms=median,
        variance_ms2=variance,
        mode_ms=mode,
        std_dev_ms=math.sqrt(variance),
        sample_count=min(leg.sample_count for leg in legs),
        modality=modality,
    )


def compare(direct: RttSummary, overlay: RttSummary) -> tuple[str, float, float, float]:
    """Compare a direct route against a composed overlay prediction:
    ``(description, median_delta_ms, mode_delta_ms, mean_delta_ms)``, each
    delta overlay minus direct.

    The mean is distrusted whenever either distribution is multi-peaked,
    in which case the median decides which route is faster.
    """
    if MODALITY_DEGENERATE in (direct.modality, overlay.modality):
        raise ValueError("both summaries must be non-degenerate")
    mean_delta = overlay.mean_ms - direct.mean_ms
    median_delta = overlay.median_ms - direct.median_ms
    mode_delta = overlay.mode_ms - direct.mode_ms
    if direct.modality != MODALITY_UNIMODAL or overlay.modality != MODALITY_UNIMODAL:
        preferred, deciding = "median", median_delta
    else:
        preferred, deciding = "mean", mean_delta
    faster = "direct" if deciding > 0 else "overlay" if deciding < 0 else None
    if faster is None:
        description = f"routes tie on {preferred}"
    else:
        description = f"{faster} route is {abs(deciding):.2f} ms faster by {preferred}"
    return description, median_delta, mode_delta, mean_delta


def read_samples(path: str | Path) -> Sequence[float]:
    """Read one RTT (ms) per line into an ``array('d')``, 8 bytes a sample;
    blank lines and # comments are skipped.

    Raises :class:`ParseError` with the line number for text that is not a
    finite number > 0, or a byte that is not UTF-8.
    """
    from array import array  # here, so that CLI start-up imports no new module

    samples = array("d")
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            # float() skips the whitespace that strip() would
            try:
                value = float(line)
            except ValueError as exc:
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                raise ParseError(lineno, f"bad sample {text!r}") from exc
            if not 0 < value < math.inf:
                raise ParseError(lineno, f"sample must be finite and > 0, got {line.strip()!r}")
            samples.append(value)
    return samples
