"""Log-binned latency histogram: the tail-percentile regression net.

The contract this file pins: tail percentiles (p99.9, p99.99) of a
long-tailed latency distribution must come from *log-spaced* bins.
Linear bins cannot report them — a bin width fine enough to resolve the
body runs out of range before the tail, and a bin width coarse enough to
reach the tail collapses the body into one bucket.
``LatencyHistogram`` keeps a constant *relative* resolution instead, so
every quantile resolves to within ``relative_error`` of the exact order
statistic over the whole positive float range.
"""

import math
import random

import pytest

from repro.kernel.stats import LatencyHistogram


def long_tailed_samples():
    """10_000 latencies: a ~100 us body, a 5 ms knee, one 50 ms straggler.

    Shaped so that p50 sits in the body, p99.9 and p99.99 need the knee
    and the maximum needs the straggler — the classic profile linear
    bins lose.
    """
    rng = random.Random(0xBAD7A11)
    samples = [rng.uniform(60.0, 150.0) for __ in range(9989)]
    samples += [rng.uniform(4500.0, 5500.0) for __ in range(10)]
    samples.append(50_000.0)
    return samples


def exact_percentile(sorted_samples, fraction):
    """The order statistic the histogram contract approximates: the
    smallest sample with at least ``fraction * n`` samples at or below."""
    target = fraction * len(sorted_samples)
    return sorted_samples[max(0, math.ceil(target) - 1)]


# ----------------------------------------------------------------------
# The regression: log binning resolves the tail


def test_log_bins_resolve_every_percentile_within_relative_error():
    hist = LatencyHistogram(bins_per_octave=16)
    samples = long_tailed_samples()
    for sample in samples:
        hist.add(sample)
    samples.sort()
    bound = hist.relative_error
    for fraction in (0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 0.9999, 1.0):
        got = hist.percentile(fraction)
        exact = exact_percentile(samples, fraction)
        assert math.isfinite(got)
        if fraction == 0.0:
            # Lower edge of the first occupied bin: brackets the minimum
            # from below instead.
            assert exact * (1.0 - bound) <= got <= exact
        else:
            # Upper edge of the quantile's bin: never understates, and
            # overstates by at most one bin's relative width.
            assert exact <= got <= exact * (1.0 + bound) * (1.0 + 1e-12)


def test_tail_resolution_survives_any_bins_per_octave():
    """Even the coarsest log histogram (1 bin per octave = within 2x)
    keeps the tail finite and bounded — the property linear bins cannot
    offer."""
    hist = LatencyHistogram(bins_per_octave=1)
    samples = long_tailed_samples()
    for sample in samples:
        hist.add(sample)
    samples.sort()
    for fraction in (0.9999, 1.0):
        got = hist.percentile(fraction)
        exact = exact_percentile(samples, fraction)
        assert math.isfinite(got)
        assert exact <= got <= exact * (1.0 + hist.relative_error)


# ----------------------------------------------------------------------
# LatencyHistogram unit contracts


def test_relative_error_formula():
    """Linear sub-bins: the widest step is an octave's first sub-bin,
    (0.5 + 1/(2B)) / 0.5 - 1 == 1/B."""
    assert LatencyHistogram(bins_per_octave=1).relative_error == 1.0
    assert LatencyHistogram(bins_per_octave=16).relative_error == 1.0 / 16
    hist = LatencyHistogram(bins_per_octave=8)
    widest = max(hist._edge(key) / hist._edge(key, upper=False)
                 for key in range(-64, 64))
    assert widest - 1.0 == pytest.approx(hist.relative_error)


def test_every_sample_lands_inside_its_bin_edges():
    rng = random.Random(2026)
    hist = LatencyHistogram(bins_per_octave=8)
    for __ in range(500):
        sample = math.exp(rng.uniform(-20.0, 20.0))
        hist.add(sample)
    for key, count in hist.bins.items():
        assert count > 0
        lower = hist._edge(key, upper=False)
        upper = hist._edge(key, upper=True)
        assert lower < upper
        assert upper / lower <= 1.0 + hist.relative_error + 1e-12


def test_adjacent_bins_tile_without_gaps():
    hist = LatencyHistogram(bins_per_octave=8)
    for key in range(-40, 40):
        assert hist._edge(key, upper=True) \
            == hist._edge(key + 1, upper=False)


def test_extreme_magnitudes_stay_finite():
    hist = LatencyHistogram()
    hist.add(1e-300)
    hist.add(1e300)
    assert hist.percentile(0.0) <= 1e-300
    assert math.isfinite(hist.percentile(1.0))
    assert hist.percentile(1.0) >= 1e300


def test_zero_samples_get_their_own_bucket():
    hist = LatencyHistogram()
    for __ in range(9):
        hist.add(0.0)
    hist.add(1000.0)
    assert hist.zeros == 9
    assert hist.count == 10
    assert hist.percentile(0.0) == 0.0
    assert hist.percentile(0.5) == 0.0
    assert hist.percentile(1.0) >= 1000.0


def test_empty_histogram_reports_zero():
    hist = LatencyHistogram()
    assert hist.count == 0
    assert hist.percentile(0.5) == 0.0


def test_validation_errors():
    with pytest.raises(ValueError, match="bins_per_octave"):
        LatencyHistogram(bins_per_octave=0)
    hist = LatencyHistogram()
    with pytest.raises(ValueError, match=">= 0"):
        hist.add(-1.0)
    hist.add(1.0)
    with pytest.raises(ValueError, match="fraction"):
        hist.percentile(-0.1)
    with pytest.raises(ValueError, match="fraction"):
        hist.percentile(1.5)


def test_binning_is_exact_dyadic_arithmetic():
    """Powers of two and their neighbors land deterministically: the
    golden tier depends on bit-identical binning across platforms."""
    hist = LatencyHistogram(bins_per_octave=8)
    hist.add(1024.0)
    (key,) = hist.bins
    assert hist._edge(key, upper=False) <= 1024.0 < hist._edge(key)
    again = LatencyHistogram(bins_per_octave=8)
    again.add(1024.0)
    assert again.bins == hist.bins
