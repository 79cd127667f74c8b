import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtel.binning import (
    BinningConfig,
    BinStrategy,
    DegenerateDistributionError,
    DiagnosticRegion,
    EdgeKind,
    deserialize_edges,
    fit_edges,
)
from flowtel.sketch import bin_of


def lognormal_ns(rng, n, median_us=80.0, sigma=1.0):
    return rng.lognormal(mean=np.log(median_us * 1000), sigma=sigma, size=n)


def occupancy_beyond(samples, edges, region, kind) -> float:
    bins = [bin_of(v, edges) for v in samples]
    if kind is EdgeKind.LATENCY:
        hit = sum(1 for b in bins if b in region)
    else:
        hit = sum(1 for b in bins if b in region)
    return hit / len(samples)


# -- DiagnosticRegion ----------------------------------------------------------


def test_region_build_default():
    region = DiagnosticRegion.build(8, lat_tail=2, iat_head=1)
    assert region.lat_tail_bins == frozenset({6, 7})
    assert region.iat_head_bins == frozenset({0})
    assert region.k_bins == 3


def test_region_requires_at_least_one_bin():
    with pytest.raises(ValueError):
        DiagnosticRegion(lat_tail_bins=frozenset(), iat_head_bins=frozenset())


def test_binning_config_validates_rho():
    with pytest.raises(ValueError):
        BinningConfig(rho=0.0)
    with pytest.raises(ValueError):
        BinningConfig(rho=0.5)


# -- fit_edges -----------------------------------------------------------------


def test_target_occupancy_caps_fraction_on_fitting_sample(rng):
    cfg = BinningConfig(strategy=BinStrategy.TARGET_OCCUPANCY, rho=0.01, bins_B=8)
    samples = lognormal_ns(rng, 100_000)
    edges, tail = fit_edges(samples, cfg, region_size=2, kind=EdgeKind.LATENCY)
    assert len(edges) == 7
    occ = occupancy_beyond(samples, edges, tail, EdgeKind.LATENCY)
    # on the fitting sample itself the cap is exact up to quantile resolution
    assert occ == pytest.approx(0.01, abs=0.001)


def test_target_occupancy_holds_on_fresh_sample(rng):
    cfg = BinningConfig(strategy=BinStrategy.TARGET_OCCUPANCY, rho=0.02, bins_B=8)
    fit = lognormal_ns(rng, 100_000)
    fresh = lognormal_ns(rng, 100_000)
    edges, tail = fit_edges(fit, cfg, region_size=2, kind=EdgeKind.LATENCY)
    occ = occupancy_beyond(fresh, edges, tail, EdgeKind.LATENCY)
    assert occ == pytest.approx(0.02, abs=0.002)  # within +-0.2 pp


def test_target_occupancy_iat_head(rng):
    cfg = BinningConfig(strategy=BinStrategy.TARGET_OCCUPANCY, rho=0.01, bins_B=8)
    samples = lognormal_ns(rng, 100_000, median_us=200.0)
    edges, head = fit_edges(samples, cfg, region_size=1, kind=EdgeKind.IAT)
    assert head == frozenset({0})
    occ = occupancy_beyond(samples, edges, head, EdgeKind.IAT)
    assert occ == pytest.approx(0.01, abs=0.001)


def test_drifted_stream_raises_occupancy(rng):
    cfg = BinningConfig(strategy=BinStrategy.TARGET_OCCUPANCY, rho=0.01, bins_B=8)
    baseline = lognormal_ns(rng, 100_000)
    edges, tail = fit_edges(baseline, cfg, region_size=2, kind=EdgeKind.LATENCY)
    drifted = baseline * 2.0  # latency scale doubles
    occ = occupancy_beyond(drifted, edges, tail, EdgeKind.LATENCY)
    assert occ > cfg.rho  # drift pushes occupancy over the target -> trigger


def test_quantile_strategy_equal_frequency(rng):
    cfg = BinningConfig(strategy=BinStrategy.QUANTILE, bins_B=8)
    samples = lognormal_ns(rng, 50_000)
    edges, _ = fit_edges(samples, cfg, region_size=2, kind=EdgeKind.LATENCY)
    counts = np.bincount([bin_of(v, edges) for v in samples], minlength=8)
    assert counts.min() > 0.10 * len(samples) / 8 * 8 / 2  # roughly balanced
    assert abs(counts.max() - counts.min()) < 0.02 * len(samples)


def test_degenerate_distribution_error_lists_duplicates():
    cfg = BinningConfig(strategy=BinStrategy.QUANTILE, bins_B=8)
    samples = np.full(1000, 777.0)
    with pytest.raises(DegenerateDistributionError) as exc:
        fit_edges(samples, cfg, region_size=2, kind=EdgeKind.LATENCY)
    assert 777.0 in exc.value.duplicated


def test_fit_edges_rejects_empty_and_oversized_region(rng):
    cfg = BinningConfig(bins_B=8)
    with pytest.raises(ValueError):
        fit_edges([], cfg, region_size=2, kind=EdgeKind.LATENCY)
    with pytest.raises(ValueError):
        fit_edges([1.0, 2.0], cfg, region_size=8, kind=EdgeKind.LATENCY)
    with pytest.raises(ValueError):
        fit_edges([1.0, 2.0], cfg, region_size=0, kind=EdgeKind.LATENCY)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    strategy=st.sampled_from(list(BinStrategy)),
    kind=st.sampled_from(list(EdgeKind)),
    region=st.integers(min_value=1, max_value=3),
)
def test_all_strategies_emit_strictly_increasing_edges(seed, strategy, kind, region):
    r = np.random.default_rng(seed)
    cfg = BinningConfig(strategy=strategy, rho=0.02, bins_B=8)
    samples = r.lognormal(mean=np.log(5e4), sigma=1.2, size=5000)
    edges, half = fit_edges(samples, cfg, region_size=region, kind=kind)
    assert len(edges) == 7
    assert np.all(np.diff(edges) > 0)
    assert len(half) == region
    # bin_of stays total over the fitted edges
    for v in (0.0, float(samples.min()), float(samples.max()), 1e15):
        assert 0 <= bin_of(v, edges) <= 7


# -- serialization ---------------------------------------------------------------


def test_edges_roundtrip(rng):
    cfg = BinningConfig(bins_B=8)
    edges, _ = fit_edges(lognormal_ns(rng, 10_000), cfg, region_size=2, kind=EdgeKind.LATENCY)
    back = deserialize_edges(edges.tolist())
    assert np.array_equal(back, edges)
    with pytest.raises(DegenerateDistributionError):
        deserialize_edges([1.0, 1.0, 2.0])


@pytest.mark.parametrize("edges", [[1.0, float("nan"), 3.0], [1.0, 2.0, float("inf")],
                                   [float("-inf"), 2.0], [float("nan")]])
def test_deserialize_edges_rejects_edges_that_are_not_finite(edges):
    with pytest.raises(DegenerateDistributionError) as exc:
        deserialize_edges(edges)
    assert any(not np.isfinite(v) for v in exc.value.duplicated)
