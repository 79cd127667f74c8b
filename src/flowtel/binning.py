"""Bin-edge construction and diagnostic-region bookkeeping.

The diagnostic region T is the set of histogram bins where trouble shows up:
the top latency bins (tail) and the bottom IAT bins (head). Detection quality
hinges on keeping T nearly empty under normal traffic, so the flagship
strategy here places the region boundary at a quantile chosen to cap baseline
occupancy at a target fraction rho: the latency boundary at the (1-rho)
quantile, the IAT boundary at the rho quantile. Three reference strategies
(p90/p99.8 anchors, log-uniform, equal-frequency quantiles) exist for
comparison.

Quantiles are exact sorts over the fitting sample; at the sample sizes used
here (1e5 by default) streaming estimators buy nothing. A run fits its edges
once, on its warmup windows, and never refits them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class BinStrategy(Enum):
    TARGET_OCCUPANCY = "target_occupancy"
    P90_LOG = "p90_log"
    LOG_UNIFORM = "log_uniform"
    QUANTILE = "quantile"


class EdgeKind(Enum):
    LATENCY = "latency"  # diagnostic bins sit at the high end
    IAT = "iat"  # diagnostic bins sit at the low end


class DegenerateDistributionError(ValueError):
    """Fitting sample cannot support strictly increasing edges, or an edge
    list is not finite and strictly increasing."""

    def __init__(self, duplicated: Sequence[float]):
        self.duplicated = sorted(set(float(v) for v in duplicated))
        super().__init__(
            "degenerate distribution: duplicated or non-finite edge values "
            + ", ".join(f"{v:g}" for v in self.duplicated)
        )


@dataclass(frozen=True)
class DiagnosticRegion:
    """Bin indices forming T: highest latency bins plus lowest IAT bins."""

    lat_tail_bins: frozenset[int]
    iat_head_bins: frozenset[int]

    def __post_init__(self) -> None:
        if self.k_bins < 1:
            raise ValueError("diagnostic region must contain at least one bin")

    @property
    def k_bins(self) -> int:
        return len(self.lat_tail_bins) + len(self.iat_head_bins)

    @staticmethod
    def build(bins_b: int, lat_tail: int = 2, iat_head: int = 1) -> "DiagnosticRegion":
        if not 0 <= lat_tail <= bins_b or not 0 <= iat_head <= bins_b:
            raise ValueError("region size exceeds bin count")
        return DiagnosticRegion(
            lat_tail_bins=frozenset(range(bins_b - lat_tail, bins_b)),
            iat_head_bins=frozenset(range(iat_head)),
        )


@dataclass(frozen=True)
class BinningConfig:
    strategy: BinStrategy = BinStrategy.TARGET_OCCUPANCY
    rho: float = 0.01
    bins_B: int = 8
    fit_sample_size: int = 100_000

    def __post_init__(self) -> None:
        if not 0 < self.rho < 0.5:
            raise ValueError(f"rho must be in (0, 0.5), got {self.rho}")
        if self.bins_B < 2:
            raise ValueError(f"bins_B must be >= 2, got {self.bins_B}")
        if self.fit_sample_size < 1:
            raise ValueError(f"fit_sample_size must be >= 1, got {self.fit_sample_size}")


def check_region_size(region_size: int, bins_b: int) -> None:
    """One distribution's half of T needs a bin and must leave a normal one."""
    if region_size < 1:
        raise ValueError(f"region_size must be >= 1, got {region_size}")
    if region_size >= bins_b:
        raise ValueError(f"region_size {region_size} leaves no normal bins of {bins_b}")


def _check_strict(edges: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(edges)
    bad[:-1] |= ~(np.diff(edges) > 0)
    if bad.any():
        raise DegenerateDistributionError(edges[bad].tolist())
    return edges


def _anchors(samples: np.ndarray) -> tuple[float, float]:
    """Low/high geometric anchors; the low anchor must be positive."""
    positive = samples[samples > 0]
    lo = float(positive.min()) if positive.size else 1.0
    hi = float(samples.max())
    hi = max(hi, lo * 2.0)
    return lo, hi


def _geom(lo: float, hi: float, num: int) -> np.ndarray:
    if num <= 0:
        return np.empty(0, dtype=np.float64)
    return np.geomspace(lo, hi, num=num)


def fit_edges(
    samples: Sequence[float] | np.ndarray,
    cfg: BinningConfig,
    region_size: int,
    kind: EdgeKind,
) -> tuple[np.ndarray, frozenset[int]]:
    """Fit bins_B-1 ascending edges and return this distribution's half of T.

    For LATENCY the diagnostic half is the top ``region_size`` bins and the
    target-occupancy boundary sits at the (1-rho) quantile; for IAT it is the
    bottom ``region_size`` bins with the boundary at the rho quantile.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot fit edges on an empty sample")
    b = cfg.bins_B
    check_region_size(region_size, b)
    x = np.sort(x)
    lo, hi = _anchors(x)

    n_edges = b - 1
    if cfg.strategy is BinStrategy.TARGET_OCCUPANCY:
        if kind is EdgeKind.LATENCY:
            boundary = float(np.quantile(x, 1.0 - cfg.rho))
            boundary = max(boundary, lo)
            below = _geom(lo, boundary, b - region_size)  # ends exactly at boundary
            inside = _geom(boundary, max(hi, boundary * 2.0), region_size + 1)[1:region_size]
            edges = np.concatenate([below, inside])
        else:
            boundary = float(np.quantile(x, cfg.rho))
            boundary = max(boundary, lo * (1 + 1e-12))
            inside = _geom(lo, boundary, region_size + 1)[1:region_size]
            above = _geom(boundary, max(hi, boundary * 2.0), b - region_size)
            edges = np.concatenate([inside, above])
    elif cfg.strategy is BinStrategy.P90_LOG:
        # anchor edges at the 90th and 99.8th percentiles, log spacing between
        lo_q = float(np.quantile(x, 0.90))
        hi_q = float(np.quantile(x, 0.998))
        n_below = max(1, (n_edges - 1) // 2)
        n_between = n_edges - n_below  # includes both anchors
        below = _geom(lo, max(lo_q, lo * (1 + 1e-12)), n_below + 1)[:-1]
        between = _geom(max(lo_q, lo), max(hi_q, lo_q * (1 + 1e-9)), n_between)
        edges = np.concatenate([below, between])
    elif cfg.strategy is BinStrategy.LOG_UNIFORM:
        edges = _geom(lo, hi, b + 1)[1:-1]
    elif cfg.strategy is BinStrategy.QUANTILE:
        qs = np.arange(1, b) / b
        edges = np.quantile(x, qs)
    else:  # pragma: no cover
        raise ValueError(f"unknown strategy {cfg.strategy}")

    edges = _check_strict(np.asarray(edges, dtype=np.float64))
    if kind is EdgeKind.LATENCY:
        half = frozenset(range(b - region_size, b))
    else:
        half = frozenset(range(region_size))
    return edges, half


def deserialize_edges(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return _check_strict(arr)
