"""Focused validation experiments.

These bypass the full simulator to exercise one question at a time against
analytically known ground truth; the runnable wrappers live in scripts/.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import diag_lift_detector, extract_sketch_features
from .binning import DiagnosticRegion
from .core import FlowKey, SketchConfig
from .sizing import FlowBaseline, detectability_threshold
from .sketch import HistogramSketch


@dataclass
class TrialOutcome:
    fired: bool
    threshold: float
    injected: int
    baseline: FlowBaseline


def _lat_edges(bins_b: int) -> np.ndarray:
    # tail boundary at 1 ms: baseline latencies sit well below, injected
    # diagnostic packets well above
    return np.geomspace(10_000.0, 1_000_000.0, bins_b - 1)


def detectability_trial(
    seed: int,
    inject: bool,
    width: int = 256,
    depth: int = 3,
    n_background: int = 150,
    pkts_per_window: int = 15_000,
    flow_pkts: int = 800,
    beta: float = 0.3,
    lift_factor: float = 2.0,
) -> TrialOutcome:
    """One seeded window: background flows plus a monitored flow, optional
    anomaly injection at ``lift_factor`` times the computed threshold.

    The detector's baseline is the exact (collision-free) truth of the
    un-injected stream, so a fire on an injected trial is attributable to
    the lift and a fire on a clean trial to collision noise alone.
    """
    rng = np.random.default_rng([seed, 0xD7])
    bins_b = 8
    cfg = SketchConfig.from_seed(seed, width_w=width, depth_d=depth, bins_B=bins_b)
    lat_edges = _lat_edges(bins_b)
    iat_edges = np.geomspace(50_000.0, 5e8, bins_b - 1)
    region = DiagnosticRegion.build(bins_b, lat_tail=2, iat_head=0)
    sk = HistogramSketch(cfg, qid=0, lat_edges=lat_edges, iat_edges=iat_edges)

    mon_code = 77 << 6 | 1
    n_bg = pkts_per_window - flow_pkts
    codes = np.concatenate([
        rng.integers(1 << 10, 1 << 30, size=n_bg).astype(np.uint64) << np.uint64(6),
        np.full(flow_pkts, mon_code, dtype=np.uint64),
    ])
    # baseline latencies: ~1% of everything lands in the diagnostic tail
    lat = rng.lognormal(mean=np.log(120_000.0), sigma=0.9, size=len(codes)).astype(np.int64)
    order = rng.permutation(len(codes))
    codes, lat = codes[order], lat[order]
    arrivals = np.sort(rng.integers(0, 10**9, size=len(codes))).astype(np.int64)

    tail_lo = lat_edges[-2]
    mon_mask = codes == mon_code
    x_k = int(mon_mask.sum())
    x_k_t = int((lat[mon_mask] >= tail_lo).sum())
    n_t = int((lat >= tail_lo).sum())
    n_prime = len(codes)
    base = FlowBaseline(x_k=x_k, x_k_T=x_k_t, n_T=n_t, n_prime=n_prime)
    thr = detectability_threshold(base, cfg.epsilon, beta)

    injected = 0
    if inject:
        injected = max(1, int(np.ceil(lift_factor * thr)))
        spill = int(np.floor(beta * injected))
        inj_lat = np.concatenate([
            np.full(injected, int(tail_lo * 4), dtype=np.int64),  # inside T
            np.full(spill, 50_000, dtype=np.int64),  # spillover outside T
        ])
        inj_codes = np.full(len(inj_lat), mon_code, dtype=np.uint64)
        inj_arr = np.sort(rng.integers(0, 10**9, size=len(inj_lat))).astype(np.int64)
        codes = np.concatenate([codes, inj_codes])
        lat = np.concatenate([lat, inj_lat])
        arrivals = np.concatenate([arrivals, inj_arr])
        order = np.argsort(arrivals, kind="stable")
        codes, lat, arrivals = codes[order], lat[order], arrivals[order]

    sk.update_batch(codes, np.full_like(lat, 500), arrivals, lat, np.zeros_like(lat))  # 500 B green
    key = FlowKey.from_code(mon_code)
    (fv,) = extract_sketch_features({0: sk}, [key], region, 0, {key.qfi: 0})
    out = diag_lift_detector(fv, base, cfg.epsilon)
    return TrialOutcome(fired=out.fired, threshold=thr, injected=injected, baseline=base)


def detectability_rates(
    trials: int = 200, lift_factor: float = 2.0, **kw
) -> tuple[float, float]:
    """(hit rate with injection, false rate without) over seeded trials."""
    hits = sum(
        detectability_trial(seed, inject=True, lift_factor=lift_factor, **kw).fired
        for seed in range(trials)
    )
    false = sum(
        detectability_trial(seed + 10_000, inject=False, **kw).fired for seed in range(trials)
    )
    return hits / trials, false / trials
