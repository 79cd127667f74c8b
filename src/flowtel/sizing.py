"""Closed-form detectability and sketch-sizing rules.

The central question: how many extra packets must an anomaly push into the
diagnostic region T before the row-minimum estimate of a flow's diagnostic
ratio provably rises above its baseline ceiling, given that collisions
inflate diagnostic counts by about eps*N_T (eps = e/width) and a fraction
beta of the anomaly mass spills outside T?

Two forms are exposed:

* ``detectability_threshold`` evaluates the exact condition: the minimum
  anomaly-window ratio (x_kT + D) / (x_k + (1+beta) D + eps N') must exceed
  the maximum baseline ratio (x_kT + eps N_T) / x_k. Solving for D gives

      D > (eps N_T x_k + (x_kT + eps N_T) eps N')
          / (x_k_notT - eps N_T - beta (x_kT + eps N_T))

  A non-positive denominator means no D works: the flow is too small or T
  too noisy, reported as the first-class NOT_DETECTABLE result (inf).

* ``sparse_threshold`` is the sparse-regime form eps*N_T/(1-beta) obtained by
  inverting the width rule; it is the number quoted in sizing reports and is
  what the width requirement guarantees for flows with negligible baseline
  diagnostic mass.

Width and depth rules follow directly: width from the sparse condition,
depth from a union bound over the K diagnostic-bin estimates plus the total
estimate, each of which misses its error bound with probability e^-d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NOT_DETECTABLE = math.inf

# counters absorb ~1e-9 of float slack before ceil so that exact integer
# ratios (e.g. ln of an exact power of e) do not round up spuriously
_CEIL_GUARD = 1e-9


def _ceil_guarded(x: float) -> int:
    return math.ceil(x - _CEIL_GUARD)


@dataclass(frozen=True)
class DetectabilityParams:
    """Design inputs for sizing: spillover bounds, target lift, budgets."""

    beta: float = 0.3
    beta_max: float = 0.3
    delta_t_min: float = 80.0
    zeta: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.beta <= self.beta_max < 1:
            raise ValueError(
                f"need 0 <= beta <= beta_max < 1, got beta={self.beta} beta_max={self.beta_max}"
            )
        if self.delta_t_min < 1:
            raise ValueError(f"delta_t_min must be >= 1, got {self.delta_t_min}")
        if not 0 < self.zeta < 1:
            raise ValueError(f"zeta must be in (0, 1), got {self.zeta}")


@dataclass(frozen=True)
class FlowBaseline:
    """One flow's anomaly-free window profile plus the sketch-wide totals."""

    x_k: float  # total flow mass in the window
    x_k_T: float  # flow mass inside the diagnostic region
    n_T: float  # total diagnostic occupancy across the sketch
    n_prime: float  # total packet mass across the sketch

    def __post_init__(self) -> None:
        if self.x_k < 0 or self.x_k_T < 0 or self.n_T < 0 or self.n_prime < 0:
            raise ValueError("baseline masses must be non-negative")
        if self.x_k_T > self.x_k + 1e-9:
            raise ValueError("x_k_T cannot exceed x_k")
        if self.x_k > self.n_prime + 1e-9:
            raise ValueError("x_k cannot exceed n_prime")
        if self.x_k_T > self.n_T + 1e-9:
            raise ValueError("x_k_T cannot exceed n_T")

    @property
    def x_k_notT(self) -> float:
        return self.x_k - self.x_k_T


def detectability_threshold(base: FlowBaseline, eps: float, beta: float) -> float:
    """Minimum diagnostic lift for the exact detectability condition.

    Returns NOT_DETECTABLE (inf) when the denominator is non-positive:
    no lift, however large, separates this flow from its baseline ceiling.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if not 0 <= beta < 1:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    noisy_t = base.x_k_T + eps * base.n_T
    numerator = eps * base.n_T * base.x_k + noisy_t * eps * base.n_prime
    denominator = base.x_k_notT - eps * base.n_T - beta * noisy_t
    if denominator <= 0:
        return NOT_DETECTABLE
    return numerator / denominator


def sparse_threshold(eps: float, n_t: float, beta: float) -> float:
    """Sparse-regime lift floor eps*N_T/(1-beta); inverse of the width rule."""
    if not 0 <= beta < 1:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    return eps * n_t / (1.0 - beta)


def required_width(n_t_max: float, beta_max: float, delta_t_min: float) -> int:
    """Minimum width detecting all anomalies lifting T by at least delta_t_min.

    ceil(e * N_T_max / ((1 - beta_max) * delta_t_min)), clamped to the minimum
    legal width 2.
    """
    if beta_max >= 1:
        raise ValueError(f"beta_max must be < 1, got {beta_max}")
    if beta_max < 0 or n_t_max < 0 or delta_t_min <= 0:
        raise ValueError("n_t_max must be >= 0 and delta_t_min > 0")
    w = _ceil_guarded(math.e * n_t_max / ((1.0 - beta_max) * delta_t_min))
    return max(w, 2)


def required_depth(k_bins: int, zeta: float) -> int:
    """Minimum rows so all K+1 estimates hold their bounds with prob 1-zeta.

    Each row-minimum estimate misses its bound with probability e^-d; a
    union bound over K diagnostic bins plus the total gives (K+1) e^-d <=
    zeta, i.e. d >= ceil(ln((K+1)/zeta)).
    """
    if k_bins < 1:
        raise ValueError(f"k_bins must be >= 1, got {k_bins}")
    if not 0 < zeta < 1:
        raise ValueError(f"zeta must be in (0, 1), got {zeta}")
    return max(1, _ceil_guarded(math.log((k_bins + 1) / zeta)))


def collision_floor(w: int, n_t: float) -> float:
    """Expected collision noise inside T: (e / w) * N_T."""
    if w < 2:
        raise ValueError(f"width must be >= 2, got {w}")
    return (math.e / w) * n_t


def drift_width_scaling(w_old: int, rho_old: float, rho_new: float) -> int:
    """Width keeping guarantees intact when occupancy drifts rho_old -> rho_new.

    Required width is proportional to diagnostic occupancy, so the new width
    is ceil(w_old * rho_new / rho_old).
    """
    if w_old <= 0 or rho_old <= 0 or rho_new <= 0:
        raise ValueError("all drift-scaling inputs must be positive")
    return _ceil_guarded(w_old * (rho_new / rho_old))


def per_window_success(k_bins: int, depth: int) -> float:
    """Union-bound success probability 1 - (K+1) e^-d (floored at 0)."""
    return max(0.0, 1.0 - (k_bins + 1) * math.exp(-depth))


@dataclass(frozen=True)
class SizingReport:
    """What sizing computes for the ``size`` CLI subcommand, machine-readable;
    its inputs (the params, N_T_max and K) stay stated where they are given."""

    width: int
    depth: int
    collision_floor_at_width: float
    sparse_threshold_at_width: float
    per_window_success_at_depth: float
    thresholds: dict[str, float]  # per flow-class exact thresholds (may be inf)


def sizing_report(
    params: DetectabilityParams,
    n_t_max: float,
    k_bins: int,
    flow_classes: dict[str, FlowBaseline] | None = None,
) -> SizingReport:
    w = required_width(n_t_max, params.beta_max, params.delta_t_min)
    d = required_depth(k_bins, params.zeta)
    eps = math.e / w
    thresholds = {}
    if flow_classes:
        for name, base in flow_classes.items():
            thresholds[name] = detectability_threshold(base, eps, params.beta)
    return SizingReport(
        width=w,
        depth=d,
        collision_floor_at_width=collision_floor(w, n_t_max),
        sparse_threshold_at_width=sparse_threshold(eps, n_t_max, params.beta_max),
        per_window_success_at_depth=per_window_success(k_bins, d),
        thresholds=thresholds,
    )
