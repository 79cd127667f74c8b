"""Per-flow QoS telemetry workbench.

Building blocks: a histogram-augmented count-min sketch with per-queue
partitioning, binning and sizing rules that keep weak anomalies visible
through collision noise, a deterministic user-plane simulator with
injectable anomalies, aggregate-counter and change-triggered-postcard
baselines, and a detection/evaluation pipeline comparing the three on
accuracy, responsiveness, and export cost.
"""

from .core import (
    Color,
    ConfigError,
    FlowKey,
    PacketEvent,
    SketchConfig,
    WindowTotals,
    window_index,
)
from .sketch import FlowEstimate, HistogramSketch, bin_of, record_dtype
from .binning import (
    BinningConfig,
    BinStrategy,
    DegenerateDistributionError,
    DiagnosticRegion,
    EdgeKind,
    RebinDecision,
    diagnostic_occupancy,
    fit_edges,
    maybe_rebin,
)
from .sizing import (
    NOT_DETECTABLE,
    DetectabilityParams,
    FlowBaseline,
    collision_floor,
    detectability_threshold,
    drift_width_scaling,
    required_depth,
    required_width,
    sparse_threshold,
)

__version__ = "0.1.0"
