"""End-to-end run orchestration.

One run: simulate a scenario, fit per-queue bin edges on the warmup windows,
replay the delivered stream through every enabled telemetry mode window by
window, extract features, run cross-fitted detectors per anomaly kind, and
evaluate against ground truth. All randomness descends from the scenario
seed, so a manifest fully determines every output byte.

Telemetry observes packets in egress order at their departure timestamps
(the observation point sits after the queues); windows are aligned across
modes on those timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    DetectionMetrics,
    DetectionOutcome,
    FeatureVector,
    evaluate,
    extract_pm_features,
    extract_postcard_features,
    extract_sketch_features,
    train_detectors,
)
from .baselines import (
    DeltaSampler,
    TelemetryMode,
    export_cost,
    pm_window,
    postcard_line,
)
from .binning import (
    BinningConfig,
    BinStrategy,
    DegenerateDistributionError,
    DiagnosticRegion,
    EdgeKind,
    check_region_size,
    deserialize_edges,
    fit_edges,
)
from .core import NS_PER_S, SketchConfig, WindowTotals
from .simulator import (
    AnomalyKind,
    DropRecord,
    GroundTruthLabel,
    PacketBatch,
    ScenarioSpec,
    flow_codes,
    simulate,
)
from .sketch import HistogramSketch


@dataclass(frozen=True)
class TelemetryConfig:
    """Sketch dimensions, binning policy, and baseline parameters for a run.

    Explicit nanosecond edge arrays (per qid, per distribution) override the
    warmup fit when given, so a config file can pin bins exactly.
    """

    width: int = 256
    depth: int = 3
    bins_b: int = 8
    lat_tail_bins: int = 2
    iat_head_bins: int = 1
    rho: float = 0.01
    strategy: BinStrategy = BinStrategy.TARGET_OCCUPANCY
    fit_windows: int = 5
    fit_sample_size: int = 100_000
    dsmp_delta_ns: int = 1_000_000
    n_blocks: int = 4
    l2: float = 1.0
    explicit_lat_edges: tuple[tuple[int, tuple[float, ...]], ...] = ()
    explicit_iat_edges: tuple[tuple[int, tuple[float, ...]], ...] = ()

    def __post_init__(self) -> None:
        # run the range checks of the objects these values build, naming the key
        for keys, check in (
            ("width/depth/bins_b", lambda: self.sketch_config(0)),
            ("rho/fit_sample_size", self.binning_config),
            ("lat_tail_bins", lambda: check_region_size(self.lat_tail_bins, self.bins_b)),
            ("iat_head_bins", lambda: check_region_size(self.iat_head_bins, self.bins_b)),
            ("dsmp_delta_ns", lambda: DeltaSampler(delta_ns=self.dsmp_delta_ns)),
        ):
            try:
                check()
            except ValueError as e:
                raise ValueError(f"{keys}: {e}") from e
        if self.n_blocks < 2:
            raise ValueError(f"n_blocks: must be >= 2 for a training fold, got {self.n_blocks}")
        for name, pinned in (("lat", self.explicit_lat_edges), ("iat", self.explicit_iat_edges)):
            for qid, edges in pinned:
                if len(edges) != self.bins_b - 1:
                    raise ValueError(f"{name}_edges_ns: qid {qid} needs bins_b - 1 = "
                                     f"{self.bins_b - 1} edges, got {len(edges)}")

    def sketch_config(self, seed: int) -> SketchConfig:
        return SketchConfig.from_seed(seed, self.width, self.depth, self.bins_b)

    def binning_config(self) -> BinningConfig:
        return BinningConfig(
            strategy=self.strategy,
            rho=self.rho,
            bins_B=self.bins_b,
            fit_sample_size=self.fit_sample_size,
        )

    def region(self) -> DiagnosticRegion:
        return DiagnosticRegion.build(self.bins_b, self.lat_tail_bins, self.iat_head_bins)


ALL_MODES = (TelemetryMode.SKETCH, TelemetryMode.DSMP, TelemetryMode.PM)


@dataclass(kw_only=True)
class WindowStream(PacketBatch):
    """The delivered batch in egress order (ties keep arrival order), cut at
    the last window's end; ``injected`` is unset, as telemetry cannot see it."""

    window: np.ndarray
    n_windows: int


def window_stream(delivered: PacketBatch, window_len_ns: int, duration_s: float) -> WindowStream:
    """Telemetry observes packets as they leave the queues, where bunching and
    oscillation show, so windows are cut on departure times."""
    depart = delivered.depart_ns()
    order = np.argsort(depart, kind="stable")
    depart = depart[order]
    n_windows = -(-int(duration_s * NS_PER_S) // window_len_ns)
    inside = np.searchsorted(depart, n_windows * window_len_ns)  # a prefix: depart is sorted
    stream = delivered.take(order[:inside], injected=None)
    return WindowStream(**vars(stream), window=depart[:inside] // window_len_ns,
                        n_windows=n_windows)


def _fallback_edges(bins_b: int) -> np.ndarray:
    return np.geomspace(10_000.0, 1e9, bins_b - 1)


def fit_qid_edges(
    stream: WindowStream,
    spec: ScenarioSpec,
    cfg: TelemetryConfig,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Per-queue latency/IAT edges fitted on the warmup windows.

    Latency samples are sojourns; IAT samples are per-flow gaps between
    observations. Queues silent during warmup get fallback log edges.
    """
    bincfg = cfg.binning_config()
    warm = (stream.window < cfg.fit_windows) & stream.monitored
    lat_by_qid: dict[int, np.ndarray] = {}
    iat_by_qid: dict[int, np.ndarray] = {}
    pinned_lat = {qid: deserialize_edges(vals) for qid, vals in cfg.explicit_lat_edges}
    pinned_iat = {qid: deserialize_edges(vals) for qid, vals in cfg.explicit_iat_edges}
    stride = lambda arr: arr[:: max(1, len(arr) // cfg.fit_sample_size)]  # noqa: E731
    for qid in sorted(spec.queue_policy):
        if qid in pinned_lat and qid in pinned_iat:
            lat_by_qid[qid] = pinned_lat[qid]
            iat_by_qid[qid] = pinned_iat[qid]
            continue
        sel = warm & (stream.qid == qid)
        soj = stream.sojourn_ns[sel]
        if len(soj) < 10 * cfg.bins_b:
            lat_by_qid[qid] = _fallback_edges(cfg.bins_b)
            iat_by_qid[qid] = _fallback_edges(cfg.bins_b)
            continue
        codes = flow_codes(stream.teid[sel], stream.qfi[sel])
        obs = stream.arrival_ns[sel] + soj
        order = np.lexsort((obs, codes))
        scodes, sobs = codes[order], obs[order]
        same = scodes[1:] == scodes[:-1]
        gaps = (sobs[1:] - sobs[:-1])[same]
        gaps = gaps[gaps > 0]
        # a queue whose warmup latencies are (near-)constant cannot carry a
        # fitted distribution; fall back to generic log edges rather than die
        try:
            lat_edges, _ = fit_edges(stride(soj), bincfg, cfg.lat_tail_bins, EdgeKind.LATENCY)
        except DegenerateDistributionError:
            lat_edges = _fallback_edges(cfg.bins_b)
        if len(gaps) < 10 * cfg.bins_b:
            iat_by_qid[qid] = _fallback_edges(cfg.bins_b)
        else:
            try:
                iat_edges, _ = fit_edges(stride(gaps), bincfg, cfg.iat_head_bins, EdgeKind.IAT)
            except DegenerateDistributionError:
                iat_edges = _fallback_edges(cfg.bins_b)
            iat_by_qid[qid] = iat_edges
        lat_by_qid[qid] = lat_edges
    lat_by_qid.update(pinned_lat)
    iat_by_qid.update(pinned_iat)
    return lat_by_qid, iat_by_qid


@dataclass
class ModeTelemetry:
    """Everything one telemetry mode produced over a run."""

    mode: TelemetryMode
    features: list[FeatureVector] = field(default_factory=list)
    bytes_per_window: list[int] = field(default_factory=list)
    record_lines: list[str] = field(default_factory=list)
    totals_per_window: list[WindowTotals] = field(default_factory=list)  # sketch only


@dataclass
class RunResult:
    spec: ScenarioSpec
    telemetry: TelemetryConfig
    labels: list[GroundTruthLabel]
    windows: list[int]
    modes: dict[TelemetryMode, ModeTelemetry]
    outcomes: dict[tuple[str, str], list[DetectionOutcome]]
    metrics: list[DetectionMetrics]
    lat_edges: dict[int, np.ndarray]
    iat_edges: dict[int, np.ndarray]
    sketch_records_blob: bytes = b""
    drops: DropRecord | None = None

    def metrics_by(self, kind: str, mode: str) -> DetectionMetrics:
        for m in self.metrics:
            if m.kind == kind and m.mode == mode:
                return m
        raise KeyError((kind, mode))

    def total_bytes(self, mode: TelemetryMode) -> int:
        return sum(self.modes[mode].bytes_per_window)


def active_kinds(spec: ScenarioSpec) -> list[AnomalyKind]:
    kinds = []
    for an in spec.anomalies:
        if an.kind not in kinds:
            kinds.append(an.kind)
    return kinds


def anomaly_instances(spec: ScenarioSpec, kind: AnomalyKind) -> list[tuple[int, int]]:
    return [
        (int(an.start_s * NS_PER_S), int(an.end_s * NS_PER_S))
        for an in spec.anomalies
        if an.kind is kind and an.duration_s > 0
    ]


def run_telemetry(
    delivered: PacketBatch,
    drops: DropRecord,
    labels: list[GroundTruthLabel],
    spec: ScenarioSpec,
    cfg: TelemetryConfig,
    modes: tuple[TelemetryMode, ...] = ALL_MODES,
    collect_sketch_records: bool = True,
) -> RunResult:
    """Replay a delivered stream through the enabled telemetry modes and
    evaluate detection per anomaly kind."""
    stream = window_stream(delivered, spec.window_len_ns, spec.duration_s)
    lat_edges, iat_edges = fit_qid_edges(stream, spec, cfg)
    region = cfg.region()
    registered = [fl.key for fl in spec.flows if fl.monitored]
    registered_set = set(registered)
    qids = sorted(spec.queue_policy)
    num_qids = len(qids)

    sketches: dict[int, HistogramSketch] = {}
    if TelemetryMode.SKETCH in modes:
        for qid in qids:
            sketches[qid] = HistogramSketch(
                cfg.sketch_config(spec.seed), qid=qid, lat_edges=lat_edges[qid],
                iat_edges=iat_edges[qid],
            )
    sampler = DeltaSampler(delta_ns=cfg.dsmp_delta_ns) if TelemetryMode.DSMP in modes else None

    mode_data = {m: ModeTelemetry(mode=m) for m in modes}
    sketch_blobs: list[bytes] = []
    windows = list(range(stream.n_windows))
    if sampler is not None:
        # one pass, run before the index arrays below exist: each flow's last
        # export carries across windows, so a window's postcards are the slice
        # of the run's indices inside it
        pc_idx = sampler.offer_batch(stream, stream.monitored)
        pc_bounds = np.searchsorted(pc_idx, np.searchsorted(stream.window, range(len(windows) + 1)))

    # monitored packets in stream order, as indices of the smallest type that
    # holds them, cut at the window bounds: one view per batch, no masks
    compact = np.min_scalar_type(len(stream.window))

    def by_window(idx: np.ndarray) -> list[np.ndarray]:
        return np.split(idx.astype(compact), np.searchsorted(stream.window[idx], windows[1:]))

    queue_batches = {
        q: by_window(np.flatnonzero(stream.monitored & (stream.qid == q))) for q in sketches
    }
    if TelemetryMode.PM in modes:
        pm_batches = by_window(np.flatnonzero(stream.monitored))
        # monitored drops by window; the piece past the last window is never read
        dwin = np.where(drops.monitored, drops.time_ns // spec.window_len_ns, len(windows))
        order = np.argsort(dwin, kind="stable")
        cuts = np.searchsorted(dwin[order], range(1, len(windows) + 1))
        drop_qfis = np.split(drops.qfi[order], cuts)
    for w in windows:
        if TelemetryMode.SKETCH in modes:
            md = mode_data[TelemetryMode.SKETCH]
            for qid in qids:
                idx = queue_batches[qid][w]
                if len(idx):
                    # six columns, not a take() of all nine: faster on sketch-sweep
                    idx = idx.astype(np.intp)  # converted once, not by each gather
                    soj = stream.sojourn_ns[idx]
                    sketches[qid].update_batch(
                        flow_codes(stream.teid[idx], stream.qfi[idx]), stream.bytes[idx],
                        stream.arrival_ns[idx] + soj, soj, stream.color[idx],
                    )
            md.features.extend(
                extract_sketch_features(
                    sketches, registered, region, w, spec.qfi_to_qid, registered_set
                )
            )
            n_total = n_diag = 0
            for qid in qids:
                totals = sketches[qid].window_totals(region)
                n_total += totals.n_total
                n_diag += totals.n_diag
                if collect_sketch_records:
                    sketch_blobs.append(sketches[qid].export_window_array(w).tobytes())
                sketches[qid].reset_window()
            md.totals_per_window.append(WindowTotals(n_total=n_total, n_diag=n_diag))
            md.bytes_per_window.append(
                export_cost(
                    TelemetryMode.SKETCH,
                    width=cfg.width,
                    depth=cfg.depth,
                    bins_b=cfg.bins_b,
                    num_qids=num_qids,
                )
            )

        if TelemetryMode.PM in modes:
            md = mode_data[TelemetryMode.PM]
            idx = pm_batches[w]
            rows = pm_window(
                stream.qfi[idx], stream.bytes[idx], stream.sojourn_ns[idx], drop_qfis[w], w
            )
            md.features.extend(extract_pm_features(rows, w))
            md.record_lines.extend(r.to_line() for r in rows)
            md.bytes_per_window.append(export_cost(TelemetryMode.PM, active_qfis=len(rows)))

        if sampler is not None:
            md = mode_data[TelemetryMode.DSMP]
            pc = stream.take(pc_idx[pc_bounds[w] : pc_bounds[w + 1]])
            pcs = (pc.teid, pc.qfi, pc.qid, pc.depart_ns(), pc.sojourn_ns, pc.color, pc.bytes)
            md.features.extend(
                extract_postcard_features(
                    pc.codes(), *pcs[3:], registered, region, w, lat_edges, iat_edges,
                    spec.qfi_to_qid, cfg.bins_b,
                )
            )
            md.record_lines.extend(map(postcard_line, [w] * len(pc), *(c.tolist() for c in pcs)))
            md.bytes_per_window.append(export_cost(TelemetryMode.DSMP, postcards=len(pc)))

    del stream, queue_batches  # training reads the features only; free the columns
    kinds = active_kinds(spec)
    outcomes: dict[tuple[str, str], list[DetectionOutcome]] = {}
    metrics: list[DetectionMetrics] = []
    # one mode's feature rows serve the fits of every kind
    named = {m: [fv.named_values() for fv in mode_data[m].features] for m in modes if kinds}
    for kind in kinds:
        for mode in modes:
            fvs = mode_data[mode].features
            fit = train_detectors(
                fvs, labels, kind, n_blocks=cfg.n_blocks, l2=cfg.l2, named=named[mode]
            )
            outcomes[(kind.value, mode.value)] = fit.outcomes
            metrics.append(
                evaluate(
                    fit.outcomes,
                    labels,
                    kind,
                    mode.value,
                    windows,
                    spec.window_len_ns,
                    anomaly_instances(spec, kind),
                )
            )

    return RunResult(
        spec=spec,
        telemetry=cfg,
        labels=labels,
        windows=windows,
        modes=mode_data,
        outcomes=outcomes,
        metrics=metrics,
        lat_edges=lat_edges,
        iat_edges=iat_edges,
        sketch_records_blob=b"".join(sketch_blobs),
        drops=drops,
    )


def run_scenario(
    spec: ScenarioSpec,
    cfg: TelemetryConfig,
    modes: tuple[TelemetryMode, ...] = ALL_MODES,
    collect_sketch_records: bool = True,
) -> RunResult:
    delivered, drops, labels = simulate(spec)
    return run_telemetry(delivered, drops, labels, spec, cfg, modes, collect_sketch_records)


# -- serialization ----------------------------------------------------------------


FEATURE_HEADER = (
    "# mode window scope pkts bytes diag_pkts tail_frac head_frac "
    "teids_per_qfi drops mean_delay_ns green_frac yellow_frac red_frac unregistered"
)


def _fmt(v: float | None) -> str:
    if v is None:
        return "NA"
    return f"{v:.9g}"


def feature_lines(fvs: list[FeatureVector]) -> list[str]:
    lines = []
    for fv in fvs:
        scope = ":".join(str(p) for p in fv.scope)
        cf = fv.color_fracs or (None, None, None)
        lines.append(
            " ".join(
                [
                    fv.mode,
                    str(fv.window),
                    scope,
                    _fmt(fv.pkts),
                    _fmt(fv.bytes),
                    _fmt(fv.diag_pkts),
                    _fmt(fv.tail_frac),
                    _fmt(fv.head_frac),
                    _fmt(fv.teids_per_qfi),
                    _fmt(fv.drops),
                    _fmt(fv.mean_delay_ns),
                    _fmt(cf[0]),
                    _fmt(cf[1]),
                    _fmt(cf[2]),
                    "1" if fv.unregistered else "0",
                ]
            )
        )
    return lines


def outcome_lines(outcomes: dict[tuple[str, str], list[DetectionOutcome]]) -> list[str]:
    lines = ["# kind mode window scope score fired"]
    for (kind, mode) in sorted(outcomes):
        for o in outcomes[(kind, mode)]:
            scope = ":".join(str(p) for p in o.scope)
            lines.append(f"{kind} {mode} {o.window} {scope} {o.score:.9g} {int(o.fired)}")
    return lines


def metrics_lines(result: RunResult) -> list[str]:
    lines = ["# kind mode auprc f1 positives windows ttfd_median_s ttfd_censored"]
    for m in sorted(result.metrics, key=lambda m: (m.kind, m.mode)):
        a = "NA" if m.auprc is None else f"{m.auprc:.6f}"
        t = "NA" if m.ttfd_median_s is None else f"{m.ttfd_median_s:.3f}"
        lines.append(
            f"{m.kind} {m.mode} {a} {m.f1:.6f} {m.positives} {m.windows} {t} {m.ttfd_censored}"
        )
    for mode in sorted(result.modes, key=lambda m: m.value):
        total = result.total_bytes(mode)
        mbps = total * 8 / result.spec.duration_s / 1e6
        lines.append(f"# cost {mode.value} bytes={total} mbps={mbps:.4f}")
    return lines


def write_outputs(result: RunResult, out_dir: Path, manifest: dict) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if result.sketch_records_blob:
        (out_dir / "records.bin").write_bytes(result.sketch_records_blob)
    lines: list[str] = []
    for mode in sorted(result.modes, key=lambda m: m.value):
        lines.extend(result.modes[mode].record_lines)
    (out_dir / "records.txt").write_text("\n".join(lines) + ("\n" if lines else ""))
    feats: list[str] = [FEATURE_HEADER]
    for mode in sorted(result.modes, key=lambda m: m.value):
        feats.extend(feature_lines(result.modes[mode].features))
    (out_dir / "features.txt").write_text("\n".join(feats) + "\n")
    (out_dir / "outcomes.txt").write_text("\n".join(outcome_lines(result.outcomes)) + "\n")
    label_rows = ["# window kind scope"]
    for lb in sorted(result.labels, key=lambda l: (l.window, l.kind.value, l.scope)):
        label_rows.append(f"{lb.window} {lb.kind.value} {':'.join(str(p) for p in lb.scope)}")
    (out_dir / "labels.txt").write_text("\n".join(label_rows) + "\n")
    (out_dir / "metrics.txt").write_text("\n".join(metrics_lines(result)) + "\n")
