"""End-to-end run orchestration.

One run: simulate a scenario, fit per-queue bin edges on the warmup windows,
replay the delivered stream through each enabled telemetry mode in a pass of
its own, extract features, run cross-fitted detectors per anomaly kind, and
evaluate against ground truth. All randomness descends from the scenario
seed, so a manifest fully determines every output byte.

Telemetry observes packets at their departure timestamps (the observation
point sits after the queues); windows are aligned across modes on those
timestamps. The window stream is queue-major: a queue is FIFO, so its
packets are already in egress order, and the edge fit and the sketch read
each queue as one slice. DSMP samples the delivered batch itself, in the
port's egress order, the order of its records.

A sweep replays one delivered batch many times, so its stream, its edges and
each queue's sketch chunk summaries (``HistogramSketch.summarize``) are built
once and shared, read-only, by its later runs, which only place the summaries
for their (w, d): ``_stream_and_edges`` keeps them in a weak-keyed dict by
the batch object, whose entry dies with the batch.
"""

from __future__ import annotations

import bisect
import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    DetectionMetrics,
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
from .core import CHUNK_PKTS, NS_PER_S, SketchConfig
from .simulator import (
    MAX_QID,
    AnomalyKind,
    GroundTruthLabel,
    PacketBatch,
    ScenarioError,
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
                if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
                    raise ValueError(f"{name}_edges_ns: qid {qid} edges must be finite "
                                     "and strictly increasing")

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


def check_pinned_qids(spec: ScenarioSpec, cfg: TelemetryConfig) -> None:
    """A pinned edge list must name one of the scenario's queues; one that
    names no queue would otherwise be ignored."""
    for name, pinned in (("lat", cfg.explicit_lat_edges), ("iat", cfg.explicit_iat_edges)):
        for qid, _ in pinned:
            if qid not in spec.queue_policy:
                raise ScenarioError(f"telemetry.{name}_edges_ns: qid {qid} is not in queue_policy")


ALL_MODES = (TelemetryMode.SKETCH, TelemetryMode.DSMP, TelemetryMode.PM)


@dataclass(kw_only=True)
class WindowStream(PacketBatch):
    """The delivered batch queue-major (``_queue_major``), cut at the last
    window's end. A queue is FIFO, so its delivered order is its egress order
    (``load_capture`` sorts a capture whose queue departs out of order), and
    ``monitored_rows`` gives each queue's monitored rows as one slice;
    ``injected`` is unset, as telemetry cannot see it."""

    window: np.ndarray
    n_windows: int

    def monitored_rows(self, qid: int) -> slice:
        """Queue ``qid``'s monitored rows, in egress order."""
        q = self.qid.dtype.type(qid)  # searching for a Python int would cast the column
        lo, hi = int(np.searchsorted(self.qid, q)), int(np.searchsorted(self.qid, q, "right"))
        return slice(lo, lo + int(np.count_nonzero(self.monitored[lo:hi])))


def _queue_major(delivered: PacketBatch, end_ns: int) -> np.ndarray:
    """The delivered rows that depart before ``end_ns``, by qid, each queue's
    monitored rows before its unmonitored ones, both in delivered order: one
    stable sort on a 16-bit key, in which the rows departing later take the
    largest key, sort last and are cut."""
    outside = delivered.depart_ns() >= end_ns
    key = delivered.qid.astype(np.uint16) << 1  # uint8 would overflow past qid 127
    key |= ~delivered.monitored
    key[outside] = 2 * (MAX_QID + 1)
    return np.argsort(key, kind="stable")[: len(key) - int(np.count_nonzero(outside))]


def window_stream(delivered: PacketBatch, window_len_ns: int, duration_s: float) -> WindowStream:
    """Telemetry observes packets as they leave the queues, where bunching and
    oscillation show, so windows are cut on departure times."""
    n_windows = -(-int(duration_s * NS_PER_S) // window_len_ns)
    stream = delivered.take(_queue_major(delivered, n_windows * window_len_ns), injected=None)
    window = stream.depart_ns()
    window //= window_len_ns
    return WindowStream(**vars(stream), window=window, n_windows=n_windows)


def _fallback_edges(bins_b: int) -> np.ndarray:
    return np.geomspace(10_000.0, 1e9, bins_b - 1)


def fit_qid_edges(
    stream: WindowStream,
    spec: ScenarioSpec,
    cfg: TelemetryConfig,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Per-queue latency/IAT edges fitted on the warmup windows.

    Latency samples are sojourns; IAT samples are per-flow gaps between
    observations. A pinned edge list is used as given. Otherwise a
    distribution takes generic log edges (``_fallback_edges``) in three
    cases: too few warmup latencies, too few positive IAT gaps, or a
    degenerate sample (near-constant values) that cannot carry strictly
    increasing edges.
    """
    bincfg = cfg.binning_config()
    lat_by_qid: dict[int, np.ndarray] = {}
    iat_by_qid: dict[int, np.ndarray] = {}
    pinned_lat = {qid: deserialize_edges(vals) for qid, vals in cfg.explicit_lat_edges}
    pinned_iat = {qid: deserialize_edges(vals) for qid, vals in cfg.explicit_iat_edges}
    stride = lambda arr: arr[:: max(1, len(arr) // cfg.fit_sample_size)]  # noqa: E731

    def fit(samples: np.ndarray, region_size: int, kind: EdgeKind) -> np.ndarray:
        if len(samples) >= 10 * cfg.bins_b:
            # a queue whose warmup latencies are (near-)constant cannot carry a
            # fitted distribution; fall back to generic log edges rather than die
            try:
                return fit_edges(stride(samples), bincfg, region_size, kind)[0]
            except DegenerateDistributionError:
                pass
        return _fallback_edges(cfg.bins_b)

    for qid in sorted(spec.queue_policy):
        own = stream.monitored_rows(qid)  # the warmup windows are a prefix of it
        sel = slice(own.start, own.start + np.searchsorted(stream.window[own], cfg.fit_windows))
        soj = stream.sojourn_ns[sel]
        codes = flow_codes(stream.teid[sel], stream.qfi[sel])
        obs = stream.arrival_ns[sel] + soj
        # rows are in egress order (WindowStream): a stable sort by code keeps each flow's in time
        order = np.argsort(codes, kind="stable")
        scodes, sobs = codes[order], obs[order]
        same = scodes[1:] == scodes[:-1]
        gaps = (sobs[1:] - sobs[:-1])[same]
        gaps = gaps[gaps > 0]
        lat_by_qid[qid] = (pinned_lat[qid] if qid in pinned_lat
                           else fit(soj, cfg.lat_tail_bins, EdgeKind.LATENCY))
        iat_by_qid[qid] = (pinned_iat[qid] if qid in pinned_iat
                           else fit(gaps, cfg.iat_head_bins, EdgeKind.IAT))
    return lat_by_qid, iat_by_qid


# each live delivered batch's window stream, under its (window_len_ns, duration_s),
# and its edges and sketch chunk summaries, by (qid, first window, end window), under
# the config fields fit_qid_edges reads; every array read-only
_by_batch: weakref.WeakKeyDictionary[PacketBatch, dict] = weakref.WeakKeyDictionary()


def _stream_and_edges(
    delivered: PacketBatch, spec: ScenarioSpec, cfg: TelemetryConfig,
) -> tuple[WindowStream, dict[int, np.ndarray], dict[int, np.ndarray], dict]:
    """``delivered``'s window stream, fitted edges and summaries, the stream
    and edges built on a miss by ``window_stream`` and ``fit_qid_edges``
    (looked up as module globals, so a wrapper sees every miss). The edge
    dicts are the caller's own; the arrays in them and the summaries are
    shared."""
    shape = (spec.window_len_ns, spec.duration_s)
    cached = _by_batch.get(delivered, {})
    if shape not in cached:  # a batch keeps one stream, and the edges fitted on it
        _by_batch.pop(delivered, None)  # free the old stream before building this one
        cached = _by_batch[delivered] = {shape: window_stream(delivered, *shape)}
    key = (cfg.rho, cfg.strategy, cfg.bins_b, cfg.lat_tail_bins, cfg.iat_head_bins,
           cfg.fit_windows, cfg.fit_sample_size, cfg.explicit_lat_edges, cfg.explicit_iat_edges,
           tuple(sorted(spec.queue_policy)))
    if key not in cached:  # always so for a new stream
        lat_edges, iat_edges, _ = cached[key] = (*fit_qid_edges(cached[shape], spec, cfg), {})
        for arr in [*cached[shape].columns().values(), *lat_edges.values(), *iat_edges.values()]:
            arr.flags.writeable = False  # runs share them
    lat_edges, iat_edges, summaries = cached[key]
    return cached[shape], dict(lat_edges), dict(iat_edges), summaries


@dataclass
class ModeTelemetry:
    """Everything one telemetry mode produced over a run."""

    features: np.recarray  # every window's feature rows
    bytes_per_window: list[int]
    record_lines: list[str] = field(default_factory=list)
    record_chunks: list[bytes] = field(default_factory=list)  # sketch: records.bin, unjoined


@dataclass
class RunResult:
    spec: ScenarioSpec
    labels: list[GroundTruthLabel]
    windows: list[int]
    modes: dict[TelemetryMode, ModeTelemetry]
    outcomes: dict[tuple[str, str], np.recarray]  # train_detectors' rows
    metrics: list[DetectionMetrics]
    lat_edges: dict[int, np.ndarray]
    iat_edges: dict[int, np.ndarray]
    # blocks train_detectors left unscored: (kind, mode, first window, last window, missing class)
    unscored: list[tuple[str, str, int, int, str]] = field(default_factory=list)

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
    return [sp for sp in (an.span_ns for an in spec.anomalies if an.kind is kind) if sp[0] < sp[1]]


def _chunks(starts: list[int]) -> list[tuple[int, int]]:
    """Cut a queue's packets at window starts into chunks of at most
    ``CHUNK_PKTS`` packets; a window with more is a chunk of its own.
    ``starts[w]`` is window w's first packet and the last entry the end of
    the last window. Gives each chunk's first and end window: every window is in
    one chunk."""
    out, a = [], 0
    while a < len(starts) - 1:
        b = max(a + 1, bisect.bisect_right(starts, starts[a] + CHUNK_PKTS) - 1)
        out.append((a, b))
        a = b
    return out


def _sketch_pass(stream, spec, cfg, lat_edges, iat_edges, collect_records,
                 summaries=None) -> ModeTelemetry:
    """One histogram sketch per queue, fed the queue's monitored packets in
    chunks of whole windows (``_chunks``), each a slice of the stream: one
    fold and one query answer every window of a chunk, and one table holds
    the run's feature rows. Each chunk's summary is taken from, or kept in,
    ``summaries`` by (qid, first window, end window)."""
    summaries = {} if summaries is None else summaries
    region = cfg.region()
    registered = [fl.key for fl in spec.flows if fl.monitored]
    codes = np.array([k.code() for k in registered], dtype=np.uint64)
    key_qid = spec.qid_table()[[k.qfi for k in registered]]
    rows, records = [], {}
    for qid in sorted(spec.queue_policy):
        sketch = HistogramSketch(cfg.sketch_config(spec.seed), qid=qid, lat_edges=lat_edges[qid],
                                 iat_edges=iat_edges[qid])
        mine = codes[key_qid == qid]
        own = stream.monitored_rows(qid)  # each window's first packet in it, then its end
        at = (own.start + np.searchsorted(stream.window[own], range(stream.n_windows + 1))).tolist()
        for a, b in _chunks(at):
            sel = slice(at[a], at[b])
            soj = stream.sojourn_ns[sel]
            summaries[qid, a, b] = sketch.update_batch(
                flow_codes(stream.teid[sel], stream.qfi[sel]), stream.bytes[sel],
                stream.arrival_ns[sel] + soj, soj, stream.color[sel], window=stream.window[sel],
                summary=summaries.get((qid, a, b)))
            wins = np.arange(a, b)
            rows.append((np.repeat(wins, len(mine)), np.tile(mine, b - a),
                         sketch.query_flows(mine, region, wins)))
            if collect_records:
                records.update(((w, qid), sketch.export_window_array(w).tobytes())
                               for w in range(a, b))
    if not rows:  # a run shorter than one nanosecond has no window: ask for no key
        rows.append((np.zeros(0, np.int64), mine[:0], sketch.query_flows(mine[:0], region)))
    windows, scopes, ests = zip(*rows)
    table = extract_sketch_features(
        np.concatenate(windows), np.concatenate(scopes),
        {name: np.concatenate([e[name] for e in ests]) for name in ests[0]}, region)
    cost = export_cost(TelemetryMode.SKETCH, width=cfg.width, depth=cfg.depth,
                       bins_b=cfg.bins_b, num_qids=len(spec.queue_policy))
    return ModeTelemetry(table, [cost] * stream.n_windows,
                         record_chunks=[records[key] for key in sorted(records)])


def _dsmp_pass(delivered, n_windows, spec, cfg, lat_edges, iat_edges) -> ModeTelemetry:
    """Delta-triggered postcards: each flow's last export carries across
    windows, so one sampler pass over the delivered rows that depart in the
    ``n_windows`` windows serves the run. A flow keeps to one FIFO queue, so
    its rows are in egress order; the postcards are then put in the port's,
    by departure with ties in delivered order."""
    idx = DeltaSampler(delta_ns=cfg.dsmp_delta_ns).offer_batch(
        delivered, delivered.depart_ns() < n_windows * spec.window_len_ns)
    pc = delivered.take(idx, injected=None)
    pc = pc.take(np.argsort(pc.depart_ns(), kind="stable"))
    window = pc.depart_ns() // spec.window_len_ns
    pcs = (window, pc.teid, pc.qfi, pc.qid, pc.depart_ns(), pc.sojourn_ns, pc.color, pc.bytes)
    table = extract_postcard_features(
        window, pc.codes(), *pcs[4:], [fl.key for fl in spec.flows if fl.monitored],
        cfg.region(), n_windows, lat_edges, iat_edges, spec.qid_table(), cfg.bins_b,
    )
    lines = list(map(postcard_line, *(c.tolist() for c in pcs)))
    costs = [export_cost(TelemetryMode.DSMP, postcards=n)
             for n in np.bincount(window, minlength=n_windows).tolist()]
    return ModeTelemetry(table, costs, lines)


def _pm_pass(stream, drops, spec) -> ModeTelemetry:
    """Per-QFI counters of each window's monitored packets and drops."""
    dwin = drops.arrival_ns // spec.window_len_ns
    dsel = drops.monitored & (dwin < stream.n_windows)
    rows = pm_window(stream.window, stream.qfi, stream.bytes, stream.sojourn_ns,
                     stream.monitored, dwin[dsel], drops.qfi[dsel])
    lines = [f"pm {w} {q} {n} {b} {d} {m:.3f}" for w, q, n, b, d, m in rows.tolist()]
    costs = [export_cost(TelemetryMode.PM, active_qfis=n)
             for n in np.bincount(rows.window, minlength=stream.n_windows).tolist()]
    return ModeTelemetry(extract_pm_features(rows), costs, lines)


def run_telemetry(
    delivered: PacketBatch,
    drops: PacketBatch,
    labels: list[GroundTruthLabel],
    spec: ScenarioSpec,
    cfg: TelemetryConfig,
    modes: tuple[TelemetryMode, ...] = ALL_MODES,
    collect_sketch_records: bool = True,
) -> RunResult:
    """Replay a delivered stream through each enabled telemetry mode, one
    pass per mode, and evaluate detection per anomaly kind.

    The window stream is built once per ``delivered`` batch, window length
    and duration, and the edges and sketch chunk summaries once per binning
    setting, then reused by every later call with the same batch object while
    it lives; the batch is the cache's key, by identity. So a batch must not
    be changed in place once it is handed over."""
    check_pinned_qids(spec, cfg)
    stream, lat_edges, iat_edges, summaries = _stream_and_edges(delivered, spec, cfg)
    # DSMP first, as its sampler's transient columns then set no new memory peak
    passes = {
        TelemetryMode.DSMP: lambda: _dsmp_pass(delivered, stream.n_windows, spec, cfg,
                                               lat_edges, iat_edges),
        TelemetryMode.SKETCH: lambda: _sketch_pass(stream, spec, cfg, lat_edges, iat_edges,
                                                   collect_sketch_records, summaries),
        TelemetryMode.PM: lambda: _pm_pass(stream, drops, spec),
    }
    done = {m: run() for m, run in passes.items() if m in modes}
    mode_data = {m: done[m] for m in modes}
    windows = list(range(stream.n_windows))
    outcomes: dict[tuple[str, str], np.recarray] = {}
    metrics: list[DetectionMetrics] = []
    unscored: list[tuple[str, str, int, int, str]] = []
    for kind in active_kinds(spec):
        for mode in modes:
            found, poor = train_detectors(mode_data[mode].features, labels, kind,
                                          n_blocks=cfg.n_blocks, l2=cfg.l2)
            outcomes[(kind.value, mode.value)] = found
            unscored += [(kind.value, mode.value, *block) for block in poor]
            scored = [w for w in windows if not any(a <= w <= b for a, b, _ in poor)]
            metrics.append(evaluate(found, labels, kind, mode.value, scored, spec.window_len_ns,
                                    anomaly_instances(spec, kind)))
    return RunResult(spec=spec, labels=labels, windows=windows, modes=mode_data,
                     outcomes=outcomes, metrics=metrics, lat_edges=lat_edges, iat_edges=iat_edges,
                     unscored=unscored)


def run_scenario(
    spec: ScenarioSpec,
    cfg: TelemetryConfig,
    modes: tuple[TelemetryMode, ...] = ALL_MODES,
    collect_sketch_records: bool = True,
) -> RunResult:
    delivered, drops, labels = simulate(spec)
    return run_telemetry(delivered, drops, labels, spec, cfg, modes, collect_sketch_records)


# -- serialization ----------------------------------------------------------------


FEATURE_COLUMNS = (
    "mode", "window", "scope", "pkts", "bytes", "diag_pkts", "tail_frac", "head_frac",
    "teids_per_qfi", "drops", "mean_delay_ns", "green_frac", "yellow_frac", "red_frac",
    "unregistered",
)
FEATURE_HEADER = "# " + " ".join(FEATURE_COLUMNS)
_FORMAT_BY_KIND = {"U": "", "i": "d", "b": "d", "f": ".9g"}  # by dtype kind; bool as 0/1


def _column_text(table: np.recarray, name: str) -> list[str]:
    """One features.txt column as text: NA for a field the mode does not have."""
    if name not in table.dtype.names:
        return ["NA"] * len(table)
    if name == "scope":
        return [":".join(str(p) for p in scope) for scope in table.scope.tolist()]
    spec = _FORMAT_BY_KIND[table.dtype[name].kind]
    return [format(v, spec) for v in table[name].tolist()]


def feature_lines(table: np.recarray) -> list[str]:
    return [" ".join(row) for row in zip(*(_column_text(table, c) for c in FEATURE_COLUMNS))]


def outcome_lines(outcomes: dict[tuple[str, str], np.recarray]) -> list[str]:
    """The scored rows of each (kind, mode); an unscored row is left out."""
    lines = ["# kind mode window scope score fired"]
    for (kind, mode) in sorted(outcomes):
        rows = outcomes[(kind, mode)]
        lines += [f"{kind} {mode} {w} {':'.join(map(str, scope))} {s:.9g} {int(f)}"
                  for w, scope, s, f in rows[~np.isnan(rows.score)].tolist()]
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
    return lines + unscored_lines(result)


def unscored_lines(result: RunResult) -> list[str]:
    """One line per block left unscored, as metrics.txt ends."""
    return [f"# unscored {kind} {mode} windows={first}-{last} reason=no {missing} examples"
            for kind, mode, first, last, missing in result.unscored]


def write_outputs(result: RunResult, out_dir: Path, manifest: dict) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    sketch = result.modes.get(TelemetryMode.SKETCH)
    blob = b"".join(sketch.record_chunks) if sketch is not None else b""
    if blob:
        (out_dir / "records.bin").write_bytes(blob)
    else:  # a run without sketch records leaves no earlier run's file behind
        (out_dir / "records.bin").unlink(missing_ok=True)
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
