"""Per-window feature extraction, detectors, and evaluation metrics.

Features are held in one numpy record array per telemetry mode, one row per
(window, scope) and one float64 field per feature, at the native granularity
of the mode: per-flow for sketch estimates and postcards, per-QFI for PM
counters. A feature a mode cannot observe has no field at all, never a zero;
a zero says "measured nothing", a missing field says "cannot measure".

Detection is per (window, scope). Two built-in scorers:

* the diagnostic-lift rule: fire when the estimated diagnostic ratio of a
  flow exceeds its baseline ceiling (baseline diagnostic mass plus the
  collision floor, over baseline volume);
* a ridge-regularized linear scorer over a per-anomaly-kind feature mask,
  trained and applied under temporally blocked cross-fitting so train and
  test windows never interleave.

External ML stays pluggable: features and outcomes serialize to columnar
text, and anything that can score a feature file can act as a detector.

Window-level evaluation reduces scope scores by max, then computes AUPRC by
step interpolation over the score ranking (ties grouped), F1 at a tuned
threshold, and time-to-first-detection per anomaly instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .binning import DiagnosticRegion
from .baselines import QfiCounters
from .core import MAX_QFI, QFI_BITS, FlowKey
from .simulator import AnomalyKind, GroundTruthLabel
from .sizing import FlowBaseline
from .sketch import HistogramSketch

if TYPE_CHECKING:
    from .pipeline import RunResult


class FitError(ValueError):
    """Detector training is impossible on the given fold."""


@dataclass(frozen=True)
class DetectionOutcome:
    window: int
    scope: tuple
    score: float  # in [0, 1]
    fired: bool
    detector: str


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den in float64, 0.0 where den is 0 (the same doubles as
    float(num) / float(den) element by element)."""
    return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0)


def _fracs(counts: np.ndarray) -> np.ndarray:
    """Shares of each count in its row (last axis); an all-zero row gives 0.0."""
    return _ratio(counts, counts.sum(axis=-1, keepdims=True))


def feature_table(
    mode: str, window: int, scopes: Sequence[tuple], unregistered: bool | Sequence[bool],
    **features,
) -> np.recarray:
    """One window's feature rows: ``mode``, ``window``, ``scope`` (the scope
    tuple) and ``unregistered``, then one float64 field per feature in the
    order given. A feature the mode cannot observe gets no field."""
    table = np.recarray(len(scopes), dtype=[
        ("mode", "U6"), ("window", np.int64), ("scope", object), ("unregistered", bool),
        *((name, np.float64) for name in features),
    ])
    table.mode, table.window, table.unregistered = mode, window, unregistered
    table.scope = np.fromiter(scopes, dtype=object, count=len(scopes))
    for name, values in features.items():
        table[name] = values
    return table


def extract_sketch_features(
    sketches: dict[int, HistogramSketch],
    keys: Sequence[FlowKey],
    region: DiagnosticRegion,
    window: int,
    qfi_to_qid: dict[int, int],
) -> np.recarray:
    """Row-minimum estimates for each key, queried on its queue's sketch.

    The keys are the registered flows, so no row is flagged unregistered;
    the sketch would answer any key.
    """
    codes = np.array([k.code() for k in keys], dtype=np.uint64)
    qids = np.array([qfi_to_qid[k.qfi] for k in keys], dtype=np.int64)
    # every queue is asked, for no key too, so an empty table keeps its fields
    ests = [sketches[q].query_flows(codes[qids == q], region) for q in sorted(sketches)]
    est = {name: np.concatenate([e[name] for e in ests]) for name in ests[0]}
    return _flow_table(
        "sketch", window, region, codes[np.argsort(qids, kind="stable")], est["pkt"],
        est["bytes"], est["diag"], est["lat"], est["iat"], est["color"],
        np.zeros(len(keys), dtype=bool),
    )


def extract_postcard_features(
    codes: np.ndarray, arrival_ns: np.ndarray, sojourn_ns: np.ndarray, color: np.ndarray,
    nbytes: np.ndarray, keys: Sequence[FlowKey], region: DiagnosticRegion, window: int,
    lat_edges_by_qid: dict[int, np.ndarray], iat_edges_by_qid: dict[int, np.ndarray],
    qfi_to_qid: dict[int, int], bins_b: int,
) -> np.recarray:
    """Exact per-flow stats over the sampled packets only.

    The columns are one window's postcards in arrival order. Every key gets a
    row, and postcards expose exact identities, so a flow outside the keys (a
    remapped tunnel, say) gets one too. IAT samples are gaps between
    consecutive postcards of the same flow, the only spacing the collector
    can see.
    """
    registered = np.array([k.code() for k in keys], dtype=np.uint64)
    order = np.argsort(codes, kind="stable")  # stable: each flow keeps arrival order
    codes, arrival_ns = codes[order].astype(np.uint64), arrival_ns[order]
    scopes = np.union1d(registered, codes)  # sorted, and code order is FlowKey order
    n, flow = len(scopes), np.searchsorted(scopes, codes)  # each postcard's row
    qid = np.array([qfi_to_qid[c & MAX_QFI] for c in scopes.tolist()], dtype=np.int64)[flow]
    same = flow[1:] == flow[:-1]  # the gap to the next postcard stays in its flow
    gaps = np.diff(arrival_ns)[same]
    lat = _binned(flow, qid, sojourn_ns[order], lat_edges_by_qid, n, bins_b)
    iat = _binned(flow[1:][same], qid[1:][same], gaps, iat_edges_by_qid, n, bins_b)
    diag = lat[:, sorted(region.lat_tail_bins)].sum(axis=1)
    diag += iat[:, sorted(region.iat_head_bins)].sum(axis=1)
    # exact per-flow byte sums, as differences of one running int64 sum
    lo, hi = np.searchsorted(codes, scopes), np.searchsorted(codes, scopes, side="right")
    byte_csum = np.concatenate(([0], np.cumsum(nbytes[order], dtype=np.int64)))
    return _flow_table(
        "dsmp", window, region, scopes, hi - lo, byte_csum[hi] - byte_csum[lo], diag,
        lat, iat, np.bincount(flow * 3 + color[order], minlength=3 * n).reshape(n, 3),
        np.isin(scopes, registered, invert=True),
    )


def _binned(
    flow: np.ndarray, qid: np.ndarray, values: np.ndarray, edges_by_qid: dict[int, np.ndarray],
    n_flows: int, bins_b: int,
) -> np.ndarray:
    """[n_flows, bins_b] counts of each sample's bin under its queue's edges
    (``bin_of`` semantics: the smallest i with value < edges[i])."""
    bins = np.empty(len(values), dtype=np.int64)
    for q in np.unique(qid).tolist():
        m = qid == q
        bins[m] = np.searchsorted(np.asarray(edges_by_qid[q]), values[m], side="right")
    return np.bincount(flow * bins_b + bins, minlength=n_flows * bins_b).reshape(n_flows, bins_b)


def _flow_table(
    mode: str, window: int, region: DiagnosticRegion, codes: np.ndarray, pkts: np.ndarray,
    nbytes: np.ndarray, diag: np.ndarray, lat: np.ndarray, iat: np.ndarray, colors: np.ndarray,
    unregistered: np.ndarray,
) -> np.recarray:
    """A per-flow table, in scope order, from per-flow counts: packets, bytes,
    diagnostic mass and the latency, IAT and color histograms."""
    order = np.argsort(codes, kind="stable")  # code order is scope order
    codes, pkts, lat, iat = codes[order], pkts[order], lat[order], iat[order]
    qfi = (codes & MAX_QFI).astype(np.int64)
    lat_fracs, iat_fracs, color_fracs = _fracs(lat), _fracs(iat), _fracs(colors[order])
    return feature_table(
        mode, window, [("flow", c >> QFI_BITS, c & MAX_QFI) for c in codes.tolist()],
        unregistered[order],
        pkts=pkts,
        bytes=nbytes[order],
        diag_pkts=diag[order],
        tail_frac=_ratio(lat[:, sorted(region.lat_tail_bins)].sum(axis=1), lat.sum(axis=1)),
        head_frac=_ratio(iat[:, sorted(region.iat_head_bins)].sum(axis=1), iat.sum(axis=1)),
        **{f"lat{i}": col for i, col in enumerate(lat_fracs.T)},
        **{f"iat{i}": col for i, col in enumerate(iat_fracs.T)},
        green_frac=color_fracs[:, 0],
        yellow_frac=color_fracs[:, 1],
        red_frac=color_fracs[:, 2],
        # flows of the row's QFI that carried packets this window
        teids_per_qfi=np.bincount(qfi[pkts > 0], minlength=MAX_QFI + 1)[qfi],
    )


def extract_pm_features(rows: Sequence[QfiCounters], window: int) -> np.recarray:
    """QFI-scope rows only; per-flow and distributional features have no field."""
    rows = sorted(rows, key=lambda r: r.qfi)
    return feature_table(
        "pm", window, [("qfi", r.qfi) for r in rows], False,
        pkts=[r.pkt_count for r in rows],
        bytes=[r.byte_count for r in rows],
        drops=[r.drop_count for r in rows],
        mean_delay_ns=[r.mean_delay_ns for r in rows],
    )


# -- diagnostic-lift rule ------------------------------------------------------


def diag_lift_detector(
    fv: np.record, base: FlowBaseline, eps: float, beta: float = 0.0
) -> DetectionOutcome:
    """Fire when the estimated diagnostic ratio of a feature row exceeds the
    baseline ceiling.

    The ceiling is (x_k_T + eps*N_T) / x_k: the largest ratio collision noise
    alone can produce for this flow. Spillover beta does not change the rule,
    only how much lift an anomaly needs before the rule fires (see sizing).
    """
    if "diag_pkts" not in fv.dtype.names:
        raise ValueError("diagnostic-lift rule needs a mode with diag_pkts")
    window, scope, pkts = int(fv.window), fv.scope, float(fv.pkts)
    ceiling = (base.x_k_T + eps * base.n_T) / base.x_k
    if pkts <= 0:
        return DetectionOutcome(window, scope, 0.0, False, "diag_lift")
    ratio = float(fv.diag_pkts) / pkts
    fired = ratio > ceiling
    if ceiling >= 1.0:
        score = 0.0
    else:
        score = min(1.0, max(0.0, (ratio - ceiling) / (1.0 - ceiling)))
    return DetectionOutcome(window, scope, score, fired, "diag_lift")


# -- linear detector with temporal blocking ---------------------------------------

DEFAULT_FEATURE_MASKS: dict[AnomalyKind, tuple[str, ...]] = {
    # volume spike plus bunched arrivals and a latency spike
    AnomalyKind.MICROBURST: ("pkts", "bytes", "head_frac", "tail_frac", "diag_pkts"),
    # sustained latency tail
    AnomalyKind.CONGESTION: ("tail_frac", "pkts", "bytes", "diag_pkts"),
    # inter-arrival distortion across flows
    AnomalyKind.CONTENTION: ("head_frac", "tail_frac", "iat0", "iat1", "iat2", "diag_pkts"),
    # per-tunnel throughput and policing shifts
    AnomalyKind.POLICY_ABUSE: ("pkts", "bytes", "green_frac", "yellow_frac", "teids_per_qfi"),
}
PM_FALLBACK_MASK = ("pkts", "bytes", "drops", "mean_delay_ns")


def feature_matrix(table: np.recarray, mask: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Matrix over the masked features the table has, one column each.

    Falls back to ``PM_FALLBACK_MASK`` when the mask has no field in the
    table (PM lacks all distributional fields, for example).
    """
    names = [m for m in mask if m in table.dtype.names]
    if not names:
        names = [m for m in PM_FALLBACK_MASK if m in table.dtype.names]
    return np.column_stack([table[n] for n in names]), names


class ScopeNormalizer:
    """Per-scope robust standardization fitted on training rows.

    Feature levels differ by orders of magnitude across flows; normalizing
    each scope by its own training median/IQR turns levels into lifts.

    Scopes are integer ids below ``n_scopes``; ``med`` and ``iqr`` hold one
    row per id. An id without training rows takes the statistics of all of
    them, and an IQR <= 0 becomes 1.0. ``fit`` sorts each column by (id,
    value) once and reads every group's order statistics by index with
    numpy's own formulas (the ``np.median`` middle mean, the ``linear``
    quantile's ``_lerp``), so the doubles equal per-scope ``np.median`` and
    ``np.quantile`` calls. That needs finite features without -0.0, as
    feature tables are: no NaN reaches the sort, and which of two equal
    values is read cannot show.
    """

    def __init__(self) -> None:
        self.med: np.ndarray | None = None
        self.iqr: np.ndarray | None = None

    def fit(self, X: np.ndarray, sid: np.ndarray, n_scopes: int) -> None:
        med = np.median(X, axis=0)
        iqr = np.quantile(X, 0.75, axis=0) - np.quantile(X, 0.25, axis=0)
        self.med, self.iqr = np.tile(med, (n_scopes, 1)), np.tile(iqr, (n_scopes, 1))
        count = np.bincount(sid, minlength=n_scopes)
        (g,) = np.nonzero(count)
        n, start = count[g], (np.cumsum(count) - count)[g]
        # each column sorted by value within each scope's contiguous run
        ranked = np.column_stack([X[np.lexsort((col, sid)), c] for c, col in enumerate(X.T)])

        def at(k):  # the k-th smallest of every group, one row per group
            return ranked[start + k]

        a, b = at((n - 1) // 2), at(n // 2)  # the middle value, or the two
        self.med[g] = np.where((n % 2 == 1)[:, None], a / 1.0, (a + b) / 2.0)
        q = []
        for p in (0.75, 0.25):
            vi = (n - 1) * p  # the virtual index; its neighbours are interpolated
            k = np.floor(vi)
            gamma = (vi - k)[:, None]
            a, b = at(k.astype(np.intp)), at(np.minimum(k.astype(np.intp) + 1, n - 1))
            q.append(np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma))
        self.iqr[g] = q[0] - q[1]
        self.iqr = np.where(self.iqr > 0, self.iqr, 1.0)

    def transform(self, X: np.ndarray, sid: np.ndarray) -> np.ndarray:
        return (X - self.med[sid]) / self.iqr[sid]


class LinearDetector:
    """Deterministic ridge scorer; scores squashed to [0, 1] by a logistic."""

    def __init__(self, l2: float = 1.0):
        self.l2 = l2
        self.weights: np.ndarray | None = None
        self.mean: np.ndarray | None = None
        self.scale: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearDetector":
        if len(np.unique(y)) < 2:
            missing = "positive" if not y.any() else "negative"
            raise FitError(f"training data has no {missing} class")
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale = np.where(std > 0, std, 1.0)
        xs = (X - self.mean) / self.scale
        xs = np.hstack([xs, np.ones((len(xs), 1))])
        target = np.where(y > 0, 1.0, -1.0)
        # anomaly windows are rare; balance the classes so a handful of
        # positives is not washed out by thousands of clean rows (ratio
        # capped so a tiny positive set cannot dominate the fit)
        n_pos = int((y > 0).sum())
        n_neg = len(y) - n_pos
        w_pos = min(n_neg / n_pos, 300.0)
        sample_w = np.where(y > 0, w_pos, 1.0)
        xw = xs * sample_w[:, None]
        reg = self.l2 * np.eye(xs.shape[1])
        reg[-1, -1] = 0.0  # never penalize the intercept
        self.weights = np.linalg.solve(xs.T @ xw + reg, xw.T @ target)
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        xs = (X - self.mean) / self.scale
        xs = np.hstack([xs, np.ones((len(xs), 1))])
        raw = xs @ self.weights
        return 1.0 / (1.0 + np.exp(-np.clip(raw, -60, 60)))


def _scope_matches(fv_scope: tuple, label: GroundTruthLabel) -> bool:
    ls = label.scope
    if ls == ("all",):
        return True
    if ls[0] == "flow":
        if fv_scope[0] == "flow":
            # tunnel-level attribution: a flow that remaps its class is
            # still the same culprit tunnel
            return fv_scope[1] == ls[1]
        return fv_scope == ("qfi", ls[2])  # QFI-scope view of a flow target
    if ls[0] == "qfi":
        if fv_scope[0] == "qfi":
            return fv_scope[1] == ls[1]
        return fv_scope[2] == ls[1]  # flow inside the targeted class
    return False


def label_fv(
    scope: tuple, window: int, labels_by_window: dict[int, list[GroundTruthLabel]]
) -> int | None:
    """1 = scope targeted in an active window, 0 = clean window,
    None = active window but different scope (excluded from training)."""
    active = labels_by_window.get(window, [])
    if not active:
        return 0
    return 1 if any(_scope_matches(scope, lb) for lb in active) else None


def temporal_blocks(windows: Sequence[int], n_blocks: int) -> list[list[int]]:
    """Contiguous window blocks; train and test never interleave."""
    uniq = sorted(set(windows))
    n_blocks = max(1, min(n_blocks, len(uniq)))
    size = math.ceil(len(uniq) / n_blocks)
    return [uniq[i : i + size] for i in range(0, len(uniq), size)]


def train_detectors(
    table: np.recarray,
    labels: Sequence[GroundTruthLabel],
    kind: AnomalyKind,
    n_blocks: int = 4,
    l2: float = 1.0,
) -> list[DetectionOutcome]:
    """Cross-fitted linear detection for one anomaly kind over one mode's
    feature table.

    Every window lands in exactly one test block and is scored by a model
    trained only on the other (temporally disjoint) blocks; thresholds are
    tuned on training windows by max F1. Scopes become integer ids once per
    table, so each fold's normalizer fit and transform is a fixed number of
    numpy calls however many scopes and rows the fold has.
    """
    if not len(table):
        return []
    X, _ = feature_matrix(table, DEFAULT_FEATURE_MASKS[kind])
    scopes, windows = table.scope.tolist(), table.window
    ids: dict[tuple, int] = {}
    sid = np.fromiter((ids.setdefault(s, len(ids)) for s in scopes), dtype=np.intp,
                      count=len(scopes))
    labels_by_window: dict[int, list[GroundTruthLabel]] = {}
    for lb in labels:
        if lb.kind is kind:
            labels_by_window.setdefault(lb.window, []).append(lb)
    # rows of windows without a label of this kind are clean (0); the rest
    # are labelled by scope, with None (-2) kept out of training
    y = np.zeros(len(table), dtype=np.int64)
    for i in np.nonzero(np.isin(windows, list(labels_by_window)))[0].tolist():
        v = label_fv(scopes[i], int(windows[i]), labels_by_window)
        y[i] = -2 if v is None else v
    # windows where some other anomaly kind is active are neither clean
    # negatives nor positives for this detector; keep them out of training
    in_other = np.isin(windows, [lb.window for lb in labels if lb.kind is not kind])
    y = np.where((y == 0) & in_other, -2, y)

    blocks = temporal_blocks(windows.tolist(), n_blocks)
    detector = f"linear:{kind.value}"
    outcomes: list[DetectionOutcome] = []
    for block in blocks:
        test_mask = np.isin(windows, block)
        train_mask = ~test_mask & (y >= 0)
        assert not np.isin(windows[train_mask], block).any()
        if not train_mask.any() or len(np.unique(y[train_mask])) < 2:
            missing = "positive" if not (y[train_mask] == 1).any() else "negative"
            raise FitError(
                f"{kind.value}: training folds for block starting at window "
                f"{block[0]} have no {missing} examples"
            )
        norm = ScopeNormalizer()
        norm.fit(X[train_mask], sid[train_mask], len(ids))
        xt = norm.transform(X[train_mask], sid[train_mask])
        det = LinearDetector(l2=l2).fit(xt, y[train_mask])
        train_scores = det.score(xt)
        thr = best_f1_threshold(
            _window_max(windows[train_mask], train_scores),
            set(windows[train_mask & (y == 1)].tolist()),
        )[0]
        (test,) = np.nonzero(test_mask)
        test_scores = det.score(norm.transform(X[test], sid[test]))
        outcomes.extend(
            DetectionOutcome(w, scopes[i], s, s >= thr, detector)
            for i, w, s in zip(test.tolist(), windows[test].tolist(), test_scores.tolist())
        )
    outcomes.sort(key=lambda o: (o.window, o.scope))
    return outcomes


def _window_max(windows: np.ndarray, scores: np.ndarray) -> dict[int, float]:
    out: dict[int, float] = {}
    for w, s in zip(windows.tolist(), scores.tolist()):
        if w not in out or s > out[w]:
            out[w] = s
    return out


# -- metrics -------------------------------------------------------------------


def auprc(y_true: Sequence[int], scores: Sequence[float]) -> float | None:
    """Area under precision-recall by step interpolation, ties grouped.

    None when there are no positives (the curve is undefined). A constant
    scorer collapses to one group and scores exactly the prevalence.
    """
    y = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    pos = int(y.sum())
    if pos == 0:
        return None
    order = np.argsort(-s, kind="stable")
    y = y[order]
    s = s[order]
    area = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    n = len(y)
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tp += int(y[i:j].sum())
        fp += (j - i) - int(y[i:j].sum())
        recall = tp / pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return area


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def best_f1_threshold(
    scores_by_window: dict[int, float], positive_windows: set[int]
) -> tuple[float, float]:
    """Threshold (over window-max scores) maximizing F1.

    Candidate thresholds sit midway between adjacent distinct scores, so the
    chosen cut carries margin on both sides instead of grazing a training
    score; ties prefer the higher threshold.
    """
    items = sorted(scores_by_window.items())
    if not items:
        return 1.0, 0.0
    uniq = sorted({s for _, s in items}, reverse=True)
    candidates = [(a + b) / 2 for a, b in zip(uniq, uniq[1:])] + [uniq[-1]]
    best = (1.0, -1.0)
    for thr in candidates:
        tp = sum(1 for w, s in items if s >= thr and w in positive_windows)
        fp = sum(1 for w, s in items if s >= thr and w not in positive_windows)
        fn = sum(1 for w, s in items if s < thr and w in positive_windows)
        f1 = f1_from_counts(tp, fp, fn)
        if f1 > best[1]:
            best = (thr, f1)
    return best


@dataclass
class DetectionMetrics:
    kind: str
    mode: str
    auprc: float | None
    f1: float
    positives: int
    windows: int
    ttfd_median_s: float | None
    ttfd_censored: int
    ttfd_instances: int


def ttfd_seconds(
    fired_windows: set[int],
    instances: Sequence[tuple[int, int]],
    window_len_ns: int,
) -> tuple[float | None, int, list[float]]:
    """Median delay from anomaly onset to its first fired window.

    Delay = max(0, window_start - onset): detection inside the onset window
    counts as zero (window resolution). Instances with no fired window before
    they end are censored: excluded from the median, counted separately.
    """
    values: list[float] = []
    censored = 0
    for onset_ns, end_ns in instances:
        w0 = onset_ns // window_len_ns
        w1 = max(w0, (end_ns - 1) // window_len_ns)
        hit = None
        for w in range(int(w0), int(w1) + 1):
            if w in fired_windows:
                hit = w
                break
        if hit is None:
            censored += 1
        else:
            values.append(max(0, hit * window_len_ns - onset_ns) / 1e9)
    if not values:
        return None, censored, values
    return float(np.median(values)), censored, values


def evaluate(
    outcomes: Sequence[DetectionOutcome],
    labels: Sequence[GroundTruthLabel],
    kind: AnomalyKind,
    mode: str,
    all_windows: Sequence[int],
    window_len_ns: int,
    instances: Sequence[tuple[int, int]] = (),
) -> DetectionMetrics:
    """Window-level metrics: scope scores reduce by max per window."""
    scores: dict[int, float] = {w: 0.0 for w in all_windows}
    fired: set[int] = set()
    for o in outcomes:
        if o.window in scores:
            scores[o.window] = max(scores[o.window], o.score)
        if o.fired:
            fired.add(o.window)
    positive = {lb.window for lb in labels if lb.kind is kind}
    y = [1 if w in positive else 0 for w in sorted(scores)]
    s = [scores[w] for w in sorted(scores)]
    area = auprc(y, s)
    tp = len(fired & positive)
    fp = len(fired - positive)
    fn = len(positive - fired)
    median_s, censored, _ = ttfd_seconds(fired, instances, window_len_ns)
    return DetectionMetrics(
        kind=kind.value,
        mode=mode,
        auprc=area,
        f1=f1_from_counts(tp, fp, fn),
        positives=len(positive),
        windows=len(scores),
        ttfd_median_s=median_s,
        ttfd_censored=censored,
        ttfd_instances=len(instances),
    )


def pooled_auprc(result: RunResult, mode: str) -> float | None:
    """Any-anomaly AUPRC of one mode: a window scores the max over every
    kind's outcomes (0.0 without any) and is positive when any label falls
    in it."""
    scores = {w: 0.0 for w in result.windows}
    for (_, md), outs in result.outcomes.items():
        if md != mode:
            continue
        for o in outs:
            scores[o.window] = max(scores[o.window], o.score)
    positive = {lb.window for lb in result.labels}
    return auprc([1 if w in positive else 0 for w in result.windows],
                 [scores[w] for w in result.windows])


def pareto_front(points: Sequence[tuple[float, float]]) -> list[bool]:
    """Flag points not dominated on (cost down, accuracy up)."""
    flags = []
    for i, (ci, ai) in enumerate(points):
        dominated = any(
            (cj <= ci and aj >= ai and (cj < ci or aj > ai)) for j, (cj, aj) in enumerate(points)
        )
        flags.append(not dominated)
    return flags
