"""Per-window feature extraction, detectors, and evaluation metrics.

Features are held in one numpy record array per telemetry mode, one row per
(window, scope) and one float64 field per feature, at the native granularity
of the mode: per-flow for sketch estimates and postcards (both summed by
``sketch._fold``), per-QFI for PM counters. A feature a mode cannot observe
has no field at all, never a zero; a zero says "measured nothing", a missing
field says "cannot measure".

Detection is per (window, scope). Two built-in scorers:

* the diagnostic-lift rule: fire when the estimated diagnostic ratio of a
  flow exceeds its baseline ceiling (baseline diagnostic mass plus the
  collision floor, over baseline volume);
* a ridge-regularized linear scorer over a per-anomaly-kind feature mask,
  trained and applied under temporally blocked cross-fitting so train and
  test windows never interleave.

Both give ``OUTCOME_DTYPE`` records, the one outcome type; cross-fitting
gives one per feature row, and a block whose training folds lack a class
stays unscored. External ML stays pluggable: features and outcomes
serialize to columnar text, and anything that can score a feature file can
act as a detector.

Window-level evaluation reduces scope scores by max over the scored
windows. One ranking of them (ties grouped) gives both the AUPRC, by step
interpolation, and the max-F1 threshold; TTFD is per anomaly instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .binning import DiagnosticRegion
from .core import MAX_QFI, QFI_BITS, FlowKey
from .simulator import AnomalyKind, GroundTruthLabel
from .sizing import FlowBaseline
from .sketch import _fold, counter_slices

if TYPE_CHECKING:
    from .pipeline import RunResult


class FitError(ValueError):
    """Detector training is impossible on the given fold."""


# one detection outcome per (window, scope); score in [0, 1], NaN where unscored
OUTCOME_DTYPE = np.dtype([("window", np.int64), ("scope", object), ("score", np.float64),
                          ("fired", bool)])


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den in float64, 0.0 where den is 0 (the same doubles as
    float(num) / float(den) element by element)."""
    return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0)


def _fracs(counts: np.ndarray) -> np.ndarray:
    """Shares of each count in its row (last axis); an all-zero row gives 0.0."""
    return _ratio(counts, counts.sum(axis=-1, keepdims=True))


def feature_table(
    mode: str, window: int | np.ndarray, scopes: Sequence[tuple],
    unregistered: bool | Sequence[bool], **features,
) -> np.recarray:
    """Feature rows: ``mode``, ``window``, ``scope`` (the scope tuple) and
    ``unregistered``, then one float64 field per feature in the order given.
    A feature the mode cannot observe gets no field."""
    table = np.zeros(len(scopes), dtype=[  # np.recarray's own fill of the object field is slow
        ("mode", "U6"), ("window", np.int64), ("scope", object), ("unregistered", bool),
        *((name, np.float64) for name in features),
    ]).view(np.recarray)
    table.mode, table.window, table.unregistered = mode, window, unregistered
    table.scope = np.fromiter(scopes, dtype=object, count=len(scopes))
    for name, values in features.items():
        table[name] = values
    return table


def extract_sketch_features(
    windows: np.ndarray, codes: np.ndarray, est: dict[str, np.ndarray], region: DiagnosticRegion,
) -> np.recarray:
    """The sketch's rows, in (window, scope) order, from the row-minimum
    estimates (``HistogramSketch.query_flows``) of each (window, code) pair.

    The codes are the registered flows, so no row is flagged unregistered;
    the sketch would answer any key.
    """
    return _flow_table("sketch", windows, region, codes, est, np.zeros(len(codes), dtype=bool))


def extract_postcard_features(
    windows: np.ndarray, codes: np.ndarray, arrival_ns: np.ndarray, sojourn_ns: np.ndarray,
    color: np.ndarray, nbytes: np.ndarray, keys: Sequence[FlowKey], region: DiagnosticRegion,
    n_windows: int, lat_edges_by_qid: dict[int, np.ndarray],
    iat_edges_by_qid: dict[int, np.ndarray], qid_table: np.ndarray, bins_b: int,
) -> np.recarray:
    """Exact per-flow stats over the sampled packets only, every window's
    rows in (window, scope) order.

    The columns are a run's postcards in egress order, each with its window
    below ``n_windows``; ``arrival_ns`` holds the stamp each postcard carries,
    its departure time. Every key gets a row in every window, and postcards
    expose exact identities, so a flow outside the keys (a remapped tunnel,
    say) gets one in each window it shows up in. ``_fold`` sums each row of a
    queue under its edges, so IAT samples are gaps between consecutive
    postcards of a flow in a window, the only spacing the collector can see.
    """
    registered = np.array([k.code() for k in keys], dtype=np.uint64)
    codes = codes.astype(np.uint64)
    scopes = np.union1d(registered, codes)  # sorted, and code order is FlowKey order
    n = max(len(scopes), 1)  # no scope, no row: n only needs to be nonzero
    # (window, scope) ids: each postcard's, and each key's in every window
    pair = np.asarray(windows, np.int64) * n + np.searchsorted(scopes, codes)
    rows = np.union1d(np.add.outer(np.arange(n_windows) * n,
                                   np.searchsorted(scopes, registered)).ravel(), pair)
    row = np.searchsorted(rows, pair)  # each postcard's row
    row_window, row_scope = np.divmod(rows, n)
    row_code = scopes[row_scope]
    qid = qid_table[codes & MAX_QFI]  # each postcard's queue
    rec = np.zeros((len(rows), 2 * bins_b + 5), dtype=np.int64)  # a silent row stays zero
    for q in np.unique(qid).tolist():
        at = qid == q
        urow, gid = np.unique(row[at], return_inverse=True)
        rec[urow] = _fold(gid, len(urow), nbytes[at], arrival_ns[at], sojourn_ns[at], color[at],
                          lat_edges_by_qid[q], iat_edges_by_qid[q])[0]
    fields = {name: rec[:, at] for name, at in counter_slices(bins_b).items()}
    return _flow_table("dsmp", row_window, region, row_code, fields,
                       np.isin(row_code, registered, invert=True))


def _flow_table(
    mode: str, window: int | np.ndarray, region: DiagnosticRegion, codes: np.ndarray,
    rec: dict[str, np.ndarray], unregistered: np.ndarray,
) -> np.recarray:
    """A per-flow table, in (window, scope) order, from per-flow records keyed
    by ``counter_slices``' names, in one window or in each row's own. The
    diagnostic mass is the tail and head bins' sum."""
    window = np.broadcast_to(window, codes.shape)
    order = np.lexsort((codes, window))  # code order is scope order
    window, codes = window[order], codes[order]
    pkts, byts, lat, iat, colors = (rec[k][order] for k in ("pkt", "bytes", "lat", "iat", "color"))
    qfi = (codes & MAX_QFI).astype(np.int64)
    # flows of the row's QFI that carried packets in the row's window
    _, group = np.unique(window * (MAX_QFI + 1) + qfi, return_inverse=True)
    lat_fracs, iat_fracs, color_fracs = _fracs(lat), _fracs(iat), _fracs(colors)
    tail = lat[:, sorted(region.lat_tail_bins)].sum(axis=1)
    head = iat[:, sorted(region.iat_head_bins)].sum(axis=1)
    return feature_table(
        mode, window, [("flow", c >> QFI_BITS, c & MAX_QFI) for c in codes.tolist()],
        unregistered[order],
        pkts=pkts,
        bytes=byts,
        diag_pkts=tail + head,
        tail_frac=_ratio(tail, lat.sum(axis=1)),
        head_frac=_ratio(head, iat.sum(axis=1)),
        **{f"lat{i}": col for i, col in enumerate(lat_fracs.T)},
        **{f"iat{i}": col for i, col in enumerate(iat_fracs.T)},
        green_frac=color_fracs[:, 0],
        yellow_frac=color_fracs[:, 1],
        red_frac=color_fracs[:, 2],
        teids_per_qfi=np.bincount(group[pkts > 0], minlength=len(codes))[group],
    )


def extract_pm_features(rows: np.recarray) -> np.recarray:
    """The PM table of ``pm_window``'s counters, row for row: QFI scopes
    only; per-flow and distributional features have no field."""
    return feature_table(
        "pm", rows.window, [("qfi", q) for q in rows.qfi.tolist()], False,
        pkts=rows.pkt_count, bytes=rows.byte_count, drops=rows.drop_count,
        mean_delay_ns=rows.mean_delay_ns,
    )


# -- diagnostic-lift rule ------------------------------------------------------


def diag_lift_detector(fv: np.record, base: FlowBaseline, eps: float) -> np.record:
    """Fire when the estimated diagnostic ratio of a feature row exceeds the
    baseline ceiling; one ``OUTCOME_DTYPE`` record.

    The ceiling is (x_k_T + eps*N_T) / x_k: the largest ratio collision noise
    alone can produce for this flow. Spillover beta does not change the rule,
    only how much lift an anomaly needs before the rule fires (see sizing).
    """
    if "diag_pkts" not in fv.dtype.names:
        raise ValueError("diagnostic-lift rule needs a mode with diag_pkts")
    pkts = float(fv.pkts)
    ceiling = (base.x_k_T + eps * base.n_T) / base.x_k
    ratio = float(fv.diag_pkts) / pkts if pkts > 0 else -math.inf  # no volume: no lift
    score = min(1.0, max(0.0, (ratio - ceiling) / (1.0 - ceiling))) if ceiling < 1.0 else 0.0
    return np.array((fv.window, fv.scope, score, ratio > ceiling),
                    OUTCOME_DTYPE).view(np.recarray)[()]


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


def _med_iqr(ranked: np.ndarray, start: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each group's median and IQR (``n`` rows from ``start``, columns sorted) by
    numpy's own formulas: ``np.median``'s middle mean, ``np.quantile``'s ``_lerp``."""
    a, b = ranked[start + (n - 1) // 2], ranked[start + n // 2]  # the middle value, or the two
    med = np.where((n % 2 == 1)[:, None], a / 1.0, (a + b) / 2.0)
    vi = (n - 1)[:, None] * np.array([0.75, 0.25])  # the virtual indices of the quartiles
    k = np.floor(vi).astype(np.intp)  # each one's neighbours k and k + 1 are interpolated
    gamma = (vi - k)[..., None]
    a, b = ranked[start[:, None] + k], ranked[start[:, None] + np.minimum(k + 1, (n - 1)[:, None])]
    q = np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)
    return med, q[:, 0] - q[:, 1]


class ScopeNormalizer:
    """Per-scope robust standardization fitted on training rows.

    Feature levels differ by orders of magnitude across flows; normalizing
    each scope by its own training median/IQR turns levels into lifts.

    Scopes are integer ids below ``n_scopes``; ``med`` and ``iqr`` hold one
    row per id. An id without training rows takes the statistics of all of
    them, and an IQR <= 0 becomes 1.0. ``orders`` sorts a table's columns by
    value and by (id, value) once; a fit reads both at its training rows
    (``_med_iqr``) to the doubles of ``np.median`` and ``np.quantile``. That
    needs finite features without -0.0, as feature tables are: no NaN
    reaches the sort, and which of two equal values is read cannot show.
    """

    @staticmethod
    def orders(X: np.ndarray, sid: np.ndarray) -> np.ndarray:
        """Each column's rows by value, then by (id, value): [2, columns, rows]."""
        by_value = np.argsort(X.T)  # unstable, as which of equal values is read cannot show
        by_scope = np.argsort(sid[by_value], kind="stable")  # a radix sort if the ids are narrow
        return np.stack([by_value, np.take_along_axis(by_value, by_scope, axis=1)])

    def fit(self, X: np.ndarray, sid: np.ndarray, n_scopes: int, orders: np.ndarray | None = None,
            train: np.ndarray | None = None) -> None:
        """Fit on the rows ``train`` of ``X`` (all if None) and its ``orders``."""
        orders = self.orders(X, sid) if orders is None else orders
        train = np.ones(len(X), dtype=bool) if train is None else train
        kept = orders[train[orders]].reshape(2, X.shape[1], -1)  # the training rows, in order
        ranked = X[kept, np.arange(X.shape[1])[:, None]].transpose(0, 2, 1).reshape(-1, X.shape[1])
        count = np.bincount(sid[train], minlength=n_scopes)
        n = np.append(kept.shape[2], count)  # all the training rows, then each id's
        med, iqr = _med_iqr(ranked, (np.cumsum(n) - n)[n > 0], n[n > 0])
        at = np.where(count > 0, np.cumsum(count > 0), 0)  # each id's row: its own, or all's
        self.med, self.iqr = med[at], np.where(iqr > 0, iqr, 1.0)[at]

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


def _row_labels(table: np.recarray, labels: Sequence[GroundTruthLabel],
                kind: AnomalyKind) -> np.ndarray:
    """Training labels for ``kind``: -2 (kept out of training) in any
    labelled window and 0 in the others, then 1 where a label of ``kind``
    matches the row. ``("all",)`` matches every row; a flow label the flow
    rows of its TEID (a flow that remaps its class is still the culprit
    tunnel) and the QFI row of its QFI; a QFI label every row whose last
    scope element is that QFI."""
    y = np.where(np.isin(table.window, [lb.window for lb in labels]), -2, 0)
    mine = [lb for lb in labels if lb.kind is kind]
    rows = np.flatnonzero(np.isin(table.window, [lb.window for lb in mine]))
    scopes = table.scope[rows].tolist()
    flow = np.array([s[0] == "flow" for s in scopes], dtype=bool)
    # (window, id) keys in int64: a run lists its windows (far fewer than 2**31), ids < 2**32
    window = table.window[rows] << 32
    second = window | np.array([s[1] for s in scopes], dtype=np.int64)  # TEID, or a QFI row's QFI
    last = window | np.array([s[-1] for s in scopes], dtype=np.int64)  # the row's QFI

    def keys(scope_kind: str, part: int) -> list[int]:
        return [lb.window << 32 | lb.scope[part] for lb in mine if lb.scope[0] == scope_kind]

    hit = np.isin(table.window[rows], [lb.window for lb in mine if lb.scope == ("all",)])
    hit |= flow & np.isin(second, keys("flow", 1))
    hit |= ~flow & np.isin(second, keys("flow", 2))
    hit |= np.isin(last, keys("qfi", 1))
    y[rows[hit]] = 1
    return y


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
) -> tuple[np.recarray, list[tuple[int, int, str]]]:
    """Cross-fitted linear detection for one anomaly kind over one mode's
    feature table: one ``OUTCOME_DTYPE`` row per table row, in table order,
    and the blocks left unscored.

    Every window lands in exactly one test block and is scored by a model
    trained only on the other (temporally disjoint) blocks; thresholds are
    tuned on training windows by max F1. The scopes become integer ids and
    the features are sorted once per table, so that sort and each fold's
    normalizer fit are a fixed number of numpy calls at any table size.

    A block whose training folds lack a class is left unscored (NaN, not
    fired) while the others are scored. It is listed as (first window, last
    window, missing class); the list is empty when every block is scored.
    """
    out = np.zeros(len(table), dtype=OUTCOME_DTYPE).view(np.recarray)
    unscored: list[tuple[int, int, str]] = []
    if not len(table):
        return out, unscored
    out.window, out.scope, out.score = table.window, table.scope, np.nan
    X, _ = feature_matrix(table, DEFAULT_FEATURE_MASKS[kind])
    scopes, windows = table.scope.tolist(), table.window
    ids: dict[tuple, int] = {}
    sid = np.fromiter((ids.setdefault(s, len(ids)) for s in scopes),
                      dtype=np.min_scalar_type(len(scopes)), count=len(scopes))
    y = _row_labels(table, labels, kind)
    orders = ScopeNormalizer.orders(X, sid)
    for block in temporal_blocks(windows.tolist(), n_blocks):
        test_mask = np.isin(windows, block)
        train_mask = ~test_mask & (y >= 0)
        assert not np.isin(windows[train_mask], block).any()
        if not train_mask.any() or len(np.unique(y[train_mask])) < 2:
            missing = "positive" if not (y[train_mask] == 1).any() else "negative"
            unscored.append((block[0], block[-1], missing))
            continue
        norm = ScopeNormalizer()
        norm.fit(X, sid, len(ids), orders, train_mask)
        xt = norm.transform(X[train_mask], sid[train_mask])
        det = LinearDetector(l2=l2).fit(xt, y[train_mask])
        train_windows = np.unique(windows[train_mask])
        train_max = _window_max(windows[train_mask], det.score(xt), train_windows[-1] + 1)
        thr = best_f1_threshold(np.isin(train_windows, windows[train_mask & (y == 1)]),
                                train_max[train_windows])[0]
        score = det.score(norm.transform(X[test_mask], sid[test_mask]))
        out.score[test_mask], out.fired[test_mask] = score, score >= thr
    return out, unscored


def _window_max(windows: np.ndarray, scores: np.ndarray, n_windows: int) -> np.ndarray:
    """The largest score of each window 0 to ``n_windows`` - 1 over rows
    (``windows``, ``scores``); 0.0 for a window without a scored row, as an
    unscored row's NaN never counts."""
    best = np.zeros(n_windows)
    np.fmax.at(best, windows, scores)
    return best


# -- metrics -------------------------------------------------------------------


def _ranked(y: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct scores, highest first, with the true and false positives
    at or above each: one stable descending sort, ties grouped. ``y`` is 1
    for a positive, 0 for a negative; neither may be empty."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    last = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # each tie group's last rank
    tp = np.cumsum(y[order])[last]
    return s[last], tp, last + 1 - tp


def auprc(y_true: Sequence[int], scores: Sequence[float]) -> float | None:
    """Area under precision-recall by step interpolation, ties grouped.

    None when there are no positives (the curve is undefined). A constant
    scorer collapses to one group and scores exactly the prevalence.
    """
    y = np.asarray(y_true, dtype=np.int64)
    pos = int(y.sum())
    if pos == 0:
        return None
    _, tp, fp = _ranked(y, np.asarray(scores, dtype=np.float64))
    recall = tp / pos
    # cumsum adds left to right, as a running sum does; np.sum's pairwise order differs
    return float(np.cumsum(np.diff(recall, prepend=0.0) * (tp / (tp + fp)))[-1])


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def best_f1_threshold(y: np.ndarray, scores: np.ndarray) -> tuple[float, float]:
    """Threshold over window-max ``scores`` maximizing F1 against the
    positive windows ``y`` (bool or 0/1), and that F1.

    Candidate thresholds sit midway between adjacent distinct scores, so the
    chosen cut carries margin on both sides instead of grazing a training
    score; ties prefer the higher threshold.
    """
    if not len(scores):
        return 1.0, 0.0
    s, tp, fp = _ranked(np.asarray(y, dtype=np.int64), np.asarray(scores, dtype=np.float64))
    candidates = np.append((s[:-1] + s[1:]) / 2, s[-1])
    # the groups at or above each candidate: a midpoint of two neighbouring
    # doubles rounds onto one of them, so it is not always the group above
    above = np.searchsorted(-s, -candidates, side="right")
    pos = tp[-1]
    tp, fp = np.append(0, tp)[above], np.append(0, fp)[above]
    f1 = _ratio(2 * tp, 2 * tp + fp + (pos - tp))  # f1_from_counts, one candidate each
    best = int(np.argmax(f1))  # the first maximum: the highest threshold
    return float(candidates[best]), float(f1[best])


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


def _instance_windows(onset_ns: int, end_ns: int, window_len_ns: int) -> range:
    """The windows an anomaly instance overlaps (its onset window at least)."""
    w0 = onset_ns // window_len_ns
    return range(w0, max(w0, (end_ns - 1) // window_len_ns) + 1)


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
        hit = next((w for w in _instance_windows(onset_ns, end_ns, window_len_ns)
                    if w in fired_windows), None)
        if hit is None:
            censored += 1
        else:
            values.append(max(0, hit * window_len_ns - onset_ns) / 1e9)
    if not values:
        return None, censored, values
    return float(np.median(values)), censored, values


def evaluate(
    outcomes: np.recarray,
    labels: Sequence[GroundTruthLabel],
    kind: AnomalyKind,
    mode: str,
    all_windows: Sequence[int],
    window_len_ns: int,
    instances: Sequence[tuple[int, int]] = (),
) -> DetectionMetrics:
    """Window-level metrics over the scored windows ``all_windows``: scope
    scores reduce by max per window, and an anomaly instance without a
    scored window is left out of TTFD."""
    scored_set = set(all_windows)
    scored = sorted(scored_set)
    rows = outcomes[np.isin(outcomes.window, scored)]
    scores = _window_max(rows.window, rows.score, max(scored, default=-1) + 1)[scored]
    fired = set(rows.window[rows.fired].tolist())
    positive = {lb.window for lb in labels if lb.kind is kind} & scored_set
    area = auprc([1 if w in positive else 0 for w in scored], scores)
    instances = [inst for inst in instances
                 if not scored_set.isdisjoint(_instance_windows(*inst, window_len_ns))]
    median_s, censored, _ = ttfd_seconds(fired, instances, window_len_ns)
    return DetectionMetrics(
        kind=kind.value,
        mode=mode,
        auprc=area,
        f1=f1_from_counts(len(fired & positive), len(fired - positive), len(positive - fired)),
        positives=len(positive),
        windows=len(scored),
        ttfd_median_s=median_s,
        ttfd_censored=censored,
        ttfd_instances=len(instances),
    )


def pooled_auprc(result: RunResult, mode: str) -> float | None:
    """Any-anomaly AUPRC of one mode: a window scores the max over every
    kind's outcomes (0.0 without any) and is positive when any label falls
    in it. A window inside a block that any kind left unscored in this mode
    is left out, so it cannot count as a 0.0; None when no positive window
    is left."""
    rows = np.concatenate([np.zeros(0, OUTCOME_DTYPE),
                           *(o for (_, md), o in result.outcomes.items() if md == mode)])
    scored = np.ones(len(result.windows), dtype=bool)
    for _, md, first, last, _ in result.unscored:
        if md == mode:
            scored[first : last + 1] = False
    positive = np.isin(result.windows, [lb.window for lb in result.labels])
    best = _window_max(rows["window"], rows["score"], len(result.windows))
    return auprc(positive[scored], best[scored])


def pareto_front(points: Sequence[tuple[float, float]]) -> list[bool]:
    """Flag points not dominated on (cost down, accuracy up)."""
    flags = []
    for i, (ci, ai) in enumerate(points):
        dominated = any(
            (cj <= ci and aj >= ai and (cj < ci or aj > ai)) for j, (cj, aj) in enumerate(points)
        )
        flags.append(not dominated)
    return flags
