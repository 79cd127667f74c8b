import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtel.analysis import (
    DEFAULT_FEATURE_MASKS,
    OUTCOME_DTYPE,
    FitError,
    LinearDetector,
    _row_labels,
    ScopeNormalizer,
    auprc,
    best_f1_threshold,
    diag_lift_detector,
    evaluate,
    extract_pm_features,
    extract_postcard_features,
    feature_matrix,
    feature_table,
    pareto_front,
    pooled_auprc,
    temporal_blocks,
    train_detectors,
    ttfd_seconds,
)
from flowtel.baselines import pm_window
from flowtel.binning import DiagnosticRegion
from flowtel.core import FlowKey, SketchConfig
from flowtel.pipeline import FEATURE_HEADER, feature_lines
from flowtel.simulator import AnomalyKind, GroundTruthLabel, ScenarioSpec, flow_codes
from flowtel.sizing import FlowBaseline
from flowtel.sketch import HistogramSketch, bin_of

from conftest import batch_columns, exact_truth, random_stream, row0_totals, sketch_window_table

US = 1000
LAT_EDGES = [int(u * US) for u in (0.5, 6.3, 82, 250, 800, 2000, 4970)]
IAT_EDGES = [int(u * US) for u in (11.5, 16.2, 22.9, 40, 120, 500, 2_700_000)]
REGION = DiagnosticRegion.build(8, lat_tail=2, iat_head=1)
LAT = [f"lat{i}" for i in range(8)]
IAT = [f"iat{i}" for i in range(8)]
COLORS = ["green_frac", "yellow_frac", "red_frac"]


def cols(fv, names):
    """A feature row's values for the named fields, as a list."""
    return [fv[n] for n in names]


def make_sketch(qid=0, width=128, seed=9):
    cfg = SketchConfig.from_seed(seed, width_w=width, depth_d=3, bins_B=8)
    return HistogramSketch(cfg, qid=qid, lat_edges=LAT_EDGES, iat_edges=IAT_EDGES)


# -- extraction ----------------------------------------------------------------


def test_collision_free_sketch_features_equal_full_sampling_postcards(rng):
    """With one flow (no collisions) the sketch estimates match exact stats
    from a 100%-sampled postcard stream."""
    sk = make_sketch()
    events = random_stream(rng, n_packets=400, n_flows=1, qid=0)
    for e in events:
        sk.update(e)
    (key,) = {e.key for e in events}
    f_sketch = sketch_window_table({0: sk}, [key], REGION, 0, {key.qfi: 0})[0]
    postcards = [(e.key, e.arrival_ns, e.sojourn_ns, int(e.color), e.bytes) for e in events]
    f_pc = extract_postcard_features(
        np.zeros(len(postcards), np.int64), *postcard_columns(postcards), [key], REGION, 1,
        {0: np.array(LAT_EDGES, float)}, {0: np.array(IAT_EDGES, float)},
        qid_table({key.qfi: 0}), 8,
    )[0]
    assert f_sketch.pkts == f_pc.pkts
    assert f_sketch.bytes == f_pc.bytes
    assert cols(f_sketch, LAT) == pytest.approx(cols(f_pc, LAT))
    assert f_sketch.tail_frac == pytest.approx(f_pc.tail_frac)
    assert cols(f_sketch, COLORS) == pytest.approx(cols(f_pc, COLORS))


def postcard_columns(postcards):
    """(key, arrival_ns, sojourn_ns, color, bytes) tuples in arrival order as
    the columns extract_postcard_features reads after each postcard's window."""
    keys = [pc[0] for pc in postcards]
    return (
        flow_codes(np.array([k.teid for k in keys], np.uint32),
                   np.array([k.qfi for k in keys], np.uint8)),
        *(np.array([pc[i] for pc in postcards], dtype=dtype)
          for i, dtype in enumerate((np.int64, np.int64, np.int8, np.int64), start=1)),
    )


def reference_postcard_features(postcards, keys, region, window, lat_edges, iat_edges,
                                qfi_to_qid, bins_b):
    """One postcard at a time: bin_of per sample, a running gap per flow."""
    by_key = {k: [] for k in keys}
    for pc in postcards:
        by_key.setdefault(pc[0], []).append(pc)
    active = Counter(k.qfi for k, pcs in by_key.items() if pcs)
    tail, head = sorted(region.lat_tail_bins), sorted(region.iat_head_bins)
    scopes = sorted(by_key)
    rows = []
    for k in scopes:
        qid = qfi_to_qid[k.qfi]
        lat, iat, colors = np.zeros(bins_b, int), np.zeros(bins_b, int), np.zeros(3, int)
        prev = None
        for _, arrival, sojourn, color, _ in by_key[k]:
            lat[bin_of(sojourn, lat_edges[qid])] += 1
            colors[color] += 1
            if prev is not None:
                iat[bin_of(arrival - prev, iat_edges[qid])] += 1
            prev = arrival
        fracs = lambda c: tuple(float(x) / c.sum() if c.sum() else 0.0 for x in c)  # noqa: E731
        rows.append(dict(
            pkts=float(len(by_key[k])), bytes=float(sum(pc[4] for pc in by_key[k])),
            diag_pkts=float(lat[tail].sum() + iat[head].sum()),
            tail_frac=float(lat[tail].sum()) / lat.sum() if lat.sum() else 0.0,
            head_frac=float(iat[head].sum()) / iat.sum() if iat.sum() else 0.0,
            **dict(zip(LAT, fracs(lat))), **dict(zip(IAT, fracs(iat))),
            **dict(zip(COLORS, fracs(colors))), teids_per_qfi=float(active[k.qfi]),
        ))
    return feature_table(
        "dsmp", window, [("flow", k.teid, k.qfi) for k in scopes], [k not in keys for k in scopes],
        **{name: [row[name] for row in rows] for name in rows[0]},
    )


PC_LAT_EDGES = {0: np.array(LAT_EDGES, float), 1: np.array([50.0, 500, 5e3, 5e4, 5e5, 5e6, 5e7])}
PC_IAT_EDGES = {0: np.array(IAT_EDGES, float), 1: np.array([10.0, 20, 40, 80, 160, 320, 640])}
PC_QFI_TO_QID = {1: 0, 2: 1}


def qid_table(qfi_to_qid: dict[int, int]) -> np.ndarray:
    """The qfi-to-queue table extract_postcard_features takes, as a scenario builds it."""
    return ScenarioSpec(duration_s=1.0, flows=(), qfi_to_qid=qfi_to_qid,
                        queue_policy={}).qid_table()


# (2, 1) registered but silent, (4, 2) a single postcard, (9, 1) unregistered
PC_KEYS = [FlowKey(1, 1), FlowKey(2, 1), FlowKey(3, 2), FlowKey(4, 2)]


def postcard_pools(key):
    """A flow's sojourn and gap pools: mostly exact bin edges of its queue,
    one off either side."""
    qid = PC_QFI_TO_QID[key.qfi]
    lat, iat = PC_LAT_EDGES[qid], PC_IAT_EDGES[qid]
    return (np.concatenate([lat, lat - 1, [0, 7, 10**9]]).astype(np.int64),
            np.concatenate([iat, iat + 1, [0, 3]]).astype(np.int64))


def test_columnar_postcard_features_match_per_postcard_loop(rng):
    rows = []
    sizes = {FlowKey(1, 1): 60, FlowKey(3, 2): 60, FlowKey(4, 2): 1, FlowKey(9, 1): 30}
    for key, n in sizes.items():
        lat_pool, iat_pool = postcard_pools(key)
        arrival = 1000 + np.cumsum(rng.choice(iat_pool, size=n)).astype(np.int64)
        sojourn = rng.choice(lat_pool, size=n).astype(np.int64)
        rows += [(key, int(a), int(s), int(rng.integers(0, 3)), int(rng.integers(64, 1500)))
                 for a, s in zip(arrival, sojourn)]
    postcards = [rows[i] for i in np.argsort([r[1] for r in rows], kind="stable")]
    got = extract_postcard_features(
        np.zeros(len(postcards), np.int64), *postcard_columns(postcards), PC_KEYS, REGION, 1,
        PC_LAT_EDGES, PC_IAT_EDGES, qid_table(PC_QFI_TO_QID), 8,
    )
    expect = reference_postcard_features(
        postcards, PC_KEYS, REGION, 0, PC_LAT_EDGES, PC_IAT_EDGES, PC_QFI_TO_QID, 8
    )
    assert got.dtype == expect.dtype and got.tolist() == expect.tolist()
    assert [fv.scope[1] for fv in got] == [1, 2, 3, 4, 9]
    assert got[1].pkts == 0 and got[3].pkts == 1 and cols(got[3], IAT) == [0.0] * 8
    assert got[4].unregistered and not any(fv.unregistered for fv in got[:4])


PC_WINDOW_NS = 10**11  # longer than the sum of any window's drawn gaps


@st.composite
def run_postcards(draw):
    """0-5 windows of postcards, each window's in arrival order: (1, 1) and
    (3, 2) in any number per window (none at times, so windows go empty and
    flows skip windows), (4, 2) once in the run, and the unregistered (9, 1)
    only in the first and last windows, which are not adjacent from three
    windows on, so a gap across windows would show. (2, 1) stays silent.
    Gives the window count, each postcard's window and the postcards."""
    n_windows = draw(st.integers(0, 5))
    per_window = [draw(st.lists(st.sampled_from([FlowKey(1, 1), FlowKey(3, 2)]), max_size=6))
                  for _ in range(n_windows)]
    if n_windows:
        per_window[draw(st.integers(0, n_windows - 1))].append(FlowKey(4, 2))
        for w in {0, n_windows - 1}:
            per_window[w] += [FlowKey(9, 1)] * draw(st.integers(1, 3))
    windows, postcards = [], []
    for w, keys in enumerate(per_window):
        stamp = w * PC_WINDOW_NS
        for key in draw(st.permutations(keys)):
            lat_pool, iat_pool = postcard_pools(key)
            stamp += draw(st.sampled_from(iat_pool.tolist()))
            postcards.append((key, stamp, draw(st.sampled_from(lat_pool.tolist())),
                              draw(st.integers(0, 2)), draw(st.integers(64, 1500))))
            windows.append(w)
    return n_windows, windows, postcards


@settings(max_examples=60, deadline=None)
@given(run_postcards())
def test_run_wide_postcard_features_match_the_per_window_oracle(case):
    """One call over a run's postcards gives the per-window oracle's tables,
    window after window."""
    n_windows, windows, postcards = case
    got = extract_postcard_features(
        np.array(windows, np.int64), *postcard_columns(postcards), PC_KEYS, REGION, n_windows,
        PC_LAT_EDGES, PC_IAT_EDGES, qid_table(PC_QFI_TO_QID), 8,
    )
    expect = [reference_postcard_features(
        [pc for pc, at in zip(postcards, windows) if at == w], PC_KEYS, REGION, w,
        PC_LAT_EDGES, PC_IAT_EDGES, PC_QFI_TO_QID, 8,
    ) for w in range(n_windows)]
    if not expect:
        assert len(got) == 0
        return
    expect = np.concatenate(expect)
    assert got.dtype == expect.dtype and got.tolist() == expect.tolist()


def test_pm_features_mark_distributional_fields_absent():
    # ten packets of 500 bytes with a 1 ms sojourn, and two drops, in window 3
    rows = pm_window(np.full(10, 3), np.full(10, 1), np.full(10, 500), np.full(10, 10**6),
                     np.ones(10, bool), np.full(2, 3), np.full(2, 1))
    table = extract_pm_features(rows)
    assert len(table) == 1 and table.window[0] == 3 and table.pkts[0] == 10
    fv = table[0]
    assert fv.scope == ("qfi", 1)
    absent = ["diag_pkts", "tail_frac", "head_frac", *LAT, *IAT, *COLORS, "teids_per_qfi"]
    assert not set(absent) & set(table.dtype.names)
    assert fv.drops == 2 and fv.mean_delay_ns == pytest.approx(10**6)
    assert "mean_delay_ns" in table.dtype.names
    (line,) = feature_lines(table)
    printed = dict(zip(FEATURE_HEADER.split()[1:], line.split()))
    assert [n for n, v in printed.items() if v == "NA"] == [
        "diag_pkts", "tail_frac", "head_frac", "teids_per_qfi", *COLORS]
    assert printed["drops"] == "2" and printed["mean_delay_ns"] == "1000000"


def test_sketch_tail_fraction_never_underestimates(rng):
    sk = make_sketch(width=64)
    events = random_stream(rng, n_packets=4000, n_flows=200, qid=0)
    for e in events:
        sk.update(e)
    truths = exact_truth(events, LAT_EDGES, IAT_EDGES, 8)
    keys = sorted(truths)
    fvs = sketch_window_table({0: sk}, keys, REGION, 0, {k.qfi: 0 for k in keys})
    tail_bins = set(REGION.lat_tail_bins)
    by_scope = {fv.scope: fv for fv in fvs}
    for key, t in truths.items():
        fv = by_scope[("flow", key.teid, key.qfi)]
        # estimated diagnostic mass dominates the flow's true latency-tail mass
        assert fv.diag_pkts >= t.tail_count(tail_bins)


def test_unknown_key_still_estimated_but_flagged(rng):
    sk = make_sketch()
    for e in random_stream(rng, n_packets=500, n_flows=20, qid=0):
        sk.update(e)
    ghost = FlowKey(999_999, 5)
    fvs = sketch_window_table({0: sk}, [ghost], REGION, 0, {5: 0})
    assert len(fvs) == 1
    est = sk.query_flow(ghost, REGION)
    assert (fvs[0].pkts, fvs[0].diag_pkts) == (est.pkt_est, est.diag_est)


# -- diagnostic-lift rule ---------------------------------------------------------


def lift_fv(pkts, diag, window=0):
    return feature_table("sketch", window, [("flow", 1, 1)], False,
                         pkts=[pkts], bytes=[pkts * 500], diag_pkts=[diag])[0]


def test_lift_rule_fires_above_ceiling():
    base = FlowBaseline(x_k=1000, x_k_T=10, n_T=5000, n_prime=100_000)
    eps = math.e / 512
    ceiling = (10 + eps * 5000) / 1000
    out = diag_lift_detector(lift_fv(1000, int(1000 * ceiling * 1.5)), base, eps)
    assert out.fired and out.score > 0
    out2 = diag_lift_detector(lift_fv(1000, int(1000 * ceiling * 0.5)), base, eps)
    assert not out2.fired and out2.score == 0.0


def test_lift_rule_zero_volume_never_fires():
    base = FlowBaseline(x_k=100, x_k_T=0, n_T=100, n_prime=1000)
    out = diag_lift_detector(lift_fv(0, 0), base, eps=0.0)
    assert not out.fired and out.score == 0.0


def test_lift_rule_noise_free_zero_lift_never_fires():
    base = FlowBaseline(x_k=100, x_k_T=0, n_T=100, n_prime=1000)
    out = diag_lift_detector(lift_fv(100, 0), base, eps=0.0)
    assert not out.fired


@settings(max_examples=100, deadline=None)
@given(
    pkts=st.integers(min_value=1, max_value=10**6),
    diag=st.integers(min_value=0, max_value=10**6),
    bump=st.integers(min_value=0, max_value=10**5),
)
def test_lift_score_monotone_in_diag_mass(pkts, diag, bump):
    diag = min(diag, pkts)
    base = FlowBaseline(x_k=1000, x_k_T=10, n_T=5000, n_prime=10**6)
    eps = math.e / 512
    s1 = diag_lift_detector(lift_fv(pkts, diag), base, eps).score
    s2 = diag_lift_detector(lift_fv(pkts, min(diag + bump, pkts)), base, eps).score
    assert s2 >= s1 - 1e-12


def test_lift_rule_false_fire_rate_bounded(rng):
    """Zero-anomaly replays: the estimated ratio exceeds its ceiling only
    when collision noise beats the per-row bound, which the row minimum
    makes rare."""
    trials, fires = 120, 0
    for t in range(trials):
        r = np.random.default_rng(t)
        sk = make_sketch(width=128, seed=t)
        events = random_stream(r, n_packets=2500, n_flows=120, qid=0)
        sk.update_batch(*batch_columns(events))
        key = events[0].key
        truths = exact_truth(events, LAT_EDGES, IAT_EDGES, 8)
        tail = set(REGION.lat_tail_bins)
        head = set(REGION.iat_head_bins)
        n_total, n_diag = row0_totals(sk, REGION)
        x_k = truths[key].pkt
        x_k_t = truths[key].tail_count(tail) + truths[key].head_count(IAT_EDGES, head)
        base = FlowBaseline(x_k=x_k, x_k_T=min(x_k_t, x_k), n_T=max(n_diag, x_k_t),
                            n_prime=max(n_total, x_k))
        est = sk.query_flow(key, REGION)
        fv = lift_fv(est.pkt_est, est.diag_est)
        if diag_lift_detector(fv, base, sk.config.epsilon).fired:
            fires += 1
    assert fires / trials <= math.exp(-3) + 0.08  # union-ish bound + slack


# -- training ---------------------------------------------------------------------


def synth_fvs(n_windows, anomalous, rng, mode="sketch", separation=4.0):
    tables, labels = [], []
    for w in range(n_windows):
        head, pkts = [], []
        for teid in (1, 2, 3):
            active = w in anomalous and teid == 1
            head.append(rng.normal(separation if active else 0.0, 1.0))
            pkts.append(1000 + rng.normal(0, 30))
        head = np.array(head)
        tables.append(feature_table(
            mode, w, [("flow", teid, 1) for teid in (1, 2, 3)], False,
            pkts=pkts, bytes=5e5, diag_pkts=np.maximum(0.0, head * 10),
            tail_frac=abs(head) / 10, head_frac=abs(head) / 10,
            **dict.fromkeys(LAT + IAT, 0.125), green_frac=1.0, yellow_frac=0.0, red_frac=0.0,
            teids_per_qfi=3.0,
        ))
    for w in anomalous:
        labels.append(GroundTruthLabel(window=w, kind=AnomalyKind.CONTENTION,
                                       scope=("flow", 1, 1)))
    return np.concatenate(tables).view(np.recarray), labels


def test_separable_features_reach_perfect_holdout_f1(rng):
    anomalous = {7, 8, 22, 23, 37, 38, 52, 53}
    fvs, labels = synth_fvs(60, anomalous, rng, separation=25.0)
    found, unscored = train_detectors(fvs, labels, AnomalyKind.CONTENTION, n_blocks=4)
    assert unscored == []
    metrics = evaluate(found, labels, AnomalyKind.CONTENTION, "sketch",
                       list(range(60)), 10**9)
    assert metrics.auprc == pytest.approx(1.0)
    assert metrics.f1 == pytest.approx(1.0)


def test_shuffled_labels_give_prevalence_auprc(rng):
    vals = []
    for t in range(10):
        r = np.random.default_rng(t)
        anomalous = set(r.choice(60, size=12, replace=False).tolist())
        fvs, labels = synth_fvs(60, anomalous, r, separation=0.0)  # no signal
        found, unscored = train_detectors(fvs, labels, AnomalyKind.CONTENTION, n_blocks=3)
        assert unscored == []
        m = evaluate(found, labels, AnomalyKind.CONTENTION, "sketch",
                     list(range(60)), 10**9)
        vals.append(m.auprc)
    assert np.mean(vals) == pytest.approx(0.2, abs=0.12)  # prevalence 12/60


def test_single_class_training_raises_named_fit_error(rng):
    """Cross-fitting names the missing class of every block it leaves
    unscored; the detector's own fit raises it."""
    fvs, _ = synth_fvs(20, set(), rng)
    found, unscored = train_detectors(fvs, [], AnomalyKind.CONTENTION, n_blocks=2)
    assert unscored == [(0, 9, "positive"), (10, 19, "positive")]
    assert np.isnan(found.score).all() and not found.fired.any()
    X, _ = feature_matrix(fvs, DEFAULT_FEATURE_MASKS[AnomalyKind.CONTENTION])
    with pytest.raises(FitError, match="no positive"):
        LinearDetector().fit(X, np.zeros(len(X)))


def test_class_poor_block_stays_unscored_and_its_neighbours_keep_their_scores(rng):
    # every anomalous window is in the second of four blocks (windows 15-29),
    # so that block's training folds hold no positive example
    fvs, labels = synth_fvs(60, {17, 18, 22, 23}, rng, separation=25.0)
    found, unscored = train_detectors(fvs, labels, AnomalyKind.CONTENTION, n_blocks=4)
    assert unscored == [(15, 29, "positive")]
    assert found.window.tolist() == fvs.window.tolist()
    assert found.scope.tolist() == fvs.scope.tolist()
    in_poor = (found.window >= 15) & (found.window <= 29)
    assert np.isnan(found.score[in_poor]).all() and not found.fired[in_poor].any()
    kept = found.score[~in_poor]
    assert np.isfinite(kept).all() and ((kept > 0) & (kept < 1)).all()


class PerScopeNormalizer:
    """The per-scope loop the grouped ``ScopeNormalizer`` replaced: one
    ``np.median`` and two ``np.quantile`` calls per scope, and one row at a
    time. Kept as the oracle of the grouped fit, as ``per_packet_run_queues``
    is kept for the queue loop; it calls numpy at run time, so a numpy whose
    formulas move is caught."""

    def fit(self, X, scopes):
        med = np.median(X, axis=0)
        iqr = np.quantile(X, 0.75, axis=0) - np.quantile(X, 0.25, axis=0)
        self.global_stats = (med, np.where(iqr > 0, iqr, 1.0))
        groups = {}
        for i, s in enumerate(scopes):
            groups.setdefault(s, []).append(i)
        self.by_scope = {}
        for s, idx in groups.items():
            sub = X[idx]
            med = np.median(sub, axis=0)
            iqr = np.quantile(sub, 0.75, axis=0) - np.quantile(sub, 0.25, axis=0)
            self.by_scope[s] = (med, np.where(iqr > 0, iqr, 1.0))

    def transform(self, X, scopes):
        out = np.empty_like(X, dtype=np.float64)
        for i, s in enumerate(scopes):
            med, iqr = self.by_scope.get(s, self.global_stats)
            out[i] = (X[i] - med) / iqr
        return out


def test_grouped_normalizer_matches_the_per_scope_loop():
    rng = np.random.default_rng(11)

    def rows(n):
        return np.column_stack([
            rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-3, 6, n),  # many magnitudes
            rng.integers(0, 3, n).astype(np.float64),  # ties
            np.full(n, 7.0),  # constant: every IQR becomes 1.0
            np.round(rng.exponential(2.0, n), 1),  # ties among fractions
        ])

    # six scopes each of 1..8 training rows and two large ones, interleaved
    sizes = [n for n in range(1, 9) for _ in range(6)] + [33, 50]
    train = [("flow", t, 1) for t, n in enumerate(sizes) for _ in range(n)]
    train = [train[i] for i in rng.permutation(len(train))]
    test = [("flow", t, 1) for t in range(0, len(sizes), 3)] + [("flow", 999, 1)] * 3
    ids = {}
    sid_train, sid_test = (
        np.array([ids.setdefault(s, len(ids)) for s in scopes], dtype=np.intp)
        for scopes in (train, test)
    )
    x_train, x_test = rows(len(train)), rows(len(test))
    grouped, ref = ScopeNormalizer(), PerScopeNormalizer()
    grouped.fit(x_train, sid_train, len(ids))
    ref.fit(x_train, train)
    for scope, i in ids.items():  # ("flow", 999, 1) is only in the test fold
        med, iqr = ref.by_scope.get(scope, ref.global_stats)
        assert grouped.med[i].tobytes() == med.tobytes(), scope
        assert grouped.iqr[i].tobytes() == iqr.tobytes(), scope
    assert (grouped.iqr[:, 2] == 1.0).all()
    for x, sid, scopes in ((x_train, sid_train, train), (x_test, sid_test, test)):
        assert grouped.transform(x, sid).tobytes() == ref.transform(x, scopes).tobytes()


@st.composite
def normalizer_folds(draw):
    """A table of 1-60 rows over 1-8 scope ids with 1-4 feature columns, each
    of doubles over many magnitudes, of a few tied values or constant, and a
    training mask of at least one row: ids with no training row, one-row ids
    and ties all come up."""
    n, n_scopes = draw(st.integers(1, 60)), draw(st.integers(1, 8))
    sid = np.array(draw(st.lists(st.integers(0, n_scopes - 1), min_size=n, max_size=n)), np.intp)
    wide = st.floats(-1e12, 1e12, allow_nan=False)
    kinds = {"wide": wide, "ties": st.sampled_from([0.0, 0.5, 1.0, 3.0]),
             "constant": st.just(draw(wide))}
    columns = [draw(st.lists(kinds[kind], min_size=n, max_size=n))
               for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=4))]
    train = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    train[draw(st.integers(0, n - 1))] = True
    return np.array(columns).T + 0.0, sid, n_scopes, train  # + 0.0 turns -0.0 into 0.0


@settings(max_examples=100, deadline=None)
@given(normalizer_folds())
def test_fold_fits_from_the_table_orders_match_the_per_scope_loop(case):
    """A fold's fit from the table-level orders and its training mask gives
    the bytes of ``np.median`` and ``np.quantile`` over the fold's rows."""
    X, sid, n_scopes, train = case
    fold, ref = ScopeNormalizer(), PerScopeNormalizer()
    fold.fit(X, sid, n_scopes, ScopeNormalizer.orders(X, sid), train)
    ref.fit(X[train], sid[train].tolist())
    for i in range(n_scopes):
        med, iqr = ref.by_scope.get(i, ref.global_stats)
        assert fold.med[i].tobytes() == med.tobytes(), i
        assert fold.iqr[i].tobytes() == iqr.tobytes(), i
    assert fold.transform(X, sid).tobytes() == ref.transform(X, sid.tolist()).tobytes()


def test_temporal_blocks_never_interleave():
    blocks = temporal_blocks(list(range(100)), 4)
    assert [b[0] for b in blocks] == [0, 25, 50, 75]
    flat = [w for b in blocks for w in b]
    assert flat == sorted(flat)
    for a, b in zip(blocks, blocks[1:]):
        assert max(a) < min(b)


def test_feature_matrix_mask_and_fallback():
    pm = feature_table("pm", 0, [("qfi", 1)], False, pkts=[10], bytes=[100],
                       drops=[0.0], mean_delay_ns=[5.0])
    X, names = feature_matrix(pm, DEFAULT_FEATURE_MASKS[AnomalyKind.CONTENTION])
    assert names == ["pkts", "bytes", "drops", "mean_delay_ns"]  # PM fallback
    sk = feature_table("sketch", 0, [("flow", 1, 1)], False, pkts=[10], bytes=[100],
                       diag_pkts=[1.0], tail_frac=[0.1], head_frac=[0.2],
                       **dict.fromkeys(IAT, [0.125]))
    X2, names2 = feature_matrix(sk, DEFAULT_FEATURE_MASKS[AnomalyKind.CONTENTION])
    assert names2 == ["head_frac", "tail_frac", "iat0", "iat1", "iat2", "diag_pkts"]


# -- evaluation -------------------------------------------------------------------


def outcomes(scores, fired=None):
    """Outcome rows of one scope for windows 0, 1, ..., as train_detectors
    returns them; a row fires at 0.5 unless told otherwise."""
    fired = [s >= 0.5 for s in scores] if fired is None else fired
    return np.rec.array([(w, ("flow", 1, 1), s, f) for w, (s, f) in enumerate(zip(scores, fired))],
                        dtype=OUTCOME_DTYPE)


def test_evaluate_perfect_and_constant():
    labels = [GroundTruthLabel(window=w, kind=AnomalyKind.MICROBURST, scope=("all",))
              for w in (2, 3)]
    outs = outcomes([1.0 if w in (2, 3) else 0.0 for w in range(10)])
    m = evaluate(outs, labels, AnomalyKind.MICROBURST, "sketch", list(range(10)), 10**9)
    assert m.auprc == 1.0 and m.f1 == 1.0
    const = outcomes([0.7] * 10, fired=[True] * 10)
    m2 = evaluate(const, labels, AnomalyKind.MICROBURST, "sketch", list(range(10)), 10**9)
    assert m2.auprc == pytest.approx(0.2)  # prevalence of a constant ranker


def test_pooled_auprc_matches_the_inline_window_max():
    from flowtel.pipeline import run_scenario
    from flowtel.scenarios import build

    spec, cfg = build("smoke")
    res = run_scenario(spec, cfg, collect_sketch_records=False)
    positive = {lb.window for lb in res.labels}
    assert 0 < len(positive) < len(res.windows)
    for mode in ("sketch", "dsmp", "pm"):
        scores = {w: 0.0 for w in res.windows}
        for (_, md), outs in res.outcomes.items():
            if md == mode:
                for o in outs:
                    scores[o.window] = max(scores[o.window], o.score)
        y = [1 if w in positive else 0 for w in res.windows]
        assert pooled_auprc(res, mode) == auprc(y, [scores[w] for w in res.windows])


def test_evaluate_no_positives_reports_none():
    outs = outcomes([0.1] * 5)
    m = evaluate(outs, [], AnomalyKind.MICROBURST, "pm", list(range(5)), 10**9)
    assert m.auprc is None


def test_evaluate_counts_only_the_scored_windows():
    """Windows 5-9 belong to an unscored block: NaN rows, left out of every
    count, and the anomaly instance inside them is left out of TTFD."""
    labels = [GroundTruthLabel(window=w, kind=AnomalyKind.MICROBURST, scope=("all",))
              for w in (2, 7)]
    outs = outcomes([0.9 if w == 2 else 0.1 for w in range(5)] + [math.nan] * 5)
    instances = [(2 * 10**9, 3 * 10**9), (7 * 10**9, 8 * 10**9)]
    m = evaluate(outs, labels, AnomalyKind.MICROBURST, "pm", range(5), 10**9, instances)
    assert (m.auprc, m.f1, m.positives, m.windows) == (1.0, 1.0, 1, 5)
    assert (m.ttfd_median_s, m.ttfd_censored, m.ttfd_instances) == (0.0, 0, 1)
    none = evaluate(outs, labels, AnomalyKind.MICROBURST, "pm", [], 10**9, instances)
    assert (none.auprc, none.positives, none.windows, none.ttfd_instances) == (None, 0, 0, 0)


def test_ttfd_same_window_within_resolution():
    # onset mid-window, detection in the same window: delay counts as zero
    med, cens, vals = ttfd_seconds({10}, [(10_600_000_000, 11_000_000_000)], 10**9)
    assert med == 0.0 and cens == 0
    # detection one window later: start-of-window minus onset
    med2, _, _ = ttfd_seconds({11}, [(10_600_000_000, 12_000_000_000)], 10**9)
    assert med2 == pytest.approx(0.4)
    assert med2 <= 1.0


def test_ttfd_censoring():
    med, cens, vals = ttfd_seconds(
        set(), [(10**9, 2 * 10**9), (5 * 10**9, 6 * 10**9)], 10**9
    )
    assert med is None and cens == 2
    med2, cens2, _ = ttfd_seconds({1}, [(10**9, 2 * 10**9), (5 * 10**9, 6 * 10**9)], 10**9)
    assert med2 == 0.0 and cens2 == 1  # censored excluded from the median


def test_best_f1_threshold_splits_with_margin():
    thr, f1 = best_f1_threshold(np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.1, 0.05]))
    assert f1 == 1.0
    assert 0.1 < thr <= 0.8  # cut sits between the classes, not on a score


def test_pareto_front_flags():
    pts = [(1.0, 0.4), (6.0, 0.81), (60.0, 0.76), (3.0, 0.6), (6.0, 0.81)]
    flags = pareto_front(pts)
    assert flags == [True, True, False, True, True]


def test_auprc_tie_grouping_exact():
    # scores: two tied at 0.9 (one pos, one neg), then a positive at 0.5
    y = [1, 0, 1, 0]
    s = [0.9, 0.9, 0.5, 0.1]
    # group 1: tp=1 fp=1 -> recall .5 precision .5 ; group 2: tp=2 fp=1 -> r=1, p=2/3
    expect = 0.5 * 0.5 + 0.5 * (2 / 3)
    assert auprc(y, s) == pytest.approx(expect)


# -- the per-row and per-threshold paths, kept as oracles ----------------------------


def reference_auprc(y_true, scores):
    """The tie-group ``while`` loop ``auprc`` replaced with one ranking."""
    y = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    pos = int(y.sum())
    if pos == 0:
        return None
    order = np.argsort(-s, kind="stable")
    y, s = y[order], s[order]
    area, tp, fp, prev_recall, i = 0.0, 0, 0, 0.0, 0
    while i < len(y):
        j = i
        while j < len(y) and s[j] == s[i]:
            j += 1
        tp += int(y[i:j].sum())
        fp += (j - i) - int(y[i:j].sum())
        recall = tp / pos
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
        i = j
    return area


def reference_best_f1_threshold(scores_by_window, positive_windows):
    """The dict/set search that recounted every window for every candidate."""
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
        denom = 2 * tp + fp + fn
        f1 = 2 * tp / denom if denom else 0.0
        if f1 > best[1]:
            best = (thr, f1)
    return best


def reference_scope_matches(fv_scope, ls):
    if ls == ("all",):
        return True
    if ls[0] == "flow":
        if fv_scope[0] == "flow":
            return fv_scope[1] == ls[1]  # tunnel-level: a remapped flow keeps its TEID
        return fv_scope == ("qfi", ls[2])
    if ls[0] == "qfi":
        if fv_scope[0] == "qfi":
            return fv_scope[1] == ls[1]
        return fv_scope[2] == ls[1]
    return False


def reference_row_labels(table, labels, kind):
    """The per-row loop ``_row_labels`` replaced: 1 for a matched scope in a
    window of the kind, -2 for the rest of such a window and for a window of
    another kind only, 0 elsewhere."""
    by_window = {}
    for lb in labels:
        if lb.kind is kind:
            by_window.setdefault(lb.window, []).append(lb)
    other = {lb.window for lb in labels if lb.kind is not kind}
    y = []
    for scope, w in zip(table.scope.tolist(), table.window.tolist()):
        if w in by_window:
            y.append(1 if any(reference_scope_matches(scope, lb.scope) for lb in by_window[w])
                     else -2)
        else:
            y.append(-2 if w in other else 0)
    return np.array(y, dtype=np.int64)


@st.composite
def ranked_scores(draw):
    """Window labels and scores with ties, runs of neighbouring doubles (whose
    midpoints round onto one of them) and enough distinct values for a
    pairwise sum to part from a running one."""
    value = draw(st.sampled_from([0.0, 1e-300, 0.1, 0.5, 1.0, 3.0, 1e300]))
    pool = [value]
    for step in draw(st.lists(st.sampled_from([-np.inf, np.inf]), max_size=6)):
        pool.append(float(np.nextafter(pool[-1], step)))
    pool += draw(st.lists(st.floats(0.0, 1.0), max_size=12))
    scores = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    y = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return np.array(y), np.array(scores)


@settings(max_examples=300, deadline=None)
@given(ranked_scores())
def test_one_ranking_gives_the_reference_doubles(case):
    y, scores = case
    assert auprc(y, scores) == reference_auprc(y, scores)
    thr, f1 = best_f1_threshold(y, scores)
    assert (thr, f1) == reference_best_f1_threshold(
        dict(enumerate(scores.tolist())), set(np.flatnonzero(y).tolist()))
    assert type(thr) is float and type(f1) is float


def test_f1_threshold_counts_the_group_a_midpoint_rounds_onto():
    """The midpoint of 1 + 2**-52 and 1.0 rounds to 1.0, so the cut there
    takes both windows: F1 2/3, not the 1.0 of a cut between them."""
    hi = float(np.nextafter(1.0, 2.0))
    y, scores = np.array([1, 0]), np.array([hi, 1.0])
    assert (hi + 1.0) / 2 == 1.0
    assert best_f1_threshold(y, scores) == (1.0, 2 / 3)
    assert best_f1_threshold(y, scores) == reference_best_f1_threshold({0: hi, 1: 1.0}, {0})


@pytest.mark.parametrize("name", ["smoke", "tests/golden_drops.json",
                                  "perfbench/mixed_short.json"])
def test_row_labels_match_the_per_row_loop(name):
    """Every kind against every mode's table; mixed_short's kinds overlap."""
    from flowtel.cli import load_scenario
    from flowtel.pipeline import run_scenario

    path = Path(__file__).parent.parent / name  # a preset name is not a file
    spec, cfg, _ = load_scenario(str(path) if path.is_file() else name, None)
    res = run_scenario(spec, cfg, collect_sketch_records=False)
    assert res.labels
    for mode, telemetry in res.modes.items():
        for kind in AnomalyKind:
            got = _row_labels(telemetry.features, res.labels, kind)
            assert got.tolist() == reference_row_labels(telemetry.features, res.labels,
                                                        kind).tolist(), (mode, kind)


def test_row_labels_follow_a_remapped_tunnel_and_a_labelled_qfi():
    """Policy abuse moves TEID 7 from QFI 1 to QFI 3: its flow label still
    marks the tunnel's rows under either QFI, and the QFI row of its own
    class. A QFI label marks that class's PM row and every flow inside it."""
    flows = [("flow", 7, 1), ("flow", 7, 3), ("flow", 8, 3), ("flow", 9, 1)]
    pm = [("qfi", 1), ("qfi", 3)]
    table = feature_table("dsmp", np.repeat([0, 1, 2, 3, 4], 6), (flows + pm) * 5, False)
    P, Q = AnomalyKind.POLICY_ABUSE, AnomalyKind.CONGESTION
    labels = [GroundTruthLabel(1, P, ("flow", 7, 1)), GroundTruthLabel(2, P, ("qfi", 3)),
              GroundTruthLabel(3, P, ("all",)), GroundTruthLabel(4, Q, ("qfi", 3)),
              GroundTruthLabel(2, Q, ("flow", 9, 1))]
    got = _row_labels(table, labels, P).reshape(5, 6)
    assert got.tolist() == [
        [0, 0, 0, 0, 0, 0],  # no label
        [1, 1, -2, -2, 1, -2],  # the tunnel under both classes, and QFI 1's row
        [-2, 1, 1, -2, -2, 1],  # QFI 3: its flows and its row
        [1, 1, 1, 1, 1, 1],  # every row
        [-2, -2, -2, -2, -2, -2],  # another kind only
    ]
    for kind in (P, Q):
        assert (_row_labels(table, labels, kind) == reference_row_labels(table, labels, kind)).all()


def pooled_result(outcomes, labels, n_windows, unscored=()):
    """The parts of a RunResult that ``pooled_auprc`` reads."""
    from types import SimpleNamespace

    return SimpleNamespace(outcomes=outcomes, labels=labels, windows=list(range(n_windows)),
                           unscored=list(unscored))


def test_pooled_auprc_leaves_out_unscored_blocks_not_only_their_rows():
    """PM window 3 has no row (no monitored traffic) and lies in an unscored
    block of one kind: it is left out, not scored 0.0. Window 5 has no row
    either but every kind scored it, so it stays at 0.0."""
    M, C = AnomalyKind.MICROBURST, AnomalyKind.CONGESTION
    burst = np.rec.array([(w, ("qfi", 1), s, False) for w, s in
                          [(0, 0.1), (1, 0.9), (2, math.nan), (4, 0.2), (6, 0.8)]],
                         dtype=OUTCOME_DTYPE)
    cong = np.rec.array([(w, ("qfi", 1), 0.3, False) for w in (0, 1, 2, 4, 6)],
                        dtype=OUTCOME_DTYPE)
    labels = [GroundTruthLabel(w, kind, ("all",)) for w, kind in [(1, M), (3, M), (5, C)]]
    res = pooled_result({(M.value, "pm"): burst, (C.value, "pm"): cong}, labels, 7,
                        [(M.value, "pm", 2, 3, "positive"), (C.value, "sketch", 6, 6, "negative")])
    # windows 0, 1, 4, 5, 6: max scores 0.3, 0.9, 0.3, 0.0, 0.8
    assert pooled_auprc(res, "pm") == auprc([0, 1, 0, 1, 0], [0.3, 0.9, 0.3, 0.0, 0.8])
    everything_unscored = [(M.value, "pm", 0, 6, "positive")]
    assert pooled_auprc(pooled_result(res.outcomes, labels, 7, everything_unscored), "pm") is None


def test_pooled_auprc_of_a_one_kind_run_is_evaluates_auprc():
    """Windows 1-3 of 4 are anomalous, so the first block's training folds
    lack a negative and it is unscored; its windows must not count as 0.0."""
    from flowtel.cli import scenario_from_dict
    from flowtel.pipeline import run_scenario

    doc = {"duration_s": 4.0, "seed": 1,
           "flows": [{"teid": 1, "qfi": 1, "pattern": "poisson", "rate_pps": 300}],
           "qfi_to_qid": {"1": 0}, "queue_policy": {"0": {"tier": 0, "service_rate_bps": 1e7}},
           "anomalies": [{"kind": "microburst", "start_s": 1.5, "duration_s": 2.5,
                          "target_flows": [{"teid": 1, "qfi": 1}]}],
           "telemetry": {"n_blocks": 2, "fit_windows": 1}}
    res = run_scenario(*scenario_from_dict(doc), collect_sketch_records=False)
    for mode in ("sketch", "dsmp", "pm"):
        m = res.metrics_by("microburst", mode)
        assert m.windows == 2
        assert ("microburst", mode, 0, 1, "negative") in res.unscored
        assert pooled_auprc(res, mode) == m.auprc == 1.0
