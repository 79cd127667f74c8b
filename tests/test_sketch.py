import dataclasses
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtel.binning import DiagnosticRegion
from flowtel.core import MAX_QFI, MAX_TEID, Color, FlowKey, PacketEvent, SketchConfig
from flowtel.sketch import (
    BYTE_COUNTER_MAX,
    PKT_COUNTER_MAX,
    HistogramSketch,
    _count_le,
    _rank,
    bin_of,
    record_dtype,
)
from conftest import batch_columns, exact_truth, random_stream, row0_totals, sketch_window_table

US = 1000  # ns per microsecond

LAT_EDGES_NS = [int(us * US) for us in (0.5, 6.3, 82, 250, 800, 2000, 4970)]
IAT_EDGES_NS = [int(us * US) for us in (11.5, 16.2, 22.9, 40, 120, 500, 2_700_000)]
REGION = DiagnosticRegion.build(8, lat_tail=2, iat_head=1)


def state_digest(sk: HistogramSketch) -> tuple:
    """Everything a fold changes: the counters, each flow's last stamp and
    the saturation and monotonicity counts."""
    return (sk.counts.tobytes(), sk.last_seen.tobytes(), sk.saturated_units,
            sk.monotonicity_warnings)


def make_sketch(width=64, depth=3, seed=11, qid=3):
    cfg = SketchConfig.from_seed(seed, width_w=width, depth_d=depth, bins_B=8)
    return HistogramSketch(cfg, qid=qid, lat_edges=LAT_EDGES_NS, iat_edges=IAT_EDGES_NS)


# -- bin_of ------------------------------------------------------------------


def test_bin_of_worked_example():
    # 25 us sojourn under edges {0.5, 6.3, 82, ...} us lands in bin 2
    assert bin_of(25 * US, LAT_EDGES_NS) == 2
    # 18 us gap under edges {11.5, 16.2, 22.9, ...} us lands in bin 2
    assert bin_of(18 * US, IAT_EDGES_NS) == 2


def test_bin_of_extremes():
    assert bin_of(0, LAT_EDGES_NS) == 0
    assert bin_of(10**9, LAT_EDGES_NS) == len(LAT_EDGES_NS)  # overflow bin (last)


@given(st.integers(min_value=0, max_value=10**13))
def test_bin_of_total_and_consistent(value):
    b = bin_of(value, LAT_EDGES_NS)
    assert 0 <= b <= len(LAT_EDGES_NS)
    if b > 0:
        assert value >= LAT_EDGES_NS[b - 1]
    if b < len(LAT_EDGES_NS):
        assert value < LAT_EDGES_NS[b]


# -- update ------------------------------------------------------------------


def test_update_worked_example():
    sk = make_sketch()
    key = FlowKey(87, 2)
    first = PacketEvent(key=key, qid=3, bytes=400, arrival_ns=1_000_000, sojourn_ns=25 * US,
                        color=Color.YELLOW)
    sk.update(first)
    cols = sk.columns_for(key)
    for i, j in enumerate(cols):
        assert sk.pkt[i, j] == 1
        assert sk.byt[i, j] == 400
        assert sk.lat[i, j, 2] == 1 and sk.lat[i, j].sum() == 1
        assert sk.iat[i, j].sum() == 0  # first packet ever: no gap recorded
        assert sk.col[i, j].tolist() == [0, 1, 0]
        assert sk.last_seen[i, j] == 1_000_000

    # second packet 18 us later: gap lands in IAT bin 2, timestamp refreshed
    second = PacketEvent(key=key, qid=3, bytes=400, arrival_ns=1_000_000 + 18 * US,
                         sojourn_ns=25 * US, color=Color.GREEN)
    sk.update(second)
    for i, j in enumerate(cols):
        assert sk.pkt[i, j] == 2
        assert sk.iat[i, j, 2] == 1 and sk.iat[i, j].sum() == 1
        assert sk.last_seen[i, j] == 1_000_000 + 18 * US
        assert sk.col[i, j].tolist() == [1, 1, 0]


@pytest.mark.parametrize("edges", [[1.0, float("nan"), 3.0], [1.0, 2.0, float("inf")],
                                   [float("-inf"), 2.0, 3.0], [1.0, 3.0, 3.0]])
def test_sketch_rejects_edges_that_are_not_finite_and_strictly_increasing(edges):
    cfg = SketchConfig.from_seed(1, width_w=8, depth_d=2, bins_B=4)
    for lat, iat in ((edges, [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], edges)):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            HistogramSketch(cfg, 0, lat, iat)


def test_update_rejects_wrong_qid():
    sk = make_sketch(qid=3)
    ev = PacketEvent(key=FlowKey(1, 1), qid=2, bytes=100, arrival_ns=0, sojourn_ns=0)
    with pytest.raises(ValueError):
        sk.update(ev)


def test_out_of_order_arrival_clamps_gap():
    sk = make_sketch()
    key = FlowKey(5, 5)
    sk.update(PacketEvent(key=key, qid=3, bytes=100, arrival_ns=10_000, sojourn_ns=0))
    sk.update(PacketEvent(key=key, qid=3, bytes=100, arrival_ns=4_000, sojourn_ns=0))
    assert sk.monotonicity_warnings == sk.config.depth_d  # one per row
    for i, j in enumerate(sk.columns_for(key)):
        assert sk.iat[i, j, 0] == 1  # clamped to 0 -> head bin


def _find_colliding_key(sk, key_a, row=0):
    target = sk.columns_for(key_a)[row]
    for teid in range(1000, 100_000):
        cand = FlowKey(teid, 9)
        if cand != key_a and sk.columns_for(cand)[row] == target:
            return cand
    raise AssertionError("no colliding key found")


def test_collision_gap_measured_against_foreign_timestamp():
    """Colliding flows share a timestamp: the bucket gap matches neither
    flow's own spacing (collision noise by design)."""
    sk = make_sketch(width=16, depth=1)
    a = FlowKey(17, 1)
    b = _find_colliding_key(sk, a)
    j = sk.columns_for(a)[0]
    # flow a at t=0 and t=100us (own gap 100us); flow b at t=30us
    sk.update(PacketEvent(key=a, qid=3, bytes=100, arrival_ns=0, sojourn_ns=0))
    sk.update(PacketEvent(key=b, qid=3, bytes=100, arrival_ns=30 * US, sojourn_ns=0))
    sk.update(PacketEvent(key=a, qid=3, bytes=100, arrival_ns=100 * US, sojourn_ns=0))
    iat_bins = sk.iat[0, j].tolist()
    # bucket recorded gaps 30us and 70us, not flow a's own 100us gap
    recorded = [i for i, c in enumerate(iat_bins) for _ in range(c)]
    assert recorded == sorted([bin_of(30 * US, IAT_EDGES_NS), bin_of(70 * US, IAT_EDGES_NS)])
    own_a = [0] * 8
    own_a[bin_of(100 * US, IAT_EDGES_NS)] = 1
    assert iat_bins != own_a  # differs from a's true gap histogram
    assert sum(iat_bins) != 0  # and from b's (b has no gaps at all)


# -- conservation and no-underestimate ----------------------------------------


def _check_conservation(sk, rows_cols):
    for i, j in rows_cols:
        assert sk.lat[i, j].sum() == sk.pkt[i, j]
        assert sk.col[i, j].sum() == sk.pkt[i, j]
        assert sk.iat[i, j].sum() <= sk.pkt[i, j]


def test_conservation_after_every_packet(rng):
    sk = make_sketch(width=32)
    events = random_stream(rng, n_packets=400, n_flows=12, qid=3)
    for ev in events:
        sk.update(ev)
        _check_conservation(sk, [(i, j) for i, j in enumerate(sk.columns_for(ev.key))])
    # whole-grid check at the end
    assert (sk.lat.sum(axis=2) == sk.pkt).all()
    assert (sk.col.sum(axis=2) == sk.pkt).all()
    assert (sk.iat.sum(axis=2) <= sk.pkt).all()


def test_no_underestimate_against_exact_oracle(rng):
    sk = make_sketch(width=64, depth=3)
    events = random_stream(rng, n_packets=3000, n_flows=150, qid=3)
    for ev in events:
        sk.update(ev)
    truths = exact_truth(events, LAT_EDGES_NS, IAT_EDGES_NS, 8)
    head = set(REGION.iat_head_bins)
    for key, t in truths.items():
        est = sk.query_flow(key, REGION)
        assert est.pkt_est >= t.pkt
        assert est.byte_est >= t.bytes
        for b in range(8):
            assert est.lat_bin_est[b] >= t.lat_bins[b]
        for c in range(3):
            assert est.color_est[c] >= t.colors[c]
        # the bucket-timestamp IAT histogram is collision-noisy per bin
        # (collisions split gaps into smaller pieces), but two row-aggregate
        # quantities still dominate the flow's own gaps: the total sample
        # count, and any downward-closed head set (pieces of a below-boundary
        # gap all stay below the boundary)
        cols = sk.columns_for(key)
        row_total = min(int(sk.iat[i, j].sum()) for i, j in enumerate(cols))
        assert row_total >= t.pkt - 1
        row_head = min(int(sk.iat[i, j, list(head)].sum()) for i, j in enumerate(cols))
        assert row_head >= t.head_count(IAT_EDGES_NS, head)


def test_single_flow_estimate_exact(rng):
    sk = make_sketch()
    events = random_stream(rng, n_packets=200, n_flows=1, qid=3)
    for ev in events:
        sk.update(ev)
    (key,) = {ev.key for ev in events}
    t = exact_truth(events, LAT_EDGES_NS, IAT_EDGES_NS, 8)[key]
    est = sk.query_flow(key, REGION)
    assert est.pkt_est == t.pkt
    assert est.byte_est == t.bytes
    assert tuple(t.lat_bins) == est.lat_bin_est
    assert tuple(t.colors) == est.color_est


def test_depth_one_estimate_is_bucket_verbatim(rng):
    sk = make_sketch(width=32, depth=1)
    events = random_stream(rng, n_packets=500, n_flows=40, qid=3)
    for ev in events:
        sk.update(ev)
    for key in {ev.key for ev in events}:
        est = sk.query_flow(key, REGION)
        j = sk.columns_for(key)[0]
        assert est.pkt_est == sk.pkt[0, j]
        assert est.byte_est == sk.byt[0, j]
        assert est.lat_bin_est == tuple(sk.lat[0, j].tolist())
        assert est.iat_bin_est == tuple(sk.iat[0, j].tolist())


def test_diag_estimate_composition(rng):
    sk = make_sketch()
    for ev in random_stream(rng, n_packets=1000, n_flows=30, qid=3):
        sk.update(ev)
    for teid in (1, 2, 3):
        est = sk.query_flow(FlowKey(teid, 0), REGION)
        expected = sum(est.lat_bin_est[b] for b in REGION.lat_tail_bins)
        expected += sum(est.iat_bin_est[b] for b in REGION.iat_head_bins)
        assert est.diag_est == expected


def test_query_flows_is_the_row_minimum_of_every_field(rng):
    """At depth 3, over keys that collide and one never seen, every field is
    the minimum over rows of the bucket ``columns_for`` names, and diag is
    the latency-tail sum plus the IAT-head sum of those minima."""
    sk = make_sketch(width=16, depth=3)
    events = random_stream(rng, n_packets=2000, n_flows=40, qid=3)
    for ev in events:
        sk.update(ev)
    keys = sorted({ev.key for ev in events})
    unseen = FlowKey(999_999, 7)
    assert unseen not in keys
    keys.append(unseen)
    est = sk.query_flows(np.array([k.code() for k in keys], dtype=np.uint64), REGION)
    disagree = 0
    for n, key in enumerate(keys):
        cols = sk.columns_for(key)
        for name, grid in (("pkt", sk.pkt), ("bytes", sk.byt), ("lat", sk.lat), ("iat", sk.iat),
                           ("color", sk.col)):
            rows = [grid[i, j].tolist() for i, j in enumerate(cols)]
            assert np.asarray(est[name][n]).tolist() == np.min(rows, axis=0).tolist(), name
        lat = np.min([sk.lat[i, j] for i, j in enumerate(cols)], axis=0)
        iat = np.min([sk.iat[i, j] for i, j in enumerate(cols)], axis=0)
        assert est["diag"][n] == lat[list(REGION.lat_tail_bins)].sum() + iat[
            list(REGION.iat_head_bins)].sum()
        disagree += len({int(sk.pkt[i, j]) for i, j in enumerate(cols)}) > 1
    assert disagree > 0  # collisions make the rows differ, so the minimum is tested


# -- export ------------------------------------------------------------------


def test_export_empty_window():
    sk = make_sketch(width=16, depth=2)
    records, (n_total, n_diag) = sk.export_window_array(0), row0_totals(sk, REGION)
    assert len(records) == 16 * 2
    assert n_total == 0 and n_diag == 0
    assert not records["pkt"].any() and not records["bytes"].any()


def test_export_cardinality_and_totals(rng):
    sk = make_sketch(width=32, depth=3)
    events = random_stream(rng, n_packets=777, n_flows=25, qid=3)
    for ev in events:
        sk.update(ev)
    records, (n_total, _) = sk.export_window_array(4), row0_totals(sk, REGION)
    assert len(records) == 32 * 3  # fixed cardinality regardless of traffic
    assert n_total == 777  # row-0 sum equals exact packets fed in
    assert (records["window"] == 4).all() and (records["qid"] == 3).all()


def test_export_resets_counts_but_preserves_timestamps(rng):
    sk = make_sketch(width=16, depth=2)
    key = FlowKey(9, 9)
    sk.update(PacketEvent(key=key, qid=3, bytes=50, arrival_ns=500, sojourn_ns=10))
    stamps_before = sk.last_seen.copy()
    sk.export_window_array(0)
    sk.reset_window()
    assert sk.pkt.sum() == 0 and sk.byt.sum() == 0
    assert sk.lat.sum() == 0 and sk.iat.sum() == 0 and sk.col.sum() == 0
    assert (sk.last_seen == stamps_before).all()
    # next packet of the same flow records a gap against the preserved stamp
    sk.update(PacketEvent(key=key, qid=3, bytes=50, arrival_ns=500 + 20 * US, sojourn_ns=10))
    for i, j in enumerate(sk.columns_for(key)):
        assert sk.iat[i, j].sum() == 1


def test_determinism_same_stream_same_seeds(rng):
    events = random_stream(rng, n_packets=800, n_flows=60, qid=3)
    sk1, sk2 = make_sketch(seed=77), make_sketch(seed=77)
    for ev in events:
        sk1.update(ev)
    for ev in events:
        sk2.update(ev)
    assert state_digest(sk1) == state_digest(sk2)
    r1, t1 = sk1.export_window_array(0), row0_totals(sk1, REGION)
    r2, t2 = sk2.export_window_array(0), row0_totals(sk2, REGION)
    assert r1.tobytes() == r2.tobytes() and t1 == t2


def test_batch_update_matches_sequential(rng):
    events = random_stream(rng, n_packets=1500, n_flows=80, qid=3)
    seq, bat = make_sketch(seed=5), make_sketch(seed=5)
    for ev in events:
        seq.update(ev)
    codes = np.array([ev.key.code() for ev in events], dtype=np.uint64)
    byts = np.array([ev.bytes for ev in events], dtype=np.int64)
    arr = np.array([ev.arrival_ns for ev in events], dtype=np.int64)
    soj = np.array([ev.sojourn_ns for ev in events], dtype=np.int64)
    col = np.array([int(ev.color) for ev in events], dtype=np.int64)
    # split into ragged chunks: chunk boundaries must not change the result
    for lo, hi in ((0, 400), (400, 401), (401, 1500)):
        bat.update_batch(codes[lo:hi], byts[lo:hi], arr[lo:hi], soj[lo:hi], col[lo:hi])
    assert state_digest(seq) == state_digest(bat)


# (width, depth) on both sides of the 16-bit sort key: d*w <= 65536 sorts a
# uint16 key (16384 x 4 sits exactly at the limit), larger grids a uint32 one
@pytest.mark.parametrize("width, depth", [(8, 3), (64, 6), (16384, 4), (16384, 6)])
def test_batch_matches_sequential_across_shapes(rng, width, depth):
    events = random_stream(rng, n_packets=2400, n_flows=150, qid=3)
    # every 40th packet arrives 2 ms early, so its buckets see time go backwards
    for i in range(39, len(events), 40):
        ev = events[i]
        events[i] = dataclasses.replace(ev, arrival_ns=max(0, ev.arrival_ns - 2_000_000))
    seq, bat = make_sketch(width, depth, seed=5), make_sketch(width, depth, seed=5)
    if width == 8:  # 150 flows in 8 columns: every row has colliding flows
        keys = {ev.key for ev in events}
        assert all(len({seq.columns_for(k)[i] for k in keys}) < len(keys) for i in range(depth))
    cols = batch_columns(events)
    # two windows of ragged chunks, an empty one included; a window reset
    # keeps the timestamps, so IAT chains continue into the second window
    for lo, hi in ((0, 700), (700, 700), (700, 701), (701, 1200), (1200, 2399), (2399, 2400)):
        for ev in events[lo:hi]:
            seq.update(ev)
        bat.update_batch(*(c[lo:hi] for c in cols))
        assert state_digest(seq) == state_digest(bat)
        if hi == 1200:
            seq.reset_window()
            bat.reset_window()
    assert bat.monotonicity_warnings > 0


def test_batch_saturates_like_update():
    seq, bat = make_sketch(width=4, depth=1), make_sketch(width=4, depth=1)
    key = FlowKey(1, 1)
    j = seq.columns_for(key)[0]
    for sk in (seq, bat):
        sk.pkt[0, j] = PKT_COUNTER_MAX - 1
        sk.byt[0, j] = BYTE_COUNTER_MAX - 10
    events = [PacketEvent(key=key, qid=3, bytes=100, arrival_ns=t, sojourn_ns=0) for t in (10, 20)]
    for ev in events:
        seq.update(ev)
    bat.update_batch(*batch_columns(events))
    assert bat.pkt[0, j] == PKT_COUNTER_MAX and bat.byt[0, j] == BYTE_COUNTER_MAX
    assert bat.saturated_units == 1 + 190  # one packet count, 90 + 100 bytes
    assert state_digest(seq) == state_digest(bat)


def test_zero_traffic_window_has_zero_fractions(rng):
    sk = make_sketch(width=32)
    events = random_stream(rng, n_packets=300, n_flows=5, qid=3)
    sk.update_batch(*batch_columns(events))
    sk.reset_window()
    sk.update_batch(*batch_columns([]))  # the next window carries no packet
    keys = sorted({ev.key for ev in events})
    fvs = sketch_window_table({3: sk}, keys, REGION, 1, {k.qfi: 3 for k in keys})
    assert len(fvs) == len(keys)
    for fv in fvs:
        assert fv.pkts == 0.0 and fv.tail_frac == 0.0 and fv.head_frac == 0.0
        assert [fv[f"lat{i}"] for i in range(8)] == [0.0] * 8
        assert [fv[f"iat{i}"] for i in range(8)] == [0.0] * 8
        assert [fv[c] for c in ("green_frac", "yellow_frac", "red_frac")] == [0.0, 0.0, 0.0]


def _fold_both(seq, bat, chunks):
    """Fold each chunk packet by packet into seq and as one batch into bat;
    the two sketches must agree after every chunk."""
    for events in chunks:
        for ev in events:
            seq.update(ev)
        bat.update_batch(*batch_columns(events))
        assert state_digest(seq) == state_digest(bat)


def _keys_sharing_one_row(sk):
    """Two keys whose buckets coincide in exactly one row, that row, and a
    third key alone in every row."""
    keys = [FlowKey(t, 1) for t in range(1, 400)]
    cols = {k: sk.columns_for(k) for k in keys}
    a, b = next((a, b) for i, a in enumerate(keys) for b in keys[i + 1:]
                if sum(x == y for x, y in zip(cols[a], cols[b])) == 1)
    row = next(i for i, (x, y) in enumerate(zip(cols[a], cols[b])) if x == y)
    c = next(k for k in keys if all(cols[k][i] not in (cols[a][i], cols[b][i]) for i in range(3)))
    return a, b, c, row


def _events(key, times, bytes_=400, sojourn_ns=30 * US):
    return [PacketEvent(key=key, qid=3, bytes=bytes_, arrival_ns=t, sojourn_ns=sojourn_ns)
            for t in times]


def test_batch_flows_sharing_a_cell_in_one_row():
    """Flows a and b share a cell in one row and are alone in the others. A
    flow's own arrivals go backwards inside a batch, and a batch's first
    packet lands before its cells' last-seen stamps; a one-flow batch follows."""
    seq, bat = make_sketch(width=64, depth=3), make_sketch(width=64, depth=3)
    a, b, c, row = _keys_sharing_one_row(seq)
    first = sorted(_events(a, (100, 300, 250)) + _events(b, (150, 260)) + _events(c, (210,)),
                   key=lambda ev: ev.arrival_ns)
    first.append(_events(a, (240,))[0])  # 240 after 250: a negative gap inside flow a
    second = _events(a, (120, 400)) + _events(b, (130,)) + _events(c, (500, 90))
    _fold_both(seq, bat, [first, second, _events(c, (600, 700, 650))])
    assert seq.columns_for(a)[row] == seq.columns_for(b)[row]
    assert bat.monotonicity_warnings >= 6


@pytest.mark.parametrize("n_flows", [256, 257])
def test_batch_with_many_flows(rng, n_flows):
    """Flow ids of a batch fit uint8 up to 256 flows and need uint16 beyond."""
    keys = [FlowKey(int(t), 1) for t in rng.choice(1 << 20, size=n_flows, replace=False)]
    batch = np.concatenate([np.arange(n_flows), rng.integers(0, n_flows, size=600)])
    rng.shuffle(batch)
    order = np.concatenate([rng.integers(0, n_flows, size=300), batch])
    events = [PacketEvent(key=keys[f], qid=3, bytes=int(rng.integers(64, 1500)),
                          arrival_ns=1000 * i + int(rng.integers(0, 3000)),
                          sojourn_ns=int(rng.integers(0, 10**7)))
              for i, f in enumerate(order)]
    seq, bat = make_sketch(width=4096, depth=3), make_sketch(width=4096, depth=3)
    _fold_both(seq, bat, [events[:300], events[300:]])
    assert len({ev.key for ev in events[300:]}) == n_flows


def test_batch_saturates_lone_and_shared_cells():
    """Counters near their cap in a cell that flow a has alone and in the cell
    it shares with flow b lose the same units as packet-by-packet updates."""
    seq, bat = make_sketch(width=64, depth=3), make_sketch(width=64, depth=3)
    a, b, _, row = _keys_sharing_one_row(seq)
    lone = (row + 1) % 3
    ja, jb = seq.columns_for(a), seq.columns_for(b)
    for sk in (seq, bat):
        sk.pkt[row, ja[row]] = sk.pkt[lone, ja[lone]] = PKT_COUNTER_MAX - 1
        sk.byt[row, ja[row]] = sk.byt[lone, ja[lone]] = BYTE_COUNTER_MAX - 500
        sk.lat[row, ja[row], 2] = sk.lat[lone, ja[lone], 2] = PKT_COUNTER_MAX - 2
    events = sorted(_events(a, (10, 30, 50)) + _events(b, (20, 40)), key=lambda ev: ev.arrival_ns)
    _fold_both(seq, bat, [events])
    for i, j in ((row, ja[row]), (lone, ja[lone])):
        assert bat.pkt[i, j] == PKT_COUNTER_MAX and bat.byt[i, j] == BYTE_COUNTER_MAX
        assert bat.lat[i, j, 2] == PKT_COUNTER_MAX
    assert bat.pkt[row, jb[row]] == PKT_COUNTER_MAX  # b adds to the shared cell
    # lone: 2 packets, 700 bytes, 1 latency bin; shared: 4 packets, 1500 bytes, 3 bins
    assert bat.saturated_units == (2 + 700 + 1) + (4 + 1500 + 3)


@pytest.mark.parametrize("width, depth", [(256, 3), (4096, 3), (256, 6)])
def test_batch_matches_sequential_at_benchmark_shapes(rng, width, depth):
    """The shapes the sketch-sweep benchmark folds, in its regime: a handful
    of flows and hundreds of packets per batch, some arriving early."""
    events = random_stream(rng, n_packets=3000, n_flows=6, qid=3)
    for i in range(29, len(events), 30):
        events[i] = dataclasses.replace(events[i], arrival_ns=max(0, events[i].arrival_ns - 500_000))
    seq, bat = make_sketch(width, depth, seed=9), make_sketch(width, depth, seed=9)
    _fold_both(seq, bat, [events[lo:lo + 600] for lo in range(0, 3000, 600)])
    assert bat.monotonicity_warnings > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_batch_equivalence_property(seed):
    r = np.random.default_rng(seed)
    events = random_stream(r, n_packets=int(r.integers(1, 120)), n_flows=int(r.integers(1, 10)),
                           qid=3)
    seq, bat = make_sketch(width=8, seed=3), make_sketch(width=8, seed=3)
    for ev in events:
        seq.update(ev)
    bat.update_batch(
        np.array([ev.key.code() for ev in events], dtype=np.uint64),
        np.array([ev.bytes for ev in events], dtype=np.int64),
        np.array([ev.arrival_ns for ev in events], dtype=np.int64),
        np.array([ev.sojourn_ns for ev in events], dtype=np.int64),
        np.array([int(ev.color) for ev in events], dtype=np.int64),
    )
    assert state_digest(seq) == state_digest(bat)


# -- ranking and binning without a sort --------------------------------------


def _missed_by_the_sample(n, common, rare, dtype):
    """n values: the common ones at every (n // 1024)th position, where a
    strided sample would look, and the rare ones only between them."""
    v = np.array(common, dtype)[np.arange(n) % len(common)]
    off = np.flatnonzero(np.arange(n) % max(1, n // 1024))
    v[off[: len(rare)]] = rare
    return v


@st.composite
def rank_inputs(draw):
    """Integer arrays as ``update_batch`` ranks them (uint64 flow codes,
    int64 (window, flow) ids): empty, one value repeated, every value
    distinct, values over a range no wider than the array, and a few common
    values with rarer ones that a strided sample would miss."""
    dtype = draw(st.sampled_from([np.uint64, np.int64]))
    info = np.iinfo(dtype)
    value = st.integers(int(info.min), int(info.max))
    shape = draw(st.sampled_from(["empty", "one", "distinct", "dense", "missed"]))
    if shape == "empty":
        return np.zeros(0, dtype)
    if shape == "one":
        return np.full(draw(st.integers(1, 3000)), draw(value), dtype)
    if shape == "distinct":  # 1 value, or 33 or more
        return np.array(draw(st.lists(value, min_size=draw(st.sampled_from([1, 33])),
                                      max_size=200, unique=True)), dtype)
    if shape == "dense":
        n = draw(st.integers(1, 3000))
        offsets = np.random.default_rng(draw(st.integers(0, 99))).integers(0, n, n)
        return offsets.astype(dtype) + dtype(draw(st.integers(int(info.min), int(info.max) - n)))
    vals = draw(st.lists(value, min_size=2, max_size=60, unique=True))
    k = draw(st.integers(1, len(vals) - 1))
    return _missed_by_the_sample(draw(st.integers(2048, 5000)), vals[:k], vals[k:], dtype)


@settings(max_examples=150, deadline=None)
@given(rank_inputs())
@example(np.zeros(0, np.uint64))
@example(np.full(70_000, 1 << 40, np.uint64))
@example(np.arange(1, 3001, dtype=np.uint64) << np.uint64(30))
@example(_missed_by_the_sample(4096, [7 << 40, 3 << 40], [5 << 40, 1, 9 << 40], np.uint64))
@example(_missed_by_the_sample(4096, [7 << 40, 3 << 40], [i << 30 for i in range(40)], np.uint64))
def test_rank_matches_np_unique(v):
    """Dense values take ``_rank``'s count; the others, the "missed" inputs
    among them, take its ``np.unique`` path."""
    got, want = _rank(v), np.unique(v, return_inverse=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-2.0**70, 2.0**70), max_size=20, unique=True),
       st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-10**4, 10**4), max_size=100))
@example([2.0**53, 2.0**53 + 2], [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 2**53 + 3])
@example(np.geomspace(1.0, 2.0**62, 300).tolist(), [0, 1, 10**6, 2**53 + 1, 2**62, 2**63 - 1])
def test_count_le_matches_searchsorted_on_float_edges(edges, values):
    """int64 values past 2**53 meet float64 edges as searchsorted compares
    them, after rounding; more than 255 edges need a wider count."""
    edges, values = np.array(sorted(edges), np.float64), np.array(values, np.int64)
    want = np.searchsorted(edges, values, side="right")
    assert _count_le(edges, values).tolist() == want.tolist()


def _chunk_columns(packets):
    """A chunk's ``update_batch`` columns, then each packet's window."""
    win, byts, stamps, soj, colors = (np.array([p[i] for p in packets], np.int64)
                                      for i in (0, 2, 3, 4, 5))
    return (np.array([p[1].code() for p in packets], np.uint64), byts, stamps, soj,
            colors.astype(np.int8), win)


def _fold_chunks_and_replay_per_packet(cfg, chunks):
    """Fold each chunk of windows (start, number of windows, packets sorted by
    window) with one ``update_batch``, and feed its packets one by one into a
    second sketch with ``update`` and ``reset_window`` window by window: every
    window's export and the sketches' last-seen stamps, lost units and clamped
    gaps must agree."""
    chunked, oracle = (HistogramSketch(cfg, 3, LAT_EDGES_NS, IAT_EDGES_NS) for _ in range(2))
    for start, n_windows, packets in chunks:
        *columns, win = _chunk_columns(packets)
        chunked.update_batch(*columns, window=win)
        for w in range(start, start + n_windows):
            for _, key, b, t, s, c in (p for p in packets if p[0] == w):
                oracle.update(PacketEvent(key, 3, b, t, s, Color(c)))
            assert chunked.export_window_array(w).tobytes() == oracle.export_window_array(w).tobytes()
            oracle.reset_window()
    assert chunked.last_seen.tolist() == oracle.last_seen.tolist()
    assert (chunked.saturated_units, chunked.monotonicity_warnings) == (
        oracle.saturated_units, oracle.monotonicity_warnings)


@st.composite
def chunked_streams(draw):
    """Consecutive chunks of 1-40 windows over 1-40 flows, with teids from a
    few small values (dense codes) or all of them (sparse codes), packets in
    a drawn subset of windows (long runs of empty ones, chunks with none)
    and stamps that go backwards: a chunk's (window x flow) grid is often
    larger than its packet count. Also the width and depth."""
    top = draw(st.sampled_from([3, MAX_TEID]))
    keys = draw(st.lists(st.builds(FlowKey, st.integers(0, top), st.integers(0, MAX_QFI)),
                         min_size=1, max_size=40, unique=True))
    window_len, start, chunks = 100_000, 0, []
    for _ in range(draw(st.integers(1, 3))):
        n_windows = draw(st.integers(1, 40))
        packets = draw(st.lists(st.tuples(
            st.integers(start, start + n_windows - 1), st.sampled_from(keys),
            st.integers(1, 1500), st.integers(-window_len // 2, 3 * window_len // 2),
            st.integers(0, 6_000_000), st.integers(0, 2)), max_size=150))
        packets = sorted(((w, k, b, w * window_len + t, s, c) for w, k, b, t, s, c in packets),
                         key=lambda p: p[0])
        chunks.append((start, n_windows, packets))
        start += n_windows
    cfg = SketchConfig.from_seed(draw(st.integers(0, 9)), width_w=draw(st.sampled_from([2, 8, 64])),
                                 depth_d=draw(st.integers(1, 3)), bins_B=8)
    return cfg, chunks


@settings(max_examples=60, deadline=None)
@given(chunked_streams())
def test_chunk_fold_matches_per_packet_updates_window_by_window(case):
    _fold_chunks_and_replay_per_packet(*case)


@pytest.mark.parametrize("sparse", [False, True])
def test_chunk_fold_over_a_grid_larger_than_the_chunk(sparse):
    """30 flows in windows 0 and 25 of a 26-window chunk: 780 (window, flow)
    pairs against 60 packets, with codes over a narrow or a wide range. A
    one-packet chunk follows, after the flows' stamps."""
    keys = [FlowKey((t << 20 if sparse else t) + 1, 1) for t in range(30)]
    packets = [(w, key, 100 + i, w * 100_000 + 7 * i, 1_000 * i, i % 3)
               for w in (0, 25) for i, key in enumerate(keys)]
    for width in (2, 64):
        cfg = SketchConfig.from_seed(5, width_w=width, depth_d=3, bins_B=8)
        _fold_chunks_and_replay_per_packet(
            cfg, [(0, 26, packets), (26, 3, [(27, keys[0], 100, 2_700_000, 0, 0)])])


# -- one chunk summary placed under many shapes -------------------------------


@pytest.mark.parametrize("which", ["latency", "IAT"])
def test_a_summary_made_under_other_edges_is_refused(rng, which):
    cols = batch_columns(random_stream(rng, n_packets=50, n_flows=4, qid=3))
    summary = make_sketch().summarize(*cols)
    lat, iat = list(LAT_EDGES_NS), list(IAT_EDGES_NS)
    (lat if which == "latency" else iat)[-1] += 1
    other = HistogramSketch(make_sketch().config, 3, lat, iat)
    with pytest.raises(ValueError, match=f"made under other {which} edges"):
        other.update_batch(*cols, summary=summary)
    assert not other._held and not other.counts.any()  # refused before any fold


def test_a_summary_of_another_number_of_packets_is_refused(rng):
    cols = batch_columns(random_stream(rng, n_packets=50, n_flows=4, qid=3))
    sk = make_sketch()
    summary = sk.summarize(*cols)
    with pytest.raises(ValueError, match="the summary is of 50 packets, not 49"):
        sk.update_batch(*(c[:49] for c in cols), summary=summary)


def test_a_summary_is_read_only(rng):
    """A placement that wrote into a cached record would corrupt the next shape's."""
    summary = make_sketch().summarize(*batch_columns(random_stream(rng, 50, 4, qid=3)))
    arrays = [*summary[:-1], *summary.fold]
    assert len(arrays) == 10
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


@st.composite
def summary_placements(draw):
    """A drawn chunk stream (``chunked_streams``) and two or three shapes to
    place its summaries under, one of them with every counter capped at a
    drawn 1-50, so that placements saturate."""
    _, chunks = draw(chunked_streams())
    shapes = draw(st.lists(st.tuples(st.integers(0, 9), st.sampled_from([2, 8, 64]),
                                     st.integers(1, 3)), min_size=2, max_size=3))
    return chunks, shapes, draw(st.integers(0, len(shapes) - 1)), draw(st.integers(1, 50))


@settings(max_examples=60, deadline=None)
@given(summary_placements())
def test_one_summary_placed_under_several_shapes_equals_a_fresh_fold(case):
    """Each chunk is summarised by the first shape's fold and placed again
    under the others: every placement holds the records, lost units, clamped
    gaps and last-seen stamps of a fold of the same columns without one."""
    chunks, shapes, capped, cap = case
    cols = [_chunk_columns(packets) for _, _, packets in chunks]
    summaries = [None] * len(chunks)
    for i, (seed, width, depth) in enumerate(shapes):
        cfg = SketchConfig.from_seed(seed, width_w=width, depth_d=depth, bins_B=8)
        placed, fresh = (HistogramSketch(cfg, 3, LAT_EDGES_NS, IAT_EDGES_NS) for _ in range(2))
        if i == capped:
            for sk in (placed, fresh):
                sk.caps[:] = cap
        for k, (*columns, win) in enumerate(cols):
            given_summary = summaries[k]
            summaries[k] = placed.update_batch(*columns, window=win, summary=summaries[k])
            assert given_summary is None or summaries[k] is given_summary
            fresh.update_batch(*columns, window=win)
            for got, want in zip(placed._held, fresh._held):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (placed.saturated_units, placed.monotonicity_warnings) == (
                fresh.saturated_units, fresh.monotonicity_warnings)
            assert placed.last_seen.tobytes() == fresh.last_seen.tobytes()


def _every_flow_in_every_window(rng, keys, windows_per_chunk):
    """Chunks of whole windows in which every key sends 1-6 packets per
    window, in shuffled order, with stamps that often go backwards."""
    chunks, start = [], 0
    for n_windows in windows_per_chunk:
        packets = []
        for w in range(start, start + n_windows):
            sends = [k for k in keys for _ in range(rng.integers(1, 7))]
            rng.shuffle(sends)
            packets += [(w, k, int(rng.integers(64, 1500)),
                         w * 100_000 + int(rng.integers(-2_000, 100_000)),
                         int(rng.integers(0, 6_000_000)), int(rng.integers(0, 3))) for k in sends]
        chunks.append((start, n_windows, packets))
        start += n_windows
    return chunks


@pytest.mark.parametrize("width", [4096, 2], ids=["no_cell_shared", "every_cell_shared"])
def test_placement_extremes_equal_a_fresh_fold(rng, width):
    """Summaries placed where hashing shares no cell of any row between the
    window's flows, and at the narrowest width (SketchConfig's 2), where it
    shares every cell: a placement uncapped and one with every counter capped
    at 3 hold the records, lost units, clamped gaps and last-seen stamps of a
    fresh fold, which equals per-packet updates."""
    keys = [FlowKey(100 + 37 * t, t % 4) for t in range(8)]
    cfg = SketchConfig.from_seed(0, width_w=width, depth_d=3, bins_B=8)
    rows = zip(*(HistogramSketch(cfg, 3, LAT_EDGES_NS, IAT_EDGES_NS).columns_for(k) for k in keys))
    flows_per_cell = [sorted(Counter(row).values()) for row in rows]
    if width == 2:  # both cells of every row fed by two or more flows
        assert all(len(n) == 2 and n[0] >= 2 for n in flows_per_cell)
    else:  # each flow alone in its cell of every row
        assert all(n == [1] * len(keys) for n in flows_per_cell)
    chunks = _every_flow_in_every_window(rng, keys, (3, 2))
    _fold_chunks_and_replay_per_packet(cfg, chunks)
    for cap in (None, 3):
        placed, fresh = (HistogramSketch(cfg, 3, LAT_EDGES_NS, IAT_EDGES_NS) for _ in range(2))
        for sk in (placed, fresh) if cap else ():
            sk.caps[:] = cap
        for _, _, packets in chunks:
            *columns, win = _chunk_columns(packets)
            summary = make_sketch(width=64).update_batch(*columns, window=win)  # another shape's
            placed.update_batch(*columns, window=win, summary=summary)
            fresh.update_batch(*columns, window=win)
            for got, want in zip(placed._held, fresh._held):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (placed.saturated_units, placed.monotonicity_warnings) == (
                fresh.saturated_units, fresh.monotonicity_warnings)
            assert placed.last_seen.tobytes() == fresh.last_seen.tobytes()
        assert placed.monotonicity_warnings > 0 and (placed.saturated_units > 0) is bool(cap)


# -- records -----------------------------------------------------------------


RECORD_STRUCT = "<5IQ19I"  # window qid row col pkt, u64 bytes, 8 lat, 8 IAT, green yellow red


def test_record_binary_roundtrip_and_dtype_compat():
    """One record packed by hand with struct reads back field by field through
    record_dtype, and writing those fields into the dtype gives the same bytes."""
    lat, iat = (9, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 8)
    raw = struct.pack(RECORD_STRUCT, 3, 1, 0, 5, 9, 12_345_678_901, *lat, *iat, 9, 0, 0)
    assert len(raw) == record_dtype(8).itemsize
    rec = np.frombuffer(raw, dtype=record_dtype(8))[0]
    assert (rec["window"], rec["qid"], rec["row"], rec["col"]) == (3, 1, 0, 5)
    assert (rec["pkt"], rec["bytes"]) == (9, 12_345_678_901)  # needs the 64-bit field
    assert tuple(rec["lat"]) == lat and tuple(rec["iat"]) == iat
    assert (rec["green"], rec["yellow"], rec["red"]) == (9, 0, 0)
    arr = np.zeros(1, dtype=record_dtype(8))
    arr[0] = (3, 1, 0, 5, 9, 12_345_678_901, lat, iat, 9, 0, 0)
    assert arr.tobytes() == raw


def test_export_array_matches_records(rng):
    """records.bin's layout, written out: every bucket packed by hand with
    struct.pack equals the exported array's bytes."""
    sk = make_sketch(width=8, depth=2)
    for ev in random_stream(rng, n_packets=100, n_flows=6, qid=3):
        sk.update(ev)
    sk.byt[1, 5] = 12_345_678_901  # a byte count that needs the 64-bit field
    arr = sk.export_window_array(11)
    assert arr.dtype == record_dtype(8)
    packed = b"".join(
        struct.pack(RECORD_STRUCT, 11, 3, i, j, *map(int, (sk.pkt[i, j], sk.byt[i, j], *sk.lat[i, j],
                                                          *sk.iat[i, j], *sk.col[i, j])))
        for i in range(2) for j in range(8)
    )
    assert arr.tobytes() == packed


# -- saturation --------------------------------------------------------------


def test_counters_saturate_instead_of_wrapping():
    sk = make_sketch(width=4, depth=1)
    key = FlowKey(1, 1)
    j = sk.columns_for(key)[0]
    sk.pkt[0, j] = PKT_COUNTER_MAX - 1
    sk.byt[0, j] = BYTE_COUNTER_MAX - 10
    sk.update(PacketEvent(key=key, qid=3, bytes=100, arrival_ns=10, sojourn_ns=0))
    sk.update(PacketEvent(key=key, qid=3, bytes=100, arrival_ns=20, sojourn_ns=0))
    assert sk.pkt[0, j] == PKT_COUNTER_MAX
    assert sk.byt[0, j] == BYTE_COUNTER_MAX
    assert sk.saturated_units > 0
