import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtel.analysis import extract_sketch_features
from flowtel.binning import DiagnosticRegion
from flowtel.core import Color, FlowKey, PacketEvent, SketchConfig
from flowtel.sketch import (
    BYTE_COUNTER_MAX,
    PKT_COUNTER_MAX,
    HistogramSketch,
    bin_of,
    record_dtype,
)
from conftest import exact_truth, random_stream

US = 1000  # ns per microsecond

LAT_EDGES_NS = [int(us * US) for us in (0.5, 6.3, 82, 250, 800, 2000, 4970)]
IAT_EDGES_NS = [int(us * US) for us in (11.5, 16.2, 22.9, 40, 120, 500, 2_700_000)]
REGION = DiagnosticRegion.build(8, lat_tail=2, iat_head=1)


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


# -- export ------------------------------------------------------------------


def test_export_empty_window():
    sk = make_sketch(width=16, depth=2)
    records, totals = sk.export_window_array(0), sk.window_totals(REGION)
    assert len(records) == 16 * 2
    assert totals.n_total == 0 and totals.n_diag == 0
    assert not records["pkt"].any() and not records["bytes"].any()


def test_export_cardinality_and_totals(rng):
    sk = make_sketch(width=32, depth=3)
    events = random_stream(rng, n_packets=777, n_flows=25, qid=3)
    for ev in events:
        sk.update(ev)
    records, totals = sk.export_window_array(4), sk.window_totals(REGION)
    assert len(records) == 32 * 3  # fixed cardinality regardless of traffic
    assert totals.n_total == 777  # row-0 sum equals exact packets fed in
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
    assert sk1.state_digest() == sk2.state_digest()
    r1, t1 = sk1.export_window_array(0), sk1.window_totals(REGION)
    r2, t2 = sk2.export_window_array(0), sk2.window_totals(REGION)
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
    assert seq.state_digest() == bat.state_digest()


def _batch_columns(events):
    return (
        np.array([ev.key.code() for ev in events], dtype=np.uint64),
        np.array([ev.bytes for ev in events], dtype=np.int64),
        np.array([ev.arrival_ns for ev in events], dtype=np.int64),
        np.array([ev.sojourn_ns for ev in events], dtype=np.int64),
        np.array([int(ev.color) for ev in events], dtype=np.int8),
    )


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
    cols = _batch_columns(events)
    # two windows of ragged chunks, an empty one included; a window reset
    # keeps the timestamps, so IAT chains continue into the second window
    for lo, hi in ((0, 700), (700, 700), (700, 701), (701, 1200), (1200, 2399), (2399, 2400)):
        for ev in events[lo:hi]:
            seq.update(ev)
        bat.update_batch(*(c[lo:hi] for c in cols))
        assert seq.state_digest() == bat.state_digest()
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
    bat.update_batch(*_batch_columns(events))
    assert bat.pkt[0, j] == PKT_COUNTER_MAX and bat.byt[0, j] == BYTE_COUNTER_MAX
    assert bat.saturated_units == 1 + 190  # one packet count, 90 + 100 bytes
    assert seq.state_digest() == bat.state_digest()


def test_zero_traffic_window_has_zero_fractions(rng):
    sk = make_sketch(width=32)
    events = random_stream(rng, n_packets=300, n_flows=5, qid=3)
    sk.update_batch(*_batch_columns(events))
    sk.reset_window()
    sk.update_batch(*_batch_columns([]))  # the next window carries no packet
    keys = sorted({ev.key for ev in events})
    fvs = extract_sketch_features({3: sk}, keys, REGION, 1, {k.qfi: 3 for k in keys})
    assert len(fvs) == len(keys)
    for fv in fvs:
        assert fv.pkts == 0.0 and fv.tail_frac == 0.0 and fv.head_frac == 0.0
        assert fv.lat_fracs == (0.0,) * 8 and fv.iat_fracs == (0.0,) * 8
        assert fv.color_fracs == (0.0, 0.0, 0.0)


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
    assert seq.state_digest() == bat.state_digest()


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
