import json
import math
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowtel.cli import scenario_from_dict
from flowtel.core import NS_PER_S, FlowKey
from flowtel.scenarios import build
from flowtel.simulator import (
    COLUMN_DTYPES,
    AnomalyEvent,
    AnomalyKind,
    FlowSpec,
    MeterSpec,
    PacketBatch,
    QueuePolicy,
    ScenarioError,
    ScenarioSpec,
    TrafficPattern,
    _anomaly_parts,
    flow_codes,
    generate_traffic,
    inject_all,
    inject_anomaly,
    label_windows,
    run_queues,
    simulate,
)


ROOT = Path(__file__).resolve().parent.parent


def one_queue_spec(flows, duration_s=1.0, seed=7, rate_bps=100e6, buffer_pkts=4000,
                   meters=None, anomalies=(), qfi_map=None):
    return ScenarioSpec(
        duration_s=duration_s,
        seed=seed,
        flows=tuple(flows),
        qfi_to_qid=qfi_map or {1: 0},
        queue_policy={0: QueuePolicy(tier=0, weight=1, service_rate_bps=rate_bps,
                                     buffer_pkts=buffer_pkts)},
        meters=meters or {},
        anomalies=tuple(anomalies),
    )


# -- generation ----------------------------------------------------------------


def test_cbr_exact_spacing():
    spec = one_queue_spec([FlowSpec(FlowKey(1, 1), TrafficPattern.CBR, 1000.0, 400, 400)])
    arr = generate_traffic(spec)
    assert len(arr) == 1000
    assert set(np.diff(arr.arrival_ns)) == {1_000_000}  # 1 ms apart


def test_generation_deterministic():
    flows = [
        FlowSpec(FlowKey(1, 1), TrafficPattern.POISSON, 3000.0, 100, 900),
        FlowSpec(FlowKey(2, 1), TrafficPattern.ONOFF, 2000.0, 400, 400),
    ]
    a = generate_traffic(one_queue_spec(flows, seed=42))
    b = generate_traffic(one_queue_spec(flows, seed=42))
    assert np.array_equal(a.arrival_ns, b.arrival_ns)
    assert np.array_equal(a.bytes, b.bytes)
    c = generate_traffic(one_queue_spec(flows, seed=43))
    assert not np.array_equal(a.arrival_ns, c.arrival_ns)


def test_poisson_rate_within_tolerance():
    spec = one_queue_spec(
        [FlowSpec(FlowKey(1, 1), TrafficPattern.POISSON, 5000.0, 400, 400)], duration_s=10.0
    )
    arr = generate_traffic(spec)
    assert len(arr) == pytest.approx(50_000, rel=0.05)


def test_arrivals_strictly_increasing_per_flow():
    flows = [
        FlowSpec(FlowKey(i, 1), TrafficPattern.POISSON, 4000.0, 400, 400) for i in (1, 2, 3)
    ]
    arr = generate_traffic(one_queue_spec(flows, duration_s=2.0))
    for teid in (1, 2, 3):
        times = arr.arrival_ns[arr.teid == teid]
        assert (np.diff(times) > 0).all()


def test_offered_load_guard():
    # 1 Gbps offered into a 10 Mbps port is rejected before simulating
    spec = one_queue_spec(
        [FlowSpec(FlowKey(1, 1), TrafficPattern.CBR, 100_000.0, 1250, 1250)], rate_bps=10e6
    )
    with pytest.raises(ScenarioError):
        generate_traffic(spec)


def test_validation_diagnostics():
    with pytest.raises(ScenarioError):
        one_queue_spec([FlowSpec(FlowKey(1, 3), TrafficPattern.CBR, 100.0)]).validate()
    with pytest.raises(ScenarioError):
        ScenarioSpec(
            duration_s=1.0, seed=0,
            flows=(FlowSpec(FlowKey(1, 1), TrafficPattern.CBR, 100.0),),
            qfi_to_qid={1: 0},
            queue_policy={0: QueuePolicy(tier=0, weight=0, service_rate_bps=1e6,
                                         buffer_pkts=10)},
        ).validate()


# -- queueing and metering ---------------------------------------------------------


def test_idle_queue_sojourn_is_serialization_only():
    spec = one_queue_spec([FlowSpec(FlowKey(1, 1), TrafficPattern.CBR, 1000.0, 500, 500)])
    delivered, drops = run_queues(generate_traffic(spec), spec)
    assert len(drops) == 0
    assert (delivered.color == 0).all()  # unmetered -> green
    tx = int(np.ceil(500 * 8 * 1e9 / 100e6))
    assert set(delivered.sojourn_ns.tolist()) == {tx}


def test_wrr_byte_share_follows_weights():
    spec = ScenarioSpec(
        duration_s=1.0, seed=3,
        flows=(
            FlowSpec(FlowKey(1, 1), TrafficPattern.CBR, 20_000.0, 1000, 1000),
            FlowSpec(FlowKey(2, 2), TrafficPattern.CBR, 20_000.0, 1000, 1000),
        ),
        qfi_to_qid={1: 0, 2: 1},
        queue_policy={
            0: QueuePolicy(tier=0, weight=2, service_rate_bps=100e6, buffer_pkts=100),
            1: QueuePolicy(tier=0, weight=1, service_rate_bps=100e6, buffer_pkts=100),
        },
    )
    delivered, _ = run_queues(generate_traffic(spec), spec)
    b1 = delivered.bytes[delivered.teid == 1].sum()
    b2 = delivered.bytes[delivered.teid == 2].sum()
    assert b1 / (b1 + b2) == pytest.approx(2 / 3, abs=0.05)


def test_strict_priority_preempts_lower_tier():
    spec = ScenarioSpec(
        duration_s=1.0, seed=3,
        flows=(
            FlowSpec(FlowKey(1, 1), TrafficPattern.CBR, 10_000.0, 1000, 1000),
            FlowSpec(FlowKey(2, 2), TrafficPattern.CBR, 10_000.0, 1000, 1000),
        ),
        qfi_to_qid={1: 0, 2: 1},
        queue_policy={
            0: QueuePolicy(tier=0, weight=1, service_rate_bps=100e6, buffer_pkts=2000),
            1: QueuePolicy(tier=1, weight=1, service_rate_bps=100e6, buffer_pkts=2000),
        },
    )
    # offered 160 Mbps into 100 Mbps: tier 0 keeps its latency, tier 1 queues
    delivered, drops = run_queues(generate_traffic(spec), spec)
    hi = delivered.sojourn_ns[delivered.teid == 1]
    lo = delivered.sojourn_ns[delivered.teid == 2]
    assert np.quantile(hi, 0.99) < 1_000_000  # high priority stays sub-ms
    assert np.quantile(lo, 0.5) > 10_000_000  # low priority queues up


def test_trtcm_double_pir_drops_half():
    key = FlowKey(5, 1)
    spec = one_queue_spec(
        [FlowSpec(key, TrafficPattern.CBR, 10_000.0, 500, 500)],
        duration_s=2.0, rate_bps=1e9,
        meters={key: MeterSpec(cir_bps=10e6, cbs_bytes=5000, pir_bps=20e6, pbs_bytes=10_000)},
    )
    delivered, drops = run_queues(generate_traffic(spec), spec)
    n = len(delivered) + len(drops)
    assert len(drops) / n == pytest.approx(0.5, abs=0.02)  # red fraction
    assert (delivered.color > 0).mean() == pytest.approx(0.5, abs=0.02)  # yellow share


def test_default_meter_gives_each_flow_its_own_bucket():
    a, b = FlowKey(5, 1), FlowKey(6, 1)
    flows = [FlowSpec(k, TrafficPattern.CBR, 10_000.0, 500, 500) for k in (a, b)]
    meter = MeterSpec(cir_bps=10e6, cbs_bytes=5000, pir_bps=20e6, pbs_bytes=10_000)
    shared = replace(one_queue_spec(flows, duration_s=2.0, rate_bps=1e9), default_meter=meter)
    delivered, drops = run_queues(generate_traffic(shared), shared)
    for teid in (5, 6):
        n = int((delivered.teid == teid).sum() + (drops.teid == teid).sum())
        # each flow offers double its own PIR; one shared bucket would drop 3/4
        assert (drops.teid == teid).sum() / n == pytest.approx(0.5, abs=0.02)
    explicit = one_queue_spec(flows, duration_s=2.0, rate_bps=1e9, meters={a: meter, b: meter})
    delivered_x, drops_x = run_queues(generate_traffic(explicit), explicit)
    assert np.array_equal(drops.arrival_ns, drops_x.arrival_ns)
    assert np.array_equal(drops.teid, drops_x.teid)
    assert np.array_equal(delivered.color, delivered_x.color)


def test_conservation_per_flow():
    flows = [
        FlowSpec(FlowKey(i, 1), TrafficPattern.POISSON, 8000.0, 200, 1400) for i in (1, 2, 3)
    ]
    key = FlowKey(9, 1)
    flows.append(FlowSpec(key, TrafficPattern.CBR, 9000.0, 1000, 1000))
    spec = one_queue_spec(
        flows, duration_s=2.0, rate_bps=60e6, buffer_pkts=200,
        meters={key: MeterSpec(cir_bps=20e6, cbs_bytes=10_000, pir_bps=40e6, pbs_bytes=20_000)},
    )
    arrivals = generate_traffic(spec)
    delivered, drops = run_queues(arrivals, spec)
    assert len(arrivals) == len(delivered) + len(drops)
    for teid in (1, 2, 3, 9):
        n_in = int((arrivals.teid == teid).sum())
        n_out = int((delivered.teid == teid).sum()) + int((drops.teid == teid).sum())
        assert n_in == n_out
    assert len(drops) > 0  # the scenario is overloaded on purpose


def test_fifo_order_within_queue():
    spec = one_queue_spec(
        [FlowSpec(FlowKey(i, 1), TrafficPattern.POISSON, 5000.0, 200, 1400) for i in (1, 2)],
        duration_s=1.0, rate_bps=30e6,
    )
    delivered, _ = run_queues(generate_traffic(spec), spec)
    depart = delivered.arrival_ns + delivered.sojourn_ns
    # delivered is in arrival order; FIFO means departures are sorted too
    assert (np.diff(depart) > 0).all()


# -- the service loop against its per-packet definition ------------------------------


class PerPacketTrtcm:
    """One flow's RFC 2698 meter as the per-packet reference loop called it."""

    def __init__(self, m: MeterSpec):
        self.cir = m.cir_bps / (8 * NS_PER_S)
        self.pir = m.pir_bps / (8 * NS_PER_S)
        self.cbs = float(m.cbs_bytes)
        self.pbs = float(m.pbs_bytes)
        self.tc = float(m.cbs_bytes)
        self.tp = float(m.pbs_bytes)
        self.last_ns = 0

    def mark(self, t_ns: int, size: int) -> int:
        elapsed = t_ns - self.last_ns
        if elapsed > 0:
            self.tc = min(self.cbs, self.tc + elapsed * self.cir)
            self.tp = min(self.pbs, self.tp + elapsed * self.pir)
            self.last_ns = t_ns
        if self.tp < size:
            return 2
        if self.tc < size:
            self.tp -= size
            return 1
        self.tc -= size
        self.tp -= size
        return 0


def per_packet_run_queues(batch: PacketBatch, spec: ScenarioSpec, seen: Counter):
    """Reference definition of run_queues: one loop that meters, enqueues and
    serves every packet in arrival order, with 2000 bytes of DRR quantum per
    weight unit. Counts the events the equivalence depends on."""
    qid_of_qfi = np.full(64, -1, dtype=np.int64)
    for qfi, qid in spec.qfi_to_qid.items():
        qid_of_qfi[qfi] = qid
    pkt_qid = qid_of_qfi[batch.qfi]
    qid_col = pkt_qid.astype(COLUMN_DTYPES["qid"])
    qids = sorted(spec.queue_policy)
    tiers: dict[int, list[int]] = {}
    for j, q in enumerate(qids):
        tiers.setdefault(spec.queue_policy[q].tier, []).append(j)
    rings = [tiers[t] for t in sorted(tiers)]
    ring_pos = [0] * len(rings)
    granted = [False] * len(rings)
    tier_of = [sorted(tiers).index(spec.queue_policy[q].tier) for q in qids]
    deficit = [0.0] * len(qids)
    quantum = [spec.queue_policy[q].weight * 2000 for q in qids]
    buffers = [spec.queue_policy[q].buffer_pkts for q in qids]
    ns_per_byte = [8 * NS_PER_S / spec.queue_policy[q].service_rate_bps for q in qids]
    queues = [deque() for _ in qids]
    meters = {}
    for code in np.unique(batch.codes()).tolist():
        m = spec.meters.get(FlowKey(code >> 6, code & 63), spec.default_meter)
        meters[code] = None if m is None else PerPacketTrtcm(m)
    codes = batch.codes().tolist()
    arrival, sizes = batch.arrival_ns.tolist(), batch.bytes.tolist()
    dense = {q: j for j, q in enumerate(qids)}
    queue_of = [dense[q] for q in pkt_qid.tolist()]
    n = len(batch)
    sojourn = np.full(n, -1, dtype=COLUMN_DTYPES["sojourn_ns"])
    color = np.zeros(n, dtype=COLUMN_DTYPES["color"])
    drop_idx, drop_reason = [], []

    def begin_service(start_ns: int) -> int:
        for ti, ring in enumerate(rings):
            if not any(queues[q] for q in ring):
                continue
            pos = ring_pos[ti]
            while True:
                q = ring[pos]
                queue = queues[q]
                if queue:
                    head = queue[0]
                    need = sizes[head]
                    if not granted[ti]:
                        deficit[q] += quantum[q]
                        granted[ti] = True
                    if deficit[q] >= need:
                        deficit[q] -= need
                        queue.popleft()
                        ring_pos[ti] = pos
                        seen[f"served_tier_{ti}"] += 1
                        seen["larger_than_quantum"] += need > quantum[q]
                        depart = start_ns + max(int(math.ceil(need * ns_per_byte[q])), 1)
                        sojourn[head] = depart - arrival[head]
                        return depart
                    seen["turn_ends_on_deficit"] += len(ring) > 1
                else:
                    deficit[q] = 0.0
                granted[ti] = False
                pos = (pos + 1) % len(ring)
        raise AssertionError("service with nothing queued")

    free_at = 0
    last_enqueued = (-1, -1)
    for i in range(n):
        t = arrival[i]
        while any(queues) and free_at < t:
            free_at = begin_service(free_at)
        seen["arrival_at_busy_free_at"] += bool(any(queues) and free_at == t)
        meter = meters[codes[i]]
        if meter is not None:
            c = meter.mark(t, sizes[i])
            if c == 2:
                drop_idx.append(i)
                drop_reason.append(0)
                continue
            color[i] = c
        q = queue_of[i]
        if len(queues[q]) >= buffers[q]:
            seen["overflow_at_free_at"] += free_at == t
            drop_idx.append(i)
            drop_reason.append(1)
            continue
        queues[q].append(i)
        seen["same_ns_other_tier"] += last_enqueued[0] == t and last_enqueued[1] != tier_of[q]
        last_enqueued = (t, tier_of[q])
        if free_at <= t:
            free_at = begin_service(t)
    while any(queues):
        free_at = begin_service(free_at)

    kept = sojourn >= 0
    drops = np.array(drop_idx, dtype=np.int64)
    delivered = PacketBatch(
        teid=batch.teid[kept], qfi=batch.qfi[kept], qid=qid_col[kept], bytes=batch.bytes[kept],
        arrival_ns=batch.arrival_ns[kept], sojourn_ns=sojourn[kept], color=color[kept],
        monitored=batch.monitored[kept], injected=batch.injected[kept],
    )
    return delivered, batch.take(drops, qid=qid_col[drops], injected=None,
                                 reason=np.array(drop_reason, dtype=COLUMN_DTYPES["reason"]))


@pytest.mark.parametrize("seed", [1, 2])
def test_run_queues_matches_the_per_packet_loop(seed):
    # Arrivals and 1 ns/byte transmission times on a 100 ns grid, so that
    # services start exactly at arrival times; 1.4x overload into 4-packet
    # buffers; tiers 0 and 2 have one queue each, tier 1 a 2:1 DRR ring; sizes
    # up to 3000 bytes exceed the weight-1 quantum of 2000.
    rng = np.random.default_rng(seed)
    keys = [FlowKey(teid, qfi) for qfi in (1, 2, 3, 4) for teid in (10 * qfi, 10 * qfi + 1)]
    n = 6000
    pick = rng.integers(0, len(keys), n)
    teid = np.array([k.teid for k in keys])[pick]
    qfi = np.array([k.qfi for k in keys])[pick]
    arrival = np.sort(rng.integers(0, 11 * n, n)) * 100
    order = np.lexsort(((teid << 6) | qfi, arrival))
    dt = COLUMN_DTYPES  # the arrival columns as inject_all leaves them
    batch = PacketBatch(
        teid=teid[order].astype(dt["teid"]), qfi=qfi[order].astype(dt["qfi"]),
        bytes=(rng.integers(1, 31, n) * 100).astype(dt["bytes"]),
        arrival_ns=arrival[order], monitored=rng.random(n) < 0.8,
        injected=np.zeros(n, dtype=bool),
    )
    spec = ScenarioSpec(
        duration_s=0.01, seed=seed,
        flows=tuple(FlowSpec(k, TrafficPattern.CBR, 1.0) for k in keys),
        qfi_to_qid={1: 7, 2: 2, 3: 5, 4: 0},
        queue_policy={
            7: QueuePolicy(tier=1, weight=1, service_rate_bps=8e9, buffer_pkts=4),
            2: QueuePolicy(tier=4, weight=2, service_rate_bps=8e9, buffer_pkts=4),
            5: QueuePolicy(tier=4, weight=1, service_rate_bps=8e9, buffer_pkts=4),
            0: QueuePolicy(tier=9, weight=3, service_rate_bps=8e9, buffer_pkts=4),
        },
        meters={
            keys[0]: MeterSpec(cir_bps=0.4e9, cbs_bytes=3000, pir_bps=0.8e9, pbs_bytes=6000),
            keys[4]: MeterSpec(cir_bps=0.3e9, cbs_bytes=2000, pir_bps=0.6e9, pbs_bytes=4000),
        },
        default_meter=MeterSpec(cir_bps=0.9e9, cbs_bytes=4000, pir_bps=1.3e9, pbs_bytes=8000),
    )
    seen = Counter()
    expected = per_packet_run_queues(batch, spec, seen)
    got = run_queues(batch, spec)
    for g, e in zip(got, expected):
        assert g.columns().keys() == e.columns().keys()
        for col, want in e.columns().items():
            have = getattr(g, col)
            assert have.dtype == want.dtype and np.array_equal(have, want), col
    drops = expected[1]
    red = drops.reason == 0
    explicit = np.isin(drops.teid, [keys[0].teid, keys[4].teid])
    # the fixture really exercises every case the service loop must keep
    assert (red & explicit).any() and (red & ~explicit).any()
    assert np.sum(red[1:] != red[:-1]) > 2  # red drops interleaved with overflow drops
    for case in ("arrival_at_busy_free_at", "overflow_at_free_at", "same_ns_other_tier",
                 "turn_ends_on_deficit", "larger_than_quantum",
                 "served_tier_0", "served_tier_1", "served_tier_2"):
        assert seen[case] > 0, case


def test_full_pipeline_determinism():
    from flowtel.scenarios import build

    spec, _ = build("smoke")
    d1, r1, l1 = simulate(spec)
    d2, r2, l2 = simulate(spec)
    assert np.array_equal(d1.arrival_ns, d2.arrival_ns)
    assert np.array_equal(d1.sojourn_ns, d2.sojourn_ns)
    assert np.array_equal(d1.color, d2.color)
    assert np.array_equal(r1.arrival_ns, r2.arrival_ns)
    assert l1 == l2


# -- anomaly injection ---------------------------------------------------------------


def test_zero_duration_anomaly_is_identity():
    spec = one_queue_spec([FlowSpec(FlowKey(1, 1), TrafficPattern.CBR, 1000.0)])
    arr = generate_traffic(spec)
    ev = AnomalyEvent(AnomalyKind.MICROBURST, start_s=0.5, duration_s=0.0,
                      target_flows=(FlowKey(1, 1),))
    out = inject_anomaly(arr, ev, spec)
    assert np.array_equal(out.arrival_ns, arr.arrival_ns)


def test_microburst_injects_expected_extra_packets():
    key = FlowKey(1, 1)
    spec = one_queue_spec([FlowSpec(key, TrafficPattern.CBR, 10_000.0, 500, 500)],
                          duration_s=2.0)
    arr = generate_traffic(spec)
    ev = AnomalyEvent(AnomalyKind.MICROBURST, start_s=1.0, duration_s=0.05,
                      target_flows=(key,), burst_factor=6.0)
    out = inject_anomaly(arr, ev, spec)
    extra = int(out.injected.sum())
    assert extra == pytest.approx(2500, rel=0.02)  # 50 ms at +50 kpps
    # injected packets sit inside the burst interval
    inj_t = out.arrival_ns[out.injected]
    assert inj_t.min() >= 1_000_000_000 and inj_t.max() < 1_050_000_000


def test_contention_adds_unmonitored_square_wave():
    spec = one_queue_spec([FlowSpec(FlowKey(1, 1), TrafficPattern.CBR, 1000.0)],
                          duration_s=2.0)
    arr = generate_traffic(spec)
    ev = AnomalyEvent(AnomalyKind.CONTENTION, start_s=0.5, duration_s=1.0,
                      target_qfis=(1,), cross_rate_pps=10_000.0, cross_bytes=800,
                      cross_period_ms=200.0)
    out = inject_anomaly(arr, ev, spec)
    cross = ~out.monitored
    assert cross.sum() == pytest.approx(5000, rel=0.02)  # 50% duty over 1 s
    t = out.arrival_ns[cross]
    # ON halves only: packets in [0.5, 0.6), [0.7, 0.8), ... never in OFF halves
    phase = ((t - 500_000_000) % 200_000_000) / 1e6
    assert (phase < 100.0001).all()


def test_policy_abuse_remaps_class_and_keeps_tunnel():
    key = FlowKey(9, 1)
    spec = ScenarioSpec(
        duration_s=2.0, seed=1,
        flows=(FlowSpec(key, TrafficPattern.CBR, 1000.0),),
        qfi_to_qid={1: 0, 7: 0},
        queue_policy={0: QueuePolicy(tier=0, weight=1, service_rate_bps=100e6,
                                     buffer_pkts=100)},
        anomalies=(AnomalyEvent(AnomalyKind.POLICY_ABUSE, start_s=1.0, duration_s=0.5,
                                target_flows=(key,), remapped_qfi=7),),
    )
    arr = generate_traffic(spec)
    out = inject_anomaly(arr, spec.anomalies[0], spec)
    in_window = (out.arrival_ns >= 1_000_000_000) & (out.arrival_ns < 1_500_000_000)
    assert (out.qfi[in_window] == 7).all()
    assert (out.qfi[~in_window] == 1).all()
    assert (out.teid == 9).all()


def test_policy_abuse_qfi_aggregate_moves_less_than_culprit():
    """The per-class aggregate barely moves while the culprit tunnel's
    delivered rate roughly doubles (it escapes its own meter)."""
    from flowtel.scenarios import build

    spec, _ = build("policy_abuse")
    delivered, _, labels = simulate(spec)
    culprit = 700
    abuse_w = sorted({l.window for l in labels})
    clean_w = [w for w in range(int(spec.duration_s)) if w not in set(abuse_w)]
    win = delivered.arrival_ns // spec.window_len_ns

    def rate(mask, windows):
        return np.mean([(mask & (win == w)).sum() for w in windows])

    culprit_mask = delivered.teid == culprit
    qfi7_mask = (delivered.qfi == 7) & delivered.monitored
    culprit_clean = rate(culprit_mask, clean_w)
    culprit_abuse = rate(culprit_mask, abuse_w)
    # qfi 7 aggregate includes the gaming flows that normally live there
    qfi_clean = rate((delivered.qfi == 1) | qfi7_mask, clean_w)
    qfi_abuse = rate((delivered.qfi == 1) | qfi7_mask, abuse_w)
    culprit_change = culprit_abuse / culprit_clean
    qfi_change = qfi_abuse / qfi_clean
    assert culprit_change > 1.5  # meter escape roughly doubles delivery
    assert qfi_change - 1 < culprit_change - 1  # aggregate moves less


ARRIVAL_COLUMNS = ("teid", "qfi", "bytes", "arrival_ns", "monitored", "injected")


def sequential_lexsort_inject_all(batch: PacketBatch, spec: ScenarioSpec, ties: Counter):
    """Reference definition of inject_all: per anomaly, concatenate the stream
    (sequence = position) with the anomaly's rows (sequence = index within the
    flow's part) and re-sort all of it with one stable lexsort by (time, flow
    code, sequence). Counts the ties the order depends on."""
    for idx, ev in enumerate(spec.anomalies):
        cols = {c: getattr(batch, c) for c in ARRIVAL_COLUMNS}
        seq, is_new = np.arange(len(batch)), np.zeros(len(batch), dtype=bool)
        if ev.kind is AnomalyKind.POLICY_ABUSE:
            t = batch.arrival_ns
            in_window = (t >= int(ev.start_s * NS_PER_S)) & (t < int(ev.end_s * NS_PER_S))
            cols["qfi"], cols["injected"] = batch.qfi.copy(), batch.injected.copy()
            for key in ev.target_flows:
                m = in_window & (batch.teid == key.teid) & (batch.qfi == key.qfi)
                cols["qfi"][m], cols["injected"][m] = ev.remapped_qfi, True
        else:
            # the anomaly's own rows; each flow code comes from one part here
            new = inject_anomaly(batch.take(slice(0, 0)), ev, spec, anomaly_idx=idx)
            new_seq = np.zeros(len(new), dtype=np.int64)
            for code in np.unique(new.codes()):
                m = new.codes() == code
                new_seq[m] = np.arange(np.count_nonzero(m))
            cols = {c: np.concatenate([cols[c], getattr(new, c)]) for c in ARRIVAL_COLUMNS}
            seq = np.concatenate([seq, new_seq])
            is_new = np.concatenate([is_new, np.ones(len(new), dtype=bool)])
        code = flow_codes(cols["teid"], cols["qfi"])  # a uint32 teid << 6 would wrap
        order = np.lexsort((seq, code, cols["arrival_ns"]))
        t, k, s, f = cols["arrival_ns"][order], code[order], seq[order], is_new[order]
        same = (t[1:] == t[:-1]) & (k[1:] == k[:-1])
        ties["time"] += int(np.sum((t[1:] == t[:-1]) & (k[1:] != k[:-1])))
        ties["new_first"] += int(np.sum(same & f[:-1] & ~f[1:]))
        ties["stream_first"] += int(np.sum(same & ~f[:-1] & f[1:]))
        ties["full_key"] += int(np.sum(same & (f[:-1] != f[1:]) & (s[1:] == s[:-1])))
        if ev.kind is AnomalyKind.POLICY_ABUSE:
            old_qfi = batch.qfi[order]
            ties["remapped_together"] += int(np.sum(same & (old_qfi[1:] != old_qfi[:-1])))
        batch = PacketBatch(**{c: cols[c][order] for c in ARRIVAL_COLUMNS})
    return batch


def test_inject_all_keeps_the_sequential_lexsort_tie_order():
    # 10 ns CBR flows under a 1 ns burst, Poisson overload and 5 ns cross
    # traffic: packets of one flow, of several flows and of new and old rows
    # meet at the same nanosecond; then two flows are remapped into one class.
    a, b, c = FlowKey(1, 5), FlowKey(1, 3), FlowKey(1, 4)
    us = 1e-6
    spec = ScenarioSpec(
        duration_s=10 * us, seed=2,
        flows=tuple(FlowSpec(k, TrafficPattern.CBR, 1e8, 100, 100) for k in (a, b, c)),
        qfi_to_qid={2: 0, 3: 0, 4: 0, 5: 0},
        queue_policy={0: QueuePolicy(tier=0, weight=1, service_rate_bps=1e12, buffer_pkts=10)},
        anomalies=(
            AnomalyEvent(AnomalyKind.MICROBURST, 2 * us, 4 * us, target_flows=(a,),
                         burst_factor=11.0),
            AnomalyEvent(AnomalyKind.CONGESTION, 1 * us, 6 * us, target_qfis=(4,)),
            AnomalyEvent(AnomalyKind.CONTENTION, 3 * us, 3 * us, target_qfis=(3,),
                         cross_qfis=(5, 3), cross_rate_pps=2e8, cross_bytes=200,
                         cross_period_ms=0.002),
            AnomalyEvent(AnomalyKind.POLICY_ABUSE, 4 * us, 3 * us, target_flows=(a, b),
                         remapped_qfi=2),
        ),
    )
    base = generate_traffic(spec)
    ties = Counter()
    expected = sequential_lexsort_inject_all(base, spec, ties)
    got = inject_all(base, spec)
    for col in ARRIVAL_COLUMNS:
        assert np.array_equal(getattr(got, col), getattr(expected, col)), col
    # the fixture really exercises every tie rule
    assert ties["time"] > 0 and ties["new_first"] > 0 and ties["stream_first"] > 0
    assert ties["full_key"] > 0 and ties["remapped_together"] > 0


def sorted_parts(parts: list[PacketBatch]) -> tuple[PacketBatch, np.ndarray]:
    """Rows of all parts ordered by (time, flow code, index within the part),
    ties kept in part order, together with each row's index within its part."""
    batch = PacketBatch(**{c: np.concatenate([getattr(p, c) for p in parts])
                           for c in ARRIVAL_COLUMNS})
    seq = np.concatenate([np.arange(len(p), dtype=np.int64) for p in parts])
    order = np.lexsort((seq, batch.codes(), batch.arrival_ns))
    return batch.take(order), seq[order]


def insert_rows(batch: PacketBatch, new: PacketBatch, new_seq: np.ndarray) -> PacketBatch:
    """Merge sorted new rows (with their in-part sequence) into a sorted batch."""
    arr = batch.arrival_ns
    pos = np.searchsorted(arr, new.arrival_ns, side="left")
    group_end = np.searchsorted(arr, new.arrival_ns, side="right")
    # Inside a group of equal arrival times the batch is ordered by (code,
    # position), so the batch rows that precede a new row form a prefix: those
    # whose (code, position) is <= the new row's (code, sequence).
    tied = np.flatnonzero(group_end > pos)
    if len(tied):
        new_code = new.codes()[tied]
        seq = new_seq[tied]
        first, last = pos[tied], group_end[tied]
        before = np.zeros(len(tied), dtype=np.int64)
        for k in range(int((last - first).max())):
            row = first + k
            live = row < last
            row = np.where(live, row, first)
            c = flow_codes(batch.teid[row], batch.qfi[row])
            before += live & ((c < new_code) | ((c == new_code) & (row <= seq)))
        pos[tied] += before
    return PacketBatch(**{name: np.insert(col, pos, getattr(new, name))
                          for name, col in batch.columns().items()})


def remap_class(batch: PacketBatch, ev: AnomalyEvent, start_ns: int, end_ns: int) -> PacketBatch:
    """Move the target flows' packets inside [start, end) to ``ev.remapped_qfi``
    (same tunnel, another class) and restore the order of that time slice."""
    lo, hi = np.searchsorted(batch.arrival_ns, [start_ns, end_ns], side="left")
    win = slice(lo, hi)
    qfi = batch.qfi.copy()
    inj = batch.injected.copy()
    for key in ev.target_flows:
        mask = (batch.teid[win] == key.teid) & (batch.qfi[win] == key.qfi)
        qfi[win][mask] = ev.remapped_qfi
        inj[win][mask] = True
    # a stable sort keeps equal (time, code) rows in position order
    order = np.arange(len(batch))
    order[win] = lo + np.lexsort((flow_codes(batch.teid[win], qfi[win]), batch.arrival_ns[win]))
    return batch.take(order, qfi=qfi[order], injected=inj[order])


def sequential_inject_all(batch: PacketBatch, spec: ScenarioSpec) -> PacketBatch:
    """The oracle of inject_all: one anomaly at a time over the whole stream,
    each additive one inserting its rows into every column (``insert_rows``),
    each remap re-taking every column (``remap_class``)."""
    for idx, ev in enumerate(spec.anomalies):
        if ev.duration_s <= 0:
            continue
        start_ns, end_ns = int(ev.start_s * NS_PER_S), int(ev.end_s * NS_PER_S)
        if ev.kind is AnomalyKind.POLICY_ABUSE:
            batch = remap_class(batch, ev, start_ns, end_ns)
        elif parts := _anomaly_parts(ev, spec, idx):
            batch = insert_rows(batch, *sorted_parts(parts))
    return batch


def ns_spec(*anomalies: AnomalyEvent, duration_us: float = 10.0) -> ScenarioSpec:
    """Three 10 ns CBR flows on one queue: packets of one flow, of several
    flows and of new and old rows meet at the same nanosecond."""
    flows = (FlowKey(1, 5), FlowKey(1, 3), FlowKey(1, 4))
    return ScenarioSpec(
        duration_s=duration_us * 1e-6, seed=2,
        flows=tuple(FlowSpec(k, TrafficPattern.CBR, 1e8, 100, 100) for k in flows),
        qfi_to_qid={2: 0, 3: 0, 4: 0, 5: 0},
        queue_policy={0: QueuePolicy(tier=0, weight=1, service_rate_bps=1e12, buffer_pkts=10)},
        anomalies=anomalies,
    )


US = 1e-6
A, B = FlowKey(1, 5), FlowKey(1, 3)


def burst(start_us, dur_us, key=A):
    return AnomalyEvent(AnomalyKind.MICROBURST, start_us * US, dur_us * US, target_flows=(key,),
                        burst_factor=11.0)


def cong(start_us, dur_us):
    return AnomalyEvent(AnomalyKind.CONGESTION, start_us * US, dur_us * US, target_qfis=(4, 5))


def remap(start_us, dur_us, keys, to):
    return AnomalyEvent(AnomalyKind.POLICY_ABUSE, start_us * US, dur_us * US, target_flows=keys,
                        remapped_qfi=to)


INJECTION_CASES = {
    "ties_at_t0": lambda: ns_spec(burst(0, 4), cong(0, 3), burst(0, 2, B)),
    "ending_at_duration": lambda: ns_spec(burst(6, 4), cong(3, 7), remap(8, 2, (A,), 2)),
    "overlapping_additive": lambda: ns_spec(burst(1, 4), cong(3, 5), burst(4, 2, B)),
    "remap_of_added_rows": lambda: ns_spec(
        burst(2, 4), cong(1, 3), remap(3, 6, (A, B), 2),
        remap(4, 3, (FlowKey(1, 2),), 4), burst(5, 2, FlowKey(1, 4))),
    "zero_duration": lambda: ns_spec(burst(2, 0), cong(3, 0), remap(1, 0, (A,), 2), burst(4, 3)),
    # positive durations under 1 ns: [start, end) truncates to no nanosecond
    "sub_ns_duration": lambda: ns_spec(burst(2, 0.0004), remap(2.5, 0.0004, (A,), 2),
                                       remap(3, 2, (A,), 2), burst(4, 2, B)),
    "sub_ns_additive": lambda: ns_spec(burst(2, 0.0004), remap(3, 2, (A,), 2), burst(4, 2, B)),
    "mixed_short": lambda: scenario_from_dict(json.loads(
        (ROOT / "perfbench" / "mixed_short.json").read_text()))[0],
    "golden_drops": lambda: scenario_from_dict(json.loads(
        (ROOT / "tests" / "golden_drops.json").read_text()))[0],
    "policy_abuse": lambda: build("policy_abuse")[0],
}


@pytest.mark.parametrize("case", sorted(INJECTION_CASES))
def test_inject_all_matches_the_sequential_oracle(case):
    spec = INJECTION_CASES[case]()
    base = generate_traffic(spec)
    expected = sequential_inject_all(base, spec)
    got = inject_all(base, spec)
    for col in ARRIVAL_COLUMNS:
        want, have = getattr(expected, col), getattr(got, col)
        assert have.dtype == want.dtype and np.array_equal(have, want), col
    assert got.qid is got.sojourn_ns is got.color is None
    if any(ev.duration_s > 0 for ev in spec.anomalies):
        assert int(got.injected.sum()) > 0


def test_overlapping_anomalies_compose():
    key = FlowKey(1, 1)
    spec = one_queue_spec(
        [FlowSpec(key, TrafficPattern.CBR, 1000.0)], duration_s=3.0,
        anomalies=(
            AnomalyEvent(AnomalyKind.MICROBURST, start_s=1.0, duration_s=0.5,
                         target_flows=(key,), burst_factor=3.0),
            AnomalyEvent(AnomalyKind.MICROBURST, start_s=1.2, duration_s=0.5,
                         target_flows=(key,), burst_factor=3.0),
        ),
    )
    delivered, _, labels = simulate(spec)
    assert int(delivered.injected.sum()) == pytest.approx(2000, rel=0.05)
    assert {l.window for l in labels} == {1}


# -- labels ------------------------------------------------------------------------


def test_label_windows_interval_overlap():
    key = FlowKey(1, 1)
    spec = one_queue_spec(
        [FlowSpec(key, TrafficPattern.CBR, 100.0)], duration_s=20.0,
        anomalies=(AnomalyEvent(AnomalyKind.CONGESTION, start_s=10.0, duration_s=2.2,
                                target_qfis=(1,)),),
    )
    labels = label_windows(spec)
    assert {l.window for l in labels} == {10, 11, 12}
    assert all(l.kind is AnomalyKind.CONGESTION for l in labels)


def test_label_windows_empty_and_composed():
    key = FlowKey(1, 1)
    spec = one_queue_spec([FlowSpec(key, TrafficPattern.CBR, 100.0)], duration_s=5.0)
    assert label_windows(spec) == []
    spec2 = one_queue_spec(
        [FlowSpec(key, TrafficPattern.CBR, 100.0)], duration_s=5.0,
        anomalies=(
            AnomalyEvent(AnomalyKind.MICROBURST, start_s=2.0, duration_s=0.5,
                         target_flows=(key,)),
            AnomalyEvent(AnomalyKind.CONGESTION, start_s=2.2, duration_s=0.5,
                         target_qfis=(1,)),
        ),
    )
    labels = label_windows(spec2)
    assert {(l.window, l.kind) for l in labels} == {
        (2, AnomalyKind.MICROBURST),
        (2, AnomalyKind.CONGESTION),
    }


# -- anomaly signatures (qualitative sanity) ------------------------------------------


def test_congestion_raises_p99_latency_of_target_class():
    from flowtel.scenarios import build

    spec, _ = build("congestion")
    delivered, _, labels = simulate(spec)
    win = delivered.arrival_ns // spec.window_len_ns
    anom = sorted({l.window for l in labels})
    clean = [w for w in range(10, int(spec.duration_s)) if w not in set(anom)]
    target = (delivered.qfi == 2) | (delivered.qfi == 3)

    def p99(windows):
        vals = [
            np.quantile(delivered.sojourn_ns[target & (win == w)], 0.99)
            for w in windows
            if (target & (win == w)).sum() > 50
        ]
        return np.median(vals)

    assert p99(anom) > 5 * p99(clean)


def test_microburst_visible_subsecond_but_not_in_window_average():
    from flowtel.scenarios import build

    spec, _ = build("microburst")
    delivered, _, labels = simulate(spec)
    burst = next(a for a in spec.anomalies if a.kind is AnomalyKind.MICROBURST)
    w = int(burst.start_s)
    target_teid = burst.target_flows[0].teid
    qfi = burst.target_flows[0].qfi
    win = delivered.arrival_ns // spec.window_len_ns
    slice_ms = 100
    slices = ((delivered.arrival_ns // (slice_ms * 10**6)) % 10).astype(int)
    in_w = win == w
    teid_mask = delivered.teid == target_teid
    per_slice = np.bincount(slices[in_w & teid_mask], minlength=10)
    base_slice = np.median(per_slice[per_slice > 0])
    assert per_slice.max() > 3 * base_slice  # sub-second spike is obvious
    qfi_mask = (delivered.qfi == qfi) & delivered.monitored
    prev_w = win == (w - 2)
    qfi_change = (qfi_mask & in_w).sum() / (qfi_mask & prev_w).sum()
    assert abs(qfi_change - 1) < 0.10  # 1 s class average moves < 10%


def test_contention_raises_iat_variance_across_flows():
    """Service oscillation bunches deliveries, so flows whose spacing is
    steady in baseline (the CBR class) see their egress IAT variance jump,
    and it happens to several flows at once."""
    from flowtel.scenarios import build

    spec, _ = build("contention")
    delivered, _, labels = simulate(spec)
    depart = delivered.arrival_ns + delivered.sojourn_ns
    win = depart // spec.window_len_ns
    anom = sorted({l.window for l in labels})[2:-2]
    clean = [w for w in range(8, int(spec.duration_s)) if w not in set(anom)]

    def iat_cv(windows, teid):
        vals = []
        for w in windows:
            m = (delivered.teid == teid) & (win == w)
            gaps = np.diff(np.sort(depart[m]))
            if len(gaps) > 30:
                vals.append(gaps.std() / max(gaps.mean(), 1))
        return np.median(vals) if vals else 0.0

    steady_teids = (300, 301, 302, 303)  # CBR flows: near-zero baseline CV
    affected = sum(
        1 for teid in steady_teids if iat_cv(anom, teid) > 2.0 * iat_cv(clean, teid)
    )
    assert affected >= 3  # oscillation shows up across many flows at once