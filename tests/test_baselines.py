from dataclasses import dataclass

import numpy as np
import pytest

from flowtel.baselines import (
    PM_RECORD_BYTES,
    POSTCARD_BYTES,
    DeltaSampler,
    TelemetryMode,
    export_cost,
    pm_window,
    postcard_line,
    sketch_record_bytes,
)
from flowtel.core import Color, FlowKey, PacketEvent
from flowtel.simulator import PacketBatch

# -- per-packet references: the oracles of pm_window and DeltaSampler.offer_batch


@dataclass(frozen=True)
class Postcard:
    """Stateless per-packet report emitted on trigger; carries no sketch state."""

    key: FlowKey
    qid: int
    arrival_ns: int
    sojourn_ns: int
    color: Color
    bytes: int

    def to_line(self, window: int) -> str:
        return postcard_line(
            window, self.key.teid, self.key.qfi, self.qid, self.arrival_ns, self.sojourn_ns,
            int(self.color), self.bytes,
        )


def offer(sampler: DeltaSampler, ev: PacketEvent) -> Postcard | None:
    """Offer one delivered packet to ``sampler``: its postcard, or None."""
    code = ev.key.code()
    last = sampler.last_exported.get(code)
    if last is not None and abs(ev.sojourn_ns - last) <= sampler.delta_ns:
        return None
    sampler.last_exported[code] = ev.sojourn_ns
    return Postcard(key=ev.key, qid=ev.qid, arrival_ns=ev.arrival_ns, sojourn_ns=ev.sojourn_ns,
                    color=ev.color, bytes=ev.bytes)


@dataclass
class QfiCounters:
    """One QFI's aggregate counters for one window (tunnel identity erased),
    folded one packet at a time."""

    qfi: int
    window: int
    pkt_count: int = 0
    byte_count: int = 0
    drop_count: int = 0
    sojourn_sum_ns: int = 0

    @property
    def mean_delay_ns(self) -> float:
        if self.pkt_count == 0:
            return 0.0
        return self.sojourn_sum_ns / self.pkt_count

    def to_line(self) -> str:
        return (
            f"pm {self.window} {self.qfi} {self.pkt_count} {self.byte_count} "
            f"{self.drop_count} {self.mean_delay_ns:.3f}"
        )


def pm_update(counters: dict[int, QfiCounters], ev: PacketEvent, window: int) -> None:
    """Fold one delivered packet into its QFI row."""
    row = counters.setdefault(ev.key.qfi, QfiCounters(qfi=ev.key.qfi, window=window))
    row.pkt_count += 1
    row.byte_count += ev.bytes
    row.sojourn_sum_ns += ev.sojourn_ns


def pm_record_drop(counters: dict[int, QfiCounters], qfi: int, window: int) -> None:
    counters.setdefault(qfi, QfiCounters(qfi=qfi, window=window)).drop_count += 1



def ev(teid, qfi, sojourn_ns, arrival_ns=0, size=500, color=Color.GREEN):
    return PacketEvent(key=FlowKey(teid, qfi), qid=0, bytes=size,
                       arrival_ns=arrival_ns, sojourn_ns=sojourn_ns, color=color)


def row_event(batch: PacketBatch, i: int) -> PacketEvent:
    """Row i of a delivered batch as the per-packet references take it."""
    return PacketEvent(
        key=FlowKey(int(batch.teid[i]), int(batch.qfi[i])), qid=int(batch.qid[i]),
        bytes=int(batch.bytes[i]), arrival_ns=int(batch.arrival_ns[i]),
        sojourn_ns=int(batch.sojourn_ns[i]), color=Color(int(batch.color[i])),
    )


# -- PM counters -----------------------------------------------------------------


def test_pm_aggregation_masks_per_tunnel_tails():
    counters = {}
    pm_update(counters, ev(1, 5, sojourn_ns=1_000_000), window=0)
    pm_update(counters, ev(2, 5, sojourn_ns=20_000_000), window=0)
    assert list(counters) == [5]  # one row per class, tunnels collapsed
    row = counters[5]
    assert row.pkt_count == 2
    assert row.mean_delay_ns == pytest.approx(10_500_000)  # 10.5 ms average


def test_pm_empty_window_row_is_zero():
    row = QfiCounters(qfi=3, window=7)
    assert row.pkt_count == 0 and row.mean_delay_ns == 0.0


def test_pm_counters_match_exact_sums(rng):
    counters = {}
    byqfi_pkts, byqfi_bytes, byqfi_soj = {}, {}, {}
    for i in range(2000):
        qfi = int(rng.integers(1, 5))
        size = int(rng.integers(64, 1500))
        soj = int(rng.integers(0, 10**7))
        pm_update(counters, ev(int(rng.integers(1, 50)), qfi, soj, size=size), window=0)
        byqfi_pkts[qfi] = byqfi_pkts.get(qfi, 0) + 1
        byqfi_bytes[qfi] = byqfi_bytes.get(qfi, 0) + size
        byqfi_soj[qfi] = byqfi_soj.get(qfi, 0) + soj
    for qfi, row in counters.items():
        assert row.pkt_count == byqfi_pkts[qfi]
        assert row.byte_count == byqfi_bytes[qfi]
        assert row.mean_delay_ns == pytest.approx(byqfi_soj[qfi] / byqfi_pkts[qfi])


def test_pm_drop_accounting():
    counters = {}
    pm_record_drop(counters, qfi=4, window=2)
    pm_record_drop(counters, qfi=4, window=2)
    assert counters[4].drop_count == 2


def delivered_batch(teid, qfi, qid, nbytes, arrival_ns, sojourn_ns, monitored):
    n = len(teid)
    return PacketBatch(
        teid=np.asarray(teid, dtype=np.int64), qfi=np.asarray(qfi, dtype=np.int64),
        qid=np.asarray(qid, dtype=np.int64), bytes=np.asarray(nbytes, dtype=np.int64),
        arrival_ns=np.asarray(arrival_ns, dtype=np.int64),
        sojourn_ns=np.asarray(sojourn_ns, dtype=np.int64), color=np.zeros(n, dtype=np.int8),
        monitored=np.asarray(monitored, dtype=bool), injected=np.zeros(n, dtype=bool),
    )


def test_pm_windows_match_per_event_fold(rng):
    """The pipeline's PM rows (per-window slices of the stream and of the
    drops) equal folding every packet and drop with pm_update/pm_record_drop."""
    from flowtel.pipeline import TelemetryConfig, run_telemetry
    from flowtel.simulator import FlowSpec, QueuePolicy, ScenarioSpec, TrafficPattern

    n, n_windows, W = 3000, 4, 10**9
    qfi = rng.integers(1, 5, size=n)
    batch = delivered_batch(
        teid=rng.integers(1, 30, size=n), qfi=qfi, qid=qfi % 2,
        nbytes=rng.integers(64, 1500, size=n),
        arrival_ns=np.sort(rng.integers(0, n_windows * W + W // 2, size=n)),
        sojourn_ns=rng.integers(0, 10**8, size=n), monitored=rng.random(n) < 0.8,
    )
    # qfi 6 only ever drops (a drop-only row); the last drop is past the last window
    m = 400
    drops = PacketBatch(
        teid=rng.integers(1, 30, size=m), qfi=rng.choice([1, 3, 6], size=m),
        qid=np.zeros(m, dtype=np.int64), bytes=np.full(m, 100),
        arrival_ns=np.append(rng.integers(0, n_windows * W, size=m - 1), n_windows * W + 5),
        reason=rng.integers(0, 2, size=m), monitored=np.append(rng.random(m - 1) < 0.7, True),
        injected=None,
    )
    flow = FlowSpec(key=FlowKey(1, 1), pattern=TrafficPattern.CBR, rate_pps=1.0)
    spec = ScenarioSpec(
        duration_s=float(n_windows), seed=0, flows=(flow,),
        qfi_to_qid={q: q % 2 for q in range(1, 7)},
        queue_policy={q: QueuePolicy(tier=q, weight=1, service_rate_bps=1e9, buffer_pkts=10)
                      for q in (0, 1)},
    )
    result = run_telemetry(batch, drops, [], spec, TelemetryConfig(), modes=(TelemetryMode.PM,))

    ref: dict[int, dict[int, QfiCounters]] = {w: {} for w in range(n_windows)}
    depart = batch.depart_ns()
    for i in np.argsort(depart, kind="stable"):
        w = int(depart[i]) // W
        if batch.monitored[i] and w < n_windows:
            pm_update(ref[w], row_event(batch, i), w)
    for q, t, mon in zip(drops.qfi.tolist(), drops.arrival_ns.tolist(), drops.monitored.tolist()):
        if mon and t // W < n_windows:
            pm_record_drop(ref[t // W], q, t // W)
    expect = [ref[w][q].to_line() for w in range(n_windows) for q in sorted(ref[w])]
    assert result.modes[TelemetryMode.PM].record_lines == expect
    assert any(line.split()[2] == "6" for line in expect)  # the drop-only rows are there


def test_pm_window_mean_delay_divides_exact_sums():
    # three sojourns just past 2**53: their float64 sum rounds, the int sum does not
    soj = np.array([2**53 + 1, 2**53 + 3, 2**53 + 5], dtype=np.int64)
    (row,) = pm_window(np.full(3, 4), np.full(3, 2), np.full(3, 100), soj, np.ones(3, bool),
                       np.array([4, 4]), np.array([2, 2])).tolist()
    ref: dict[int, QfiCounters] = {}
    for s in soj.tolist():
        pm_update(ref, ev(1, 2, sojourn_ns=s, size=100), window=4)
    pm_record_drop(ref, 2, 4)
    pm_record_drop(ref, 2, 4)
    r = ref[2]
    assert row == (r.window, r.qfi, r.pkt_count, r.byte_count, r.drop_count, r.mean_delay_ns)
    assert row[-1] == (3 * 2**53 + 9) / 3 != float(soj.sum(dtype=np.float64)) / 3


# -- delta-triggered postcards -------------------------------------------------------


def test_first_packet_always_exports_then_silence_on_constant_latency():
    s = DeltaSampler(delta_ns=1_000_000)
    assert offer(s, ev(1, 1, sojourn_ns=5_000_000, arrival_ns=10)) is not None
    for k in range(20):
        assert offer(s, ev(1, 1, sojourn_ns=5_000_000, arrival_ns=20 + k)) is None


def test_step_of_twice_delta_exports_exactly_once():
    delta = 1_000_000
    s = DeltaSampler(delta_ns=delta)
    # hand-traced 5-packet stream: export, hold, hold, export at step, hold
    got = [
        offer(s, ev(1, 1, sojourn_ns=3_000_000, arrival_ns=1)) is not None,
        offer(s, ev(1, 1, sojourn_ns=3_400_000, arrival_ns=2)) is not None,
        offer(s, ev(1, 1, sojourn_ns=2_800_000, arrival_ns=3)) is not None,
        offer(s, ev(1, 1, sojourn_ns=5_000_000, arrival_ns=4)) is not None,  # +2 delta
        offer(s, ev(1, 1, sojourn_ns=5_500_000, arrival_ns=5)) is not None,
    ]
    assert got == [True, False, False, True, False]


def test_change_at_or_below_delta_never_exports():
    s = DeltaSampler(delta_ns=1000)
    offer(s, ev(1, 1, sojourn_ns=10_000, arrival_ns=1))
    assert offer(s, ev(1, 1, sojourn_ns=11_000, arrival_ns=2)) is None  # == delta
    assert offer(s, ev(1, 1, sojourn_ns=9_000, arrival_ns=3)) is None


def test_per_flow_state_is_independent():
    s = DeltaSampler(delta_ns=1000)
    assert offer(s, ev(1, 1, sojourn_ns=10_000, arrival_ns=1)) is not None
    assert offer(s, ev(2, 1, sojourn_ns=10_000, arrival_ns=2)) is not None  # other flow
    assert offer(s, ev(1, 1, sojourn_ns=10_000, arrival_ns=3)) is None


def test_offer_batch_matches_sequential(rng):
    n = 500
    teid = rng.integers(1, 6, size=n).astype(np.int64)
    soj = rng.integers(0, 5_000_000, size=n).astype(np.int64)
    arr = np.cumsum(rng.integers(1, 1000, size=n)).astype(np.int64)
    batch = PacketBatch(
        teid=teid, qfi=np.ones(n, dtype=np.int64), qid=np.zeros(n, dtype=np.int64),
        bytes=np.full(n, 500, dtype=np.int64), arrival_ns=arr, sojourn_ns=soj,
        color=np.zeros(n, dtype=np.int8), monitored=np.ones(n, dtype=bool),
        injected=np.zeros(n, dtype=bool),
    )
    sel = np.ones(n, dtype=bool)
    batch_sampler = DeltaSampler(delta_ns=700_000)
    idx = set(batch_sampler.offer_batch(batch, sel).tolist())
    seq_sampler = DeltaSampler(delta_ns=700_000)
    expect = {i for i in range(n) if offer(seq_sampler, row_event(batch, i)) is not None}
    assert idx == expect


def test_offer_batch_one_pass_matches_per_window_calls(rng):
    """One call over a multi-window stream exports the same packets as one
    call per window (state carried between calls) and as sequential offer."""
    n, W = 900, 1000
    teid = rng.integers(1, 8, size=n)
    soj = rng.integers(0, 5_000_000, size=n)
    # flow 9 exports in window 0, stays within delta of that export through
    # window 1, and moves past it early in window 2
    teid[[10, 350, 400, 700]] = 9
    soj[[10, 350, 400, 700]] = [1_000_000, 1_300_000, 1_600_000, 1_800_000]
    batch = delivered_batch(
        teid=teid, qfi=np.ones(n), qid=np.zeros(n), nbytes=np.full(n, 500),
        arrival_ns=np.arange(n) * 3 + 1, sojourn_ns=soj, monitored=rng.random(n) < 0.9,
    )
    window = batch.arrival_ns // W
    assert window[[10, 350, 400, 700]].tolist() == [0, 1, 1, 2]
    one = DeltaSampler(delta_ns=700_000).offer_batch(batch, np.ones(n, dtype=bool))
    per = DeltaSampler(delta_ns=700_000)
    per_window = np.concatenate([per.offer_batch(batch, window == w) for w in range(3)])
    seq = DeltaSampler(delta_ns=700_000)
    expect = [i for i in range(n)
              if batch.monitored[i] and offer(seq, row_event(batch, i)) is not None]
    assert one.tolist() == per_window.tolist() == expect
    assert 700 in expect and 350 not in expect and 400 not in expect


# -- export cost ---------------------------------------------------------------------


def test_sketch_cost_is_configuration_only():
    quiet = export_cost(TelemetryMode.SKETCH, width=512, depth=3, bins_b=8, num_qids=8)
    burst = export_cost(TelemetryMode.SKETCH, width=512, depth=3, bins_b=8, num_qids=8)
    assert quiet == burst == sketch_record_bytes(8) * 512 * 3 * 8
    assert sketch_record_bytes(8) == 96  # 22 32-bit fields + one 64-bit


def test_pm_cost_scales_with_active_classes():
    assert export_cost(TelemetryMode.PM, active_qfis=9) == 9 * PM_RECORD_BYTES


def test_dsmp_cost_scales_with_emissions():
    assert export_cost(TelemetryMode.DSMP, postcards=1234) == 1234 * POSTCARD_BYTES


def test_dsmp_burst_cost_dominates_quiet_cost():
    """Bursty windows force many threshold crossings; quiet windows almost
    none, so the postcard bill follows traffic, not configuration."""
    s = DeltaSampler(delta_ns=100_000)
    quiet = burst = 0
    t = 0
    for k in range(1000):  # quiet second: flat latency
        t += 1_000_000
        if offer(s, ev(1, 1, sojourn_ns=200_000, arrival_ns=t)) is not None:
            quiet += 1
    ramp = 200_000
    for k in range(1000):  # bursty second: latency ramps up and down
        t += 1_000_000
        ramp += 150_000 if k < 500 else -150_000
        if offer(s, ev(1, 1, sojourn_ns=ramp, arrival_ns=t)) is not None:
            burst += 1
    assert burst * POSTCARD_BYTES >= 5 * max(quiet, 1) * POSTCARD_BYTES


def test_postcard_line_roundtrip_format():
    pc = Postcard(key=FlowKey(7, 3), qid=1, arrival_ns=123, sojourn_ns=456,
                  color=Color.YELLOW, bytes=789)
    parts = pc.to_line(window=9).split()
    assert parts[0] == "dsmp"
    assert [int(p) for p in parts[1:]] == [9, 7, 3, 1, 123, 456, 1, 789]
