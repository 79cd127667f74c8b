"""Deterministic user-plane simulator.

Pipeline: per-flow traffic generation -> anomaly injection on the arrival
stream -> metering, queueing, and scheduling -> delivered packets with
sojourn times and meter colors, plus the dropped packets with their reasons.

Determinism rules: one master seed; every flow and every anomaly draws from
its own child generator keyed by (seed, index); merged arrivals are ordered
by (time, flow code, per-flow sequence); the service loop is single-threaded
and breaks ties by that same order. Re-running a scenario reproduces every
output array exactly.

Packets travel as the columns of one type, ``PacketBatch``, so that
multi-million-packet scenarios stay cheap; the dropped packets are rows of
it too, with a ``reason`` column. Each column has one type
(``COLUMN_DTYPES``), the narrowest that holds every value validation lets
in. A per-packet ``PacketEvent`` is taken only by the reference paths the
tests use as oracles, such as ``HistogramSketch.update``. Injection (``inject_all``) touches only each
anomaly's time slice: an additive anomaly merges its rows into the slice
under the (time, flow code, sequence) tie rule, a remap re-sorts the slice,
and the untouched stretches are copied once, when the slices are joined.

Scheduling model: one egress port serving Q queues, non-preemptive. Queues
are grouped into strict-priority tiers (lower tier number first); inside a
tier, deficit-round-robin by weight gives byte shares proportional to the
configured weights. A packet's transmission time uses its queue's configured
service rate. Metering is a two-rate three-color token bucket per flow key
(RFC 2698 color-blind order: peak bucket first); red packets drop before the
queue, full buffers tail-drop.

The model is defined by one loop that meters, enqueues and serves each
packet in arrival order (kept in tests/test_simulator.py as the oracle).
``run_queues`` computes the same outputs in three steps. A meter pass colors
every packet first: each metered flow has a bucket of its own that reads only
that flow's packets, so its colors cannot depend on queueing. Transmission
times are computed for all packets at once from the same doubles a
per-packet ``math.ceil`` saw. The service loop then visits only the packets
the meter passed (a red packet never touches a queue) and serves a one-queue
tier's head without deficit bookkeeping (deficit round-robin only chooses
between the queues of one tier).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .core import MAX_QFI, NS_PER_S, QFI_BITS, FlowKey, window_index


class ScenarioError(ValueError):
    """Scenario fails validation; message names the offending field."""


class TrafficPattern(Enum):
    CBR = "cbr"  # fixed spacing: VoIP, IoT telemetry
    ONOFF = "onoff"  # bursty on/off: streaming, gaming
    POISSON = "poisson"  # memoryless: best effort


class AnomalyKind(Enum):
    MICROBURST = "microburst"
    CONGESTION = "congestion"
    CONTENTION = "contention"
    POLICY_ABUSE = "policy_abuse"


@dataclass(frozen=True)
class FlowSpec:
    key: FlowKey
    pattern: TrafficPattern
    rate_pps: float
    bytes_min: int = 400
    bytes_max: int = 400
    on_fraction: float = 0.4  # ONOFF only
    cycle_ms: float = 400.0  # ONOFF only
    monitored: bool = True

    def mean_bytes(self) -> float:
        return (self.bytes_min + self.bytes_max) / 2.0


@dataclass(frozen=True, kw_only=True)
class QueuePolicy:
    tier: int  # lower = served first
    weight: int = 1  # round-robin share within the tier, in bytes
    service_rate_bps: float
    buffer_pkts: int = 4000


@dataclass(frozen=True)
class MeterSpec:
    cir_bps: float
    cbs_bytes: float
    pir_bps: float
    pbs_bytes: float


@dataclass(frozen=True)
class AnomalyEvent:
    kind: AnomalyKind
    start_s: float
    duration_s: float
    target_flows: tuple[FlowKey, ...] = ()
    target_qfis: tuple[int, ...] = ()
    burst_factor: float = 6.0  # MICROBURST: multiplies the target flow's rate
    overload_factor: float = 2.0  # CONGESTION: multiplies target-QFI load
    cross_rate_pps: float = 20_000.0  # CONTENTION: unmonitored square wave
    cross_bytes: int = 1200
    cross_period_ms: float = 200.0
    cross_qfis: tuple[int, ...] = ()  # CONTENTION entry classes; targets are the label scope
    remapped_qfi: int = 0  # POLICY_ABUSE: destination class

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class GroundTruthLabel:
    window: int
    kind: AnomalyKind
    scope: tuple  # ("flow", teid, qfi) or ("qfi", qfi)


def flow_codes(teid: np.ndarray, qfi: np.ndarray) -> np.ndarray:
    """Per-packet FlowKey.code() of teid/qfi columns, built in one uint64 array."""
    codes = teid.astype(np.uint64)
    codes <<= np.uint64(QFI_BITS)
    return np.bitwise_or(codes, qfi, out=codes, dtype=np.uint64, casting="unsafe")


# the one type of each PacketBatch column; PacketBatch says what each holds
COLUMN_DTYPES = {
    "teid": np.dtype(np.uint32),
    "qfi": np.dtype(np.uint8),
    "qid": np.dtype(np.uint8),
    "bytes": np.dtype(np.uint16),
    "arrival_ns": np.dtype(np.int64),
    "sojourn_ns": np.dtype(np.int64),
    "color": np.dtype(np.int8),
    "reason": np.dtype(np.int8),
    "monitored": np.dtype(bool),
    "injected": np.dtype(bool),
}


def column_bounds(name: str) -> tuple[int, int]:
    """The least and the greatest value column ``name``'s type holds."""
    dtype = COLUMN_DTYPES[name]
    if dtype == bool:
        return 0, 1
    return int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)


MAX_QID = column_bounds("qid")[1]
MAX_BYTES = column_bounds("bytes")[1]


@dataclass
class PacketBatch:
    """Packets as columns, each of its ``COLUMN_DTYPES`` type, 27 bytes a
    delivered packet: ``teid`` uint32 (to MAX_TEID) and ``qfi`` uint8 (to
    MAX_QFI), both checked by FlowKey; ``qid`` uint8 (0 to MAX_QID) and
    ``bytes`` uint16 (to MAX_BYTES), both checked by ScenarioSpec.validate
    and cli.load_capture; ``color`` and ``reason`` int8; ``arrival_ns`` and
    ``sojourn_ns`` int64; ``monitored`` and ``injected`` bool. Code that sums
    a narrow column casts it to int64 first: a uint16 byte sum would wrap.

    Arrivals are ordered by (time, flow code, per-flow sequence) and leave
    ``qid``, ``sojourn_ns``, ``color`` and ``reason`` unset; ``run_queues``
    fills in the first three for the packets it delivers and ``qid`` and
    ``reason`` for those it drops, in that order."""

    teid: np.ndarray
    qfi: np.ndarray
    bytes: np.ndarray
    arrival_ns: np.ndarray
    monitored: np.ndarray
    injected: np.ndarray | None
    qid: np.ndarray | None = None
    sojourn_ns: np.ndarray | None = None
    color: np.ndarray | None = None
    reason: np.ndarray | None = None  # drops only: DROP_METER or DROP_OVERFLOW

    def __len__(self) -> int:
        return len(self.arrival_ns)

    def columns(self) -> dict[str, np.ndarray]:
        """Every column that is set, by name."""
        return {name: col for name, col in vars(self).items() if isinstance(col, np.ndarray)}

    def take(self, idx, **cols) -> "PacketBatch":
        """Rows ``idx`` (indices, a mask or a slice) of every set column, as a
        batch of this type; ``cols`` replace or fill columns as given."""
        taken = {name: col[idx] for name, col in self.columns().items() if name not in cols}
        return replace(self, **taken, **cols)

    def codes(self) -> np.ndarray:
        return flow_codes(self.teid, self.qfi)

    def depart_ns(self) -> np.ndarray:
        return self.arrival_ns + self.sojourn_ns


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    duration_s: float
    seed: int = 0
    flows: tuple[FlowSpec, ...]
    qfi_to_qid: dict[int, int]
    queue_policy: dict[int, QueuePolicy]
    meters: dict[FlowKey, MeterSpec] = field(default_factory=dict)
    default_meter: MeterSpec | None = None
    anomalies: tuple[AnomalyEvent, ...] = ()
    window_len_ns: int = NS_PER_S

    def validate(self) -> None:
        if self.duration_s <= 0:
            raise ScenarioError("duration_s: must be positive")
        if self.window_len_ns <= 0:
            raise ScenarioError(f"window_len_ns: must be positive, got {self.window_len_ns}")
        if self.seed < 0:
            raise ScenarioError(f"seed: must be >= 0, got {self.seed}")
        if not self.flows:
            raise ScenarioError("flows: at least one flow required")
        for qfi, qid in self.qfi_to_qid.items():
            if not 0 <= qfi <= MAX_QFI:
                raise ScenarioError(f"qfi_to_qid: qfi {qfi} out of range")
            if qid not in self.queue_policy:
                raise ScenarioError(f"qfi_to_qid: qfi {qfi} maps to unknown qid {qid}")
        for i, fl in enumerate(self.flows):
            if fl.key.qfi not in self.qfi_to_qid:
                raise ScenarioError(f"flows: flow {fl.key} has unmapped qfi {fl.key.qfi}")
            if fl.rate_pps <= 0:
                raise ScenarioError(f"flows: flow {fl.key} rate_pps must be positive")
            if not 1 <= fl.bytes_min <= fl.bytes_max:
                raise ScenarioError(f"flows: flow {fl.key} byte range invalid")
            if fl.bytes_max > MAX_BYTES:
                raise ScenarioError(f"flows[{i}].bytes_max: {fl.bytes_max} is above the "
                                    f"{MAX_BYTES}-byte packet limit")
        for qid, pol in self.queue_policy.items():
            if not 0 <= qid <= MAX_QID:
                raise ScenarioError(f"queue_policy: qid {qid} outside 0 to {MAX_QID}")
            if pol.service_rate_bps <= 0:
                raise ScenarioError(f"queue_policy: qid {qid} service_rate_bps must be positive")
            if pol.buffer_pkts < 1:
                raise ScenarioError(f"queue_policy: qid {qid} buffer_pkts must be >= 1")
            if pol.weight <= 0:
                raise ScenarioError(f"queue_policy: qid {qid} weight must be positive")
        for i, an in enumerate(self.anomalies):
            if an.duration_s < 0:
                raise ScenarioError(f"anomalies[{i}]: negative duration")
            if an.start_s < 0 or an.end_s > self.duration_s + 1e-9:
                raise ScenarioError(f"anomalies[{i}]: window outside scenario duration")
            if an.kind is AnomalyKind.POLICY_ABUSE and an.remapped_qfi not in self.qfi_to_qid:
                raise ScenarioError(f"anomalies[{i}]: remapped_qfi {an.remapped_qfi} unmapped")
            if an.kind is AnomalyKind.CONTENTION and not an.target_qfis:
                raise ScenarioError(f"anomalies[{i}]: contention needs target_qfis")
            if an.kind is AnomalyKind.CONTENTION and not 1 <= an.cross_bytes <= MAX_BYTES:
                raise ScenarioError(f"anomalies[{i}].cross_bytes: {an.cross_bytes} outside "
                                    f"1 to {MAX_BYTES}")
        # runaway guard: offered load versus what the port can move
        offered = sum(fl.rate_pps * fl.mean_bytes() * 8 for fl in self.flows)
        capacity = max(pol.service_rate_bps for pol in self.queue_policy.values())
        if offered > 10 * capacity:
            raise ScenarioError(
                f"flows: offered load {offered:.3g} bps exceeds 10x service rate {capacity:.3g} bps"
            )


# -- traffic generation ---------------------------------------------------------


def _flow_rng(seed: int, idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0xF10A, idx])


def _anomaly_rng(seed: int, idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0xA001, idx])


def _cbr_times(rate_pps: float, start_ns: int, end_ns: int, phase_ns: int) -> np.ndarray:
    interval = max(1, round(NS_PER_S / rate_pps))
    first = start_ns + phase_ns
    if first >= end_ns:
        return np.empty(0, dtype=np.int64)
    n = (end_ns - 1 - first) // interval + 1
    return first + interval * np.arange(n, dtype=np.int64)


def _poisson_times(rng, rate_pps: float, start_ns: int, end_ns: int) -> np.ndarray:
    span = end_ns - start_ns
    n_est = int(rate_pps * span / NS_PER_S * 1.3) + 20
    gaps = np.maximum(1, rng.exponential(NS_PER_S / rate_pps, size=n_est)).astype(np.int64)
    times = start_ns + np.cumsum(gaps)
    times = times[times < end_ns]
    while len(times) and times[-1] < end_ns - 4 * NS_PER_S / rate_pps:
        extra = np.maximum(1, rng.exponential(NS_PER_S / rate_pps, size=n_est)).astype(np.int64)
        more = times[-1] + np.cumsum(extra)
        times = np.concatenate([times, more[more < end_ns]])
    return times


def _onoff_times(rng, fl: FlowSpec, start_ns: int, end_ns: int) -> np.ndarray:
    peak = fl.rate_pps / fl.on_fraction
    cycle_ns = fl.cycle_ms * 1e6
    on_mean = fl.on_fraction * cycle_ns
    off_mean = (1 - fl.on_fraction) * cycle_ns
    chunks = []
    t = start_ns + int(rng.uniform(0, cycle_ns))
    while t < end_ns:
        on_len = max(1.0, rng.exponential(on_mean))
        chunk_end = min(end_ns, int(t + on_len))
        chunks.append(_cbr_times(peak, int(t), chunk_end, 0))
        t += on_len + max(1.0, rng.exponential(off_mean))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def _flow_arrivals(fl: FlowSpec, rng, start_ns: int, end_ns: int) -> np.ndarray:
    if fl.pattern is TrafficPattern.CBR:
        interval = max(1, round(NS_PER_S / fl.rate_pps))
        return _cbr_times(fl.rate_pps, start_ns, end_ns, int(rng.integers(0, interval)))
    if fl.pattern is TrafficPattern.POISSON:
        return _poisson_times(rng, fl.rate_pps, start_ns, end_ns)
    return _onoff_times(rng, fl, start_ns, end_ns)


def _sizes(rng, fl: FlowSpec, n: int) -> np.ndarray:
    if fl.bytes_min == fl.bytes_max:
        return np.full(n, fl.bytes_min, dtype=COLUMN_DTYPES["bytes"])
    # drawn as int64 and then narrowed: the draw's type fixes the generator's stream
    return rng.integers(fl.bytes_min, fl.bytes_max + 1, size=n).astype(COLUMN_DTYPES["bytes"])


def _sorted_parts(parts: list[PacketBatch]) -> tuple[PacketBatch, np.ndarray]:
    """Rows of all parts ordered by (time, flow code, index within the part),
    ties kept in part order, together with each row's index within its part."""
    batch = _concat(parts)
    seq = np.concatenate([np.arange(len(p), dtype=np.int64) for p in parts])
    order = _order(batch.arrival_ns, batch.codes(), seq)
    return batch.take(order), seq[order]


def _flow_part(fl: FlowSpec, times: np.ndarray, rng, injected: bool) -> PacketBatch:
    n = len(times)
    dt = COLUMN_DTYPES
    return PacketBatch(
        teid=np.full(n, fl.key.teid, dtype=dt["teid"]),
        qfi=np.full(n, fl.key.qfi, dtype=dt["qfi"]),
        bytes=_sizes(rng, fl, n),
        arrival_ns=times.astype(dt["arrival_ns"]),
        monitored=np.full(n, fl.monitored, dtype=dt["monitored"]),
        injected=np.full(n, injected, dtype=dt["injected"]),
    )


def generate_traffic(spec: ScenarioSpec) -> PacketBatch:
    """Baseline (anomaly-free) arrivals for every configured flow."""
    spec.validate()
    end_ns = int(spec.duration_s * NS_PER_S)
    parts = []
    for idx, fl in enumerate(spec.flows):
        rng = _flow_rng(spec.seed, idx)
        times = _flow_arrivals(fl, rng, 0, end_ns)
        parts.append(_flow_part(fl, times, rng, injected=False))
    return _sorted_parts(parts)[0]


# -- anomaly injection ------------------------------------------------------------


def _anomaly_parts(ev: AnomalyEvent, spec: ScenarioSpec, anomaly_idx: int) -> list[PacketBatch]:
    """An additive anomaly's rows, one part per flow, all in [start, end)."""
    rng = _anomaly_rng(spec.seed, anomaly_idx)
    start_ns = int(ev.start_s * NS_PER_S)
    end_ns = int(ev.end_s * NS_PER_S)
    flows_by_key = {fl.key: fl for fl in spec.flows}
    parts = []
    if ev.kind is AnomalyKind.MICROBURST:
        for key in ev.target_flows:
            fl = flows_by_key[key]
            extra_rate = (ev.burst_factor - 1.0) * fl.rate_pps
            interval = max(1, round(NS_PER_S / extra_rate))
            times = _cbr_times(extra_rate, start_ns, end_ns, int(rng.integers(0, interval)))
            parts.append(_flow_part(fl, times, rng, injected=True))
    elif ev.kind is AnomalyKind.CONGESTION:
        for fl in spec.flows:
            if fl.key.qfi in ev.target_qfis and fl.monitored:
                extra_rate = (ev.overload_factor - 1.0) * fl.rate_pps
                if extra_rate <= 0:
                    continue
                times = _poisson_times(rng, extra_rate, start_ns, end_ns)
                parts.append(_flow_part(fl, times, rng, injected=True))
    elif ev.kind is AnomalyKind.CONTENTION:
        # unmonitored cross traffic on a square wave: full rate for half of
        # each period, silent for the other half, shared into target queues
        period_ns = int(ev.cross_period_ms * 1e6)
        entry_qfis = ev.cross_qfis if ev.cross_qfis else ev.target_qfis
        for n, qfi in enumerate(entry_qfis):
            cross = FlowSpec(
                key=FlowKey(0xFF000000 + anomaly_idx * 64 + n, qfi),
                pattern=TrafficPattern.CBR,
                rate_pps=ev.cross_rate_pps,
                bytes_min=ev.cross_bytes,
                bytes_max=ev.cross_bytes,
                monitored=False,
            )
            chunks = []
            t = start_ns
            while t < end_ns:
                on_end = min(t + period_ns // 2, end_ns)
                chunks.append(_cbr_times(ev.cross_rate_pps, t, on_end, 0))
                t += period_ns
            times = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            parts.append(_flow_part(cross, times, rng, injected=True))
    return parts


def inject_anomaly(batch: PacketBatch, ev: AnomalyEvent, spec: ScenarioSpec,
                   anomaly_idx: int = 0) -> PacketBatch:
    """``inject_all`` with one event, drawn as anomaly ``anomaly_idx``."""
    return _inject(batch, spec, [(anomaly_idx, ev)])


def inject_all(batch: PacketBatch, spec: ScenarioSpec) -> PacketBatch:
    """Overlay the anomalies, in the order listed, on a stream in arrival order.

    An additive anomaly sorts the stream and its new rows by (time, flow code,
    sequence): a stream row's sequence is its position, a new row's its index
    in its flow's part, and a full tie keeps the stream row first. A remap
    moves the target flows' packets in [start, end) to ``remapped_qfi``, marks
    them injected and stably re-sorts that slice by (time, flow code).

    Each anomaly touches only its own slice: the stream is cut at every start
    and end into views of ``batch``; an anomaly joins the pieces of its slice,
    merges or remaps there (the pieces before give each row's position) and
    cuts the slice again. The pieces are joined once, at the end.
    """
    return _inject(batch, spec, enumerate(spec.anomalies))


def _inject(batch: PacketBatch, spec: ScenarioSpec, events) -> PacketBatch:
    spans = [(i, ev, int(ev.start_s * NS_PER_S), int(ev.end_s * NS_PER_S)) for i, ev in events]
    spans = [span for span in spans if span[2] < span[3]]  # an empty [start, end) changes nothing
    bounds = np.unique(np.array([span[2:] for span in spans], dtype=np.int64).reshape(-1))
    cuts = [0, *np.searchsorted(batch.arrival_ns, bounds, side="left").tolist(), len(batch)]
    pieces = [batch.take(slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]  # views
    for idx, ev, start, end in spans:
        a, b = np.searchsorted(bounds, [start, end]) + 1  # pieces[a:b] hold [start, end)
        if ev.kind is AnomalyKind.POLICY_ABUSE:
            win = _concat(pieces[a:b])
            hit = np.isin(win.codes(), np.array([key.code() for key in ev.target_flows], np.uint64))
            win.qfi[hit], win.injected[hit] = ev.remapped_qfi, True
            order = _order(win.arrival_ns, win.codes())
        else:
            parts = _anomaly_parts(ev, spec, idx)
            if not parts:
                continue
            new, new_seq = _sorted_parts(parts)
            at, n = sum(map(len, pieces[:a])), sum(map(len, pieces[a:b]))
            win = _concat([*pieces[a:b], new])
            order = _order(win.arrival_ns, win.codes(), np.append(np.arange(at, at + n), new_seq))
        win = win.take(order)
        inner = np.searchsorted(win.arrival_ns, bounds[a:b - 1], side="left").tolist()
        pieces[a:b] = [win.take(slice(lo, hi)) for lo, hi in zip([0, *inner], [*inner, len(win)])]
    return _concat(pieces) if spans else batch


def _concat(batches: list[PacketBatch]) -> PacketBatch:
    """The rows of the batches, in order, as one new batch."""
    cols = [p.columns() for p in batches]
    return PacketBatch(**{name: np.concatenate([c[name] for c in cols]) for name in cols[0]})


def _order(t: np.ndarray, *minor: np.ndarray) -> np.ndarray:
    """The stable order by (t, *minor). A stable argsort of t merges sorted
    runs in linear time; only the rows whose t ties are then lexsorted."""
    order = np.argsort(t, kind="stable")
    ts = t[order]
    tie = np.flatnonzero(ts[1:] == ts[:-1])
    if len(tie):
        at = np.union1d(tie, tie + 1)
        sub = order[at]
        order[at] = sub[np.lexsort([k[sub] for k in (*minor[::-1], t)])]
    return order


def label_windows(spec: ScenarioSpec) -> list[GroundTruthLabel]:
    """One label per (window, kind, scope) overlapping an anomaly interval."""
    labels = []
    for ev in spec.anomalies:
        if ev.duration_s <= 0:
            continue
        first = window_index(int(ev.start_s * NS_PER_S), spec.window_len_ns)
        last = window_index(int(ev.end_s * NS_PER_S) - 1, spec.window_len_ns)
        scopes: list[tuple] = [("flow", k.teid, k.qfi) for k in ev.target_flows]
        scopes += [("qfi", q) for q in ev.target_qfis]
        if not scopes:
            scopes = [("all",)]
        for w in range(first, last + 1):
            for scope in scopes:
                labels.append(GroundTruthLabel(window=w, kind=ev.kind, scope=scope))
    return labels


# -- metering + queueing + scheduling ----------------------------------------------


DROP_METER = 0
DROP_OVERFLOW = 1

_DRR_QUANTUM_BYTES = 2000  # per weight unit; a larger packet waits for more turns


def run_queues(batch: PacketBatch, spec: ScenarioSpec) -> tuple[PacketBatch, PacketBatch]:
    """Meter, enqueue, and serve an arrival stream; returns the delivered
    packets and the dropped ones (their ``reason`` set), both in arrival order.

    The outputs are those of one loop that meters, enqueues and serves each
    packet in arrival order. Three steps give them, each for a reason that
    leaves every output unchanged:

    1. Meter pass (``_meter_colors``). Every metered flow code has a bucket
       of its own, an explicit meter or its own copy of ``default_meter``,
       and a bucket reads only its flow's arrival times and sizes. Each
       flow's RFC 2698 recurrence therefore runs over its packets in arrival
       order before any queueing, with the same float operations in the same
       order, and yields the colors and the red packets.
    2. Transmission times (``_serve``): ``max(1, ceil(bytes * ns_per_byte))``
       for all packets at once. numpy multiplies and rounds the same IEEE
       doubles a per-packet ``math.ceil(bytes * ns_per_byte)`` did.
    3. Service loop (``_serve``) over the packets the meter passed. A red
       packet never enters a queue, so the services a loop would start on
       reaching it start, in the same order, on reaching the next passed
       arrival: nothing joins a queue in between. A tier with one queue
       serves its head directly: deficit round-robin only chooses between
       the queues of one tier, so that tier's deficit could never change
       which packet leaves.

    Meter drops and overflow drops are merged by packet index, which keeps
    the drops in arrival order.
    """
    spec.validate()
    n = len(batch)
    qid_of_qfi = np.full(MAX_QFI + 1, -1, dtype=np.int16)  # -1: unmapped
    for qfi, qid in spec.qfi_to_qid.items():
        qid_of_qfi[qfi] = qid
    pkt_qid = qid_of_qfi[batch.qfi]
    if (pkt_qid < 0).any():
        bad = int(batch.qfi[pkt_qid < 0][0])
        raise ScenarioError(f"qfi_to_qid: stream contains unmapped qfi {bad}")
    pkt_qid = pkt_qid.astype(COLUMN_DTYPES["qid"])

    color = _meter_colors(batch, spec)
    red = color == 2
    # queues are numbered by position in sorted qids
    qids = sorted(spec.queue_policy)
    dense_of_qfi = np.searchsorted(qids, qid_of_qfi).astype(np.min_scalar_type(len(qids)))
    depart, overflow = _serve(batch, dense_of_qfi[batch.qfi], ~red,
                              [spec.queue_policy[q] for q in qids])

    reason = np.full(n, -1, dtype=COLUMN_DTYPES["reason"])
    reason[red] = DROP_METER
    reason[overflow] = DROP_OVERFLOW
    drops = np.flatnonzero(reason >= 0)
    mask = depart >= 0
    delivered = batch.take(mask, qid=pkt_qid[mask], sojourn_ns=depart[mask], color=color[mask])
    delivered.sojourn_ns -= delivered.arrival_ns  # departure to sojourn, in place
    return delivered, batch.take(drops, qid=pkt_qid[drops], reason=reason[drops], injected=None)


def _meter_colors(batch: PacketBatch, spec: ScenarioSpec) -> np.ndarray:
    """Each packet's meter color: 0 green (or unmetered), 1 yellow, 2 red."""
    color = np.zeros(len(batch), dtype=COLUMN_DTYPES["color"])
    codes = batch.codes()
    meters = {key.code(): m for key, m in spec.meters.items()}
    if spec.default_meter is None:
        metered = np.flatnonzero(np.isin(codes, np.fromiter(meters, np.uint64, len(meters))))
    else:
        metered = np.arange(len(batch))
    by_flow = metered[np.argsort(codes[metered], kind="stable")]  # arrival order per flow
    flows, counts = np.unique(codes[by_flow], return_counts=True)
    ends = np.cumsum(counts)
    for code, lo, hi in zip(flows.tolist(), (ends - counts).tolist(), ends.tolist()):
        idx = by_flow[lo:hi]
        m = meters.get(code, spec.default_meter)
        color[idx] = _trtcm(m, memoryview(batch.arrival_ns[idx]), memoryview(batch.bytes[idx]))
    return color


def _trtcm(m: MeterSpec, times, sizes) -> list[int]:
    """RFC 2698 two-rate three-color marker, color-blind (peak bucket first),
    over one flow's arrival times and sizes. Both buckets start full at 0."""
    cir = m.cir_bps / (8 * NS_PER_S)  # bytes per ns
    pir = m.pir_bps / (8 * NS_PER_S)
    cbs = float(m.cbs_bytes)
    pbs = float(m.pbs_bytes)
    tc, tp, last = cbs, pbs, 0
    colors: list[int] = []
    mark = colors.append
    for t, size in zip(times, sizes):
        elapsed = t - last
        if elapsed > 0:
            tc += elapsed * cir
            tp += elapsed * pir
            tc = tc if tc < cbs else cbs  # min(cbs, tc) without a call
            tp = tp if tp < pbs else pbs
            last = t
        if tp < size:
            mark(2)  # red
        elif tc < size:
            tp -= size
            mark(1)  # yellow
        else:
            tc -= size
            tp -= size
            mark(0)  # green
    return colors


def _serve(batch: PacketBatch, pkt_q: np.ndarray, passed: np.ndarray,
           policies: list[QueuePolicy]) -> tuple[np.ndarray, list[int]]:
    """Enqueue the ``passed`` packets in arrival order into queue ``pkt_q``
    (an index into ``policies``) and serve them on one non-preemptive port.

    Returns each packet's departure time (-1 when not delivered) and the
    indices of the overflow drops, ascending. Tie rule: of the packets
    arriving at time t, those up to and including the first one enqueued
    are handled before a service that starts at t; the rest after it.
    """
    # transmission times: max(1, ceil(bytes * ns_per_byte))
    ns_per_byte = np.array([8 * NS_PER_S / pol.service_rate_bps for pol in policies])
    tx = batch.bytes * ns_per_byte[pkt_q]
    np.ceil(tx, out=tx)
    tx = np.maximum(tx, 1, out=tx).astype(np.int64)

    tiers: dict[int, list[int]] = {}
    for j, pol in enumerate(policies):
        tiers.setdefault(pol.tier, []).append(j)
    order = sorted(tiers)
    rings = [tiers[t] for t in order]  # strict priority: rings[0] first
    tier_of = [order.index(pol.tier) for pol in policies]
    queues = [deque() for _ in policies]
    # DRR only decides between the queues of one tier: a one-queue tier
    # serves its head whatever its deficit, so it keeps none
    solo = [queues[ring[0]] if len(ring) == 1 else None for ring in rings]
    ring_pos = [0] * len(rings)
    granted = [False] * len(rings)
    pending = [0] * len(rings)  # queued packets per tier
    deficit = [0] * len(policies)
    quantum = [pol.weight * _DRR_QUANTUM_BYTES for pol in policies]
    buffers = [pol.buffer_pkts for pol in policies]

    n = len(batch)
    depart = np.full(n, -1, dtype=np.int64)
    # the passed packets, then index n: an arrival after every departure,
    # which drains the queues and is not enqueued
    keep = np.flatnonzero(np.append(passed, True))
    keep_t = np.full(len(keep), np.iinfo(np.int64).max)
    np.take(batch.arrival_ns, keep[:-1], out=keep_t[:-1])
    # per-packet reads and writes go through memoryviews, which yield and take
    # Python ints where numpy indexing would build a scalar object each time
    sizes_v, tx_v, q_v, depart_v = map(memoryview, (batch.bytes, tx, pkt_q, depart))
    overflow: list[int] = []

    free_at = 0
    backlog = 0
    start_now = False  # a service starts at free_at before the next arrival
    for i, t in zip(memoryview(keep), memoryview(keep_t)):
        while start_now or (backlog and free_at < t):
            start_now = False
            backlog -= 1
            ti = 0
            while not pending[ti]:
                ti += 1
            pending[ti] -= 1
            queue = solo[ti]
            if queue is None:
                ring = rings[ti]
                pos = ring_pos[ti]
                while True:
                    q = ring[pos]
                    queue = queues[q]
                    if queue:
                        if not granted[ti]:
                            deficit[q] += quantum[q]
                            granted[ti] = True
                        need = sizes_v[queue[0]]
                        if deficit[q] >= need:
                            deficit[q] -= need
                            ring_pos[ti] = pos
                            break
                    else:
                        deficit[q] = 0
                    granted[ti] = False
                    pos = (pos + 1) % len(ring)
            head = queue.popleft()
            free_at += tx_v[head]
            depart_v[head] = free_at
        if i == n:
            break
        q = q_v[i]
        queue = queues[q]
        if len(queue) >= buffers[q]:
            overflow.append(i)
            continue
        queue.append(i)
        backlog += 1
        pending[tier_of[q]] += 1
        if free_at <= t:
            free_at = t
            start_now = True
    return depart, overflow


def simulate(spec: ScenarioSpec) -> tuple[PacketBatch, PacketBatch, list[GroundTruthLabel]]:
    """generate -> inject -> queues -> labels, all from one seed."""
    arrivals = inject_all(generate_traffic(spec), spec)
    delivered, drops = run_queues(arrivals, spec)
    return delivered, drops, label_windows(spec)
