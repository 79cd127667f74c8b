"""Scenario presets at desk scale.

Five anomaly scenarios mirror the evaluation matrix (single-kind scenarios
plus a mixed one), with two focused presets for cost accounting and smoke
tests. Traffic shapes follow the application mix the queues are built for:
constant-rate VoIP/IoT, on-off streaming and gaming, memoryless best effort.
Rates, durations, and anomaly magnitudes are scaled so a preset simulates in
seconds while keeping every anomaly's qualitative signature intact.
"""

from __future__ import annotations

from .core import FlowKey
from .pipeline import TelemetryConfig
from .simulator import (
    AnomalyEvent,
    AnomalyKind,
    FlowSpec,
    MeterSpec,
    QueuePolicy,
    ScenarioSpec,
    TrafficPattern,
)

# QFI plan: 1 gaming (priority), 2-3 streaming, 4 IoT/VoIP, 5 best effort,
# 7 premium (policy-abuse destination)
FABRIC_QFI_TO_QID = {1: 0, 2: 1, 3: 1, 4: 2, 5: 3, 7: 0}

FABRIC_QUEUES = {
    0: QueuePolicy(tier=0, weight=1, service_rate_bps=100e6, buffer_pkts=16000),
    1: QueuePolicy(tier=1, weight=2, service_rate_bps=100e6, buffer_pkts=16000),
    2: QueuePolicy(tier=1, weight=1, service_rate_bps=100e6, buffer_pkts=8000),
    3: QueuePolicy(tier=2, weight=1, service_rate_bps=100e6, buffer_pkts=16000),
}


def _fabric_flows(
    gaming: int = 10,
    streaming: int = 6,
    iot: int = 4,
    best_effort: int = 5,
    bulk: int = 2,
    gaming_pps: float = 400.0,
    streaming_pps: float = 500.0,
    iot_pps: float = 300.0,
    be_pps: float = 400.0,
    bulk_pps: float = 800.0,
) -> list[FlowSpec]:
    """Application mix with deliberately spiky baselines: on-off peaks from
    gaming, streaming, and bulk transfers regularly push the port near
    saturation, so per-window averages are noisy even when nothing is wrong."""
    flows: list[FlowSpec] = []
    for i in range(gaming):
        flows.append(
            FlowSpec(FlowKey(100 + i, 1), TrafficPattern.ONOFF, gaming_pps, 250, 450,
                     on_fraction=0.25, cycle_ms=700.0)
        )
    for i in range(streaming):
        qfi = 2 if i % 2 == 0 else 3
        flows.append(
            FlowSpec(FlowKey(200 + i, qfi), TrafficPattern.ONOFF, streaming_pps, 700, 1300,
                     on_fraction=0.4, cycle_ms=900.0)
        )
    for i in range(iot):
        flows.append(FlowSpec(FlowKey(300 + i, 4), TrafficPattern.CBR, iot_pps, 128, 256))
    for i in range(best_effort):
        flows.append(FlowSpec(FlowKey(400 + i, 5), TrafficPattern.POISSON, be_pps, 400, 800))
    for i in range(bulk):
        flows.append(
            FlowSpec(FlowKey(450 + i, 5), TrafficPattern.ONOFF, bulk_pps, 1000, 1400,
                     on_fraction=0.25, cycle_ms=2500.0)
        )
    return flows


def smoke(seed: int = 1) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Minimal single-flow scenario for CLI smoke tests."""
    key = FlowKey(1, 1)
    spec = ScenarioSpec(
        duration_s=6.0,
        seed=seed,
        flows=(FlowSpec(key, TrafficPattern.POISSON, 2000.0, 300, 600),),
        qfi_to_qid={1: 0},
        queue_policy={0: QueuePolicy(tier=0, weight=1, service_rate_bps=20e6, buffer_pkts=4000)},
        anomalies=(
            AnomalyEvent(AnomalyKind.MICROBURST, start_s=2.1, duration_s=0.3,
                         target_flows=(key,), burst_factor=8.0),
            AnomalyEvent(AnomalyKind.MICROBURST, start_s=4.2, duration_s=0.3,
                         target_flows=(key,), burst_factor=8.0),
        ),
    )
    cfg = TelemetryConfig(width=64, depth=2, fit_windows=2, n_blocks=2)
    return spec, cfg


# the fabric presets' anomalies, one factory per kind, shared by ``mixed``
BURST_TARGET = FlowKey(500, 2)
ABUSER = FlowKey(700, 5)
# CIR/PIR sized at half the abuser's offered rate: ~50% red under
# its own class, full delivery once remapped
ABUSER_METERS = {ABUSER: MeterSpec(cir_bps=4.8e6, cbs_bytes=30_000,
                                   pir_bps=9.6e6, pbs_bytes=60_000)}


def _burst(s: float) -> AnomalyEvent:
    return AnomalyEvent(AnomalyKind.MICROBURST, start_s=s, duration_s=0.05,
                        target_flows=(BURST_TARGET,), burst_factor=6.0)


def _congestion(s: float, d: float) -> AnomalyEvent:
    return AnomalyEvent(AnomalyKind.CONGESTION, start_s=s, duration_s=d,
                        target_qfis=(2, 3), overload_factor=2.2)


def _contention(s: float, d: float) -> AnomalyEvent:
    # cross traffic enters through the priority class, so the whole port
    # oscillates; labels cover every class that shares it
    return AnomalyEvent(AnomalyKind.CONTENTION, start_s=s, duration_s=d,
                        target_qfis=(1, 2, 3, 4, 5), cross_qfis=(1,),
                        cross_rate_pps=5_600.0, cross_bytes=1100,
                        cross_period_ms=10.0)


def _abuse(s: float, d: float) -> AnomalyEvent:
    return AnomalyEvent(AnomalyKind.POLICY_ABUSE, start_s=s, duration_s=d,
                        target_flows=(ABUSER,), remapped_qfi=7)


def _fabric(seed: int, duration_s: float, flows: list[FlowSpec], anomalies,
            meters: dict[FlowKey, MeterSpec] | None = None) -> tuple[ScenarioSpec, TelemetryConfig]:
    """A preset on the four-queue fabric, with the default telemetry config."""
    spec = ScenarioSpec(
        duration_s=duration_s,
        seed=seed,
        flows=tuple(flows),
        qfi_to_qid=FABRIC_QFI_TO_QID,
        queue_policy=FABRIC_QUEUES,
        meters=meters or {},
        anomalies=tuple(anomalies),
    )
    return spec, TelemetryConfig()


def microburst(seed: int = 11, duration_s: float = 120.0) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Scenario 1: short high-rate bursts on one tunnel.

    The burst driver is a 10 kpps CBR flow; a 6x burst adds 50 kpps, so the
    50 ms preset injects 2500 extra packets into a queue sized to overload
    during the burst (latency spikes into the tail, spacing collapses into
    the IAT head).
    """
    # keep the port comfortably below saturation in baseline so the burst's
    # own latency spike stands alone (mean load ~80 Mbps of 100)
    flows = _fabric_flows(streaming=3, best_effort=4, bulk=1) + [
        FlowSpec(BURST_TARGET, TrafficPattern.CBR, 10_000.0, 300, 300),
    ]
    # the burst class carries enough steady tunnels that 2500 extra packets
    # move its one-second average by well under 10%
    for i in range(9):
        flows.append(FlowSpec(FlowKey(600 + i, 2), TrafficPattern.CBR, 1700.0, 120, 120))
    starts = [10.3, 25.6, 40.2, 55.7, 70.4, 85.1, 100.9, 112.5]
    return _fabric(seed, duration_s, flows, (_burst(s) for s in starts if s + 1 < duration_s))


def congestion(seed: int = 22, duration_s: float = 180.0) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Scenario 2: sustained overload of the streaming class."""
    spans = ((20.0, 10.0), (60.0, 12.0), (105.0, 9.0), (150.0, 11.0))
    return _fabric(seed, duration_s, _fabric_flows(streaming=8),
                   (_congestion(s, d) for s, d in spans if s + d < duration_s))


def contention(seed: int = 33, duration_s: float = 180.0) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Scenario 3: unmonitored cross traffic seizing the priority queue on a
    square wave, distorting service for everything below."""
    spans = ((20.0, 12.0), (62.0, 14.0), (104.0, 10.0), (148.0, 13.0))
    return _fabric(seed, duration_s, _fabric_flows(),
                   (_contention(s, d) for s, d in spans if s + d < duration_s))


def policy_abuse(seed: int = 44, duration_s: float = 180.0) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Scenario 4: a policed best-effort tunnel remaps itself into the
    premium class, escaping its meter and pressuring the priority queue."""
    # the premium class carries enough tunnels that one abuser's move barely
    # shifts the class aggregate while its own delivered rate doubles
    flows = _fabric_flows(gaming_pps=1200.0) + [
        FlowSpec(ABUSER, TrafficPattern.CBR, 4000.0, 600, 600),
    ]
    spans = ((20.0, 15.0), (65.0, 18.0), (110.0, 20.0), (152.0, 16.0))
    return _fabric(seed, duration_s, flows,
                   (_abuse(s, d) for s, d in spans if s + d < duration_s), ABUSER_METERS)


def mixed(seed: int = 55, duration_s: float = 240.0) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Scenario 5: all four anomaly kinds staggered, some overlapping."""
    flows = _fabric_flows() + [
        FlowSpec(BURST_TARGET, TrafficPattern.CBR, 10_000.0, 500, 500),
        FlowSpec(ABUSER, TrafficPattern.CBR, 4000.0, 600, 600),
    ]
    # each kind hits every quarter of the run so no cross-fit fold goes
    # single-class; congestion/contention overlap in the 170s stretch
    anomalies = (
        _burst(15.3), _burst(28.7), _burst(90.6), _burst(112.4),
        _burst(150.2), _burst(166.8), _burst(201.5), _burst(228.4),
        _congestion(35.0, 10.0), _congestion(75.0, 8.0),
        _congestion(170.0, 12.0), _congestion(212.0, 10.0),
        _contention(55.0, 8.0), _contention(100.0, 10.0),
        _contention(175.0, 10.0), _contention(225.0, 8.0),
        _abuse(8.0, 10.0), _abuse(62.0, 12.0), _abuse(125.0, 15.0), _abuse(185.0, 12.0),
    )
    return _fabric(seed, duration_s, flows, anomalies, ABUSER_METERS)


def burst_cost(seed: int = 66) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Cost-accounting preset: quiet early windows, then alternating
    burst/drain windows that multiply the observed packet rate tenfold.

    Many slow constant-rate flows ride two queues; burst drivers overload
    each queue during burst windows so every slow flow's latency ramps and
    the change-triggered sampler exports near line rate, while the sketch
    export stays frozen at its configured size.
    """
    flows: list[FlowSpec] = []
    for i in range(34):
        flows.append(FlowSpec(FlowKey(1000 + i, 1), TrafficPattern.CBR, 50.0, 200, 200))
    for i in range(12):
        flows.append(FlowSpec(FlowKey(2000 + i, 2), TrafficPattern.CBR, 50.0, 200, 200))
    driver_a = FlowKey(3000, 1)
    driver_b = FlowKey(3001, 2)
    flows.append(FlowSpec(driver_a, TrafficPattern.CBR, 50.0, 200, 200))
    flows.append(FlowSpec(driver_b, TrafficPattern.CBR, 50.0, 200, 200))
    # the port moves 25 kpps at 200 B; bursts offer ~1.6x that, so latency
    # ramps through each burst window and drains in the window after
    anomalies = [
        AnomalyEvent(AnomalyKind.MICROBURST, start_s=float(w), duration_s=1.0,
                     target_flows=(driver,), burst_factor=365.0)
        for w in (3, 5, 7, 9) for driver in (driver_a, driver_b)
    ]
    spec = ScenarioSpec(
        duration_s=11.0,
        seed=seed,
        flows=tuple(flows),
        qfi_to_qid={1: 0, 2: 1},
        queue_policy={
            0: QueuePolicy(tier=0, weight=1, service_rate_bps=40e6, buffer_pkts=30000),
            1: QueuePolicy(tier=0, weight=1, service_rate_bps=40e6, buffer_pkts=30000),
        },
        anomalies=tuple(anomalies),
    )
    cfg = TelemetryConfig(width=128, depth=3, fit_windows=2, dsmp_delta_ns=10_000, n_blocks=2)
    return spec, cfg


PRESETS = {
    "smoke": smoke,
    "microburst": microburst,
    "congestion": congestion,
    "contention": contention,
    "policy_abuse": policy_abuse,
    "mixed": mixed,
    "burst_cost": burst_cost,
}


def build(name: str, seed: int | None = None) -> tuple[ScenarioSpec, TelemetryConfig]:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    if seed is None:
        return PRESETS[name]()
    return PRESETS[name](seed=seed)
