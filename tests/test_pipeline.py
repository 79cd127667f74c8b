"""Each telemetry mode observes the egress stream and nothing else, so a run
with one mode reproduces that mode's share of the all-mode run. `flowtel
sweep` relies on it when it runs each mode once per setting it reads."""

from dataclasses import replace
from pathlib import Path

import pytest

from flowtel.baselines import TelemetryMode
from flowtel.cli import load_scenario
from flowtel.pipeline import ALL_MODES, run_scenario, run_telemetry
from flowtel.core import FlowKey
from flowtel.scenarios import build
from flowtel.simulator import (
    AnomalyEvent,
    AnomalyKind,
    FlowSpec,
    QueuePolicy,
    ScenarioError,
    ScenarioSpec,
    TrafficPattern,
    simulate,
)


@pytest.mark.parametrize("scenario", ["smoke", str(Path(__file__).parent / "golden_drops.json")])
def test_one_mode_run_reproduces_the_all_mode_run(scenario):
    spec, cfg, _ = load_scenario(scenario, None)
    sim = simulate(spec)
    every = run_telemetry(*sim, spec, cfg)
    assert every.modes[TelemetryMode.SKETCH].record_chunks  # records.bin is compared below
    for mode in ALL_MODES:
        alone = run_telemetry(*sim, spec, cfg, modes=(mode,))
        one, ref = alone.modes[mode], every.modes[mode]
        assert one.features.dtype == ref.features.dtype
        assert one.features.tolist() == ref.features.tolist()  # scope holds objects
        assert one.record_lines == ref.record_lines
        assert one.record_chunks == ref.record_chunks
        assert one.bytes_per_window == ref.bytes_per_window
        want = {k: v for k, v in every.outcomes.items() if k[1] == mode.value}
        assert alone.outcomes.keys() == want.keys()
        for k, v in want.items():
            assert alone.outcomes[k].dtype == v.dtype
            assert alone.outcomes[k].tolist() == v.tolist()
        assert alone.metrics == [m for m in every.metrics if m.mode == mode.value]


@pytest.mark.parametrize("field, key", [("explicit_lat_edges", "lat_edges_ns"),
                                        ("explicit_iat_edges", "iat_edges_ns")])
def test_pinned_edges_for_a_qid_without_a_queue_raise_for_a_config_built_in_code(field, key):
    spec, cfg = build("smoke")
    pinned = replace(cfg, **{field: ((9, (1., 2., 3., 4., 5., 6., 7.)),)})
    with pytest.raises(ScenarioError, match=rf"telemetry\.{key}: qid 9 is not in queue_policy"):
        run_scenario(spec, pinned)


def remapped_flow_spec() -> ScenarioSpec:
    """Tunnel 1 moves from QFI 1 to QFI 2 for a while: DSMP then sees
    (1, 2), a flow no one registered, whose code sits between registered ones.
    QFI 2 has the lower queue, so queue order is not scope order."""
    flows = tuple(FlowSpec(FlowKey(teid, qfi), TrafficPattern.POISSON, 400.0)
                  for teid, qfi in ((1, 1), (2, 1), (2, 2), (3, 2)))
    return ScenarioSpec(
        duration_s=4.0, seed=3, flows=flows, qfi_to_qid={1: 1, 2: 0},
        queue_policy={q: QueuePolicy(tier=q, weight=1, service_rate_bps=50e6, buffer_pkts=500)
                      for q in (0, 1)},
        anomalies=(AnomalyEvent(AnomalyKind.POLICY_ABUSE, start_s=2.2, duration_s=0.6,
                                target_flows=(FlowKey(1, 1),), remapped_qfi=2),),
    )


@pytest.mark.parametrize("scenario", ["smoke", str(Path(__file__).parent / "golden_drops.json"),
                                      "remapped"])
def test_every_feature_table_is_in_window_scope_order(scenario):
    """Outcomes are written in feature-table order, so each mode's table must
    already hold its rows in (window, scope) order, each pair once."""
    if scenario == "remapped":
        spec, cfg = remapped_flow_spec(), build("smoke")[1]
    else:
        spec, cfg, _ = load_scenario(scenario, None)
    result = run_scenario(spec, cfg, collect_sketch_records=False)
    for mode, data in result.modes.items():
        table = data.features
        keys = list(zip(table.window.tolist(), table.scope.tolist()))
        assert keys and all(a < b for a, b in zip(keys, keys[1:])), mode
        for (kind, md), rows in result.outcomes.items():
            if md == mode.value:
                assert list(zip(rows.window.tolist(), rows.scope.tolist())) == keys, kind
    if scenario == "remapped":
        dsmp = result.modes[TelemetryMode.DSMP].features
        assert ("flow", 1, 2) in dsmp.scope[dsmp.unregistered].tolist()
