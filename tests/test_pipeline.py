"""Each telemetry mode observes the egress stream and nothing else, so a run
with one mode reproduces that mode's share of the all-mode run. `flowtel
sweep` relies on it when it runs each mode once per setting it reads."""

from pathlib import Path

import pytest

from flowtel.baselines import TelemetryMode
from flowtel.cli import load_scenario
from flowtel.pipeline import ALL_MODES, run_telemetry
from flowtel.simulator import simulate


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
        assert alone.outcomes == {k: v for k, v in every.outcomes.items() if k[1] == mode.value}
        assert alone.metrics == [m for m in every.metrics if m.mode == mode.value]
