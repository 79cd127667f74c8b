"""Every PacketBatch column keeps its one declared type (``COLUMN_DTYPES``)
through every stage; a value a narrow type cannot hold exits 2 naming its
field instead of wrapping; and a sum of a narrow column is taken in int64."""

import json

import numpy as np
import pytest

from flowtel.baselines import TelemetryMode
from flowtel.cli import dump_capture, load_capture, main
from flowtel.core import MAX_QFI, MAX_TEID, FlowKey
from flowtel.pipeline import TelemetryConfig, run_scenario, window_stream
from flowtel.simulator import (
    COLUMN_DTYPES,
    MAX_BYTES,
    MAX_QID,
    AnomalyEvent,
    AnomalyKind,
    FlowSpec,
    MeterSpec,
    QueuePolicy,
    ScenarioSpec,
    TrafficPattern,
    generate_traffic,
    inject_all,
    run_queues,
)

A, B, C = FlowKey(7, 1), FlowKey(MAX_TEID, 2), FlowKey(3, MAX_QFI)
# every column's type reached at its upper end, all four anomaly kinds, and
# both kinds of drop: overflow in qid 0's 20-packet buffer, red for flow C
SPEC = ScenarioSpec(
    duration_s=2.0,
    seed=4,
    flows=(
        FlowSpec(A, TrafficPattern.POISSON, 2000.0, 60, 1500),
        FlowSpec(B, TrafficPattern.CBR, 100.0, MAX_BYTES, MAX_BYTES, monitored=False),
        FlowSpec(C, TrafficPattern.POISSON, 500.0, 400, 400),
    ),
    qfi_to_qid={1: 0, 2: MAX_QID, MAX_QFI: MAX_QID},
    queue_policy={
        0: QueuePolicy(tier=0, service_rate_bps=50e6, buffer_pkts=20),
        MAX_QID: QueuePolicy(tier=1, service_rate_bps=100e6),
    },
    meters={C: MeterSpec(cir_bps=0.5e6, cbs_bytes=2000, pir_bps=1e6, pbs_bytes=3000)},
    anomalies=(
        AnomalyEvent(AnomalyKind.MICROBURST, 0.5, 0.2, target_flows=(A,), burst_factor=8.0),
        AnomalyEvent(AnomalyKind.CONGESTION, 1.0, 0.3, target_qfis=(MAX_QFI,)),
        AnomalyEvent(AnomalyKind.CONTENTION, 1.2, 0.3, target_qfis=(1,), cross_rate_pps=2000.0),
        AnomalyEvent(AnomalyKind.POLICY_ABUSE, 1.5, 0.2, target_flows=(A,),
                     remapped_qfi=MAX_QFI),
    ),
)

ARRIVAL = ("teid", "qfi", "bytes", "arrival_ns", "monitored", "injected")
DELIVERED = (*ARRIVAL, "qid", "sojourn_ns", "color")
DROPPED = ("teid", "qfi", "bytes", "arrival_ns", "monitored", "qid", "reason")
# a capture holds no injection, and its drops carry the file's 0 sojourn and color
CAPTURED = ("teid", "qfi", "qid", "bytes", "arrival_ns", "sojourn_ns", "color", "monitored")


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """Each stage's batch and the columns it must have set."""
    base = generate_traffic(SPEC)
    arrivals = inject_all(base, SPEC)
    delivered, drops = run_queues(arrivals, SPEC)
    stream = window_stream(delivered, SPEC.window_len_ns, SPEC.duration_s)
    cap = tmp_path_factory.mktemp("capture") / "capture.txt"
    dump_capture(delivered, drops, cap)
    loaded, loaded_drops = load_capture(cap)
    return {
        "generate_traffic": (base, ARRIVAL),
        "inject_all": (arrivals, ARRIVAL),
        "run_queues.delivered": (delivered, DELIVERED),
        "run_queues.drops": (drops, DROPPED),
        "window_stream": (stream, DELIVERED[:5] + DELIVERED[6:]),
        "load_capture.delivered": (loaded, CAPTURED),
        "load_capture.drops": (loaded_drops, (*CAPTURED, "reason")),
    }


STAGES = ["generate_traffic", "inject_all", "run_queues.delivered", "run_queues.drops",
          "window_stream", "load_capture.delivered", "load_capture.drops"]


@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_keeps_the_declared_column_types(stages, stage):
    batch, names = stages[stage]
    cols = {name: col for name, col in batch.columns().items() if name != "window"}
    assert sorted(cols) == sorted(names)
    assert len(batch) > 0
    for name, col in cols.items():
        assert col.dtype == COLUMN_DTYPES[name], name


def test_the_fixture_reaches_each_narrow_type_and_the_capture_keeps_it(stages):
    delivered, drops = stages["run_queues.delivered"][0], stages["run_queues.drops"][0]
    assert delivered.teid.max() == MAX_TEID and delivered.qfi.max() == MAX_QFI
    assert delivered.qid.max() == MAX_QID and delivered.bytes.max() == MAX_BYTES
    assert delivered.injected.any() and (delivered.teid >= 0xFF000000).any()  # cross traffic
    assert sorted(set(drops.reason.tolist())) == [0, 1]
    loaded, loaded_drops = stages["load_capture.delivered"][0], stages["load_capture.drops"][0]
    for name in CAPTURED:
        assert np.array_equal(getattr(loaded, name), getattr(delivered, name)), name
    for name in ("teid", "qfi", "qid", "arrival_ns", "monitored", "reason"):
        assert np.array_equal(getattr(loaded_drops, name), getattr(drops, name)), name


MINIMAL = {
    "duration_s": 2.0,
    "flows": [{"teid": 1, "qfi": 1, "pattern": "cbr", "rate_pps": 100, "bytes_min": 400}],
    "qfi_to_qid": {"1": 0},
    "queue_policy": {"0": {"tier": 0, "service_rate_bps": 20e6}},
}
CONTENTION = {"kind": "contention", "start_s": 0.5, "duration_s": 0.5,
              "target_qfis": [1], "cross_rate_pps": 100}


def _set(doc: dict, edit: str, value) -> None:
    if edit == "bytes_max":
        doc["flows"][0]["bytes_max"] = value
    elif edit == "cross_bytes":
        doc["anomalies"] = [dict(CONTENTION, cross_bytes=value)]
    else:  # a queue with that qid, which qfi 1 maps to
        doc["qfi_to_qid"] = {"1": value}
        doc["queue_policy"] = {str(value): MINIMAL["queue_policy"]["0"]}


@pytest.mark.parametrize("edit, value, named", [
    ("bytes_max", MAX_BYTES + 1, "flows[0].bytes_max"),
    ("cross_bytes", MAX_BYTES + 1, "anomalies[0].cross_bytes"),
    ("cross_bytes", -1, "anomalies[0].cross_bytes"),
    ("qid", MAX_QID + 1, f"queue_policy: qid {MAX_QID + 1}"),
    ("qid", -1, "queue_policy: qid -1"),
])
def test_a_scenario_value_no_column_type_holds_exits_2_naming_it(tmp_path, capsys, edit, value,
                                                                 named):
    doc = json.loads(json.dumps(MINIMAL))
    _set(doc, edit, MAX_QID if edit == "qid" else MAX_BYTES)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    # the largest value the type holds simulates
    assert main(["capture", "--scenario", str(scenario), "--out", str(tmp_path / "cap")]) == 0
    capsys.readouterr()
    _set(doc, edit, value)
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # refused before simulating


@pytest.mark.parametrize("column, value", [
    ("teid", MAX_TEID + 1), ("teid", -1), ("qfi", 256), ("qid", 256), ("qid", -1),
    ("bytes", MAX_BYTES + 1), ("bytes", -1), ("color", 128), ("monitored", 2),
    ("monitored", -1), ("drop_reason", 128),
])
def test_a_capture_value_outside_its_column_type_exits_2_naming_the_column(
    tmp_path, capsys, column, value
):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL))
    row = {"teid": 1, "qfi": 1, "qid": 0, "bytes": 400, "arrival_ns": 1000, "sojourn_ns": 2000,
           "color": 0, "monitored": 1, "drop_reason": -1}
    cap = tmp_path / "capture.txt"
    cap.write_text(" ".join(str(v) for v in {**row, column: value}.values()) + "\n")
    assert main(["replay", "--scenario", str(scenario), "--capture", str(cap),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"capture file {cap}: {column}: {value} outside" in capsys.readouterr().err


def test_narrow_columns_are_summed_without_wrapping():
    """65,535-byte packets of one flow: a window's byte sum passes 2**16 in
    every mode, and each sum must be the exact pkts * 65,535."""
    key = FlowKey(1, 1)
    spec = ScenarioSpec(
        duration_s=3.0, seed=3,
        # ~105 Mb/s into a 200 Mb/s queue: sojourns vary, so DSMP exports often
        flows=(FlowSpec(key, TrafficPattern.POISSON, 200.0, MAX_BYTES, MAX_BYTES),),
        qfi_to_qid={1: 0},
        queue_policy={0: QueuePolicy(tier=0, service_rate_bps=200e6)},
    )
    cfg = TelemetryConfig(width=64, depth=2, fit_windows=1, n_blocks=2, dsmp_delta_ns=1)
    result = run_scenario(spec, cfg)
    for mode in (TelemetryMode.PM, TelemetryMode.SKETCH, TelemetryMode.DSMP):
        table = result.modes[mode].features
        assert len(table) == 3 and table.bytes.min() > 2**16, mode  # two packets or more
        assert table.bytes.tolist() == [p * MAX_BYTES for p in table.pkts.tolist()], mode
    pm = [line.split() for line in result.modes[TelemetryMode.PM].record_lines]
    assert [int(f[4]) for f in pm] == [int(f[3]) * MAX_BYTES for f in pm]
