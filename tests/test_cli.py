import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowtel
from flowtel.cli import main, scenario_from_dict
from flowtel.simulator import ScenarioError

MINIMAL_SCENARIO = {
    "duration_s": 6.0,
    "seed": 5,
    "flows": [
        {"teid": 1, "qfi": 1, "pattern": "poisson", "rate_pps": 1500, "bytes_min": 300,
         "bytes_max": 700},
    ],
    "qfi_to_qid": {"1": 0},
    "queue_policy": {"0": {"tier": 0, "weight": 1, "service_rate_bps": 20e6,
                           "buffer_pkts": 4000}},
    "anomalies": [
        {"kind": "microburst", "start_s": 2.1, "duration_s": 0.3,
         "target_flows": [{"teid": 1, "qfi": 1}], "burst_factor": 8.0},
        {"kind": "microburst", "start_s": 4.2, "duration_s": 0.3,
         "target_flows": [{"teid": 1, "qfi": 1}], "burst_factor": 8.0},
    ],
    "telemetry": {"width": 64, "depth": 2, "fit_windows": 2, "n_blocks": 2},
}

EXPECTED_FILES = ["features.txt", "labels.txt", "manifest.json", "metrics.txt",
                  "outcomes.txt", "records.bin", "records.txt"]


def tree_hash(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def test_run_smoke_emits_all_artifacts(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == EXPECTED_FILES
    text = capsys.readouterr().out
    assert "microburst" in text and "cost sketch" in text
    # manifest carries enough to replay the run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5 and manifest["command"] == "run"
    assert manifest["scenario"] == {
        "file": str(scenario), "sha": hashlib.sha256(scenario.read_bytes()).hexdigest()}


def test_run_twice_byte_identical(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scenario), "--out", str(out1)]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(out2)]) == 0
    h1, h2 = tree_hash(out1), tree_hash(out2)
    h1.pop("manifest.json")  # embeds the differing --out path
    h2.pop("manifest.json")
    assert h1 == h2


def test_invalid_scenario_exits_2_with_field_diagnostic(tmp_path, capsys):
    doc = dict(MINIMAL_SCENARIO)
    doc["qfi_to_qid"] = {"1": 9}  # unmapped queue
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "qfi_to_qid" in capsys.readouterr().err


def test_weight_zero_queue_exits_2_naming_the_queue(tmp_path, capsys):
    # queue 1 shares tier 0 with a weighted queue; the scheduler never serves it
    doc = dict(MINIMAL_SCENARIO)
    doc["flows"] = MINIMAL_SCENARIO["flows"] + [
        {"teid": 2, "qfi": 2, "pattern": "poisson", "rate_pps": 500, "bytes_min": 300,
         "bytes_max": 700},
    ]
    doc["qfi_to_qid"] = {"1": 0, "2": 1}
    doc["queue_policy"] = {
        "0": {"tier": 0, "weight": 1, "service_rate_bps": 20e6, "buffer_pkts": 4000},
        "1": {"tier": 0, "weight": 0, "service_rate_bps": 20e6, "buffer_pkts": 4000},
    }
    scenario = tmp_path / "weight0.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "queue_policy: qid 1" in capsys.readouterr().err


def test_malformed_scenario_json_exits_2_naming_the_file(tmp_path, capsys):
    scenario = tmp_path / "broken.json"
    scenario.write_text('{"duration_s": 6.0, "seed": ')
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "broken.json" in err and "malformed JSON" in err


# one value per range check a scenario file can fail, by the key that holds it
INVALID_VALUES = [
    (("window_len_ns",), 0), (("window_len_ns",), -5), (("seed",), -1),
    (("telemetry", "width"), 1), (("telemetry", "depth"), 0), (("telemetry", "bins_b"), 1),
    (("telemetry", "rho"), 0.7), (("telemetry", "dsmp_delta_ns"), 0),
    (("telemetry", "fit_sample_size"), 0),
    (("telemetry", "lat_tail_bins"), 0), (("telemetry", "lat_tail_bins"), 8),
    (("telemetry", "iat_head_bins"), 0), (("telemetry", "iat_head_bins"), 8),
    (("telemetry", "n_blocks"), 0), (("telemetry", "n_blocks"), 1),
]


@pytest.mark.parametrize("keys, value", INVALID_VALUES,
                         ids=[f"{k[-1]}={v}" for k, v in INVALID_VALUES])
def test_invalid_scenario_value_exits_2_naming_the_key(tmp_path, capsys, keys, value):
    doc = json.loads(json.dumps(MINIMAL_SCENARIO))
    obj = doc
    for k in keys[:-1]:
        obj = obj[k]
    obj[keys[-1]] = value
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert keys[-1] in err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required flags
    assert exc.value.code == 1


def test_unknown_preset_exits_2(tmp_path):
    rc = main(["run", "--scenario", "nope.json", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_size_subcommand_paper_parameters(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({
        "beta_max": 0.3, "delta_t_min": 80, "n_t_max": 10000, "zeta": 0.05,
        "k_bins": 3, "rho": 0.01, "rho_drift": 0.02,
        "flow_classes": {"small": {"x_k": 5000, "x_k_T": 50, "n_prime": 1000000}},
    }))
    rc = main(["size", "--params", str(params)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "required width  : 486" in text
    assert "practical width : 512" in text
    assert "required depth  : 5" in text
    assert "needs width 972" in text  # drift doubling
    assert "depth 3 at K=3" in text  # the union-bound caveat is spelled out


def test_size_k3_zeta005_depth5(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"beta_max": 0.3, "delta_t_min": 80, "n_t_max": 1e4,
                                  "zeta": 0.05, "k_bins": 3}))
    main(["size", "--params", str(params)])
    assert "required depth  : 5" in capsys.readouterr().out


def test_sweep_grid_cardinality_and_cost_monotonicity(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"width": [64, 128, 256], "depth": [2, 3]}))
    rc = main(["sweep", "--scenario", str(scenario), "--grid", str(grid)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    sketch_rows = [l.split() for l in lines if l.startswith("sketch")]
    assert len(sketch_rows) == 6  # 3 widths x 2 depths
    assert len(lines) == 18  # three modes per configuration
    # sketch export bytes strictly increase with width*depth
    cells = {(int(r[1]), int(r[2])): float(r[5]) for r in sketch_rows}
    assert cells[(128, 2)] > cells[(64, 2)]
    assert cells[(256, 3)] > cells[(256, 2)] > cells[(128, 2)]


@pytest.mark.parametrize("axis, values, shown", [
    ("dsmp_delta_ns", [0], "dsmp_delta_ns = 0"), ("width", [1], "width = 1"),
    ("rho", ["x"], "rho[0]: could not convert string to float: 'x'"),
    ("depth", 3, "depth: expected a list"),
], ids=["dsmp_delta_ns", "width", "rho", "depth"])
def test_bad_sweep_grid_value_exits_2_before_simulating(tmp_path, capsys, monkeypatch,
                                                        axis, values, shown):
    from flowtel import cli

    def no_simulation(spec):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"width": [64, 128], axis: values}))
    assert main(["sweep", "--scenario", str(scenario), "--grid", str(grid)]) == 2
    assert f"grid file {grid}: {shown}" in capsys.readouterr().err


def test_sweep_jobs_keep_pinned_edges(tmp_path, monkeypatch):
    from flowtel import cli

    pinned = [float(v) for v in range(100, 100 + 63 * 7, 63)]
    doc = dict(MINIMAL_SCENARIO)
    doc["telemetry"] = dict(doc["telemetry"], lat_edges_ns={"0": pinned},
                            iat_edges_ns={"0": pinned})
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"width": [64, 128], "rho": [0.01, 0.05]}))
    cfgs = []

    def job(j):
        cfgs.append(j[-1])
        return {m: 1 for m in ("sketch", "dsmp", "pm")}, {m: None for m in ("sketch", "dsmp", "pm")}

    monkeypatch.setattr(cli, "_sweep_job", job)
    assert main(["sweep", "--scenario", str(scenario), "--grid", str(grid)]) == 0
    assert [(c.width, c.rho) for c in cfgs] == [(64, 0.01), (64, 0.05), (128, 0.01), (128, 0.05)]
    for c in cfgs:
        assert c.explicit_lat_edges == c.explicit_iat_edges == ((0, tuple(pinned)),)


def test_missing_or_malformed_grid_file_exits_2_naming_it(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    (tmp_path / "broken.json").write_text('{"width": [64,')
    (tmp_path / "list.json").write_text("[64, 128]")
    for name in ("absent.json", "broken.json", "list.json"):
        grid = tmp_path / name
        assert main(["sweep", "--scenario", str(scenario), "--grid", str(grid)]) == 2
        assert f"grid file {grid}" in capsys.readouterr().err


def test_missing_or_malformed_params_file_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "broken.json").write_text('{"beta_max": ')
    (tmp_path / "classes.json").write_text(json.dumps(
        {"beta_max": 0.3, "delta_t_min": 80, "n_t_max": 1e4, "flow_classes": ["small"]}))
    for name in ("absent.json", "broken.json", "classes.json"):
        params = tmp_path / name
        assert main(["size", "--params", str(params)]) == 2
        assert f"params file {params}" in capsys.readouterr().err


def test_missing_or_malformed_capture_file_exits_2_naming_it(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    row = "1 1 0 400 1000 20000 0 1"
    (tmp_path / "text.txt").write_text(f"{row}\n1 1 0 400 x1000 20000 0 1\n")
    (tmp_path / "short.txt").write_text(f"{row}\n1 1 0 400\n")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00")
    for name in ("absent.txt", "text.txt", "short.txt", "binary.txt"):
        cap = tmp_path / name
        rc = main(["replay", "--scenario", str(scenario), "--capture", str(cap),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"capture file {cap}" in capsys.readouterr().err


def test_capture_replay_roundtrip(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    cap = tmp_path / "capture.txt"
    assert main(["capture", "--scenario", str(scenario), "--out", str(cap)]) == 0
    out1 = tmp_path / "direct"
    out2 = tmp_path / "replayed"
    assert main(["run", "--scenario", str(scenario), "--out", str(out1)]) == 0
    assert main(["replay", "--scenario", str(scenario), "--capture", str(cap),
                 "--out", str(out2)]) == 0
    # telemetry over the replayed capture reproduces the direct run's records
    assert (out1 / "records.bin").read_bytes() == (out2 / "records.bin").read_bytes()
    assert (out1 / "features.txt").read_text() == (out2 / "features.txt").read_text()


def test_explicit_edges_override_fitting(tmp_path):
    from flowtel.pipeline import fit_qid_edges, window_stream
    from flowtel.simulator import simulate

    doc = dict(MINIMAL_SCENARIO)
    doc["telemetry"] = dict(doc["telemetry"])
    pinned = [float(v) for v in range(100, 100 + 63 * 7, 63)]
    doc["telemetry"]["lat_edges_ns"] = {"0": pinned}
    doc["telemetry"]["iat_edges_ns"] = {"0": pinned}
    doc["telemetry"]["width"] = 64
    doc["telemetry"]["bins_b"] = 8
    spec, cfg = scenario_from_dict(doc)
    delivered, _, _ = simulate(spec)
    stream = window_stream(delivered, spec.window_len_ns, spec.duration_s)
    lat, iat = fit_qid_edges(stream, spec, cfg)
    assert np.array_equal(lat[0], np.array(pinned))
    assert np.array_equal(iat[0], np.array(pinned))


def test_warmup_overlapping_anomaly_warns(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))  # first anomaly at 2.1 s, warmup 2 s
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == ""

    doc = dict(MINIMAL_SCENARIO)
    doc["anomalies"] = [dict(doc["anomalies"][0], start_s=1.5), doc["anomalies"][1]]
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "b")]) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert "anomaly 0 (microburst, start_s=1.5)" in line
    assert "telemetry.fit_windows=2" in line

    # every queue pinned: nothing is fitted, so nothing can be folded in
    pinned = [float(v) for v in range(100, 100 + 63 * 7, 63)]
    doc["telemetry"] = dict(doc["telemetry"], lat_edges_ns={"0": pinned},
                            iat_edges_ns={"0": pinned})
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().err == ""


def test_explicit_edges_of_the_wrong_count_exit_2_naming_the_field(tmp_path, capsys):
    doc = dict(MINIMAL_SCENARIO)
    doc["telemetry"] = dict(doc["telemetry"], lat_edges_ns={"0": [float(v) for v in range(1, 12)]})
    scenario = tmp_path / "edges.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(scenario), "--modes", "dsmp", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "lat_edges_ns: qid 0 needs bins_b - 1 = 7 edges, got 11" in capsys.readouterr().err


def test_window_count_follows_window_length():
    from flowtel.core import NS_PER_S
    from flowtel.pipeline import window_stream
    from flowtel.simulator import simulate

    spec, _ = scenario_from_dict(dict(MINIMAL_SCENARIO, window_len_ns=NS_PER_S // 2))
    delivered, _, _ = simulate(spec)
    stream = window_stream(delivered, spec.window_len_ns, spec.duration_s)
    assert stream.n_windows == 2 * 6
    # every packet that departs inside the 6 s run lands in a window
    assert len(stream.window) == int((delivered.depart_ns() < 6 * NS_PER_S).sum())
    assert stream.window.max() == stream.n_windows - 1


def test_window_stream_is_the_delivered_batch_in_egress_order():
    from dataclasses import fields

    from flowtel.pipeline import WindowStream, window_stream
    from flowtel.scenarios import build
    from flowtel.simulator import PacketBatch, simulate

    spec, _ = build("smoke")
    delivered, _, _ = simulate(spec)
    stream = window_stream(delivered, spec.window_len_ns, spec.duration_s)
    depart = delivered.depart_ns()
    order = np.argsort(depart, kind="stable")
    order = order[depart[order] < stream.n_windows * spec.window_len_ns]
    assert stream.n_windows == 6 and len(stream) == len(order) > 0
    for name, col in delivered.columns().items():
        if name != "injected":  # telemetry cannot see it
            assert np.array_equal(getattr(stream, name), col[order]), name
    assert stream.injected is None
    assert np.array_equal(stream.window, depart[order] // spec.window_len_ns)
    own = [f.name for f in fields(WindowStream) if f not in fields(PacketBatch)]
    assert own == ["window", "n_windows"]


def test_scenario_parser_catches_missing_fields():
    with pytest.raises(ScenarioError, match="scenario file"):
        scenario_from_dict({"duration_s": 1.0})
    doc = dict(MINIMAL_SCENARIO)
    doc["telemetry"] = {"strategy": "bogus"}
    with pytest.raises(ScenarioError, match="telemetry"):
        scenario_from_dict(doc)
    # a field without a dataclass default is required in the file too
    flow = {k: v for k, v in MINIMAL_SCENARIO["flows"][0].items() if k != "pattern"}
    with pytest.raises(ScenarioError, match=r"flows\[0\]\.pattern: required"):
        scenario_from_dict(dict(MINIMAL_SCENARIO, flows=[flow]))


def test_cli_entrypoint_runs_as_module():
    # the child imports the same flowtel as this process, installed or not
    path = [str(Path(flowtel.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "flowtel.cli", "size", "--params", "/nonexistent.json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 2  # an invalid input, not a crash
    assert "/nonexistent.json" in proc.stderr
