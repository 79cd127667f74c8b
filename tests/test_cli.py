import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flowtel
from flowtel.baselines import TelemetryMode
from flowtel.cli import main, scenario_from_dict
from flowtel.scenarios import PRESETS, build
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


def test_run_with_every_flow_unmonitored_has_no_feature_rows(tmp_path):
    """No telemetry mode sees a monitored packet: each has zero feature rows,
    no detector is trained, and every window scores 0 (AUPRC = prevalence)."""
    flow = {"pattern": "poisson", "rate_pps": 800, "bytes_min": 300, "bytes_max": 700,
            "monitored": False}
    burst = {"kind": "microburst", "duration_s": 0.3, "burst_factor": 8.0,
             "target_flows": [{"teid": 1, "qfi": 1}]}
    doc = {**MINIMAL_SCENARIO, "duration_s": 8.0,
           "flows": [{**flow, "teid": 1, "qfi": 1}, {**flow, "teid": 2, "qfi": 1}],
           "anomalies": [{**burst, "start_s": 3.1}, {**burst, "start_s": 5.2}]}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    header = "# mode window scope pkts bytes diag_pkts tail_frac head_frac teids_per_qfi " \
             "drops mean_delay_ns green_frac yellow_frac red_frac unregistered\n"
    assert (out / "features.txt").read_text() == header
    metrics = (out / "metrics.txt").read_text().splitlines()
    for mode in ("dsmp", "pm", "sketch"):
        assert f"microburst {mode} 0.250000 0.000000 2 8 NA 2" in metrics
    assert "# cost dsmp bytes=0 mbps=0.0000" in metrics
    assert "# cost pm bytes=0 mbps=0.0000" in metrics


def test_run_shorter_than_one_nanosecond_has_no_window(tmp_path):
    doc = {**MINIMAL_SCENARIO, "duration_s": 1e-10, "anomalies": []}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert (out / "features.txt").read_text().count("\n") == 1  # the header only
    assert "# cost sketch bytes=0 mbps=0.0000" in (out / "metrics.txt").read_text()


def test_class_poor_training_folds_leave_blocks_unscored_and_the_run_finishes(tmp_path, capsys):
    """Two windows, the anomaly fills the first: the first block's training
    fold has no positive example and the second's no negative one. Both
    blocks are reported unscored, in metrics.txt and on stderr, and the run
    exits 0 instead of 3."""
    doc = {"duration_s": 2.0, "seed": 1,
           "flows": [{"teid": 1, "qfi": 1, "pattern": "cbr", "rate_pps": 100}],
           "qfi_to_qid": {"1": 0}, "queue_policy": {"0": {"tier": 0, "service_rate_bps": 1e7}},
           "anomalies": [{"kind": "microburst", "start_s": 0.5, "duration_s": 0.5,
                          "target_flows": [{"teid": 1, "qfi": 1}]}]}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    unscored = [f"# unscored microburst {mode} windows={w}-{w} reason=no {cls} examples"
                for mode in ("sketch", "dsmp", "pm")
                for w, cls in ((0, "positive"), (1, "negative"))]
    cap = tmp_path / "capture.txt"
    assert main(["capture", "--scenario", str(scenario), "--out", str(cap)]) == 0
    for cmd in (["run"], ["replay", "--capture", str(cap)]):
        out = tmp_path / cmd[0]
        capsys.readouterr()
        assert main([*cmd, "--scenario", str(scenario), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines()[-len(unscored):] == unscored
        metrics = (out / "metrics.txt").read_text().splitlines()
        assert [ln for ln in metrics if ln.startswith("# unscored")] == unscored
        for mode in ("dsmp", "pm", "sketch"):  # no window is scored
            assert f"microburst {mode} NA 0.000000 0 0 NA 0" in metrics
        assert (out / "outcomes.txt").read_text() == "# kind mode window scope score fired\n"


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
    assert "union-bound success at depth 5: 0.9730" in text
    assert "depth 3 at K=3" in text  # the union-bound caveat is spelled out


def test_size_k3_zeta005_depth5(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"beta_max": 0.3, "delta_t_min": 80, "n_t_max": 1e4,
                                  "zeta": 0.05, "k_bins": 3}))
    main(["size", "--params", str(params)])
    assert "required depth  : 5" in capsys.readouterr().out


def test_size_zeta_left_out_takes_the_default(tmp_path, capsys):
    doc = {"beta_max": 0.3, "delta_t_min": 80, "n_t_max": 10000, "k_bins": 3,
           "flow_classes": {"small": {"x_k": 5000, "x_k_T": 50, "n_prime": 1000000}}}
    reports = []
    for given in ({}, {"zeta": 0.05}):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({**doc, **given}))
        assert main(["size", "--params", str(params)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_size_bad_zeta_exits_2_naming_it(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"beta_max": 0.3, "delta_t_min": 80, "n_t_max": 10000,
                                  "zeta": "x"}))
    assert main(["size", "--params", str(params)]) == 2
    assert f"params file {params}: zeta: could not convert" in capsys.readouterr().err


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
    jobs = []

    def job(delivered, drops, labels, spec, cfg, mode):
        jobs.append((cfg, mode))
        return 1, None

    monkeypatch.setattr(cli, "_sweep_job", job)
    assert main(["sweep", "--scenario", str(scenario), "--grid", str(grid)]) == 0
    sketch = [(c.width, c.rho) for c, m in jobs if m is TelemetryMode.SKETCH]
    assert sketch == [(64, 0.01), (64, 0.05), (128, 0.01), (128, 0.05)]
    for c, _ in jobs:
        assert c.explicit_lat_edges == c.explicit_iat_edges == ((0, tuple(pinned)),)


def test_sweep_runs_each_mode_once_per_setting_it_reads(tmp_path, capsys, monkeypatch):
    """A grid over all four axes prints what the all-mode sweep printed
    (recorded in golden_sweep.txt) from 8 sketch, 4 DSMP and 1 PM run
    instead of 16 runs of every mode."""
    from flowtel import cli

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"width": [64, 128], "depth": [2, 3], "rho": [0.01, 0.05],
                                "dsmp_delta_ns": [1000000, 250000]}))
    runs = []
    sweep_job = cli._sweep_job

    def job(*args):
        runs.append(args[-1])
        return sweep_job(*args)

    monkeypatch.setattr(cli, "_sweep_job", job)
    assert main(["sweep", "--scenario", str(scenario), "--grid", str(grid)]) == 0
    recorded = (Path(__file__).parent / "golden_sweep.txt").read_text()
    assert capsys.readouterr().out == recorded
    assert [runs.count(m) for m in (TelemetryMode.SKETCH, TelemetryMode.DSMP,
                                    TelemetryMode.PM)] == [8, 4, 1]


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


@pytest.mark.parametrize("field, value, named", [
    ("rho", "x", "rho: could not convert"),
    ("rho_drift", [0.02], "rho_drift: float() argument"),
    ("rho", 0, "ValueError: all drift-scaling inputs must be positive"),
    ("k_bins", "x", "k_bins: invalid literal"),
])
def test_size_bad_drift_value_exits_2_naming_it(tmp_path, capsys, field, value, named):
    doc = {"beta_max": 0.3, "delta_t_min": 80, "n_t_max": 10000, "rho": 0.01, "rho_drift": 0.02}
    params = tmp_path / "p.json"
    params.write_text(json.dumps({**doc, field: value}))
    assert main(["size", "--params", str(params)]) == 2
    assert f"params file {params}: {named}" in capsys.readouterr().err


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


def test_replay_manifest_matches_the_run_manifest(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    cap = tmp_path / "capture.txt"
    assert main(["capture", "--scenario", str(scenario), "--out", str(cap)]) == 0
    for cmd in ("run", "replay"):
        given = ["--capture", str(cap)] if cmd == "replay" else []
        assert main([cmd, "--scenario", str(scenario), "--modes", "pm,sketch", *given,
                     "--out", str(tmp_path / cmd)]) == 0
    run, replay = (json.loads((tmp_path / c / "manifest.json").read_text())
                   for c in ("run", "replay"))
    assert replay.pop("capture") == str(cap)
    assert replay.keys() == run.keys()
    for key in ("scenario", "seed", "modes", "resolved_scenario", "resolved_sha256"):
        assert replay[key] == run[key]
    assert run["modes"] == ["pm", "sketch"]
    # a replay's outputs come from its capture, so `run` refuses its manifest
    capsys.readouterr()
    manifest = tmp_path / "replay" / "manifest.json"
    assert main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "again")]) == 2
    assert f"manifest {manifest}: command: 'replay'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["smoke", "file"])
def test_manifest_replays_the_run(tmp_path, capsys, source):
    """``flowtel run --scenario <manifest.json>`` writes the run's other six
    files byte for byte, and a manifest that embeds the same scenario."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    given = "smoke" if source == "smoke" else str(scenario)
    assert main(["run", "--scenario", given, "--out", str(tmp_path / "r1")]) == 0
    manifest = tmp_path / "r1" / "manifest.json"
    assert main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "r2")]) == 0
    first, again = tree_hash(tmp_path / "r1"), tree_hash(tmp_path / "r2")
    assert first.pop("manifest.json") != again.pop("manifest.json")  # --out and the source
    assert first == again and len(first) == 6
    m1, m2 = (json.loads((tmp_path / r / "manifest.json").read_text()) for r in ("r1", "r2"))
    assert m1["resolved_scenario"] == m2["resolved_scenario"]
    assert m1["resolved_sha256"] == m2["resolved_sha256"]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_scenario_document_reads_back_as_the_scenario(name):
    from flowtel.cli import scenario_to_dict

    spec, cfg = build(name)
    pinned = ((0, (1.5, 2.0, 3.25, 4.0, 5.0, 6.0, 7.0)),)
    cfg = replace(cfg, explicit_lat_edges=pinned, explicit_iat_edges=pinned)
    doc = json.loads(json.dumps(scenario_to_dict(spec, cfg)))
    assert doc["telemetry"]["lat_edges_ns"] == {"0": [1.5, 2.0, 3.25, 4.0, 5.0, 6.0, 7.0]}
    assert scenario_from_dict(doc) == (spec, cfg)


# sha256 of json.dumps(scenario_to_dict(*build(name)), sort_keys=True), recorded
# while each preset still declared its own anomalies and telemetry config
PRESET_DIGESTS = {
    "smoke": "79051ed5ba9e3c0d7750e76e744f1f6e57fb9a21d338ee2fa05fabb84bc3526e",
    "microburst": "0ab551a83d487d80df2f8f280f0bb6a85a964c95398a64389fe32a55264f5aa1",
    "congestion": "4909f5456d76168d4ba54021a0bb3786c82a1de1d823f1a6b91e678c9961bc84",
    "contention": "68525237e7eb6eb2520537ad553a138015ac04d0bf35e92ac3924621405f03a0",
    "policy_abuse": "db4d98bc5de2f5a8964536ff076304b4c90ba566d5ebbfd35fddc15698f12f89",
    "mixed": "8aea2767ce052fef12028ca61e70a01d7a3e315902115b755f5c99a0d048a2e1",
    "burst_cost": "ea201373533f241eeef9ce9ef7e8616ed969a18a73950cac0cc1f1960204cacb",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_resolves_to_its_recorded_scenario(name):
    from flowtel.cli import scenario_to_dict

    doc = json.dumps(scenario_to_dict(*build(name)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == PRESET_DIGESTS[name]


@pytest.mark.parametrize("edit, field", [
    (lambda m: m.pop("resolved_scenario"), "resolved_scenario"),
    (lambda m: m.update(resolved_scenario=[]), "resolved_scenario"),
    (lambda m: m["resolved_scenario"].update(seed=6), "resolved_sha256"),
    (lambda m: m.pop("resolved_sha256"), "resolved_sha256"),
    (lambda m: m.update(command="replay"), "command"),
])
def test_malformed_manifest_exits_2_naming_the_field(tmp_path, capsys, edit, field):
    assert main(["run", "--scenario", "smoke", "--modes", "pm", "--out", str(tmp_path / "r1")]) == 0
    path = tmp_path / "r1" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "r2")]) == 2
    assert f"manifest {path}: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("rerun", [["--modes", "pm"], ["--no-records"]])
def test_rerun_without_sketch_records_removes_the_stale_file(tmp_path, rerun):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(MINIMAL_SCENARIO))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert (out / "records.bin").stat().st_size > 0
    assert main(["run", "--scenario", str(scenario), *rerun, "--out", str(out)]) == 0
    assert not (out / "records.bin").exists()


def test_capture_replay_keeps_drops(tmp_path, capsys):
    """With meter and overflow drops, capture + replay writes the six files of
    run; a capture without the drop_reason column is refused."""
    scenario = str(Path(__file__).parent / "golden_drops.json")
    cap = tmp_path / "capture.txt"
    assert main(["capture", "--scenario", scenario, "--out", str(cap)]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "direct")]) == 0
    assert main(["replay", "--scenario", scenario, "--capture", str(cap),
                 "--out", str(tmp_path / "replayed")]) == 0
    direct, replayed = tree_hash(tmp_path / "direct"), tree_hash(tmp_path / "replayed")
    direct.pop("manifest.json")
    replayed.pop("manifest.json")
    assert direct == replayed
    capsys.readouterr()
    rows = np.loadtxt(cap, dtype=np.int64)
    old = tmp_path / "old.txt"  # the earlier format: delivered rows, eight columns
    np.savetxt(old, rows[rows[:, -1] < 0, :-1], fmt="%d")
    assert main(["replay", "--scenario", scenario, "--capture", str(old),
                 "--out", str(tmp_path / "old")]) == 2
    err = capsys.readouterr().err
    assert f"capture file {old}" in err and "drop_reason" in err and "got 8" in err
    assert not (tmp_path / "old").exists()


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


@pytest.mark.parametrize("key", ["lat_edges_ns", "iat_edges_ns"])
@pytest.mark.parametrize("edges", [
    [700.0, 600.0, 500.0, 400.0, 300.0, 200.0, 100.0],  # decreasing
    [100.0, 200.0, 300.0, 300.0, 500.0, 600.0, 700.0],  # a duplicated edge
    [100.0, 200.0, float("nan"), 400.0, 500.0, 600.0, 700.0],
], ids=["decreasing", "duplicated", "nan"])
def test_explicit_edges_not_strictly_increasing_exit_2_naming_the_field(
    tmp_path, capsys, key, edges
):
    doc = dict(MINIMAL_SCENARIO)
    doc["telemetry"] = dict(doc["telemetry"], **{key: {"0": edges}})
    scenario = tmp_path / "edges.json"
    scenario.write_text(json.dumps(doc))  # a NaN is written as the literal NaN
    rc = main(["run", "--scenario", str(scenario), "--modes", "dsmp", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key}: qid 0 edges must be finite and strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lat_edges_ns", "iat_edges_ns"])
def test_explicit_edges_for_a_qid_without_a_queue_exit_2_naming_it(tmp_path, capsys, key):
    doc = dict(MINIMAL_SCENARIO)
    doc["telemetry"] = dict(doc["telemetry"], **{key: {"9": [float(v) for v in range(1, 8)]}})
    scenario = tmp_path / "edges.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(scenario), "--modes", "pm", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"telemetry.{key}: qid 9 is not in queue_policy" in capsys.readouterr().err


METER = {"teid": 1, "qfi": 1, "cir_bps": 5e6, "cbs_bytes": 30000, "pir_bps": 1e7,
         "pbs_bytes": 60000}


# a key that names no field, at each level of a scenario file, and its path
@pytest.mark.parametrize("edit, path", [
    (lambda d: d["telemetry"].update(widht=64), "telemetry.widht"),
    (lambda d: d.update(durations_s=6.0), "durations_s"),
    (lambda d: d["flows"][0].update(rate=10), "flows[0].rate"),
    (lambda d: d["queue_policy"]["0"].update(rate_bps=1e6), "queue_policy.0.rate_bps"),
    (lambda d: d["anomalies"][0].update(factor=2.0), "anomalies[0].factor"),
    (lambda d: d["anomalies"][0]["target_flows"][0].update(tied=1),
     "anomalies[0].target_flows[0].tied"),
    (lambda d: d.update(meters=[dict(METER, cir=5e6)]), "meters[0].cir"),
    (lambda d: d.update(default_meter=dict(METER)), "default_meter.teid"),
], ids=["telemetry", "top", "flow", "queue", "anomaly", "target", "meter", "default_meter"])
def test_unknown_scenario_key_exits_2_naming_its_path(tmp_path, capsys, edit, path):
    doc = json.loads(json.dumps(MINIMAL_SCENARIO))
    edit(doc)
    scenario = tmp_path / "keys.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(scenario), "--modes", "pm", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"scenario file: {path}: unknown key" in capsys.readouterr().err


def test_flow_and_meter_keys_and_telemetry_are_known(tmp_path):
    """The schema's own extras: a flow's and a meter's teid and qfi, and the
    top-level telemetry object."""
    spec, cfg = scenario_from_dict(dict(MINIMAL_SCENARIO, meters=[METER]))
    assert [fl.key for fl in spec.flows] == list(spec.meters) == [flowtel.FlowKey(1, 1)]
    assert cfg.width == 64


@pytest.mark.parametrize("path", [
    "tests/golden_drops.json", "perfbench/mixed_short.json", "perfbench/contention_short.json",
])
def test_committed_scenario_files_use_only_known_keys(path):
    scenario_from_dict(json.loads((Path(__file__).parent.parent / path).read_text()))


def test_unknown_sweep_grid_key_exits_2_before_simulating(tmp_path, capsys, monkeypatch):
    from flowtel import cli

    def no_simulation(spec):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"widht": [64, 128]}))
    assert main(["sweep", "--scenario", "smoke", "--grid", str(grid)]) == 2
    assert f"grid file {grid}: widht: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("given, path", [
    ({"zeta_": 0.05}, "zeta_"),
    ({"flow_classes": {"small": {"x_k": 5000, "x_k_T": 50, "n_prime": 1e6, "nT": 1}}},
     "flow_classes.small.nT"),
], ids=["top", "flow_class"])
def test_unknown_params_key_exits_2_naming_its_path(tmp_path, capsys, given, path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"beta_max": 0.3, "delta_t_min": 80, "n_t_max": 1e4, **given}))
    assert main(["size", "--params", str(params)]) == 2
    assert f"params file {params}: {path}: unknown key" in capsys.readouterr().err


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
