"""Command-line driver.

Subcommands:
  run     execute a scenario (file or preset) through the full pipeline
  size    print the sizing report for a parameter file
  sweep   grid-sweep sketch/trigger parameters and print the Pareto table
  replay  re-run the telemetry stages over a dumped capture file

Exit codes: 0 ok, 1 usage error, 2 invalid scenario, 3 runtime failure.
Worker count for sweeps comes from FLOWTEL_WORKERS (default 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analysis import pooled_auprc
from .baselines import TelemetryMode
from .binning import BinStrategy
from .core import FlowKey, NS_PER_S
from .pipeline import (
    ALL_MODES,
    TelemetryConfig,
    metrics_lines,
    run_scenario,
    run_telemetry,
    write_outputs,
)
from .scenarios import PRESETS, build
from .simulator import (
    AnomalyEvent,
    AnomalyKind,
    DeliveredBatch,
    DropRecord,
    FlowSpec,
    MeterSpec,
    QueuePolicy,
    ScenarioError,
    ScenarioSpec,
    TrafficPattern,
    label_windows,
    simulate,
)
from .sizing import (
    NOT_DETECTABLE,
    DetectabilityParams,
    FlowBaseline,
    drift_width_scaling,
    per_window_success,
    sizing_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# -- scenario file schema -----------------------------------------------------------


def scenario_from_dict(doc: dict) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Parse the documented scenario schema with field-level diagnostics."""
    try:
        flows = tuple(
            FlowSpec(
                key=FlowKey(int(f["teid"]), int(f["qfi"])),
                pattern=TrafficPattern(f.get("pattern", "cbr")),
                rate_pps=float(f["rate_pps"]),
                bytes_min=int(f.get("bytes_min", 400)),
                bytes_max=int(f.get("bytes_max", f.get("bytes_min", 400))),
                on_fraction=float(f.get("on_fraction", 0.4)),
                cycle_ms=float(f.get("cycle_ms", 400.0)),
                monitored=bool(f.get("monitored", True)),
            )
            for f in doc["flows"]
        )
        queues = {
            int(q): QueuePolicy(
                tier=int(p["tier"]),
                weight=int(p.get("weight", 1)),
                service_rate_bps=float(p["service_rate_bps"]),
                buffer_pkts=int(p.get("buffer_pkts", 4000)),
            )
            for q, p in doc["queue_policy"].items()
        }
        meters = {}
        for m in doc.get("meters", []):
            meters[FlowKey(int(m["teid"]), int(m["qfi"]))] = MeterSpec(
                cir_bps=float(m["cir_bps"]),
                cbs_bytes=float(m["cbs_bytes"]),
                pir_bps=float(m["pir_bps"]),
                pbs_bytes=float(m["pbs_bytes"]),
            )
        default_meter = None
        if "default_meter" in doc:
            m = doc["default_meter"]
            default_meter = MeterSpec(
                cir_bps=float(m["cir_bps"]),
                cbs_bytes=float(m["cbs_bytes"]),
                pir_bps=float(m["pir_bps"]),
                pbs_bytes=float(m["pbs_bytes"]),
            )
        anomalies = tuple(
            AnomalyEvent(
                kind=AnomalyKind(a["kind"]),
                start_s=float(a["start_s"]),
                duration_s=float(a["duration_s"]),
                target_flows=tuple(
                    FlowKey(int(t["teid"]), int(t["qfi"])) for t in a.get("target_flows", [])
                ),
                target_qfis=tuple(int(q) for q in a.get("target_qfis", [])),
                burst_factor=float(a.get("burst_factor", 6.0)),
                overload_factor=float(a.get("overload_factor", 2.0)),
                cross_rate_pps=float(a.get("cross_rate_pps", 20000.0)),
                cross_bytes=int(a.get("cross_bytes", 1200)),
                cross_period_ms=float(a.get("cross_period_ms", 200.0)),
                cross_qfis=tuple(int(q) for q in a.get("cross_qfis", [])),
                remapped_qfi=int(a.get("remapped_qfi", 0)),
            )
            for a in doc.get("anomalies", [])
        )
        spec = ScenarioSpec(
            duration_s=float(doc["duration_s"]),
            seed=int(doc.get("seed", 0)),
            flows=flows,
            qfi_to_qid={int(k): int(v) for k, v in doc["qfi_to_qid"].items()},
            queue_policy=queues,
            meters=meters,
            default_meter=default_meter,
            anomalies=anomalies,
            window_len_ns=int(doc.get("window_len_ns", NS_PER_S)),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ScenarioError(f"scenario file: {e.__class__.__name__}: {e}") from e
    tel = doc.get("telemetry", {})
    try:
        cfg = TelemetryConfig(
            width=int(tel.get("width", 256)),
            depth=int(tel.get("depth", 3)),
            bins_b=int(tel.get("bins_b", 8)),
            lat_tail_bins=int(tel.get("lat_tail_bins", 2)),
            iat_head_bins=int(tel.get("iat_head_bins", 1)),
            rho=float(tel.get("rho", 0.01)),
            strategy=BinStrategy(tel.get("strategy", "target_occupancy")),
            fit_windows=int(tel.get("fit_windows", 5)),
            fit_sample_size=int(tel.get("fit_sample_size", 100_000)),
            dsmp_delta_ns=int(tel.get("dsmp_delta_ns", 1_000_000)),
            n_blocks=int(tel.get("n_blocks", 4)),
            l2=float(tel.get("l2", 1.0)),
            explicit_lat_edges=tuple(
                (int(q), tuple(float(v) for v in edges))
                for q, edges in tel.get("lat_edges_ns", {}).items()
            ),
            explicit_iat_edges=tuple(
                (int(q), tuple(float(v) for v in edges))
                for q, edges in tel.get("iat_edges_ns", {}).items()
            ),
        )
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"scenario file: telemetry: {e}") from e
    spec.validate()
    return spec, cfg


def load_scenario(
    path_or_preset: str, seed: int | None
) -> tuple[ScenarioSpec, TelemetryConfig, dict]:
    if path_or_preset in PRESETS:
        spec, cfg = build(path_or_preset, seed=seed)
        manifest_scenario: dict = {"preset": path_or_preset}
    else:
        p = Path(path_or_preset)
        if not p.exists():
            raise ScenarioError(f"scenario: no such file or preset {path_or_preset!r}")
        raw = p.read_bytes()
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ScenarioError(f"scenario file {p}: malformed JSON: {e}") from e
        if seed is not None:
            doc["seed"] = seed
        spec, cfg = scenario_from_dict(doc)
        manifest_scenario = {"file": str(p), "sha": hashlib.sha256(raw).hexdigest()}
    return spec, cfg, manifest_scenario


def _parse_modes(arg: str) -> tuple[TelemetryMode, ...]:
    if arg == "all":
        return ALL_MODES
    out = []
    for part in arg.split(","):
        try:
            out.append(TelemetryMode(part.strip()))
        except ValueError:
            raise ScenarioError(f"--modes: unknown mode {part!r} (use sketch,dsmp,pm)")
    return tuple(out)


# -- subcommands -------------------------------------------------------------------


def cmd_run(args) -> int:
    spec, cfg, man_sc = load_scenario(args.scenario, args.seed)
    modes = _parse_modes(args.modes)
    pinned = {q for q, _ in cfg.explicit_lat_edges} & {q for q, _ in cfg.explicit_iat_edges}
    for i, an in enumerate(spec.anomalies if not pinned >= set(spec.queue_policy) else ()):
        if int(an.start_s * NS_PER_S) < cfg.fit_windows * spec.window_len_ns:
            print(f"warning: anomaly {i} ({an.kind.value}, start_s={an.start_s:g}) starts inside "
                  f"the warmup windows (telemetry.fit_windows={cfg.fit_windows}); the edges are "
                  "fitted on its traffic", file=sys.stderr)
    result = run_scenario(spec, cfg, modes=modes, collect_sketch_records=not args.no_records)
    manifest = {
        "command": "run",
        "scenario": man_sc,
        "seed": spec.seed,
        "modes": [m.value for m in modes],
        "telemetry": {**asdict(cfg), "strategy": cfg.strategy.value},
        "out": str(args.out),
    }
    write_outputs(result, Path(args.out), manifest)
    for line in metrics_lines(result):
        print(line)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_size(args) -> int:
    doc = json.loads(Path(args.params).read_text())
    try:
        params = DetectabilityParams(
            beta=float(doc.get("beta", doc.get("beta_max", 0.3))),
            beta_max=float(doc["beta_max"]),
            delta_t_min=float(doc["delta_t_min"]),
            zeta=float(doc.get("zeta", 0.05)),
        )
        n_t_max = float(doc["n_t_max"])
        k_bins = int(doc.get("k_bins", 3))
        classes = {
            name: FlowBaseline(
                x_k=float(c["x_k"]),
                x_k_T=float(c["x_k_T"]),
                n_T=float(c.get("n_T", n_t_max)),
                n_prime=float(c["n_prime"]),
            )
            for name, c in doc.get("flow_classes", {}).items()
        }
    except (KeyError, TypeError, ValueError) as e:
        print(f"params file: {e.__class__.__name__}: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    rep = sizing_report(params, n_t_max, k_bins, classes)
    pow2 = 1 << math.ceil(math.log2(rep.width))
    print(f"required width  : {rep.width}  (N_T_max={n_t_max:g}, beta_max={params.beta_max}, "
          f"delta_T_min={params.delta_t_min:g})")
    print(f"practical width : {pow2} (next power of two) with collision floor "
          f"{math.e / pow2 * n_t_max:.2f} pkts")
    print(f"required depth  : {rep.depth}  (K={k_bins}, zeta={params.zeta})")
    print(f"collision floor : {rep.collision_floor_at_width:.2f} pkts at width {rep.width}")
    print(f"sparse threshold: {rep.sparse_threshold_at_width:.2f} pkts "
          f"(eps*N_T/(1-beta_max) at width {rep.width})")
    for name, thr in sorted(rep.thresholds.items()):
        shown = "NOT_DETECTABLE" if thr == NOT_DETECTABLE else f"{thr:.2f} pkts"
        print(f"threshold[{name}]: {shown}")
    if "rho_drift" in doc:
        w_new = drift_width_scaling(rep.width, float(doc.get("rho", 0.01)), float(doc["rho_drift"]))
        print(f"drift scaling   : rho {doc.get('rho', 0.01)} -> {doc['rho_drift']} "
              f"needs width {w_new}")
    succ = per_window_success(k_bins, rep.depth)
    succ3 = per_window_success(k_bins, 3)
    print(f"union-bound success at depth {rep.depth}: {succ:.4f}")
    print(f"note: depth 3 at K={k_bins} gives union-bound success {succ3:.3f}; "
          "claims above 0.99 per window need the larger depth printed above, "
          "though persistent anomalies still amortize misses across windows")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec, cfg, man_sc = load_scenario(args.scenario, args.seed)
    grid_doc = json.loads(Path(args.grid).read_text()) if args.grid else {}
    widths = [int(w) for w in grid_doc.get("width", [cfg.width])]
    depths = [int(d) for d in grid_doc.get("depth", [cfg.depth])]
    rhos = [float(r) for r in grid_doc.get("rho", [cfg.rho])]
    deltas = [int(d) for d in grid_doc.get("dsmp_delta_ns", [cfg.dsmp_delta_ns])]
    configs = [
        (w, d, r, dl) for w in widths for d in depths for r in rhos for dl in deltas
    ]
    delivered, drops, labels = simulate(spec)
    workers = int(os.environ.get("FLOWTEL_WORKERS", "1"))
    jobs = [
        (delivered, drops, labels, spec,
         replace(cfg, width=w, depth=d, rho=r, dsmp_delta_ns=dl))
        for (w, d, r, dl) in configs
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_sweep_job, jobs))
    else:
        results = [_sweep_job(j) for j in jobs]
    rows = []
    for (w, d, r, dl), (mode_costs, mode_auprc) in zip(configs, results):
        for mode in ("sketch", "dsmp", "pm"):
            mbps = mode_costs[mode] * 8 / spec.duration_s / 1e6
            rows.append((mode, w, d, r, dl, mbps, mode_auprc[mode]))
    # Pareto flags computed over (cost, accuracy), higher accuracy cheaper wins
    from .analysis import pareto_front

    flags = pareto_front([(row[5], -1.0 if row[6] is None else row[6]) for row in rows])
    print("# mode width depth rho dsmp_delta_ns export_mbps auprc pareto")
    for row, flag in zip(rows, flags):
        a = "NA" if row[6] is None else f"{row[6]:.4f}"
        print(f"{row[0]} {row[1]} {row[2]} {row[3]:g} {row[4]} {row[5]:.4f} {a} {int(flag)}")
    return EXIT_OK


def _sweep_job(job) -> tuple[dict, dict]:
    delivered, drops, labels, spec, cfg = job
    result = run_telemetry(delivered, drops, labels, spec, cfg, collect_sketch_records=False)
    costs = {m.value: result.total_bytes(m) for m in result.modes}
    return costs, {m.value: pooled_auprc(result, m.value) for m in result.modes}


CAPTURE_HEADER = "# teid qfi qid bytes arrival_ns sojourn_ns color monitored"


def dump_capture(delivered: DeliveredBatch, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write(CAPTURE_HEADER + "\n")
        for i in range(len(delivered)):
            fh.write(
                f"{delivered.teid[i]} {delivered.qfi[i]} {delivered.qid[i]} "
                f"{delivered.bytes[i]} {delivered.arrival_ns[i]} {delivered.sojourn_ns[i]} "
                f"{int(delivered.color[i])} {int(delivered.monitored[i])}\n"
            )


def load_capture(path: Path) -> DeliveredBatch:
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        rows.append([int(v) for v in line.split()])
    arr = np.asarray(rows, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 8:
        raise ScenarioError("capture file: expected 8 columns per row")
    return DeliveredBatch(
        teid=arr[:, 0], qfi=arr[:, 1], qid=arr[:, 2], bytes=arr[:, 3],
        arrival_ns=arr[:, 4], sojourn_ns=arr[:, 5], color=arr[:, 6].astype(np.int8),
        monitored=arr[:, 7].astype(bool), injected=np.zeros(len(arr), dtype=bool),
    )


def cmd_capture(args) -> int:
    spec, _, _ = load_scenario(args.scenario, args.seed)
    delivered, _, _ = simulate(spec)
    dump_capture(delivered, Path(args.out))
    print(f"wrote {args.out} ({len(delivered)} packets)")
    return EXIT_OK


def cmd_replay(args) -> int:
    spec, cfg, man_sc = load_scenario(args.scenario, args.seed)
    delivered = load_capture(Path(args.capture))
    empty_drops = DropRecord(
        teid=np.empty(0, dtype=np.int64), qfi=np.empty(0, dtype=np.int64),
        qid=np.empty(0, dtype=np.int64), time_ns=np.empty(0, dtype=np.int64),
        reason=np.empty(0, dtype=np.int8), monitored=np.empty(0, dtype=bool),
    )
    labels = label_windows(spec)
    result = run_telemetry(delivered, empty_drops, labels, spec, cfg,
                           modes=_parse_modes(args.modes),
                           collect_sketch_records=not args.no_records)
    manifest = {
        "command": "replay",
        "scenario": man_sc,
        "capture": str(args.capture),
        "modes": args.modes,
        "out": str(args.out),
    }
    write_outputs(result, Path(args.out), manifest)
    for line in metrics_lines(result):
        print(line)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="flowtel", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file or preset name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--modes", default="all", help="comma list: sketch,dsmp,pm (default all)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--no-records", action="store_true", help="skip the bucket record dump")
    p_run.set_defaults(fn=cmd_run)

    p_size = sub.add_parser("size", help="sizing report from a parameter file")
    p_size.add_argument("--params", required=True, help="JSON parameter file")
    p_size.set_defaults(fn=cmd_size)

    p_sweep = sub.add_parser("sweep", help="parameter sweep with Pareto table")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--grid", default=None, help="JSON grid file")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_cap = sub.add_parser("capture", help="simulate and dump a capture file")
    p_cap.add_argument("--scenario", required=True)
    p_cap.add_argument("--seed", type=int, default=None)
    p_cap.add_argument("--out", required=True)
    p_cap.set_defaults(fn=cmd_capture)

    p_rep = sub.add_parser("replay", help="replay a capture through telemetry")
    p_rep.add_argument("--scenario", required=True, help="provides queues/telemetry config")
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--capture", required=True)
    p_rep.add_argument("--modes", default="all")
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--no-records", action="store_true")
    p_rep.set_defaults(fn=cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as e:  # noqa: BLE001
        print(f"runtime failure: {e.__class__.__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
