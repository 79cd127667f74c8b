"""Command-line driver.

Subcommands:
  run     execute a scenario (file or preset) through the full pipeline
  size    print the sizing report for a parameter file
  sweep   grid-sweep sketch/trigger parameters and print the Pareto table
  replay  re-run the telemetry stages over a dumped capture file

Exit codes: 0 ok, 1 usage error, 2 invalid input (a bad scenario value, or
a missing or malformed scenario, grid, params or capture file; the message
names the field or the file), 3 runtime failure.
Worker count for sweeps comes from FLOWTEL_WORKERS (default 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import types
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analysis import pooled_auprc
from .baselines import TelemetryMode
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
    DropRecord,
    FlowSpec,
    MeterSpec,
    PacketBatch,
    ScenarioError,
    ScenarioSpec,
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


_FILE_KEYS = {"explicit_lat_edges": "lat_edges_ns", "explicit_iat_edges": "iat_edges_ns"}
_hints = functools.cache(typing.get_type_hints)  # each call evals every annotation string


def _value(hint, raw, where: str):
    """``raw`` read as a ``hint``: a dataclass from an object, a tuple from a
    list (or an object's items), anything else by its constructor."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        (hint,) = (a for a in args if a is not type(None))
        return _value(hint, raw, where)
    if dataclasses.is_dataclass(hint):
        return _build(hint, raw, where)
    if origin is dict:
        return {_value(args[0], k, where): _value(args[1], v, f"{where}.{k}")
                for k, v in raw.items()}
    if origin is tuple:
        if not isinstance(raw, (list, tuple, dict)):
            raise ScenarioError(f"{where}: expected a list")
        items = list(raw.items() if isinstance(raw, dict) else raw)
        if args[-1] is Ellipsis:
            return tuple(_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(items))
        return tuple(_value(a, v, where) for a, v in zip(args, items, strict=True))
    try:
        return hint(raw)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"{where}: {e}") from e


def _build(cls, doc: dict, where: str = "", **given):
    """A ``cls`` from the keys of ``doc`` that name its fields, each read by
    its type hint, and the ``given`` fields; a key left out keeps its default."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where or 'scenario'}: expected an object")
    hints = _hints(cls)
    for f in dataclasses.fields(cls):
        key = _FILE_KEYS.get(f.name, f.name)
        path = f"{where}.{key}" if where else key
        if f.name in given:
            continue
        if key in doc:
            given[f.name] = _value(hints[f.name], doc[key], path)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ScenarioError(f"{path}: required")
    try:
        return cls(**given)
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}" if where else str(e)) from e


def scenario_from_dict(doc: dict) -> tuple[ScenarioSpec, TelemetryConfig]:
    """Parse the documented scenario schema with field-level diagnostics.

    Each object fills its dataclass: a key left out takes the dataclass
    default, and a field without one is required. Unlike the dataclasses, a
    flow (or meter) gives its FlowKey as its own teid and qfi, a flow's
    bytes_max defaults to its bytes_min, and pinned edges are lat_edges_ns
    and iat_edges_ns, objects from qid to edge list."""
    try:
        flows = []
        for i, f in enumerate(doc["flows"]):
            where = f"flows[{i}]"
            one_size = {"bytes_max": f["bytes_min"]} if "bytes_min" in f else {}
            flows.append(_build(FlowSpec, {**one_size, **f}, where, key=_build(FlowKey, f, where)))
        given = {"flows": tuple(flows)}
        if "meters" in doc:
            given["meters"] = {
                _build(FlowKey, m, f"meters[{i}]"): _build(MeterSpec, m, f"meters[{i}]")
                for i, m in enumerate(doc["meters"])
            }
        spec = _build(ScenarioSpec, doc, **given)
        cfg = _build(TelemetryConfig, doc.get("telemetry", {}), "telemetry")
    except ScenarioError as e:
        raise ScenarioError(f"scenario file: {e}") from e
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ScenarioError(f"scenario file: {e.__class__.__name__}: {e}") from e
    spec.validate()
    return spec, cfg


def _read_json(path: Path, what: str) -> tuple[dict, bytes]:
    """The JSON object in a file named on the command line, and its bytes."""
    try:
        raw = path.read_bytes()
        doc = json.loads(raw)
    except OSError as e:
        raise ScenarioError(f"{what} {path}: cannot read: {e.strerror}") from e
    except ValueError as e:  # not JSON, or not UTF-8
        raise ScenarioError(f"{what} {path}: malformed JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ScenarioError(f"{what} {path}: malformed JSON: expected an object")
    return doc, raw


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
        doc, raw = _read_json(p, "scenario file")
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
    doc, _ = _read_json(Path(args.params), "params file")
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
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ScenarioError(f"params file {args.params}: {e.__class__.__name__}: {e}") from e
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
    grid_doc = _read_json(Path(args.grid), "grid file")[0] if args.grid else {}
    hints = _hints(TelemetryConfig)
    axes = {}
    for axis in ("width", "depth", "rho", "dsmp_delta_ns"):
        at = f"grid file {args.grid}: {axis}"
        axes[axis] = _value(tuple[hints[axis], ...], grid_doc.get(axis, [getattr(cfg, axis)]), at)
        for v in axes[axis]:
            try:  # TelemetryConfig's checks, run before the simulation
                replace(cfg, **{axis: v})
            except ValueError as e:
                raise ScenarioError(f"{at} = {v!r}: {e}") from e
    cfgs = [replace(cfg, **dict(zip(axes, p))) for p in itertools.product(*axes.values())]
    delivered, drops, labels = simulate(spec)
    workers = int(os.environ.get("FLOWTEL_WORKERS", "1"))
    jobs = [(delivered, drops, labels, spec, c) for c in cfgs]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_sweep_job, jobs))
    else:
        results = [_sweep_job(j) for j in jobs]
    rows = []
    for c, (mode_costs, mode_auprc) in zip(cfgs, results):
        for mode in ("sketch", "dsmp", "pm"):
            mbps = mode_costs[mode] * 8 / spec.duration_s / 1e6
            rows.append((mode, c.width, c.depth, c.rho, c.dsmp_delta_ns, mbps, mode_auprc[mode]))
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


CAPTURE_COLUMNS = ("teid", "qfi", "qid", "bytes", "arrival_ns", "sojourn_ns", "color", "monitored")


def dump_capture(delivered: PacketBatch, path: Path) -> None:
    cols = [getattr(delivered, name) for name in CAPTURE_COLUMNS]
    np.savetxt(path, np.column_stack(cols), fmt="%d", header=" ".join(CAPTURE_COLUMNS))


def load_capture(path: Path) -> PacketBatch:
    try:
        arr = np.loadtxt(path, dtype=np.int64, ndmin=2)
    except (OSError, ValueError) as e:  # unreadable, not integers, or ragged
        raise ScenarioError(f"capture file {path}: {e}") from e
    if arr.shape[1] != len(CAPTURE_COLUMNS):
        raise ScenarioError(f"capture file {path}: expected {len(CAPTURE_COLUMNS)} columns per row")
    cols = dict(zip(CAPTURE_COLUMNS, arr.T))
    cols["color"] = cols["color"].astype(np.int8)
    cols["monitored"] = cols["monitored"].astype(bool)
    return PacketBatch(**cols, injected=None)  # a capture does not record injection


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
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as e:  # noqa: BLE001
        print(f"runtime failure: {e.__class__.__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
