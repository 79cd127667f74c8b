"""Command-line driver.

Subcommands:
  run     execute a scenario (file or preset) through the full pipeline
  size    print the sizing report for a parameter file
  sweep   grid-sweep sketch/trigger parameters and print the Pareto table
  replay  re-run the telemetry stages over a dumped capture file

Exit codes: 0 ok, 1 usage error, 2 invalid input (a bad scenario value, or
a missing or malformed scenario, grid, params or capture file; the message
names the field or the file), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import math
import sys
import types
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import pooled_auprc
from .baselines import TelemetryMode
from .core import FlowKey, NS_PER_S
from .pipeline import (
    ALL_MODES,
    TelemetryConfig,
    check_pinned_qids,
    metrics_lines,
    run_scenario,
    run_telemetry,
    write_outputs,
)
from .scenarios import PRESETS, build
from .simulator import (
    COLUMN_DTYPES,
    FlowSpec,
    MeterSpec,
    PacketBatch,
    ScenarioError,
    ScenarioSpec,
    column_bounds,
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
_FLOW_KEY_FIELDS = ("teid", "qfi")  # a flow's or meter's FlowKey, beside its own fields
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


def _build(cls, doc: dict, where: str = "", extra=(), **given):
    """A ``cls`` from the keys of ``doc`` that name its fields, each read by
    its type hint, and the ``given`` fields; a key left out keeps its default.
    Any other key of ``doc`` must be in ``extra``."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where or 'scenario'}: expected an object")
    hints = _hints(cls)
    fields = {_FILE_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    path = lambda key: f"{where}.{key}" if where else key  # noqa: E731
    for key in doc:
        if key not in fields and key not in extra:
            raise ScenarioError(f"{path(key)}: unknown key")
    for key, f in fields.items():
        if f.name in given:
            continue
        if key in doc:
            given[f.name] = _value(hints[f.name], doc[key], path(key))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ScenarioError(f"{path(key)}: required")
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
    and iat_edges_ns, objects from qid to edge list, whose qids must be
    queue_policy's. A key that names nothing here is invalid."""
    try:
        flows = []
        for i, f in enumerate(doc["flows"]):
            where = f"flows[{i}]"
            one_size = {"bytes_max": f["bytes_min"]} if "bytes_min" in f else {}
            key = _build(FlowKey, f, where, f)  # the FlowSpec checks the other keys
            flows.append(_build(FlowSpec, {**one_size, **f}, where, _FLOW_KEY_FIELDS, key=key))
        given = {"flows": tuple(flows)}
        if "meters" in doc:
            given["meters"] = {
                _build(FlowKey, m, f"meters[{i}]", m):
                    _build(MeterSpec, m, f"meters[{i}]", _FLOW_KEY_FIELDS)
                for i, m in enumerate(doc["meters"])
            }
        spec = _build(ScenarioSpec, doc, "", ("telemetry",), **given)
        cfg = _build(TelemetryConfig, doc.get("telemetry", {}), "telemetry")
    except ScenarioError as e:
        raise ScenarioError(f"scenario file: {e}") from e
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ScenarioError(f"scenario file: {e.__class__.__name__}: {e}") from e
    spec.validate()
    check_pinned_qids(spec, cfg)
    return spec, cfg


def scenario_to_dict(spec: ScenarioSpec, cfg: TelemetryConfig) -> dict:
    """The JSON scenario document that ``scenario_from_dict`` reads as (spec, cfg)."""
    def doc(obj):  # a dataclass by the schema's keys, an enum by its value
        if isinstance(obj, enum.Enum):
            return obj.value
        return {_FILE_KEYS.get(f.name, f.name): getattr(obj, f.name)
                for f in dataclasses.fields(obj) if getattr(obj, f.name) is not None}

    telemetry = doc(cfg)  # with pinned edges as an object from qid to edge list
    telemetry.update({key: dict(telemetry[key]) for key in _FILE_KEYS.values()})
    return json.loads(json.dumps({
        **doc(spec), "telemetry": telemetry,
        "flows": [{**doc(fl.key), **doc(replace(fl, key=None))} for fl in spec.flows],
        "meters": [{**doc(key), **doc(m)} for key, m in spec.meters.items()],
    }, default=doc))


def _sha(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


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
        if "command" in doc:  # a run's manifest.json: replay the scenario it embeds
            if doc["command"] != "run":  # a replay's outputs come from its capture
                raise ScenarioError(f"manifest {p}: command: {doc['command']!r}, not 'run'")
            doc, sha = doc.get("resolved_scenario"), doc.get("resolved_sha256")
            if not isinstance(doc, dict):
                raise ScenarioError(f"manifest {p}: resolved_scenario: required, an object")
            if _sha(doc) != sha:
                raise ScenarioError(f"manifest {p}: resolved_sha256: not resolved_scenario's")
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


def _manifest(args, man_sc: dict, spec: ScenarioSpec, cfg: TelemetryConfig,
              modes: tuple[TelemetryMode, ...], **extra) -> dict:
    """What a run or a replay made its outputs from; ``run --scenario`` replays it."""
    doc = scenario_to_dict(spec, cfg)
    return {
        "command": args.cmd,
        "scenario": man_sc,
        "seed": spec.seed,
        "modes": [m.value for m in modes],
        "out": str(args.out),
        "resolved_scenario": doc,
        "resolved_sha256": _sha(doc),
        **extra,
    }


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
    write_outputs(result, Path(args.out), _manifest(args, man_sc, spec, cfg, modes))
    for line in result.unscored:  # blocks whose training lacks a class
        print(line, file=sys.stderr)
    for line in metrics_lines(result):
        print(line)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_size(args) -> int:
    doc, _ = _read_json(Path(args.params), "params file")
    try:
        # each key left out takes the dataclass default, but beta that of beta_max
        beta = {"beta": doc["beta_max"]} if "beta_max" in doc else {}
        # the other keys of a params file, read below
        others = ("n_t_max", "rho", "k_bins", "flow_classes", "rho_drift")
        params = _build(DetectabilityParams, {**beta, **doc}, "", others)
        n_t_max = float(doc["n_t_max"])
        # a run's defaults: its rho (printed as read), and K = tail + head bins
        rho = doc.get("rho", TelemetryConfig.rho)
        k_bins = _value(int, doc.get("k_bins", TelemetryConfig.lat_tail_bins
                                     + TelemetryConfig.iat_head_bins), "k_bins")
        classes = {  # and a class's n_T that of n_t_max
            name: _build(FlowBaseline, {"n_T": n_t_max, **c}, f"flow_classes.{name}")
            for name, c in doc.get("flow_classes", {}).items()
        }
        rep = sizing_report(params, n_t_max, k_bins, classes)
        w_new = None
        if "rho_drift" in doc:
            rho_drift = _value(float, doc["rho_drift"], "rho_drift")
            w_new = drift_width_scaling(rep.width, _value(float, rho, "rho"), rho_drift)
    except ScenarioError as e:  # names the field
        raise ScenarioError(f"params file {args.params}: {e}") from e
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ScenarioError(f"params file {args.params}: {e.__class__.__name__}: {e}") from e
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
    if w_new is not None:
        print(f"drift scaling   : rho {rho} -> {doc['rho_drift']} "
              f"needs width {w_new}")
    succ3 = per_window_success(k_bins, 3)
    print(f"union-bound success at depth {rep.depth}: {rep.per_window_success_at_depth:.4f}")
    print(f"note: depth 3 at K={k_bins} gives union-bound success {succ3:.3f}; "
          "claims above 0.99 per window need the larger depth printed above, "
          "though persistent anomalies still amortize misses across windows")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec, cfg, man_sc = load_scenario(args.scenario, args.seed)
    grid_doc = _read_json(Path(args.grid), "grid file")[0] if args.grid else {}
    hints = _hints(TelemetryConfig)
    unknown = [key for key in grid_doc if key not in _SWEEP_AXES]
    if unknown:
        raise ScenarioError(f"grid file {args.grid}: {unknown[0]}: unknown key, not one of "
                            + ", ".join(_SWEEP_AXES))
    axes = {}
    for axis in _SWEEP_AXES:
        at = f"grid file {args.grid}: {axis}"
        axes[axis] = _value(tuple[hints[axis], ...], grid_doc.get(axis, [getattr(cfg, axis)]), at)
        for v in axes[axis]:
            try:  # TelemetryConfig's checks, run before the simulation
                replace(cfg, **{axis: v})
            except ValueError as e:
                raise ScenarioError(f"{at} = {v!r}: {e}") from e
    cfgs = [replace(cfg, **dict(zip(axes, p))) for p in itertools.product(*axes.values())]
    delivered, drops, labels = simulate(spec)
    done: dict[tuple, tuple[int, float | None]] = {}  # a mode's run, by the axes it reads
    rows = []
    for c in cfgs:
        for mode, reads in _SWEEP_READS.items():
            key = (mode, *(getattr(c, axis) for axis in reads))
            if key not in done:
                done[key] = _sweep_job(delivered, drops, labels, spec, c, mode)
            nbytes, auprc = done[key]
            mbps = nbytes * 8 / spec.duration_s / 1e6
            rows.append((mode.value, c.width, c.depth, c.rho, c.dsmp_delta_ns, mbps, auprc))
    # Pareto flags computed over (cost, accuracy), higher accuracy cheaper wins
    from .analysis import pareto_front

    flags = pareto_front([(row[5], -1.0 if row[6] is None else row[6]) for row in rows])
    print("# mode width depth rho dsmp_delta_ns export_mbps auprc pareto")
    for row, flag in zip(rows, flags):
        a = "NA" if row[6] is None else f"{row[6]:.4f}"
        print(f"{row[0]} {row[1]} {row[2]} {row[3]:g} {row[4]} {row[5]:.4f} {a} {int(flag)}")
    return EXIT_OK


# the grid keys of a sweep, in the order its rows print them
_SWEEP_AXES = ("width", "depth", "rho", "dsmp_delta_ns")

# the sweep axes each mode's outputs depend on (rho through the fitted edges),
# in the order the rows of a grid point are printed
_SWEEP_READS = {
    TelemetryMode.SKETCH: ("width", "depth", "rho"),
    TelemetryMode.DSMP: ("rho", "dsmp_delta_ns"),
    TelemetryMode.PM: (),
}


def _sweep_job(delivered, drops, labels, spec, cfg, mode) -> tuple[int, float | None]:
    """One mode's export bytes and pooled AUPRC at one grid point."""
    result = run_telemetry(delivered, drops, labels, spec, cfg, modes=(mode,),
                           collect_sketch_records=False)
    return result.total_bytes(mode), pooled_auprc(result, mode.value)


# One row per delivered packet, then one per dropped packet. A drop row has
# drop_reason >= 0 (the drops' PacketBatch.reason), its drop time as arrival_ns
# and 0 for bytes, sojourn_ns and color; a delivered row has drop_reason -1.
CAPTURE_COLUMNS = ("teid", "qfi", "qid", "bytes", "arrival_ns", "sojourn_ns", "color", "monitored",
                   "drop_reason")


def dump_capture(delivered: PacketBatch, drops: PacketBatch, path: Path) -> None:
    rows = [getattr(delivered, name) for name in CAPTURE_COLUMNS[:-1]]
    rows.append(np.full(len(delivered), -1))
    zero = np.zeros(len(drops), dtype=np.int64)
    drop_rows = [drops.teid, drops.qfi, drops.qid, zero, drops.arrival_ns, zero, zero,
                 drops.monitored, drops.reason]
    arr = np.concatenate([np.column_stack(rows), np.column_stack(drop_rows)])
    np.savetxt(path, arr, fmt="%d", header=" ".join(CAPTURE_COLUMNS))


def load_capture(path: Path) -> tuple[PacketBatch, PacketBatch]:
    """The delivered packets and the drops of a capture file."""
    try:
        arr = np.loadtxt(path, dtype=np.int64, ndmin=2)
    except (OSError, ValueError) as e:  # unreadable, not integers, or ragged
        raise ScenarioError(f"capture file {path}: {e}") from e
    if arr.shape[1] != len(CAPTURE_COLUMNS):
        raise ScenarioError(f"capture file {path}: expected {len(CAPTURE_COLUMNS)} columns per "
                            f"row ({' '.join(CAPTURE_COLUMNS)}), got {arr.shape[1]}")
    cols = {}
    for name, col in zip(CAPTURE_COLUMNS, arr.T):
        key = "reason" if name == "drop_reason" else name
        lo, hi = column_bounds(key)
        bad = col[(col < lo) | (col > hi)]  # values the column's type would wrap
        if len(bad):
            raise ScenarioError(f"capture file {path}: {name}: {bad[0]} outside {lo} to {hi}")
        cols[key] = col.astype(COLUMN_DTYPES[key])
    reason = cols.pop("reason")
    batch = PacketBatch(**cols, injected=None)  # a capture does not record injection
    lost = reason >= 0
    return batch.take(~lost), batch.take(lost, reason=reason[lost])


def cmd_capture(args) -> int:
    spec, _, _ = load_scenario(args.scenario, args.seed)
    delivered, drops, _ = simulate(spec)
    dump_capture(delivered, drops, Path(args.out))
    print(f"wrote {args.out} ({len(delivered)} packets, {len(drops)} drops)")
    return EXIT_OK


def cmd_replay(args) -> int:
    spec, cfg, man_sc = load_scenario(args.scenario, args.seed)
    delivered, drops = load_capture(Path(args.capture))
    labels = label_windows(spec)
    modes = _parse_modes(args.modes)
    result = run_telemetry(delivered, drops, labels, spec, cfg, modes=modes,
                           collect_sketch_records=not args.no_records)
    write_outputs(result, Path(args.out),
                  _manifest(args, man_sc, spec, cfg, modes, capture=str(args.capture)))
    for line in result.unscored:  # blocks whose training lacks a class
        print(line, file=sys.stderr)
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
