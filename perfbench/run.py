#!/usr/bin/env python3
"""flowtel benchmark harness.

Run from the root of a checkout (the program is imported from ``src/``):

  python3 perfbench/run.py --workload sketch-sweep --seed 3 --seconds 45 --trace 0
  python3 perfbench/run.py --self-check          # harness check on the smoke preset
  python3 perfbench/run.py --record [--workload NAME]   # re-record reference digests

One process runs one workload as a closed loop: one operation at a time, no
worker pool, ``FLOWTEL_WORKERS`` unset. Operations repeat until ``--seconds``
have passed (at least one runs). Every operation's outputs are hashed and
compared with ``digests.json``; a mismatch, an exception or a non-zero exit
counts as a failed operation.

``--trace 0`` reports the end-to-end metrics with tracing off; calibration
chunks between its operations track the shared host's speed, and the
``norm_*`` metrics rescale operation times by it (see Calibration). ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones (see spans.py); their difference is ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it print
every metric by name with its unit, plus the machine facts of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# --seed values map onto this many scenario seeds per workload, all of which
# have recorded reference digests, so every operation's output is checkable.
SEED_CLASSES = 10
SETUP_PROBES = 7
OUTPUT_FILES = ("records.bin", "records.txt", "features.txt", "outcomes.txt", "labels.txt",
                "metrics.txt")
SWEEP_SHAPES = ((256, 3), (4096, 3), (256, 6))
MODES = ("sketch", "dsmp", "pm")
# spans whose children cover most of their time report self time as .self_s
PARENT_SPANS = ("pipeline.run_scenario", "simulator.simulate", "pipeline.run_telemetry")
# Host-speed calibration (see Calibration). With tracing off, each operation is
# followed by calibration chunks for about CAL_SHARE of its time, at least one;
# norm_* metrics rescale each operation's time to a host on which a chunk takes
# CAL_REF_S seconds.
CAL_SHARE = 0.12
CAL_REF_S = 0.25
CAL_KEYS_N = 300_000
CAL_LOOP_N = 400_000
CAL_BIG_N = 1_000_000
CAL_TABLE_N = 4_000_000  # 32 MB of int64


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # preset name or scenario file, as `flowtel run --scenario` takes it
    base_seed: int  # the preset's own seed
    sweep: bool = False  # replay one simulated stream through sketch-only telemetry per shape


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed-short", str(HERE / "mixed_short.json"), 55),
        Workload("burst_cost", "burst_cost", 66),
        Workload("sketch-sweep", str(HERE / "contention_short.json"), 33, sweep=True),
        Workload("smoke", "smoke", 1),  # harness self-check only
    )
}


def scenario_seed(wl: Workload, seed: int) -> int:
    return wl.base_seed + seed % SEED_CLASSES


def unit_of(name: str) -> str:
    if name.endswith("pkts_per_s"):
        return "pkts/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.startswith("export_mbps"):
        return "Mbps"
    if name.startswith("auprc") or name.endswith(("_frac", "_ratio")):
        return "ratio"
    if ".bytes" in name:
        return "B"
    return "count"


# -- program import and machine facts ----------------------------------------------


def import_flowtel() -> None:
    if not (SRC / "flowtel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flowtel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowtel

    if Path(flowtel.__file__).resolve().parent != (SRC / "flowtel").resolve():
        sys.exit(f"perfbench: imported flowtel from {flowtel.__file__}, not from {SRC}")


def loadavg_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


class Calibration:
    """A fixed chunk of work that shares no code with flowtel, timed between
    operations to track the host's current speed.

    The host is shared, and its speed drifts by a fifth or more over minutes,
    moving every operation of a run together. The chunk mixes the kinds of
    work flowtel does: a stable sort and bincount over an array that fits in
    cache, a plain interpreter loop, and a gather, sort and scatter over arrays
    far larger than the last-level cache. An operation's time divided by the
    median time of the chunks run right after it cancels most of that drift.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20251027)
        self.keys = rng.integers(0, 1 << 32, CAL_KEYS_N, dtype=np.uint64)
        self.big_keys = rng.integers(0, 1 << 32, CAL_BIG_N, dtype=np.uint64)
        self.table = rng.integers(0, 1 << 20, CAL_TABLE_N)
        self.index = rng.integers(0, CAL_TABLE_N, CAL_BIG_N)
        self.marks = np.zeros(CAL_TABLE_N, dtype=np.int8)
        self.times: list[float] = []

    def chunk(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        order = np.argsort(self.keys, kind="stable")
        mixed = (self.keys[order] * np.uint64(2654435761)) >> np.uint64(20)
        counts = np.bincount((mixed & np.uint64(4095)).astype(np.intp), minlength=4096)
        acc = 0
        for k in range(CAL_LOOP_N):
            acc ^= (k * 2654435761) & 0xFFFF
        gathered = int(self.table[self.index].sum())
        big_order = np.argsort(self.big_keys, kind="stable")
        np.put(self.marks, big_order[: CAL_BIG_N // 2], 1)
        t = time.perf_counter() - t0
        if int(counts.sum()) != CAL_KEYS_N or acc < 0 or gathered < 0:
            raise RuntimeError("calibration chunk miscounted")
        self.times.append(t)
        return t

    def run_for(self, seconds: float) -> float:
        """One chunk, then more while that brings the time spent nearer ``seconds``;
        returns the median time of these chunks."""
        block = [self.chunk()]
        while sum(block) + 0.5 * self.median() < seconds:
            block.append(self.chunk())
        return statistics.median(block)

    def median(self) -> float:
        return statistics.median(self.times)


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_start": loadavg_1m(),
    }


# -- set-up ----------------------------------------------------------------------

# a fresh interpreter imports flowtel and builds the scenario, as `flowtel run` does
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from flowtel import cli; "
    "cli.load_scenario(sys.argv[2], int(sys.argv[3]))"
)


def probe_setup(wl: Workload, seed: int) -> float:
    """Median wall time of SETUP_PROBES fresh processes doing the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), wl.scenario, str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class SweepState:
    delivered: object
    drops: object
    labels: list
    spec: object
    cfg: object


def scenario(wl: Workload, seed: int):
    from flowtel import cli

    spec, cfg, _ = cli.load_scenario(wl.scenario, seed)
    return spec, cfg


def prepare_sweep(wl: Workload, seed: int) -> tuple[SweepState, float]:
    from flowtel import pipeline

    spec, cfg = scenario(wl, seed)
    t0 = time.perf_counter()
    delivered, drops, labels = pipeline.simulate(spec)
    return SweepState(delivered, drops, labels, spec, cfg), time.perf_counter() - t0


# -- operations --------------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    ok: bool
    traced: bool
    error: str = ""
    cal_s: float = 0.0  # median calibration chunk right after the operation
    results: dict = field(default_factory=dict)  # deterministic results of the op


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pooled_auprc(scored, positives: set[int], n_windows: int) -> float | None:
    """Any-anomaly AUPRC of one mode, pooled the way `flowtel sweep` pools it:
    each window scores the max over every kind's outcomes, floored at 0."""
    from flowtel.analysis import auprc

    best = [0.0] * n_windows
    for w, s in scored:
        best[w] = max(best[w], s)
    return auprc([int(w in positives) for w in range(n_windows)], best)


def run_results(out_dir: Path, duration_s: float) -> dict:
    """Export cost, pooled AUPRC and written bytes from one run's output files."""
    metrics = (out_dir / "metrics.txt").read_text().splitlines()
    rows = [ln.split() for ln in metrics if not ln.startswith("#")]
    n_windows = int(rows[0][5])
    results: dict = {}
    for ln in metrics:
        if ln.startswith("# cost "):
            _, _, mode, nbytes, _ = ln.split()
            results[f"export_bytes.{mode}"] = int(nbytes.split("=")[1])
            results[f"export_mbps.{mode}"] = results[f"export_bytes.{mode}"] * 8 / duration_s / 1e6
    positives = {
        int(ln.split()[0]) for ln in (out_dir / "labels.txt").read_text().splitlines()
        if not ln.startswith("#")
    }
    scored: dict[str, list] = {m: [] for m in MODES}
    for ln in (out_dir / "outcomes.txt").read_text().splitlines():
        if ln.startswith("#"):
            continue
        _, mode, window, _, score, _ = ln.split()
        scored[mode].append((int(window), float(score)))
    for mode, pairs in scored.items():
        if pairs:
            results[f"auprc.{mode}"] = pooled_auprc(pairs, positives, n_windows)
    # bytes on disk next to the cost model's bytes (records.txt holds pm and dsmp rows)
    results["written_bytes.sketch"] = (out_dir / "records.bin").stat().st_size \
        if (out_dir / "records.bin").exists() else 0
    for mode in ("dsmp", "pm"):
        results[f"written_bytes.{mode}"] = 0
    with open(out_dir / "records.txt", "rb") as fh:
        for ln in fh:
            tag = ln.split(b" ", 1)[0].decode()
            if tag in ("dsmp", "pm"):
                results[f"written_bytes.{tag}"] += len(ln)
    return results


def flowtel_run(wl: Workload, seed: int, out_dir: Path) -> tuple[float, int]:
    """One `flowtel run` of the workload's scenario; returns (wall seconds, exit code)."""
    from flowtel import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["run", "--scenario", wl.scenario, "--seed", str(seed), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(args)
        return time.perf_counter() - t0, rc


def run_op(wl: Workload, seed: int, out_dir: Path, ref: dict | None,
           duration_s: float) -> OpResult:
    wall, rc = flowtel_run(wl, seed, out_dir)
    if rc != 0:
        return OpResult(wall, False, False, f"flowtel run exited {rc}")
    return check_run(wall, out_dir, ref, duration_s)


def file_digests(out_dir: Path) -> dict[str, str | None]:
    return {
        f: sha256((out_dir / f).read_bytes()) if (out_dir / f).is_file() else None
        for f in OUTPUT_FILES
    }


def check_run(wall: float, out_dir: Path, ref: dict | None, duration_s: float) -> OpResult:
    digests = file_digests(out_dir)
    if ref is None:
        return OpResult(wall, False, False, "no reference digests for this seed")
    bad = [f for f in OUTPUT_FILES if digests[f] != ref["files"][f]]
    if bad:
        return OpResult(wall, False, False, "output differs from reference: " + ", ".join(bad))
    return OpResult(wall, True, False, results=run_results(out_dir, duration_s))


def sweep_results_text(result) -> bytes:
    """One grid point's results through the program's own serialisers."""
    from flowtel import pipeline

    lines = pipeline.feature_lines(result.modes[next(iter(result.modes))].features)
    lines += pipeline.outcome_lines(result.outcomes) + pipeline.metrics_lines(result)
    return ("\n".join(lines) + "\n").encode()


def shape_name(w: int, d: int) -> str:
    return f"w{w}-d{d}"


def sweep_telemetry(st: SweepState) -> list:
    """Sketch-only telemetry over the simulated stream, once per grid shape."""
    from flowtel import pipeline
    from flowtel.baselines import TelemetryMode

    return [
        pipeline.run_telemetry(
            st.delivered, st.drops, st.labels, st.spec,
            dataclasses.replace(st.cfg, width=w, depth=d),
            modes=(TelemetryMode.SKETCH,), collect_sketch_records=False,
        )
        for w, d in SWEEP_SHAPES
    ]


def sweep_digests(results: list) -> dict[str, str]:
    return {shape_name(w, d): sha256(sweep_results_text(r))
            for (w, d), r in zip(SWEEP_SHAPES, results)}


def sweep_op(st: SweepState, ref: dict | None) -> OpResult:
    t0 = time.perf_counter()
    runs = sweep_telemetry(st)
    wall = time.perf_counter() - t0
    digests = sweep_digests(runs)
    if ref is None:
        return OpResult(wall, False, False, "no reference digests for this seed")
    bad = [k for k, v in digests.items() if v != ref["shapes"][k]]
    if bad:
        return OpResult(wall, False, False, "sweep results differ from reference: " + ", ".join(bad))
    results: dict = {}
    for (w, d), r in zip(SWEEP_SHAPES, runs):
        (sk,) = r.modes.values()
        pos = {lb.window for lb in r.labels}
        scored = [(o.window, o.score) for outs in r.outcomes.values() for o in outs]
        results[f"export_mbps.sketch.{shape_name(w, d)}"] = sum(sk.bytes_per_window) * 8 \
            / st.spec.duration_s / 1e6
        results[f"auprc.sketch.{shape_name(w, d)}"] = pooled_auprc(scored, pos, len(r.windows))
    for key in ("export_mbps.sketch", "auprc.sketch"):
        vals = [results[f"{key}.{shape_name(w, d)}"] for w, d in SWEEP_SHAPES]
        results[key] = None if None in vals else statistics.fmean(vals)
    return OpResult(wall, True, False, results=results)


def guarded(op) -> OpResult:
    """Run one operation; an exception is a failed operation, not a crashed run."""
    t0 = time.perf_counter()
    try:
        return op()
    except Exception as e:  # noqa: BLE001 - the harness must keep measuring
        return OpResult(time.perf_counter() - t0, False, False, f"{e.__class__.__name__}: {e}")


# -- per-layer metrics from a trace --------------------------------------------------


def layer_metrics(tracer, op: str, wall: float) -> dict[str, float]:
    self_t, by_tag, roots = tracer.self_times(op)
    c = tracer.counts[op]
    m: dict[str, float] = {}
    for name, t in self_t.items():
        m[f"{name}.self_s" if name in PARENT_SPANS else f"{name}.s"] = t
    for key, t in by_tag.items():
        pkts = c.get(f"{key}.pkts", 0)
        m[f"{key}.pkts_per_s"] = pkts / t if t > 0 else 0.0
    m.update(c)

    def rate(stage: str, count: str) -> None:
        t = self_t.get(stage, 0.0)
        if t > 0:
            m[f"{stage}.pkts_per_s"] = c.get(count, 0) / t

    rate("simulator.run_queues", "simulator.run_queues.pkts_in")
    rate("sketch.update_batch", "sketch.update_batch.pkts")
    rate("baselines.offer_batch", "baselines.offer_batch.pkts_offered")
    if c.get("baselines.offer_batch.pkts_offered"):
        m["baselines.offer_batch.postcard_ratio"] = (
            c["baselines.offer_batch.postcards"] / c["baselines.offer_batch.pkts_offered"]
        )
    m["trace.untraced_s"] = wall - roots
    m["trace.wall_s"] = wall
    # every span's self time plus the untraced remainder; equals trace.wall_s
    m["trace.accounted_s"] = sum(self_t.values()) + wall - roots
    return m


# -- the run -----------------------------------------------------------------------


def load_reference(wl: Workload, seed: int) -> dict | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(seed))


def bench(wl: Workload, seed_arg: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result document."""
    from spans import Tracer, install

    seed = scenario_seed(wl, seed_arg)
    ref = load_reference(wl, seed)
    facts = machine_facts()
    out_dir = WORK / f"{wl.name}-op"
    tracer = Tracer()

    setup_s = probe_setup(wl, seed) if not trace else None
    state = None
    if wl.sweep:
        if trace:
            install(tracer)
        try:
            state, sim_s = prepare_sweep(wl, seed)
        finally:
            tracer.close_op()
            tracer.unwrap_all()
        if setup_s is not None:
            setup_s += sim_s
        packets = len(state.delivered) * len(SWEEP_SHAPES)
    else:
        packets = ref["packets"] if ref else 0
    duration_s = scenario(wl, seed)[0].duration_s

    def one_op(traced: bool) -> OpResult:
        if traced:
            tracer.op = f"op{len(ops)}"
            install(tracer)
        try:
            if wl.sweep:
                res = guarded(lambda: sweep_op(state, ref))
            else:
                res = guarded(lambda: run_op(wl, seed, out_dir, ref, duration_s))
        finally:
            if traced:
                tracer.close_op()
                tracer.unwrap_all()
        res.traced = traced
        if not res.ok:
            print(f"perfbench: operation {len(ops)} failed: {res.error}", file=sys.stderr)
        return res

    ops: list[OpResult] = []
    cal = None
    t_start = time.perf_counter()
    while True:
        n_traced = sum(o.traced for o in ops)
        traced = trace and n_traced < len(ops) - n_traced
        ops.append(one_op(traced))
        if len(ops) == 1:  # later operations grow the heap further; keep one comparable
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            cal = Calibration()  # after the peak is read, so its arrays stay out of it
        if not trace:
            ops[-1].cal_s = cal.run_for(CAL_SHARE * ops[-1].wall_s)
        done = time.perf_counter() - t_start >= seconds
        if done and (not trace or sum(o.traced for o in ops) > 0):
            break

    failed = sum(not o.ok for o in ops)
    good = next((o for o in ops if o.ok), None)
    det = good.results if good else {}
    untraced = [o.wall_s for o in ops if not o.traced]
    wall_s = statistics.median(untraced)

    end_to_end = {
        "wall_s": wall_s,
        "pkts_per_s": statistics.median(packets / w for w in untraced),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": failed / len(ops),
    }
    if not trace:
        # each operation against the host speed measured right after it
        norm = [o.wall_s * CAL_REF_S / o.cal_s for o in ops]
        end_to_end["cal_s"] = cal.median()
        end_to_end["norm_wall_s"] = statistics.median(norm)
        end_to_end["norm_pkts_per_s"] = statistics.median(packets / w for w in norm)
    for key in sorted(det):
        if key.startswith(("export_mbps", "auprc")):
            end_to_end[key] = det[key]

    layers: dict[str, float] = {}
    if trace:
        traced_ops = [(f"op{i}", o) for i, o in enumerate(ops) if o.traced]
        per_op = [layer_metrics(tracer, name, o.wall_s) for name, o in traced_ops]
        if wl.sweep:  # the simulator runs once, in set-up
            setup = layer_metrics(tracer, "setup", 0.0)
            for m in per_op:
                m.update({k: v for k, v in setup.items() if k.startswith("simulator.")})
        keys = sorted(set().union(*per_op))
        layers = {k: statistics.median(m.get(k, 0.0) for m in per_op) for k in keys}
        layers["trace.overhead_s"] = statistics.median(o.wall_s for _, o in traced_ops) - wall_s
        for mode in MODES:
            if f"export_bytes.{mode}" in det:
                layers[f"export.{mode}.bytes_model"] = det[f"export_bytes.{mode}"]
                layers[f"export.{mode}.bytes_written"] = det[f"written_bytes.{mode}"]
        tracer.write(WORK / "traces" / f"{wl.name}-seed{seed_arg}.spans.jsonl")

    facts["loadavg_1m_end"] = loadavg_1m()
    return {
        "workload": wl.name,
        "seed": seed_arg,
        "scenario_seed": seed,
        "trace": trace,
        "seconds": seconds,
        "facts": facts,
        "attempted": len(ops),
        "failed": failed,
        "errors": [o.error for o in ops if not o.ok],
        "op_wall_s": [o.wall_s for o in ops],
        "op_traced": [o.traced for o in ops],
        "cal_chunk_s": cal.times if cal else [],
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


def listed_metrics(doc: dict, listed: list[dict]) -> dict:
    src = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    out = {}
    for spec in listed:
        v = src.get(spec["name"])
        out[spec["name"]] = {"value": 0.0 if v is None else v, "unit": spec["unit"]}
    return out


def print_report(doc: dict) -> None:
    print(f"# perfbench workload={doc['workload']} seed={doc['seed']} "
          f"scenario_seed={doc['scenario_seed']} trace={int(doc['trace'])} "
          f"ops={doc['attempted']} failed={doc['failed']}")
    section = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    for name in sorted(section):
        v = section[name]
        shown = "NA" if v is None else f"{v:.6g}"
        print(f"{name} {shown} {unit_of(name)}")
    print("# facts " + json.dumps(doc["facts"], sort_keys=True))


def write_result(doc: dict) -> None:
    path = WORK / "results" / f"{doc['workload']}-seed{doc['seed']}-trace{int(doc['trace'])}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# -- reference digests ----------------------------------------------------------------


def record(names: list[str]) -> None:
    """Record reference digests (and packet counts) for every seed class."""
    from spans import Tracer, install

    for name in names:
        wl = WORKLOADS[name]
        entries = {}
        for k in range(SEED_CLASSES):
            seed = scenario_seed(wl, k)
            if wl.sweep:
                st, _ = prepare_sweep(wl, seed)
                entry = {"packets": len(st.delivered) * len(SWEEP_SHAPES),
                         "shapes": sweep_digests(sweep_telemetry(st))}
            else:
                out_dir = WORK / f"{name}-record"
                tracer = Tracer()  # counts the arrivals entering the queues
                install(tracer)
                try:
                    _, rc = flowtel_run(wl, seed, out_dir)
                finally:
                    tracer.unwrap_all()
                if rc != 0:
                    raise SystemExit(f"perfbench: {name} seed {seed}: flowtel run exited {rc}")
                entry = {"packets": int(tracer.counts["setup"]["simulator.run_queues.pkts_in"]),
                         "files": file_digests(out_dir)}
            entries[str(seed)] = entry
            print(f"recorded {name} seed {seed}: {entry['packets']} packets", flush=True)
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[name] = entries
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# -- self-check -----------------------------------------------------------------------


def self_check() -> int:
    """Exercise the harness on the smoke preset in a few seconds."""
    listed = json.loads(BENCHMARK.read_text())
    problems = []
    wl = WORKLOADS["smoke"]
    for trace in (False, True):
        doc = bench(wl, 0, 0.0, trace)
        print_report(doc)
        if doc["failed"]:
            problems.append(f"smoke trace={int(trace)}: {doc['errors']}")
        section = doc["per_layer"] if trace else doc["end_to_end"]
        for spec in listed["per_layer" if trace else "end_to_end"]:
            if spec["name"] not in section:
                problems.append(f"metric {spec['name']} not reported")
            elif spec["unit"] != unit_of(spec["name"]):
                problems.append(f"metric {spec['name']}: unit {spec['unit']} != {unit_of(spec['name'])}")
    # a corrupted output file must be reported as a failed operation
    seed = scenario_seed(wl, 0)
    out_dir = WORK / "smoke-corrupt"
    ref = load_reference(wl, seed)
    duration_s = scenario(wl, seed)[0].duration_s
    if not run_op(wl, seed, out_dir, ref, duration_s).ok:
        problems.append("clean smoke run did not match its reference")
    with open(out_dir / "metrics.txt", "ab") as fh:
        fh.write(b"#")
    corrupted = check_run(0.0, out_dir, ref, duration_s)
    print(f"# corrupted metrics.txt -> ok={corrupted.ok} ({corrupted.error})")
    if corrupted.ok:
        problems.append("corrupted output was not detected")
    for p in problems:
        print(f"SELF-CHECK FAIL: {p}")
    print("SELF-CHECK " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 gives each preset's own seed")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    os.environ.pop("FLOWTEL_WORKERS", None)
    import_flowtel()
    if args.self_check:
        return self_check()
    if args.record:
        record([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    listed = json.loads(BENCHMARK.read_text())
    doc = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    write_result(doc)
    print_report(doc)
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": listed_metrics(doc, listed["per_layer" if doc["trace"] else "end_to_end"]),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
