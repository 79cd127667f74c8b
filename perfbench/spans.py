"""Span tracer that wraps flowtel's public entry points from outside.

Nothing in the program is edited: each entry point is replaced where its
caller looks the name up (a module global or a class attribute) by a wrapper
that records a span and, optionally, counts taken at the same boundary.
Spans stay in memory as (op, name, start, end, parent, tag) and are written
out when the run ends.

Self time of a span is its duration minus the durations of its direct
children. The time counting takes is itself recorded as a ``trace.counts``
child span, so stage self times stay clean and, with the untraced remainder
of an operation, add up to the operation's wall time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

COUNTS_SPAN = "trace.counts"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, name, start, end, parent, tag]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sketches: list = []

    # -- patching --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, tag=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``count(counts, args, result)`` adds counts after the call; ``tag(args)``
        labels the span (the sketch shape, for update_batch).
        """
        orig = getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, orig, args, kwargs, count, tag)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _call(self, name, fn, args, kwargs, count, tag):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [self.op, name, 0.0, 0.0, parent, tag(args) if tag else None]
        self.spans.append(span)
        self._stack.append(idx)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            c0 = time.perf_counter()
            count(self.counts[self.op], args, result)
            self.spans.append([self.op, COUNTS_SPAN, c0, time.perf_counter(), parent, None])
        return result

    # -- aggregation -----------------------------------------------------------

    def self_times(self, op: str) -> tuple[dict[str, float], dict[str, float], float]:
        """Per-name self time, per-tag duration, and summed root-span time."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[0] == op and s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        by_name: dict[str, float] = defaultdict(float)
        by_tag: dict[str, float] = defaultdict(float)
        roots = 0.0
        for i, s in enumerate(self.spans):
            if s[0] != op:
                continue
            dur = s[3] - s[2]
            by_name[s[1]] += dur - child_time[i]
            if s[5] is not None:
                by_tag[f"{s[1]}.{s[5]}"] += dur - child_time[i]
            if s[4] < 0:
                roots += dur
        return dict(by_name), dict(by_tag), roots

    def track_sketch(self, sketch) -> None:
        if all(sketch is not s for s in self._sketches):
            self._sketches.append(sketch)

    def close_op(self) -> None:
        """Fold per-sketch counters into the op's counts and drop the sketches."""
        self.counts[self.op]["sketch.saturated_units"] += sum(
            s.saturated_units for s in self._sketches
        )
        self._sketches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"op": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "tag": s[5]}
                ) + "\n")


# -- the flowtel boundaries ----------------------------------------------------


def _shape(args) -> str:
    cfg = args[0].config
    return f"w{cfg.width_w}-d{cfg.depth_d}"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from flowtel import cli, pipeline, simulator
    from flowtel.baselines import DeltaSampler
    from flowtel.sketch import HistogramSketch

    def c_generate(c, args, out):
        c["simulator.generate_traffic.pkts_out"] += len(out)

    def c_inject(c, args, out):
        c["simulator.inject_all.pkts_in"] += len(args[0])
        c["simulator.inject_all.pkts_added"] += len(out) - len(args[0])

    def c_queues(c, args, out):
        delivered, drops = out
        c["simulator.run_queues.pkts_in"] += len(args[0])
        c["simulator.run_queues.pkts_out"] += len(delivered)
        c["simulator.run_queues.drops_meter"] += int(np.count_nonzero(drops.reason == 0))
        c["simulator.run_queues.drops_overflow"] += int(np.count_nonzero(drops.reason == 1))

    def c_window(c, args, out):
        c["pipeline.window_stream.pkts_in"] += len(args[0])
        c["pipeline.window_stream.pkts_out"] += len(out.window)
        c["pipeline.window_stream.pkts_outside"] += len(args[0]) - len(out.window)

    def c_update(c, args, out):
        sk, n = args[0], len(args[1])
        c["sketch.update_batch.pkts"] += n
        c[f"sketch.update_batch.{_shape(args)}.pkts"] += n
        tracer.track_sketch(sk)

    def c_offer(c, args, out):
        delivered, sel = args[1], args[2]
        c["baselines.offer_batch.pkts_offered"] += int(np.count_nonzero(sel & delivered.monitored))
        c["baselines.offer_batch.postcards"] += len(out)

    def c_pm(c, args, out):
        c["baselines.pm_window.rows"] += len(out)

    def c_train(c, args, out):
        c["analysis.train_detectors.calls"] += 1

    def c_write(c, args, out):
        for f in Path(args[1]).iterdir():
            c[f"pipeline.write_outputs.bytes.{f.name}"] += f.stat().st_size
            c["pipeline.write_outputs.bytes"] += f.stat().st_size

    w = tracer.wrap
    # simulate() looks its stages up in the simulator module
    w(simulator, "generate_traffic", "simulator.generate_traffic", c_generate)
    w(simulator, "inject_all", "simulator.inject_all", c_inject)
    w(simulator, "run_queues", "simulator.run_queues", c_queues)
    w(simulator, "label_windows", "simulator.label_windows")
    # run_scenario()/run_telemetry() look these up in the pipeline module;
    # the analysis, binning and baselines stages are reached through it
    w(pipeline, "simulate", "simulator.simulate")
    w(pipeline, "run_telemetry", "pipeline.run_telemetry")
    w(pipeline, "window_stream", "pipeline.window_stream", c_window)
    w(pipeline, "fit_qid_edges", "pipeline.fit_qid_edges")
    w(pipeline, "fit_edges", "binning.fit_edges")
    w(pipeline, "pm_window", "baselines.pm_window", c_pm)
    for fn in ("extract_sketch_features", "extract_postcard_features", "extract_pm_features",
               "evaluate"):
        w(pipeline, fn, f"analysis.{fn}")
    w(pipeline, "train_detectors", "analysis.train_detectors", c_train)
    # cmd_run() looks these up in the cli module
    w(cli, "load_scenario", "cli.load_scenario")
    w(cli, "run_scenario", "pipeline.run_scenario")
    w(cli, "write_outputs", "pipeline.write_outputs", c_write)
    # methods are looked up on the class
    w(HistogramSketch, "update_batch", "sketch.update_batch", c_update, tag=_shape)
    w(HistogramSketch, "query_flows", "sketch.query_flows")
    w(HistogramSketch, "export_window_array", "sketch.export_window_array")
    w(DeltaSampler, "offer_batch", "baselines.offer_batch", c_offer)
