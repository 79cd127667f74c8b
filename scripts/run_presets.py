#!/usr/bin/env python3
"""Run the anomaly-scenario presets and print the comparison tables:
per-kind detection accuracy, responsiveness, and export cost per mode."""

import argparse
import sys
import time

from flowtel.analysis import pooled_auprc
from flowtel.pipeline import run_scenario
from flowtel.scenarios import PRESETS, build

SCENARIOS = ["microburst", "congestion", "contention", "policy_abuse", "mixed"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--presets", nargs="*", default=SCENARIOS)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    acc_rows, ttfd_rows, cost_rows = [], [], []
    for name in args.presets:
        if name not in PRESETS:
            print(f"unknown preset {name}", file=sys.stderr)
            return 1
        t0 = time.time()
        spec, cfg = build(name, seed=args.seed)
        res = run_scenario(spec, cfg, collect_sketch_records=False)
        dt = time.time() - t0
        for m in res.metrics:
            acc_rows.append((name, m.kind, m.mode, m.auprc, m.f1))
            ttfd_rows.append((name, m.kind, m.mode, m.ttfd_median_s,
                              m.ttfd_censored, m.ttfd_instances))
        if name == "mixed":
            for mode in ("sketch", "dsmp", "pm"):
                acc_rows.append((name, "pooled", mode, pooled_auprc(res, mode), float("nan")))
        for mode in res.modes:
            mbps = res.total_bytes(mode) * 8 / spec.duration_s / 1e6
            cost_rows.append((name, mode.value, mbps))
        print(f"[{name}] done in {dt:.0f}s", file=sys.stderr)

    print("\n== detection accuracy (AUPRC / F1) ==")
    print(f"{'scenario':13s} {'kind':13s} {'mode':6s} {'auprc':>7s} {'f1':>6s}")
    for name, kind, mode, a, f1 in acc_rows:
        a_s = "   NA" if a is None else f"{a:7.3f}"
        print(f"{name:13s} {kind:13s} {mode:6s} {a_s} {f1:6.3f}")

    print("\n== responsiveness (median TTFD seconds; censored = never detected) ==")
    print(f"{'scenario':13s} {'kind':13s} {'mode':6s} {'ttfd':>6s} {'missed':>7s}")
    for name, kind, mode, t, cens, inst in ttfd_rows:
        t_s = "  NA" if t is None else f"{t:6.2f}"
        print(f"{name:13s} {kind:13s} {mode:6s} {t_s} {cens:4d}/{inst}")

    print("\n== export cost (Mbps) ==")
    for name, mode, mbps in cost_rows:
        print(f"{name:13s} {mode:6s} {mbps:9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
