"""Comparison telemetry pipelines: per-class counters and triggered postcards.

Two references bracket the design space:

* PM counters: per-QFI packet/byte/drop totals and mean delay, polled once
  per window. Exact (no sampling error) but blind below QFI granularity;
  export cost is O(active QFIs).
* Change-triggered postcards (delta sampling): a per-packet report emitted
  only when a flow's sojourn latency moved more than delta since its last
  export (first packet of a flow always exports). Cost follows traffic
  dynamics, which is exactly the property the fixed-size sketch avoids.

Both make one pass over the columns of a run's window stream:
``pm_window`` groups the monitored packets and drops into one record array
of (window, QFI) counters, and ``DeltaSampler.offer_batch`` picks the
postcards (a flow's last export carries across windows). Their per-packet
references live in tests/test_baselines.py. Records are text lines with a
leading mode tag; ``postcard_line`` formats postcards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .simulator import PacketBatch, flow_codes
from .sketch import record_dtype


class TelemetryMode(Enum):
    PM = "pm"
    SKETCH = "sketch"
    DSMP = "dsmp"


PM_RECORD_BYTES = 32
POSTCARD_BYTES = 32


def sketch_record_bytes(bins_b: int) -> int:
    """Cost-model size of one bucket record: its ``record_dtype`` encoding
    without the 8-byte window/qid header, which the collector knows."""
    return record_dtype(bins_b).itemsize - 8


def postcard_line(
    window: int, teid: int, qfi: int, qid: int, arrival_ns: int, sojourn_ns: int, color: int,
    nbytes: int,
) -> str:
    return f"dsmp {window} {teid} {qfi} {qid} {arrival_ns} {sojourn_ns} {color} {nbytes}"


PM_DTYPE = np.dtype([(name, np.int64) for name in (
    "window", "qfi", "pkt_count", "byte_count", "drop_count")] + [("mean_delay_ns", np.float64)])


def pm_window(
    window: np.ndarray, qfi: np.ndarray, nbytes: np.ndarray, sojourn_ns: np.ndarray,
    sel: np.ndarray, drop_window: np.ndarray, drop_qfi: np.ndarray,
) -> np.recarray:
    """A run's per-QFI counters, one ``PM_DTYPE`` record per (window, QFI)
    with a monitored packet or drop, in (window, qfi) order: ``sel`` marks
    the monitored rows of the delivered columns, and ``drop_window`` and
    ``drop_qfi`` are the monitored drops inside the run's windows. A record
    without packets has a mean delay of 0.0."""
    seen = np.zeros(256, dtype=bool)  # qfi fits its column's 8 bits
    seen[qfi], seen[drop_qfi] = True, True
    n_q = int(seen.sum())
    col = (np.cumsum(seen) - 1).astype(np.uint8)  # each QFI's column in a window's row
    n_cells = (max(window.max(initial=-1), drop_window.max(initial=-1)) + 1) * n_q
    # one cell per (window, QFI), as the smallest type that holds them; the
    # unmonitored packets land in the spare cell n_cells
    cell = window.astype(np.min_scalar_type(n_cells)) * n_q + col[qfi]
    cell[~sel] = n_cells
    # exact int64 sums: a uint16 byte sum would wrap at 2**16, and a float64
    # sojourn sum would round past 2**53, where the mean divides Python ints
    pkts, drops, nbyte, soj = np.zeros((4, n_cells + 1), dtype=np.int64)
    np.add.at(pkts, cell, 1)
    np.add.at(drops, drop_window * n_q + col[drop_qfi], 1)
    np.add.at(nbyte, cell, nbytes.astype(np.int64))
    np.add.at(soj, cell, sojourn_ns)
    (keep,) = np.nonzero((pkts[:-1] > 0) | (drops[:-1] > 0))  # cell order is (window, qfi) order
    rows = np.recarray(len(keep), dtype=PM_DTYPE)
    rows.window, rows.qfi = keep // n_q, np.flatnonzero(seen)[keep % n_q]
    rows.pkt_count, rows.byte_count, rows.drop_count = pkts[keep], nbyte[keep], drops[keep]
    rows.mean_delay_ns = [s / n if n else 0.0
                          for s, n in zip(soj[keep].tolist(), pkts[keep].tolist())]
    return rows


@dataclass
class DeltaSampler:
    """Per-flow change detector over sojourn latency.

    Emits a postcard when |sojourn - last_exported_sojourn| > delta_ns; the
    first packet of a flow always exports. State is an exact per-flow map
    (a deployable version would sketch it; as a visibility/cost reference the
    exact map is the fairest comparison).
    """

    delta_ns: int
    last_exported: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.delta_ns <= 0:
            raise ValueError(f"delta_ns must be positive, got {self.delta_ns}")

    def offer_batch(self, batch: PacketBatch, sel: np.ndarray) -> np.ndarray:
        """Indices of the selected monitored packets that export postcards, in
        batch order. The batch needs its ``sojourn_ns`` column: a delivered
        batch, or the pipeline's window stream."""
        idx = np.flatnonzero(sel & batch.monitored)
        codes = memoryview(flow_codes(batch.teid[idx], batch.qfi[idx]))
        soj = memoryview(batch.sojourn_ns[idx])
        delta = self.delta_ns
        last = self.last_exported
        out = []
        for j, (code, s) in enumerate(zip(codes, soj)):
            prev = last.get(code)
            if prev is None or abs(s - prev) > delta:
                last[code] = s
                out.append(j)
        return idx[out]


def export_cost(
    mode: TelemetryMode,
    *,
    active_qfis: int = 0,
    width: int = 0,
    depth: int = 0,
    bins_b: int = 8,
    num_qids: int = 0,
    postcards: int = 0,
) -> int:
    """Bytes exported for one window under each telemetry mode.

    PM scales with active QFIs, postcards with traffic; the sketch cost is a
    pure function of configuration, identical for an idle window and a burst.
    """
    if mode is TelemetryMode.PM:
        return PM_RECORD_BYTES * active_qfis
    if mode is TelemetryMode.SKETCH:
        return sketch_record_bytes(bins_b) * depth * width * num_qids
    return POSTCARD_BYTES * postcards
