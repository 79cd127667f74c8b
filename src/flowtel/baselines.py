"""Comparison telemetry pipelines: per-class counters and triggered postcards.

Two references bracket the design space:

* PM counters: per-QFI packet/byte/drop totals and mean delay, polled once
  per window. Exact (no sampling error) but blind below QFI granularity;
  export cost is O(active QFIs).
* Change-triggered postcards (delta sampling): a per-packet report emitted
  only when a flow's sojourn latency moved more than delta since its last
  export (first packet of a flow always exports). Cost follows traffic
  dynamics, which is exactly the property the fixed-size sketch avoids.

Both replay over the columns of the pipeline's window stream: ``pm_window``
sums one window's monitored packets and drops, and ``DeltaSampler.offer_batch``
makes one pass over a run's stream (a flow's last export carries across
windows). Their per-packet references live in tests/test_baselines.py.
Records are text lines with a leading mode tag; ``postcard_line`` formats
postcards.
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


@dataclass
class QfiCounters:
    """One QFI's aggregate counters for one window (tunnel identity erased)."""

    qfi: int
    window: int
    pkt_count: int = 0
    byte_count: int = 0
    drop_count: int = 0
    sojourn_sum_ns: int = 0

    @property
    def mean_delay_ns(self) -> float:
        if self.pkt_count == 0:
            return 0.0
        return self.sojourn_sum_ns / self.pkt_count

    def to_line(self) -> str:
        return (
            f"pm {self.window} {self.qfi} {self.pkt_count} {self.byte_count} "
            f"{self.drop_count} {self.mean_delay_ns:.3f}"
        )


def postcard_line(
    window: int, teid: int, qfi: int, qid: int, arrival_ns: int, sojourn_ns: int, color: int,
    nbytes: int,
) -> str:
    return f"dsmp {window} {teid} {qfi} {qid} {arrival_ns} {sojourn_ns} {color} {nbytes}"


def pm_window(
    qfi: np.ndarray, nbytes: np.ndarray, sojourn_ns: np.ndarray, drop_qfi: np.ndarray, window: int
) -> list[QfiCounters]:
    """Aggregate one window by QFI: ``qfi``/``nbytes``/``sojourn_ns`` are the
    window's monitored delivered packets, ``drop_qfi`` its monitored drops."""
    order = np.argsort(qfi, kind="stable")
    qfis, starts, pkts = np.unique(qfi[order], return_index=True, return_counts=True)
    # exact int64 sums handed over as Python ints: mean_delay_ns divides them
    # exactly, where a float64 sum would round once it passes 2**53 (and a
    # uint16 byte sum, in the column's own type, would wrap at 2**16)
    sums = (np.add.reduceat(col[order].astype(np.int64, copy=False), starts).tolist()
            for col in (nbytes, sojourn_ns))
    rows = {
        q: QfiCounters(q, window, pkt_count=n, byte_count=b, sojourn_sum_ns=s)
        for q, n, b, s in zip(qfis.tolist(), pkts.tolist(), *sums)
    }
    for q, n in zip(*(a.tolist() for a in np.unique(drop_qfi, return_counts=True))):
        rows.setdefault(q, QfiCounters(qfi=q, window=window)).drop_count = n
    return [rows[q] for q in sorted(rows)]


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
