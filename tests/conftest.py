"""Shared fixtures and independent oracles.

The truth oracle here deliberately avoids the package's own binning helpers:
bins are assigned with stdlib bisect so the oracle cannot inherit a bug from
the code under test.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np
import pytest

from flowtel.analysis import extract_sketch_features
from flowtel.core import Color, FlowKey, PacketEvent


@dataclass
class FlowTruth:
    """Exact per-flow ground truth accumulated by replaying a stream."""

    pkt: int = 0
    bytes: int = 0
    lat_bins: list[int] = field(default_factory=list)
    colors: list[int] = field(default_factory=lambda: [0, 0, 0])
    own_gaps_ns: list[int] = field(default_factory=list)
    _last_arrival: int | None = None

    def head_count(self, iat_edges, head_bins: set[int]) -> int:
        """Own inter-arrival gaps landing in the (downward-closed) head set."""
        n = 0
        for g in self.own_gaps_ns:
            if bisect.bisect_right(iat_edges, g) in head_bins:
                n += 1
        return n

    def tail_count(self, tail_bins: set[int]) -> int:
        return sum(self.lat_bins[b] for b in tail_bins)


def exact_truth(
    events: list[PacketEvent], lat_edges, iat_edges, bins_b: int
) -> dict[FlowKey, FlowTruth]:
    """Replay a stream and count per-flow packets, bytes, bins, and colors."""
    lat_edges = [float(e) for e in lat_edges]
    iat_edges = [float(e) for e in iat_edges]
    truths: dict[FlowKey, FlowTruth] = {}
    for ev in events:
        t = truths.get(ev.key)
        if t is None:
            t = FlowTruth(lat_bins=[0] * bins_b)
            truths[ev.key] = t
        t.pkt += 1
        t.bytes += ev.bytes
        t.lat_bins[bisect.bisect_right(lat_edges, ev.sojourn_ns)] += 1
        t.colors[int(ev.color)] += 1
        if t._last_arrival is not None:
            t.own_gaps_ns.append(ev.arrival_ns - t._last_arrival)
        t._last_arrival = ev.arrival_ns
    return truths


def random_stream(
    rng: np.random.Generator,
    n_packets: int,
    n_flows: int,
    qid: int = 0,
    lat_scale_ns: float = 50_000.0,
    mean_gap_ns: float = 100_000.0,
) -> list[PacketEvent]:
    """Time-ordered random stream over a random flow population."""
    teids = rng.integers(1, 1 << 20, size=n_flows)
    qfis = rng.integers(0, 64, size=n_flows)
    keys = [FlowKey(int(t), int(q)) for t, q in zip(teids, qfis)]
    flow_idx = rng.integers(0, n_flows, size=n_packets)
    arrivals = np.cumsum(rng.exponential(mean_gap_ns / max(n_flows, 1), size=n_packets)).astype(
        np.int64
    ) + 1
    sojourns = rng.lognormal(mean=np.log(lat_scale_ns), sigma=1.0, size=n_packets).astype(np.int64)
    sizes = rng.integers(64, 1500, size=n_packets)
    colors = rng.choice([Color.GREEN, Color.YELLOW], size=n_packets, p=[0.9, 0.1])
    return [
        PacketEvent(
            key=keys[flow_idx[i]],
            qid=qid,
            bytes=int(sizes[i]),
            arrival_ns=int(arrivals[i]),
            sojourn_ns=int(sojourns[i]),
            color=Color(colors[i]),
        )
        for i in range(n_packets)
    ]


def batch_columns(events: list[PacketEvent]) -> tuple[np.ndarray, ...]:
    """The ``HistogramSketch.update_batch`` columns of a stream: flow codes,
    bytes, arrival and sojourn times, colors."""
    return (
        np.array([ev.key.code() for ev in events], dtype=np.uint64),
        np.array([ev.bytes for ev in events], dtype=np.int64),
        np.array([ev.arrival_ns for ev in events], dtype=np.int64),
        np.array([ev.sojourn_ns for ev in events], dtype=np.int64),
        np.array([int(ev.color) for ev in events], dtype=np.int8),
    )


def sketch_window_table(sketches, keys, region, window, qfi_to_qid):
    """One window's sketch rows from dense sketches (``counts``): each key
    queried on its queue's sketch, as the run did window by window before it
    folded chunks of windows."""
    codes = np.array([k.code() for k in keys], dtype=np.uint64)
    qids = np.array([qfi_to_qid[k.qfi] for k in keys], dtype=np.int64)
    # every queue is asked, for no key too, so an empty table keeps its fields
    ests = [sketches[q].query_flows(codes[qids == q], region) for q in sorted(sketches)]
    est = {name: np.concatenate([e[name] for e in ests]) for name in ests[0]}
    return extract_sketch_features(np.full(len(keys), window, dtype=np.int64),
                                   codes[np.argsort(qids, kind="stable")], est, region)


def row0_totals(sk, region) -> tuple[int, int]:
    """A sketch's packets this window and, of those, the ones in the
    diagnostic region, read from row 0 of ``counts``: every row sees every
    packet, so any row works."""
    n_total = int(sk.pkt[0].sum())
    n_diag = int(sk.lat[0][:, list(region.lat_tail_bins)].sum())
    n_diag += int(sk.iat[0][:, list(region.iat_head_bins)].sum())
    return n_total, min(n_diag, n_total)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
