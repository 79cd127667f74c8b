"""Histogram-augmented count-min sketch with per-queue instances.

A plain count-min sketch answers "how many packets did flow k send" from a
d x w counter grid: hash the key with d row hashes, increment d buckets,
query by taking the minimum over the d candidates. The minimum never
underestimates, and the overestimate is bounded by collision noise.

Here every bucket is enriched beyond a packet counter: it also tallies bytes,
a latency histogram, an inter-arrival-time histogram, and meter colors. The
IAT is computed against the bucket's own last-seen timestamp rather than
per-flow state, so memory stays O(d*w) no matter how many flows are live;
colliding flows perturb each other's IAT samples by design, and the sizing
rules elsewhere account for that noise.

A bucket's counters are one row of the int64 array ``counts[d, w, 2B+5]``, in
``record_dtype``'s field order (``counter_slices``); ``pkt``, ``byt``,
``lat``, ``iat`` and ``col`` view its slices. Counters saturate at their
storage width (32-bit packet/bin/color counters, 64-bit byte counters) instead
of wrapping; lost units are tallied in a per-sketch saturation counter.
Timestamps survive window resets so IAT tracking stays continuous across
windows; the UNSET sentinel only marks buckets that have never seen a packet.

Two update paths exist: ``update`` consumes one PacketEvent (the reference
semantics) and ``update_batch`` folds column arrays into all d rows,
bit-identically for the same event order (tests pin the equivalence), in two
steps. A chunk's summary (``summarize``), the same for every (w, d), ranks the
codes and (window, flow) pairs as ``np.unique`` would, without sorting dense
values (``_rank``), and sums each pair's packets once (``_fold``, which folds
the postcard tables too). A placement per shape hashes the codes: a cell one
flow has to itself in a row takes its pair's record, and one that several
flows share is folded again from their packets alone. So a placement folds in
proportion to the packets in shared cells, and reads none if no cell is shared.
Given each packet's window, a batch is a chunk of whole windows, each starting
from zero counters, and the groups are per window: the sketch then holds the
chunk's (window, cell) records, sorted by key, so that one fold and one query
serve all its windows and export writes any one of them out. Each cell also takes one IAT sample per window
against the last stamp it saw. An increment beyond a counter's headroom is
clipped to it and the excess tallied, which equals per-packet saturation since
increments are never negative; no add can overflow.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import (
    FlowKey,
    PacketEvent,
    SketchConfig,
    bucket_index,
    bucket_index_array,
)

if TYPE_CHECKING:
    from .binning import DiagnosticRegion

UNSET_NS = -1

PKT_COUNTER_MAX = (1 << 32) - 1
BYTE_COUNTER_MAX = (1 << 63) - 1


def bin_of(value_ns: int | float, edges: Sequence[float] | np.ndarray) -> int:
    """Histogram bin for a value under ascending edges.

    Returns the smallest i with value < edges[i], or len(edges) (the overflow
    bin) when the value is at or beyond the last edge. Total over all inputs.
    """
    return int(np.searchsorted(np.asarray(edges), value_ns, side="right"))


@dataclass(frozen=True)
class FlowEstimate:
    """Row-minimum reconstruction of one flow's window behavior.

    Every component is >= the flow's true value on the same stream; the
    minimum over rows can only retain collision noise, never drop mass.
    """

    key: FlowKey
    pkt_est: int
    byte_est: int
    lat_bin_est: tuple[int, ...]
    iat_bin_est: tuple[int, ...]
    color_est: tuple[int, int, int]
    diag_est: int


def counter_slices(bins_b: int) -> dict[str, int | slice]:
    """Where each field of a bucket sits on the last axis of
    ``HistogramSketch.counts``: the packet count, the byte count, B latency
    bins, B IAT bins and the green, yellow and red counts, in
    ``record_dtype``'s order. The keys are ``query_flows``' keys."""
    b = bins_b
    return {"pkt": 0, "bytes": 1, "lat": slice(2, 2 + b), "iat": slice(2 + b, 2 + 2 * b),
            "color": slice(2 + 2 * b, 5 + 2 * b)}


def record_dtype(bins_b: int) -> np.dtype:
    """The one encoding of an exported bucket. ``records.bin`` holds these
    records back to back: window by window, each window's queues by ascending
    qid, each queue's d*w buckets row by row.

    Little-endian, packed, ``struct`` format ``<5IQ{2B+3}I``: window, qid,
    row, col and the packet count as u32, the byte count as u64, then B
    latency bins, B IAT bins and the green, yellow and red counts as u32.
    That is 4 * (2B + 8) + 8 bytes, 104 at B = 8.
    """
    return np.dtype(
        [
            ("window", "<u4"),
            ("qid", "<u4"),
            ("row", "<u4"),
            ("col", "<u4"),
            ("pkt", "<u4"),
            ("bytes", "<u8"),
            ("lat", "<u4", (bins_b,)),
            ("iat", "<u4", (bins_b,)),
            ("green", "<u4"),
            ("yellow", "<u4"),
            ("red", "<u4"),
        ]
    )


def _count_le(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, values, side="right")`` for ascending edges:
    how many edges are at or below each value, compared in their common
    type. One comparison per edge, counted in the narrowest type that holds
    the count, beats a binary search over a histogram's few edges; its cost
    grows with the number of edges."""
    v = np.asarray(values, np.result_type(values, edges))
    out = np.zeros(len(v), np.min_scalar_type(len(edges)))
    for e in edges:
        out += v >= e
    return out


def _rank(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(v, return_inverse=True)`` of integers, without sorting v
    when its values are dense: values whose range is no wider than v are
    counted over that range. Other values are sorted by ``np.unique``."""
    if len(v) and int(v.max()) - int(v.min()) < len(v):
        lo = v.min()
        off = (v - lo).astype(np.intp)
        seen = np.bincount(off) > 0
        return np.flatnonzero(seen).astype(v.dtype) + lo, (np.cumsum(seen) - 1)[off]
    return np.unique(v, return_inverse=True)


def _fold(gid: np.ndarray, ng: int, byts: np.ndarray, arrival_ns: np.ndarray,
          sojourn_ns: np.ndarray, colors: np.ndarray, lat_edges: np.ndarray,
          iat_edges: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sum ng non-empty groups of packets, the one fold of a (window, flow)
    record: packet k of the columns (in stream order) is in group gid[k]. A
    stable radix sort of the group ids lists each group's packets in stream
    order. Gives each group's record (packet count, exact byte sum, latency,
    color and inner-gap histograms under the edges, with negative gaps clamped
    to 0), first and last stamps and negative gaps."""
    f = counter_slices(len(lat_edges) + 1)
    order = np.argsort(gid.astype(np.min_scalar_type(ng - 1)), kind="stable")
    cnt = np.bincount(gid, minlength=ng)
    first = np.cumsum(cnt) - cnt
    sarr = arrival_ns[order]
    gaps = np.diff(sarr)
    ggid = np.repeat(np.arange(ng), cnt)[1:]  # the group of each gap's later packet
    ggid[first[1:] - 1] = ng  # a gap between two groups goes to a group that is dropped
    neg = gaps < 0
    neg_g = np.bincount(ggid[neg], minlength=ng + 1)[:ng]
    gaps[neg] = 0
    inc = np.zeros((ng, f["color"].stop), dtype=np.int64)
    inc[:, f["pkt"]] = cnt
    inc[:, f["bytes"]] = np.add.reduceat(byts.astype(np.int64, copy=False)[order], first)
    for at, g, v in ((f["lat"], gid, _count_le(lat_edges, sojourn_ns)),
                     (f["color"], gid, colors),
                     (f["iat"], ggid, _count_le(iat_edges, gaps))):
        nv = at.stop - at.start
        inc[:, at] = np.bincount(g * nv + v, minlength=(ng + 1) * nv)[: ng * nv].reshape(ng, nv)
    return inc, sarr[first], sarr[first + cnt - 1], neg_g


# HistogramSketch.summarize: the edges it binned under, the chunk's ranked codes, each
# packet's (window, flow) pair in the narrowest type, each pair's window and flow, and the
# pairs' _fold (records, first and last stamps, negative gaps), all read-only
ChunkSummary = namedtuple("ChunkSummary", "lat_edges iat_edges codes pid pwin pflow fold")


class HistogramSketch:
    """One per-queue sketch: d rows of w enriched buckets plus bin edges,
    single-writer during a window; query and export assume quiescence."""

    def __init__(self, config: SketchConfig, qid: int, lat_edges: Sequence[float] | np.ndarray,
                 iat_edges: Sequence[float] | np.ndarray):
        self.config = config
        self.qid = qid
        self.lat_edges = np.asarray(lat_edges, dtype=np.float64)
        self.iat_edges = np.asarray(iat_edges, dtype=np.float64)
        b = config.bins_B
        if len(self.lat_edges) != b - 1 or len(self.iat_edges) != b - 1:
            raise ValueError(f"need {b - 1} edges per histogram, got {len(self.lat_edges)} "
                             f"latency / {len(self.iat_edges)} IAT")
        for name, edges in (("lat", self.lat_edges), ("iat", self.iat_edges)):
            if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
                raise ValueError(f"{name} edges must be finite and strictly increasing")

        d, w = config.depth_d, config.width_w
        self.fields = counter_slices(b)
        self.counts = np.zeros((d, w, 2 * b + 5), dtype=np.int64)
        self.pkt, self.byt, self.lat, self.iat, self.col = (
            self.counts[..., at] for at in self.fields.values()
        )
        self.caps = np.full(2 * b + 5, PKT_COUNTER_MAX, dtype=np.int64)
        self.caps[self.fields["bytes"]] = BYTE_COUNTER_MAX
        self.last_seen = np.full((d, w), UNSET_NS, dtype=np.int64)
        self.saturated_units = 0
        self.monotonicity_warnings = 0
        self._held: tuple[np.ndarray, np.ndarray] | None = None  # a chunk's keys and records

    # -- update paths ------------------------------------------------------

    def columns_for(self, key: FlowKey) -> list[int]:
        return [bucket_index(key.code(), s, self.config.width_w) for s in self.config.seeds]

    def update(self, ev: PacketEvent) -> None:
        """Fold one packet into all d rows (reference per-packet semantics)."""
        if ev.qid != self.qid:
            raise ValueError(f"packet for qid {ev.qid} fed to sketch for qid {self.qid}")
        lat_b = bin_of(ev.sojourn_ns, self.lat_edges)
        color = int(ev.color)
        for i, j in enumerate(self.columns_for(ev.key)):
            self._bump(self.pkt, (i, j), 1, PKT_COUNTER_MAX)
            self._bump(self.byt, (i, j), ev.bytes, BYTE_COUNTER_MAX)
            self._bump(self.lat, (i, j, lat_b), 1, PKT_COUNTER_MAX)
            self._bump(self.col, (i, j, color), 1, PKT_COUNTER_MAX)
            last = self.last_seen[i, j]
            if last != UNSET_NS:
                gap = ev.arrival_ns - last
                if gap < 0:
                    gap = 0
                    self.monotonicity_warnings += 1
                iat_b = bin_of(gap, self.iat_edges)
                self._bump(self.iat, (i, j, iat_b), 1, PKT_COUNTER_MAX)
            self.last_seen[i, j] = ev.arrival_ns

    def _bump(self, arr: np.ndarray, idx, inc: int, cap: int) -> None:
        new = int(arr[idx]) + inc
        if new > cap:
            self.saturated_units += new - cap
            new = cap
        arr[idx] = new

    def summarize(self, codes: np.ndarray, byts: np.ndarray, arrival_ns: np.ndarray,
                  sojourn_ns: np.ndarray, colors: np.ndarray,
                  window: np.ndarray | None = None) -> ChunkSummary:
        """The part of ``update_batch`` that no shape changes, read-only: the
        ranked codes and (window, flow) pairs and each pair's ``_fold``. It
        depends on the columns and the edges only, so it serves any (w, d)."""
        ucodes, fid = _rank(codes)
        win = 0 if window is None else np.asarray(window, np.int64)
        pairs, pid = _rank(win * len(ucodes) + fid)
        fold = _fold(pid, len(pairs), byts, arrival_ns, sojourn_ns, colors, self.lat_edges,
                     self.iat_edges)
        parts = (self.lat_edges.copy(), self.iat_edges.copy(), ucodes,
                 pid.astype(np.min_scalar_type(len(pairs) - 1)),
                 *np.divmod(pairs, max(len(ucodes), 1)), *fold)
        for arr in parts:
            arr.flags.writeable = False  # placements share them
        return ChunkSummary(*parts[:6], parts[6:])

    def update_batch(self, codes: np.ndarray, byts: np.ndarray, arrival_ns: np.ndarray,
                     sojourn_ns: np.ndarray, colors: np.ndarray, window: np.ndarray | None = None,
                     *, summary: ChunkSummary | None = None) -> ChunkSummary:
        """Fold a run of packets, in stream order, equivalently to ``update``.

        Without ``window`` the run adds to ``counts``. With each packet's
        window id, the run is a chunk of whole windows, each of whose counters
        start at zero, as after ``reset_window``: the sketch then holds the
        chunk's (window, cell) records, which ``query_flows`` (given windows)
        and ``export_window_array`` read, and leaves ``counts`` alone.

        ``summary``, these columns' ``summarize`` under these edges, is made
        if not given, and returned for other shapes to place. Its codes' hashes
        give each pair a flat cell row*w + col per row. One the pair has to
        itself in its window takes the pair's record. A shared one folds its
        flows' packets again, in proportion to those alone; with no cell
        shared, no packet is read.
        """
        s = summary or self.summarize(codes, byts, arrival_ns, sojourn_ns, colors, window)
        for name, mine, theirs in zip(("latency", "IAT"), (self.lat_edges, self.iat_edges), s[:2]):
            if not np.array_equal(mine, theirs):
                raise ValueError(f"the summary was made under other {name} edges")
        if len(s.pid) != len(codes):
            raise ValueError(f"the summary is of {len(s.pid)} packets, not {len(codes)}")
        d, w = self.config.depth_d, self.config.width_w
        flat = bucket_index_array(s.codes, self.config.seeds, w) + np.arange(0, d * w, w)[:, None]
        keys = flat[:, s.pflow] + s.pwin * (d * w)  # [d, pairs]: window * d*w + cell
        _, inv, n_flows = np.unique(keys, return_inverse=True, return_counts=True)
        shared = n_flows[inv].reshape(keys.shape) > 1
        lone = np.nonzero(~shared)[1]
        parts = [(keys[~shared], *(p[lone] for p in s.fold))]
        hit = shared.any(axis=0)  # the pairs with a shared cell
        if hit.any():  # their packets, found by pair id, are the only ones read
            ext = np.flatnonzero(hit[s.pid])
            row, j = np.nonzero(shared[:, s.pid[ext]])  # row by row, in stream order
            extra = ext[j]  # each packet once in each shared cell it feeds
            ukeys = np.unique(keys[shared])
            cells = _fold(np.searchsorted(ukeys, keys[row, s.pid[extra]]), len(ukeys),
                          *(c[extra] for c in (byts, arrival_ns, sojourn_ns, colors)), *s[:2])
            parts.append((ukeys, *cells))
        self._settle(*map(np.concatenate, zip(*parts)), into_counts=window is None)
        return s

    def _settle(self, key: np.ndarray, inc: np.ndarray, first: np.ndarray, last: np.ndarray,
                neg: np.ndarray, into_counts: bool) -> None:
        """Take the folded records of distinct (window, cell) keys.

        Each record adds one more IAT sample: the gap to its first stamp from
        the last stamp of the same cell's previous window, or from the cell's
        last-seen stamp for its first window here, which then keeps the last
        window's last stamp. A record adds to ``counts`` (``into_counts``) or
        starts from zero, and saturates at ``caps``.
        """
        f, dw = self.fields, self.last_seen.size
        order = np.argsort(key)
        key, inc, first, last = key[order], inc[order], first[order], last[order]
        by_cell = np.argsort(key % dw, kind="stable")  # each cell's records window by window
        cell = key[by_cell] % dw
        head = np.ones(len(cell), dtype=bool)
        head[1:] = cell[1:] != cell[:-1]
        last_seen, ends = self.last_seen.reshape(-1), last[by_cell]
        prev = np.where(head, last_seen[cell], np.roll(ends, 1))
        seen = prev != UNSET_NS
        gap = first[by_cell] - prev
        neg_first = seen & (gap < 0)
        self.monotonicity_warnings += int(np.count_nonzero(neg_first)) + int(neg.sum())
        gap[neg_first] = 0
        inc[:, f["iat"]][by_cell[seen], _count_le(self.iat_edges, gap[seen])] += 1
        tail = np.ones_like(head)
        tail[:-1] = head[1:]
        last_seen[cell[tail]] = ends[tail]

        grid = self.counts.reshape(dw, -1)
        cur = grid[key] if into_counts else 0
        add = np.minimum(inc, self.caps - cur)
        self.saturated_units += int((inc - add).sum())
        if into_counts:
            grid[key] = cur + add
        else:  # a sentinel key past every window, whose record is zero, ends the chunk
            self._held = (np.append(key, np.iinfo(np.int64).max),
                          np.concatenate([add, np.zeros((1, grid.shape[1]), np.int64)]))

    # -- query and export --------------------------------------------------

    def query_flow(self, key: FlowKey, region: "DiagnosticRegion") -> FlowEstimate:
        est = self.query_flows(np.array([key.code()], dtype=np.uint64), region)
        return FlowEstimate(
            key=key,
            pkt_est=int(est["pkt"][0]),
            byte_est=int(est["bytes"][0]),
            lat_bin_est=tuple(est["lat"][0].tolist()),
            iat_bin_est=tuple(est["iat"][0].tolist()),
            color_est=tuple(est["color"][0].tolist()),
            diag_est=int(est["diag"][0]),
        )

    def query_flows(self, codes: np.ndarray, region: "DiagnosticRegion",
                    windows: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Vectorized row-minimum estimates for many packed keys at once:
        each field of ``counter_slices`` plus ``diag``. Without ``windows``
        they read ``counts``. With them they read the held chunk
        (``update_batch``): one row per (window, code), window by window, and
        a (window, cell) the chunk has no record of reads as zero."""
        d, w = self.config.depth_d, self.config.width_w
        cells = bucket_index_array(codes, self.config.seeds, w) + np.arange(0, d * w, w)[:, None]
        if windows is None:
            est = self.counts.reshape(d * w, -1)[cells].min(axis=0)  # [n, 2B+5]
        else:
            keys, recs = self._held
            probe = np.asarray(windows, np.int64)[:, None, None] * (d * w) + cells  # [wins, d, n]
            pos = np.searchsorted(keys, probe)
            pos[keys[pos] != probe] = len(keys) - 1  # the sentinel's zero record
            est = recs[pos].min(axis=1).reshape(-1, recs.shape[1])
        out = {name: est[:, at] for name, at in self.fields.items()}
        out["diag"] = (out["lat"][:, list(region.lat_tail_bins)].sum(axis=1)
                       + out["iat"][:, list(region.iat_head_bins)].sum(axis=1))
        return out

    def export_window_array(self, window: int) -> np.ndarray:
        """Full d*w bucket grid as a structured array (fixed cardinality):
        the held chunk's records of ``window`` if ``update_batch`` holds a
        chunk, else ``counts``."""
        d, w, b = self.config.depth_d, self.config.width_w, self.config.bins_B
        out = np.zeros(d * w, dtype=record_dtype(b))
        out["window"] = window
        out["qid"] = self.qid
        out["row"] = np.repeat(np.arange(d), w)
        out["col"] = np.tile(np.arange(w), d)
        c = self.counts.reshape(d * w, -1)
        if self._held is not None:
            keys, recs = self._held
            lo, hi = np.searchsorted(keys, [window * d * w, (window + 1) * d * w])
            c = np.zeros_like(c)
            c[keys[lo:hi] - window * d * w] = recs[lo:hi]
        for name in ("pkt", "bytes", "lat", "iat"):
            out[name] = c[:, self.fields[name]]
        out["green"], out["yellow"], out["red"] = c[:, self.fields["color"]].T
        return out

    def reset_window(self) -> None:
        self.counts.fill(0)  # last_seen intentionally preserved
