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

Counters saturate at their storage width (32-bit packet/bin/color counters,
64-bit byte counters) instead of wrapping; lost units are tallied in a
per-sketch saturation counter. Timestamps survive window resets so IAT
tracking stays continuous across window boundaries; the UNSET sentinel only
marks buckets that have never seen a packet.

Two update paths exist: ``update`` consumes one PacketEvent (the reference
semantics) and ``update_batch`` folds column arrays into all d rows,
bit-identically for the same event order (tests pin the equivalence). A batch
holds few flows, so it is folded once per flow, not once per packet per row:
only the distinct codes are hashed, and a cell that one flow has to itself in
a row takes that flow's summary (packet count, byte sum, latency, color and
own-gap IAT histograms, summed once) plus one IAT sample against the cell's
last-seen stamp. Cells that several flows share in a row chain their
interleaved hits instead: one stable sort of the flat cell index row*w + col
(a radix sort on a narrow key) groups them by cell in stream order. An
increment beyond a counter's headroom is clipped to it and the excess tallied,
which equals per-packet saturation since increments are never negative; no
add can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import (
    FlowKey,
    PacketEvent,
    SketchConfig,
    WindowTotals,
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


def _hist(group: np.ndarray, bins: np.ndarray, n_groups: int, n_bins: int) -> np.ndarray:
    """Counts of each (group, bin) pair, shape [n_groups, n_bins]."""
    return np.bincount(group * n_bins + bins, minlength=n_groups * n_bins).reshape(n_groups, n_bins)


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


class HistogramSketch:
    """One per-queue sketch: d rows of w enriched buckets plus bin edges.

    Single-writer during a window; query and export assume quiescence.
    """

    def __init__(
        self,
        config: SketchConfig,
        qid: int,
        lat_edges: Sequence[float] | np.ndarray,
        iat_edges: Sequence[float] | np.ndarray,
    ):
        self.config = config
        self.qid = qid
        self.lat_edges = np.asarray(lat_edges, dtype=np.float64)
        self.iat_edges = np.asarray(iat_edges, dtype=np.float64)
        b = config.bins_B
        if len(self.lat_edges) != b - 1 or len(self.iat_edges) != b - 1:
            raise ValueError(
                f"need {b - 1} edges per histogram, got "
                f"{len(self.lat_edges)} latency / {len(self.iat_edges)} IAT"
            )
        for name, edges in (("lat", self.lat_edges), ("iat", self.iat_edges)):
            if np.any(np.diff(edges) <= 0):
                raise ValueError(f"{name} edges must be strictly increasing")

        d, w = config.depth_d, config.width_w
        self.pkt = np.zeros((d, w), dtype=np.int64)
        self.byt = np.zeros((d, w), dtype=np.int64)
        self.lat = np.zeros((d, w, b), dtype=np.int64)
        self.iat = np.zeros((d, w, b), dtype=np.int64)
        self.col = np.zeros((d, w, 3), dtype=np.int64)
        self.last_seen = np.full((d, w), UNSET_NS, dtype=np.int64)
        self.saturated_units = 0
        self.monotonicity_warnings = 0
        self._query_memo: tuple[np.ndarray, np.ndarray] | None = None

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

    def bucket_columns(self, codes: np.ndarray) -> np.ndarray:
        """Bucket column of each packed key in every row, shape [d, n]."""
        return bucket_index_array(codes, self.config.seeds, self.config.width_w)

    def update_batch(
        self,
        codes: np.ndarray,
        byts: np.ndarray,
        arrival_ns: np.ndarray,
        sojourn_ns: np.ndarray,
        colors: np.ndarray,
    ) -> None:
        """Fold a run of packets, in stream order, equivalently to ``update``.

        Only the distinct codes are hashed. A cell that one flow has to itself
        in a row is folded from that flow's summary (``_fold_lone``); cells
        that several flows share in a row chain their hits (``_fold_shared``).
        The two kinds of cell are disjoint, so the order of the two folds does
        not matter.
        """
        if len(codes) == 0:
            return
        d, w = self.config.depth_d, self.config.width_w
        ucodes, fid = np.unique(codes, return_inverse=True)
        nf = len(ucodes)
        cells = self.bucket_columns(ucodes) + np.arange(0, d * w, w)[:, None]  # [d, nf]
        flat = cells.reshape(-1)
        by_cell = np.argsort(flat.astype(np.min_scalar_type(d * w - 1)), kind="stable")
        dup = flat[by_cell[1:]] == flat[by_cell[:-1]]
        shared = np.zeros((d, nf), dtype=bool)
        shared.flat[by_cell[1:][dup]] = shared.flat[by_cell[:-1][dup]] = True
        lat_b = np.searchsorted(self.lat_edges, sojourn_ns, side="right")
        if not shared.all():
            self._fold_lone(cells, ~shared, fid, byts, arrival_ns, lat_b, colors)
        if shared.any():
            hit = shared.take(fid, axis=1)  # [d, n]: row by row, in stream order
            self._fold_shared(cells.take(fid, axis=1)[hit], np.nonzero(hit)[1], byts, arrival_ns,
                              lat_b, colors)

    def _fold_lone(self, cells: np.ndarray, lone: np.ndarray, fid: np.ndarray, byts: np.ndarray,
                   arrival_ns: np.ndarray, lat_b: np.ndarray, colors: np.ndarray) -> None:
        """Fold the cells that one flow has to itself in a row: flow f of the
        batch (packet k is of flow fid[k]) owns flat cell cells[i, f] where
        lone[i, f].

        A stable radix sort of the flow ids lists each flow's packets in
        stream order. Its packet count, exact byte sum, latency and color
        histograms and the histogram of its own gaps are summed once, the
        same for every row. Each lone cell adds its flow's summary plus one
        IAT sample, the gap from the cell's last-seen stamp to the flow's
        first packet, and keeps the flow's last stamp.
        """
        nf, nb = cells.shape[1], self.config.bins_B
        order = np.argsort(fid.astype(np.min_scalar_type(nf - 1)), kind="stable")
        cnt = np.bincount(fid, minlength=nf)
        start = np.cumsum(cnt) - cnt
        sarr = arrival_ns[order]
        byt_f = np.add.reduceat(byts.astype(np.int64, copy=False)[order], start)
        lat_f, col_f = _hist(fid, lat_b, nf, nb), _hist(fid, colors, nf, 3)
        sfid = np.repeat(np.arange(nf), cnt)
        inner = sfid[1:] == sfid[:-1]  # consecutive sorted packets of one flow
        gaps, gfid = np.diff(sarr)[inner], sfid[1:][inner]
        neg = gaps < 0
        neg_f = np.bincount(gfid[neg], minlength=nf)
        gaps[neg] = 0
        iat_f = _hist(gfid, np.searchsorted(self.iat_edges, gaps, side="right"), nf, nb)

        f = np.nonzero(lone)[1]
        cell = cells[lone]
        last_seen = self.last_seen.reshape(-1)
        prev = last_seen[cell]
        seen = prev != UNSET_NS
        gap = sarr[start[f]] - prev
        neg = seen & (gap < 0)
        self.monotonicity_warnings += int(np.count_nonzero(neg)) + int(neg_f[f].sum())
        gap[neg] = 0
        iat = iat_f[f]
        iat[np.flatnonzero(seen), np.searchsorted(self.iat_edges, gap[seen], side="right")] += 1
        last_seen[cell] = sarr[start[f] + cnt[f] - 1]
        self._add_cells(cell, cnt[f], byt_f[f], lat_f[f], col_f[f], iat)

    def _fold_shared(self, flat: np.ndarray, pk: np.ndarray, byts: np.ndarray,
                     arrival_ns: np.ndarray, lat_b: np.ndarray, colors: np.ndarray) -> None:
        """Fold hits on shared cells: hit k puts packet pk[k] in flat cell
        flat[k], and each row's hits come in stream order.

        One stable sort of the cell index (radix, on a uint8/uint16 key while
        d*w <= 65536) groups the hits by cell in stream order; each group
        chains its IATs from the cell's last-seen stamp and adds its sums at
        once.
        """
        d, w = self.config.depth_d, self.config.width_w
        order = np.argsort(flat.astype(np.min_scalar_type(d * w - 1)), kind="stable")
        sflat = flat[order]
        pk = pk[order]
        starts = np.flatnonzero(np.concatenate(([True], sflat[1:] != sflat[:-1])))
        cells = sflat[starts]
        hits = np.diff(starts, append=len(flat))
        gid = np.repeat(np.arange(len(cells)), hits)

        sarr = arrival_ns[pk]
        prev = np.concatenate(([UNSET_NS], sarr[:-1]))
        last_seen = self.last_seen.reshape(-1)
        prev[starts] = last_seen[cells]
        last_seen[cells] = sarr[starts + hits - 1]
        valid = prev != UNSET_NS
        gaps = sarr - prev
        neg = valid & (gaps < 0)
        self.monotonicity_warnings += int(np.count_nonzero(neg))
        gaps[neg] = 0
        iat_b = np.searchsorted(self.iat_edges, gaps[valid], side="right")

        m, nb = len(cells), self.config.bins_B
        byt_sum = np.add.reduceat(byts.astype(np.int64, copy=False)[pk], starts)
        self._add_cells(cells, hits, byt_sum, _hist(gid, lat_b[pk], m, nb),
                        _hist(gid, colors[pk], m, 3), _hist(gid[valid], iat_b, m, nb))

    def _add_cells(self, cells, pkt, byt, lat, col, iat) -> None:
        """Add sums to distinct flat cells: a packet count, a byte sum and the
        latency, color and IAT histograms of each cell, saturating."""
        self._add_sat(self.pkt.reshape(-1), cells, pkt, PKT_COUNTER_MAX)
        self._add_sat(self.byt.reshape(-1), cells, byt, BYTE_COUNTER_MAX)
        for grid, inc in ((self.lat, lat), (self.col, col), (self.iat, iat)):
            self._add_sat(grid.reshape(-1, grid.shape[-1]), cells, inc, PKT_COUNTER_MAX)

    def _add_sat(self, grid: np.ndarray, cells: np.ndarray, inc: np.ndarray, cap: int) -> None:
        """grid[cells] += inc, saturating at cap; an increment beyond the
        remaining headroom is clipped to it, so no add can overflow."""
        cur = grid[cells]
        room = cap - cur
        over = inc > room
        if over.any():
            self.saturated_units += int((inc[over] - room[over]).sum())
            inc = np.where(over, room, inc)
        grid[cells] = cur + inc

    # -- query and export --------------------------------------------------

    def query_flow(self, key: FlowKey, region: "DiagnosticRegion") -> FlowEstimate:
        cols = self.columns_for(key)
        rows = range(self.config.depth_d)
        pkt_est = min(int(self.pkt[i, cols[i]]) for i in rows)
        byte_est = min(int(self.byt[i, cols[i]]) for i in rows)
        lat_est = np.min(
            np.stack([self.lat[i, cols[i]] for i in rows]), axis=0
        )
        iat_est = np.min(
            np.stack([self.iat[i, cols[i]] for i in rows]), axis=0
        )
        col_est = np.min(
            np.stack([self.col[i, cols[i]] for i in rows]), axis=0
        )
        diag = int(sum(lat_est[b] for b in region.lat_tail_bins))
        diag += int(sum(iat_est[b] for b in region.iat_head_bins))
        return FlowEstimate(
            key=key,
            pkt_est=pkt_est,
            byte_est=byte_est,
            lat_bin_est=tuple(int(v) for v in lat_est),
            iat_bin_est=tuple(int(v) for v in iat_est),
            color_est=tuple(int(v) for v in col_est),
            diag_est=diag,
        )

    def query_flows(
        self, codes: np.ndarray, region: "DiagnosticRegion"
    ) -> dict[str, np.ndarray]:
        """Vectorized row-minimum estimates for many packed keys at once.

        Columns are kept from the previous call: the same keys hash once."""
        memo = self._query_memo
        if memo is None or not np.array_equal(memo[0], codes):
            memo = self._query_memo = (codes.copy(), self.bucket_columns(codes))
        cols = memo[1]
        ridx = np.arange(self.config.depth_d)[:, None]
        pkt = self.pkt[ridx, cols].min(axis=0)
        byt = self.byt[ridx, cols].min(axis=0)
        lat = self.lat[ridx, cols, :].min(axis=0)  # [n, B]
        iat = self.iat[ridx, cols, :].min(axis=0)
        col = self.col[ridx, cols, :].min(axis=0)
        diag = lat[:, list(region.lat_tail_bins)].sum(axis=1)
        diag = diag + iat[:, list(region.iat_head_bins)].sum(axis=1)
        return {"pkt": pkt, "bytes": byt, "lat": lat, "iat": iat, "color": col, "diag": diag}

    def window_totals(self, region: "DiagnosticRegion") -> WindowTotals:
        """Totals from row 0; every row sees every packet, so any row works."""
        n_total = int(self.pkt[0].sum())
        n_diag = int(self.lat[0][:, list(region.lat_tail_bins)].sum())
        n_diag += int(self.iat[0][:, list(region.iat_head_bins)].sum())
        return WindowTotals(n_total=n_total, n_diag=min(n_diag, n_total))

    def export_window_array(self, window: int) -> np.ndarray:
        """Full d*w bucket grid as a structured array (fixed cardinality)."""
        d, w, b = self.config.depth_d, self.config.width_w, self.config.bins_B
        out = np.zeros(d * w, dtype=record_dtype(b))
        out["window"] = window
        out["qid"] = self.qid
        out["row"] = np.repeat(np.arange(d), w)
        out["col"] = np.tile(np.arange(w), d)
        out["pkt"] = self.pkt.reshape(-1)
        out["bytes"] = self.byt.reshape(-1)
        out["lat"] = self.lat.reshape(d * w, b)
        out["iat"] = self.iat.reshape(d * w, b)
        out["green"] = self.col[:, :, 0].reshape(-1)
        out["yellow"] = self.col[:, :, 1].reshape(-1)
        out["red"] = self.col[:, :, 2].reshape(-1)
        return out

    def reset_window(self) -> None:
        self.pkt[:] = 0
        self.byt[:] = 0
        self.lat[:] = 0
        self.iat[:] = 0
        self.col[:] = 0
        # last_seen intentionally preserved

    # -- state equality (determinism checks) --------------------------------

    def state_digest(self) -> tuple:
        return (
            self.pkt.tobytes(),
            self.byt.tobytes(),
            self.lat.tobytes(),
            self.iat.tobytes(),
            self.col.tobytes(),
            self.last_seen.tobytes(),
            self.saturated_units,
            self.monotonicity_warnings,
        )
