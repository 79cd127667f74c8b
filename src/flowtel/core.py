"""Domain types, identifiers, and time/window bookkeeping shared by all stages.

Conventions used everywhere in this package:

* timestamps and durations are integer nanoseconds (no floating-point time),
* windows partition the time axis into fixed-length intervals indexed from 0,
  so every event belongs to exactly one window,
* a flow is identified by the (teid, qfi) pair and nothing else,
* hashing is a seeded 64-bit avalanche mix, so replaying a stream against the
  same seeds reproduces sketch state bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

MASK64 = (1 << 64) - 1

QFI_BITS = 6
MAX_QFI = (1 << QFI_BITS) - 1
MAX_TEID = (1 << 32) - 1

NS_PER_S = 1_000_000_000
DEFAULT_WINDOW_NS = NS_PER_S


class ConfigError(ValueError):
    """Invalid static configuration (window length, sketch dimensions, seeds)."""


class Color(IntEnum):
    """Two-rate three-color meter outcome carried by each packet."""

    GREEN = 0
    YELLOW = 1
    RED = 2


@dataclass(frozen=True, order=True)
class FlowKey:
    """Identity of one monitored flow: tunnel endpoint id plus QoS flow id.

    Equality and hashing are over the (teid, qfi) pair only.
    """

    teid: int
    qfi: int

    def __post_init__(self) -> None:
        if not 0 <= self.teid <= MAX_TEID:
            raise ValueError(f"teid out of range: {self.teid}")
        if not 0 <= self.qfi <= MAX_QFI:
            raise ValueError(f"qfi must be < {MAX_QFI + 1}, got {self.qfi}")

    def code(self) -> int:
        """Pack into one integer; this is the value fed to the hash family."""
        return (self.teid << QFI_BITS) | self.qfi

    @staticmethod
    def from_code(code: int) -> "FlowKey":
        return FlowKey(teid=code >> QFI_BITS, qfi=code & MAX_QFI)


@dataclass(frozen=True)
class PacketEvent:
    """One observed packet after scheduling: where it went and what it saw."""

    key: FlowKey
    qid: int
    bytes: int
    arrival_ns: int
    sojourn_ns: int
    color: Color = Color.GREEN

    def __post_init__(self) -> None:
        if self.bytes < 1:
            raise ValueError(f"bytes must be >= 1, got {self.bytes}")
        if self.sojourn_ns < 0:
            raise ValueError(f"sojourn_ns must be >= 0, got {self.sojourn_ns}")


def window_index(arrival_ns: int, window_len_ns: int = DEFAULT_WINDOW_NS) -> int:
    """Index of the window containing ``arrival_ns``: floor(arrival / length)."""
    if window_len_ns <= 0:
        raise ConfigError(f"window_len_ns must be positive, got {window_len_ns}")
    return arrival_ns // window_len_ns


# 64-bit finalizer (murmur3-style avalanche). Scalar and array versions must
# produce identical values; tests enforce this.

_MIX_C1 = 0xFF51AFD7ED558CCD
_MIX_C2 = 0xC4CEB9FE1A85EC53


def mix64(x: int) -> int:
    x &= MASK64
    x ^= x >> 33
    x = (x * _MIX_C1) & MASK64
    x ^= x >> 33
    x = (x * _MIX_C2) & MASK64
    x ^= x >> 33
    return x


def mix64_array(x: np.ndarray) -> np.ndarray:
    a = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        a ^= a >> np.uint64(33)
        a *= np.uint64(_MIX_C1)
        a ^= a >> np.uint64(33)
        a *= np.uint64(_MIX_C2)
        a ^= a >> np.uint64(33)
    return a


def row_seeds(master_seed: int, depth: int) -> tuple[int, ...]:
    """Derive ``depth`` pairwise-distinct row seeds from one master seed."""
    seeds = []
    state = mix64(master_seed ^ 0x9E3779B97F4A7C15)
    while len(seeds) < depth:
        state = mix64(state + 0x9E3779B97F4A7C15)
        if state not in seeds:
            seeds.append(state)
    return tuple(seeds)


def bucket_index(code: int, seed: int, width: int) -> int:
    """Row-local bucket for a packed flow key under one row seed."""
    return mix64(code ^ mix64(seed)) % width


def bucket_index_array(codes: np.ndarray, seed: int, width: int) -> np.ndarray:
    mixed_seed = np.uint64(mix64(seed))
    return (mix64_array(codes.astype(np.uint64) ^ mixed_seed) % np.uint64(width)).astype(np.int64)


@dataclass(frozen=True)
class SketchConfig:
    """Dimensions and seeds of one histogram sketch family.

    ``epsilon`` is the usual count-min collision rate e / width.
    """

    width_w: int
    depth_d: int
    bins_B: int = 8
    seeds: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.width_w < 2:
            raise ConfigError(f"width_w must be >= 2, got {self.width_w}")
        if self.depth_d < 1:
            raise ConfigError(f"depth_d must be >= 1, got {self.depth_d}")
        if self.bins_B < 2:
            raise ConfigError(f"bins_B must be >= 2, got {self.bins_B}")
        if not self.seeds:
            object.__setattr__(self, "seeds", row_seeds(0, self.depth_d))
        if len(self.seeds) != self.depth_d:
            raise ConfigError(
                f"need {self.depth_d} row seeds, got {len(self.seeds)}"
            )
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("row seeds must be pairwise distinct")

    @classmethod
    def from_seed(
        cls,
        master_seed: int,
        width_w: int,
        depth_d: int,
        bins_B: int = 8,
    ) -> "SketchConfig":
        return cls(
            width_w=width_w,
            depth_d=depth_d,
            bins_B=bins_B,
            seeds=row_seeds(master_seed, depth_d),
        )

    @property
    def epsilon(self) -> float:
        return math.e / self.width_w


@dataclass(frozen=True)
class WindowTotals:
    """Per-window packet totals of one sketch: everything, and the slice that
    landed in the diagnostic region."""

    n_total: int
    n_diag: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_diag <= self.n_total:
            raise ValueError(
                f"need 0 <= n_diag <= n_total, got n_diag={self.n_diag} n_total={self.n_total}"
            )
