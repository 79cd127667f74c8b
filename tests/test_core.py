import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowtel.core import (
    MAX_QFI,
    QFI_BITS,
    ConfigError,
    FlowKey,
    PacketEvent,
    SketchConfig,
    bucket_index,
    bucket_index_array,
    mix64,
    mix64_array,
    row_seeds,
    window_index,
)


def test_window_index_boundaries():
    assert window_index(0, 10**9) == 0
    assert window_index(999_999_999, 10**9) == 0
    # integer-division oracle
    assert window_index(2_500_000_000, 10**9) == 2_500_000_000 // 10**9 == 2


def test_window_index_rejects_zero_length():
    with pytest.raises(ConfigError):
        window_index(5, 0)
    with pytest.raises(ConfigError):
        window_index(5, -10)


@given(st.integers(min_value=0, max_value=10**15), st.integers(min_value=1, max_value=10**10))
def test_window_partition_exhaustive_and_exclusive(t, w):
    idx = window_index(t, w)
    assert idx * w <= t < (idx + 1) * w


def test_flow_key_identity_and_limits():
    a = FlowKey(87, 2)
    b = FlowKey(87, 2)
    assert a == b and hash(a) == hash(b)
    assert a.code() == (87 << 6) | 2
    assert FlowKey(a.code() >> QFI_BITS, a.code() & MAX_QFI) == a  # the code decodes
    with pytest.raises(ValueError):
        FlowKey(1, 64)
    with pytest.raises(ValueError):
        FlowKey(-1, 0)
    with pytest.raises(ValueError):
        FlowKey(1 << 32, 0)


def test_packet_event_validation():
    key = FlowKey(1, 1)
    with pytest.raises(ValueError):
        PacketEvent(key=key, qid=0, bytes=0, arrival_ns=0, sojourn_ns=0)
    with pytest.raises(ValueError):
        PacketEvent(key=key, qid=0, bytes=100, arrival_ns=0, sojourn_ns=-1)


def test_mix64_scalar_matches_array():
    vals = [0, 1, 12345, 2**40 + 99, 2**63 + 7, (1 << 64) - 1]
    scalars = [mix64(v) for v in vals]
    arr = mix64_array(np.array(vals, dtype=np.uint64))
    assert scalars == arr.tolist()


def test_bucket_index_deterministic_and_matches_array():
    keys = [FlowKey(t, t % 64) for t in range(1, 500)]
    codes = np.array([k.code() for k in keys], dtype=np.uint64)
    seeds = row_seeds(7, 3)
    for seed, vec in zip(seeds, bucket_index_array(codes, seeds, 512), strict=True):
        scalar = [bucket_index(k.code(), seed, 512) for k in keys]
        assert scalar == vec.tolist()
        # replaying yields the same indices
        assert scalar == [bucket_index(k.code(), seed, 512) for k in keys]


def test_bucket_index_spreads_over_width():
    seed = row_seeds(3, 1)[0]
    idx = [bucket_index(FlowKey(t, 0).code(), seed, 64) for t in range(4096)]
    counts = np.bincount(idx, minlength=64)
    # 4096 keys over 64 buckets: mean 64 per bucket, no bucket wildly off
    assert counts.min() > 20
    assert counts.max() < 150


def test_row_seeds_distinct():
    seeds = row_seeds(42, 8)
    assert len(set(seeds)) == 8
    assert row_seeds(42, 8) == seeds
    assert row_seeds(43, 8) != seeds


def test_sketch_config_validation_and_epsilon():
    cfg = SketchConfig.from_seed(0, width_w=512, depth_d=3)
    assert cfg.epsilon == pytest.approx(np.e / 512)
    with pytest.raises(ConfigError):
        SketchConfig(width_w=1, depth_d=3)
    with pytest.raises(ConfigError):
        SketchConfig(width_w=4, depth_d=0)
    with pytest.raises(ConfigError):
        SketchConfig(width_w=4, depth_d=2, bins_B=1)
    with pytest.raises(ConfigError):
        SketchConfig(width_w=4, depth_d=2, seeds=(5, 5))
    with pytest.raises(ConfigError):
        SketchConfig(width_w=4, depth_d=3, seeds=(1, 2))
