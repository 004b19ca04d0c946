"""Percentile scale factors and parameter rescaling."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rateconv import (NetworkSpec, NormConfig, NormStats, apply_normalization,
                      collect_stats, conv2d, dense, flatten, forward_batch,
                      greedy_action, load_stats, percentile, save_stats)
from rateconv import network, normalize
from rateconv.network import Units, UnitValues, forward_units
from rateconv.normalize import STATS_CHUNK, _rank, _stats_per_config, _top_of_counts

from conftest import rand_conv_net, rand_dense_net, rand_net, rand_frames


def oracle_percentile(samples, p):
    """Sort-based nearest rank with exact decimal arithmetic."""
    ordered = sorted(samples)
    k = math.ceil(Fraction(str(p)) * len(ordered) / 100)
    k = min(max(k, 1), len(ordered))
    return ordered[k - 1]


# ---------------------------------------------------------------------------
# percentile

def test_percentile_frozen_examples():
    assert percentile(range(1, 11), 99.0) == 10          # k = ceil(9.9) = 10
    grid = [round(0.001 * i, 3) for i in range(1, 1001)]
    assert percentile(grid, 99.9) == 0.999               # k = 999
    assert percentile([7.25], 42.0) == 7.25
    assert percentile([3.0, 1.0, 2.0], 100.0) == 3.0


def test_percentile_matches_oracle_on_random_samples(rng):
    for _ in range(50):
        n = int(rng.integers(1, 400))
        samples = rng.normal(size=n)
        p = float(rng.uniform(0.5, 100.0))
        assert percentile(samples, p) == oracle_percentile(list(samples), p)


def test_percentile_monotone_in_p(rng):
    samples = rng.normal(size=257)
    values = [percentile(samples, p) for p in np.linspace(0.5, 100.0, 64)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_rank_is_exact_where_float_rank_rounds_up():
    """99.15 % of 1 358 868 000 is exactly 1 347 317 622; in binary the
    product lands just above it, past any absolute guard."""
    n = 1_358_868_000
    assert Fraction(9915, 10000) * n == 1_347_317_622
    assert math.ceil(99.15 * n / 100.0 - 1e-9) == 1_347_317_623
    assert _rank(99.15, n) == 1_347_317_622
    assert _rank(99.9, 1000) == 999
    assert _rank(100, n) == n
    assert _rank(0.001, 10) == 1


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 99.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)
    for p in ("99.9", True, None):
        with pytest.raises(ValueError, match="p must be a number"):
            percentile([1.0], p)
    assert percentile([1.0, 2.0], np.float32(50.0)) == 1.0 and percentile([1.0, 2.0], 100) == 2.0


# ---------------------------------------------------------------------------
# collect_stats

def test_collect_stats_maximum_of_known_activations():
    net = NetworkSpec((1,), [dense(np.array([[2.0]]), np.zeros(1), activation="none")])
    frames = np.array([[0.0]] * 9 + [[1.0]])  # layer output 2.0 on one frame, else 0
    stats = collect_stats(net, frames, NormConfig(100.0))
    assert stats.scales == [1.0, 2.0]
    assert stats.sample_counts == [0, 10]


def test_collect_stats_all_zero_falls_back_with_warning():
    net = NetworkSpec((2,), [dense(np.zeros((3, 2)), np.zeros(3)),
                             dense(np.zeros((2, 3)), np.zeros(2), activation="none")])
    stats = collect_stats(net, np.zeros((4, 2)), NormConfig(100.0))
    assert stats.scales == [1.0, 1.0, 1.0]
    assert len(stats.warnings) == 2


def test_collect_stats_matches_capture_all_oracle(rng):
    for _ in range(5):
        net = rand_net(rng)
        frames = rand_frames(rng, 50, net.input_shape)
        p = float(rng.choice([99.0, 99.5, 99.9, 100.0]))
        stats = collect_stats(net, frames, NormConfig(p))
        param = net.parameterized_indices()
        # oracle: run each frame separately, pool every scalar, rank by sorting
        pools = [[] for _ in param]
        for frame in frames:
            acts, _ = forward_batch(net, frame[None])
            for j, li in enumerate(param):
                a = acts[li][0]
                if net.layers[li].activation != "relu":
                    a = np.maximum(a, 0.0)
                pools[j].extend(a.ravel().tolist())
        for j, pool in enumerate(pools):
            want = oracle_percentile(pool, p)
            if want <= 0.0:
                want = 1.0
            assert stats.scales[j + 1] == pytest.approx(want, rel=1e-12)
            assert stats.sample_counts[j + 1] == len(pool)


def test_collect_stats_respects_max_frames(rng):
    net = NetworkSpec((1,), [dense(np.array([[1.0]]), np.zeros(1), activation="none")])
    frames = np.linspace(0.0, 1.0, 100).reshape(-1, 1)
    stats = collect_stats(net, frames, NormConfig(100.0, max_frames=10))
    assert stats.scales[1] == pytest.approx(frames[9, 0])
    assert stats.sample_counts[1] == 10


def _pooled_stats(net, frames, config, chunk=STATS_CHUNK):
    """Reference: pool every sample of every pass over chunk frames, then percentile()."""
    frames = np.asarray(frames, dtype=np.float64)[:config.max_frames]
    param = net.parameterized_indices()
    pools = [[] for _ in param]
    for start in range(0, frames.shape[0], chunk):
        acts, _ = forward_batch(net, frames[start:start + chunk])
        for j, li in enumerate(param):
            a = acts[li]
            if net.layers[li].activation != "relu":
                a = np.maximum(a, 0.0)
            pools[j].append(a.ravel())
    scales, counts, fallbacks = [1.0], [0], 0
    for pool in pools:
        pooled = np.concatenate(pool)
        value = percentile(pooled, config.percentile)
        fallbacks += value <= 0.0
        scales.append(1.0 if value <= 0.0 else value)
        counts.append(pooled.size)
    return scales, counts, fallbacks


def _overflow_net():
    """Ten width-2 layers of +-3e38: activations reach inf, then inf - inf = NaN."""
    w = np.array([[3e38, 3e38], [3e38, -3e38]])
    layers = [dense(w, np.zeros(2)) for _ in range(9)]
    return NetworkSpec((2,), layers + [dense(w, np.zeros(2), activation="none")])


def _overflow_conv_net():
    """Two 2x2 convs of +-3e38 on (1, 6, 6) frames, then a dense output:
    a frame scaled to 1e300 reaches inf and NaN in the convs themselves."""
    k = 3e38 * np.array([[1.0, 1.0], [1.0, -1.0]])
    return NetworkSpec((1, 6, 6), [
        conv2d(np.stack([k, -k])[:, None], np.zeros(2)),
        conv2d(np.stack([np.stack([k, -k]), np.stack([-k, k])]), np.zeros(2)),
        flatten(), dense(np.full((2, 32), 3e38), np.zeros(2), activation="none")])


OVERFLOW_NETS = {"overflow": _overflow_net, "conv-overflow": _overflow_conv_net}


def _property_net(rng, kind, variant):
    if kind in OVERFLOW_NETS:
        return OVERFLOW_NETS[kind]()
    net = {"dense": rand_dense_net, "conv": rand_conv_net}[kind](rng)
    for i, layer in enumerate(net.layers):
        if not layer.parameterized:
            continue
        if variant == "zeros":
            net.layers[i] = replace(layer, weights=np.zeros_like(layer.weights),
                                    bias=np.zeros_like(layer.bias))
        elif variant == "ties":  # a coarse grid makes many activations equal
            net.layers[i] = replace(layer, weights=np.round(layer.weights * 2.0) / 2.0,
                                    bias=np.round(layer.bias * 2.0) / 2.0)
    if variant == "negative":  # most final-layer outputs below 0
        net.layers[-1] = replace(net.layers[-1], bias=net.layers[-1].bias - 2.0)
    return net


def _property_frames(rng, variant, source, n_frames, shape):
    """Analog frames, binary ones (conv fields repeat, wider windows
    mostly not), or frames drawn from three binary ones (every window
    repeats)."""
    if source == "analog":
        frames = rng.random((n_frames, *shape))
    else:
        frames = (rng.random((n_frames if source == "binary" else 3, *shape)) < 0.5) * 1.0
        if source == "repeats":
            frames = frames[rng.integers(3, size=n_frames)]
    if variant == "ties":
        frames = np.round(frames * 2.0) / 2.0
    return frames


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["dense", "conv", "overflow", "conv-overflow"]),
       variant=st.sampled_from(["plain", "ties", "zeros", "negative"]),
       source=st.sampled_from(["analog", "binary", "repeats"]),
       n_frames=st.integers(1, 40) | st.sampled_from([STATS_CHUNK, STATS_CHUNK + 1,
                                                      2 * STATS_CHUNK, 2 * STATS_CHUNK + 37]),
       cap=st.none() | st.integers(1, 3 * STATS_CHUNK),
       p=st.sampled_from([99.0, 99.9, 100.0, 99.37]),
       seed=st.integers(0, 2**16))
@example(kind="overflow", variant="plain", source="analog", n_frames=2 * STATS_CHUNK, cap=None,
         p=99.0, seed=2)
# units kept through both convs, a last chunk part-filled
@example(kind="conv", variant="plain", source="repeats", n_frames=2 * STATS_CHUNK + 37,
         cap=None, p=99.0, seed=0)
# units kept for the first conv only
@example(kind="conv", variant="plain", source="binary", n_frames=STATS_CHUNK + 1, cap=None,
         p=99.9, seed=0)
# NaN and inf in both convs' unit values
@example(kind="conv-overflow", variant="plain", source="repeats", n_frames=2 * STATS_CHUNK,
         cap=None, p=99.9, seed=2)
def test_streaming_stats_equal_pooled_percentile(kind, variant, source, n_frames, cap, p, seed):
    """Streaming collect_stats gives percentile() of the pooled samples bit
    for bit (NaN equal to NaN): with ties, all zeros and negative outputs,
    with fewer than 100 samples or one part-filled chunk, with a last
    chunk full or not, and with frames that repeat, where conv layers
    kept per unit pool (value, count) pairs."""
    rng = np.random.default_rng(seed)
    net = _property_net(rng, kind, variant)
    frames = _property_frames(rng, variant, source, n_frames, net.input_shape)
    if kind == "overflow":  # only the first seed % 4 frames reach inf and NaN
        frames[seed % 4:] *= 1e-300
    elif kind == "conv-overflow":
        frames[:seed % 4] *= 1e300
    config = NormConfig(p, max_frames=cap or n_frames)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = collect_stats(net, frames, config)
        scales, counts, fallbacks = _pooled_stats(net, frames, config)
    assert [x.hex() for x in stats.scales] == [float(x).hex() for x in scales]
    assert stats.sample_counts == counts
    assert len(stats.warnings) == fallbacks


def _table_frames(rng, shape, distinct, n_frames, chunk, order, signed_zero, dtype):
    """n_frames binary frames drawn from distinct ones, plus, with
    signed_zero, a copy of the first whose zeros are -0.0 (the same
    values in other bytes).  order "random" draws them at random;
    "one-new-per-chunk" opens each chunk with a frame no earlier chunk
    showed, the rest of the chunk drawn from those before it."""
    pool = (rng.random((distinct, *shape)) < 0.5) * 1.0
    if signed_zero:
        pool = np.concatenate([pool, np.where(pool[:1] == 0.0, -0.0, pool[:1])])
    if order == "random":
        at = rng.integers(len(pool), size=n_frames)
    else:
        newest = np.minimum(np.arange(n_frames) // chunk, len(pool) - 1)
        at = np.where(np.arange(n_frames) % chunk == 0, newest,
                      (rng.random(n_frames) * (newest + 1)).astype(int))
    return pool[at].astype(dtype)


def _check_frame_table_stats(kind, distinct, n_frames, chunk, table, cap, order,
                             signed_zero, dtype, p, seed):
    """collect_stats with STATS_CHUNK = chunk and a table of table frames
    equals _pooled_stats over the same chunks, bit for bit."""
    rng = np.random.default_rng(seed)
    net = _property_net(rng, kind, "plain")
    frames = _table_frames(rng, net.input_shape, distinct, n_frames, chunk, order,
                           signed_zero, dtype)
    config = NormConfig(p, max_frames=cap or n_frames)
    with mock.patch.object(normalize, "STATS_CHUNK", chunk), \
            mock.patch.object(normalize, "STATS_TABLE_BYTES", table * frames[0].nbytes):
        stats = collect_stats(net, frames, config)
    scales, counts, fallbacks = _pooled_stats(net, frames, config, chunk)
    assert [x.hex() for x in stats.scales] == [float(x).hex() for x in scales]
    assert stats.sample_counts == counts
    assert len(stats.warnings) == fallbacks


TABLE_PATHS = {
    # the table flushes at most chunks, and some chunks hold more
    # distinct frames than it can
    "flushes-and-refusals": dict(kind="conv", distinct=12, n_frames=90, chunk=7, table=6,
                                 cap=None, order="random", signed_zero=True,
                                 dtype=np.float32, p=99.0, seed=1),
    # each chunk brings one new frame, the late ones too; max_frames cuts a chunk
    "one-new-per-chunk": dict(kind="conv", distinct=12, n_frames=90, chunk=4, table=6,
                              cap=61, order="one-new-per-chunk", signed_zero=False,
                              dtype=np.float64, p=99.9, seed=2),
}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["conv", "dense"]),
       distinct=st.integers(1, 12),
       n_frames=st.integers(1, 90),
       chunk=st.integers(1, 12),
       table=st.integers(1, 10),
       cap=st.none() | st.integers(1, 90),
       order=st.sampled_from(["random", "one-new-per-chunk"]),
       signed_zero=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64, object]),
       p=st.sampled_from([99.0, 99.9, 100.0]),
       seed=st.integers(0, 2**16))
@example(**TABLE_PATHS["flushes-and-refusals"])
@example(**TABLE_PATHS["one-new-per-chunk"])
@example(kind="dense", distinct=5, n_frames=60, chunk=9, table=3, cap=50, order="random",
         signed_zero=True, dtype=np.float32, p=100.0, seed=3)
def test_frame_table_stats_equal_pooled_percentile(kind, distinct, n_frames, chunk, table, cap,
                                                   order, signed_zero, dtype, p, seed):
    """Frames that repeat across chunks, each distinct one run once through
    the frame table, give the scales of pooling every sample, bit for
    bit, and the same sample counts and warnings: with a table small
    enough to flush many times or to refuse a chunk, with max_frames
    cutting a chunk, with -0.0 beside 0.0, with frames of any dtype
    (object ones are keyed as float64), and for a dense net, which
    keeps no table."""
    _check_frame_table_stats(kind, distinct, n_frames, chunk, table, cap, order, signed_zero,
                             dtype, p, seed)


def test_frame_table_paths_are_taken(monkeypatch):
    """The property's TABLE_PATHS examples take every path of the table:
    several flushes, chunks run whole because their distinct frames
    overflow an empty table, and late chunks whose one new frame runs
    through unit_forward alone."""
    seen = {"flush": 0, "whole": 0, "new": []}
    real_flush, real_units = normalize._FrameTable.flush, normalize.unit_forward

    def flush(table):
        seen["flush"] += bool(table.rows)
        return real_flush(table)

    def whole(net, x):
        seen["whole"] += 1
        return forward_units(net, x)

    def units(x, *rest):
        seen["new"].append(len(x))
        return real_units(x, *rest)

    monkeypatch.setattr(normalize._FrameTable, "flush", flush)
    monkeypatch.setattr(normalize, "forward_units", whole)
    monkeypatch.setattr(normalize, "unit_forward", units)
    _check_frame_table_stats(**TABLE_PATHS["flushes-and-refusals"])
    assert seen["flush"] >= 3 and seen["whole"] >= 1, seen
    seen.update(flush=0, whole=0, new=[])
    _check_frame_table_stats(**TABLE_PATHS["one-new-per-chunk"])
    assert seen["flush"] >= 2 and seen["new"][1:].count(1) >= 3, seen


def test_frame_table_runs_each_distinct_frame_once_and_dense_layers_per_chunk(monkeypatch):
    """Over 8 chunks drawn from 20 binary frames, the unit maps see each
    distinct frame once, while the dense layers still get every chunk
    whole, in order, as the very matrices forward_batch gives them.  Each
    chunk gathers the unit ids of one layer only, the last the table
    holds, the one it expands."""
    rng = np.random.default_rng(5)
    net = NetworkSpec((1, 12, 12), [
        conv2d(rng.normal(0.0, 0.3, (8, 1, 3, 3)), rng.normal(0.0, 0.05, 8)),
        conv2d(rng.normal(0.0, 0.1, (4, 8, 3, 3)), rng.normal(0.0, 0.05, 4)), flatten(),
        dense(rng.normal(0.0, 0.05, (16, 256)), rng.normal(0.0, 0.05, 16)),
        dense(rng.normal(0.0, 0.25, (4, 16)), np.zeros(4), activation="none")])
    binary = (rng.random((20, 1, 12, 12)) < 0.3).astype(np.float32)
    frames = binary[rng.integers(len(binary), size=8 * STATS_CHUNK)]
    mapped, dense_inputs, gathered = [], [], []
    real_maps, real_linear, real_units = network.unit_maps, network.apply_layer_linear, Units
    monkeypatch.setattr(network, "unit_maps",
                        lambda x, *rest: mapped.append(len(x)) or real_maps(x, *rest))
    monkeypatch.setattr(network, "apply_layer_linear",
                        lambda layer, x: dense_inputs.append((layer, x.copy()))
                        or real_linear(layer, x))
    monkeypatch.setattr(normalize, "Units", lambda ids, *rest: gathered.append(ids.shape)
                        or real_units(ids, *rest))
    collect_stats(net, frames, NormConfig(99.0))
    assert sum(mapped) == len({frame.tobytes() for frame in frames}) == 20
    per_chunk = [shape for shape in gathered if shape[0] == STATS_CHUNK]
    assert per_chunk == [(STATS_CHUNK, 8 * 8)] * 8, gathered  # the second conv's 8x8 positions
    where = {id(layer): i for i, layer in enumerate(net.layers)}
    assert [(where[id(layer)], len(x)) for layer, x in dense_inputs] == \
        [(i, STATS_CHUNK) for _ in range(8) for i in (3, 4)]
    monkeypatch.setattr(network, "unit_maps", real_maps)
    monkeypatch.setattr(network, "apply_layer_linear", real_linear)
    for start, (_, x) in zip(range(0, len(frames), STATS_CHUNK), dense_inputs[::2]):
        acts, _ = forward_batch(net, frames[start:start + STATS_CHUNK])
        assert np.array_equal(x, acts[2]) and not np.signbit(x).any()


def test_frame_table_memory_does_not_grow_with_the_frames(monkeypatch):
    """Frames that keep units but never repeat fill the table, which
    flushes when the next chunk would overflow it: peak traced memory
    over 8 chunks stays within 10 % of that over 2.  p = 100 keeps one
    top sample per layer, so only the table could grow."""
    rng = np.random.default_rng(6)
    net = NetworkSpec((1, 12, 12), [
        conv2d(rng.normal(0.0, 0.3, (16, 1, 3, 3)), rng.normal(0.0, 0.05, 16)),
        conv2d(rng.normal(0.0, 0.1, (4, 16, 3, 3)), rng.normal(0.0, 0.05, 4)), flatten(),
        dense(rng.normal(0.0, 0.05, (16, 256)), rng.normal(0.0, 0.05, 16)),
        dense(rng.normal(0.0, 0.25, (4, 16)), np.zeros(4), activation="none")])
    frames = (rng.random((8 * STATS_CHUNK, 1, 12, 12)) < 0.05).astype(np.float32)
    assert len({frame.tobytes() for frame in frames}) > 0.99 * len(frames)
    kept = forward_units(net, frames[:STATS_CHUNK])[:2]
    assert all(isinstance(r, UnitValues) for r in kept)
    monkeypatch.setattr(normalize, "STATS_TABLE_BYTES", 3 * STATS_CHUNK // 2 * frames[0].nbytes)
    peaks = []
    for chunks in (2, 8):
        tracemalloc.start()
        try:
            collect_stats(net, frames[:chunks * STATS_CHUNK], NormConfig(100.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_top_of_counts_orders_nan_last_as_partition_does():
    """The keep largest of a (value, count) multiset are the values
    np.partition puts last in the pooled samples, NaN above inf."""
    values = np.array([1.0, np.nan, np.inf, 0.5, np.nan, -2.0, 3.0])
    counts = np.array([3, 2, 1, 4, 1, 2, 1])
    pooled = np.repeat(values, counts)
    for keep in range(1, pooled.size + 3):
        at = max(pooled.size - keep, 0)
        want = np.sort(np.partition(pooled, at)[at:])
        got = np.sort(_top_of_counts(values, counts, keep))
        assert [x.hex() for x in got] == [x.hex() for x in want], keep
    assert np.isnan(_top_of_counts(values, counts, 3)).all()


def test_collect_stats_memory_stays_below_pooled_samples():
    """Streaming holds one chunk and the top 1 %, not every sample: peak
    traced memory over 8 chunks stays below half the pooled samples' bytes."""
    rng = np.random.default_rng(3)
    net = NetworkSpec((1, 12, 12), [
        conv2d(rng.normal(0.0, 0.3, (6, 1, 3, 3)), rng.normal(0.0, 0.05, 6)), flatten(),
        dense(rng.normal(0.0, 0.05, (16, 600)), rng.normal(0.0, 0.05, 16)),
        dense(rng.normal(0.0, 0.25, (4, 16)), np.zeros(4), activation="none")])
    frames = rng.random((8 * STATS_CHUNK, 1, 12, 12)).astype(np.float32)
    tracemalloc.start()
    try:
        stats = collect_stats(net, frames, NormConfig(99.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pooled_bytes = 8 * sum(stats.sample_counts)
    assert peak < pooled_bytes / 2, (peak, pooled_bytes)


def test_collect_stats_pools_conv_units_without_expanding_them():
    """On frames that repeat both convs are kept per unit and pooled as
    (value, count) pairs: peak traced memory over 8 chunks stays below
    the bytes of one chunk's conv samples, which expanding them would
    take."""
    rng = np.random.default_rng(4)
    net = NetworkSpec((1, 12, 12), [
        conv2d(rng.normal(0.0, 0.3, (16, 1, 3, 3)), rng.normal(0.0, 0.05, 16)),
        conv2d(rng.normal(0.0, 0.1, (4, 16, 3, 3)), rng.normal(0.0, 0.05, 4)), flatten(),
        dense(rng.normal(0.0, 0.05, (16, 256)), rng.normal(0.0, 0.05, 16)),
        dense(rng.normal(0.0, 0.25, (4, 16)), np.zeros(4), activation="none")])
    binary = (rng.random((20, 1, 12, 12)) < 0.3).astype(np.float32)
    frames = binary[rng.integers(len(binary), size=8 * STATS_CHUNK)]
    kept = forward_units(net, frames[:STATS_CHUNK])[:2]
    assert all(isinstance(r, UnitValues) for r in kept)
    tracemalloc.start()
    try:
        collect_stats(net, frames, NormConfig(99.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_bytes = 8 * STATS_CHUNK * (16 * 10 * 10 + 4 * 8 * 8)  # as float64
    assert peak < chunk_bytes, (peak, chunk_bytes)


def test_stats_per_config_equal_collect_stats_per_config(rng):
    """Configs with the same frame cap share a pass; each cap gets its own."""
    net = rand_conv_net(rng)
    frames = rand_frames(rng, STATS_CHUNK + 50, net.input_shape)
    configs = [NormConfig(100.0), NormConfig(99.0, max_frames=70), NormConfig(99.9),
               NormConfig(99.5, max_frames=70)]
    got = _stats_per_config(net, frames, configs, provenance="fixture")
    assert got == [collect_stats(net, frames, c, provenance="fixture") for c in configs]


def test_collect_stats_records_provenance(rng):
    net = rand_net(rng)
    frames = rand_frames(rng, 5, net.input_shape)
    stats = collect_stats(net, frames, NormConfig(99.9), provenance="unit test frames")
    assert stats.provenance == "unit test frames"


def test_collect_stats_needs_a_frame():
    net = NetworkSpec((2,), [dense(np.eye(2), np.zeros(2), activation="none")])
    with pytest.raises(ValueError, match="need at least one calibration frame"):
        collect_stats(net, np.zeros((0, 2)), NormConfig(99.9))


def test_apply_normalization_refuses_weights_past_float32():
    net = NetworkSpec((2,), [dense(np.full((2, 2), 1e38), np.zeros(2), activation="none")])
    stats = NormStats(scales=[1.0, 1e-3], sample_counts=[2, 2], config=NormConfig(99.9))
    with pytest.raises(ValueError, match="layer 0: weights or bias scaled by .* do not fit "
                                         "in float32"):
        apply_normalization(net, stats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_collect_stats_rejects_non_finite_frames(bad):
    net = NetworkSpec((2,), [dense(np.eye(2), np.zeros(2), activation="none")])
    frames = np.zeros((3, 2))
    frames[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        collect_stats(net, frames, NormConfig())


@pytest.mark.parametrize("n_frames, at, cap", [
    (3, 2, 1), (3 * STATS_CHUNK, 2 * STATS_CHUNK + 5, 10),
    (3 * STATS_CHUNK, 2 * STATS_CHUNK + 5, 15000)])
def test_collect_stats_checks_every_frame_past_cap_and_first_chunk(n_frames, at, cap):
    """Frames are converted chunk by chunk, yet every one must be finite."""
    net = NetworkSpec((2,), [dense(np.eye(2), np.zeros(2), activation="none")])
    frames = np.zeros((n_frames, 2), dtype=np.float32)
    frames[at, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        collect_stats(net, frames, NormConfig(max_frames=cap))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n_frames, at, cap", [
    (3, 2, 1), (3 * STATS_CHUNK, 2 * STATS_CHUNK + 5, 10),
    (3 * STATS_CHUNK, 2 * STATS_CHUNK + 5, 15000)])
def test_frame_table_checks_every_frame(n_frames, at, cap, bad):
    """The frame table converts only the frames it has not seen, yet every
    frame must be finite: a NaN frame keeps no unit and runs its chunk
    whole, an infinite one is a new frame of the table."""
    net = NetworkSpec((1, 4, 4), [conv2d(np.ones((2, 1, 3, 3)), np.zeros(2)), flatten(),
                                  dense(np.ones((2, 8)), np.zeros(2), activation="none")])
    frames = np.zeros((n_frames, 1, 4, 4), dtype=np.float32)
    frames[at, 0, 1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        collect_stats(net, frames, NormConfig(max_frames=cap))


def test_save_stats_writes_only_strict_json(tmp_path):
    stats = NormStats(scales=[1.0, math.nan], sample_counts=[0, 1], config=NormConfig())
    with pytest.raises(ValueError):
        save_stats(stats, tmp_path / "s.json")
    assert not (tmp_path / "s.json").exists()


def test_norm_config_rejects_out_of_range_percentile():
    with pytest.raises(ValueError):
        NormConfig(98.0)
    with pytest.raises(ValueError):
        NormConfig(100.5)


@pytest.mark.parametrize("kwargs", [
    {"percentile": "99.9"}, {"percentile": True}, {"percentile": None},
    {"max_frames": 15000.0}, {"max_frames": 15000.7}, {"max_frames": True},
    {"max_frames": "15000"}])
def test_norm_config_rejects_mistyped_values(kwargs):
    """A frame cap that is not an integer would only fail later, slicing
    the calibration frames."""
    with pytest.raises(ValueError):
        NormConfig(**kwargs)


@pytest.mark.parametrize("value", [True, "99.9", None])
def test_norm_config_percentile_is_a_number(value):
    """The percentile is checked by the rule every config's numbers share
    (network.require_number)."""
    with pytest.raises(ValueError, match="percentile must be a number"):
        NormConfig(percentile=value)


def test_norm_config_accepts_any_integer_count_and_real_percentile():
    config = NormConfig(percentile=100, max_frames=np.int64(10))
    assert (config.percentile, config.max_frames) == (100, 10)


# ---------------------------------------------------------------------------
# apply_normalization

def test_apply_normalization_arithmetic():
    net = NetworkSpec((1,), [dense(np.array([[2.0]]), np.array([8.0]), activation="none")])
    stats = NormStats(scales=[2.0, 4.0], sample_counts=[0, 1], config=NormConfig(100.0))
    out = apply_normalization(net, stats)
    assert out.layers[0].weights[0, 0] == pytest.approx(1.0)
    assert out.layers[0].bias[0] == pytest.approx(2.0)
    # original untouched
    assert net.layers[0].weights[0, 0] == 2.0 and net.layers[0].bias[0] == 8.0


def test_apply_normalization_identity_scales(rng):
    net = rand_net(rng)
    n_param = len(net.parameterized_indices())
    stats = NormStats(scales=[1.0] * (n_param + 1), sample_counts=[0] * (n_param + 1),
                      config=NormConfig(100.0))
    out = apply_normalization(net, stats)
    for a, b in zip(net.layers, out.layers):
        if a.parameterized:
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def test_apply_normalization_rejects_bad_stats(rng):
    net = rand_net(rng)
    n_param = len(net.parameterized_indices())
    with pytest.raises(ValueError):
        apply_normalization(net, NormStats([1.0] * (n_param + 2), [0] * (n_param + 2),
                                           NormConfig(100.0)))
    for value in (-0.5, math.nan, math.inf):
        bad = NormStats([1.0] * (n_param + 1), [0] * (n_param + 1), NormConfig(100.0))
        bad.scales[-1] = value
        with pytest.raises(ValueError):
            apply_normalization(net, bad)


def test_scaling_identity_per_layer(rng):
    """Each normalized activation equals the original divided by its scale."""
    for _ in range(5):
        net = rand_net(rng)
        frames = rand_frames(rng, 30, net.input_shape)
        stats = collect_stats(net, frames, NormConfig(100.0))
        norm = apply_normalization(net, stats)
        acts, _ = forward_batch(net, frames)
        acts_n, _ = forward_batch(norm, frames)
        for j, li in enumerate(net.parameterized_indices()):
            want = acts[li] / stats.scales[j + 1]
            # atol absorbs float32 rounding of the rescaled weights near ReLU cuts
            np.testing.assert_allclose(acts_n[li], want, rtol=1e-5, atol=1e-6)


def test_normalized_hidden_activations_at_most_one_with_max_scales(rng):
    for _ in range(5):
        net = rand_net(rng)
        frames = rand_frames(rng, 30, net.input_shape)
        stats = collect_stats(net, frames, NormConfig(100.0))
        norm = apply_normalization(net, stats)
        acts, _ = forward_batch(norm, frames)
        for li in net.parameterized_indices()[:-1]:
            assert np.max(acts[li]) <= 1.0 + 1e-5


def test_greedy_action_preserved_by_normalization(rng):
    net = rand_net(rng)
    frames = rand_frames(rng, 200, net.input_shape)
    stats = collect_stats(net, frames, NormConfig(99.9))
    norm = apply_normalization(net, stats)
    _, q = forward_batch(net, frames)
    _, qn = forward_batch(norm, frames)
    assert all(greedy_action(a) == greedy_action(b) for a, b in zip(q, qn))


# ---------------------------------------------------------------------------
# stats files

def test_stats_round_trip_bit_exact(tmp_path, rng):
    net = rand_net(rng)
    frames = rand_frames(rng, 20, net.input_shape)
    stats = collect_stats(net, frames, NormConfig(99.5, max_frames=100),
                          provenance="fixture")
    save_stats(stats, tmp_path / "s.json")
    back = load_stats(tmp_path / "s.json")
    assert back.scales == stats.scales  # exact float round-trip through JSON repr
    assert back.sample_counts == stats.sample_counts
    assert back.config == stats.config
    assert back.warnings == stats.warnings
    assert back.provenance == stats.provenance
    # byte-stable across writes
    save_stats(back, tmp_path / "s2.json")
    assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_load_stats_rejects_malformed(tmp_path):
    (tmp_path / "s.json").write_text("{\"percentile\": 99.9}")
    with pytest.raises(ValueError):
        load_stats(tmp_path / "s.json")


def test_load_stats_of_a_missing_file_is_not_malformed(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_stats(tmp_path / "absent.json")
