"""Percentile scale factors and parameter rescaling."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rateconv import (NetworkSpec, NormConfig, NormStats, apply_normalization,
                      collect_stats, conv2d, dense, flatten, forward_batch,
                      greedy_action, load_stats, percentile, save_stats)
from rateconv.normalize import STATS_CHUNK, _rank, _stats_per_config

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


def _pooled_stats(net, frames, config):
    """Reference: pool every sample of every STATS_CHUNK pass, then percentile()."""
    frames = np.asarray(frames, dtype=np.float64)[:config.max_frames]
    param = net.parameterized_indices()
    pools = [[] for _ in param]
    for start in range(0, frames.shape[0], STATS_CHUNK):
        acts, _ = forward_batch(net, frames[start:start + STATS_CHUNK])
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


def _property_net(rng, kind, variant):
    net = {"dense": rand_dense_net, "conv": rand_conv_net,
           "overflow": lambda _: _overflow_net()}[kind](rng)
    for layer in net.layers:
        if not layer.parameterized or kind == "overflow":
            continue
        if variant == "zeros":
            layer.weights[...] = 0.0
            layer.bias[...] = 0.0
        elif variant == "ties":  # a coarse grid makes many activations equal
            layer.weights[...] = np.round(layer.weights * 2.0) / 2.0
            layer.bias[...] = np.round(layer.bias * 2.0) / 2.0
    if variant == "negative":
        net.layers[-1].bias[...] -= 2.0  # most final-layer outputs below 0
    return net


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["dense", "conv", "overflow"]),
       variant=st.sampled_from(["plain", "ties", "zeros", "negative"]),
       n_frames=st.integers(1, 40) | st.sampled_from([STATS_CHUNK, STATS_CHUNK + 1,
                                                      2 * STATS_CHUNK, 2 * STATS_CHUNK + 37]),
       cap=st.none() | st.integers(1, 3 * STATS_CHUNK),
       p=st.sampled_from([99.0, 99.9, 100.0, 99.37]),
       seed=st.integers(0, 2**16))
@example(kind="overflow", variant="plain", n_frames=2 * STATS_CHUNK, cap=None, p=99.0, seed=2)
def test_streaming_stats_equal_pooled_percentile(kind, variant, n_frames, cap, p, seed):
    """Streaming collect_stats gives percentile() of the pooled samples bit
    for bit (NaN equal to NaN): with ties, all zeros and negative outputs,
    with fewer than 100 samples or one part-filled chunk, and with a last
    chunk full or not."""
    rng = np.random.default_rng(seed)
    net = _property_net(rng, kind, variant)
    frames = rng.random((n_frames, *net.input_shape))
    if variant == "ties":
        frames = np.round(frames * 2.0) / 2.0
    if kind == "overflow":  # only the first seed % 4 frames reach inf and NaN
        frames[seed % 4:] *= 1e-300
    config = NormConfig(p, max_frames=cap or n_frames)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = collect_stats(net, frames, config)
        scales, counts, fallbacks = _pooled_stats(net, frames, config)
    assert [x.hex() for x in stats.scales] == [float(x).hex() for x in scales]
    assert stats.sample_counts == counts
    assert len(stats.warnings) == fallbacks


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
