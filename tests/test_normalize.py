"""Percentile scale factors and parameter rescaling."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rateconv import (NetworkSpec, NormConfig, NormStats, apply_normalization,
                      collect_stats, dense, forward, forward_batch, greedy_action,
                      load_stats, percentile, save_stats)

from conftest import rand_net, rand_frames


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
            trace = forward(net, frame)
            for j, li in enumerate(param):
                a = trace.activations[li]
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
