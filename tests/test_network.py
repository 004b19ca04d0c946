"""Forward-pass correctness against naive reference arithmetic."""

import numpy as np
import pytest

from rateconv import (NetworkSpec, dense, conv2d, flatten, forward, forward_batch,
                      greedy_action, epsilon_greedy_action, validate_network)
from rateconv.network import conv2d_batch

from conftest import rand_conv_net, rand_net


# ---------------------------------------------------------------------------
# reference implementations: plain loops, no shared code with the package

def naive_dense(x, w, b):
    out = np.zeros(w.shape[0])
    for o in range(w.shape[0]):
        acc = float(b[o])
        for i in range(w.shape[1]):
            acc += float(w[o, i]) * float(x[i])
        out[o] = acc
    return out


def naive_conv2d(x, w, b, stride, padding):
    out_ch, in_ch, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    c, h, wd = x.shape
    xp = np.zeros((c, h + 2 * ph, wd + 2 * pw))
    xp[:, ph:ph + h, pw:pw + wd] = x
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((out_ch, oh, ow))
    for o in range(out_ch):
        for i in range(oh):
            for j in range(ow):
                acc = float(b[o])
                for ci in range(in_ch):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += float(w[o, ci, ki, kj]) * xp[ci, i * sh + ki, j * sw + kj]
                out[o, i, j] = acc
    return out


def naive_forward(net, x):
    x = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        if layer.kind == "dense":
            x = naive_dense(x, layer.weights.astype(np.float64),
                            layer.bias.astype(np.float64))
        elif layer.kind == "conv2d":
            x = naive_conv2d(x, layer.weights.astype(np.float64),
                             layer.bias.astype(np.float64), layer.stride, layer.padding)
        else:
            x = x.reshape(-1)
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
    return x.reshape(-1)


# ---------------------------------------------------------------------------
# validation

def test_validate_chained_dense_ok():
    rng = np.random.default_rng(0)
    net = NetworkSpec((3,), [dense(rng.normal(size=(4, 3)), np.zeros(4)),
                             dense(rng.normal(size=(2, 4)), np.zeros(2), activation="none")])
    assert validate_network(net).ok


def test_validate_reports_shape_mismatch_with_layer_index():
    rng = np.random.default_rng(0)
    net = NetworkSpec((3,), [dense(rng.normal(size=(4, 3)), np.zeros(4)),
                             dense(rng.normal(size=(2, 5)), np.zeros(2), activation="none")])
    result = validate_network(net)
    assert not result.ok
    assert any(v.startswith("layer 1:") for v in result.violations)


def test_validate_rejects_zero_stride():
    net = NetworkSpec((1, 6, 6), [
        conv2d(np.zeros((2, 1, 3, 3)), np.zeros(2), stride=(0, 1)),
        flatten(),
        dense(np.zeros((2, 32)), np.zeros(2), activation="none"),
    ])
    result = validate_network(net)
    assert not result.ok
    assert any("stride" in v for v in result.violations)


def test_validate_rejects_hidden_layer_without_relu():
    net = NetworkSpec((3,), [dense(np.zeros((4, 3)), np.zeros(4), activation="none"),
                             dense(np.zeros((2, 4)), np.zeros(2), activation="none")])
    assert not validate_network(net).ok


def test_validate_rejects_double_flatten_and_conv_after_flatten():
    net = NetworkSpec((1, 4, 4), [
        flatten(),
        flatten(),
        dense(np.zeros((2, 16)), np.zeros(2), activation="none"),
    ])
    result = validate_network(net)
    assert any("at most once" in v for v in result.violations)

    net2 = NetworkSpec((1, 4, 4), [
        flatten(),
        conv2d(np.zeros((2, 1, 3, 3)), np.zeros(2)),
        dense(np.zeros((2, 8)), np.zeros(2), activation="none"),
    ])
    assert not validate_network(net2).ok


def test_validate_rejects_non_finite_parameters():
    for bad in (np.inf, -np.inf, np.nan):
        w = np.ones((2, 1, 3, 3))
        w[1, 0, 2, 2] = bad
        net = NetworkSpec((1, 4, 4), [conv2d(w, np.zeros(2)), flatten(),
                                      dense(np.ones((2, 8)), [0.0, bad], activation="none")])
        result = validate_network(net)
        assert "layer 0: weights must be finite" in result.violations
        assert "layer 2: bias must be finite" in result.violations


def test_validate_requires_parameterized_layer():
    net = NetworkSpec((1, 4, 4), [flatten()])
    result = validate_network(net)
    assert not result.ok


# ---------------------------------------------------------------------------
# forward

def test_forward_identity_weights():
    net = NetworkSpec((2,), [dense(np.eye(2), np.zeros(2))])
    trace = forward(net, [0.3, 0.7])
    np.testing.assert_allclose(trace.activations[0], [0.3, 0.7])


def test_forward_relu_clamps_negative():
    net = NetworkSpec((2,), [dense(np.array([[1.0, -1.0]]), np.zeros(1))])
    trace = forward(net, [0.2, 0.5])
    assert trace.activations[0][0] == 0.0


def test_forward_rejects_bad_shape():
    net = NetworkSpec((2,), [dense(np.eye(2), np.zeros(2))])
    with pytest.raises(ValueError):
        forward(net, [0.1, 0.2, 0.3])


def test_forward_matches_naive_oracle_on_random_nets():
    rng = np.random.default_rng(11)
    for _ in range(100):
        net = rand_net(rng)
        x = rng.random(net.input_shape)
        got = forward(net, x).qvalues
        want = naive_forward(net, x)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_forward_is_deterministic():
    rng = np.random.default_rng(3)
    net = rand_conv_net(rng)
    x = rng.random(net.input_shape)
    a = forward(net, x).qvalues
    b = forward(net, x).qvalues
    assert np.array_equal(a, b)


def test_forward_batch_agrees_with_single():
    rng = np.random.default_rng(4)
    net = rand_net(rng)
    xs = rng.random((16, *net.input_shape))
    _, q = forward_batch(net, xs)
    for i in range(16):
        np.testing.assert_allclose(q[i], forward(net, xs[i]).qvalues, atol=1e-12)


def test_padded_strided_conv2d_matches_oracle(rng):
    """The per-offset einsum on a stride and padding that differ by axis,
    against the naive loop, to rounding on analog inputs."""
    w = rng.normal(0, 0.3, (3, 2, 3, 2))
    b = rng.normal(0, 0.1, 3)
    x = rng.random((5, 2, 7, 6))
    got = conv2d_batch(x, w, b, (2, 1), (1, 2))
    for i in range(len(x)):
        np.testing.assert_allclose(got[i], naive_conv2d(x[i], w, b, (2, 1), (1, 2)), atol=1e-12)


def test_hidden_activations_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = rand_net(rng)
        trace = forward(net, rng.random(net.input_shape))
        for a in trace.activations[:-1]:
            assert np.all(a >= 0.0)


def test_positive_scaling_of_final_layer_keeps_greedy_action():
    rng = np.random.default_rng(6)
    for _ in range(30):
        net = rand_net(rng)
        x = rng.random(net.input_shape)
        before = greedy_action(forward(net, x).qvalues)
        c = float(rng.uniform(0.1, 10.0))
        last = net.layers[-1]
        scaled = NetworkSpec(net.input_shape, net.layers[:-1] + [
            dense(last.weights * c, last.bias * c, activation=last.activation)])
        after = greedy_action(forward(scaled, x).qvalues)
        assert before == after


# ---------------------------------------------------------------------------
# policies

def test_greedy_action_examples():
    assert greedy_action([0.1, 0.9, 0.3]) == 1
    assert greedy_action([0.5, 0.5, 0.1]) == 0  # tie -> lowest index
    with pytest.raises(ValueError):
        greedy_action([])


def test_greedy_action_matches_linear_scan():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rng.normal(size=rng.integers(1, 9))
        best, arg = -np.inf, 0
        for i, v in enumerate(q):
            if v > best:
                best, arg = v, i
        assert greedy_action(q) == arg


def test_epsilon_zero_is_greedy():
    rng = np.random.default_rng(8)
    q = [0.2, 0.9, 0.1]
    assert all(epsilon_greedy_action(q, 0.0, rng) == 1 for _ in range(100))


def test_epsilon_one_is_uniform():
    rng = np.random.default_rng(9)
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        counts[epsilon_greedy_action([1.0, 0.0, 0.0, 0.0], 1.0, rng)] += 1
    np.testing.assert_allclose(counts / n, 0.25, atol=0.01)


def test_epsilon_small_frequency_matches_expectation():
    rng = np.random.default_rng(10)
    n = 100_000
    hits = sum(epsilon_greedy_action([1.0, 0.0], 0.05, rng) == 0 for _ in range(n))
    assert abs(hits / n - 0.975) < 0.005  # 1 - eps + eps/2


def test_epsilon_out_of_range_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        epsilon_greedy_action([1.0], 1.5, rng)
