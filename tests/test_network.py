"""Forward-pass correctness against naive reference arithmetic."""

import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rateconv import (NetworkSpec, NormConfig, SimConfig, apply_normalization, collect_stats,
                      dense, conv2d, flatten, forward_batch, greedy_action, run_batch,
                      validate_network)
from rateconv import network
from rateconv.evaluate import AnalogAgent
from rateconv.lincatch import LineCatchEnv
from rateconv.network import (UNIT_SAMPLE, LayerSpec, apply_layer_linear, conv2d_batch, explore,
                              first_new, frame_keys, layer_output_shape, leading_convs,
                              number_keys, receptive_fields, unit_maps)

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


def test_validate_rejects_unknown_kind_and_flatten_with_parameters():
    head = dense(np.zeros((2, 4)), np.zeros(2), activation="none")
    unknown = validate_network(NetworkSpec((4,), [LayerSpec("pool", activation="none"), head]))
    assert unknown.violations == ["layer 0: unknown kind 'pool'"]
    weighted = LayerSpec("flatten", weights=np.zeros(1), activation="none")
    carrying = validate_network(NetworkSpec((1, 2, 2), [weighted, head]))
    assert carrying.violations == ["layer 0: flatten carries no parameters"]


@pytest.mark.parametrize("layer, in_shape, message", [
    (LayerSpec("dense", np.zeros((2, 3, 1)), np.zeros(2)), (3,),
     r"dense layer needs 2-D weights \[out, in\]"),
    (LayerSpec("dense", np.zeros((2, 3)), np.zeros(2)), (1, 3),
     r"dense layer expects 1-D input, got \(1, 3\)"),
    (LayerSpec("dense", np.zeros((2, 3)), np.zeros(3)), (3,),
     r"dense bias must have shape \(2,\)"),
    (LayerSpec("conv2d", np.zeros((2, 1, 3)), np.zeros(2)), (1, 4, 4),
     r"conv2d layer needs 4-D weights \[out_ch, in_ch, kh, kw\]"),
    (LayerSpec("conv2d", np.zeros((2, 1, 3, 3)), np.zeros(3)), (1, 4, 4),
     r"conv2d bias must have shape \(2,\)"),
    (LayerSpec("pool"), (3,), "unknown layer kind 'pool'"),
])
def test_layer_output_shape_names_what_does_not_fit(layer, in_shape, message):
    with pytest.raises(ValueError, match=message):
        layer_output_shape(layer, in_shape)


# ---------------------------------------------------------------------------
# parameters: each layer owns them, read-only, with one float64 copy

def test_layer_parameters_are_read_only_with_one_float64_copy(rng):
    w = rng.normal(size=(3, 8)).astype(np.float32)
    conv = conv2d(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2), padding=(1, 1))
    net = NetworkSpec((1, 4, 4), [conv, flatten(), dense(rng.normal(size=(8, 32)), np.zeros(8)),
                                  dense(w, np.arange(3.0), activation="none")])
    assert not np.shares_memory(net.layers[-1].weights, w) and w.flags.writeable
    w[0, 0] += 1.0
    assert net.layers[-1].weights[0, 0] != w[0, 0]
    assert flatten().weights64 is None and flatten().bias64 is None

    assert conv.weights64 is not None  # cached before replace, which must not carry it over
    doubled = replace(conv, weights=conv.weights * 2.0)
    stats = collect_stats(net, rng.random((20, 1, 4, 4)), NormConfig(99.0))
    normalized = [l for l in apply_normalization(net, stats).layers if l.parameterized]
    for layer in [l for l in net.layers if l.parameterized] + [doubled] + normalized:
        assert layer.weights64 is layer.weights64 and layer.bias64 is layer.bias64
        for low, wide in ((layer.weights, layer.weights64), (layer.bias, layer.bias64)):
            assert low.dtype == np.float32 and wide.dtype == np.float64
            assert low.flags.c_contiguous and wide.flags.c_contiguous
            assert np.array_equal(wide.view(np.uint64), low.astype(np.float64).view(np.uint64))
        for name in ("weights", "bias", "weights64", "bias64"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(layer, name)[...] = 0.0
    assert np.array_equal(doubled.weights64, 2.0 * conv.weights64)


def _widenings(tree: ast.AST) -> list[str]:
    """Where a module widens parameters outside LayerSpec (a .weights or
    .bias .astype call) or takes them widened (a weights64 or bias64
    function parameter)."""
    owner = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             and c.name == "LayerSpec" for n in ast.walk(c)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            found += [f"line {node.lineno}: parameter {arg.arg}"
                      for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if arg is not None and arg.arg in ("weights64", "bias64")]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype" and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in ("weights", "bias") and id(node) not in owner):
            found.append(f"line {node.lineno}: .{node.func.value.attr}.astype")
    return found


def test_only_layerspec_widens_parameters():
    """The float64 parameters have one owner: a module that widened them
    again, or passed widened copies around, would bring back the copies
    made per call that LayerSpec.weights64 and .bias64 replace."""
    assert len(_widenings(ast.parse(
        "def f(layer, x, weights64=None, *, bias64):\n"
        "    return layer.weights.astype(float), layer.bias.astype(float)\n"
        "class LayerSpec:\n"
        "    def g(self):\n"
        "        return self.weights.astype(float)\n"))) == 4
    sources = sorted(Path(network.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{p.name} {where}" for p in sources for where in _widenings(ast.parse(p.read_text()))]
    assert not found, found


def _void_views(tree: ast.AST) -> list[str]:
    """Where a module names the void dtype, as frame keys view rows: np.void,
    a bare void or a "V<n>" dtype string."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "void"
            or isinstance(node, ast.Name) and node.id == "void"
            or isinstance(node, ast.alias) and node.name == "void"
            or isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[|<>=]?V\d+", node.value)]


def test_only_network_keys_frames():
    """Frames are told apart one way, network.frame_keys, which views each
    row as one np.void: a module that built frame keys of its own would
    bring back a second way to find distinct frames."""
    assert len(_void_views(ast.parse(
        "from numpy import void\n"
        "keys = rows.view(np.dtype((np.void, 8))).ravel().tolist()\n"
        "also = rows.view(void), rows.view('V16')\n"))) == 4
    sources = sorted(Path(network.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = {p.name for p in sources if _void_views(ast.parse(p.read_text()))}
    assert found == {"network.py"}, found


# ---------------------------------------------------------------------------
# forward

def test_forward_identity_weights():
    net = NetworkSpec((2,), [dense(np.eye(2), np.zeros(2))])
    acts, _ = forward_batch(net, np.array([[0.3, 0.7]]))
    np.testing.assert_allclose(acts[0][0], [0.3, 0.7])


def test_forward_relu_clamps_negative():
    net = NetworkSpec((2,), [dense(np.array([[1.0, -1.0]]), np.zeros(1))])
    acts, _ = forward_batch(net, np.array([[0.2, 0.5]]))
    assert acts[0][0, 0] == 0.0


def test_forward_rejects_bad_shape():
    net = NetworkSpec((2,), [dense(np.eye(2), np.zeros(2))])
    with pytest.raises(ValueError):
        forward_batch(net, np.array([[0.1, 0.2, 0.3]]))


def test_forward_matches_naive_oracle_on_random_nets():
    rng = np.random.default_rng(11)
    for _ in range(100):
        net = rand_net(rng)
        x = rng.random(net.input_shape)
        got = forward_batch(net, x[None])[1][0]
        want = naive_forward(net, x)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_affine_kernels_refuse_what_they_cannot_compute():
    with pytest.raises(ValueError, match="conv2d input has 2 channels, expected 1"):
        conv2d_batch(np.zeros((1, 2, 4, 4)), np.zeros((3, 1, 2, 2)), np.zeros(3), (1, 1), (0, 0))
    with pytest.raises(ValueError, match="layer kind 'flatten' has no parameters"):
        apply_layer_linear(flatten(), np.zeros((1, 3)))


def test_forward_is_deterministic():
    rng = np.random.default_rng(3)
    net = rand_conv_net(rng)
    x = rng.random(net.input_shape)
    a = forward_batch(net, x[None])[1][0]
    b = forward_batch(net, x[None])[1][0]
    assert np.array_equal(a, b)


def test_forward_batch_agrees_with_single():
    rng = np.random.default_rng(4)
    net = rand_net(rng)
    xs = rng.random((16, *net.input_shape))
    _, q = forward_batch(net, xs)
    for i in range(16):
        np.testing.assert_allclose(q[i], forward_batch(net, xs[i][None])[1][0], atol=1e-12)


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
        acts, _ = forward_batch(net, rng.random((1, *net.input_shape)))
        for a in acts[:-1]:
            assert np.all(a >= 0.0)


def test_positive_scaling_of_final_layer_keeps_greedy_action():
    rng = np.random.default_rng(6)
    for _ in range(30):
        net = rand_net(rng)
        x = rng.random(net.input_shape)
        before = greedy_action(forward_batch(net, x[None])[1][0])
        c = float(rng.uniform(0.1, 10.0))
        last = net.layers[-1]
        scaled = NetworkSpec(net.input_shape, net.layers[:-1] + [
            dense(last.weights * c, last.bias * c, activation=last.activation)])
        after = greedy_action(forward_batch(scaled, x[None])[1][0])
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
    assert all(explore(greedy_action(q), len(q), 0.0, rng) == 1 for _ in range(100))


def test_epsilon_one_is_uniform():
    rng = np.random.default_rng(9)
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        counts[explore(0, 4, 1.0, rng)] += 1
    np.testing.assert_allclose(counts / n, 0.25, atol=0.01)


def test_epsilon_small_frequency_matches_expectation():
    rng = np.random.default_rng(10)
    n = 100_000
    hits = sum(explore(0, 2, 0.05, rng) == 0 for _ in range(n))
    assert abs(hits / n - 0.975) < 0.005  # 1 - eps + eps/2



# ---------------------------------------------------------------------------
# units: each distinct receptive field once

@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 70),
       radix=st.sampled_from([None, 1, 2, 3, 1000, 2**40]))
@example(seed=0, n=0, d=70, radix=2**40)
@example(seed=0, n=0, d=3, radix=None)
@example(seed=1, n=1, d=70, radix=2**40)
@example(seed=1, n=1, d=5, radix=None)
def test_distinct_codes_groups_rows_as_unique_does(seed, n, d, radix):
    """_distinct_codes finds np.unique(axis=0)'s groups, each first row
    its first member, also when codes are ranked anew (a radix up to
    2^40 over up to 70 digits), for floats ranked among their distinct
    values (as unit_maps ranks pixels, -0.0 equal to 0.0), and for zero
    rows and one."""
    rng = np.random.default_rng(seed)
    if radix is None:
        rows = rng.choice(np.array([0.0, -0.0, 0.25, 1.0]), (n, d))
        values = network._distinct_values(rows)
        codes, radix = np.searchsorted(values, rows), len(values)
    else:
        rows = codes = rng.integers(0, min(radix, 3), (n, d))
    first, ids = network._distinct_codes(codes.T, n, radix)
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    pairs = np.unique(np.stack([ids, inverse]), axis=1).shape[1]
    assert len(first) == len(np.unique(inverse)) == pairs  # the same groups
    assert np.array_equal(first, [np.flatnonzero(ids == u)[0] for u in range(len(first))])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), shape=st.sampled_from(
           [(1,), (3,), (2, 3), (1, 2, 2), (0,), (2, 0)]),
       dtype=st.sampled_from([np.float32, np.float64, object]),
       split=st.integers(0, 30))
@example(seed=0, n=6, shape=(1,), dtype=np.float32, split=3)
def test_frame_keys_number_frames_by_their_bytes(seed, n, shape, dtype, split):
    """frame_keys and number_keys, the one way frames are told apart: two
    frames share a number exactly when their bytes are equal; numbers run
    from 0 in the order frames first come, and first_new finds each new
    number's first row; a second call on the same dict numbers only its
    new frames, from where the first left off.  -0.0 and 0.0 get keys of
    their own, one after + 0.0, and object frames are keyed as float64.
    Numbered after + 0.0, as replay numbers its trace, the groups are
    np.unique(axis=0)'s."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(np.array([0.0, -0.0, 0.5, 1.0]), (4, *shape))
    frames = pool[rng.integers(len(pool), size=n)].astype(dtype)
    flat = frames.astype(np.float64).reshape(n, -1)
    numbers: dict = {}
    split = min(split, n)
    head = number_keys(numbers, frame_keys(frames[:split]))
    size = len(numbers)
    tail = number_keys(numbers, frame_keys(frames[split:]))
    slots = np.concatenate([head, tail])
    assert slots.dtype == np.intp and len(numbers) == len(np.unique(slots))
    for i in range(n):
        for j in range(n):
            assert (slots[i] == slots[j]) == (flat[i].tobytes() == flat[j].tobytes())
    first = np.concatenate([first_new(head, 0), split + first_new(tail, size)])
    assert np.array_equal(slots[first], np.arange(len(numbers)))
    assert np.array_equal(first, [np.flatnonzero(slots == u)[0] for u in range(len(numbers))])
    assert list(numbers.values()) == list(range(len(numbers)))

    zeros = np.zeros((2, *shape), dtype)
    zeros[1] = -0.0
    signed = len(set(frame_keys(zeros))) == (2 if zeros[0].size else 1)
    assert signed and len(set(frame_keys(zeros + 0.0))) == 1

    replayed = number_keys({}, frame_keys(frames + 0.0))
    if flat.shape[1]:
        _, inverse = np.unique(flat, axis=0, return_inverse=True)
        pairs = np.unique(np.stack([replayed, inverse.ravel()]), axis=1).shape[1]
        assert len(np.unique(replayed)) == len(np.unique(inverse)) == pairs
    else:
        assert not replayed.any()


def layer_by_layer(net, frames):
    """The post-activation arrays of the whole pass: every layer over the
    whole batch through apply_layer_linear, no units."""
    x, acts = np.asarray(frames, dtype=np.float64), []
    for layer in net.layers:
        x = x.reshape(len(x), -1) if layer.kind == "flatten" else apply_layer_linear(layer, x)
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
        acts.append(x)
    return acts


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


SPARSE_LEVELS = np.array([0.0, -0.0, 1.0, 0.37, -0.5])


@st.composite
def conv_nets_and_frames(draw):
    """A net of 1-3 conv layers (kernels 1-3 per axis, stride 1-2 and
    padding 0-2 per axis, 1-5 channels, weights spread over 2^-20..1),
    then a dense output layer or none (the last conv is the output);
    1-12 frames, either mostly zero (+0.0 and -0.0) with a few other
    values, so receptive fields repeat, or random floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spread(*shape):
        return rng.normal(0.0, 1.0, shape) * 2.0 ** rng.integers(-20, 1, shape)

    c, h, w = draw(st.integers(1, 3)), draw(st.integers(3, 9)), draw(st.integers(3, 9))
    shape, layers = (c, h, w), []
    for _ in range(draw(st.integers(1, 3))):
        kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        oh = (h + 2 * padding[0] - kh) // stride[0] + 1
        ow = (w + 2 * padding[1] - kw) // stride[1] + 1
        if oh < 1 or ow < 1:
            break
        out = draw(st.integers(1, 5))
        layers.append(conv2d(spread(out, c, kh, kw), spread(out), stride, padding))
        c, h, w = out, oh, ow
    if not layers or draw(st.booleans()):
        layers += [flatten(), dense(spread(3, c * h * w), spread(3), activation="none")]
    else:
        layers[-1].activation = "none"
    batch = draw(st.integers(1, 12))
    if draw(st.booleans()):
        frames = rng.choice(SPARSE_LEVELS, (batch, *shape), p=[0.45, 0.4, 0.05, 0.05, 0.05])
    else:
        frames = rng.normal(0.0, 1.0, (batch, *shape))
    return NetworkSpec(shape, layers), frames


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=conv_nets_and_frames())
def test_unit_forward_passes_keep_the_bits_of_the_whole_pass(case):
    """forward_batch's activations, computed once per distinct receptive
    field where fields repeat, are bit for bit those of the whole pass,
    layer by layer; AnalogAgent's rows are bit for bit its one-row calls
    and the one-row whole pass."""
    net, frames = case
    acts, q = forward_batch(net, frames)
    want = layer_by_layer(net, frames)
    assert len(acts) == len(want)
    for got, ref in zip(acts, want):
        assert_same_bits(got, ref)
    assert_same_bits(q, want[-1].reshape(len(frames), -1))
    agent = AnalogAgent(net)
    rows = agent.qvalues(frames)
    for frame, row in zip(frames, rows):
        assert_same_bits(row, agent.qvalues(frame[None])[0])
        assert_same_bits(row, layer_by_layer(net, frame[None])[-1].reshape(-1))


def _linecatch_conv_net(rng):
    def he(shape):
        return rng.normal(0.0, 1.0 / np.sqrt(np.prod(shape[1:])), shape)

    return NetworkSpec((1, 16, 16), [
        conv2d(he((8, 1, 3, 3)), rng.normal(0, 0.05, 8), stride=(2, 2)),
        conv2d(he((16, 8, 3, 3)), rng.normal(0, 0.05, 16)),
        flatten(),
        dense(he((32, 400)), rng.normal(0, 0.05, 32)),
        dense(he((3, 32)), rng.normal(0, 0.05, 3), activation="none"),
    ])


def _linecatch_frames(rng, n):
    env = LineCatchEnv(grid_size=16)
    frames = [env.reset(5)]
    while len(frames) < n:
        obs, _, done = env.step(int(rng.integers(3)))[:3]
        frames.append(env.reset(int(rng.integers(1000))) if done else obs)
    return np.array(frames)


def _conv_rows(monkeypatch):
    """Wrap conv2d_batch; the returned list holds each call's batch rows."""
    rows, real = [], network.conv2d_batch
    monkeypatch.setattr(network, "conv2d_batch",
                        lambda x, *args: rows.append(len(x)) or real(x, *args))
    return rows


def test_frames_holding_nan_are_not_kept_per_unit():
    """Repeating frames with a NaN pixel, whose payloads may differ unseen."""
    layer = conv2d(np.ones((2, 1, 2, 2)), np.zeros(2))
    frames = np.zeros((3, 1, 4, 4))
    frames[1, 0, 2, 2] = np.nan
    maps, vectors = unit_maps(frames, [receptive_fields(layer, (1, 4, 4))])
    assert maps == [] and vectors is None


def test_leading_convs_stop_at_a_conv_that_does_not_fit():
    fits = conv2d(np.ones((2, 1, 2, 2)), np.zeros(2))
    too_big = conv2d(np.ones((2, 2, 3, 3)), np.zeros(2))  # 3x3 on the 2x2 map `fits` leaves
    lead = leading_convs([fits, too_big, fits], (1, 3, 3))
    assert len(lead) == 1 and lead[0][0] is fits and lead[0][1:] == ((1, 3, 3), (2, 2, 2))


def test_forward_batch_computes_each_distinct_field_once(rng, monkeypatch):
    """On LineCatch frames each conv layer runs once per distinct receptive
    field, far fewer than (frame, position) pairs: conv 1 reads a 3x3
    input patch at stride 2, conv 2 a 3x3 window of those, which is a 7x7
    input patch at stride 2."""
    net, frames = _linecatch_conv_net(rng), _linecatch_frames(rng, 300)

    def patches(size):
        windows = np.lib.stride_tricks.sliding_window_view(frames[:, 0], (size, size),
                                                           axis=(1, 2))[:, ::2, ::2]
        return len(np.unique(windows.reshape(-1, size * size), axis=0))

    rows = _conv_rows(monkeypatch)
    acts, _ = forward_batch(net, frames)
    assert rows == [patches(3), patches(7)]
    assert 10 * rows[0] < 300 * 7 * 7 and 10 * rows[1] < 300 * 5 * 5
    for got, want in zip(acts, layer_by_layer(net, frames)):
        assert_same_bits(got, want)


def test_units_stop_before_a_1x1_kernel(rng, monkeypatch):
    """A 1x1 kernel's weights lie contiguous along channels, where einsum
    may sum them in an order that depends on the layout: the layer is
    computed whole, over all 40 frames, and a 3x3 conv before it still
    once per distinct field."""
    frames = rng.choice([0.0, 1.0], (40, 3, 8, 8), p=[0.9, 0.1])

    def pointwise(c):
        return conv2d(rng.normal(0, 0.3, (5, c, 1, 1)), rng.normal(0, 0.05, 5))

    for layers, side in (([pointwise(3)], 8),
                         ([conv2d(rng.normal(0, 0.3, (4, 3, 3, 3)), rng.normal(0, 0.05, 4)),
                           pointwise(4)], 6)):
        net = NetworkSpec((3, 8, 8), [*layers, flatten(),
                                      dense(rng.normal(0, 0.1, (2, 5 * side * side)),
                                            np.zeros(2))])
        rows = _conv_rows(monkeypatch)
        acts, _ = forward_batch(net, frames)
        assert len(rows) == len(layers) and rows[-1] == 40
        assert all(r < 40 * side * side // 2 for r in rows[:-1])
        for got, want in zip(acts, layer_by_layer(net, frames)):
            assert_same_bits(got, want)


@pytest.mark.parametrize("channels", [1, 2])
def test_frames_that_do_not_repeat_are_never_ranked_whole(rng, monkeypatch, channels):
    """On random analog frames a strided sample of pixel vectors, under
    2 UNIT_SAMPLE of them, shows that they do not repeat: neither the
    analog pass nor a spiking run ranks every pixel or codes a window,
    and both give the bits of the whole pass."""
    frames = rng.random((64, channels, 16, 16))
    net = NetworkSpec((channels, 16, 16), [
        conv2d(rng.normal(0, 0.3, (4, channels, 3, 3)), rng.normal(0, 0.05, 4), stride=(2, 2)),
        flatten(), dense(rng.normal(0, 0.1, (3, 196)), np.zeros(3), activation="none")])
    ranked = []  # (function, rows ranked)
    for name in ("_distinct_values", "_distinct_codes"):
        def spy(rows, *args, real=getattr(network, name), name=name):
            ranked.append((name, len(rows) if name == "_distinct_values" else args[0]))
            return real(rows, *args)

        monkeypatch.setattr(network, name, spy)
    acts, _ = forward_batch(net, frames)
    for got, want in zip(acts, layer_by_layer(net, frames)):
        assert_same_bits(got, want)
    # the sample's values, its rows' codes, and (within) the codes' values
    assert [name for name, _ in ranked] == ["_distinct_values", "_distinct_codes",
                                            "_distinct_values"]
    run_batch(net, frames, SimConfig(timesteps=3))
    assert len(ranked) == 6 and all(n < 2 * UNIT_SAMPLE for _, n in ranked), ranked
