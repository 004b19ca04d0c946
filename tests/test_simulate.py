"""Integrate-and-fire dynamics, bookkeeping identities, and diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rateconv import (NetworkSpec, NormConfig, SimConfig, SpikingAgent, apply_normalization,
                      collect_stats, conv2d, dense, diagnostics, flatten, forward_batch,
                      layer_identity_residual, robust_readout, run, run_batch)
from rateconv import simulate
from rateconv.lincatch import LineCatchEnv
from rateconv.network import UNIT_SAMPLE, apply_layer_linear, receptive_fields
from rateconv.simulate import _build_stages, classify_case_counts

from conftest import drive_neurons, rand_conv_net, rand_dense_net, rand_net, rand_frames


def hand_stepped_counts(currents, v_thr=1.0):
    """Scalar-loop reference for a single neuron driven by a current list."""
    v = 0.0
    count = 0
    for z in currents:
        v += z
        if v >= v_thr:
            count += 1
            v -= v_thr
    return count, v


# ---------------------------------------------------------------------------
# single-neuron dynamics

def test_spike_and_soft_reset():
    # 0.6 then 0.5: the second step reaches 1.1, fires once and keeps 0.1
    counts, v, total = drive_neurons(np.array([[0.6], [0.5]]))
    assert counts[0] == 1
    assert v[0] == pytest.approx(0.1)
    assert total[0] == pytest.approx(1.1)


def test_no_lower_clamp():
    counts, v, _ = drive_neurons(np.array([[-0.2], [-0.3]]))
    assert counts[0] == 0
    assert v[0] == pytest.approx(-0.5)


def test_threshold_inclusive():
    # exactly v_thr fires and leaves exactly 0
    counts, v, _ = drive_neurons(np.array([[0.5], [0.5]]))
    assert counts[0] == 1
    assert v[0] == 0.0
    counts, v, _ = drive_neurons(np.array([[0.85]]), v_thr=0.85)
    assert counts[0] == 1 and v[0] == 0.0


def test_constant_drive_matches_hand_sequence():
    # float64 0.3 sits just below 3/10, so ten steps accumulate to 1 - 2e-16
    # and only two spikes fire; the hand-stepped oracle agrees.
    counts, v, total = drive_neurons(np.full((10, 1), 0.3))
    want_count, want_v = hand_stepped_counts([0.3] * 10)
    assert counts[0] == want_count == 2
    assert v[0] == pytest.approx(want_v, abs=1e-15)
    assert total[0] == pytest.approx(3.0)


def test_constant_drive_exact_when_representable():
    # 0.375 * 16 = 6 exactly in binary: six spikes and an empty membrane
    counts, v, total = drive_neurons(np.full((16, 1), 0.375))
    want_count, want_v = hand_stepped_counts([0.375] * 16)
    assert counts[0] == want_count == 6
    assert v[0] == want_v == 0.0
    assert total[0] == 6.0


def test_random_sequences_match_hand_loop(rng):
    for _ in range(50):
        T = int(rng.integers(1, 40))
        zs = rng.normal(0, 0.7, T)
        v_thr = float(rng.uniform(0.5, 1.5))
        counts, v, _ = drive_neurons(zs.reshape(-1, 1), v_thr)
        want_count, want_v = hand_stepped_counts(list(zs), v_thr)
        assert counts[0] == want_count
        assert v[0] == pytest.approx(want_v, abs=1e-12)


# ---------------------------------------------------------------------------
# whole-network runs

def _identity_net(n=1, activation="none"):
    return NetworkSpec((n,), [dense(np.eye(n), np.zeros(n), activation=activation)])


def test_input_population_rate_tracks_constant_frame():
    net = _identity_net()
    res = run(net, np.array([0.375]), SimConfig(timesteps=16))
    assert res.rates[0][0] == 0.375
    assert res.residuals[0][0] == 0.0
    # non-representable drive stays within the 1/T bound even at the knife edge
    res = run(net, np.array([0.3]), SimConfig(timesteps=10))
    assert res.rates[0][0] == 0.2
    assert abs(res.rates[0][0] - 0.3) < 0.1


def test_two_layer_chain_with_saturated_input():
    w = np.array([[0.4]])
    b = np.array([0.1])
    net = NetworkSpec((1,), [dense(w, b, activation="none")])
    T = 25
    res = run(net, np.array([1.0]), SimConfig(timesteps=T))
    assert res.rates[0][0] == 1.0  # input spikes every step
    # downstream current is w + b on every step
    assert res.avg_currents[1][0] == pytest.approx(0.5)


def test_zero_network_all_quiet():
    net = NetworkSpec((3,), [dense(np.zeros((2, 3)), np.zeros(2)),
                             dense(np.zeros((2, 2)), np.zeros(2), activation="none")])
    res = run(net, np.zeros(3), SimConfig(timesteps=50))
    for r, dv in zip(res.rates, res.residuals):
        assert np.all(r == 0.0) and np.all(dv == 0.0)
    assert layer_identity_residual(res, net) == [0.0, 0.0, 0.0]


def test_rates_bounded_and_counts_within_steps(rng):
    for _ in range(10):
        net = rand_net(rng)
        T = int(rng.integers(1, 60))
        res = run(net, rng.random(net.input_shape), SimConfig(timesteps=T))
        for r in res.rates:
            assert np.all(r >= 0.0) and np.all(r <= 1.0)


def test_accounting_identity_per_neuron(rng):
    """steps * v_thr * rate + end potential == summed current, to rounding."""
    for _ in range(10):
        net = rand_net(rng)
        v_thr = float(rng.uniform(0.5, 1.5))
        res = run(net, rng.random(net.input_shape), SimConfig(timesteps=200, v_thr=v_thr))
        for r, dv, z in zip(res.rates, res.residuals, res.avg_currents):
            np.testing.assert_allclose(v_thr * r + dv, z * v_thr, atol=1e-12)


@st.composite
def identity_cases(draw):
    """A dense net or a conv net with stride and padding, raw or normalized
    by collect_stats, and a batch of binary or analog frames."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def he(shape):
        return rng.normal(0.0, 1.0 / np.sqrt(np.prod(shape[1:])), shape)

    if draw(st.booleans()):
        net = rand_dense_net(rng)
    else:
        in_ch, side = draw(st.integers(1, 2)), draw(st.integers(4, 8))
        out_ch, k = draw(st.integers(2, 4)), draw(st.integers(2, 3))
        stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 1))
        flat = out_ch * ((side + 2 * pad - k) // stride + 1) ** 2
        net = NetworkSpec((in_ch, side, side), [
            conv2d(he((out_ch, in_ch, k, k)), rng.normal(0, 0.05, out_ch),
                   stride=(stride, stride), padding=(pad, pad)),
            flatten(),
            dense(he((6, flat)), rng.normal(0, 0.05, 6)),
            dense(he((3, 6)), rng.normal(0, 0.05, 3), activation="none"),
        ])
    if draw(st.booleans()):
        calibration = rand_frames(rng, 16, net.input_shape)
        net = apply_normalization(net, collect_stats(net, calibration, NormConfig(99.9)))
    frames = rand_frames(rng, draw(st.integers(1, 5)), net.input_shape)
    if draw(st.booleans()):
        frames = np.round(frames)
    return net, frames


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=identity_cases(), timesteps=st.integers(1, 500),
       v_thr=st.sampled_from([0.5, 1.0, 1.7]))
def test_layer_identity_residual_below_1e9(case, timesteps, v_thr):
    net, frames = case
    res = run_batch(net, frames, SimConfig(timesteps=timesteps, v_thr=v_thr))
    assert max(layer_identity_residual(res, net, frame=frames)) <= 1e-9
    assert max(layer_identity_residual(res, net)) <= 1e-9


def test_layer_identity_residual_detects_corruption():
    net = _identity_net()
    frame = np.array([1.0])
    res = run(net, frame, SimConfig(timesteps=20))
    corrupted = NetworkSpec((1,), [dense(np.array([[1.5]]), np.zeros(1),
                                         activation="none")])
    residuals = layer_identity_residual(res, corrupted, frame=frame)
    assert residuals[1] > 0.1


def test_input_layer_error_bound(rng):
    for T in (100, 500):
        frames = rng.random((200, 1))
        net = _identity_net()
        res = run_batch(net, frames, SimConfig(timesteps=T))
        assert np.all(np.abs(res.rates[0][:, 0] - frames[:, 0]) < 1.0 / T)


# ---------------------------------------------------------------------------
# readouts

def test_rate_readout_counts_over_time():
    net = _identity_net(3)
    res = run(net, np.array([0.5, 0.0, 1.0]), SimConfig(timesteps=4))
    np.testing.assert_allclose(res.rates[0], [0.5, 0.0, 1.0])
    np.testing.assert_allclose(res.rate_last, [0.5, 0.0, 1.0])


def test_robust_readout_arithmetic():
    from rateconv import SimResult
    res = SimResult(timesteps=5, v_thr=1.0, readout="robust",
                    rates=[np.array([0.5])], residuals=[np.array([0.05])],
                    avg_currents=[np.array([0.55])],
                    rate_last=np.array([0.5]),
                    f_last=np.array([0.5]) + np.array([0.25]) / 5.0,
                    settle_step=np.int64(1))
    np.testing.assert_allclose(robust_readout(res), [0.55])


def test_robust_readout_recovers_affine_map_exactly():
    net = NetworkSpec((1,), [dense(np.array([[1.0]]), np.array([0.2]), activation="none")])
    for T in (7, 10, 33):  # spike timing varies with T; the readout must not
        res = run(net, np.array([0.5]), SimConfig(timesteps=T))
        prev_rate = res.rates[0][0]
        want = prev_rate + float(net.layers[0].bias.astype(np.float64)[0])
        assert res.f_last[0] == pytest.approx(want, abs=1e-15)
    res = run(net, np.array([0.5]), SimConfig(timesteps=10))
    assert res.rates[0][0] == 0.5
    assert res.f_last[0] == pytest.approx(0.7, abs=1e-7)  # bias is stored float32


def test_robust_equals_rate_when_no_leftover():
    net = _identity_net()
    res = run(net, np.array([1.0]), SimConfig(timesteps=8))
    np.testing.assert_allclose(res.rate_last, robust_readout(res))


def test_robust_readout_exactness_random_nets(rng):
    for _ in range(30):
        net = rand_net(rng)
        v_thr = float(rng.choice([0.6, 1.0, 1.7]))
        frame = rng.random(net.input_shape)
        res = run(net, frame, SimConfig(timesteps=150, v_thr=v_thr))
        prev = res.rates[-2]
        if net.layers[-1].kind == "dense" and prev.ndim > 1:
            prev = prev.reshape(-1)
        last = net.layers[-1]
        want = (prev @ last.weights.astype(np.float64).T
                + last.bias.astype(np.float64)) / v_thr
        np.testing.assert_allclose(res.f_last, want, atol=1e-9)


# ---------------------------------------------------------------------------
# residual case classification

def test_overdraft_case_from_sequence():
    counts, v, total = drive_neurons(np.array([[1.0], [-0.3]]))
    assert counts[0] == 1 and v[0] == pytest.approx(-0.3)
    T = 2
    R = total[0] / T          # 0.35 > 0
    dV = v[0] / T             # -0.15 < 0
    assert R == pytest.approx(0.35) and dV == pytest.approx(-0.15)
    rate = counts[0] / T
    assert rate > R           # the neuron overdrafted a spike
    cases = classify_case_counts(np.array([R]), np.array([dV]))
    assert cases["pos_drive_neg_leftover"] == 1
    assert cases["impossible"] == 0


def test_constant_negative_drive_case():
    counts, v, total = drive_neurons(np.full((6, 1), -0.2))
    cases = classify_case_counts(total / 6, v / 6)
    assert counts[0] == 0
    assert cases["nonpos_drive_neg_leftover"] == 1


def test_no_impossible_case_over_random_sequences(rng):
    T = 24
    currents = rng.normal(0.0, 1.0, (T, 10_000))
    counts, v, total = drive_neurons(currents)
    cases = classify_case_counts(total / T, v / T)
    assert cases["impossible"] == 0
    assert sum(cases[k] for k in list(cases)[:4]) == 10_000


def test_classify_residual_cases_sums_to_neuron_count(rng):
    net = rand_dense_net(rng, sizes=[4, 6, 5, 3])
    res = run(net, rng.random(4), SimConfig(timesteps=100))
    cases = diagnostics(res, net)["case_counts"]
    n_neurons = 4 + 6 + 5 + 3
    assert sum(v for k, v in cases.items() if k != "impossible") == n_neurons
    assert cases["impossible"] == 0


# ---------------------------------------------------------------------------
# state handling

def test_population_shapes_match_forward_activations(rng):
    net = rand_net(rng)
    frames = rand_frames(rng, 3, net.input_shape)
    res = run_batch(net, frames, SimConfig(timesteps=10))
    acts, _ = forward_batch(net, frames)
    assert len(res.rates) == len(net.parameterized_indices()) + 1
    assert res.rates[0].shape == frames.shape
    for key in ("rates", "residuals", "avg_currents"):
        for got, li in zip(getattr(res, key)[1:], net.parameterized_indices()):
            assert got.shape == acts[li].shape


def test_run_batch_rejects_misshapen_frames_and_invalid_network(rng):
    net = rand_dense_net(rng, sizes=[3, 4, 2])
    config = SimConfig(timesteps=5)
    for bad in (np.zeros(3), np.zeros((2, 4)), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match="do not stack"):
            run_batch(net, bad, config)
    with pytest.raises(ValueError, match="batch"):
        run_batch(net, np.zeros((0, 3)), config)
    with pytest.raises(ValueError, match="does not match"):
        run(net, np.zeros(4), config)
    broken = NetworkSpec((3,), [dense(np.zeros((2, 5)), np.zeros(2))])
    with pytest.raises(ValueError, match="invalid network"):
        run_batch(broken, np.zeros((1, 3)), config)


def test_identity_residual_refuses_a_result_of_another_net(rng):
    res = run(rand_dense_net(rng, sizes=[4, 3, 2]), rng.random(4), SimConfig(timesteps=5))
    with pytest.raises(ValueError, match="result does not belong to this network"):
        layer_identity_residual(res, rand_dense_net(rng, sizes=[4, 3, 3, 2]))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(timesteps=0)
    for timesteps in (True, 2.5, 3.0, "3"):  # a bool or a float would run, then mislabel
        with pytest.raises(ValueError, match="timesteps must be an integer"):
            SimConfig(timesteps=timesteps)
    assert SimConfig(timesteps=np.int64(3)).timesteps == 3
    with pytest.raises(ValueError):
        SimConfig(v_thr=0.0)
    for v_thr in (10**400, -10**400):  # past the largest float: no OverflowError
        with pytest.raises(ValueError, match="v_thr must be positive and finite"):
            SimConfig(v_thr=v_thr)
    for timesteps in (2**63, 10**19):  # past int64: refused, not an OverflowError in a run
        with pytest.raises(ValueError, match=r"timesteps must be < 2\*\*63"):
            SimConfig(timesteps=timesteps)
    assert SimConfig(timesteps=2**63 - 1).timesteps == 2**63 - 1
    with pytest.raises(ValueError, match="normal float"):  # the readout divides by T * v_thr
        SimConfig(timesteps=5, v_thr=1e-310)
    assert SimConfig(timesteps=1, v_thr=np.finfo(np.float64).tiny).v_thr > 0
    with pytest.raises(ValueError):
        SimConfig(readout="median")


@pytest.mark.parametrize("value", [True, "1.0", None])
def test_sim_config_v_thr_is_a_number(value):
    """A bool or a non-number v_thr is refused as the other fields are,
    with ValueError; any real number is taken."""
    with pytest.raises(ValueError, match="v_thr must be a number"):
        SimConfig(v_thr=value)
    assert SimConfig(v_thr=np.float32(0.5)).v_thr == 0.5 and SimConfig(v_thr=2).v_thr == 2


def test_run_is_deterministic(rng):
    net = rand_net(rng)
    frame = rng.random(net.input_shape)
    a = run(net, frame, SimConfig(timesteps=64))
    b = run(net, frame, SimConfig(timesteps=64))
    assert np.array_equal(a.f_last, b.f_last)
    assert np.array_equal(a.rate_last, b.rate_last)
    assert a.settle_step == b.settle_step


def test_run_batch_agrees_with_single_runs(rng):
    net = rand_net(rng)
    frames = rand_frames(rng, 8, net.input_shape)
    batch = run_batch(net, frames, SimConfig(timesteps=40))
    for i in range(8):
        single = run(net, frames[i], SimConfig(timesteps=40))
        assert np.array_equal(batch.f_last[i], single.f_last)
        assert np.array_equal(batch.rate_last[i], single.rate_last)


def test_run_batch_rejects_non_finite_frames(rng):
    net = rand_dense_net(rng, sizes=[3, 4, 2])
    for bad in (np.nan, np.inf, -np.inf):
        frames = rng.random((2, 3))
        frames[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            run_batch(net, frames, SimConfig(timesteps=5))
        with pytest.raises(ValueError, match="finite"):
            run(net, frames[1], SimConfig(timesteps=5))


def test_settle_step_within_run(rng):
    net = rand_net(rng)
    res = run(net, rng.random(net.input_shape), SimConfig(timesteps=50))
    assert 1 <= int(res.settle_step) <= 50


def test_diagnostics_payload_is_json_ready(rng):
    import json
    net = rand_dense_net(rng)
    frame = rng.random(net.input_shape)
    res = run(net, frame, SimConfig(timesteps=20))
    payload = diagnostics(res, net, frame=frame)
    text = json.dumps(payload)
    assert "identity_residuals" in text and "case_counts" in text


def test_float32_v_thr_runs_as_its_float64_value(rng):
    """SimConfig widens a float32 v_thr to float64, which is exact: the run
    equals that of the float64 value bit for bit (T * v_thr no longer
    rounds in float32), and its diagnostics serialize as JSON."""
    import json
    net = rand_dense_net(rng)
    frame = rng.random(net.input_shape)
    narrow = run(net, frame, SimConfig(timesteps=50, v_thr=np.float32(0.8)))
    wide = run(net, frame, SimConfig(timesteps=50, v_thr=float(np.float32(0.8))))
    for name in ("rates", "residuals", "avg_currents"):
        for a, b in zip(getattr(narrow, name), getattr(wide, name)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("rate_last", "f_last", "settle_step"):
        assert getattr(narrow, name).tobytes() == getattr(wide, name).tobytes(), name
    assert type(narrow.v_thr) is float and narrow.v_thr == wide.v_thr
    assert json.dumps(diagnostics(narrow, net, frame=frame)) == \
        json.dumps(diagnostics(wide, net, frame=frame))


# ---------------------------------------------------------------------------
# convergence toward analog values

def test_longer_runs_reduce_readout_error(rng):
    """Mean |robust readout - analog q| shrinks from T=100 to T=1000."""
    errors = {100: [], 1000: []}
    for _ in range(50):
        net = rand_dense_net(rng, sizes=[5, 7, 6, 3])
        frames = rand_frames(rng, 16, net.input_shape)
        stats = collect_stats(net, frames, NormConfig(100.0))
        norm = apply_normalization(net, stats)
        _, q = forward_batch(norm, frames)
        for T in errors:
            res = run_batch(norm, frames, SimConfig(timesteps=T))
            errors[T].append(float(np.mean(np.abs(res.f_last - q))))
    assert np.mean(errors[1000]) < np.mean(errors[100])


# ---------------------------------------------------------------------------
# the block kernel against a literal step loop

def step_loop(net, frames, config):
    """Reference: every population advanced one step at a time, with one
    affine call per layer per step on the batch's rows."""
    v_thr, T, B = config.v_thr, config.timesteps, len(frames)
    acts, _ = forward_batch(net, frames)
    layers, flat = [], False
    for i, layer in enumerate(net.layers):
        if layer.kind == "flatten":
            flat = True
            continue
        layers.append((layer, flat))
        flat = False
    shapes = [frames.shape] + [acts[i].shape for i in net.parameterized_indices()]
    pots = [np.zeros(sh) for sh in shapes]
    counts = [np.zeros(sh, dtype=np.int64) for sh in shapes]
    sums = [np.zeros(sh) for sh in shapes]
    settle = np.ones(B, dtype=np.int64)
    prev = None
    for t in range(1, T + 1):
        for j in range(len(shapes)):
            if j == 0:
                z = frames
            else:
                layer, flat = layers[j - 1]
                x = spikes.reshape(B, -1) if flat else spikes
                z = apply_layer_linear(layer, x)
            pots[j] += z
            spikes = (pots[j] >= v_thr).astype(np.float64)
            pots[j] -= v_thr * spikes
            counts[j] += spikes.astype(np.int64)
            sums[j] += z
        score = counts[-1].reshape(B, -1)
        if config.readout == "robust":
            score = score * v_thr + pots[-1].reshape(B, -1)
        choice = np.argmax(score, axis=1)
        if prev is not None:
            settle[choice != prev] = t
        prev = choice
    rate_last = (counts[-1] / T).reshape(B, -1)
    return {"rates": [c / T for c in counts], "residuals": [v / T for v in pots],
            "avg_currents": [z / (T * v_thr) for z in sums],
            "f_last": rate_last + pots[-1].reshape(B, -1) / (T * v_thr),
            "settle_step": settle}


def _padded_conv_net(rng):
    """Conv stack with stride and padding: 2x7x7 -> 4x4x4 -> 3x5x3 -> 6 -> 4."""
    def he(shape):
        return rng.normal(0.0, 1.0 / np.sqrt(np.prod(shape[1:])), shape)
    return NetworkSpec((2, 7, 7), [
        conv2d(he((4, 2, 3, 3)), rng.normal(0, 0.05, 4), stride=(2, 2), padding=(1, 1)),
        conv2d(he((3, 4, 2, 2)), rng.normal(0, 0.05, 3), padding=(1, 0)),
        flatten(),
        dense(he((6, 45)), rng.normal(0, 0.05, 6)),
        dense(he((4, 6)), rng.normal(0, 0.05, 4), activation="none"),
    ])


def _inexact_conv_net(rng):
    """The padded conv net with first-conv weights spread over 2^-40..1, so
    its sums round differently in different orders and it falls back to
    per-step einsums."""
    net = _padded_conv_net(rng)
    w = net.layers[0].weights
    net.layers[0] = replace(net.layers[0], weights=w * 2.0 ** rng.integers(-40, 1, w.shape))
    return net


KERNEL_NETS = {
    "dense": lambda rng: rand_dense_net(rng, sizes=[6, 9, 7, 4]),
    "conv": lambda rng: rand_conv_net(rng),
    "conv-padded": _padded_conv_net,
    "conv-inexact": _inexact_conv_net,
}


# (input drive, v_thr): binary pixels, and pixels below 0 or above v_thr
# ("steady"), make the input population fire the same neurons every step,
# so it leaves the loop and the first stage's currents are computed once;
# {0, 0.5} pixels at v_thr 1 fire every other step; pixels of 1/8 and 0.3
# change the input spikes inside blocks and between them.
DRIVES = [("random", 0.8), ("binary", 1.0), ("binary", 0.8), ("steady", 1.0), ("half", 1.0),
          ("changing", 1.0)]
DRIVE_LEVELS = {"binary": [0.0, 1.0], "steady": [-0.5, 0.0, 1.0, 1.5], "half": [0.0, 0.5],
                "changing": [0.0, 1.0, 0.125, 0.3]}


def drive_frames(rng, drive, n, shape):
    if drive == "random":
        return rand_frames(rng, n, shape)
    return rng.choice(DRIVE_LEVELS[drive], (n, *shape))


def _widths(net):
    return [int(np.prod(sh)) for sh in [net.input_shape] + [s.shape for s in _build_stages(net)]]


def _kept_fields(net, frames):
    """The receptive fields of the populations run_batch keeps per unit,
    by brute force, each as every frame's [h][w] fields: the input and
    the leading exact conv stages, never the output stage, up to the
    first whose distinct fields are more than half its (frame, position)
    pairs; none unless stage 0's are kept, or when more than half of a
    strided sample of the pixel vectors (taken from 2 UNIT_SAMPLE of them
    up) is distinct.  An input field is a position's pixel vector; a
    conv field is the tuple of the fields it reads, padding marked."""
    if len(net.input_shape) != 3:
        return []
    c, h, w = net.input_shape
    pixels = [tuple(p) for p in np.asarray(frames).transpose(0, 2, 3, 1).reshape(-1, c)]
    step = len(pixels) // UNIT_SAMPLE
    if step > 1 and 2 * len(set(pixels[::step])) > len(pixels[::step]):
        return []
    kept = [[[[tuple(f[:, y, x]) for x in range(w)] for y in range(h)] for f in frames]]
    for stage in _build_stages(net)[:-1]:
        if stage.layer.kind != "conv2d" or not stage.exact:
            break
        _, _, kh, kw = stage.layer.weights64.shape
        (sh, sw), (ph, pw) = stage.layer.stride, stage.layer.padding
        _, oh, ow = stage.shape

        def read(f, y, x):
            return f[y][x] if 0 <= y < len(f) and 0 <= x < len(f[0]) else "pad"

        fields = [[[tuple(read(f, oy * sh - ph + i, ox * sw - pw + j)
                          for i in range(kh) for j in range(kw))
                    for ox in range(ow)] for oy in range(oh)] for f in kept[-1]]
        if 2 * len({key for f in fields for row in f for key in row}) > len(frames) * oh * ow:
            break
        kept.append(fields)
    return kept if len(kept) > 1 else []


def _unit_counts(net, frames):
    """Distinct receptive fields of each population run_batch keeps per
    unit (_kept_fields)."""
    return [len({key for f in fields for row in f for key in row})
            for fields in _kept_fields(net, frames)]


def _signature_count(net, frames):
    """The columns of the populations run_batch keeps per row: the
    distinct rows of fields of the last population kept per unit, or one
    per frame when none is."""
    kept = _kept_fields(net, frames)
    if not kept:
        return len(frames)
    return len({tuple(key for row in f for key in row) for f in kept[-1]})


def _sizes(net, frames):
    """Each population's elements in run_batch's buffers: channels * units
    for those kept per unit, width * signatures for the rest."""
    units = _unit_counts(net, frames)
    rows = _signature_count(net, frames)
    return [sh[0] * units[j] if j < len(units) else int(np.prod(sh)) * rows
            for j, sh in enumerate([net.input_shape] + [s.shape for s in _build_stages(net)])]


def _block_elements(net, frames):
    """The float64 values per step that BLOCK_BYTES bounds: the larger of
    the state and one stage's gathered columns (fan-in per neuron)."""
    sizes = _sizes(net, frames)
    gathered = max(s.layer.weights64[0].size * n // len(s.layer.bias64)
                   for s, n in zip(_build_stages(net), sizes[1:]))
    return max(sum(sizes), gathered)


def _check_equals_step_loop(res, ref):
    for key in ("rates", "residuals", "avg_currents"):
        for got, want in zip(getattr(res, key), ref[key]):
            assert np.array_equal(got, want), key
    assert np.array_equal(res.f_last, ref["f_last"])
    assert np.array_equal(res.settle_step, ref["settle_step"])


def _count_neuron_steps(monkeypatch):
    """Wrap _integrate; the returned list holds, per call, its first
    element in the run's flat potentials, its element count and its steps."""
    calls = []
    integrate = simulate._integrate

    def counting(potentials, currents, *args, **kwargs):
        base = potentials.base if potentials.base is not None else potentials
        start = (potentials.__array_interface__["data"][0]
                 - base.__array_interface__["data"][0]) // potentials.itemsize
        calls.append((start, potentials.size, len(currents)))
        return integrate(potentials, currents, *args, **kwargs)

    monkeypatch.setattr(simulate, "_integrate", counting)
    return calls


def _steps_per_neuron(calls, elements):
    stepped = np.zeros(elements, dtype=np.int64)
    for start, n, steps in calls:
        assert start + n <= elements  # no population holds more than its units or rows
        stepped[start:start + n] += steps
    return stepped


@pytest.mark.parametrize("blocks", ["one", "several"])
@pytest.mark.parametrize("readout", ["rate", "robust"])
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("kind", sorted(KERNEL_NETS))
def test_kernel_bitwise_equals_step_loop(rng, monkeypatch, kind, batch, readout, blocks):
    net = KERNEL_NETS[kind](rng)
    stages = _build_stages(net)
    assert all(stage.exact for stage in stages) == (kind != "conv-inexact")
    T = 23
    # "one": BLOCK_BYTES at its default, where K = ceil(sqrt(10 T)) = 16,
    # so a full block and a short one; "several": 4 steps per block, so
    # 5 full blocks and a 3-step one.
    K = 4 if blocks == "several" else 16
    calls = _count_neuron_steps(monkeypatch)

    for drive, v_thr in DRIVES:
        config = SimConfig(timesteps=T, v_thr=v_thr, readout=readout)
        frames = drive_frames(rng, drive, batch, net.input_shape)
        ref = step_loop(net, frames, config)
        sizes = _sizes(net, frames)
        calls.clear()
        with monkeypatch.context() as mp:
            if blocks == "several":
                mp.setattr(simulate, "BLOCK_BYTES", 8 * _block_elements(net, frames) * K)
            _check_equals_step_loop(run_batch(net, frames, config), ref)
        steps = {steps for _, _, steps in calls}
        assert max(steps) == K and T % K in steps  # full blocks and a short one
        # every neuron of every population (of every unit or row), the
        # input's included, is stepped exactly T times
        assert np.array_equal(_steps_per_neuron(calls, sum(sizes)), np.full(sum(sizes), T))


@pytest.mark.parametrize("levels, v_thr, steady", [
    ([0.0, 1.0], 1.0, True),
    ([0.0, 1.0], 0.8, True),
    ([-0.5, 1.5], 1.0, True),
    ([0.0, 0.5], 1.0, False),
    ([-0.5, 0.5, 1.5], 1.0, False),
    ([0.0, 0.8], 1.0, False),
])
def test_stage_current_rows(rng, monkeypatch, levels, v_thr, steady):
    """Rows reaching _Plan.currents, per stage: T * batch, one block at a
    time, but for the first stage under a steady input (every pixel <= 0
    or >= v_thr), which computes one step of the batch once per run."""
    net = rand_dense_net(rng, sizes=[6, 9, 7, 4])
    layers = [layer for layer in net.layers if layer.parameterized]
    plan_currents = simulate._Plan.currents
    rows = [[] for _ in layers]

    def counting(plan, j, spikes, steps):
        rows[j - 1].append(steps * plan.cols[j - 1])
        return plan_currents(plan, j, spikes, steps)

    monkeypatch.setattr(simulate._Plan, "currents", counting)
    frames = rng.choice(levels, (3, 6))
    frames[0, :len(levels)] = levels  # every level present
    # 4 steps per block: 3 rows over 6 + 9 + 7 + 4 neurons; T = 42 is 10
    # full blocks and a 2-step one
    assert _block_elements(net, frames) == 3 * sum(_widths(net))
    monkeypatch.setattr(simulate, "BLOCK_BYTES", 8 * _block_elements(net, frames) * 4)
    config = SimConfig(timesteps=42, v_thr=v_thr)
    _check_equals_step_loop(run_batch(net, frames, config), step_loop(net, frames, config))
    whole = [12] * 10 + [6]
    assert rows[0] == ([3] if steady else whole)
    assert rows[1:] == [whole] * (len(layers) - 1)


@st.composite
def exact_stages(draw):
    """A one-stage net, conv (stride and padding per axis up to 2) or dense
    (after a flatten or not), its _Plan for a batch, and a spike buffer
    [K, edges[-1]] for it as run_batch passes them: K at least the block's
    steps, the output population's part holding stray spikes too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["conv", "dense", "flatten-dense"]))
    if kind == "conv":
        stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        kh = draw(st.integers(1, h + 2 * padding[0]))
        kw = draw(st.integers(1, w + 2 * padding[1]))
        out = draw(st.integers(1, 4))
        net = NetworkSpec((c, h, w), [conv2d(rng.normal(0, 0.5, (out, c, kh, kw)),
                                             rng.normal(0, 0.1, out), stride, padding)])
    else:
        out = draw(st.integers(1, 6))
        layer = dense(rng.normal(0, 0.5, (out, c * h * w)), rng.normal(0, 0.1, out))
        net = (NetworkSpec((c * h * w,), [layer]) if kind == "dense"
               else NetworkSpec((c, h, w), [flatten(), layer]))
    steps, batch = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    plan = simulate._Plan(_build_stages(net), np.zeros((batch, *net.input_shape)),
                          SimConfig(timesteps=steps))
    rows = steps + draw(st.integers(0, 2))
    spikes = rng.random((rows, plan.edges[-1])) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    return plan, spikes, steps


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=exact_stages())
def test_gathered_currents_equal_per_offset_einsum_bit_for_bit(case):
    """Exact stages compute currents from the neuron-major spikes with one
    gathered GEMM; they carry the bits of apply_layer_linear on the same
    spikes, batch-major, which for conv layers is the per-offset einsum."""
    plan, spikes, steps = case
    stage, = plan.stages
    assert stage.exact
    batch = plan.batch
    x = plan.view(spikes, 0, steps).transpose(0, 2, 1).reshape(steps * batch, *stage.input_shape)
    want = apply_layer_linear(stage.layer, x.astype(np.float64))
    want = want.reshape(steps, batch, -1).transpose(0, 2, 1)
    got = plan.currents(1, spikes, steps)
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@st.composite
def pipeline_runs(draw):
    """A KERNEL_NETS net, a drive, a batch, T and a block length short enough
    that most runs fill and drain the pipeline and end on a short block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = KERNEL_NETS[draw(st.sampled_from(sorted(KERNEL_NETS)))](rng)
    drive, v_thr = draw(st.sampled_from(DRIVES))
    batch = draw(st.integers(1, 9))
    config = SimConfig(timesteps=draw(st.integers(1, 60)), v_thr=v_thr,
                       readout=draw(st.sampled_from(["rate", "robust"])))
    return net, drive_frames(rng, drive, batch, net.input_shape), config, draw(st.integers(1, 8))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=pipeline_runs())
def test_pipelined_run_batch_equals_step_loop_bit_for_bit(case):
    """run_batch, and a deciding run's actions, under forced blocks: a
    steady input leaves a deciding run's loop, which then fills and drains
    the pipeline without it and may end on a short block."""
    net, frames, config, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BLOCK_BYTES", 8 * _block_elements(net, frames) * block)
        res = run_batch(net, frames, config)
        actions = SpikingAgent(net, config).actions(frames)
    ref = step_loop(net, frames, config)
    _check_equals_step_loop(res, ref)
    readout = ref["rates"][-1].reshape(len(frames), -1) if config.readout == "rate" \
        else ref["f_last"]
    assert np.array_equal(actions, np.argmax(readout, axis=1))


# ---------------------------------------------------------------------------
# populations kept per distinct receptive field

# (pixel levels, v_thr): steady inputs, which leave the loop: binary at
# v_thr 1 (with and without -0.0 beside 0.0), binary at v_thr 0.8 and
# pixels <= 0 or >= 1; and levels that fire only on some steps (unsteady)
UNIT_LEVELS = [([0.0, 1.0], 1.0), ([0.0, -0.0, 1.0], 1.0), ([0.0, 1.0], 0.8),
               ([-0.5, -0.0, 1.0, 1.5], 1.0), ([0.0, -0.0, 0.5], 1.0),
               ([0.0, 1.0, 0.125, 0.3], 1.0)]


def tiled_frames(rng, n, shape, levels):
    """n frames tiled from 2-3 patch types of the given pixel levels, so
    receptive fields repeat within frames and across them."""
    c, h, w = shape
    ph, pw = (int(d) for d in rng.integers(1, 4, 2))
    patches = rng.choice(np.array(levels), (int(rng.integers(2, 4)), c, ph, pw))
    gy, gx = -(-h // ph), -(-w // pw)
    tiles = patches[rng.integers(len(patches), size=(n, gy, gx))]  # [n, gy, gx, c, ph, pw]
    return tiles.transpose(0, 3, 1, 4, 2, 5).reshape(n, c, gy * ph, gx * pw)[:, :, :h, :w]


def twin_rows(rng, frames, net, levels, kinds):
    """frames with one more row per kind, in shuffled order, each a copy
    of one of them: "same" an exact copy; "blind" one with a pixel the
    first conv never reads set to another level, where it has such a
    pixel (an exact copy where it does not).  Either shares its signature
    with the row it copies."""
    c, h, w = net.input_shape
    read = receptive_fields(net.layers[0], net.input_shape)
    unread = np.setdiff1d(np.arange(h * w), read)
    rows = list(frames)
    for kind in kinds:
        twin = frames[rng.integers(len(frames))].copy()
        if kind == "blind" and len(unread):
            y, x = divmod(int(rng.choice(unread)), w)
            k = rng.integers(c)
            twin[k, y, x] = rng.choice([v for v in levels if v != twin[k, y, x]])
        rows.append(twin)
    return np.array(rows)[rng.permutation(len(rows))]


TWINS = st.lists(st.sampled_from(["same", "blind"]), max_size=3)


@st.composite
def repeating_conv_runs(draw):
    """A net of 1-3 conv stages (stride 1-2 and padding 0-2 per axis),
    one of them perhaps inexact, then either dense layers or nothing (the
    last conv is the output); its first conv perhaps blind to the last
    row or column (stride 2, no padding, one step short of it); frames
    tiled from a few patch types, perhaps with twin rows (twin_rows); a
    config, and perhaps a forced short block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(4, 9)), draw(st.integers(4, 9))
    shape = (c, h, w)
    n_conv, all_conv = draw(st.integers(1, 3)), draw(st.booleans())
    inexact = draw(st.integers(-n_conv, n_conv))  # the 1-based inexact conv, if positive
    blind = draw(st.sampled_from([None, 0, 1]))  # the axis the first conv leaves a line of
    layers = []
    for i in range(1, n_conv + 1):
        kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        if i == 1 and blind is not None:
            # size - k odd: the last stride-2 window ends one short of the edge
            k = 2 if shape[1 + blind] % 2 else draw(st.sampled_from([1, 3]))
            kh, kw = (k, kw) if blind == 0 else (kh, k)
            stride = (2, stride[1]) if blind == 0 else (stride[0], 2)
            padding = (0, padding[1]) if blind == 0 else (padding[0], 0)
        oh = (h + 2 * padding[0] - kh) // stride[0] + 1
        ow = (w + 2 * padding[1] - kw) // stride[1] + 1
        if oh < 1 or ow < 1:
            break
        out = draw(st.integers(2, 4))
        wt = rng.normal(0.0, 1.0 / np.sqrt(c * kh * kw), (out, c, kh, kw))
        if i == inexact:
            wt *= 2.0 ** rng.integers(-40, 1, wt.shape)
        layers.append(conv2d(wt, rng.normal(0, 0.05, out), stride, padding))
        c, h, w = out, oh, ow
    if all_conv:
        layers[-1].activation = "none"
    else:
        layers += [flatten(), dense(rng.normal(0, 1.0 / np.sqrt(c * h * w), (5, c * h * w)),
                                    rng.normal(0, 0.05, 5)),
                   dense(rng.normal(0, 0.5, (3, 5)), rng.normal(0, 0.05, 3), activation="none")]
    net = NetworkSpec(shape, layers)
    levels, v_thr = draw(st.sampled_from(UNIT_LEVELS))
    frames = tiled_frames(rng, draw(st.integers(1, 6)), shape, levels)
    frames = twin_rows(rng, frames, net, levels, draw(TWINS))
    config = SimConfig(timesteps=draw(st.integers(1, 40)), v_thr=v_thr,
                       readout=draw(st.sampled_from(["rate", "robust"])))
    return net, frames, config, draw(st.sampled_from([None, 1, 2, 3, 5]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=repeating_conv_runs())
def test_unit_populations_equal_step_loop_bit_for_bit(case):
    """Populations kept per distinct receptive field, and those kept per
    signature after them, give every row the step loop's bits, twin rows
    included, and each of their neurons, the input's included, steps
    exactly T times; SpikingAgent.qvalues reads the step loop's
    readout."""
    net, frames, config, block = case
    sizes = _sizes(net, frames)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(simulate, "BLOCK_BYTES", 8 * _block_elements(net, frames) * block)
        calls = _count_neuron_steps(mp)
        res = run_batch(net, frames, config)
    ref = step_loop(net, frames, config)
    _check_equals_step_loop(res, ref)
    want = (ref["f_last"] if config.readout == "robust"
            else ref["rates"][-1].reshape(len(frames), -1))
    assert np.array_equal(SpikingAgent(net, config).qvalues(frames), want)
    assert np.array_equal(_steps_per_neuron(calls, sum(sizes)),
                          np.full(sum(sizes), config.timesteps))


@st.composite
def gathered_plans(draw):
    """The _Plan of a repeating_conv_runs case, made under its forced short
    block if it has one; the BLOCK_BYTES it was made under; and a random
    generator."""
    net, frames, config, block = draw(repeating_conv_runs())
    block_bytes = simulate.BLOCK_BYTES
    if block is not None:
        block_bytes = 8 * _block_elements(net, frames) * block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BLOCK_BYTES", block_bytes)
        plan = simulate._Plan(_build_stages(net), frames, config)
    return plan, block_bytes, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _expanded(plan, j, values):
    """Population j's part of a flat [edges[-1]] state as [batch, *shape]:
    a unit's values at every position that holds it, a signature's in
    every row that has it."""
    state = np.zeros(plan.edges[-1])
    state[plan.edges[j]:plan.edges[j + 1]] = values
    return plan.per_population(state)[j]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=gathered_plans())
def test_gathered_stages_equal_apply_layer_linear_bit_for_bit(case):
    """Every gathered exact stage (a unit conv, the first stage kept per
    row, dense or conv, which reads the last unit population, and a conv
    kept per row) gives, from a block of 0/1 spikes, the currents of
    apply_layer_linear on the population below expanded to [batch,
    *shape], batch-major; and so does _Plan.linear, plus the bias, on
    float rows of half-integers up to T, as the bound at rest feeds it,
    wherever such rows keep every sum exact."""
    plan, _, rng = case
    T, K, edges = plan.timesteps, plan.K, plan.edges
    for j, stage in enumerate(plan.stages, start=1):
        if plan.index[j] is None or not stage.exact:
            continue
        layer, batch = stage.layer, plan.batch
        steps = int(rng.integers(1, K + 1))
        spikes = rng.random((K, edges[-1])) < rng.choice([0.1, 0.5, 0.9])
        got = plan.currents(j, spikes, steps)
        assert got.shape == (steps, plan.neurons[j], plan.cols[j])
        for k in range(steps):
            x = _expanded(plan, j - 1, spikes[k, edges[j - 1]:edges[j]].astype(np.float64))
            want = apply_layer_linear(layer, x.reshape(batch, *stage.input_shape))
            assert _expanded(plan, j, got[k].ravel()).tobytes() == want.tobytes()
        if stage.peak * 2 * T >= 2.0 ** 53 * stage.ulp:
            continue  # half-integers up to T could round some sum
        values = rng.integers(0, 2 * T + 1, (3, edges[-1])) / 2
        got = plan.linear(j, layer.weights64.reshape(len(layer.bias64), -1), values)
        assert got.shape == (3, plan.neurons[j] * plan.cols[j])
        for row, z in zip(values, got + simulate._bias(plan, j)):
            x = _expanded(plan, j - 1, row[edges[j - 1]:edges[j]])
            want = apply_layer_linear(layer, x.reshape(batch, *stage.input_shape))
            assert _expanded(plan, j, z).tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=gathered_plans())
def test_gathered_blocks_stay_within_block_bytes(case):
    """A gathered stage takes fan-in * positions * cols float64 values per
    step from its step-minor copy of the population below; K of them stay
    within BLOCK_BYTES unless K is 1."""
    plan, block_bytes, _ = case
    for j, (stage, index) in enumerate(zip(plan.stages, plan.index[1:]), start=1):
        if index is None:
            continue
        positions = plan.neurons[j] // len(stage.layer.bias64)
        gathered = stage.layer.weights64[0].size * positions * plan.cols[j]
        assert index.size * plan.cols[j - 1] == gathered
        assert plan.K == 1 or 8 * plan.K * gathered <= block_bytes


def test_conv_populations_step_distinct_windows_on_linecatch_frames(rng, monkeypatch):
    """On 16x16 LineCatch frames the conv populations step one unit per
    distinct receptive field, not one per (frame, position), and the
    dense ones one column per signature, not one per frame: T * (channels
    * units + width * signatures) neuron-steps, the input's units
    included, with units far fewer than frames * positions and signatures
    fewer than frames."""
    env = LineCatchEnv(grid_size=16)
    frames = [env.reset(5)]
    for _ in range(63):
        frames.append(env.step(int(rng.integers(3)))[0])
    frames = np.array(frames)

    def he(shape):
        return rng.normal(0.0, 1.0 / np.sqrt(np.prod(shape[1:])), shape)

    net = NetworkSpec((1, 16, 16), [
        conv2d(he((8, 1, 3, 3)), rng.normal(0, 0.05, 8), stride=(2, 2)),
        conv2d(he((16, 8, 3, 3)), rng.normal(0, 0.05, 16)),
        flatten(),
        dense(he((32, 400)), rng.normal(0, 0.05, 32)),
        dense(he((3, 32)), rng.normal(0, 0.05, 3), activation="none"),
    ])
    assert all(stage.exact for stage in _build_stages(net))
    units0, units1, units2 = _unit_counts(net, frames)
    assert 10 * units1 < 64 * 7 * 7 and 10 * units2 < 64 * 5 * 5
    # the first conv never reads row 15, the paddle's: frames that differ
    # only there share a signature
    rows = _signature_count(net, frames)
    assert rows < 64
    T = 50
    calls = _count_neuron_steps(monkeypatch)
    res = run_batch(net, frames, SimConfig(timesteps=T))
    assert sum(n * steps for _, n, steps in calls) == T * (units0 + 8 * units1 + 16 * units2
                                                            + 35 * rows)
    _check_equals_step_loop(res, step_loop(net, frames, SimConfig(timesteps=T)))


@pytest.mark.parametrize("levels, v_thr, shortcut", [
    ([0.0, 1.0], 1.0, True),
    ([0.0, 0.5], 1.0, False),
    ([0.0, 1.0], 0.8, True),
    ([0.0, 0.1], 0.1, True),
])
def test_input_shortcut_gate(rng, monkeypatch, levels, v_thr, shortcut):
    """The input population leaves the loop of a deciding run exactly
    when the input is steady (every pixel <= 0 or >= v_thr); a run that
    reports steps it T times, and equals the step loop bit for bit: at
    v_thr 0.8 a pixel of 1 leaves a potential that grows by 0.2 a step,
    which the run keeps."""
    net = rand_dense_net(rng, sizes=[6, 9, 7, 4])
    widths = _widths(net)
    frames = rng.choice(levels, (3, 6))
    frames[0, :2] = levels  # both levels present
    config = SimConfig(timesteps=23, v_thr=v_thr)
    assert simulate._Plan(_build_stages(net), frames, config).steady == shortcut
    calls = _count_neuron_steps(monkeypatch)
    res = run_batch(net, frames, config)
    assert np.all(_steps_per_neuron(calls, 3 * sum(widths)) == 23)
    ref = step_loop(net, frames, config)
    _check_equals_step_loop(res, ref)
    # the rate readout's deciding run goes to T
    calls.clear()
    rate = SimConfig(timesteps=23, v_thr=v_thr, readout="rate")
    actions = SpikingAgent(net, rate).actions(frames)
    stepped = _steps_per_neuron(calls, 3 * sum(widths))
    assert np.all(stepped[:3 * widths[0]] == (0 if shortcut else 23))
    assert np.all(stepped[3 * widths[0]:] == 23)
    assert np.array_equal(actions, np.argmax(ref["rates"][-1].reshape(3, -1), axis=1))
    if v_thr == 0.1:  # the step-by-step sum is not T * v_thr, and the result keeps it
        assert 23 * 0.1 != sum([0.1] * 23)
        assert res.avg_currents[0][0, 1] == sum([0.1] * 23) / (23 * 0.1) != 1.0


@pytest.mark.parametrize("kind, levels, v_thr", [
    ("conv", [-0.5, 0.0, 1.0, 1.5], 1.0),
    ("dense", [0.0, 1.0], 0.8),
])
def test_steady_input_leaves_the_loop(rng, monkeypatch, kind, levels, v_thr):
    """A steady input that is not binary at v_thr, on a conv net whose
    input is kept per unit and on a dense net, never reaches _integrate
    in a deciding run of the rate readout (SpikingAgent.actions), which
    steps every other population T times and answers the step loop's
    argmax; a run that returns a SimResult steps every population T
    times, the input's included, and equals the step loop bit for bit."""
    net = _padded_conv_net(rng) if kind == "conv" else rand_dense_net(rng, sizes=[6, 9, 7, 4])
    frames = rng.choice(levels, (2, *net.input_shape))
    frames.reshape(2, -1)[0, :len(levels)] = levels  # every level present
    frames = frames[[0, 1, 1, 0, 1, 0]]  # repeated, so the conv populations are kept per unit
    config = SimConfig(timesteps=23, v_thr=v_thr, readout="rate")
    plan = simulate._Plan(_build_stages(net), frames, config)
    assert plan.steady and bool(plan.units) == (kind == "conv")
    sizes = _sizes(net, frames)
    want = np.full(sum(sizes), 23)
    ref = step_loop(net, frames, config)
    calls = _count_neuron_steps(monkeypatch)
    _check_equals_step_loop(run_batch(net, frames, config), ref)
    assert np.array_equal(_steps_per_neuron(calls, sum(sizes)), want)
    want[:sizes[0]] = 0
    calls.clear()
    actions = SpikingAgent(net, config).actions(frames)
    assert np.array_equal(_steps_per_neuron(calls, sum(sizes)), want)
    assert np.array_equal(actions, np.argmax(ref["rates"][-1].reshape(len(frames), -1), axis=1))


def fsum_exact(stage):
    """Reference for _Stage.exact: the correctly rounded bound from math.fsum."""
    w = np.abs(stage.layer.weights64.reshape(len(stage.layer.bias64), -1))
    b = np.abs(stage.layer.bias64)
    nonzero = np.concatenate([w[w > 0], b[b > 0]])
    if nonzero.size == 0:
        return True
    ulp = float(np.spacing(np.float32(nonzero.min())))
    bound = max(math.fsum([*row.tolist(), bias]) for row, bias in zip(w, b.tolist()))
    return bound < 2.0 ** 53 * ulp


@pytest.mark.parametrize("kind", sorted(KERNEL_NETS))
def test_exact_agrees_with_fsum_on_kernel_nets(rng, kind):
    for _ in range(5):
        for stage in _build_stages(KERNEL_NETS[kind](rng)):
            assert stage.exact == fsum_exact(stage)


def test_exact_at_the_2_pow_53_ulp_boundary():
    # u = ulp(2^-10) = 2^-33 in float32; the row sums to 2^-10 + (2^20 - 2^-10)
    # = 2^20 = 2^53 u exactly, which is not below the bound; one term less is.
    powers = [2.0 ** -10] + [2.0 ** e for e in range(-10, 20)]
    for row, want in ((powers, False), (powers[1:], True)):
        net = NetworkSpec((len(row),), [dense(np.array([row]), np.zeros(1), activation="none")])
        stage, = _build_stages(net)
        assert stage.exact == fsum_exact(stage) == want
    zero = NetworkSpec((3,), [dense(np.zeros((2, 3)), np.zeros(2), activation="none")])
    assert _build_stages(zero)[0].exact is True


# ---------------------------------------------------------------------------
# batch invariance: a row of run_batch is the run of that frame alone

def _spread_weights(rng, shape, spread):
    """float32 weights; with spread, magnitudes span about 1e-3..1e6, so
    the stage usually fails the exactness test."""
    w = rng.normal(0.0, 1.0 / np.sqrt(np.prod(shape[1:])), shape)
    if spread:
        w *= 10.0 ** rng.uniform(-3.0, 6.0, shape)
    return w.astype(np.float32)


@st.composite
def spread_nets(draw):
    """Dense or conv nets wide enough that a batched GEMM's rows can round
    differently from single-row calls; each stage's weights spread or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    if draw(st.booleans()):
        in_ch, side = draw(st.integers(1, 3)), draw(st.integers(5, 10))
        shape = (in_ch, side, side)
        out_ch, k = draw(st.integers(2, 8)), draw(st.integers(2, 3))
        stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 1))
        layers.append(conv2d(_spread_weights(rng, (out_ch, in_ch, k, k), draw(st.booleans())),
                             rng.normal(0, 0.05, out_ch).astype(np.float32),
                             stride=(stride, stride), padding=(pad, pad)))
        out = (side + 2 * pad - k) // stride + 1
        layers.append(flatten())
        width = out_ch * out * out
    else:
        width = draw(st.integers(8, 160))
        shape = (width,)
    for n_out in (draw(st.integers(8, 160)), draw(st.integers(2, 5))):
        layers.append(dense(_spread_weights(rng, (n_out, width), draw(st.booleans())),
                            rng.normal(0, 0.05, n_out).astype(np.float32),
                            activation="relu" if n_out > 5 else "none"))
        width = n_out
    return NetworkSpec(shape, layers), rng


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=spread_nets(), batch=st.integers(2, 9), timesteps=st.integers(1, 30),
       readout=st.sampled_from(["rate", "robust"]))
def test_run_batch_rows_equal_single_runs_bit_for_bit(case, batch, timesteps, readout):
    net, rng = case
    frames = rng.random((batch, *net.input_shape)) * rng.uniform(0.5, 4.0)
    config = SimConfig(timesteps=timesteps, v_thr=0.9, readout=readout)
    batched = run_batch(net, frames, config)
    for i, frame in enumerate(frames):
        single = run(net, frame, config)
        for got, want in zip(batched.rates, single.rates):
            assert np.array_equal(got[i], want)
        assert np.array_equal(batched.f_last[i], single.f_last)
        assert batched.settle_step[i] == single.settle_step


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=spread_nets())
def test_exact_agrees_with_fsum_on_spread_nets(case):
    net, _ = case
    for stage in _build_stages(net):
        assert stage.exact == fsum_exact(stage)
