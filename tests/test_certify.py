"""Certified early decisions: a run that answers actions ends once interval
bounds prove that no row's action can change, and answers the argmax of
the whole run's readout."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rateconv import (NetworkSpec, SimConfig, SpikingAgent, conv2d, dense, flatten, readout,
                      run_batch, simulate)
from rateconv.modelio import save_model
from rateconv.network import frame_stack
from rateconv.simulate import _build_stages, _checked_stages, _run_stages

from conftest import rand_conv_net, rand_dense_net
from test_cli import run_cli_process
from test_simulate import (KERNEL_NETS, TWINS, _count_neuron_steps, drive_frames, tiled_frames,
                           twin_rows)


def whole_run_actions(net, frames, config):
    """The reference: argmax of the readout of a run to T."""
    values = readout(run_batch(net, frames, config))
    return np.argmax(values.reshape(len(frames), -1), axis=1)


def decide(net, frames, config):
    return _run_stages(_checked_stages(net), frame_stack(net, frames), config, decide=True)


def output_steps(calls):
    """The steps the output population ran, from _count_neuron_steps' log:
    it holds the last elements of the flat state."""
    end = max(start + size for start, size, _ in calls)
    return sum(steps for start, size, steps in calls if start + size == end)


def _tied(net, rng, tie):
    """net with its output's second neuron (channel) set to the first's
    weights: "tie" with the same bias, an exact tie that argmax breaks by
    first index; "ulp" with the bias one float32 ulp away; "near" with the
    weights jittered by about 1e-4 of their size."""
    layers = list(net.layers)
    out = layers[-1]
    w, b = np.array(out.weights, dtype=np.float64), np.array(out.bias, dtype=np.float64)
    w[1], b[1] = w[0], b[0]
    if tie == "ulp":
        b[1] = np.nextafter(np.float32(b[0]), np.float32(rng.choice([-1.0, 1.0]) * np.inf))
    elif tie == "near":
        w[1] = w[0] * (1.0 + rng.normal(0.0, 1e-4, w[0].shape))
    if out.kind == "conv2d":
        layers[-1] = conv2d(w, b, out.stride, out.padding, activation="none")
    else:
        layers[-1] = dense(w, b, activation="none")
    return NetworkSpec(net.input_shape, layers)


LEVELS = [([0.0, 1.0], 1.0), ([-0.5, 0.0, 1.0, 1.5], 1.0), ([0.0, 0.5], 1.0),
          ([0.0, 1.0, 0.125, 0.3], 1.0), ([0.0, 1.0], 0.5)]


@st.composite
def certified_runs(draw):
    """A dense net, a conv net ending in dense layers, or a conv net whose
    last conv is the output, of one position or of up to nine, which the
    bound leaves to run to T; its output perhaps tied or nearly tied on
    purpose; binary, steady or changing frames (tiled from a few patches
    for conv nets, so units repeat, perhaps with twin rows that share a
    signature); T from 1 to 300; and perhaps a block length forced short,
    so the run has many blocks and a short last one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "conv", "conv-output"]))
    if kind == "dense":
        net = rand_dense_net(rng, n_actions=int(rng.integers(2, 5)))
    elif kind == "conv":
        net = rand_conv_net(rng, n_actions=int(rng.integers(2, 5)))
    else:
        c, side = int(rng.integers(1, 3)), int(rng.integers(5, 9))
        mid, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        # the output map is 1x1 (certifiable) to 3x3 (run to T)
        out = side - k + 1 - int(rng.integers(0, 3))
        net = NetworkSpec((c, side, side), [
            conv2d(rng.normal(0, 1.0 / np.sqrt(c * k * k), (mid, c, k, k)),
                   rng.normal(0, 0.05, mid)),
            conv2d(rng.normal(0, 1.0 / np.sqrt(mid * out * out), (3, mid, out, out)),
                   rng.normal(0, 0.05, 3), activation="none")])
    tie = draw(st.sampled_from([None, "tie", "ulp", "near"]))
    if tie is not None:
        net = _tied(net, rng, tie)
    levels, v_thr = draw(st.sampled_from(LEVELS))
    batch = draw(st.integers(1, 8))
    if len(net.input_shape) == 3:
        frames = tiled_frames(rng, batch, net.input_shape, levels)
        frames = twin_rows(rng, frames, net, levels, draw(TWINS))
    else:
        frames = rng.choice(levels, (batch, *net.input_shape))
    timesteps = draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
    return net, frames, SimConfig(timesteps=timesteps, v_thr=v_thr), draw(
        st.sampled_from([None, 1, 3, 8]))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=certified_runs())
def test_certified_actions_equal_the_whole_run(case):
    """The certified action of every row is the argmax of the whole run's
    readout, in a batch that mixes rows that certify with rows that do
    not, or whose rows share signatures, and alone.  The bound is
    checked at most once per run, and a run it does not wholly certify
    steps its output T times.  Under a config that may certify, the
    bound holds neuron by neuron (_check_rest_bounds)."""
    net, frames, config, block = case
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(simulate, "BLOCK_BYTES", 8 * block * _state_elements(net, frames))
        want = whole_run_actions(net, frames, config)
        log = _log_checks(mp)
        calls = _count_neuron_steps(mp)
        for rows, actions in [(frames, want), *zip(frames[:, None], want[:, None])]:
            log.clear()
            calls.clear()
            assert decide(net, rows, config).tolist() == actions.tolist()
            assert len(log) <= 1
            if log and log[0][1]:  # certified at rest
                assert calls == []
            else:
                assert output_steps(calls) == config.timesteps
    if simulate._certifiable(_build_stages(net), config):
        _check_rest_bounds(net, frames, config)


def _check_rest_bounds(net, frames, config):
    """The bound at rest against the run to T: every neuron below the
    output spikes within its interval, one flagged to fire at every step
    fires T times and one flagged never none, and each output's lead
    over another, less what the readout may round, is at most the lead
    of the run's summed currents."""
    T = config.timesteps
    plan = simulate._Plan(_checked_stages(net), frame_stack(net, frames), config)
    bounds = simulate._rest_bounds(plan, config)
    if bounds is None:
        return
    feed, lead, margin = bounds
    res = run_batch(net, frames, config)
    center, step, radius, width = (plan.per_population(part) for part in feed)
    for j in range(len(plan.shapes) - 1):
        count = np.rint(res.rates[j] * T)
        assert np.all(center[j] - radius[j] <= count) and np.all(count <= center[j] + radius[j])
        assert np.all(count[step[j] - width[j] == 1.0] == T)
        assert np.all(count[step[j] + width[j] == 0.0] == 0.0)
    total = res.avg_currents[-1].reshape(len(frames), -1) * (T * config.v_thr)
    bound = plan.by_row((lead - margin).transpose(2, 0, 1))  # [batch, a, c]
    assert np.all(bound <= total[:, :, None] - total[:, None, :])


def test_bound_that_is_not_finite_certifies_nothing():
    """A pixel of 1e308 summed over 10 steps passes the largest float, and
    so does 10 v_thr at a v_thr of 1e308 on binary frames, whose hidden
    bounds stay finite but whose readout margin does not: either way the
    bound at rest gives no bound and certifies no action, so a run would
    go to T.  Only the bound is called; no run is made, and no overflow
    warns."""
    net = rand_dense_net(np.random.default_rng(3), sizes=[4, 3, 2])
    for frames, config in [([[0.5, 1e308, 1.0, 0.0]], SimConfig(timesteps=10)),
                           ([[0, 1, 1, 0], [1, 1, 0, 0]], SimConfig(timesteps=10, v_thr=1e308))]:
        plan = simulate._Plan(_build_stages(net), np.array(frames, dtype=np.float64), config)
        assert not plan.steady
        assert simulate._rest_bounds(plan, config) is None
        assert simulate._actions_at_rest(plan, config) is None


def _state_elements(net, frames):
    """An upper bound on the float64 values per step the state of a run
    holds, so BLOCK_BYTES of block times it gives blocks of at most block
    steps."""
    sizes = [np.prod(s.shape) for s in _build_stages(net)] + [np.prod(net.input_shape)]
    fan_in = max(s.layer.weights[0].size * np.prod(s.shape) // len(s.layer.bias)
                 for s in _build_stages(net))
    return int(max(sum(sizes), fan_in) * len(frames))


def _log_checks(monkeypatch):
    """Log each bound check at rest: (columns certified, whether all are);
    a check whose hidden bounds are not finite certifies none."""
    log, wins = [], []
    check, lead = simulate._actions_at_rest, simulate._lead

    def logged(plan, config):
        wins.clear()
        actions = check(plan, config)
        log.append((int(wins[0].any(axis=0).sum()) if wins else 0, actions is not None))
        return actions

    monkeypatch.setattr(simulate, "_lead", lambda *args: wins.append(lead(*args)) or wins[-1])
    monkeypatch.setattr(simulate, "_actions_at_rest", logged)
    return log


def test_certified_paths_are_taken(monkeypatch):
    """A batch ends at its one check, at rest, before any of its 500
    steps; with two outputs tied, the rows the third output leads are
    certified and the others send the batch to T: the bound is not
    vacuous, and a batch stops only when all its rows are certified."""
    log = _log_checks(monkeypatch)
    rng = np.random.default_rng(8)
    net = rand_dense_net(rng, sizes=[16, 12, 3])
    frames = rng.choice([0.0, 1.0], (6, 16))
    config = SimConfig(timesteps=500)
    want = whole_run_actions(net, frames, config)
    calls = _count_neuron_steps(monkeypatch)
    assert decide(net, frames, config).tolist() == want.tolist()
    assert log == [(6, True)] and calls == []

    # a tie of the first two outputs: rows that lead with the third certify,
    # the rest cannot, and the batch runs to T
    tied = _tied(net, rng, "tie")
    want = whole_run_actions(tied, frames, config)
    assert 0 < (want == 2).sum() < len(want)
    log.clear()
    calls.clear()
    assert decide(tied, frames, config).tolist() == want.tolist()
    assert log == [((want == 2).sum(), False)]
    assert output_steps(calls) == 500


RUN_TO_T = {
    # the rate readout is never certified
    "rate": (lambda rng: rand_dense_net(rng, sizes=[16, 12, 3]), dict(readout="rate")),
    # output weights spread over 2^-40..1: the output stage is not exact
    "inexact-output": (lambda rng: _spread_output(rand_dense_net(rng, sizes=[16, 12, 3]), rng),
                       {}),
    # 0.7 is no whole multiple of any stage's u
    "v_thr-not-a-multiple": (lambda rng: rand_dense_net(rng, sizes=[16, 12, 3]),
                             dict(v_thr=0.7)),
    # a tie of the first two outputs over one step: the rest check
    # certifies the other rows, and the tied ones run the step
    "T-1": (lambda rng: _tied(rand_dense_net(rng, sizes=[16, 12, 3]), rng, "tie"),
            dict(timesteps=1)),
    # a tie of the first two outputs over 37 steps, in blocks of up to 8:
    # the rest check certifies the untied rows, then K-step blocks run to
    # a short last block
    "short-last-block": (lambda rng: _tied(rand_dense_net(rng, sizes=[16, 12, 3]), rng, "tie"),
                         dict(timesteps=37)),
    "conv-tie": (lambda rng: _tied(KERNEL_NETS["conv-padded"](rng), rng, "tie"),
                 dict(timesteps=45)),
}


def _spread_output(net, rng):
    out = net.layers[-1]
    w = out.weights * 2.0 ** rng.integers(-40, 1, out.weights.shape)
    return NetworkSpec(net.input_shape, [*net.layers[:-1], dense(w, out.bias, activation="none")])


def _log_sums(monkeypatch):
    """Wrap _integrate; the returned list holds, per call, whether it got
    a total (the current sums) and whether it got a trail (the output
    potentials after each step)."""
    sums = []
    integrate = simulate._integrate

    def logged(potentials, currents, v_thr, fired, total=None, trail=None):
        sums.append((total is not None, trail is not None))
        return integrate(potentials, currents, v_thr, fired, total, trail)

    monkeypatch.setattr(simulate, "_integrate", logged)
    return sums


@pytest.mark.parametrize("report", [False, True])
@pytest.mark.parametrize("case", sorted(RUN_TO_T))
def test_runs_that_cannot_certify_reach_T(monkeypatch, case, report):
    """The rate readout, an inexact output stage, a v_thr that is not a
    multiple of u and a tie, over one step, to a short last block or
    through a padded conv net, each run the output to T, and answer the
    whole run's argmax.  A run that decides hands _integrate no current
    sum and no output trail at any step, which keeps its loop lean;
    run_batch, which reports, makes no rest check and sums the currents
    at every step."""
    make, overrides = RUN_TO_T[case]
    rng = np.random.default_rng(3 if case == "conv-tie" else 8)
    net = make(rng)
    frames = drive_frames(rng, "binary", 6, net.input_shape)
    config = SimConfig(**{"timesteps": 200, **overrides})
    want = whole_run_actions(net, frames, config)
    log = _log_checks(monkeypatch)
    calls = _count_neuron_steps(monkeypatch)
    sums = _log_sums(monkeypatch)
    run = whole_run_actions if report else decide
    with monkeypatch.context() as mp:
        if case == "short-last-block":
            mp.setattr(simulate, "BLOCK_BYTES", 8 * 8 * _state_elements(net, frames))
        assert run(net, frames, config).tolist() == want.tolist()
    assert output_steps(calls) == config.timesteps
    if report:
        assert all(total for total, _ in sums)
        assert any(trail for _, trail in sums) == (config.readout == "robust")
    else:
        assert sums and not any(total or trail for total, trail in sums)
    tie = case in ("T-1", "short-last-block", "conv-tie")
    assert simulate._certifiable(_build_stages(net), config) == tie
    if tie:
        assert 0 in want and len(set(want.tolist())) > 1  # a tied row beside certifiable ones
        assert bool(log) != report
    else:
        assert log == []


def _padded_conv_to_output(rng):
    """A padded conv straight into the output: 2x7x7 -> 4x4x4 -> 3, the
    conv kept per unit and the output per signature."""
    return NetworkSpec((2, 7, 7), [
        conv2d(rng.normal(0, 1.0 / 3.0, (4, 2, 3, 3)), rng.normal(0, 0.05, 4),
               stride=(2, 2), padding=(1, 1)),
        flatten(),
        dense(rng.normal(0, 0.125, (3, 64)), rng.normal(0, 0.05, 3), activation="none")])


@pytest.mark.parametrize("kind", ["dense", "conv-padded"])
def test_runs_certified_at_rest_run_no_step(monkeypatch, kind):
    """A batch whose every action the check at rest proves runs no step:
    a dense net on steady frames that are not binary (so the input is a
    population of the loop), and a padded conv net whose rows share
    units and signatures, each answer the whole run's actions with no
    call to _integrate."""
    rng = np.random.default_rng(1 if kind == "dense" else 2)
    if kind == "dense":
        net = rand_dense_net(rng, sizes=[16, 12, 3])
        frames = drive_frames(rng, "steady", 6, net.input_shape)
    else:
        net = _padded_conv_to_output(rng)
        frames = tiled_frames(rng, 6, net.input_shape, [0.0, 1.0])
        frames = twin_rows(rng, frames, net, [0.0, 1.0], ["same", "blind"])
    config = SimConfig(timesteps=500)
    want = whole_run_actions(net, frames, config)
    assert len(set(want.tolist())) > 1
    log = _log_checks(monkeypatch)
    calls = _count_neuron_steps(monkeypatch)
    assert decide(net, frames, config).tolist() == want.tolist()
    assert [done for _, done in log] == [True] and calls == []


def test_an_output_of_several_positions_runs_to_T(monkeypatch):
    """A conv output whose map is 2x2, 3 channels at 4 positions: the
    bound compares outputs on the rows of the layer's weights, which
    give no lead between two positions, so no run of it is certifiable,
    and a deciding run steps its output T times and answers the argmax
    of the whole run's readout."""
    rng = np.random.default_rng(5)
    net = NetworkSpec((1, 5, 5), [
        conv2d(rng.normal(0, 0.5, (2, 1, 2, 2)), rng.normal(0, 0.05, 2)),
        conv2d(rng.normal(0, 1.0 / 3.0, (3, 2, 3, 3)), rng.normal(0, 0.05, 3),
               activation="none")])
    stages = _build_stages(net)
    assert stages[-1].shape == (3, 2, 2)
    frames = drive_frames(rng, "binary", 6, net.input_shape)
    config = SimConfig(timesteps=200)
    assert not simulate._certifiable(stages, config)
    want = whole_run_actions(net, frames, config)
    log = _log_checks(monkeypatch)
    calls = _count_neuron_steps(monkeypatch)
    assert SpikingAgent(net, config).actions(frames).tolist() == want.tolist()
    assert log == [] and output_steps(calls) == config.timesteps


def test_a_rest_check_that_certifies_nothing_is_the_only_one(monkeypatch):
    """On a padded conv net whose check at rest certifies no row, the
    bound is computed once and the run goes to T, as a deep conv net's
    replay does."""
    rng = np.random.default_rng(3)
    net = KERNEL_NETS["conv-padded"](rng)
    frames = drive_frames(rng, "binary", 6, net.input_shape)
    config = SimConfig(timesteps=200)
    want = whole_run_actions(net, frames, config)
    leads = []
    lead = simulate._lead
    monkeypatch.setattr(simulate, "_lead", lambda *args: leads.append(len(leads)) or lead(*args))
    log = _log_checks(monkeypatch)
    calls = _count_neuron_steps(monkeypatch)
    assert decide(net, frames, config).tolist() == want.tolist()
    assert log == [(0, False)] and len(leads) == 1
    assert output_steps(calls) == config.timesteps


def test_readout_overflow_still_refused(tmp_path, rng, monkeypatch):
    """A v_thr far below the output potentials overflows the readout: the
    agent's certified path runs to T and refuses the run, and play and
    replay still exit 2."""
    net = rand_dense_net(rng, sizes=[16, 12, 3])
    out = net.layers[-1]
    net.layers[-1] = dense(100.0 * out.weights, out.bias, activation="none")
    frames = rng.choice([0.0, 1.0], (3, 16))
    config = SimConfig(timesteps=20, v_thr=3e-308)
    calls = _count_neuron_steps(monkeypatch)
    with pytest.raises(ValueError, match="overflow the readout"):
        SpikingAgent(net, config).actions(frames)
    assert output_steps(calls) == 20
    # at a v_thr that is a whole multiple of every u, no current reaches
    # 2^53 v_thr, so |V| / (T v_thr) cannot overflow
    stages = _build_stages(net)
    exact = SimConfig(timesteps=20, v_thr=max(stage.ulp for stage in stages))
    assert simulate._certifiable(stages, exact)
    assert decide(net, frames, exact).tolist() == whole_run_actions(net, frames, exact).tolist()

    source = NetworkSpec((1, 8, 8), [flatten(), dense(rng.normal(0, 30.0, (3, 64)),
                                                      rng.normal(0, 0.1, 3), activation="none")])
    save_model(source, tmp_path / "model")
    done = run_cli_process("play", "--model", tmp_path / "model", "--snn-model",
                           tmp_path / "model", "--vthr", "3e-308", "--episodes", "2",
                           "--out", tmp_path / "play.csv")
    assert done.returncode == 2 and "overflow the readout" in done.stderr
    assert "Traceback" not in done.stderr


# f_last of run_batch at T = 57 on exact stages,
# whose bits no summation order changes: sha256 prefixes of the bytes
# the simulator gave before runs could end early.
F_LAST_SHA256 = {
    ("conv", "binary"): "144539348563dc33", ("conv", "changing"): "4cc86f6a2ba3d4be",
    ("conv", "random"): "4f87bb6d57214148", ("conv-padded", "binary"): "258434702d2ef5c3",
    ("conv-padded", "changing"): "a2d6289cae47344e", ("conv-padded", "random"): "190b502154d1d5d3",
    ("dense", "binary"): "8f476728a0700009", ("dense", "changing"): "bf4716a742c2ad78",
    ("dense", "random"): "b01fc1042fef04a7",
}


@pytest.mark.parametrize("kind, drive", sorted(F_LAST_SHA256))
def test_run_batch_f_last_keeps_its_bits(kind, drive):
    rng = np.random.default_rng(11)
    net = KERNEL_NETS[kind](rng)
    frames = drive_frames(rng, drive, 3, net.input_shape)
    assert all(stage.exact for stage in _build_stages(net))
    config = SimConfig(timesteps=57, v_thr=0.8 if drive == "random" else 1.0)
    res = run_batch(net, frames, config)
    assert hashlib.sha256(res.f_last.tobytes()).hexdigest()[:16] == F_LAST_SHA256[kind, drive]
    assert decide(net, frames, config).tolist() == np.argmax(res.f_last, axis=1).tolist()


def _decide_calls(tree: ast.AST) -> list[str]:
    """The functions ("Class.method" or "function") that call _run_stages
    with decide, as a keyword or a fourth positional argument."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                if (isinstance(child, ast.Call) and (
                        isinstance(child.func, ast.Name) and child.func.id == "_run_stages"
                        or isinstance(child.func, ast.Attribute)
                        and child.func.attr == "_run_stages")
                        and (len(child.args) > 3
                             or any(k.arg in ("decide", None) for k in child.keywords))):
                    found.append(where)
                visit(child, where)

    visit(tree, "")
    return found


def test_only_the_spiking_agents_actions_decide():
    """Only SpikingAgent.actions reaches the certified path, so run_batch,
    run, diagnostics and layer_identity_residual always read whole runs."""
    assert _decide_calls(ast.parse(
        "def f(s, x, c):\n"
        "    _run_stages(s, x, c, True)\n"
        "class A:\n"
        "    def g(self):\n"
        "        return simulate._run_stages(s, x, c, decide=True)\n"
        "    def h(self):\n"
        "        return _run_stages(s, x, c, **flags)\n"
        "    def k(self):\n"
        "        return _run_stages(s, x, c)\n")) == ["f", "A.g", "A.h"]
    sources = sorted(Path(simulate.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{p.name} {where}" for p in sources for where in _decide_calls(ast.parse(
        p.read_text()))]
    assert found == ["evaluate.py SpikingAgent.actions"], found
