"""Conversion-rate accounting, replay, shadowed play, and sweeps."""

import importlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rateconv import (ConversionReport, EpisodeTrace, EvalConfig, LineCatchEnv, NetworkSpec,
                      NormConfig, PlayRecord, SimConfig, apply_normalization,
                      collect_frames_by_play, collect_stats, conv2d, conversion_rate, dense,
                      derive_seed, evaluate, flatten, forward_batch, greedy_action,
                      mean_std, optimal_network, pearson, readout, replay_trace, run,
                      run_batch, step_dtype, AnalogAgent, SpikingAgent)
from rateconv.evaluate import _play_lockstep
from rateconv.network import explore
from rateconv.simulate import _build_stages

from conftest import rand_conv_net, rand_dense_net, rand_frames, trace_steps


def make_trace(rng, net, n, recompute=True):
    """Trace of random frames carrying the net's greedy actions."""
    frames = rand_frames(rng, n, net.input_shape).astype(np.float32)
    _, q = forward_batch(net, frames)
    actions = np.argmax(q, axis=1)
    return EpisodeTrace(action_count=q.shape[1], observation_shape=net.input_shape,
                        steps=trace_steps(net.input_shape, frames, actions, 0.0))


def normalized(rng, net, n_frames=64, p=100.0):
    frames = rand_frames(rng, n_frames, net.input_shape)
    return apply_normalization(net, collect_stats(net, frames, NormConfig(p)))


# ---------------------------------------------------------------------------
# conversion rate arithmetic

def test_conversion_rate_examples():
    assert conversion_rate([1, 2, 3], [1, 2, 3]).cr == 1.0
    got = conversion_rate([1, 2, 3, 0], [1, 2, 3, 3])
    assert got.agreements == 3 and got.decisions == 4 and got.cr == 0.75
    assert conversion_rate([0, 0], [1, 1]).cr == 0.0


def test_conversion_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        conversion_rate([], [])
    with pytest.raises(ValueError):
        conversion_rate([1], [1, 2])


def test_mean_std_of_no_values_is_nan():
    mean, std = mean_std([])
    assert np.isnan(mean) and np.isnan(std)


def test_derive_seed_stable_and_spread():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000


# ---------------------------------------------------------------------------
# replay

def test_replay_self_conversion_perfect_when_gap_dominates(rng):
    """Frames with a comfortable decision gap are converted without error."""
    net = rand_dense_net(rng, sizes=[6, 10, 2])
    pool = rand_frames(rng, 1500, net.input_shape)
    stats = collect_stats(net, pool, NormConfig(100.0))
    norm = apply_normalization(net, stats)
    _, qn = forward_batch(norm, pool)
    gap = np.abs(qn[:, 0] - qn[:, 1])
    chosen = pool[gap > 0.1][:200]
    picks = np.argmax(qn[gap > 0.1][:200], axis=1)
    assert len(chosen) == 200 and 0 < picks.sum() < 200  # both actions present

    config = SimConfig(timesteps=500)
    err = np.max(np.abs(run_batch(norm, chosen, config).f_last
                        - forward_batch(norm, chosen)[1]))
    assert 0.1 > 2 * err  # gap dominates the measured readout error

    steps = trace_steps(net.input_shape, chosen, picks, 0.0)
    trace = EpisodeTrace(action_count=2, observation_shape=net.input_shape, steps=steps)
    report = replay_trace(trace, norm, config, source_net=net)
    assert report.cr == 1.0


def test_replay_trusts_trace_when_source_absent(rng):
    net = rand_dense_net(rng, sizes=[5, 8, 3])
    trace = make_trace(rng, net, 50)
    norm = normalized(rng, net)
    with_source = replay_trace(trace, norm, SimConfig(timesteps=300), source_net=net)
    without = replay_trace(trace, norm, SimConfig(timesteps=300))
    # the trace actions are the source's greedy actions, so both paths agree
    assert with_source.cr == without.cr
    assert without.decisions == 50


def feature_picker_net(offset, k, width):
    """Dense net whose q-values copy k disjoint input features.

    Over iid uniform frames its greedy action is exactly uniform, and two
    pickers with disjoint offsets decide independently, so their expected
    agreement is exactly 1/k.
    """
    w = np.zeros((k, width), dtype=np.float32)
    for a in range(k):
        w[a, offset + a] = 1.0
    from rateconv import NetworkSpec, dense
    return NetworkSpec((width,), [dense(w, np.zeros(k), activation="none")])


def test_replay_unrelated_networks_sit_at_chance(rng):
    source = feature_picker_net(0, 4, 8)
    other = feature_picker_net(4, 4, 8)
    trace = make_trace(rng, source, 1000)
    report = replay_trace(trace, normalized(rng, other), SimConfig(timesteps=200),
                          source_net=source)
    assert abs(report.cr - 0.25) < 0.05


def test_replay_simulates_each_distinct_frame_once(rng, monkeypatch):
    """A trace that repeats frames gives the report and per-frame actions
    of simulating every row, from one simulated row per distinct frame.
    Each step's source action is that of AnalogAgent on its frame alone,
    so a prefix of the trace gets the prefix of the trace's actions.  A
    frame that repeats another but for a zero written as -0.0 counts as
    the same frame and gets its own frame's actions."""
    module = importlib.import_module("rateconv.evaluate")
    net = rand_dense_net(rng, sizes=[16, 32, 3])
    norm = normalized(rng, net)
    base = make_trace(rng, net, 12)
    base.steps["observation"][0, 0] = 0.0
    negated = base.steps[:1].copy()
    negated["observation"][0, 0] = -0.0
    picks = np.append(rng.integers(0, 12, 40), 0)
    trace = EpisodeTrace(action_count=3, observation_shape=net.input_shape,
                         steps=np.concatenate([base.steps[picks], negated]))
    config = SimConfig(timesteps=60)

    rows, compared = [], []
    real_run, real_conversion_rate = module._run_stages, module.conversion_rate

    def counting_run(stages, frames, *args, **kwargs):
        rows.append(len(frames))
        return real_run(stages, frames, *args, **kwargs)

    def recording_conversion_rate(snn_actions, source_actions):
        compared.append((list(snn_actions), list(source_actions)))
        return real_conversion_rate(snn_actions, source_actions)

    monkeypatch.setattr(module, "_run_stages", counting_run)
    monkeypatch.setattr(module, "conversion_rate", recording_conversion_rate)
    monkeypatch.setattr(module, "REPLAY_CHUNK", 5)
    report = replay_trace(trace, norm, config, source_net=net)

    obs = trace.observations().astype(np.float64)
    every_row = [int(np.argmax(readout(run(norm, frame, config)))) for frame in obs]
    source = [int(np.argmax(AnalogAgent(net).qvalues(frame[None]))) for frame in obs]
    assert compared == [(every_row, source)]
    assert sum(rows) == len(np.unique(picks)) and max(rows) <= 5
    want = conversion_rate(every_row, source)
    assert (report.agreements, report.decisions) == (want.agreements, want.decisions)
    assert report.episodes == 1 and report.scores == [trace.total_reward()]

    compared.clear()
    replay_trace(EpisodeTrace(3, net.input_shape, trace.steps[:17]), norm, config,
                 source_net=net)
    assert compared == [(every_row[:17], source[:17])]


def test_replay_asks_the_spiking_agent_once_per_chunk(rng, monkeypatch):
    """replay_trace gets its spiking actions from SpikingAgent.actions and
    its source actions from AnalogAgent.actions, each one call per
    REPLAY_CHUNK distinct frames."""
    module = importlib.import_module("rateconv.evaluate")
    net = rand_dense_net(rng, sizes=[6, 10, 3])
    base = make_trace(rng, net, 23)
    trace = EpisodeTrace(action_count=3, observation_shape=net.input_shape,
                         steps=base.steps[rng.integers(0, 23, 60)])
    distinct = len(np.unique(trace.observations(), axis=0))
    rows = {SpikingAgent: [], AnalogAgent: []}
    for cls in rows:
        def counted(self, observations, real=cls.actions, cls=cls):
            rows[cls].append(len(observations))
            return real(self, observations)
        monkeypatch.setattr(cls, "actions", counted)
    monkeypatch.setattr(module, "REPLAY_CHUNK", 4)
    replay_trace(trace, normalized(rng, net), SimConfig(timesteps=20), source_net=net)
    for calls in rows.values():
        assert len(calls) == -(-distinct // 4) and sum(calls) == distinct


def test_replay_keys_its_frames_window_by_window(rng, monkeypatch):
    """replay_trace numbers the frames' keys into one dict REPLAY_CHUNK
    frames at a time: its traced peak holds one window's copy and keys
    and the distinct frames' keys, not a copy and a key of every step.
    The agents get each distinct frame once, in the order frames first
    come, -0.0 read as 0.0."""
    import tracemalloc

    module = importlib.import_module("rateconv.evaluate")
    shape = (1, 16, 16)
    net = NetworkSpec(shape, [flatten(), dense(rng.normal(0, 0.1, (3, 256)), np.zeros(3),
                                               activation="none")])
    patterns = rng.integers(0, 2, (20, *shape)).astype(np.float32)
    patterns[3] = -patterns[2] * 0.0  # the zeros of frame 2 with their sign flipped
    patterns[3][patterns[2] != 0] = patterns[2][patterns[2] != 0]
    picks = rng.integers(0, 20, 8192)
    trace = EpisodeTrace(3, shape, trace_steps(shape, patterns[picks], picks % 3, 0.0))
    seen = []
    monkeypatch.setattr(module, "_replay_actions",
                        lambda agent, distinct, inverse: seen.append((distinct, inverse))
                        or inverse.tolist())
    tracemalloc.start()
    try:
        replay_trace(trace, net, SimConfig(timesteps=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trace.observations().nbytes / 8, (peak, trace.observations().nbytes)
    distinct, inverse = seen[0]
    order = list(dict.fromkeys(np.where(picks == 3, 2, picks).tolist()))
    assert np.array_equal(distinct, patterns[order])
    assert np.array_equal(distinct[inverse] + 0.0, trace.observations() + 0.0)


def test_replay_rejects_empty_trace(rng):
    net = rand_dense_net(rng, sizes=[4, 4, 2])
    empty = EpisodeTrace(action_count=2, observation_shape=(4,),
                         steps=np.empty(0, step_dtype((4,))))
    with pytest.raises(ValueError):
        replay_trace(empty, net, SimConfig(timesteps=10))


# ---------------------------------------------------------------------------
# agents

def test_spiking_agent_checks_and_builds_its_network_once(rng, monkeypatch):
    """A SpikingAgent validates its network and builds its stages once,
    however many rounds it answers, and each row still reads what a run of
    its frame alone reads."""
    simulate = importlib.import_module("rateconv.simulate")
    calls = Counter()
    for name in ("validate_network", "_build_stages"):
        def counted(net, real=getattr(simulate, name), name=name):
            calls[name] += 1
            return real(net)
        monkeypatch.setattr(simulate, name, counted)
    config = SimConfig(timesteps=25)
    for net in (rand_dense_net(rng, sizes=[6, 10, 3]), rand_conv_net(rng, n_actions=3)):
        norm = normalized(rng, net)
        frames = rand_frames(rng, 12, net.input_shape)
        calls.clear()
        agent = SpikingAgent(norm, config)
        rounds = [agent.qvalues(frames[start:start + size])
                  for start, size in ((0, 5), (5, 1), (6, 4), (10, 2), (0, 12))]
        assert calls == {"validate_network": 1, "_build_stages": 1}
        want = [readout(run(norm, frame, config)) for frame in frames]
        assert all(np.array_equal(a, b) for a, b in zip(np.concatenate(rounds), want + want))

    net, snn, env = _setup_pair(12)
    calls.clear()
    report = evaluate(net, snn, config, EvalConfig(episodes=4, seed=2), env=env)
    assert report.decisions > 4 and calls == {"validate_network": 1, "_build_stages": 1}


def test_spiking_agent_refuses_an_invalid_network_as_run_batch_does(rng):
    net = rand_dense_net(rng, sizes=[6, 10, 3])
    broken = NetworkSpec(net.input_shape, [dense(net.layers[0].weights, net.layers[0].bias,
                                                 activation="none"), net.layers[1]])
    config = SimConfig(timesteps=5)
    with pytest.raises(ValueError, match="invalid network") as want:
        run_batch(broken, rand_frames(rng, 2, net.input_shape), config)
    with pytest.raises(ValueError) as got:
        SpikingAgent(broken, config)
    assert str(got.value) == str(want.value)
    env = LineCatchEnv(grid_size=8, episode_len=20)
    source = NetworkSpec((1, 8, 8), [flatten(), dense(np.zeros((3, 64)), np.zeros(3),
                                                      activation="none")])
    broken = NetworkSpec((1, 8, 8), [flatten(), dense(np.zeros((4, 64)), np.zeros(4),
                                                      activation="none"),
                                     dense(np.zeros((3, 4)), np.zeros(3), activation="none")])
    with pytest.raises(ValueError, match="hidden layers must use relu"):
        evaluate(source, broken, config, EvalConfig(episodes=2), env=env)


def test_spiking_agent_takes_a_list_or_an_array(rng):
    net = rand_dense_net(rng, sizes=[6, 10, 3])
    norm = normalized(rng, net)
    frames = rand_frames(rng, 5, net.input_shape)
    agent = SpikingAgent(norm, SimConfig(timesteps=30))
    got = agent.qvalues(list(frames))
    assert got.shape == (5, 3) and np.array_equal(got, agent.qvalues(frames))
    for frame, row in zip(frames, got):
        assert np.array_equal(row, readout(run(norm, frame, SimConfig(timesteps=30))))


def _random_analog_net(rng, kind, stride, padding):
    """ReLU hidden layers and a linear 3-wide output, with weights spread
    over many binades so that a batched GEMM rounds some rows differently
    from single-row products; conv first if kind is "conv".  A
    "conv-output" net is two convs, the last one linear with 3 channels
    over the whole map it reads."""
    def spread(*shape):
        return rng.normal(0.0, 1.0, shape) * 2.0 ** rng.integers(-20, 1, shape)

    if kind == "conv-output":
        c, side, k = int(rng.integers(1, 3)), int(rng.integers(5, 10)), int(rng.integers(2, 4))
        mid, out = int(rng.integers(2, 5)), (side + 2 * padding - k) // stride + 1
        return NetworkSpec((c, side, side), [
            conv2d(spread(mid, c, k, k), spread(mid), stride=(stride, stride),
                   padding=(padding, padding)),
            conv2d(spread(3, mid, out, out), spread(3), activation="none")])
    layers = []
    if kind == "conv":
        c, side = int(rng.integers(1, 3)), int(rng.integers(5, 10))
        shape = (c, side, side)
        for _ in range(int(rng.integers(1, 3))):
            out_ch, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            if side + 2 * padding < k:
                break
            layers.append(conv2d(spread(out_ch, c, k, k), spread(out_ch),
                                 stride=(stride, stride), padding=(padding, padding)))
            c, side = out_ch, (side + 2 * padding - k) // stride + 1
        layers.append(flatten())
        width = c * side * side
    else:
        width = int(rng.integers(2, 40))
        shape = (width,)
    for _ in range(int(rng.integers(0, 3))):
        hidden = int(rng.integers(2, 40))
        layers.append(dense(spread(hidden, width), spread(hidden)))
        width = hidden
    layers.append(dense(spread(3, width), spread(3), activation="none"))
    return NetworkSpec(shape, layers)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("dense", "conv", "conv-output")),
       stride=st.integers(1, 2), padding=st.integers(0, 1), batch=st.integers(1, 16),
       as_list=st.booleans())
def test_analog_agent_rows_equal_one_row_forward(seed, kind, stride, padding, batch, as_list):
    """AnalogAgent.qvalues answers a whole batch in one call, and each row
    is bit for bit the one-row forward pass of its observation, whether
    the rows come as a list or an array.  A conv-output net sees repeating
    binary frames, so that its output layer can be kept per unit."""
    rng = np.random.default_rng(seed)
    net = _random_analog_net(rng, kind, stride, padding)
    if kind == "conv-output":
        frames = rng.integers(0, 2, (2, *net.input_shape))[rng.integers(0, 2, batch)] * 1.0
    else:
        frames = rng.normal(0.0, 1.0, (batch, *net.input_shape))
    got = AnalogAgent(net).qvalues(list(frames) if as_list else frames)
    assert got.shape == (batch, 3)
    for row, frame in zip(got, frames):
        assert np.array_equal(row, forward_batch(net, frame[None])[1][0])


def _log_analog_plays(monkeypatch):
    """Per lockstep play: the rows of each AnalogAgent.qvalues call made
    in it, and the records it returns."""
    module = importlib.import_module("rateconv.evaluate")
    plays = []
    real_play, real_qvalues = module._play_lockstep, AnalogAgent.qvalues

    def qvalues(self, observations):
        plays[-1]["rows"].append(len(observations))
        return real_qvalues(self, observations)

    def play(*args, **kwargs):
        plays.append({"rows": []})
        plays[-1]["records"] = real_play(*args, **kwargs)
        return plays[-1]["records"]

    monkeypatch.setattr(AnalogAgent, "qvalues", qvalues)
    monkeypatch.setattr(module, "_play_lockstep", play)
    return plays


def _forward_values(net):
    """Reference analog values: one forward pass per observation."""
    return lambda obs: forward_batch(net, obs[None])[1][0]


def sequential_frames(net, env, n_frames, config):
    """Reference calibration: episode after episode, episode i from
    derive_seed(seed, 0x10000 + i), one forward pass per observation.
    Returns the frames and the number of episodes played."""
    frames, episode, empty_streak = [], 0, 0
    while len(frames) < n_frames:
        rng = np.random.default_rng(derive_seed(config.seed, 0x10000 + episode))
        rec = sequential_episode(env.clone(), _forward_values(net), config, rng)
        episode += 1
        if not rec.frames:
            empty_streak += 1
            if empty_streak > 100:
                raise ValueError("environment produced no decision frames")
            continue
        empty_streak = 0
        frames.extend(rec.frames)
    return np.stack(frames[:n_frames]).astype(np.float64), episode


def test_analog_agent_answers_each_round_in_one_call(monkeypatch):
    """evaluate, a one-episode play and collect_frames_by_play ask the analog
    agent once per lockstep round, for every live episode's observation,
    and take the actions and frames of a per-observation forward loop."""
    net, snn = _random_pair()
    env = LineCatchEnv(grid_size=8, episode_len=40)
    config = EvalConfig(episodes=5, seed=3, max_noop=12, frame_budget=30)
    sim_config = SimConfig(timesteps=20)
    plays = _log_analog_plays(monkeypatch)

    for player in (snn, None):
        got = evaluate(net, player, sim_config, config, env, keep_records=True)
        _assert_same_report(got, sequential_evaluate(net, player, sim_config, config, env)[0])
    play_one = importlib.import_module("rateconv.evaluate")._play_lockstep  # the logged one
    [rec] = play_one([env.clone()], [np.random.default_rng(1)], AnalogAgent(net), config)
    want = sequential_episode(env.clone(), _forward_values(net), config,
                              np.random.default_rng(1))
    _assert_same_records([rec], [want])
    frames = collect_frames_by_play(net, env, 70, config)
    assert np.array_equal(frames, sequential_frames(net, env, 70, config)[0])

    assert len(plays) >= 4
    for play in plays:
        lengths = [len(rec.greedy_actions) for rec in play["records"]]
        # round r asks once, for the episodes that make more than r decisions
        assert play["rows"] == [sum(n > r for n in lengths) for r in range(max(lengths))]
    assert max(max(play["rows"]) for play in plays) > 1


def test_player_and_shadow_answer_each_round_once(monkeypatch):
    """Each round the spiking player and the analog shadow get one actions
    call each, on the same list of the live episodes' observations."""
    net, snn, env = _setup_pair(11)
    calls = []
    for cls in (SpikingAgent, AnalogAgent):
        def logged(self, observations, real=cls.actions, name=cls.__name__):
            calls.append((name, observations))
            return real(self, observations)
        monkeypatch.setattr(cls, "actions", logged)
    report = evaluate(net, snn, SimConfig(timesteps=20), EvalConfig(episodes=3, seed=5), env=env)
    rounds = list(zip(calls[::2], calls[1::2]))
    assert len(calls) == 2 * len(rounds) and len(rounds) > 1
    for (player, rows), (shadow, shadow_rows) in rounds:
        assert (player, shadow) == ("SpikingAgent", "AnalogAgent")
        assert isinstance(rows, list) and shadow_rows is rows
    assert sum(len(rows) for (_, rows), _ in rounds) == report.decisions


# ---------------------------------------------------------------------------
# play episodes

def test_play_zero_frame_budget_empty():
    env = LineCatchEnv(grid_size=8, episode_len=14)
    agent = AnalogAgent(optimal_network(8))
    config = EvalConfig(epsilon=0.0, max_noop=5, episodes=1, frame_budget=0)
    [rec] = _play_lockstep([env], [np.random.default_rng(0)], agent, config)
    assert rec.score == 0.0 and rec.executed_actions == [] and rec.frames == []


def test_play_noop_prefix_bounded_and_excluded_from_decisions():
    env = LineCatchEnv(grid_size=8, episode_len=70)
    agent = AnalogAgent(optimal_network(8))
    config = EvalConfig(epsilon=0.0, max_noop=30, episodes=1, frame_budget=10_000)
    lengths = set()
    for i in range(40):
        [rec] = _play_lockstep([env.clone()], [np.random.default_rng(i)], agent, config)
        lengths.add(rec.noop_steps)
        assert 0 <= rec.noop_steps <= 30
        assert len(rec.greedy_actions) == 70 - rec.noop_steps
        assert len(rec.frames) == len(rec.executed_actions) == len(rec.rewards)
    assert len(lengths) > 5  # prefix length actually varies


def test_play_epsilon_zero_executes_greedy():
    env = LineCatchEnv(grid_size=8, episode_len=35)
    agent = AnalogAgent(optimal_network(8))
    config = EvalConfig(epsilon=0.0, max_noop=0, episodes=1, frame_budget=10_000)
    [rec] = _play_lockstep([env], [np.random.default_rng(3)], agent, config)
    assert rec.executed_actions == rec.greedy_actions


# ---------------------------------------------------------------------------
# evaluate

def _setup_pair(seed=0):
    net = optimal_network(8)
    env = LineCatchEnv(grid_size=8, episode_len=56)
    rng = np.random.default_rng(seed)
    frames = collect_frames_by_play(net, env, 64,
                                    EvalConfig(episodes=1, seed=seed, max_noop=0))
    snn = apply_normalization(net, collect_stats(net, frames, NormConfig(99.9)))
    return net, snn, env


def test_evaluate_identical_policies_zero_cr_spread():
    net, snn, env = _setup_pair()
    config = EvalConfig(epsilon=0.0, max_noop=0, episodes=6, seed=11)
    report = evaluate(net, snn, SimConfig(timesteps=100), config, env=env)
    assert report.cr == 1.0
    assert mean_std(report.per_episode_cr)[1] == 0.0
    # a conversion that always agrees plays the source's episodes, score for score
    assert report.scores == evaluate(net, None, SimConfig(), config, env=env).scores
    assert len(report.scores) == 6


def test_evaluate_aggregation_matches_records():
    net, snn, env = _setup_pair(1)
    config = EvalConfig(epsilon=0.1, max_noop=10, episodes=5, seed=21)
    report = evaluate(net, snn, SimConfig(timesteps=60), config, env=env,
                      keep_records=True)
    agreements = decisions = 0
    for rec in report.records:
        agreements += sum(1 for a, b in zip(rec.greedy_actions, rec.shadow_actions)
                          if a == b)
        decisions += len(rec.greedy_actions)
    assert [rec.score for rec in report.records] == report.scores
    assert (agreements, decisions) == (report.agreements, report.decisions)
    assert report.cr == agreements / decisions


def test_evaluate_deterministic():
    net, snn, env = _setup_pair(2)
    config = EvalConfig(epsilon=0.05, max_noop=5, episodes=4, seed=9)
    first = evaluate(net, snn, SimConfig(timesteps=50), config, env=env)
    second = evaluate(net, snn, SimConfig(timesteps=50), config, env=env)
    assert first.scores == second.scores
    assert first.per_episode_cr == second.per_episode_cr


def test_evaluate_cr_permutation_invariant():
    net, snn, env = _setup_pair(3)
    config = EvalConfig(epsilon=0.2, max_noop=5, episodes=5, seed=4)
    report = evaluate(net, snn, SimConfig(timesteps=50), config, env=env,
                      keep_records=True)
    pairs = [(sum(1 for a, b in zip(r.greedy_actions, r.shadow_actions) if a == b),
              len(r.greedy_actions)) for r in report.records]
    for perm_seed in range(3):
        order = np.random.default_rng(perm_seed).permutation(len(pairs))
        agreements = sum(pairs[i][0] for i in order)
        decisions = sum(pairs[i][1] for i in order)
        assert agreements / decisions == report.cr


def test_evaluate_executed_mode_counts_exploration():
    net, snn, env = _setup_pair(4)
    greedy_cfg = EvalConfig(epsilon=0.5, max_noop=0, episodes=3, seed=5,
                            cr_mode="greedy")
    executed_cfg = EvalConfig(epsilon=0.5, max_noop=0, episodes=3, seed=5,
                              cr_mode="executed")
    sim = SimConfig(timesteps=100)
    greedy_report = evaluate(net, snn, sim, greedy_cfg, env=env)
    executed_report = evaluate(net, snn, sim, executed_cfg, env=env)
    assert greedy_report.cr == 1.0
    assert executed_report.cr < greedy_report.cr


def test_evaluate_source_only_mode():
    net = optimal_network(8)
    env = LineCatchEnv(grid_size=8, episode_len=56)
    config = EvalConfig(epsilon=0.0, max_noop=0, episodes=3, seed=1)
    report = evaluate(net, None, SimConfig(timesteps=10), config, env=env)
    assert report.scores == [8.0, 8.0, 8.0]
    assert report.cr == 1.0


def test_evaluate_source_only_episode_without_decisions_has_nan_cr():
    net = optimal_network(8)
    env = LineCatchEnv(grid_size=8, episode_len=56)
    config = EvalConfig(epsilon=0.0, max_noop=0, episodes=2, seed=1, frame_budget=0)
    report = evaluate(net, None, SimConfig(timesteps=10), config, env=env)
    assert report.decisions == 0
    assert np.isnan(report.per_episode_cr).all() and np.isnan(report.cr)


def _spy_plays(monkeypatch):
    """Log whether each lockstep play evaluate starts has a shadow."""
    module = importlib.import_module("rateconv.evaluate")
    plays = []
    real = module._play_lockstep

    def spy(envs, rngs, agent, config, shadow=None, keep_frames=True):
        plays.append(shadow is not None)
        return real(envs, rngs, agent, config, shadow, keep_frames)

    monkeypatch.setattr(module, "_play_lockstep", spy)
    return plays


def test_evaluate_plays_once_and_sweeps_play_no_source_alone_episode(monkeypatch):
    from rateconv import sweep_percentile, sweep_time
    net, snn, env = _setup_pair(5)
    frames = collect_frames_by_play(net, env, 32, EvalConfig(episodes=1, seed=5))
    config = EvalConfig(episodes=3, seed=2)
    plays = _spy_plays(monkeypatch)
    spiking = evaluate(net, snn, SimConfig(timesteps=30), config, env=env)
    assert plays == [True]
    alone = evaluate(net, None, SimConfig(timesteps=30), config, env=env)
    assert plays == [True, False]
    assert len(spiking.scores) == len(alone.scores) == 3

    del plays[:]
    sweep_time(net, env, frames, [SimConfig(timesteps=t) for t in (10, 20, 30)],
               NormConfig(), config)
    assert plays == [True] * 3  # one shadowed play per point, no source-alone play
    del plays[:]
    sweep_percentile(net, env, frames, [NormConfig(99.5), NormConfig(100.0)],
                     SimConfig(timesteps=30), config)
    assert plays == [True] * 2


# ---------------------------------------------------------------------------
# lockstep evaluation against a literal sequential reference

class _SequentialSpikingValues:
    """Reference q-values: one single-frame spiking run per call.  It logs
    every readout it returns."""

    def __init__(self, net, sim_config):
        self.net = net
        self.sim_config = sim_config
        self.log = []

    def __call__(self, obs):
        self.log.append(readout(run(self.net, obs, self.sim_config)))
        return self.log[-1]


def sequential_episode(env, values, config, rng, shadow=None):
    """Reference: one episode played one decision at a time, values(obs)
    and shadow(obs) giving the q-vector of one observation."""
    env_seed = int(rng.integers(0, 2**63))
    noop_len = int(rng.integers(0, config.max_noop + 1))
    obs = env.reset(env_seed)
    done = env.done
    score = 0.0
    steps = noops = 0
    for _ in range(noop_len):
        if done or steps >= config.frame_budget:
            break
        obs, reward, done = env.step(env.noop_action)
        score += reward
        steps += 1
        noops += 1
    executed, greedy, frames, rewards = [], [], [], []
    shadow_actions = [] if shadow is not None else None
    while not done and steps < config.frame_budget:
        q = values(obs)
        intent = greedy_action(q)
        action = explore(intent, np.size(q), config.epsilon, rng)
        if shadow is not None:
            shadow_actions.append(greedy_action(shadow(obs)))
        frames.append(np.asarray(obs, dtype=np.float32).copy())
        greedy.append(intent)
        executed.append(action)
        obs, reward, done = env.step(action)
        score += reward
        rewards.append(reward)
        steps += 1
    return PlayRecord(score=score, executed_actions=executed, greedy_actions=greedy,
                      shadow_actions=shadow_actions, frames=frames, rewards=rewards,
                      noop_steps=noops, env_steps=steps)


def sequential_evaluate(source_net, snn_net, sim_config, eval_config, env):
    """Reference: the episodes one after another, episode i from
    derive_seed(seed, i), played by the spiking agent with the source
    shadowing, or by the source alone when snn_net is None; an episode
    without decisions has a NaN rate.  Returns the report and each
    episode's spiking readouts."""
    def source(obs):
        return forward_batch(source_net, obs[None])[1][0]

    agreements = decisions = 0
    scores, per_episode_cr, records = [], [], []
    readouts = {}
    for i in range(eval_config.episodes):
        rng = np.random.default_rng(derive_seed(eval_config.seed, i))
        if snn_net is None:
            rec = sequential_episode(env.clone(), source, eval_config, rng)
            hits = n = len(rec.greedy_actions)
        else:
            spiking = _SequentialSpikingValues(snn_net, sim_config)
            rec = sequential_episode(env.clone(), spiking, eval_config, rng, shadow=source)
            readouts[i] = spiking.log
            chosen = (rec.greedy_actions if eval_config.cr_mode == "greedy"
                      else rec.executed_actions)
            hits = sum(1 for a, b in zip(chosen, rec.shadow_actions) if a == b)
            n = len(chosen)
        agreements += hits
        decisions += n
        scores.append(rec.score)
        per_episode_cr.append(hits / n if n else float("nan"))
        records.append(rec)
    return ConversionReport(agreements=agreements, decisions=decisions, scores=scores,
                            per_episode_cr=per_episode_cr, episodes=eval_config.episodes,
                            records=records), readouts


def _log_spiking_rounds(monkeypatch):
    """Log the actions each SpikingAgent.actions call returns: one list per round."""
    rounds = []
    actions = SpikingAgent.actions

    def logged(self, observations):
        chosen = actions(self, observations)
        rounds.append(chosen.tolist())
        return chosen

    monkeypatch.setattr(SpikingAgent, "actions", logged)
    return rounds


def _readouts_by_episode(rounds, lengths):
    """Attribute round r's rows to the episodes with more than r decisions,
    in episode order: an episode decides once per round while it is live."""
    assert len(rounds) == max(lengths, default=0)
    readouts = {}
    for r, rows in enumerate(rounds):
        episodes = [i for i, n in enumerate(lengths) if n > r]
        assert len(rows) == len(episodes)
        for i, row in zip(episodes, rows):
            readouts.setdefault(i, []).append(row)
    return readouts


def _random_pair(spread=False):
    """The README's random dense source (64-24-3 on 8x8 frames) and its
    normalized conversion; with spread, 96 hidden units and output
    weights scaled over 2^-40..1, so the output stage fails the
    exactness test and a batched GEMM would round its rows differently
    from single-row products."""
    rng = np.random.default_rng(7)
    width = 96 if spread else 24
    net = NetworkSpec((1, 8, 8), [
        flatten(),
        dense(rng.normal(0, 0.2, (width, 64)), rng.normal(0, 0.05, width)),
        dense(rng.normal(0, 0.3, (3, width)), rng.normal(0, 0.05, 3), activation="none")])
    env = LineCatchEnv(grid_size=8, episode_len=40)
    frames = collect_frames_by_play(net, env, 128, EvalConfig(episodes=1, seed=3))
    snn = apply_normalization(net, collect_stats(net, frames, NormConfig(99.9)))
    if spread:
        w = snn.layers[2].weights
        snn.layers[2] = replace(snn.layers[2], weights=w * 2.0 ** rng.integers(-40, 1, w.shape))
    return net, snn


LOCKSTEP_CASES = {
    "greedy": dict(epsilon=0.05),
    "executed": dict(epsilon=0.3, cr_mode="executed"),
    "epsilon-0": dict(epsilon=0.0),
    "epsilon-1": dict(epsilon=1.0),
    "source-only": dict(epsilon=0.1, frame_budget=15, max_noop=20),
    "inexact-stage": dict(epsilon=0.05),
    # no-op prefixes of 0..20 steps against a 15-step budget: some episodes
    # make no decision, the rest stop at the budget, one by one
    "shrinking-batch": dict(epsilon=0.05, frame_budget=15, max_noop=20),
}


def _assert_same_report(got, want):
    for key in ("agreements", "decisions", "scores", "episodes"):
        assert getattr(got, key) == getattr(want, key), key
    assert np.array_equal(got.per_episode_cr, want.per_episode_cr, equal_nan=True)
    _assert_same_records(got.records, want.records)


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for rec, ref in zip(got, want):
        for key in ("score", "executed_actions", "greedy_actions", "shadow_actions",
                    "rewards", "noop_steps", "env_steps"):
            assert getattr(rec, key) == getattr(ref, key), key
        assert len(rec.frames) == len(ref.frames)
        assert all(np.array_equal(a, b) for a, b in zip(rec.frames, ref.frames))


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_evaluate_equals_sequential_reference(case, monkeypatch):
    eval_kwargs = LOCKSTEP_CASES[case]
    source, snn = _random_pair(spread=case == "inexact-stage")
    exact = [stage.exact for stage in _build_stages(snn)]
    assert all(exact) == (case != "inexact-stage")
    if case == "source-only":
        snn = None
    env = LineCatchEnv(grid_size=8, episode_len=40)
    eval_config = EvalConfig(episodes=9, seed=17, **eval_kwargs)
    sim_config = SimConfig(timesteps=40)

    want, want_readouts = sequential_evaluate(source, snn, sim_config, eval_config, env)
    rounds = _log_spiking_rounds(monkeypatch)
    got = evaluate(source, snn, sim_config, eval_config, env, keep_records=True)
    _assert_same_report(got, want)
    lengths = [len(rec.greedy_actions) for rec in want.records]
    got_actions = _readouts_by_episode(rounds, lengths if snn is not None else [])
    # every decision's action is the argmax of its whole run's readout,
    # in each episode's order
    assert got_actions.keys() == {i for i, log in want_readouts.items() if log}
    for i, log in got_actions.items():
        assert log == [greedy_action(values) for values in want_readouts[i]]
    bare = evaluate(source, snn, sim_config, eval_config, env)
    assert bare.records is None
    assert np.array_equal(bare.per_episode_cr, got.per_episode_cr, equal_nan=True)

    if case in ("shrinking-batch", "source-only"):
        assert all(rec.env_steps == eval_config.frame_budget for rec in want.records)
        assert 0 in lengths and len(set(lengths)) > 2  # the batch shrinks more than once
    if snn is not None:
        assert 0 < want.agreements < want.decisions  # the shadow disagrees sometimes


# ---------------------------------------------------------------------------
# pearson and sweeps

def test_pearson_definition():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
    assert np.isnan(pearson([1.0], [2.0]))
    assert np.isnan(pearson([1, 1, 1], [1, 2, 3]))
    # a NaN point (an episode set without decisions) leaves the statistic undefined
    assert np.isnan(pearson([1.0, 2.0, 3.0], [0.5, float("nan"), 0.7]))
    assert np.isnan(pearson([float("nan"), 2.0, 3.0], [0.5, 0.6, 0.7]))


def test_sweep_time_rows_and_trend():
    from rateconv import sweep_time
    net, _, env = _setup_pair(6)
    frames = collect_frames_by_play(net, env, 64, EvalConfig(episodes=1, seed=6))
    rows = sweep_time(net, env, frames, [SimConfig(timesteps=20), SimConfig(timesteps=100)],
                      NormConfig(99.9), EvalConfig(epsilon=0.05, max_noop=5, episodes=3, seed=13))
    assert [r.value for r in rows] == [20.0, 100.0]
    assert all(r.sweep_param == "time" and r.episodes == 3 for r in rows)
    shared = {repr(r.pearson_score_cr) for r in rows}
    assert len(shared) == 1  # one statistic across rows (may be nan)
    assert rows[0].mean_cr <= rows[1].mean_cr + 1e-12


def test_sweep_single_row_pearson_nan():
    from rateconv import sweep_time
    net, _, env = _setup_pair(7)
    frames = collect_frames_by_play(net, env, 32, EvalConfig(episodes=1, seed=7))
    rows = sweep_time(net, env, frames, [SimConfig(timesteps=50)], NormConfig(100.0),
                      EvalConfig(episodes=2, seed=3, max_noop=0))
    assert len(rows) == 1 and np.isnan(rows[0].pearson_score_cr)


@pytest.mark.parametrize("field", ["max_noop", "episodes", "seed", "frame_budget"])
@pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"])
def test_eval_config_counts_are_integers(field, value):
    """A bool or a non-integer count is refused up front, not run (a bool)
    or left to fail deep inside a play."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        EvalConfig(**{field: value})
    assert getattr(EvalConfig(**{field: np.int64(3)}), field) == 3


def test_eval_config_cr_mode_is_one_of_the_modes():
    with pytest.raises(ValueError, match="cr_mode must be one of"):
        EvalConfig(cr_mode="x")


def test_eval_config_max_noop_fits_int64():
    """A no-op count numpy cannot draw is refused up front with ValueError,
    not left to fail in the first episode's draw."""
    with pytest.raises(ValueError, match=r"max_noop must be < 2\*\*63"):
        EvalConfig(max_noop=2**63)
    assert EvalConfig(max_noop=2**63 - 1).max_noop == 2**63 - 1


@pytest.mark.parametrize("value", [True, "0.05", None])
def test_eval_config_epsilon_is_a_number(value):
    """A bool is not an exploration rate, and a string is refused with
    ValueError, not a TypeError from the range check."""
    with pytest.raises(ValueError, match="epsilon must be a number"):
        EvalConfig(epsilon=value)
    assert EvalConfig(epsilon=np.float64(0.5)).epsilon == 0.5 and EvalConfig(epsilon=0).epsilon == 0


def test_sweep_time_rejects_empty_or_bad_values():
    """An empty point list is rejected; a bad point value never reaches a
    sweep, because its config cannot be built."""
    from rateconv import sweep_percentile, sweep_time
    net, _, env = _setup_pair(8)
    frames = np.zeros((4, 1, 8, 8))
    with pytest.raises(ValueError, match="at least one timestep"):
        sweep_time(net, env, frames, [], NormConfig(), EvalConfig(episodes=1))
    with pytest.raises(ValueError, match="at least one percentile"):
        sweep_percentile(net, env, frames, [], SimConfig(), EvalConfig(episodes=1))
    with pytest.raises(ValueError):
        SimConfig(timesteps=0)
    with pytest.raises(ValueError):
        NormConfig(98.0)


def test_sweep_percentile_rows_carry_exact_values(rng):
    from rateconv import sweep_percentile
    net, _, env = _setup_pair(9)
    frames = collect_frames_by_play(net, env, 64, EvalConfig(episodes=1, seed=9))
    rows = sweep_percentile(net, env, frames, [NormConfig(99.25), NormConfig(100.0)],
                            SimConfig(timesteps=40), EvalConfig(episodes=2, seed=8, max_noop=0))
    assert [r.value for r in rows] == [99.25, 100.0]
    assert all(r.sweep_param == "percentile" for r in rows)


def test_sweep_percentile_calibrates_once_with_per_point_rows(monkeypatch, rng):
    """All points of a percentile sweep share one calibration pass, and its
    rows equal those of normalizing once per point with collect_stats."""
    from rateconv import normalize, sweep_percentile
    from rateconv.evaluate import _finish_rows, report_row
    net, _, env = _setup_pair(4)
    frames = rng.random((normalize.STATS_CHUNK + 300, *net.input_shape)).astype(np.float32)
    configs = [NormConfig(p) for p in (99.0, 99.9, 100.0)]
    sim_config, eval_config = SimConfig(timesteps=30), EvalConfig(episodes=2, seed=6)
    want = _finish_rows([
        report_row("percentile", c.percentile,
                   evaluate(net, apply_normalization(net, collect_stats(net, frames, c)),
                            sim_config, eval_config, env=env))
        for c in configs])
    calls = []
    real = normalize.forward_units
    monkeypatch.setattr(normalize, "forward_units",
                        lambda n, x: calls.append(len(x)) or real(n, x))
    rows = sweep_percentile(net, env, frames, configs, sim_config, eval_config)
    assert calls == [normalize.STATS_CHUNK, 300]
    assert repr(rows) == repr(want)


def test_percentile_sensitivity_to_outliers(rng):
    """One huge activation separates max-scaling from 99.9-percentile scaling."""
    from rateconv import NetworkSpec, dense, percentile
    samples = np.concatenate([rng.uniform(0.0, 0.5, 1999), [50.0]])
    assert percentile(samples, 100.0) == 50.0
    assert percentile(samples, 99.9) < 1.0


CALIBRATION_CASES = {
    # (episode_len, frame_budget, max_noop, n_frames)
    "budget-above-episode": (21, 18000, 30, 50),
    # every episode yields exactly 5 frames: one chunk of 4 fills n_frames
    "chunk-fills-exactly": (21, 5, 0, 20),
    "budget-cuts-episodes": (21, 7, 3, 40),
    "one-frame-budget": (21, 1, 2, 9),
    # no-op prefixes as long as the episode: many empty episodes between
    "prefixes-swallow-episodes": (4, 18000, 6, 30),
}


@pytest.mark.parametrize("case", sorted(CALIBRATION_CASES))
def test_lockstep_calibration_equals_episode_by_episode_play(case, monkeypatch):
    """collect_frames_by_play returns the bytes of playing one episode
    after another, and plays no episode that loop would not play."""
    episode_len, frame_budget, max_noop, n_frames = CALIBRATION_CASES[case]
    net, _ = _random_pair()
    env = LineCatchEnv(grid_size=8, episode_len=episode_len)
    config = EvalConfig(seed=11, frame_budget=frame_budget, max_noop=max_noop)
    want, episodes = sequential_frames(net, env, n_frames, config)
    plays = _log_analog_plays(monkeypatch)
    got = collect_frames_by_play(net, env, n_frames, config)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert sum(len(play["records"]) for play in plays) == episodes
    if case == "chunk-fills-exactly":
        assert [len(play["records"]) for play in plays] == [4]
    if case == "prefixes-swallow-episodes":
        assert any(not rec.frames for play in plays for rec in play["records"])


@pytest.mark.parametrize("episode_len,frame_budget", [(0, 18000), (5, 0)])
def test_calibration_without_decision_frames_is_refused(episode_len, frame_budget,
                                                        monkeypatch):
    """An environment that never yields a decision is given up after 101
    empty episodes in a row, as the episode-by-episode loop gives up."""
    net, _ = _random_pair()
    env = LineCatchEnv(grid_size=8, episode_len=episode_len)
    config = EvalConfig(frame_budget=frame_budget, max_noop=episode_len)
    with pytest.raises(ValueError, match="no decision frames"):
        sequential_frames(net, env, 300, config)
    plays = _log_analog_plays(monkeypatch)
    with pytest.raises(ValueError, match=rf"no decision frames in 101 episodes in a row: "
                                         rf"each episode's budget of {frame_budget} "):
        collect_frames_by_play(net, env, 300, config)
    assert sum(len(play["records"]) for play in plays) == 101


def test_collect_frames_by_play(rng):
    net = optimal_network(8)
    env = LineCatchEnv(grid_size=8, episode_len=21)
    frames = collect_frames_by_play(net, env, 50, EvalConfig(episodes=1, seed=0))
    assert frames.shape == (50, 1, 8, 8)
    again = collect_frames_by_play(net, env, 50, EvalConfig(episodes=1, seed=0))
    assert np.array_equal(frames, again)
    for n_frames in (2.5, True, "50"):  # refused before any play
        with pytest.raises(ValueError, match="n_frames must be an integer"):
            collect_frames_by_play(net, env, n_frames, EvalConfig(episodes=1, seed=0))
    with pytest.raises(ValueError, match="n_frames must be >= 1, got 0"):
        collect_frames_by_play(net, env, 0, EvalConfig(episodes=1, seed=0))
