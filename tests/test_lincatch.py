"""LineCatch environment dynamics and its exact policy oracles."""

import numpy as np
import pytest

from rateconv import (AnalogAgent, EvalConfig, LineCatchEnv, forward_batch, greedy_action,
                      optimal_network)
from rateconv.evaluate import _play_lockstep


class _BlindAgent:
    """Always action 0 of the 8x8 net's 3; only useful under epsilon = 1."""

    net = optimal_network(8)

    def actions(self, observations):
        return np.zeros(len(observations), dtype=int)


def test_observation_shape_and_values():
    env = LineCatchEnv(grid_size=8, episode_len=14)
    obs = env.reset(seed=0)
    assert obs.shape == (1, 8, 8)
    assert set(np.unique(obs)) <= {0.0, 1.0}
    assert obs.sum() == 2.0  # one object pixel, one paddle pixel


def test_object_never_rendered_on_paddle_row():
    env = LineCatchEnv(grid_size=6, episode_len=60)
    obs = env.reset(seed=3)
    rng = np.random.default_rng(0)
    done = False
    while not done:
        grid = obs[0]
        object_rows = np.nonzero(grid[:-1].sum(axis=1))[0]
        assert len(object_rows) == 1
        assert grid[-1].sum() in (1.0, 2.0)  # paddle, plus object never below row G-2
        obs, _, done = env.step(int(rng.integers(3)))


def test_dynamics_deterministic_given_seed():
    a = LineCatchEnv(grid_size=8, episode_len=56)
    b = LineCatchEnv(grid_size=8, episode_len=56)
    oa, ob = a.reset(seed=9), b.reset(seed=9)
    assert np.array_equal(oa, ob)
    for action in [0, 2, 1, 2, 0, 1] * 9:
        ra = a.step(action)
        rb = b.step(action)
        assert np.array_equal(ra[0], rb[0]) and ra[1] == rb[1] and ra[2] == rb[2]


def test_episode_length_and_drop_count():
    env = LineCatchEnv(grid_size=8, episode_len=112)
    assert env.drops_per_episode() == 16
    env.reset(seed=1)
    steps = 0
    landings = 0
    done = False
    while not done:
        obs, reward, done = env.step(1)
        steps += 1
        if obs[0][0].sum() == 1.0 and steps % 7 == 0:
            landings += 1
    assert steps == 112
    assert landings == 16  # object back at the top row every grid_size - 1 steps


def test_env_guards():
    env = LineCatchEnv(grid_size=4, episode_len=3)
    with pytest.raises(RuntimeError):
        env.step(1)
    env.reset(seed=0)
    with pytest.raises(ValueError):
        env.step(5)
    for _ in range(3):
        env.step(1)
    with pytest.raises(RuntimeError):
        env.step(1)
    with pytest.raises(ValueError, match="episode_len must be >= 0, got -1"):
        LineCatchEnv(episode_len=-1)


@pytest.mark.parametrize("name, value", [("grid_size", 8.5), ("grid_size", True),
                                         ("episode_len", True), ("episode_len", 14.0)])
def test_env_sizes_are_integers(name, value):
    """A float or a bool size is refused, not truncated or read as 1; a
    numpy integer is taken."""
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        LineCatchEnv(**{name: value})
    assert getattr(LineCatchEnv(**{name: np.int64(9)}), name) == 9


def test_optimal_network_moves_toward_object():
    net = optimal_network(8)
    env = LineCatchEnv(grid_size=8, episode_len=21)
    obs = env.reset(seed=5)
    grid = obs[0]
    obj_col = int(np.argmax(grid[:-1].sum(axis=0)))
    paddle_col = 4
    action = greedy_action(forward_batch(net, obs[None])[1][0])
    want = 1 if obj_col == paddle_col else (0 if obj_col < paddle_col else 2)
    assert action == want


def test_optimal_policy_catches_every_drop():
    env = LineCatchEnv(grid_size=8, episode_len=112)
    agent = AnalogAgent(optimal_network(8))
    config = EvalConfig(epsilon=0.0, max_noop=0, episodes=1, frame_budget=10_000)
    for seed in range(5):
        [rec] = _play_lockstep([env.clone()], [np.random.default_rng(seed)], agent, config)
        assert rec.score == env.drops_per_episode() == 16


def test_random_policy_matches_analytic_value():
    """Actions independent of the frame catch each drop with chance 1/G.

    E[score] = drops / G and drops are uncorrelated, so over n episodes
    the mean lies within 3 * sqrt(drops * p * (1-p) / n) of the value.
    """
    g, drops = 8, 16
    env = LineCatchEnv(grid_size=g, episode_len=drops * (g - 1))
    config = EvalConfig(epsilon=1.0, max_noop=0, episodes=1, frame_budget=10_000)
    n = 1000
    scores = [_play_lockstep([env.clone()], [np.random.default_rng(10_000 + i)],
                             _BlindAgent(), config)[0].score
              for i in range(n)]
    expected = drops / g
    p = 1.0 / g
    three_sigma = 3.0 * np.sqrt(drops * p * (1 - p) / n)
    assert abs(np.mean(scores) - expected) < three_sigma

