"""Shared random-network builders used across the suite."""

import numpy as np
import pytest

from rateconv import NetworkSpec, conv2d, dense, flatten, step_dtype


def rand_dense_net(rng, sizes=None, n_actions=None):
    """Random dense stack of 2-4 layers; hidden layers ReLU, final layer linear."""
    if sizes is None:
        depth = int(rng.integers(2, 5))
        sizes = [int(rng.integers(3, 10)) for _ in range(depth + 1)]
        if n_actions is not None:
            sizes[-1] = n_actions
    layers = []
    for i in range(len(sizes) - 1):
        fan_in = sizes[i]
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (sizes[i + 1], fan_in))
        b = rng.normal(0.0, 0.05, sizes[i + 1])
        last = i == len(sizes) - 2
        layers.append(dense(w, b, activation="none" if last else "relu"))
    return NetworkSpec((sizes[0],), layers)


def rand_conv_net(rng, n_actions=4):
    """Small conv stack, flatten, then one or two dense layers."""
    in_ch = int(rng.integers(1, 3))
    side = int(rng.integers(6, 10))
    shape = (in_ch, side, side)
    layers = []
    c, h, w = shape
    for _ in range(int(rng.integers(1, 3))):
        out_ch = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        stride = int(rng.integers(1, 3))
        if (h - k) // stride + 1 < 1 or (w - k) // stride + 1 < 1:
            break
        fan_in = c * k * k
        wt = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (out_ch, c, k, k))
        bias = rng.normal(0.0, 0.05, out_ch)
        layers.append(conv2d(wt, bias, stride=(stride, stride)))
        c, h, w = out_ch, (h - k) // stride + 1, (w - k) // stride + 1
    layers.append(flatten())
    flat = c * h * w
    hidden = int(rng.integers(4, 9))
    layers.append(dense(rng.normal(0, 1.0 / np.sqrt(flat), (hidden, flat)),
                        rng.normal(0, 0.05, hidden)))
    layers.append(dense(rng.normal(0, 1.0 / np.sqrt(hidden), (n_actions, hidden)),
                        rng.normal(0, 0.05, n_actions), activation="none"))
    return NetworkSpec(shape, layers)


def rand_net(rng, n_actions=4):
    if rng.random() < 0.5:
        return rand_conv_net(rng, n_actions=n_actions)
    return rand_dense_net(rng, n_actions=n_actions)


def rand_frames(rng, n, shape):
    return rng.random((n, *shape))


def trace_steps(shape, observations, actions, rewards):
    """A trace's step records: observation, action and reward per step."""
    steps = np.empty(len(actions), step_dtype(shape))
    steps["observation"] = observations
    steps["action"] = actions
    steps["reward"] = rewards
    return steps


def json_paths(doc, path=()):
    """The key path of every value in a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
