"""Shared random-network builders and readers used across the suite."""

import ast
import csv
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from rateconv import NetworkSpec, ReportRow, conv2d, dense, flatten, step_dtype
from rateconv.simulate import _integrate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def drive_neurons(currents, v_thr=1.0):
    """Bare neurons through the simulator's IF recurrence from rest.

    currents: [timesteps, *neurons].  Returns (spike counts, final
    potentials, summed currents), each shaped like one time slice.
    """
    currents = np.asarray(currents, dtype=np.float64)
    potentials = np.zeros(currents.shape[1:])
    total = np.zeros(currents.shape[1:])
    fired = np.empty(currents.shape, dtype=bool)
    _integrate(potentials, currents, v_thr, fired, total)
    return fired.sum(axis=0, dtype=np.int64), potentials, total


def read_report_rows(path):
    """A sweep CSV's rows parsed back with the csv module."""
    with open(path, newline="") as fh:
        return [ReportRow(r["sweep_param"], float(r["value"]), int(r["episodes"]),
                          *(float(r[k]) for k in ("mean_score", "std_score", "mean_cr",
                                                  "std_cr", "pearson_score_cr")))
                for r in csv.DictReader(fh)]


def _is_rateconv(module: str) -> bool:
    return module.split(".")[0] == "rateconv"


def rateconv_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) pairs the code looks up in rateconv: from-imports,
    attributes of a name bound to a rateconv module, and modules loaded
    through importlib.import_module (name "")."""
    aliases: dict[str, str] = {}
    used: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if _is_rateconv(a.name):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and _is_rateconv(node.module or ""):
            for a in node.names:
                used.add((node.module, a.name))
                value = getattr(importlib.import_module(node.module), a.name, None)
                if isinstance(value, types.ModuleType):
                    aliases[a.asname or a.name] = value.__name__
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "import_module" and node.args
              and isinstance(node.args[0], ast.Constant) and _is_rateconv(node.args[0].value)):
            used.add((node.args[0].value, ""))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add((aliases[node.value.id], node.attr))
    return used


def name_resolves(module: str, name: str) -> bool:
    """Whether module has name, a dotted "Class.method" included ("" for the module)."""
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    for part in filter(None, name.split(".")):
        if not hasattr(found, part):
            return False
        found = getattr(found, part)
    return True


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
