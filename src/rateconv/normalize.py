"""Data-based parameter normalization.

Collects post-activation statistics of every parameterized layer over a
calibration frame set, takes a per-layer percentile of those samples as
the layer's scale factor, and rescales weights and biases so analog
activations land in the firing-rate-representable range [0, 1]:

    w_scaled = (scale[prev] / scale[this]) * w
    b_scaled = b / scale[this]

The input gets scale 1 because frames are already in [0, 1].  Dividing
the final q-values by a single positive constant never changes which
action is greedy, so the output layer is rescaled like any other.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .network import LayerSpec, NetworkSpec, forward_batch, frame_stack

STATS_CHUNK = 1024  # calibration frames per forward_batch call
_RANK_GUARD = 1e-9  # absorbs binary rounding of decimal percentiles, e.g. 99.9 % of 1000 -> rank 999


@dataclass
class NormConfig:
    """Percentile in [99.0, 100.0] and the calibration frame cap."""

    percentile: float = 99.9
    max_frames: int = 15000

    def __post_init__(self):
        if isinstance(self.percentile, bool) or not isinstance(self.percentile, numbers.Real):
            raise ValueError(f"percentile must be a number, got {self.percentile!r}")
        if not 99.0 <= self.percentile <= 100.0:
            raise ValueError(f"percentile must be in [99.0, 100.0], got {self.percentile}")
        if isinstance(self.max_frames, bool) or not isinstance(self.max_frames, numbers.Integral):
            raise ValueError(f"max_frames must be an integer, got {self.max_frames!r}")
        if self.max_frames < 1:
            raise ValueError(f"max_frames must be positive, got {self.max_frames}")


@dataclass
class NormStats:
    """Per-layer scale factors, indexed 0 (input, fixed 1) .. n_parameterized."""

    scales: list[float]
    sample_counts: list[int]
    config: NormConfig
    warnings: list[str] = field(default_factory=list)
    provenance: str = ""


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the k-th smallest with k = ceil(p/100 * n).

    p = 100 returns the maximum.  No interpolation.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile p must be in (0, 100], got {p}")
    k = math.ceil(p * arr.size / 100.0 - _RANK_GUARD)
    k = min(max(k, 1), arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def collect_stats(net: NetworkSpec, frames, config: NormConfig,
                  provenance: str = "") -> NormStats:
    """Scale factors from the percentile of all activation scalars per layer.

    Hidden layers sample their post-ReLU values; the final layer (which
    may carry no ReLU) samples the positive part of its outputs.  A layer
    whose percentile is not positive falls back to scale 1 with a warning
    so downstream division stays safe.  Frames must be finite.
    """
    frames = frame_stack(net, frames)
    if frames.shape[0] < 1:
        raise ValueError("need at least one calibration frame")
    frames = frames[:config.max_frames]

    param_idx = net.parameterized_indices()
    samples: list[list[np.ndarray]] = [[] for _ in param_idx]
    for start in range(0, frames.shape[0], STATS_CHUNK):
        acts, _ = forward_batch(net, frames[start:start + STATS_CHUNK])
        for j, li in enumerate(param_idx):
            a = acts[li]
            if net.layers[li].activation != "relu":
                a = np.maximum(a, 0.0)
            samples[j].append(a.ravel())

    scales = [1.0]
    counts = [0]
    warnings: list[str] = []
    for j, li in enumerate(param_idx):
        pooled = np.concatenate(samples[j])
        counts.append(int(pooled.size))
        value = percentile(pooled, config.percentile)
        if value <= 0.0:
            warnings.append(f"layer {li}: no positive activations in calibration set; "
                            "scale falls back to 1")
            value = 1.0
        scales.append(float(value))
    return NormStats(scales=scales, sample_counts=counts, config=config,
                     warnings=warnings, provenance=provenance)


def apply_normalization(net: NetworkSpec, stats: NormStats) -> NetworkSpec:
    """Rescaled copy of the network; the original is left untouched.

    Raises ValueError if a layer's rescaled weights or bias do not fit
    in float32, the dtype the network stores them in.
    """
    param_idx = net.parameterized_indices()
    if len(stats.scales) != len(param_idx) + 1:
        raise ValueError(f"stats carry {len(stats.scales)} scales but network has "
                         f"{len(param_idx)} parameterized layers (+1 for the input)")
    if not all(0.0 < s < math.inf for s in stats.scales):  # also false for NaN
        raise ValueError("all scale factors must be positive and finite")

    layers = []
    j = 0
    for i, layer in enumerate(net.layers):
        if not layer.parameterized:
            layers.append(replace(layer))
            continue
        prev_scale, this_scale = stats.scales[j], stats.scales[j + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            w = (layer.weights.astype(np.float64) * (prev_scale / this_scale)).astype(np.float32)
            b = (layer.bias.astype(np.float64) / this_scale).astype(np.float32)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {i}: weights or bias scaled by {prev_scale!r} / "
                             f"{this_scale!r} do not fit in float32")
        layers.append(LayerSpec(kind=layer.kind, weights=w, bias=b,
                                stride=layer.stride, padding=layer.padding,
                                activation=layer.activation))
        j += 1
    return NetworkSpec(input_shape=net.input_shape, layers=layers)


# ---------------------------------------------------------------------------
# stats files (JSON)

def stats_to_dict(stats: NormStats) -> dict:
    return {
        "percentile": stats.config.percentile,
        "max_frames": stats.config.max_frames,
        "scales": list(stats.scales),
        "sample_counts": list(stats.sample_counts),
        "warnings": list(stats.warnings),
        "provenance": stats.provenance,
    }


def _list_of(key: str, value, kinds, what: str) -> list:
    """value, if it is a list whose items are all of kinds (bool never counts)."""
    if not isinstance(value, list) or any(isinstance(x, bool) or not isinstance(x, kinds)
                                          for x in value):
        raise ValueError(f"{key} must be a list of {what}")
    return value


def stats_from_dict(payload: dict) -> NormStats:
    config = NormConfig(percentile=payload["percentile"], max_frames=payload["max_frames"])
    provenance = payload.get("provenance", "")
    if not isinstance(provenance, str):
        raise ValueError("provenance must be a string")
    return NormStats(
        scales=[float(x) for x in _list_of("scales", payload["scales"], (int, float), "numbers")],
        sample_counts=list(_list_of("sample_counts", payload["sample_counts"], int, "integers")),
        config=config,
        warnings=list(_list_of("warnings", payload.get("warnings", []), str, "strings")),
        provenance=provenance)


def save_stats(stats: NormStats, path) -> None:
    Path(path).write_text(
        json.dumps(stats_to_dict(stats), indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_stats(path) -> NormStats:
    p = Path(path)
    try:
        payload = json.loads(p.read_text())
        return stats_from_dict(payload)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{p}: malformed stats file ({exc})") from exc
