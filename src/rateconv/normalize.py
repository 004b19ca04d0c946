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

from .network import (LayerSpec, NetworkSpec, forward_batch, frame_batch, frame_stack,
                      require_integer)

STATS_CHUNK = 1024  # calibration frames per forward_batch call


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
        require_integer("max_frames", self.max_frames)
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


def _rank(p, n: int) -> int:
    """Nearest rank k = ceil(p/100 * n), clamped to [1, n], from p's exact decimal value.

    Fraction(str(p)) is the decimal p was written as (99.9 is 999/10), so
    no binary rounding of p or of the product can move k, whatever n.
    """
    # imported here: fractions loads decimal (2-3 ms), which commands that
    # never rank samples should not pay at start-up
    from fractions import Fraction
    return min(max(math.ceil(Fraction(str(p)) * n / 100), 1), n)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the k-th smallest with k = ceil(p/100 * n).

    p = 100 returns the maximum.  No interpolation.  This pools every
    sample; collect_stats streams to the same value.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile p must be in (0, 100], got {p}")
    k = _rank(p, arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def _top_samples(net: NetworkSpec, frames, max_frames: int,
                 p: float) -> tuple[list[int], list[np.ndarray]]:
    """Each parameterized layer's sample count n and its n - k + 1 largest
    samples, k the nearest rank of p, over the first max_frames frames.

    The k-th smallest of n samples is the smallest of the n - k + 1
    largest, so a running top keeps every rank from k up: one
    np.partition per STATS_CHUNK frames cuts the kept top plus the
    chunk's samples back to n - k + 1.  np.partition orders NaN last, as
    percentile does.  Frames are converted to float64 one chunk at a
    time, and every frame, also past max_frames, must be finite.
    """
    frames = frame_batch(net, frames)
    if frames.shape[0] < 1:
        raise ValueError("need at least one calibration frame")
    used = min(frames.shape[0], max_frames)
    param_idx = net.parameterized_indices()
    counts = [0] * len(param_idx)
    tops = [np.empty(0)] * len(param_idx)
    for start in range(0, frames.shape[0], STATS_CHUNK):
        chunk = frame_stack(net, frames[start:start + STATS_CHUNK])
        if start >= used:
            continue
        acts, _ = forward_batch(net, chunk[:used - start])
        for j, li in enumerate(param_idx):
            a = acts[li]
            if net.layers[li].activation != "relu":
                a = np.maximum(a, 0.0)
            counts[j] = used * (a.size // a.shape[0])
            keep = counts[j] - _rank(p, counts[j]) + 1
            pool = np.concatenate((tops[j], a.ravel()))
            if pool.size > keep:
                pool.partition(pool.size - keep)
                pool = pool[pool.size - keep:].copy()
            tops[j] = pool
        acts = a = None  # free this chunk's activations before the next forward pass
    return counts, tops


def _stats_per_config(net: NetworkSpec, frames, configs: list[NormConfig],
                      provenance: str = "") -> list[NormStats]:
    """collect_stats for each config, from one calibration pass per distinct max_frames.

    A pass keeps the top samples for the smallest percentile among the
    configs it serves; every larger percentile's rank lies inside them.
    """
    passes = {}
    for cap in dict.fromkeys(c.max_frames for c in configs):
        p_min = min(c.percentile for c in configs if c.max_frames == cap)
        passes[cap] = _top_samples(net, frames, cap, p_min)
    return [_stats_from_tops(net, *passes[c.max_frames], c, provenance) for c in configs]


def _stats_from_tops(net: NetworkSpec, counts: list[int], tops: list[np.ndarray],
                     config: NormConfig, provenance: str) -> NormStats:
    """NormStats read from each layer's kept top samples (see _top_samples).

    The top holds ranks n - top.size + 1 .. n, so rank k sits at
    top.size - (n - k + 1) in np.partition's order.
    """
    scales = [1.0]
    warnings: list[str] = []
    for li, n, top in zip(net.parameterized_indices(), counts, tops):
        at = top.size - (n - _rank(config.percentile, n) + 1)
        value = float(np.partition(top, at)[at])
        if value <= 0.0:
            warnings.append(f"layer {li}: no positive activations in calibration set; "
                            "scale falls back to 1")
            value = 1.0
        scales.append(value)
    return NormStats(scales=scales, sample_counts=[0, *counts], config=config,
                     warnings=warnings, provenance=provenance)


def collect_stats(net: NetworkSpec, frames, config: NormConfig,
                  provenance: str = "") -> NormStats:
    """Scale factors from the percentile of all activation scalars per layer.

    Hidden layers sample their post-ReLU values; the final layer (which
    may carry no ReLU) samples the positive part of its outputs.  Each
    scale equals percentile() of the layer's pooled samples, bit for bit,
    but memory stays bounded by one chunk plus the top 1 % of samples
    (p >= 99).  A layer whose percentile is not positive falls back to
    scale 1 with a warning so downstream division stays safe.  Frames
    must be finite.
    """
    return _stats_per_config(net, frames, [config], provenance)[0]


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
