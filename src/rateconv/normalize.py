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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .network import (NetworkSpec, Units, UnitValues, first_new, forward_layers, forward_units,
                      frame_batch, frame_keys, frame_stack, layer_shapes, leading_convs,
                      number_keys, require_integer, require_number, require_stack, unit_forward)

STATS_CHUNK = 1024  # calibration frames per forward pass
STATS_TABLE_BYTES = 2 << 20  # bytes of distinct frames (in their own dtype) a frame table holds


@dataclass
class NormConfig:
    """Percentile in [99.0, 100.0] and the calibration frame cap."""

    percentile: float = 99.9
    max_frames: int = 15000

    def __post_init__(self):
        require_number("percentile", self.percentile)
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
    require_number("p", p)
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile p must be in (0, 100], got {p}")
    k = _rank(p, arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def _windows(net: NetworkSpec, frames):
    """The frame count of frames and their (start, window) pairs, windows of
    STATS_CHUNK frames from frame 0.  frames is an array, or a reader
    from modelio.open_frames, whose frames are read from the file one
    window at a time and never held whole."""
    if hasattr(frames, "frame_windows"):
        require_stack(net, frames.shape)
        return frames.shape[0], frames.frame_windows(STATS_CHUNK)
    frames = frame_batch(net, frames)
    return frames.shape[0], ((start, frames[start:start + STATS_CHUNK])
                             for start in range(0, frames.shape[0], STATS_CHUNK))


def _top_of_counts(values: np.ndarray, counts: np.ndarray, keep: int) -> np.ndarray:
    """The keep largest samples of the multiset that holds each of values
    counts times, as a plain array (every sample when there are fewer).

    Each value counts at least once, so the keep largest samples lie
    among the keep largest values; np.argpartition and np.argsort order
    NaN last, as np.partition does.
    """
    if values.size > keep:
        at = np.argpartition(values, values.size - keep)[values.size - keep:]
        values, counts = values[at], counts[at]
    order = np.argsort(values)[::-1]
    values, counts = values[order], counts[order]
    needed = np.searchsorted(np.cumsum(counts), keep) + 1
    return np.repeat(values[:needed], counts[:needed])[:keep]


class _FrameTable:
    """The distinct frames of a calibration pass, so that the leading conv
    layers kept per unit (network.unit_forward) run on each once.

    rows numbers each frame's key (network.number_keys), seen[row] counts
    the times the frame came, and each layer the table holds keeps a
    UnitValues over every unit the table's unit_forward calls made:
    values [units, channels] stacked call after call, and ids [capacity,
    positions] int32, the unit each position of each frame holds.  It
    holds capacity frames: as many as STATS_TABLE_BYTES of their keys.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows: dict[bytes, int] = {}
        self.seen = np.zeros(capacity, dtype=np.int64)
        self.layers: list[UnitValues] = []

    def forward(self, net: NetworkSpec, window: np.ndarray) -> tuple[list, int, list]:
        """(flushed, depth, results) for a chunk of frames, window [batch,
        *input_shape] in its own dtype.

        results are forward_units(net, frame_stack(net, window)) from
        layer depth on, with the same bits: the table holds the layers
        before, the last of them gathered and expanded for every row in
        order, so the later layers run on the very matrix the whole pass
        gives them.  Frames the table has not seen are converted to
        float64 (and checked finite: a frame it has seen has the bytes of
        one that was) and run through unit_forward, and the table counts
        every row; it pools its layers itself (flush).  If the chunk's
        new frames would overflow the table it is flushed first, and
        flushed holds what it pooled.  A chunk whose distinct frames do
        not fit in an empty table, or whose new frames keep fewer layers
        per unit than the table holds (none, for frames that do not
        repeat), runs through forward_units whole, depth 0, and the table
        keeps nothing of it.
        """
        keys = frame_keys(window)
        size, flushed = len(self.rows), []
        slots = number_keys(self.rows, keys)
        if len(self.rows) > self.capacity and size:
            for _ in range(len(self.rows) - size):
                self.rows.popitem()
            flushed, size = self.flush(), 0
            slots = number_keys(self.rows, keys)
        keys = None  # the table holds its new keys; the chunk's repeats go before the forward
        new = len(self.rows) - size
        fits, kept = len(self.rows) <= self.capacity, []
        if fits and new:
            kept = unit_forward(frame_stack(net, window[first_new(slots, size)]), net.layers,
                                len(window))
        depth = len(self.layers) if size else len(kept)
        if not fits or not depth or new and len(kept) < depth:
            for _ in range(new):
                self.rows.popitem()
            return flushed, 0, forward_units(net, frame_stack(net, window))
        if not size:
            self.layers = [UnitValues(np.empty((0, r.values.shape[1])),
                                      Units(np.empty((self.capacity, r.units.ids.shape[1]),
                                                     dtype=np.int32), 0, None),
                                      (self.capacity, *r.shape[1:])) for r in kept[:depth]]
        for held, got in zip(self.layers, kept):
            held.units.ids[size:len(self.rows)] = got.units.ids + held.units.count
            held.units.count += got.units.count
            held.values = np.concatenate((held.values, got.values))
        self.seen[:len(self.rows)] += np.bincount(slots, minlength=len(self.rows))
        last = self.layers[-1]
        units = Units(last.units.ids[slots].astype(np.intp), last.units.count, None)
        expanded = UnitValues(last.values, units, (len(window), *last.shape[1:])).expanded
        return flushed, depth, forward_layers(net.layers[depth:], expanded)

    def flush(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer the table holds as (values [units, channels], counts
        [units]), a unit's count being the sum, over the table's frames,
        of the times the frame came times the positions that hold the
        unit in it; then the table is emptied."""
        size = len(self.rows)
        pooled = []
        for held in self.layers:
            ids = held.units.ids[:size]
            counts = np.bincount(ids.ravel(), np.repeat(self.seen[:size], ids.shape[1]),
                                 held.units.count)
            pooled.append((held.values, counts.astype(np.int64)))  # exact below 2**53
        self.rows, self.layers = {}, []
        self.seen[:] = 0
        return pooled


def _top_samples(net: NetworkSpec, frames, max_frames: int,
                 p: float) -> tuple[list[int], list[np.ndarray]]:
    """Each parameterized layer's sample count n and its n - k + 1 largest
    samples, k the nearest rank of p, over the first max_frames frames.

    The k-th smallest of n samples is the smallest of the n - k + 1
    largest, so a running top keeps every rank from k up: one
    np.partition per STATS_CHUNK frames cuts the kept top plus the
    chunk's samples back to n - k + 1, n being the frames used times the
    layer's size.  np.partition orders NaN last, as percentile does.

    A network that starts with conv layers that can be kept per unit
    (network.leading_convs) runs its chunks through one _FrameTable:
    each distinct frame goes through unit_forward once, and the layers
    kept per unit give their samples as (value, count) pairs, each
    unit's values counting once per position of each frame that holds
    it, each time the frame comes; only their n - k + 1 largest samples
    join the partition, once per table.  The top of a multiset does not
    depend on how it is split, so the scale is the same, bit for bit.
    Each chunk still expands the last such layer for all its rows, into
    the matrix the first dense layer's batched product reads as in
    forward_batch, so the dense layers keep their bits too.  A chunk the
    table cannot take pools its layers kept per unit by itself.  Frames
    are converted to float64 one chunk at a time (only its new frames,
    through the table), and every frame, also past max_frames, must be
    finite.
    """
    n, windows = _windows(net, frames)
    if n < 1:
        raise ValueError("need at least one calibration frame")
    used = min(n, max_frames)
    param_idx = net.parameterized_indices()
    shapes = layer_shapes(net)
    counts = [used * math.prod(shapes[li]) for li in param_idx]
    keeps = [c - _rank(p, c) + 1 for c in counts]
    tops = [np.empty(0)] * len(param_idx)
    table = None

    def pool(j: int, a: np.ndarray, times=None) -> None:
        """Join layer j's samples a, or each of a's rows times[row] times, to its top."""
        if net.layers[param_idx[j]].activation != "relu":
            a = np.maximum(a, 0.0)
        if times is not None:
            a = _top_of_counts(a.ravel(), np.repeat(times, a.shape[1]), keeps[j])
        top = np.concatenate((tops[j], a.ravel()))
        if top.size > keeps[j]:
            top.partition(top.size - keeps[j])
            top = top[top.size - keeps[j]:].copy()
        tops[j] = top

    for start, window in windows:
        frame_stack(net, window[max(0, used - start):])  # frames past max_frames: checked only
        if start >= used:
            continue
        window = window[:used - start]
        if start == 0 and leading_convs(net.layers, net.input_shape):
            table = _FrameTable(max(1, STATS_TABLE_BYTES // max(1, window[0].nbytes)))
        if table is not None:
            flushed, depth, results = table.forward(net, window)
        else:
            flushed, depth, results = [], 0, forward_units(net, frame_stack(net, window))
        for j, (values, times) in enumerate(flushed):
            pool(j, values, times)
        for j, li in enumerate(param_idx):
            if li < depth:
                continue  # the table pools it
            r = results[li - depth]
            if isinstance(r, UnitValues):
                pool(j, r.values, np.bincount(r.units.ids.ravel(), minlength=r.units.count))
            else:
                pool(j, r)
        results = r = None  # free this chunk's activations before the next forward pass
    if table is not None:
        for j, (values, times) in enumerate(table.flush()):
            pool(j, values, times)
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
    but memory stays bounded by one chunk, plus the frame table, plus
    the top 1 % of samples (p >= 99); frames given as a reader from
    modelio.open_frames (a trace or a frame blob) are read one chunk at
    a time too.  The frame table (at most STATS_TABLE_BYTES of distinct
    frames) runs the leading conv layers the analog pass keeps per unit
    once per distinct frame and pools them as (value, count) pairs;
    each chunk expands only the last of them, into the matrix the first
    dense layer's batched product reads as in forward_batch: the kept
    top samples are the same values and the dense layers see the same
    matrices, so every scale keeps its bits (see _top_samples).  A layer
    whose percentile is not positive falls back to scale 1 with a
    warning so downstream division stays safe.  Frames must be finite.
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
            w = (layer.weights64 * (prev_scale / this_scale)).astype(np.float32)
            b = (layer.bias64 / this_scale).astype(np.float32)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {i}: weights or bias scaled by {prev_scale!r} / "
                             f"{this_scale!r} do not fit in float32")
        layers.append(replace(layer, weights=w, bias=b))
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
