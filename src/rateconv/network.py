"""Minimal feedforward inference: dense, 2-D convolution, flatten, ReLU.

Networks are plain data (numpy arrays plus a little metadata), not a
framework.  Parameters are stored in float32; all arithmetic runs in
float64 so results can be checked against naive reference code to tight
tolerances.  A layer owns its parameters, read-only, and the one float64
copy of them that every computation reads (LayerSpec.weights64,
LayerSpec.bias64); code that changes parameters builds a new layer
(dataclasses.replace).  Every forward pass captures the post-activation
values of every layer, which the normalization and simulation code feed
on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

LAYER_KINDS = ("dense", "conv2d", "flatten")
ACTIVATIONS = ("relu", "none")


@dataclass
class LayerSpec:
    """One layer: kind, parameters, and geometry.

    Weight layout: dense [out, in], conv2d [out_ch, in_ch, kh, kw].
    Bias is [out] / [out_ch].  Flatten carries no parameters.  The layer
    keeps its own C-contiguous float32 copies of the parameters it is
    given, read-only: weights64 and bias64 cache float64 copies of them,
    which an in-place edit would leave stale.
    """

    kind: str
    weights: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    activation: str = "relu"

    def __post_init__(self):
        self.weights = _read_only(self.weights, np.float32)
        self.bias = _read_only(self.bias, np.float32)
        self.stride = (int(self.stride[0]), int(self.stride[1]))
        self.padding = (int(self.padding[0]), int(self.padding[1]))

    @property
    def parameterized(self) -> bool:
        return self.kind in ("dense", "conv2d")

    @cached_property
    def weights64(self) -> Optional[np.ndarray]:
        """The weights in float64, read-only; made once, on first use."""
        return _read_only(self.weights, np.float64)

    @cached_property
    def bias64(self) -> Optional[np.ndarray]:
        """The bias in float64, read-only; made once, on first use."""
        return _read_only(self.bias, np.float64)


def _read_only(a, dtype) -> Optional[np.ndarray]:
    """A read-only C-contiguous copy of a in dtype, or None for None."""
    if a is None:
        return None
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


def dense(weights, bias, activation="relu") -> LayerSpec:
    return LayerSpec(kind="dense", weights=weights, bias=bias, activation=activation)


def conv2d(weights, bias, stride=(1, 1), padding=(0, 0), activation="relu") -> LayerSpec:
    return LayerSpec(kind="conv2d", weights=weights, bias=bias,
                     stride=stride, padding=padding, activation=activation)


def flatten() -> LayerSpec:
    return LayerSpec(kind="flatten", activation="none")


@dataclass
class NetworkSpec:
    """An ordered stack of layers plus the expected input shape.

    input_shape is (features,) for dense-first networks or
    (channels, height, width) for convolutional ones.
    """

    input_shape: tuple[int, ...]
    layers: list[LayerSpec] = field(default_factory=list)

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)

    def parameterized_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.parameterized]


@dataclass
class ValidationResult:
    ok: bool
    violations: list[str]


def layer_output_shape(layer: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape produced by `layer` on input of shape `in_shape`.

    Raises ValueError with a human-readable reason when the layer cannot
    consume the given shape.
    """
    if layer.kind == "dense":
        if layer.weights is None or layer.weights.ndim != 2:
            raise ValueError("dense layer needs 2-D weights [out, in]")
        out_dim, in_dim = layer.weights.shape
        if out_dim < 1:
            raise ValueError("dense layer needs at least one output neuron")
        if len(in_shape) != 1:
            raise ValueError(f"dense layer expects 1-D input, got {in_shape}")
        if in_shape[0] != in_dim:
            raise ValueError(f"dense layer expects {in_dim} inputs, got {in_shape[0]}")
        if layer.bias is None or layer.bias.shape != (out_dim,):
            raise ValueError(f"dense bias must have shape ({out_dim},)")
        return (out_dim,)
    if layer.kind == "conv2d":
        if layer.weights is None or layer.weights.ndim != 4:
            raise ValueError("conv2d layer needs 4-D weights [out_ch, in_ch, kh, kw]")
        out_ch, in_ch, kh, kw = layer.weights.shape
        if out_ch < 1:
            raise ValueError("conv2d layer needs at least one output channel")
        if len(in_shape) != 3:
            raise ValueError(f"conv2d layer expects [channels, h, w] input, got {in_shape}")
        c, h, w = in_shape
        if c != in_ch:
            raise ValueError(f"conv2d layer expects {in_ch} input channels, got {c}")
        if layer.bias is None or layer.bias.shape != (out_ch,):
            raise ValueError(f"conv2d bias must have shape ({out_ch},)")
        sh, sw = layer.stride
        ph, pw = layer.padding
        if not (1 <= sh < 2**31 and 1 <= sw < 2**31):
            raise ValueError(f"conv2d stride must be in [1, 2**31), got {layer.stride}")
        if not (0 <= ph < 2**31 and 0 <= pw < 2**31):
            raise ValueError(f"conv2d padding must be in [0, 2**31), got {layer.padding}")
        out_h = (h + 2 * ph - kh) // sh + 1
        out_w = (w + 2 * pw - kw) // sw + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(f"conv2d output would be empty for input {in_shape}")
        return (out_ch, out_h, out_w)
    if layer.kind == "flatten":
        n = 1
        for d in in_shape:
            n *= d
        return (n,)
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def layer_shapes(net: NetworkSpec) -> list[tuple[int, ...]]:
    """Each layer's output shape, in order; ValueError (layer_output_shape)
    at the first layer that does not fit its input."""
    shapes, shape = [], net.input_shape
    for layer in net.layers:
        shape = layer_output_shape(layer, shape)
        shapes.append(shape)
    return shapes


def validate_network(net: NetworkSpec) -> ValidationResult:
    """Check shape chaining and structural invariants.

    Violations are returned, never raised; each message names the
    offending layer index.
    """
    violations: list[str] = []
    if not net.layers:
        return ValidationResult(False, ["network has no layers"])
    if not any(l.parameterized for l in net.layers):
        violations.append("network has no parameterized layer")

    param_idx = net.parameterized_indices()
    last_param = param_idx[-1] if param_idx else -1
    seen_flatten = False
    seen_dense = False
    shape: Optional[tuple[int, ...]] = net.input_shape

    for i, layer in enumerate(net.layers):
        if layer.kind not in LAYER_KINDS:
            violations.append(f"layer {i}: unknown kind {layer.kind!r}")
            shape = None
            continue
        if layer.activation not in ACTIVATIONS:
            violations.append(f"layer {i}: unknown activation {layer.activation!r}")
        if layer.kind == "flatten":
            if seen_flatten:
                violations.append(f"layer {i}: flatten may appear at most once")
            seen_flatten = True
            if layer.weights is not None or layer.bias is not None:
                violations.append(f"layer {i}: flatten carries no parameters")
            if layer.activation != "none":
                violations.append(f"layer {i}: flatten must not apply an activation")
        if layer.kind == "conv2d" and (seen_flatten or seen_dense):
            violations.append(f"layer {i}: conv2d must precede flatten and dense layers")
        if layer.kind == "dense":
            seen_dense = True
        if layer.parameterized:
            if i != last_param and layer.activation != "relu":
                violations.append(f"layer {i}: hidden layers must use relu")
            for name, arr in (("weights", layer.weights), ("bias", layer.bias)):
                if arr is not None and not np.all(np.isfinite(arr)):
                    violations.append(f"layer {i}: {name} must be finite")
        if shape is not None:
            try:
                shape = layer_output_shape(layer, shape)
            except ValueError as exc:
                violations.append(f"layer {i}: {exc}")
                shape = None  # downstream shapes unknowable

    return ValidationResult(not violations, violations)


def require_integer(name: str, value) -> None:
    """ValueError unless value is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_number(name: str, value) -> None:
    """ValueError unless value is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def require_stack(net: NetworkSpec, shape: tuple[int, ...]) -> None:
    """ValueError unless shape is [batch, *input_shape]."""
    if len(shape) != len(net.input_shape) + 1 or tuple(shape[1:]) != net.input_shape:
        raise ValueError(f"frames of shape {tuple(shape)} do not stack over "
                         f"network input {net.input_shape}")


def frame_batch(net: NetworkSpec, frames) -> np.ndarray:
    """frames as a [batch, *input_shape] array in their own dtype; ValueError if misshapen."""
    frames = np.asarray(frames)
    require_stack(net, frames.shape)
    return frames


def frame_stack(net: NetworkSpec, frames) -> np.ndarray:
    """frames as a float64 [batch, *input_shape] array; ValueError if misshapen or not finite."""
    frames = frame_batch(net, frames).astype(np.float64, copy=False)
    if not np.all(np.isfinite(frames)):
        raise ValueError("frames must be finite (found NaN or infinity)")
    return frames


def frame_keys(frames: np.ndarray) -> list[bytes]:
    """Each frame of frames [batch, ...] as a copy of its bytes, in frames'
    own dtype (object frames, whose bytes are addresses, as float64):
    equal keys are equal frames.  0.0 and -0.0 get different keys, which
    frames + 0.0 folds."""
    if frames.dtype.hasobject:
        frames = frames.astype(np.float64)
    width = math.prod(frames.shape[1:]) * frames.itemsize
    if not width:  # frames of no values are all one frame
        return [b""] * len(frames)
    rows = np.ascontiguousarray(frames).view(np.uint8).reshape(len(frames), width)
    return rows.view(np.dtype((np.void, width))).ravel().tolist()


def number_keys(numbers: dict, keys: list[bytes]) -> np.ndarray:
    """Each key's number in numbers (a dict it extends): keys it lacks take
    the next numbers, len(numbers) on, in the order they first come."""
    get = numbers.get
    slots = np.array([get(key, -1) for key in keys], dtype=np.intp)
    for i in np.flatnonzero(slots < 0).tolist():
        slots[i] = numbers.setdefault(keys[i], len(numbers))
    return slots


def first_new(slots: np.ndarray, size: int) -> np.ndarray:
    """Where in slots, number_keys of a dict of size keys, each new number first comes."""
    return np.flatnonzero(slots > np.maximum.accumulate(np.append(size - 1, slots[:-1])))


def conv2d_batch(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                 stride: tuple[int, int], padding: tuple[int, int]) -> np.ndarray:
    """Zero-padded strided cross-correlation over a batch.

    x: [batch, in_ch, h, w]; weights: [out_ch, in_ch, kh, kw].  It
    accumulates one kernel offset at a time, which keeps summation order
    fixed and results bit-reproducible.  This is the one conv kernel.

    Each output element is summed alone: over channels in order within
    an offset's einsum, then offset after offset into a zero start, then
    the bias, the same operations whatever its batch row or position.
    So a receptive field cut out of x and given alone, as a [1, in_ch,
    kh, kw] input, gets the bits it gets in place; unit_forward computes
    each distinct field once on that ground, no exactness needed.  The
    one exception is a 1x1 kernel, whose weights lie contiguous along
    channels: einsum may then sum the channels in SIMD lanes, in an
    order that depends on x's layout, so units stop before such a layer.
    The simulator's exact conv stages instead take whole rows from a
    step-minor float64 copy of the spikes into one GEMM per block, over
    every row or over one unit per distinct receptive field, which gives
    these bits because every partial sum of 0/1 inputs is exact there
    (see rateconv.simulate).
    """
    out_ch, in_ch, kh, kw = weights.shape
    sh, sw = stride
    ph, pw = padding
    if x.shape[1] != in_ch:
        raise ValueError(f"conv2d input has {x.shape[1]} channels, expected {in_ch}")
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    b, _, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    out = np.zeros((b, out_ch, out_h, out_w), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            patch = x[:, :, ki:ki + sh * out_h:sh, kj:kj + sw * out_w:sw]
            out += np.einsum("bchw,oc->bohw", patch, weights[:, :, ki, kj])
    out += bias[None, :, None, None]
    return out


def apply_layer_linear(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """The affine part of a layer on a batched input (no activation)."""
    if layer.kind == "dense":
        return x @ layer.weights64.T + layer.bias64
    if layer.kind == "conv2d":
        return conv2d_batch(x, layer.weights64, layer.bias64, layer.stride, layer.padding)
    raise ValueError(f"layer kind {layer.kind!r} has no parameters")


def affine_rows(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """The affine part of a layer on a batch, each row bit for bit what a
    one-row apply_layer_linear call gives it, whatever else is in the batch.

    A dense layer is one stacked matmul of single-row products, each made
    as a one-row call makes it (the rows of one batched GEMM may round
    differently); a conv layer is conv2d_batch, whose per-offset einsum
    sums every row alone.  Both read the layer's float64 parameters.
    """
    if layer.kind == "dense":
        return np.matmul(x[:, None, :], layer.weights64.T)[:, 0] + layer.bias64
    return conv2d_batch(x, layer.weights64, layer.bias64, layer.stride, layer.padding)


# ---------------------------------------------------------------------------
# units: one per distinct receptive field

UNIT_SAMPLE = 1024  # pixel vectors unit_maps' repeat test reads


def receptive_fields(layer: LayerSpec, in_shape: tuple[int, ...]) -> np.ndarray:
    """A conv layer's receptive fields, [kh * kw, out_h * out_w]: the
    input position (y * w + x) each kernel offset of each output
    position reads, or h * w where it reads padding."""
    _, h, w = in_shape
    _, _, kh, kw = layer.weights.shape
    (sh, sw), (ph, pw) = layer.stride, layer.padding
    _, oh, ow = layer_output_shape(layer, in_shape)
    y = (np.arange(kh)[:, None] + sh * np.arange(oh) - ph)[:, None, :, None]
    x = (np.arange(kw)[:, None] + sw * np.arange(ow) - pw)[None, :, None, :]
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)  # [kh, kw, oh, ow]
    return np.where(inside, y * w + x, h * w).reshape(kh * kw, oh * ow)


def channel_index(window: np.ndarray, channels: int, n: int) -> np.ndarray:
    """Columns over channels * n neurons, channel-major, from a window
    [offsets, columns] of positions in [0, n], n being padding: [channels
    * offsets, columns], each entry c * n + position, or channels * n (a
    zero row past the last neuron) where it reads padding."""
    at = np.arange(channels)[:, None, None] * n + window
    return np.where(window == n, channels * n, at).reshape(-1, window.shape[1])


def _distinct_codes(digits, n: int, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, ids) of n rows of integers in [0, radix), given as their digit
    columns in turn: first[u] is the first row equal to the u-th distinct
    row, ids[i] the distinct row row i equals.  Each row is read as one
    mixed-radix integer; when the next digit would overflow int64 the
    codes so far are replaced by their ranks, which keeps them below n."""
    codes, span = np.zeros(n, dtype=np.int64), 1
    for digit in digits:
        if span * radix > 2 ** 63:
            values = _distinct_values(codes)
            codes, span = np.searchsorted(values, codes), len(values)
        codes *= radix
        codes += digit.reshape(-1)
        span *= radix
    values = _distinct_values(codes)
    ids = np.searchsorted(values, codes)
    first = np.full(len(values), n, dtype=np.intp)
    np.minimum.at(first, ids, np.arange(n))
    return first, ids


def _distinct_values(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, sorted, -0.0 equal to 0.0.  A plain
    np.unique would import numpy.ma on its first call, 12-20 ms, and
    sort stably where no order of equal values shows."""
    s = np.sort(a, axis=None)
    return np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))


@dataclass
class Units:
    """A population kept per unit: one per distinct receptive field."""

    ids: np.ndarray  # [batch, positions]: the unit each position of each frame holds
    count: int
    windows: Optional[np.ndarray]  # [units, kh * kw]: the ids below each reads; None for input


def pixel_vectors(frames: np.ndarray) -> np.ndarray:
    """frames [batch, c, h, w] as [batch * h * w, c], one row per position."""
    return frames.transpose(0, 2, 3, 1).reshape(-1, frames.shape[1])


def unit_maps(frames: np.ndarray, windows: list[np.ndarray], rows: Optional[int] = None
              ) -> tuple[list[Units], Optional[np.ndarray]]:
    """The units of the input and of the conv populations that read it
    through windows in turn (receptive_fields), and the input units'
    pixel vectors [units, c]; ([], None) when no conv population is kept.

    An input unit is a distinct pixel vector; a conv unit is a distinct
    window of unit ids of the population below, padding read as one more
    id (the count below), its code built one kernel offset at a time.
    Units stop at the first conv population whose units exceed half its
    (frame, position) pairs: there, handling one unit at a time costs
    more than the repeats save.  Given rows, the pairs are counted over
    that many frames instead, for units that stand for more frames than
    are given (normalize's frame table).  Frames with at least 2
    UNIT_SAMPLE pixel vectors are first tested on a strided sample of
    about UNIT_SAMPLE of them, ranked by its own values: if more than half
    of it is distinct, the frames do not repeat enough, and nothing else
    is ranked.  Frames holding NaN, whose payloads differ unseen, are
    not kept per unit either.
    """
    if not windows or len(frames) == 0:
        return [], None
    batch, c = frames.shape[:2]
    pixels = pixel_vectors(frames)
    step = max(1, len(pixels) // UNIT_SAMPLE)
    sample = pixels[::step]
    values = _distinct_values(sample)
    if step > 1:
        first, _ = _distinct_codes(np.searchsorted(values, sample).T, len(sample), len(values))
        if 2 * len(first) > len(sample):
            return [], None
    # Each pixel's rank among the sample's values, or among all values
    # if the sample lacks one of them.
    ranks = np.searchsorted(values, pixels)
    if step > 1 and not np.array_equal(values[np.minimum(ranks, len(values) - 1)], pixels):
        values = _distinct_values(pixels)
        ranks = np.searchsorted(values, pixels)
    if np.isnan(values).any():
        return [], None
    if c == 1:  # the ranks are the units
        ids, vectors = ranks[:, 0], values[:, None]
    else:
        first, ids = _distinct_codes(ranks.T, len(pixels), len(values))
        vectors = pixels[first]
    maps = [Units(ids.reshape(batch, -1), len(vectors), None)]
    for window in windows:
        below = maps[-1]
        padded = np.concatenate([below.ids, np.full((batch, 1), below.count)], axis=1)
        first, ids = _distinct_codes((padded[:, at] for at in window), batch * window.shape[1],
                                     below.count + 1)
        if 2 * len(first) > (batch if rows is None else rows) * window.shape[1]:
            break
        frame, position = np.divmod(first, window.shape[1])
        maps.append(Units(ids.reshape(batch, -1), len(first),
                          padded[frame[:, None], window.T[position]]))
    return (maps, vectors) if len(maps) > 1 else ([], None)


@dataclass
class UnitValues:
    """A conv layer's post-activation values kept per unit: values [units,
    channels], units.ids saying which unit each position of each frame
    holds, and shape, that of the whole array [batch, channels, h, w]."""

    values: np.ndarray
    units: Units
    shape: tuple[int, ...]

    @cached_property
    def expanded(self) -> np.ndarray:
        """The whole array, every position given its unit's values; made
        once, on first use."""
        batch, channels = self.shape[:2]
        act = np.empty((batch, channels, self.units.ids.shape[1]))
        for k, channel in enumerate(self.values.T):
            act[:, k] = channel[self.units.ids]
        return act.reshape(self.shape)


def leading_convs(layers, shape: tuple[int, ...]) -> list[tuple]:
    """The (layer, input shape, output shape) of each leading conv layer
    that unit_forward may keep per unit, layers being a network's layers
    in order and shape its input shape: up to the first layer that is no
    conv, has a 1x1 kernel (see conv2d_batch) or does not fit its input."""
    lead = []
    for layer in layers:
        if layer.kind != "conv2d" or layer.weights.shape[2:] == (1, 1):
            break
        try:
            out = layer_output_shape(layer, shape)
        except ValueError:  # left to the whole pass, which reports it
            break
        lead.append((layer, shape, out))
        shape = out
    return lead


def unit_forward(x: np.ndarray, layers, rows: Optional[int] = None) -> list[UnitValues]:
    """The leading conv layers on x [batch, *input_shape], each distinct
    receptive field computed once (unit_maps), as many as are kept per
    unit: [] when none is, and the caller computes every layer whole.

    layers are a network's layers in order; the run stops where
    leading_convs does, and rows goes to unit_maps.  A unit's [c, kh,
    kw] field, read from the units below (padding from a zero row), goes
    through conv2d_batch alone, with the layer's float64 parameters, and
    then the activation: each layer's expanded array is bit for bit what
    conv2d_batch computes over the whole batch.
    """
    lead = leading_convs(layers, x.shape[1:])
    maps, values = unit_maps(x, [receptive_fields(layer, s) for layer, s, _ in lead], rows)
    kept = []
    for (layer, (c, _, _), out), units in zip(lead, maps[1:]):
        padded = np.concatenate([values, np.zeros((1, c))])
        fields = np.ascontiguousarray(padded[units.windows].transpose(0, 2, 1))
        values = conv2d_batch(fields.reshape(units.count, c, *layer.weights.shape[2:]),
                              layer.weights64, layer.bias64, (1, 1), (0, 0))[:, :, 0, 0]
        if layer.activation == "relu":
            values = np.maximum(values, 0.0)
        kept.append(UnitValues(values, units, (len(x), *out)))
    return kept


def forward_units(net: NetworkSpec, inputs, affine=None) -> list:
    """Forward pass over a batch of inputs [batch, *input_shape]
    (frame_batch), one post-activation result per layer: a UnitValues for
    each leading conv layer kept per unit (unit_forward), then an array
    [batch, *shape] for each later layer, the first reading the last
    UnitValues expanded.  The bits are those of the whole pass.

    affine(layer, x) maps each later layer: apply_layer_linear, one
    batched call, unless given; affine_rows gives every row the bits of
    its one-row pass.  Every layer reads its own float64 parameters,
    made once per layer, not per call.
    """
    inputs = frame_batch(net, inputs).astype(np.float64, copy=False)
    lead: list = unit_forward(inputs, net.layers)
    return lead + forward_layers(net.layers[len(lead):],
                                 lead[-1].expanded if lead else inputs, affine)


def forward_layers(layers, x: np.ndarray, affine=None) -> list[np.ndarray]:
    """Each of layers in turn on x [batch, ...], one post-activation array
    per layer, affine(layer, x) mapping each parameterized one
    (apply_layer_linear unless given)."""
    if affine is None:  # looked up per call, so a wrapper set on the module applies
        affine = apply_layer_linear
    results = []
    for layer in layers:
        if layer.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:
            x = affine(layer, x)
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
        results.append(x)
    return results


def forward_batch(net: NetworkSpec, inputs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Forward pass over a batch of inputs.

    inputs: [batch, *input_shape].  Returns (per-layer post-activation
    arrays, q-values [batch, n_actions]): forward_units with every layer
    kept per unit expanded.
    """
    acts = [r.expanded if isinstance(r, UnitValues) else r for r in forward_units(net, inputs)]
    return acts, acts[-1].reshape(len(acts[-1]), -1)


def greedy_action(qvalues) -> int:
    """Index of the largest q-value; ties break to the lowest index."""
    q = np.asarray(qvalues).ravel()
    if q.size == 0:
        raise ValueError("cannot pick an action from an empty q-value vector")
    return int(np.argmax(q))


def explore(greedy: int, width: int, epsilon: float, rng: np.random.Generator) -> int:
    """The greedy action, replaced by a uniform one of width actions with
    probability epsilon.  rng draws only when epsilon > 0: one random(),
    then integers(width) if it explores."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(width))
    return greedy
