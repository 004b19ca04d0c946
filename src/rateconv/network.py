"""Minimal feedforward inference: dense, 2-D convolution, flatten, ReLU.

Networks are plain data (numpy arrays plus a little metadata), not a
framework.  Parameters are stored in float32; all arithmetic runs in
float64 so results can be checked against naive reference code to tight
tolerances.  Every forward pass captures the post-activation values of
every layer, which the normalization and simulation code feed on.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

LAYER_KINDS = ("dense", "conv2d", "flatten")
ACTIVATIONS = ("relu", "none")


@dataclass
class LayerSpec:
    """One layer: kind, parameters, and geometry.

    Weight layout: dense [out, in], conv2d [out_ch, in_ch, kh, kw].
    Bias is [out] / [out_ch].  Flatten carries no parameters.
    """

    kind: str
    weights: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    activation: str = "relu"

    def __post_init__(self):
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float32)
        if self.bias is not None:
            self.bias = np.ascontiguousarray(self.bias, dtype=np.float32)
        self.stride = (int(self.stride[0]), int(self.stride[1]))
        self.padding = (int(self.padding[0]), int(self.padding[1]))

    @property
    def parameterized(self) -> bool:
        return self.kind in ("dense", "conv2d")


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
    The simulator's exact stages instead gather their columns from the
    spike buffer into one GEMM per block, over every row or over one
    unit per distinct receptive field, which gives these bits because
    every partial sum of 0/1 inputs is exact there (see
    rateconv.simulate).
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


def apply_layer_linear(layer: LayerSpec, x: np.ndarray,
                       weights64: Optional[np.ndarray] = None,
                       bias64: Optional[np.ndarray] = None) -> np.ndarray:
    """The affine part of a layer on a batched input (no activation)."""
    w = layer.weights.astype(np.float64) if weights64 is None else weights64
    b = layer.bias.astype(np.float64) if bias64 is None else bias64
    if layer.kind == "dense":
        return x @ w.T + b
    if layer.kind == "conv2d":
        return conv2d_batch(x, w, b, layer.stride, layer.padding)
    raise ValueError(f"layer kind {layer.kind!r} has no parameters")


def affine_rows(layer: LayerSpec, x: np.ndarray, weights64: np.ndarray,
                bias64: np.ndarray) -> np.ndarray:
    """The affine part of a layer on a batch, each row bit for bit what a
    one-row apply_layer_linear call gives it, whatever else is in the batch.

    A dense layer is one stacked matmul of single-row products, each made
    as a one-row call makes it (the rows of one batched GEMM may round
    differently); a conv layer is conv2d_batch, whose per-offset einsum
    sums every row alone.
    """
    if layer.kind == "dense":
        return np.matmul(x[:, None, :], weights64.T)[:, 0] + bias64
    return conv2d_batch(x, weights64, bias64, layer.stride, layer.padding)


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
    oh, ow = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
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
    """distinct_rows of n rows of integers in [0, radix), given as their
    digit columns one after another, each any array of n integers."""
    codes, span = np.zeros(n, dtype=np.int64), 1
    for digit in digits:
        if span * radix > 2 ** 63:
            codes = np.unique(codes, return_inverse=True)[1].reshape(-1)
            span = int(codes.max()) + 1
        codes *= radix
        codes += digit.reshape(-1)
        span *= radix
    _, first, ids = np.unique(codes, return_index=True, return_inverse=True)
    return first, ids.reshape(-1)


def _distinct_values(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, sorted, -0.0 equal to 0.0.  A plain
    np.unique would import numpy.ma on its first call, 12-20 ms."""
    s = np.sort(a, axis=None)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def distinct_rows(rows: np.ndarray, radix: Optional[int] = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of rows, [n, d]: (first, ids), where first[u] is
    the first row equal to the u-th distinct row and ids[i] is the
    distinct row that row i equals.

    rows hold integers in [0, radix), or, with radix None, any numbers,
    which are first replaced by their rank among the distinct values
    (so -0.0 equals 0.0).  Each row is read as one mixed-radix integer,
    digit after digit; when the next digit would overflow int64 the codes
    so far are ranked (np.unique), which keeps them below n.
    """
    if radix is None:
        values = _distinct_values(rows)
        rows, radix = np.searchsorted(values, rows), len(values)
    return _distinct_codes(rows.T, len(rows), radix)


@dataclass
class Units:
    """A population kept per unit: one per distinct receptive field."""

    ids: np.ndarray  # [batch, positions]: the unit each position of each frame holds
    count: int
    windows: Optional[np.ndarray]  # [units, kh * kw]: the ids below each reads; None for input


def pixel_vectors(frames: np.ndarray) -> np.ndarray:
    """frames [batch, c, h, w] as [batch * h * w, c], one row per position."""
    return frames.transpose(0, 2, 3, 1).reshape(-1, frames.shape[1])


def unit_maps(frames: np.ndarray, windows: list[np.ndarray]
              ) -> tuple[list[Units], Optional[np.ndarray]]:
    """The units of the input and of the conv populations that read it
    through windows in turn (receptive_fields), and the input units'
    pixel vectors [units, c]; ([], None) when no conv population is kept.

    An input unit is a distinct pixel vector; a conv unit is a distinct
    window of unit ids of the population below, padding read as one more
    id (the count below), its code built one kernel offset at a time.
    Units stop at the first conv population whose units exceed half its
    (frame, position) pairs: there, handling one unit at a time costs
    more than the repeats save.  Frames with at least 2 UNIT_SAMPLE
    pixel vectors are first tested on a strided sample of about
    UNIT_SAMPLE of them: if more than half of it is distinct, the frames
    do not repeat enough, and nothing is ranked.  Frames holding NaN,
    whose payloads differ unseen, are not kept per unit either.
    """
    if not windows or len(frames) == 0:
        return [], None
    batch, c = frames.shape[:2]
    pixels = pixel_vectors(frames)
    step = max(1, len(pixels) // UNIT_SAMPLE)
    sample = pixels[::step]
    if step > 1 and 2 * len(distinct_rows(sample)[0]) > len(sample):
        return [], None
    # Each pixel's rank among the sample's values, or among all values
    # if the sample lacks one of them.
    values = _distinct_values(sample)
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
        if 2 * len(first) > len(ids):
            break
        frame, position = np.divmod(first, window.shape[1])
        maps.append(Units(ids.reshape(batch, -1), len(first),
                          padded[frame[:, None], window.T[position]]))
    return (maps, vectors) if len(maps) > 1 else ([], None)


def unit_forward(x: np.ndarray, convs) -> list[np.ndarray]:
    """The post-activation arrays [batch, *shape] of the leading conv
    layers on x [batch, *input_shape], each distinct receptive field
    computed once (unit_maps), as many as are kept per unit: [] when
    none is, and the caller computes every layer whole.

    convs holds a network's leading (layer, weights64, bias64) in order;
    the run stops at the first layer that is no conv or has a 1x1 kernel
    (see conv2d_batch).  A unit's [c, kh, kw] field, read from the units
    below (padding from a zero row), goes through conv2d_batch alone and
    then the activation, and every position gets its unit's values: bit
    for bit what conv2d_batch computes over the whole batch.
    """
    lead, shape = [], x.shape[1:]
    for layer, weights64, bias64 in convs:
        if layer.kind != "conv2d" or layer.weights.shape[2:] == (1, 1):
            break
        try:
            out = layer_output_shape(layer, shape)
        except ValueError:  # left to the whole pass, which reports it
            break
        lead.append((layer, weights64, bias64, shape, out))
        shape = out
    maps, values = unit_maps(x, [receptive_fields(layer, s) for layer, _, _, s, _ in lead])
    acts = []
    for (layer, weights64, bias64, (c, _, _), out), units in zip(lead, maps[1:]):
        padded = np.concatenate([values, np.zeros((1, c))])
        fields = np.ascontiguousarray(padded[units.windows].transpose(0, 2, 1))
        values = conv2d_batch(fields.reshape(units.count, c, *layer.weights.shape[2:]),
                              weights64, bias64, (1, 1), (0, 0))[:, :, 0, 0]
        if layer.activation == "relu":
            values = np.maximum(values, 0.0)
        act = np.empty((len(x), out[0], units.ids.shape[1]))
        for k, channel in enumerate(values.T):
            act[:, k] = channel[units.ids]
        acts.append(act.reshape(len(x), *out))
    return acts


def forward_batch(net: NetworkSpec, inputs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Forward pass over a batch of inputs.

    inputs: [batch, *input_shape].  Returns (per-layer post-activation
    arrays, q-values [batch, n_actions]).  The leading conv layers are
    computed once per distinct receptive field (unit_forward), with the
    bits of the whole pass; from the first dense layer on, each layer is
    one batched call.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[1:] != net.input_shape:
        raise ValueError(
            f"input shape {inputs.shape[1:]} does not match network input {net.input_shape}")
    convs = ((layer, layer.weights.astype(np.float64), layer.bias.astype(np.float64))
             for layer in itertools.takewhile(lambda l: l.kind == "conv2d", net.layers))
    acts: list[np.ndarray] = unit_forward(inputs, convs)
    x = acts[-1] if acts else inputs
    for layer in net.layers[len(acts):]:
        if layer.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:
            x = apply_layer_linear(layer, x)
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
        acts.append(x)
    return acts, acts[-1].reshape(x.shape[0], -1)


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
