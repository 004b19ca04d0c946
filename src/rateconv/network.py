"""Minimal feedforward inference: dense, 2-D convolution, flatten, ReLU.

Networks are plain data (numpy arrays plus a little metadata), not a
framework.  Parameters are stored in float32; all arithmetic runs in
float64 so results can be checked against naive reference code to tight
tolerances.  Every forward pass captures the post-activation values of
every layer, which the normalization and simulation code feed on.
"""

from __future__ import annotations

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
class ActivationTrace:
    """Post-activation arrays of one forward pass, one entry per layer."""

    activations: list[np.ndarray]
    qvalues: np.ndarray


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


def frame_batch(net: NetworkSpec, frames) -> np.ndarray:
    """frames as a [batch, *input_shape] array in their own dtype; ValueError if misshapen."""
    frames = np.asarray(frames)
    if frames.ndim != len(net.input_shape) + 1 or frames.shape[1:] != net.input_shape:
        raise ValueError(f"frames of shape {frames.shape} do not stack over "
                         f"network input {net.input_shape}")
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
    The simulator's exact stages instead gather their columns from the
    neuron-major spike buffer into one GEMM, which gives these bits
    because every partial sum of 0/1 inputs is exact there (see
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


def forward_batch(net: NetworkSpec, inputs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Forward pass over a batch of inputs.

    inputs: [batch, *input_shape].  Returns (per-layer post-activation
    arrays, q-values [batch, n_actions]).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[1:] != net.input_shape:
        raise ValueError(
            f"input shape {inputs.shape[1:]} does not match network input {net.input_shape}")
    x = inputs
    acts: list[np.ndarray] = []
    for layer in net.layers:
        if layer.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:
            x = apply_layer_linear(layer, x)
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
        acts.append(x)
    return acts, acts[-1].reshape(x.shape[0], -1)


def forward(net: NetworkSpec, inputs) -> ActivationTrace:
    """Single forward pass; pure function of (net, inputs)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape != net.input_shape:
        raise ValueError(
            f"input shape {inputs.shape} does not match network input {net.input_shape}")
    acts, q = forward_batch(net, inputs[None])
    return ActivationTrace(activations=[a[0] for a in acts], qvalues=q[0])


def greedy_action(qvalues) -> int:
    """Index of the largest q-value; ties break to the lowest index."""
    q = np.asarray(qvalues).ravel()
    if q.size == 0:
        raise ValueError("cannot pick an action from an empty q-value vector")
    return int(np.argmax(q))


def epsilon_greedy_action(qvalues, epsilon: float, rng: np.random.Generator) -> int:
    """Greedy action, replaced by a uniform random one with probability epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    q = np.asarray(qvalues).ravel()
    if q.size == 0:
        raise ValueError("cannot pick an action from an empty q-value vector")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.size))
    return int(np.argmax(q))
