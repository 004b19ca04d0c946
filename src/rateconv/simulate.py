"""Time-stepped simulation of rate-coded integrate-and-fire networks.

Every neuron accumulates input current into a membrane potential and
emits a spike whenever the potential reaches the threshold; on a spike
the threshold is subtracted (soft reset) so the overshoot is kept.
There is no leak and no refractory period.  The input layer is itself a
spiking population driven by the frame as a constant current, so the
whole stack obeys one bookkeeping identity per neuron:

    steps * v_thr * rate + potential_at_end = sum of injected current

Firing rates (spike counts over elapsed steps) therefore track the
affine map of the previous layer's rates, short of the leftover
potential divided by time.  That leftover is the conversion error this
module measures; adding it back for the output layer (the "robust"
readout) removes the final layer's discretization entirely.

Within a step, layers cascade synchronously: layer l sees the spikes
layer l-1 produced in the same step.  Potentials are float64 even
though weights are stored float32, which keeps the bookkeeping identity
below 1e-9 over thousands of steps.

Order of work.  Layer l over steps t..t+K-1 depends only on layer l-1's
spikes over those same steps, so run_batch, the one network loop, runs
the stack one population at a time over a block of K steps: one affine
call over K*batch rows gives the block's input currents, then the IF
recurrence (_integrate) steps through them in order.  Spike counts are
the block's spikes summed, current sums are accumulated one step after
another (never a pairwise sum), and the output argmax for the settle
step is taken once per block.  K is the largest number of steps for
which K * batch * (widest population) float64 values fit in
BLOCK_BYTES, so memory stays bounded whatever T is.
simulate_current_sequence drives bare neurons through the same
recurrence.

A layer's currents change only when its input spikes do, so they are
computed only then.  If every step of a block repeats the previous
step's input spikes, the layer keeps the currents it last computed in
this run and makes no affine call; if the steps of a block all equal
its first, that one step is computed for the batch and broadcast; any
other block is computed whole.  With binary frames the input
population fires the same neurons every step, so the first layer's
currents are computed once per run.  Every run starts from rest.

Why the spikes stay bit-identical.  Each neuron sees the same float64
operations in the same order as a step-at-a-time loop: add the
current, compare inclusively with v_thr, subtract v_thr on a spike.
What changes is how a layer's currents are computed: over K*batch rows
at once, and for conv layers by im2col + GEMM instead of per-offset
einsums.  Its inputs are 0/1 spikes, so every current is a sum of a
subset of the float32 weights plus the bias.  Each of those is a whole
multiple of u, the smallest float32 ulp among the layer's nonzero
parameters, and when every neuron's sum(|w|) + |b| stays below 2^53 u
each partial sum is exactly representable in float64: any summation
order yields the same bits.  Layers that pass this test (_Stage.exact)
get the block-wide call; a layer that fails it is computed one step and
row at a time, as a step-at-a-time run of that row alone computes it:
a dense layer as one stacked matmul of single-row products, a conv
layer as one per-offset einsum call per row.  Either way a row of run_batch is bit for bit the
run of its frame alone, whatever else shares the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .network import (LayerSpec, NetworkSpec, apply_layer_linear, frame_stack,
                      layer_output_shape, validate_network)

READOUTS = ("rate", "robust")
BLOCK_BYTES = 1 << 20  # caps K * batch * (widest population) * 8 bytes


@dataclass
class SimConfig:
    timesteps: int = 500
    v_thr: float = 1.0
    readout: str = "robust"

    def __post_init__(self):
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if not self.v_thr > 0.0:
            raise ValueError(f"v_thr must be positive, got {self.v_thr}")
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}, got {self.readout!r}")


@dataclass
class _Stage:
    """One spiking population fed by a parameterized layer."""

    layer_index: int
    layer: LayerSpec
    weights64: np.ndarray
    bias64: np.ndarray
    flatten_input: bool
    shape: tuple[int, ...]

    @cached_property
    def exact(self) -> bool:
        """Whether the layer's affine map of 0/1 inputs is exact in any order.

        Every float32 parameter is a whole multiple of the smallest ulp u
        among the nonzero ones, so every partial sum is too; below 2^53 u
        such sums are exactly representable in float64.  fsum rounds the
        bound correctly, so the comparison errs only towards False.
        """
        w = np.abs(self.weights64.reshape(len(self.bias64), -1))
        b = np.abs(self.bias64)
        nonzero = np.concatenate([w[w > 0], b[b > 0]])
        if nonzero.size == 0:
            return True
        ulp = float(np.spacing(np.float32(nonzero.min())))
        bound = max(math.fsum([*row.tolist(), bias]) for row, bias in zip(w, b.tolist()))
        return bound < 2.0 ** 53 * ulp


def _build_stages(net: NetworkSpec) -> list[_Stage]:
    stages: list[_Stage] = []
    shape = net.input_shape
    pending_flatten = False
    for i, layer in enumerate(net.layers):
        shape = layer_output_shape(layer, shape)
        if layer.kind == "flatten":
            pending_flatten = True
            continue
        stages.append(_Stage(
            layer_index=i,
            layer=layer,
            weights64=layer.weights.astype(np.float64),
            bias64=layer.bias.astype(np.float64),
            flatten_input=pending_flatten,
            shape=shape,
        ))
        pending_flatten = False
    return stages


# ---------------------------------------------------------------------------
# the kernel

def _integrate(potentials: np.ndarray, currents: np.ndarray, v_thr: float,
               fired: np.ndarray, total: np.ndarray,
               trail: Optional[np.ndarray] = None) -> None:
    """The IF recurrence over a block of steps, in place.

    Step k adds currents[k] to the potentials and to total (one step
    after another, never a pairwise sum, so totals round as a step loop
    rounds them), marks fired[k] where the potential reaches v_thr
    (inclusive) and subtracts v_thr there.  Potentials may go
    arbitrarily negative.  trail[k], if given, receives the potential
    after step k.
    """
    for k, z in enumerate(currents):
        np.add(potentials, z, out=potentials)
        np.add(total, z, out=total)
        np.greater_equal(potentials, v_thr, out=fired[k])
        np.subtract(potentials, v_thr, out=potentials, where=fired[k])
        if trail is not None:
            trail[k] = potentials


def _block_currents(stage: _Stage, spikes: np.ndarray) -> np.ndarray:
    """Input currents [K, batch, *shape] of a stage from the previous
    population's spikes [K, batch, ...] (bool)."""
    steps, batch = spikes.shape[:2]
    x = spikes.reshape(steps * batch, *spikes.shape[2:]).astype(np.float64)
    if stage.flatten_input:
        x = x.reshape(steps * batch, -1)
    if stage.exact:
        z = apply_layer_linear(stage.layer, x, stage.weights64, stage.bias64, im2col=True)
    elif stage.layer.kind == "dense":
        # Not exact in every order: every row is its own single-row
        # product, exactly as a step-at-a-time run of that row alone makes
        # it (the rows of one batched GEMM may round differently).
        z = np.matmul(x[:, None, :], stage.weights64.T)[:, 0] + stage.bias64
    else:
        rows = x.reshape(steps * batch, 1, *x.shape[1:])
        z = np.concatenate([apply_layer_linear(stage.layer, r, stage.weights64, stage.bias64)
                            for r in rows])
    return z.reshape(steps, batch, *stage.shape)


def _stage_currents(stage: _Stage, spikes: np.ndarray, previous: np.ndarray,
                    held: Optional[np.ndarray]) -> np.ndarray:
    """Input currents [K, batch, *shape] of a stage from its input
    population's spikes over the block; previous holds those spikes in
    the step before the block, and held the stage's currents in that
    step (None before the first block).

    The same 0/1 input gives the same currents bit for bit, so they are
    computed only where the input changes: a block that repeats the
    previous step reuses the held currents, a block whose steps all
    equal its first computes that one step, and any other block is
    computed whole.
    """
    steps = len(spikes)
    if (spikes[1:] == spikes[0]).all():
        if held is None or not np.array_equal(spikes[0], previous):
            held = _block_currents(stage, spikes[:1])[0]
        return np.broadcast_to(held, (steps, *held.shape))
    return _block_currents(stage, spikes)


@dataclass
class SimResult:
    """Read-only summary of one finished run.

    Per population: firing rates (counts / T), residual potentials
    (end potential / T), and average drive (injected current per step
    over v_thr).  rate_last / f_last flatten the output population.
    settle_step is the last step at which the output argmax changed
    under the configured readout, a latency diagnostic.
    """

    timesteps: int
    v_thr: float
    readout: str
    rates: list[np.ndarray]
    residuals: list[np.ndarray]
    avg_currents: list[np.ndarray]
    rate_last: np.ndarray
    f_last: np.ndarray
    settle_step: np.ndarray


def run_batch(net: NetworkSpec, frames: np.ndarray, config: SimConfig) -> SimResult:
    """Simulate a batch of frames for config.timesteps steps, from rest.

    frames: [batch, *input_shape], finite, each held constant for the
    whole run.  Every run starts from a fresh all-zero state, so a row's
    result depends on its frame and the config alone.
    """
    frames = frame_stack(net, frames)
    check = validate_network(net)
    if not check.ok:
        raise ValueError("cannot simulate invalid network: " + "; ".join(check.violations))
    batch = frames.shape[0]
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")

    # Population 0 is the input layer, driven by the frames; population j
    # >= 1 is fed by stage j-1.  Every population starts at rest.
    stages = _build_stages(net)
    shapes = [net.input_shape] + [s.shape for s in stages]
    potentials = [np.zeros((batch, *s)) for s in shapes]
    counts = [np.zeros((batch, *s), dtype=np.int64) for s in shapes]
    current_sums = [np.zeros((batch, *s)) for s in shapes]
    last_spikes = [np.zeros((batch, *s), dtype=bool) for s in shapes]
    held: list[Optional[np.ndarray]] = [None] * len(stages)

    T = config.timesteps
    v_thr = config.v_thr
    robust = config.readout == "robust"
    block = max(1, BLOCK_BYTES // (8 * batch * max(math.prod(s) for s in shapes)))
    settle = np.ones(batch, dtype=np.int64)
    prev_choice = None
    for t0 in range(0, T, block):
        k = min(block, T - t0)
        counts_before = counts[-1].reshape(batch, -1).copy()
        trail = np.empty((k, *potentials[-1].shape)) if robust else None
        currents = np.broadcast_to(frames, (k, *frames.shape))
        for j in range(len(shapes)):
            if j:
                currents = _stage_currents(stages[j - 1], fired, previous, held[j - 1])
                held[j - 1] = currents[-1]
            fired = np.empty(currents.shape, dtype=bool)
            _integrate(potentials[j], currents, v_thr, fired, current_sums[j],
                       trail if j == len(shapes) - 1 else None)
            # Large batches run one-step blocks, where adding the step's
            # spikes costs half of summing a one-step block.
            counts[j] += fired[0] if k == 1 else fired.sum(axis=0, dtype=np.int64)
            previous, last_spikes[j] = last_spikes[j], fired[-1].copy()
        # The output argmax after each step of the block, as a step loop sees it.
        score = counts_before + np.cumsum(fired.reshape(k, batch, -1), axis=0, dtype=np.int64)
        if robust:
            score = score * v_thr + trail.reshape(k, batch, -1)
        choice = np.argmax(score, axis=2)
        seq = choice if prev_choice is None else np.concatenate([prev_choice[None], choice])
        changed = seq[1:] != seq[:-1]
        if len(changed):
            from_end = np.argmax(changed[::-1], axis=0)
            settle = np.where(changed.any(axis=0), t0 + k - from_end, settle)
        prev_choice = choice[-1]

    rates = [c / T for c in counts]
    residuals = [v / T for v in potentials]
    avg_currents = [z / (T * v_thr) for z in current_sums]
    rate_last = rates[-1].reshape(batch, -1)
    f_last = rate_last + potentials[-1].reshape(batch, -1) / (T * v_thr)
    return SimResult(timesteps=T, v_thr=v_thr, readout=config.readout,
                     rates=rates, residuals=residuals, avg_currents=avg_currents,
                     rate_last=rate_last, f_last=f_last, settle_step=settle)


def run(net: NetworkSpec, frame: np.ndarray, config: SimConfig) -> SimResult:
    """Simulate a single frame; like run_batch but without the batch axis."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != net.input_shape:
        raise ValueError(f"frame shape {frame.shape} does not match network input "
                         f"{net.input_shape}")
    res = run_batch(net, frame[None], config)
    return SimResult(
        timesteps=res.timesteps, v_thr=res.v_thr, readout=res.readout,
        rates=[r[0] for r in res.rates],
        residuals=[r[0] for r in res.residuals],
        avg_currents=[z[0] for z in res.avg_currents],
        rate_last=res.rate_last[0], f_last=res.f_last[0],
        settle_step=res.settle_step[0],
    )


def rate_readout(result: SimResult) -> np.ndarray:
    """Output-layer firing rates; every value lies in [0, 1]."""
    return result.rate_last


def robust_readout(result: SimResult) -> np.ndarray:
    """Output rates plus leftover potential over (T * v_thr).

    Equals the affine map of the previous layer's rates exactly, so it
    is independent of output-layer spike timing and breaks rate ties.
    """
    return result.f_last


def readout(result: SimResult, kind: Optional[str] = None) -> np.ndarray:
    kind = result.readout if kind is None else kind
    if kind not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}, got {kind!r}")
    return result.rate_last if kind == "rate" else result.f_last


def simulate_current_sequence(currents: np.ndarray, v_thr: float = 1.0
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drive bare neurons with an arbitrary current sequence.

    currents: [timesteps, *neurons].  Returns (spike counts, final
    potentials, summed currents), each shaped like one time slice.
    """
    currents = np.asarray(currents, dtype=np.float64)
    if currents.ndim < 1 or currents.shape[0] < 1:
        raise ValueError("need at least one timestep of currents")
    potentials = np.zeros(currents.shape[1:])
    total = np.zeros(currents.shape[1:])
    fired = np.empty(currents.shape, dtype=bool)
    _integrate(potentials, currents, v_thr, fired, total)
    return fired.sum(axis=0, dtype=np.int64), potentials, total


def layer_identity_residual(result: SimResult, net: NetworkSpec,
                            frame: Optional[np.ndarray] = None) -> list[float]:
    """Max deviation, per population, from the rate bookkeeping identity.

    Population l >= 1: rate_l vs (affine_l(rate_{l-1}) - residual_l) / v_thr.
    Population 0: rate_0 vs (input - residual_0) / v_thr, where the input
    is the given frame or, if omitted, the measured average current.
    With float64 accumulation these sit at rounding level (<= 1e-9);
    anything larger means the simulation and the network disagree.
    """
    stages = _build_stages(net)
    if len(stages) + 1 != len(result.rates):
        raise ValueError("result does not belong to this network")
    v_thr = result.v_thr
    batched = result.rates[0].ndim == len(net.input_shape) + 1

    if frame is not None:
        drive0 = np.asarray(frame, dtype=np.float64)
    else:
        drive0 = result.avg_currents[0] * v_thr
    residuals = [float(np.max(np.abs(result.rates[0] - (drive0 - result.residuals[0]) / v_thr)))]

    for j, stage in enumerate(stages, start=1):
        r_prev = result.rates[j - 1]
        if stage.flatten_input:
            r_prev = r_prev.reshape(r_prev.shape[0], -1) if batched else r_prev.reshape(-1)
        if not batched:
            r_prev = r_prev[None]
        z = apply_layer_linear(stage.layer, r_prev, stage.weights64, stage.bias64)
        if not batched:
            z = z[0]
        pred = (z - result.residuals[j]) / v_thr
        residuals.append(float(np.max(np.abs(result.rates[j] - pred))))
    return residuals


CASE_KEYS = ("pos_drive_nonneg_leftover", "pos_drive_neg_leftover",
             "nonpos_drive_neg_leftover", "nonpos_drive_nonneg_leftover",
             "impossible")


def classify_case_counts(avg_current: np.ndarray, residual: np.ndarray) -> dict[str, int]:
    """Bucket neurons by the sign of their average drive and leftover potential.

    A neuron whose total input is non-positive cannot end with a strictly
    positive potential; such neurons are tallied under "impossible" (and
    also under the nonneg-leftover bucket they nominally fall in).
    """
    R = np.asarray(avg_current)
    dV = np.asarray(residual)
    pos = R > 0
    neg_left = dV < 0
    return {
        "pos_drive_nonneg_leftover": int(np.count_nonzero(pos & ~neg_left)),
        "pos_drive_neg_leftover": int(np.count_nonzero(pos & neg_left)),
        "nonpos_drive_neg_leftover": int(np.count_nonzero(~pos & neg_left)),
        "nonpos_drive_nonneg_leftover": int(np.count_nonzero(~pos & ~neg_left)),
        "impossible": int(np.count_nonzero(~pos & (dV > 0))),
    }


def classify_residual_cases(result: SimResult) -> dict[str, int]:
    """Case counts summed over every neuron of every population."""
    totals = dict.fromkeys(CASE_KEYS, 0)
    for R, dV in zip(result.avg_currents, result.residuals):
        counts = classify_case_counts(R, dV)
        for key in CASE_KEYS:
            totals[key] += counts[key]
    return totals


def diagnostics(result: SimResult, net: NetworkSpec,
                frame: Optional[np.ndarray] = None) -> dict:
    """JSON-ready per-run diagnostic summary."""
    return {
        "timesteps": result.timesteps,
        "v_thr": result.v_thr,
        "readout": result.readout,
        "readout_vector": [float(x) for x in np.atleast_2d(readout(result))[0]],
        "mean_rate_per_layer": [float(np.mean(r)) for r in result.rates],
        "identity_residuals": layer_identity_residual(result, net, frame=frame),
        "case_counts": classify_residual_cases(result),
        "settle_step": int(np.max(result.settle_step)),
    }
