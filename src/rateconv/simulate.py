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
every population in one recurrence, pipelined one block apart:
population j runs block b at iteration b + j, on the currents of the
spikes population j-1 produced for block b in the iteration before.
All state lives in buffers allocated once per run and laid out
neuron-major, [sum of widths, batch], populations in order, so the
populations active in an iteration (a contiguous run of them, short
only while the pipeline fills and drains) are one slice, and each step
is three ufunc calls on it (_integrate): add the currents, compare with
v_thr, subtract v_thr where a spike fired.  The last block may be
short; only the lowest active population can be in it, and it leaves
the slice after its last step.  K, the steps per block, is
min(BLOCK_BYTES // (8 * batch * sum of widths), ceil(sqrt(10 T)), T),
at least 1: memory stays bounded whatever T is, and a short run is one
block, layer after layer.  simulate_current_sequence drives bare
neurons through the same recurrence.

One rule for a stage's currents: every stage computes each block's
currents whole, but the first stage under a steady input.  The input
is steady when every pixel is <= 0 or >= v_thr.  Rounding is monotone,
so once V >= 0, V + p >= v_thr stays true for a pixel p >= v_thr (and
the spike leaves V >= 0), while a pixel <= 0 never reaches v_thr: the
input fires the same pixels at every step, and the first stage's
currents are computed once per run, for one step of the batch.  When
every pixel is exactly 0 or v_thr, the input's potential also stays 0,
so the input population leaves the loop: its counts are T times its
spikes.  Every run starts from rest.

Diagnostics only on request.  Current sums (added one step after
another, never pairwise), the output potentials after each step and
the settle step (from the output argmax after each step, taken once
per block) cost time in the hot loop; run_batch(..., diagnose=False)
skips them and leaves avg_currents and settle_step None.

Why the spikes stay bit-identical.  Each neuron sees the same float64
operations in the same order as a step-at-a-time loop: add the
current, compare inclusively with v_thr, subtract v_thr on a spike.
What changes is how a layer's currents are computed: straight from the
neuron-major spike buffer, one GEMM per step over the whole batch, a
dense layer as W @ spikes + b and a conv layer as W @ columns + b, its
columns gathered from the spikes by one index per stage (padding reads
a zero row), where network.py's one conv kernel sums per-offset
einsums.  Its inputs are 0/1 spikes, so every current is a sum of a
subset of the float32 weights plus the bias.  Each of those is a whole
multiple of u, the smallest float32 ulp among the layer's nonzero
parameters, and when every neuron's sum(|w|) + |b| stays below 2^53 u
each partial sum is exactly representable in float64: any summation
order yields the same bits.  Layers that pass this test (_Stage.exact)
get the gathered GEMM; a layer that fails it goes through
network.affine_rows, which computes every row of every step as a
step-at-a-time run of that row alone computes it: a dense layer as one
stacked matmul of single-row products, a conv layer as the per-offset
einsum, which sums each row alone.  Either way a row of
run_batch is bit for bit the run of its frame alone, whatever else
shares the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .network import (LayerSpec, NetworkSpec, affine_rows, apply_layer_linear, frame_stack,
                      layer_output_shape, require_integer, validate_network)

READOUTS = ("rate", "robust")
BLOCK_BYTES = 1 << 20  # caps K * batch * (all populations' neurons) * 8 bytes


@dataclass
class SimConfig:
    timesteps: int = 500
    v_thr: float = 1.0
    readout: str = "robust"

    def __post_init__(self):
        require_integer("timesteps", self.timesteps)
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if not 0.0 < self.v_thr < math.inf:
            raise ValueError(f"v_thr must be positive and finite, got {self.v_thr}")
        # the readout divides by T * v_thr: a subnormal one overflows it
        if self.timesteps * self.v_thr < np.finfo(np.float64).tiny:
            raise ValueError(f"timesteps * v_thr must be a normal float, got "
                             f"{self.timesteps} * {self.v_thr}")
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}, got {self.readout!r}")


@dataclass
class _Stage:
    """A parameterized layer with float64 copies of its parameters: in a
    run, the spiking population it feeds."""

    layer: LayerSpec
    weights64: np.ndarray
    bias64: np.ndarray
    input_shape: tuple[int, ...]  # the layer's input, flattened if a flatten precedes it
    shape: tuple[int, ...]

    @cached_property
    def exact(self) -> bool:
        """Whether the layer's affine map of 0/1 inputs is exact in any order.

        Every float32 parameter is a whole multiple of the smallest ulp u
        among the nonzero ones, so every partial sum is too; below 2^53 u
        such sums are exactly representable in float64.  u is a power of
        two, so each |w| / u and |b| / u is an exact integer in float64,
        and a float64 sum of non-negative integers (in any order) stays
        below 2^53 exactly when the true sum does.
        """
        w = np.abs(self.weights64.reshape(len(self.bias64), -1))
        b = np.abs(self.bias64)
        smallest = min(np.min(w, initial=np.inf, where=w > 0),
                       np.min(b, initial=np.inf, where=b > 0))
        if smallest == np.inf:
            return True
        ulp = float(np.spacing(np.float32(smallest)))
        return bool(np.all((w / ulp).sum(axis=1) + b / ulp < 2.0 ** 53))

    @cached_property
    def gather(self) -> Optional[np.ndarray]:
        """A conv layer's columns as input neurons, [in_ch * kh * kw,
        out_h * out_w]: the neuron each kernel offset of each output
        position reads, or the input width (a zero row past the last
        neuron) where it reads padding.  None for a dense layer."""
        if self.layer.kind != "conv2d":
            return None
        c, h, w = self.input_shape
        _, oh, ow = self.shape
        _, _, kh, kw = self.weights64.shape
        (sh, sw), (ph, pw) = self.layer.stride, self.layer.padding
        y = (np.arange(kh)[:, None] + sh * np.arange(oh) - ph)[:, None, :, None]
        x = (np.arange(kw)[:, None] + sw * np.arange(ow) - pw)[None, :, None, :]
        inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)  # [kh, kw, oh, ow]
        at = np.arange(c)[:, None, None, None, None] * (h * w) + y * w + x
        return np.where(inside, at, c * h * w).reshape(c * kh * kw, oh * ow)


def _build_stages(net: NetworkSpec) -> list[_Stage]:
    stages: list[_Stage] = []
    shape = net.input_shape
    for layer in net.layers:
        if layer.kind == "flatten":
            shape = layer_output_shape(layer, shape)
            continue
        out = layer_output_shape(layer, shape)
        stages.append(_Stage(
            layer=layer,
            weights64=layer.weights.astype(np.float64),
            bias64=layer.bias.astype(np.float64),
            input_shape=shape,
            shape=out,
        ))
        shape = out
    return stages


def _checked_stages(net: NetworkSpec) -> list[_Stage]:
    """The stages of a valid network; ValueError naming its violations otherwise."""
    check = validate_network(net)
    if not check.ok:
        raise ValueError("cannot simulate invalid network: " + "; ".join(check.violations))
    return _build_stages(net)


def _block_length(timesteps: int, batch: int, neurons: int) -> int:
    """K, the steps per block.  BLOCK_BYTES caps K * batch * neurons
    float64 values; ceil(sqrt(10 T)) weighs the per-block work (T / K
    blocks) against the pipeline's partly filled ends (about K steps per
    population); a block never exceeds the run."""
    return max(1, min(BLOCK_BYTES // (8 * batch * neurons), math.isqrt(10 * timesteps - 1) + 1,
                      timesteps))


# ---------------------------------------------------------------------------
# the kernel

def _integrate(potentials: np.ndarray, currents: np.ndarray, v_thr: float,
               fired: np.ndarray, total: Optional[np.ndarray] = None,
               trail: Optional[np.ndarray] = None) -> None:
    """The IF recurrence over a block of steps, in place.

    Step k adds currents[k] to the potentials, marks fired[k] where the
    potential reaches v_thr (inclusive) and subtracts v_thr there.
    Potentials may go arbitrarily negative.  total, if given, gets each
    step's currents added one step after another (never a pairwise sum,
    so totals round as a step loop rounds them).  trail[k], if given,
    receives the potentials of the last len(trail[k]) neurons after
    step k.
    """
    tail = potentials[len(potentials) - trail.shape[1]:] if trail is not None else None
    for k, (z, f) in enumerate(zip(currents, fired)):
        np.add(potentials, z, out=potentials)
        if total is not None:
            np.add(total, z, out=total)
        np.greater_equal(potentials, v_thr, out=f)
        np.subtract(potentials, v_thr, out=potentials, where=f)
        if tail is not None:
            trail[k] = tail


def _block_currents(stage: _Stage, spikes: np.ndarray) -> np.ndarray:
    """Input currents [K, width, batch] of a stage from the previous
    population's spikes [K, width, batch] (bool), both neuron-major."""
    steps, _, batch = spikes.shape
    if stage.exact:
        # Exact in any order: one GEMM per step straight on the
        # neuron-major spikes, from which a conv layer gathers its columns.
        if stage.gather is not None:
            spikes = np.concatenate([spikes, np.zeros((steps, 1, batch), dtype=bool)], axis=1)
            spikes = spikes[:, stage.gather].reshape(steps, len(stage.gather), -1)
        z = stage.weights64.reshape(len(stage.bias64), -1) @ spikes.astype(np.float64)
        z += stage.bias64[:, None]
        return z.reshape(steps, -1, batch)
    # Not exact in every order: every row of every step as a
    # step-at-a-time run of that row alone computes it.
    x = np.ascontiguousarray(spikes.transpose(0, 2, 1), dtype=np.float64)
    z = affine_rows(stage.layer, x.reshape(steps * batch, *stage.input_shape),
                    stage.weights64, stage.bias64)
    return z.reshape(steps, batch, -1).transpose(0, 2, 1)


@dataclass
class SimResult:
    """Read-only summary of one finished run.

    Per population: firing rates (counts / T), residual potentials
    (end potential / T), and average drive (injected current per step
    over v_thr).  rate_last / f_last flatten the output population.
    settle_step is the last step at which the output argmax changed
    under the configured readout, a latency diagnostic.  avg_currents
    and settle_step are None when the run was made without diagnostics.
    """

    timesteps: int
    v_thr: float
    readout: str
    rates: list[np.ndarray]
    residuals: list[np.ndarray]
    avg_currents: Optional[list[np.ndarray]]
    rate_last: np.ndarray
    f_last: np.ndarray
    settle_step: Optional[np.ndarray]


def run_batch(net: NetworkSpec, frames: np.ndarray, config: SimConfig, *,
              diagnose: bool = True) -> SimResult:
    """Simulate a batch of frames for config.timesteps steps, from rest.

    frames: [batch, *input_shape], finite, each held constant for the
    whole run.  Every run starts from a fresh all-zero state, so a row's
    result depends on its frame and the config alone.  ValueError if the
    robust readout f_last is not finite, whatever the configured readout
    (a v_thr too small for the output potentials).  With diagnose
    False, current sums and settle tracking are skipped: avg_currents
    and settle_step are None, everything else is the same to the bit.
    """
    frames = frame_stack(net, frames)
    return _run_stages(_checked_stages(net), frames, config, diagnose)


def _run_stages(stages: list[_Stage], frames: np.ndarray, config: SimConfig,
                diagnose: bool) -> SimResult:
    """run_batch on the stages of a checked network and a frame_stack of
    its frames, for a caller that simulates one network many times."""
    batch = frames.shape[0]
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")

    # Population 0 is the input layer, driven by the frames; population j
    # >= 1 is fed by stage j-1 and holds rows edges[j]:edges[j+1] of every
    # buffer.  Every population starts at rest.
    shapes = [frames.shape[1:]] + [s.shape for s in stages]
    edges = [0]
    for shape in shapes:
        edges.append(edges[-1] + math.prod(shape))
    rows = [slice(a, b) for a, b in zip(edges, edges[1:])]
    last_pop = len(shapes) - 1

    T = config.timesteps
    v_thr = config.v_thr
    K = _block_length(T, batch, edges[-1])
    n_blocks = -(-T // K)
    short = T - (n_blocks - 1) * K  # steps of the last block
    potentials = np.zeros((edges[-1], batch))
    counts = np.zeros((edges[-1], batch), dtype=np.int64)
    currents = np.empty((K, edges[-1], batch))
    spikes = (np.empty((K, edges[-1], batch), dtype=bool),
              np.empty((K, edges[-1], batch), dtype=bool))
    sums = np.zeros((edges[-1], batch)) if diagnose else None
    trail = np.empty((K, edges[-1] - edges[-2], batch)) \
        if diagnose and config.readout == "robust" else None

    drive = frames.reshape(batch, -1).T
    fired0 = drive >= v_thr
    # A steady input (every pixel <= 0 or >= v_thr) fires the same pixels
    # at every step, so the first stage's currents are computed once.
    steady = bool(np.all(fired0 | (drive <= 0.0)))
    if steady:
        currents[:, rows[1]] = _block_currents(stages[0], fired0[None])
    if steady and np.all((drive == 0.0) | (drive == v_thr)):
        # Each step takes the potential from 0 to 0 or v_thr, and a spike
        # back to exactly 0: the input population leaves the loop.
        counts[rows[0]] = T * fired0
        if diagnose:
            total = 0.0
            for _ in range(T):  # summed as a step loop sums it
                total += v_thr
            sums[rows[0]] = np.where(fired0, total, 0.0)
        first = 1
    else:
        currents[:, rows[0]] = drive
        first = 0

    settle = np.ones(batch, dtype=np.int64) if diagnose else None
    prev_choice = None
    for i in range(n_blocks + last_pop - first):
        # Population j runs block i - (j - first); the active ones are lo..hi.
        lo = first + max(0, i - n_blocks + 1)
        hi = min(last_pop, first + i)
        fired, fed = spikes[i % 2], spikes[(i + 1) % 2]
        for j in range(max(lo, 2 if steady else 1), hi + 1):
            b = i - (j - first)
            steps = short if b == n_blocks - 1 else K
            currents[:steps, rows[j]] = _block_currents(stages[j - 1], fed[:steps, rows[j - 1]])

        # The lowest population may be in the last, short block: it leaves
        # the slice after its last step.
        end = edges[hi + 1]
        parts = [(0, K, edges[lo])]
        if i - (lo - first) == n_blocks - 1 and short < K:
            parts = [(0, short, edges[lo]), (short, K, edges[lo + 1])]
        watch = diagnose and hi == last_pop
        if watch:
            out_before = counts[rows[-1]].copy()
        for s0, s1, r0 in parts:
            if r0 < end:
                span = slice(r0, end)
                _integrate(potentials[span], currents[s0:s1, span], v_thr, fired[s0:s1, span],
                           sums[span] if diagnose else None,
                           trail[s0:s1] if watch and trail is not None else None)
                # Large batches run one-step blocks, where adding the step's
                # spikes costs half of summing a one-step block.
                np.add(counts[span], fired[s0, span] if s1 - s0 == 1 else
                       fired[s0:s1, span].sum(axis=0, dtype=np.int64), out=counts[span])

        if watch:
            # The output argmax after each step of its block, as a step loop sees it.
            b = i - (last_pop - first)
            steps = short if b == n_blocks - 1 else K
            score = out_before + np.cumsum(fired[:steps, rows[-1]], axis=0, dtype=np.int64)
            if trail is not None:
                score = score * v_thr + trail[:steps]
            choice = np.argmax(score, axis=1)
            seq = choice if prev_choice is None else np.concatenate([prev_choice[None], choice])
            changed = seq[1:] != seq[:-1]
            if len(changed):
                from_end = np.argmax(changed[::-1], axis=0)
                settle = np.where(changed.any(axis=0), b * K + steps - from_end, settle)
            prev_choice = choice[-1]

    def per_population(state):
        """[batch, *shape] per population, from neuron-major state."""
        by_row = np.ascontiguousarray(state.T)
        return [by_row[:, r].reshape(batch, *shape) for r, shape in zip(rows, shapes)]

    rates = [c / T for c in per_population(counts)]
    ends = per_population(potentials)
    rate_last = rates[-1].reshape(batch, -1)
    with np.errstate(over="ignore"):
        f_last = rate_last + ends[-1].reshape(batch, -1) / (T * v_thr)
    if not np.all(np.isfinite(f_last)):
        # a v_thr far below the output potentials: V / (T * v_thr) overflows
        raise ValueError(f"the output potentials over timesteps * v_thr = {T} * {v_thr} "
                         f"overflow the readout")
    residuals = [v / T for v in ends]
    avg_currents = [z / (T * v_thr) for z in per_population(sums)] if diagnose else None
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


def readout(result: SimResult) -> np.ndarray:
    """The output values under the run's configured readout."""
    return result.rate_last if result.readout == "rate" else result.f_last


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


def _require_diagnostics(result: SimResult) -> None:
    if result.avg_currents is None or result.settle_step is None:
        raise ValueError("result was simulated without diagnostics "
                         "(run_batch(..., diagnose=False))")


def layer_identity_residual(result: SimResult, net: NetworkSpec,
                            frame: Optional[np.ndarray] = None) -> list[float]:
    """Max deviation, per population, from the rate bookkeeping identity.

    Population l >= 1: rate_l vs (affine_l(rate_{l-1}) - residual_l) / v_thr.
    Population 0: rate_0 vs (input - residual_0) / v_thr, where the input
    is the given frame or, if omitted, the measured average current
    (which a run without diagnostics lacks: ValueError).
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
        _require_diagnostics(result)
        drive0 = result.avg_currents[0] * v_thr
    residuals = [float(np.max(np.abs(result.rates[0] - (drive0 - result.residuals[0]) / v_thr)))]

    for j, stage in enumerate(stages, start=1):
        r_prev = result.rates[j - 1]
        r_prev = r_prev.reshape(len(r_prev) if batched else 1, *stage.input_shape)
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
    _require_diagnostics(result)
    totals = dict.fromkeys(CASE_KEYS, 0)
    for R, dV in zip(result.avg_currents, result.residuals):
        counts = classify_case_counts(R, dV)
        for key in CASE_KEYS:
            totals[key] += counts[key]
    return totals


def diagnostics(result: SimResult, net: NetworkSpec,
                frame: Optional[np.ndarray] = None) -> dict:
    """JSON-ready per-run diagnostic summary."""
    _require_diagnostics(result)
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
