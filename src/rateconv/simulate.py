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
All state lives in buffers allocated once per run, each step one flat
row of every population's elements in order, so the populations active
in an iteration (a contiguous run of them, short only while the
pipeline fills and drains) are one slice, and each step is three ufunc
calls on it (_integrate): add the currents, compare with v_thr,
subtract v_thr where a spike fired.  The last block may be short; only
the lowest active population can be in it, and it leaves the slice
after its last step.  K, the steps per block, is min(BLOCK_BYTES // (8
E), ceil(sqrt(10 T)), T), at least 1, where E is the larger of the
state per step (every population's elements) and the columns one stage
gathers per step (fan-in times its elements over its channels): memory
stays bounded whatever T is, and a short run is one block, layer after
layer.

Each distinct receptive field once.  Conv weights are shared across
positions, every run starts from rest, and an exact stage (below)
gives the same bits in any summation order, so in the leading run of
exact conv stages a neuron's whole spike train depends only on its
channel and on what its receptive field holds.  Those populations are
kept as [channels, units], one unit per distinct field: the input's
units are the distinct pixel vectors of one position, and a conv
population's units the distinct windows of unit ids of the population
below, padding one more id that reads a zero row.  network.unit_maps
finds them from integer codes, for the simulator and the analog pass
alike.  A unit stage's currents are W @ columns + b, one GEMM per
block, its columns gathered from the units below by one index per
run.  The units never include the output stage and end before the
first dense or inexact stage, which reads the last unit population
per row through one gather; from there on a population is [width,
batch], one column per row, as is every population of a net whose
first stage is no exact conv.  They also end at the first conv
population with more units than half its (frame, position) pairs:
gathering one unit at a time costs more there than the repeats save.
Frames whose strided sample of pixel vectors is more than half
distinct are not ranked at all.  The results give a unit's values to
every position that holds it.

The analog pass (network.unit_forward) keeps its units for another
reason: its inputs are floats, so no partial sum need be exact, but
network.conv2d_batch sums each output element alone, in an order that
depends on neither its batch row nor its position, so a field
computed once gets the bits it gets in every place that holds it.

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
spike buffer, a dense layer as W @ spikes + b, one GEMM per step over
the whole batch, and a conv layer as W @ columns + b, one GEMM per
block, its columns gathered from the spikes by one index (padding reads
a zero row), where network.py's one conv kernel sums per-offset
einsums.  Its inputs are 0/1 spikes, so every current is a sum of a
subset of the float32 weights plus the bias.  Each of those is a whole
multiple of u, the smallest float32 ulp among the layer's nonzero
parameters, and when every neuron's sum(|w|) + |b| stays below 2^53 u
each partial sum is exactly representable in float64: any summation
order yields the same bits.  So two neurons of one channel whose
receptive fields hold the same pixels get the same currents at the
first step, hence the same spikes, and by induction over steps and
layers the same spike train: a unit stands for every one of them
bit for bit.  Layers that pass this test (_Stage.exact) get the
gathered GEMM; a layer that fails it goes through
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

from .network import (LayerSpec, NetworkSpec, Units, affine_rows, apply_layer_linear,
                      channel_index, frame_stack, layer_output_shape, receptive_fields,
                      require_integer, unit_maps, validate_network)

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
    def window(self) -> np.ndarray:
        """A conv layer's receptive fields (network.receptive_fields)."""
        return receptive_fields(self.layer, self.input_shape)

    @cached_property
    def gather(self) -> Optional[np.ndarray]:
        """A conv layer's columns as input neurons, [in_ch * kh * kw,
        out_h * out_w] (channel_index of its window), or None for a
        dense layer."""
        if self.layer.kind != "conv2d":
            return None
        c, h, w = self.input_shape
        return channel_index(self.window, c, h * w)


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


def _block_length(timesteps: int, elements: int) -> int:
    """K, the steps per block.  BLOCK_BYTES caps K * elements float64
    values, elements being the larger of a run's state per step and a
    stage's gathered columns per step; ceil(sqrt(10 T)) weighs the
    per-block work (T / K blocks) against the pipeline's partly filled
    ends (about K steps per population); a block never exceeds the run."""
    return max(1, min(BLOCK_BYTES // (8 * elements), math.isqrt(10 * timesteps - 1) + 1,
                      timesteps))


def _unit_maps(stages: list[_Stage], frames: np.ndarray
               ) -> tuple[list[Units], Optional[np.ndarray]]:
    """The populations kept per unit, and the input's drive per unit [c, units].

    network.unit_maps over the leading exact conv stages, never the
    output stage: [] (and no drive) unless stage 0's population is kept.
    """
    windows = []
    for stage in stages[:-1]:
        if stage.layer.kind != "conv2d" or not stage.exact:
            break
        windows.append(stage.window)
    units, vectors = unit_maps(frames, windows)
    return units, None if vectors is None else vectors.T


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


def _block_currents(stage: _Stage, spikes: np.ndarray,
                    index: Optional[np.ndarray]) -> np.ndarray:
    """Input currents [K, neurons, columns] of a stage from the previous
    population's spikes [K, width, columns] (bool), both neuron-major.
    A conv stage reads its columns through index, [fan-in, positions]
    over the width, where the width itself is a zero row (padding)."""
    steps, width, cols = spikes.shape
    if stage.exact:
        # Exact in any order: straight on the neuron-major spikes.
        w = stage.weights64.reshape(len(stage.bias64), -1)
        if index is None:
            z = w @ spikes.astype(np.float64)
            z += stage.bias64[:, None]
            return z
        # One GEMM for the block, on columns gathered [fan-in, positions,
        # steps, columns].
        padded = np.zeros((width + 1, steps, cols), dtype=bool)
        padded[:width] = spikes.transpose(1, 0, 2)
        z = w @ padded[index].reshape(len(index), -1).astype(np.float64)
        z += stage.bias64[:, None]
        return z.reshape(len(w), index.shape[1], steps, cols).transpose(2, 0, 1, 3).reshape(
            steps, -1, cols)
    # Not exact in every order: every row of every step as a
    # step-at-a-time run of that row alone computes it.
    x = np.ascontiguousarray(spikes.transpose(0, 2, 1), dtype=np.float64)
    z = affine_rows(stage.layer, x.reshape(steps * cols, *stage.input_shape),
                    stage.weights64, stage.bias64)
    return z.reshape(steps, cols, -1).transpose(0, 2, 1)


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
    # >= 1 is fed by stage j-1.  The first len(units) populations are kept
    # per unit, as [channels * units, 1], the rest per row, as [width,
    # batch]; population j is [neurons[j], cols[j]] and holds the flat
    # elements edges[j]:edges[j+1] of every buffer.  Every population
    # starts at rest.
    units, drive = _unit_maps(stages, frames)
    shapes = [frames.shape[1:]] + [s.shape for s in stages]
    neurons = [shape[0] * units[j].count if j < len(units) else math.prod(shape)
               for j, shape in enumerate(shapes)]
    cols = [1 if j < len(units) else batch for j in range(len(shapes))]
    edges = [0]
    for n, m in zip(neurons, cols):
        edges.append(edges[-1] + n * m)
    last_pop = len(shapes) - 1
    index = [None] + [channel_index(units[j].windows.T, shapes[j - 1][0], units[j - 1].count)
                      if j < len(units) else stage.gather
                      for j, stage in enumerate(stages, start=1)]
    if units:
        # The first population kept per row reads the last one kept per
        # unit through one gather, [channels * positions, batch].
        last = units[-1]
        row_gather = (np.arange(shapes[len(units) - 1][0])[:, None, None] * last.count
                      + last.ids.T).reshape(-1, batch)
        drive = drive.reshape(-1)
    else:
        drive = frames.reshape(batch, -1).T.reshape(-1)

    def view(buffer, j, steps):
        """Population j's part of steps of a [K, edges[-1]] buffer, [steps, neurons, cols]."""
        return buffer[:steps, edges[j]:edges[j + 1]].reshape(steps, neurons[j], cols[j])

    def stage_currents(j, spikes, steps):
        """Population j's currents over steps, from population j-1's spikes."""
        x = spikes[:steps, edges[j - 1]:edges[j]]
        x = np.take(x, row_gather, axis=1) if j == len(units) else \
            x.reshape(steps, neurons[j - 1], cols[j - 1])
        return _block_currents(stages[j - 1], x, index[j])

    T = config.timesteps
    v_thr = config.v_thr
    gathered = max(stage.weights64[0].size * n * m // len(stage.bias64)
                   for stage, n, m in zip(stages, neurons[1:], cols[1:]))
    K = _block_length(T, max(edges[-1], gathered))
    n_blocks = -(-T // K)
    short = T - (n_blocks - 1) * K  # steps of the last block
    potentials = np.zeros(edges[-1])
    counts = np.zeros(edges[-1], dtype=np.int64)
    currents = np.empty((K, edges[-1]))
    spikes = (np.empty((K, edges[-1]), dtype=bool), np.empty((K, edges[-1]), dtype=bool))
    sums = np.zeros(edges[-1]) if diagnose else None
    trail = np.empty((K, edges[-1] - edges[-2])) \
        if diagnose and config.readout == "robust" else None

    fired0 = drive >= v_thr
    # A steady input (every pixel <= 0 or >= v_thr) fires the same pixels
    # at every step, so the first stage's currents are computed once.
    steady = bool(np.all(fired0 | (drive <= 0.0)))
    if steady:
        view(currents, 1, K)[:] = stage_currents(1, fired0[None], 1)
    if steady and np.all((drive == 0.0) | (drive == v_thr)):
        # Each step takes the potential from 0 to 0 or v_thr, and a spike
        # back to exactly 0: the input population leaves the loop.
        counts[:edges[1]] = T * fired0
        if diagnose:
            total = 0.0
            for _ in range(T):  # summed as a step loop sums it
                total += v_thr
            sums[:edges[1]] = np.where(fired0, total, 0.0)
        first = 1
    else:
        currents[:, :edges[1]] = drive
        first = 0

    out = slice(edges[-2], edges[-1])
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
            view(currents, j, steps)[:] = stage_currents(j, fed, steps)

        # The lowest population may be in the last, short block: it leaves
        # the slice after its last step.
        end = edges[hi + 1]
        parts = [(0, K, edges[lo])]
        if i - (lo - first) == n_blocks - 1 and short < K:
            parts = [(0, short, edges[lo]), (short, K, edges[lo + 1])]
        watch = diagnose and hi == last_pop
        if watch:
            out_before = counts[out].copy()
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
            score = out_before + np.cumsum(fired[:steps, out], axis=0, dtype=np.int64)
            if trail is not None:
                score = score * v_thr + trail[:steps]
            choice = np.argmax(score.reshape(steps, -1, batch), axis=1)
            seq = choice if prev_choice is None else np.concatenate([prev_choice[None], choice])
            changed = seq[1:] != seq[:-1]
            if len(changed):
                from_end = np.argmax(changed[::-1], axis=0)
                settle = np.where(changed.any(axis=0), b * K + steps - from_end, settle)
            prev_choice = choice[-1]

    def per_population(state):
        """[batch, *shape] per population, a unit's values given to every
        position of every frame that holds it."""
        by_row = []
        for j, shape in enumerate(shapes):
            part = state[edges[j]:edges[j + 1]]
            if j < len(units):
                part = part.reshape(shape[0], -1)[:, units[j].ids].transpose(1, 0, 2)
            else:
                part = part.reshape(-1, batch).T
            by_row.append(part.reshape(batch, *shape))
        return by_row

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


def robust_readout(result: SimResult) -> np.ndarray:
    """Output rates plus leftover potential over (T * v_thr).

    Equals the affine map of the previous layer's rates exactly, so it
    is independent of output-layer spike timing and breaks rate ties.
    """
    return result.f_last


def readout(result: SimResult) -> np.ndarray:
    """The output values under the run's configured readout."""
    return result.rate_last if result.readout == "rate" else result.f_last


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
