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
A run is three parts (_run_stages): a _Plan of the batch, made once,
which holds its layout (the units, each population's place in the
buffers, the gather indices, the input's drive, K and the block
count) and computes a population's currents for a block; the
pipelined loop over the blocks; and the result, read from the end
state per population.
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
per signature (below) through one gather; from there on a population
is [width, signatures], one column per signature.  Every population
of a net whose first stage is no exact conv is [width, batch], one
column per row.  The units also end at the first conv population with
more units than half its (frame, position) pairs: gathering one unit
at a time costs more there than the repeats save.  Frames whose
strided sample of pixel vectors is more than half distinct are not
ranked at all.  The results give a unit's values to every position
that holds it.

Each distinct signature once.  A row's signature is its row of unit
ids in the last population kept per unit: a unit whose window is that
whole map, found by the same integer codes (network._distinct_codes).
Rows with one signature feed the first stage kept per row the same
spikes at every step.  Every run starts from rest, and from there on
each row's state is bit for bit that of its frame's run alone (see
Why the spikes stay bit-identical: an exact stage gives the same bits
in any order, whatever else shares the batch, and an inexact one
computes each row alone).  So such rows hold equal state at every
step, and the populations kept per row hold one column per distinct
signature; settle tracking and the bound check of an early decision
work on those columns too.  Rows that agree on every pixel the
leading conv units read share a signature whatever their other pixels
hold: a 3x3, stride-2, unpadded conv on 16x16 LineCatch frames never
reads row 15, the paddle's.  The results give a signature's rates,
potentials, current sums, settle step and certified action to every
row that has it.

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

Certified early decisions.  A caller that needs only each row's action
(SpikingAgent.actions, the one caller of _run_stages with decide) gets
the argmax of the robust readout at T, and the run ends as soon as
interval bounds (interval bound propagation, Gowal et al. 2018, on the
spike counts of soft-reset IF neurons) prove that no row's action can
change.  By the bookkeeping identity the robust readout is the output's
current summed over the run, over T v_thr: a row may stop at a step
once a sound bound on the rest of that sum leaves its leading output
ahead of every other.  The bound (rateconv.certify) is checked first at
rest, before any step, and then beside settle tracking, at the end of a
few scheduled output blocks (_Plan.checks), population by population,
each from the steps it has run (the pipeline runs population j one
block ahead of j + 1; at rest every population has run none):

- the input's drive is constant; under a steady input it fires the
  same pixels at every step, so the first stage's counts are known to
  within one spike;
- for every other population, the spikes of the population below over
  the steps still to come lie between known bounds, and each of its
  inputs fires at every step, at none, or may fire; that gives each
  neuron's current summed over those steps, and its current at any one
  step, within bounds; its potential at T lies in [min(0, V) + m
  min(0, lowest step), max(v_thr, V) + m max(0, highest step - v_thr)]
  over its m steps left, and its spikes are (V + current sum - V at T)
  / v_thr, at most m and at least 0; a neuron whose lowest step reaches
  v_thr from V >= 0 fires at every step, one whose highest step is <= 0
  below v_thr at none;
- the output's summed currents are compared pairwise, on the rows W_a
  - W_c of its weights, so what the rivals share cancels: row a is
  certified once its lowest lead over every other output c is above
  the most the readout's rounding can take from it (a strict lead, as
  argmax breaks a tie by the first index).

Every sum is bounded with explicit slack for float64 rounding: its
terms' rounding and the rounding of every potential over the steps
left, 2^-50 (T + fan-in + 8) T (max(sum |w| + |b|) + v_thr) per
population, several times the worst case; with every stage exact and
v_thr a whole multiple of each stage's u most sums are exact anyway.
The readout's own rounding is at most 2^-51 (T v_thr + |V at T| +
|sum|) / (T v_thr) per output.

The first block is RAMP steps, each next one twice as long up to K,
and a check ends each output block that ends at least twice as late
as the last check, so a run makes O(log T) checks.  The check at rest
is the first: a run whose every row it certifies runs no step and
makes none of the loop's buffers, and a T = 1 run, whose one block
ends no check, may certify there.  A check that certifies no new row
is the last, so a net whose check at rest certifies nothing (a deep
conv net) pays that one check and runs to T.  The run stops when every
row is certified; rows do not leave the batch (rows that certify at
all tend to do so at the first check, or only near T).  It runs to T, and
answers the argmax of its readout, for the rate readout, for
diagnose=True, when any stage is not exact or v_thr is not a whole
multiple of its u (potentials that round), and once a bound is not
finite; a run whose readout overflows reaches T and is refused as
before.  Under these conditions a current is below 2^53 u <= 2^53
v_thr, so |V| / (T v_thr) < 2^53 + 1 and the readout of a certified
run cannot overflow.  run_batch, run and every diagnostic read whole
runs.

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

from .certify import _Certifier, _StageBounds, _certifiable
from .network import (LayerSpec, NetworkSpec, _distinct_codes, affine_rows, apply_layer_linear,
                      channel_index, frame_stack, layer_shapes, receptive_fields,
                      require_integer, unit_maps, validate_network)

READOUTS = ("rate", "robust")
BLOCK_BYTES = 1 << 20  # caps K * batch * (all populations' neurons) * 8 bytes
RAMP = 1  # the first block of a run that may stop early; each next one doubles, up to K


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
class _Stage(_StageBounds):
    """A parameterized layer and its input and output shapes: in a run,
    the spiking population it feeds.  The layer holds the float64
    parameters every stage computation reads; _StageBounds adds the
    arrays the bound check of an early decision reads."""

    layer: LayerSpec
    input_shape: tuple[int, ...]  # the layer's input, flattened if a flatten precedes it
    shape: tuple[int, ...]

    @cached_property
    def ulp(self) -> float:
        """u, the smallest float32 ulp among the layer's nonzero
        parameters: every parameter is a whole multiple of it (inf for a
        layer of zeros)."""
        w = np.abs(self.layer.weights64)
        b = np.abs(self.layer.bias64)
        smallest = min(np.min(w, initial=np.inf, where=w > 0),
                       np.min(b, initial=np.inf, where=b > 0))
        return math.inf if smallest == np.inf else float(np.spacing(np.float32(smallest)))

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
        if self.ulp == math.inf:
            return True
        w = np.abs(self.layer.weights64.reshape(len(self.layer.bias64), -1))
        b = np.abs(self.layer.bias64)
        return bool(np.all((w / self.ulp).sum(axis=1) + b / self.ulp < 2.0 ** 53))

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
    shapes = [net.input_shape, *layer_shapes(net)]
    return [_Stage(layer=layer, input_shape=shapes[i], shape=shapes[i + 1])
            for i, layer in enumerate(net.layers) if layer.kind != "flatten"]


def _checked_stages(net: NetworkSpec) -> list[_Stage]:
    """The stages of a valid network; ValueError naming its violations otherwise."""
    check = validate_network(net)
    if not check.ok:
        raise ValueError("cannot simulate invalid network: " + "; ".join(check.violations))
    return _build_stages(net)


class _Plan:
    """The layout of one run of a batch, built once, before its loop.

    Population 0 is the input layer, driven by the frames; population j
    >= 1 is fed by stage j-1.  The first len(units) populations are kept
    per unit (network.unit_maps over the leading exact conv stages, never
    the output stage), as [channels * units, 1], the rest per row, as
    [width, columns]: one column per signature, the distinct rows of the
    last unit population's ids, row i's being rows[i]; without units
    rows is None and there is one column per row (see the module
    docstring).  Population j is [neurons[j], cols[j]] and holds the
    flat elements edges[j]:edges[j+1] of every buffer.  index[j] gathers
    stage j-1's columns, and row_gather the first population kept per row
    from the last one kept per unit, [channels * positions, columns].
    drive is population 0's current and fired0 its spikes at the first
    step; steady says it fires them at every step, and first is 1 when
    it leaves the loop (see the module docstring), 0 otherwise.

    K, the steps per block, caps K * elements float64 values at
    BLOCK_BYTES, elements being the larger of the state per step and a
    stage's gathered columns per step; ceil(sqrt(10 T)) weighs the
    per-block work (T / K blocks) against the pipeline's partly filled
    ends (about K steps per population); a block never exceeds the run.
    With ramp (a run that may stop early) the blocks start at RAMP
    steps and double up to K, and checks names the output blocks after
    which the bound is checked (see Certified early decisions), besides
    the check at rest, iteration -1, before any block.
    """

    def __init__(self, stages: list[_Stage], frames: np.ndarray, config: SimConfig,
                 ramp: bool = False):
        batch = frames.shape[0]
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        windows = []
        for stage in stages[:-1]:
            if stage.layer.kind != "conv2d" or not stage.exact:
                break
            windows.append(stage.window)
        units, vectors = unit_maps(frames, windows)
        shapes = [frames.shape[1:]] + [s.shape for s in stages]
        self.rows, self.row_gather, columns = None, None, batch
        if units:
            # A signature is a unit whose window is the whole last unit map.
            last = units[-1]
            picked, self.rows = _distinct_codes(last.ids.T, batch, last.count)
            columns = len(picked)
            self.row_gather = (np.arange(shapes[len(units) - 1][0])[:, None, None] * last.count
                               + last.ids[picked].T).reshape(-1, columns)
            self.drive = vectors.T.reshape(-1)
        else:
            self.drive = frames.reshape(batch, -1).T.reshape(-1)
        neurons = [shape[0] * units[j].count if j < len(units) else math.prod(shape)
                   for j, shape in enumerate(shapes)]
        cols = [1 if j < len(units) else columns for j in range(len(shapes))]
        edges = [0]
        for n, m in zip(neurons, cols):
            edges.append(edges[-1] + n * m)
        self.index = [None] + [channel_index(units[j].windows.T, shapes[j - 1][0],
                                             units[j - 1].count)
                               if j < len(units) else stage.gather
                               for j, stage in enumerate(stages, start=1)]
        self.stages, self.batch, self.units, self.shapes = stages, batch, units, shapes
        self.neurons, self.cols, self.edges, self.columns = neurons, cols, edges, columns

        T = self.timesteps = config.timesteps
        gathered = max(stage.layer.weights[0].size * n * m // len(stage.layer.bias)
                       for stage, n, m in zip(stages, neurons[1:], cols[1:]))
        self.K = max(1, min(BLOCK_BYTES // (8 * max(edges[-1], gathered)),
                            math.isqrt(10 * T - 1) + 1, T))
        # Block b is steps starts[b]..starts[b+1]-1; checks are the blocks
        # after whose output block the bound is checked, each ending at
        # least twice as late as the one before, never at the last block.
        self.starts, self.checks = list(range(0, T, self.K)) + [T], set()
        if ramp:
            self.starts, size = [0], min(RAMP, self.K)
            while self.starts[-1] + size < T:
                self.starts.append(self.starts[-1] + size)
                size = min(2 * size, self.K)
            self.starts.append(T)
            last = 0
            for b, end in enumerate(self.starts[1:-1]):
                if end >= 2 * last:
                    self.checks.add(b)
                    last = end
        self.n_blocks = len(self.starts) - 1
        self.fired0 = self.drive >= config.v_thr
        self.steady = bool(np.all(self.fired0 | (self.drive <= 0.0)))
        self.first = int(self.steady and np.all((self.drive == 0.0)
                                                | (self.drive == config.v_thr)))

    def steps(self, b: int) -> int:
        """The steps of block b: K, but for the ramp and a short last block."""
        return self.starts[b + 1] - self.starts[b]

    def view(self, buffer: np.ndarray, j: int, steps: int) -> np.ndarray:
        """Population j's part of the first steps of a [K, edges[-1]]
        buffer, [steps, neurons[j], cols[j]]."""
        return buffer[:steps, self.edges[j]:self.edges[j + 1]].reshape(
            steps, self.neurons[j], self.cols[j])

    def inputs(self, j: int, buffer: np.ndarray, steps: int) -> np.ndarray:
        """Stage j-1's inputs over the first steps of a [K, edges[-1]]
        buffer of population j-1's values, [steps, width, cols[j]]: the
        last population kept per unit read per row."""
        if j == len(self.units):
            return np.take(buffer[:steps, self.edges[j - 1]:self.edges[j]], self.row_gather,
                           axis=1)
        return self.view(buffer, j - 1, steps)

    def linear(self, j: int, w: np.ndarray, values: np.ndarray) -> np.ndarray:
        """w, stage j-1's weights or the like, applied to population j-1's
        values in the rows of a [rows, edges[-1]] buffer: [rows, neurons[j]
        * cols[j]], neuron-major, no bias."""
        x = self.inputs(j, values, len(values))
        return _linear(w, x, self.index[j]).reshape(len(values), -1)

    def currents(self, j: int, spikes: np.ndarray, steps: int) -> np.ndarray:
        """Population j's currents over the first steps of a block, from
        population j-1's spikes in a [K, edges[-1]] buffer."""
        return _block_currents(self.stages[j - 1], self.inputs(j, spikes, steps), self.index[j])

    def by_row(self, values: np.ndarray) -> np.ndarray:
        """values [columns, ...] of the populations kept per row as [batch,
        ...]: each row given its signature's."""
        return values if self.rows is None else values[self.rows]

    def per_population(self, state: np.ndarray) -> list[np.ndarray]:
        """A flat state as [batch, *shape] per population, a unit's values
        given to every position of every frame that holds it, and a
        signature's to every row that has it."""
        by_row = []
        for j, shape in enumerate(self.shapes):
            part = state[self.edges[j]:self.edges[j + 1]]
            if j < len(self.units):
                part = part.reshape(shape[0], -1)[:, self.units[j].ids].transpose(1, 0, 2)
            else:
                part = self.by_row(part.reshape(-1, self.columns).T)
            by_row.append(part.reshape(self.batch, *shape))
        return by_row


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


def _linear(w: np.ndarray, x: np.ndarray, index: Optional[np.ndarray],
            bias: Optional[np.ndarray] = None) -> np.ndarray:
    """w [out_ch, fan-in] (plus bias) applied to x [K, width, columns]
    (0/1 spikes or float values), neuron-major: [K, neurons, columns].
    A conv stage reads its columns through index, [fan-in, positions]
    over the width, where the width itself is a zero row (padding)."""
    steps, width, cols = x.shape
    if index is None:
        z = w @ x.astype(np.float64, copy=False)
        if bias is not None:
            z += bias[:, None]
        return z
    # One GEMM for the block, on columns gathered [fan-in, positions,
    # steps, columns].
    padded = np.zeros((width + 1, steps, cols), dtype=x.dtype)
    padded[:width] = x.transpose(1, 0, 2)
    z = w @ padded[index].reshape(len(index), -1).astype(np.float64, copy=False)
    if bias is not None:
        z += bias[:, None]
    return z.reshape(len(w), index.shape[1], steps, cols).transpose(2, 0, 1, 3).reshape(
        steps, -1, cols)


def _block_currents(stage: _Stage, spikes: np.ndarray,
                    index: Optional[np.ndarray]) -> np.ndarray:
    """Input currents [K, neurons, columns] of a stage from the previous
    population's spikes [K, width, columns] (bool), both neuron-major."""
    steps, width, cols = spikes.shape
    layer = stage.layer
    if stage.exact:
        # Exact in any order: straight on the neuron-major spikes.
        return _linear(layer.weights64.reshape(len(layer.bias64), -1), spikes, index,
                       layer.bias64)
    # Not exact in every order: every row of every step as a
    # step-at-a-time run of that row alone computes it.
    x = np.ascontiguousarray(spikes.transpose(0, 2, 1), dtype=np.float64)
    z = affine_rows(layer, x.reshape(steps * cols, *stage.input_shape))
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
                diagnose: bool, decide: bool = False) -> SimResult | np.ndarray:
    """run_batch on the stages of a checked network and a frame_stack of
    its frames, for a caller that simulates one network many times: the
    batch's _Plan, the pipelined loop over its blocks, and the result
    read from the end state.  With decide, the run answers each row's
    action, the argmax of its readout at T, instead of a SimResult, and
    ends as soon as the bound check certifies every row's action (see
    Certified early decisions in the module docstring)."""
    certifier = None
    if decide and not diagnose and _certifiable(stages, config):
        plan = _Plan(stages, frames, config, ramp=True)
        certifier = _Certifier(plan, config)
    else:
        plan = _Plan(stages, frames, config)
    T, v_thr, batch, columns = config.timesteps, config.v_thr, plan.batch, plan.columns
    K, n_blocks, edges, first, steady = plan.K, plan.n_blocks, plan.edges, plan.first, plan.steady
    view, currents_of, steps_of = plan.view, plan.currents, plan.steps
    last_pop = len(edges) - 2
    potentials = np.zeros(edges[-1])
    counts = np.zeros(edges[-1], dtype=np.int64)
    # The first check is at rest: a run whose actions it proves runs no step.
    if certifier is not None and certifier.check(-1, last_pop + 1, [], potentials, counts, None):
        return plan.by_row(certifier.actions)
    currents = np.empty((K, edges[-1]))
    spikes = (np.empty((K, edges[-1]), dtype=bool), np.empty((K, edges[-1]), dtype=bool))
    sums = np.zeros(edges[-1]) if diagnose else None
    trail = np.empty((K, edges[-1] - edges[-2])) \
        if diagnose and config.readout == "robust" else None

    if steady:
        # The input fires the same pixels at every step, so the first
        # stage's currents are computed once.
        view(currents, 1, K)[:] = currents_of(1, plan.fired0[None], 1)
    if first:
        # Each step takes the potential from 0 to 0 or v_thr, and a spike
        # back to exactly 0: the input population leaves the loop.
        counts[:edges[1]] = T * plan.fired0
        if diagnose:
            total = 0.0
            for _ in range(T):  # summed as a step loop sums it
                total += v_thr
            sums[:edges[1]] = np.where(plan.fired0, total, 0.0)
    else:
        currents[:, :edges[1]] = plan.drive

    out = slice(edges[-2], edges[-1])
    settle = np.ones(columns, dtype=np.int64) if diagnose else None
    prev_choice = None
    for i in range(n_blocks + last_pop - first):
        # Population j runs block i - (j - first); the active ones are lo..hi.
        lo = first + max(0, i - n_blocks + 1)
        hi = min(last_pop, first + i)
        fired, fed = spikes[i % 2], spikes[(i + 1) % 2]
        lengths = [steps_of(i - (j - first)) for j in range(lo, hi + 1)]
        for j in range(max(lo, 2 if steady else 1), hi + 1):
            view(currents, j, lengths[j - lo])[:] = currents_of(j, fed, lengths[j - lo])

        # A population's block is no longer than the one below it runs,
        # but the lowest population may be in the last, short block: the
        # populations still stepping after s0 steps are one slice, lo or
        # lo + 1 to the last one whose block is longer than s0.
        watch = diagnose and hi == last_pop
        if watch:
            out_before = counts[out].copy()
        s0 = 0
        for s1 in sorted(set(lengths)):
            j0, j1 = lo if lengths[0] >= s1 else lo + 1, hi
            while lengths[j1 - lo] < s1:
                j1 -= 1
            span = slice(edges[j0], edges[j1 + 1])
            _integrate(potentials[span], currents[s0:s1, span], v_thr, fired[s0:s1, span],
                       sums[span] if diagnose else None,
                       trail[s0:s1] if watch and trail is not None else None)
            # Large batches run one-step blocks, where adding the step's
            # spikes costs half of summing a one-step block.
            np.add(counts[span], fired[s0, span] if s1 - s0 == 1 else
                   fired[s0:s1, span].sum(axis=0, dtype=np.int64), out=counts[span])
            s0 = s1

        if watch:
            # The output argmax after each step of its block, as a step loop sees it.
            b = i - (last_pop - first)
            steps = steps_of(b)
            score = out_before + np.cumsum(fired[:steps, out], axis=0, dtype=np.int64)
            if trail is not None:
                score = score * v_thr + trail[:steps]
            choice = np.argmax(score.reshape(steps, -1, columns), axis=1)
            seq = choice if prev_choice is None else np.concatenate([prev_choice[None], choice])
            changed = seq[1:] != seq[:-1]
            if len(changed):
                from_end = np.argmax(changed[::-1], axis=0)
                settle = np.where(changed.any(axis=0), plan.starts[b] + steps - from_end,
                                  settle)
            prev_choice = choice[-1]

        if (certifier is not None and hi == last_pop and i - (last_pop - first) in plan.checks
                and certifier.check(i, lo, lengths, potentials, counts, fired)):
            return plan.by_row(certifier.actions)

    rates = [c / T for c in plan.per_population(counts)]
    ends = plan.per_population(potentials)
    rate_last = rates[-1].reshape(batch, -1)
    with np.errstate(over="ignore"):
        f_last = rate_last + ends[-1].reshape(batch, -1) / (T * v_thr)
    if not np.all(np.isfinite(f_last)):
        # a v_thr far below the output potentials: V / (T * v_thr) overflows
        raise ValueError(f"the output potentials over timesteps * v_thr = {T} * {v_thr} "
                         f"overflow the readout")
    if decide:
        return np.argmax(rate_last if config.readout == "rate" else f_last, axis=1)
    residuals = [v / T for v in ends]
    avg_currents = [z / (T * v_thr) for z in plan.per_population(sums)] if diagnose else None
    return SimResult(timesteps=T, v_thr=v_thr, readout=config.readout,
                     rates=rates, residuals=residuals, avg_currents=avg_currents,
                     rate_last=rate_last, f_last=f_last,
                     settle_step=plan.by_row(settle) if diagnose else None)


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
        z = apply_layer_linear(stage.layer, r_prev)
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
