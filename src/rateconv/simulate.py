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
spikes population j-1 produced for block b in the iteration before; a
run whose input leaves the loop (see One rule) starts it at iteration 1.
A run is three parts (_run_stages): a _Plan of the batch, made once,
which holds its layout (the units, each population's place in the
buffers, the gather indices, the input's drive, K and the block
count) and computes a population's currents for a block; the
pipelined loop over the blocks, on one spike buffer; and the result:
a decision from the output population alone, a SimResult from the end
state per population.  A stage that gathers its inputs (a conv stage,
and the first stage kept per row, which reads the last population kept
per unit) computes a block from a step-minor float64 copy of the
population below, [neurons + 1, columns * steps], its last row zero:
one take of whole rows through the stage's index, one 2-D GEMM, W @ x
+ b, and the [out, positions * columns * steps] result, transposed, is
the block, neuron-major as the buffers hold it.  A dense stage on a
population kept per row reads the buffer as it lies, one batched GEMM.
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
currents whole, but the first stage under a steady input, every pixel
<= 0 or >= v_thr.  Rounding is monotone, so once V >= 0 (a run starts
from rest), V + p >= v_thr stays true for a pixel p >= v_thr and the
spike leaves V >= 0, while a pixel <= 0 never reaches v_thr: a steady
input fires the same pixels at every step.  So the first stage's
currents are computed once per run, and a run that decides leaves the
input out of its loop; a run that reports steps it with every other
population.  The rule stays because deciding runs that go to T (dense
runs with the rate readout, say) would otherwise step the input and
its stage at every step: a time sweep of such runs measured 1.3 to 1.4
times as slow without it.

A run either decides or reports.  Current sums (added one step after
another, never pairwise), the output potentials after each step and
the settle step (from the output argmax after each step, taken once
per block) cost time in the hot loop; a run that decides skips them
and a steady input's steps, and every run that returns a SimResult
makes them all.

Certified early decisions.  A caller that needs only each row's action
(SpikingAgent.actions, the one caller of _run_stages with decide) gets
the argmax of the robust readout at T, and the run makes no step when
interval bounds (interval bound propagation, Gowal et al. 2018, on the
spike counts of soft-reset IF neurons) prove at rest, before any step,
that no row's action can be other than that.  By the bookkeeping
identity the robust readout is the output's current summed over the
run, over T v_thr: a row is decided once a sound bound on that sum
leaves its leading output ahead of every other.  The bound
(_rest_bounds) is computed once per run, at rest, from the run's plan
alone, and changes nothing; population by population, each has T
steps to run from V = 0:

- the input's drive is constant: a steady input's counts are exactly T
  times its first spikes, any other input's bounded from it as below;
- for every other population, the spikes of the population below over
  the run lie between known bounds, and each of its inputs fires at
  every step, at none, or may fire; that gives each neuron's current
  summed over the run, and its current at any one step, within bounds;
  its potential at T lies in [T min(0, lowest step), v_thr + T max(0,
  highest step - v_thr)], and its spikes are (current sum - V at T) /
  v_thr, at most T and at least 0; a neuron whose lowest step reaches
  v_thr fires at every step, one whose highest step is <= 0 at none;
- the output's summed currents are compared pairwise, on the rows W_a
  - W_c of its weights (_Stage.gaps, whole leads only for an output of
  one position), so what the rivals share cancels: row a is
  certified once its lowest lead over every other output c is above
  the most the readout's rounding can take from it (a strict lead, as
  argmax breaks a tie by the first index).

Each stage's bound is its layer applied by _Plan.linear, as its
currents are: its weights, or the rows W_a - W_c, to the centers below
and their magnitudes to the half widths.

Every sum is bounded with explicit slack for float64 rounding: its
terms' rounding and the rounding of every potential over the run,
2^-50 (T + fan-in + 8) T (max(sum |w| + |b|) + v_thr) per population,
several times the worst case; with every stage exact and v_thr a whole
multiple of each stage's u most sums are exact anyway.  The readout's
own rounding is at most 2^-51 (T v_thr + |V at T| + |sum|) / (T v_thr)
per output.

A run whose every row the bound certifies runs no step and makes none
of the loop's buffers; any other runs to T, whatever rows the bound
did certify, and answers the argmax of its readout (rows that certify
at all do so at rest, or only near T, where stopping saves little).
Runs also go to T for the rate readout, when any stage is not exact
or v_thr is not a whole multiple of its u (potentials that round), when
the output has more than one position (a conv map larger than 1x1,
whose leads between positions the rows W_a - W_c do not give), and
when a bound is not finite; a run whose readout overflows reaches T and
is refused as before.  Under these conditions a current is below 2^53
u <= 2^53 v_thr, so |V| / (T v_thr) < 2^53 + 1 and the readout of a
certified run cannot overflow.
run_batch, run and every diagnostic read whole runs.

Why the spikes stay bit-identical.  Each neuron sees the same float64
operations in the same order as a step-at-a-time loop: add the
current, compare inclusively with v_thr, subtract v_thr on a spike.
What changes is how a layer's currents are computed: a dense layer on
a population kept per row as W @ spikes + b straight from the spike
buffer, one GEMM per step over the whole batch, and a gathering stage
(a conv layer, or the first layer kept per row) as W @ x + b, one 2-D
GEMM per block on whole rows taken from a step-minor float64 copy of
the spikes below (padding reads its zero row; see Order of work),
where network.py's one conv kernel sums per-offset einsums.  The
layout sets the order of the sums, and it is free: the inputs are 0/1
spikes, so every current is a sum of a subset of the float32 weights
plus the bias.  Each of those is a whole multiple of u, the smallest
float32 ulp among the layer's nonzero parameters, and when every
neuron's sum(|w|) + |b| stays below 2^53 u each partial sum is
exactly representable in float64: any summation order yields the
same bits.  So two neurons of one channel whose
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

from .network import (LayerSpec, NetworkSpec, _distinct_codes, affine_rows, apply_layer_linear,
                      channel_index, frame_stack, layer_shapes, receptive_fields,
                      require_integer, require_number, unit_maps, validate_network)

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
        if self.timesteps >= 2 ** 63:  # past int64, where numpy counts steps
            raise ValueError(f"timesteps must be < 2**63, got {self.timesteps}")
        require_number("v_thr", self.v_thr)
        # a float64, so T * v_thr rounds as one (widening a float32 is exact)
        try:
            self.v_thr = float(self.v_thr)
        except OverflowError:  # an integer past the largest float
            raise ValueError(f"v_thr must be positive and finite, got {self.v_thr}") from None
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
    """A parameterized layer and its input and output shapes: in a run,
    the spiking population it feeds.  The layer holds the float64
    parameters every stage computation reads, its weights as kernel;
    peak, magnitude and gaps are the arrays the bound at rest reads."""

    layer: LayerSpec
    input_shape: tuple[int, ...]  # the layer's input, flattened if a flatten precedes it
    shape: tuple[int, ...]

    @cached_property
    def ulp(self) -> float:
        """u, the smallest float32 ulp among the layer's nonzero
        parameters: every parameter is a whole multiple of it (inf for a
        layer of zeros)."""
        w = self.magnitude
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
        w = self.magnitude
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

    @cached_property
    def peak(self) -> float:
        """The largest sum(|w|) + |b| of any neuron: no current is larger
        in magnitude."""
        return float(np.max(self.magnitude.sum(axis=1) + np.abs(self.layer.bias64)))

    @cached_property
    def kernel(self) -> np.ndarray:
        """The layer's float64 weights as [out_ch, fan-in], one row per
        channel: the map _Plan.linear applies."""
        return self.layer.weights64.reshape(len(self.layer.bias64), -1)

    @cached_property
    def magnitude(self) -> np.ndarray:
        """|w| of the layer's weights, [out_ch, fan-in]."""
        return np.abs(self.kernel)

    @cached_property
    def gaps(self) -> np.ndarray:
        """Row a - row c of the layer's weights for every ordered pair of
        its channels, and their magnitudes: [2, out_ch * out_ch, fan-in]."""
        w = self.kernel
        gaps = (w[:, None] - w[None]).reshape(len(w) ** 2, -1)
        return np.stack([gaps, np.abs(gaps)])


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
    flat elements edges[j]:edges[j+1] of every buffer.  row_gather reads
    the first population kept per row from the last one kept per unit,
    [channels * positions, columns].  index[j] gathers stage j-1's
    inputs from the rows of population j-1's neurons, plus one zero row
    past them that padding reads (see linear): [fan-in, positions] for
    a conv stage; for the first stage kept per row after the units,
    row_gather itself if it is dense, composed with the conv's gather,
    [fan-in, positions, columns], if not; None for a dense stage on a
    population kept per row, which reads the buffer as it lies.
    drive is population 0's current and fired0 its spikes at the first
    step; steady says it fires them at every step, so the first stage's
    currents are one step's (see One rule).

    K, the steps per block, caps K * elements float64 values at
    BLOCK_BYTES, elements being the larger of the state per step and a
    stage's gathered values per step (index[j].size * cols[j-1], its
    fan-in * positions * cols[j]); ceil(sqrt(10 T)) weighs the
    per-block work (T / K blocks) against the pipeline's partly filled
    ends (about K steps per population); a block never exceeds the run.
    """

    def __init__(self, stages: list[_Stage], frames: np.ndarray, config: SimConfig):
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
        self.index = [None]
        for j, stage in enumerate(stages, start=1):
            if j < len(units):
                self.index.append(channel_index(units[j].windows.T, shapes[j - 1][0],
                                                units[j - 1].count))
            elif j > len(units):
                self.index.append(stage.gather)
            elif stage.gather is None:
                self.index.append(self.row_gather)
            else:
                # the conv's gather composed with the row gather, padding the zero row
                padded = np.vstack([self.row_gather, np.full((1, columns), neurons[j - 1])])
                self.index.append(padded[stage.gather])
        self.stages, self.batch, self.units, self.shapes = stages, batch, units, shapes
        self.neurons, self.cols, self.edges, self.columns = neurons, cols, edges, columns

        T = self.timesteps = config.timesteps
        gathered = max((index.size * m for index, m in zip(self.index[1:], cols)
                        if index is not None), default=0)
        self.K = max(1, min(BLOCK_BYTES // (8 * max(edges[-1], gathered)),
                            math.isqrt(10 * T - 1) + 1, T))
        self.n_blocks = -(-T // self.K)
        self.fired0 = self.drive >= config.v_thr
        self.steady = bool(np.all(self.fired0 | (self.drive <= 0.0)))

    def steps(self, b: int) -> int:
        """The steps of block b: K, but for a short last block."""
        return min(self.K, self.timesteps - b * self.K)

    def view(self, buffer: np.ndarray, j: int, steps: int) -> np.ndarray:
        """Population j's part of the first steps of a [K, edges[-1]]
        buffer, [steps, neurons[j], cols[j]]."""
        return buffer[:steps, self.edges[j]:self.edges[j + 1]].reshape(
            steps, self.neurons[j], self.cols[j])

    def linear(self, j: int, w: np.ndarray, values: np.ndarray,
               bias: Optional[np.ndarray] = None) -> np.ndarray:
        """w, stage j-1's weights or the like (plus bias), applied to
        population j-1's values (0/1 spikes or floats) in the rows of a
        [rows, edges[-1]] buffer: [rows, neurons[j] * cols[j]], each row
        neuron-major.

        A gathered stage (index[j]) reads a step-minor float64 copy of
        population j-1, [neurons + 1, cols * rows], whose last row is zero
        (padding): one take of whole rows through index[j], then one 2-D
        GEMM, whose [out, positions * cols * rows] result, transposed, is
        the block.  A dense stage on a population kept per row is one
        batched GEMM on the values as they lie."""
        rows, index = len(values), self.index[j]
        if index is None:
            z = w @ self.view(values, j - 1, rows).astype(np.float64, copy=False)
        else:
            n, m = self.neurons[j - 1], self.cols[j - 1]
            x = np.empty((n + 1, m, rows))
            x[:n] = self.view(values, j - 1, rows).transpose(1, 2, 0)
            x[n] = 0.0
            z = w @ np.take(x.reshape(n + 1, -1), index, axis=0).reshape(len(index), -1)
        if bias is not None:
            z += bias[:, None]
        return z.reshape(rows, -1) if index is None else z.reshape(-1, rows).T

    def currents(self, j: int, spikes: np.ndarray, steps: int) -> np.ndarray:
        """Population j's currents over the first steps of a block, from
        population j-1's spikes in a [K, edges[-1]] buffer: [steps,
        neurons[j], cols[j]], neuron-major."""
        stage, cols = self.stages[j - 1], self.cols[j]
        layer = stage.layer
        if stage.exact:
            # Exact in any order: one GEMM on the spikes (linear).
            return self.linear(j, stage.kernel, spikes[:steps],
                               layer.bias64).reshape(steps, -1, cols)
        # Not exact in every order: every row of every step as a
        # step-at-a-time run of that row alone computes it, from the
        # inputs [steps, width, cols], the last unit population read per row.
        if j == len(self.units):
            x = np.take(spikes[:steps, self.edges[j - 1]:self.edges[j]], self.row_gather, axis=1)
        else:
            x = self.view(spikes, j - 1, steps)
        x = np.ascontiguousarray(x.transpose(0, 2, 1), dtype=np.float64)
        z = affine_rows(layer, x.reshape(steps * cols, *stage.input_shape))
        return z.reshape(steps, cols, -1).transpose(0, 2, 1)

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
# the bound at rest

def _certifiable(stages: list[_Stage], config: SimConfig) -> bool:
    """Whether a run of these stages may stop once its actions are
    certified: the robust readout, an output of one position (its
    neurons its channels, which _Stage.gaps compares), and every stage
    exact with a v_thr that is a whole multiple of its u."""
    out = stages[-1]
    if config.readout != "robust" or math.prod(out.shape) != len(out.layer.bias64):
        return False
    for stage in stages:
        if not stage.exact:
            return False
        if stage.ulp < math.inf and (config.v_thr / stage.ulp) % 1.0 != 0.0:
            return False
    return True


def _slack(T: int, fan_in: int, peak: float, v_thr: float) -> float:
    """The slack that covers every rounding of a population's potentials
    over a run and of its bound sums (see the module docstring), for
    currents of at most peak in magnitude summed over fan_in terms."""
    return 2.0 ** -50 * (T + fan_in + 8) * T * (peak + v_thr)


def _bias(plan: _Plan, j: int) -> np.ndarray:
    """Stage j-1's bias over population j's flat elements."""
    bias = plan.stages[j - 1].layer.bias64
    return np.repeat(bias, plan.neurons[j] // len(bias) * plan.cols[j])


def _rest_bounds(plan: _Plan, config: SimConfig
                 ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The bound at rest of a run, before any step: (feed, lead,
    margin), or None where a bound is not finite.

    At rest every population has T steps to run from V = 0.  Population
    by population, feed [4, edges[-1]] holds, per neuron, the centers
    and the half widths of two intervals over those steps: its spikes
    over all of them, and its spike at any one of them (0 never, 1
    always, 0 or 1); the output's elements stay 0.  lead [outputs,
    outputs, columns] is the lowest total_a - total_c of the output's
    currents summed over the run, for every ordered pair (a, c), and
    margin the most the readout's rounding can take from it."""
    T, v_thr, edges = config.timesteps, config.v_thr, plan.edges
    last = len(edges) - 2
    feed = np.zeros((4, edges[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(last):
            flat = slice(edges[j], edges[j + 1])
            if j == 0:
                if plan.steady:
                    # the input fires its first step's spikes at every step
                    feed[0, flat] = T * plan.fired0
                    feed[1, flat] = plan.fired0
                    continue
                slack = 3.0 * _slack(T, 1, float(np.max(np.abs(plan.drive))), v_thr)
                low = high = T * plan.drive
                step_low = step_high = plan.drive
            else:
                stage = plan.stages[j - 1]
                slack = 3.0 * _slack(T, stage.layer.weights[0].size, stage.peak, v_thr)
                bias = _bias(plan, j)
                center = plan.linear(j, stage.kernel, feed[:2])
                radius = plan.linear(j, stage.magnitude, feed[2:])
                low = T * bias + center[0] - radius[0]
                high = low + 2.0 * radius[0]
                step_low = bias + center[1] - radius[1] - slack
                step_high = step_low + 2.0 * radius[1] + 2.0 * slack
            # V at T is at most v_thr plus what each step above v_thr
            # adds, at least what each step below 0 takes; spikes = (the
            # currents - V at T) / v_thr.
            v_high = v_thr + T * np.maximum(step_high - v_thr, 0.0)
            v_low = T * np.minimum(step_low, 0.0)
            n_low = np.maximum(np.ceil((low - v_high - slack) / v_thr), 0.0)
            n_high = np.minimum(np.floor((high - v_low + slack) / v_thr), T)
            if not (np.isfinite(n_low).all() and np.isfinite(n_high).all()):
                return None
            # A step of at least v_thr from V >= 0 always fires, as the
            # input does (see One rule); a step <= 0 below v_thr never.
            always, never = step_low >= v_thr, step_high <= 0.0
            n_low[always] = T
            n_high[never] = 0.0
            may = ~(always | never)
            feed[0, flat] = 0.5 * (n_low + n_high)
            feed[1, flat] = always + 0.5 * may
            feed[2, flat] = 0.5 * (n_high - n_low)
            feed[3, flat] = 0.5 * may
        stage = plan.stages[-1]
        slack = _slack(T, stage.layer.weights[0].size, stage.peak, v_thr)
        # each output's bias summed over the run, which with the currents of
        # its inputs makes its total, its readout times T v_thr
        held = T * _bias(plan, last).reshape(-1, plan.columns)
        n = len(held)
        # |total| at most, from the bounds of each output alone
        size = (np.abs(held + plan.linear(last, stage.kernel, feed[:1]).reshape(n, -1))
                + plan.linear(last, stage.magnitude, feed[2:3]).reshape(n, -1) + 2.0 * slack)
        # the lowest total_a - total_c, for every ordered pair (a, c)
        center = plan.linear(last, stage.gaps[0], feed[:1])
        radius = plan.linear(last, stage.gaps[1], feed[2:3])
        lead = (held[:, None] - held[None]) + (center - radius).reshape(n, n, -1)
        # The readout of a total S rounds by at most 2^-51 (T v_thr + |V at
        # T| + |S|) / (T v_thr), and |V at T| <= |S| + T v_thr.
        margin = 2.0 ** -47 * (T * v_thr + size[:, None] + size[None]) + 4.0 * slack
    if not np.isfinite(margin).all():  # margin is finite only where size is
        return None
    return feed, lead, margin


def _actions_at_rest(plan: _Plan, config: SimConfig) -> Optional[np.ndarray]:
    """Each column's action (one per column of the populations kept per
    row, a signature, see _Plan) when the bound at rest (_rest_bounds)
    certifies every column; None otherwise, and the run goes to T."""
    bounds = _rest_bounds(plan, config)
    if bounds is None:
        return None
    win = _lead(*bounds[1:])
    return np.argmax(win, axis=0) if win.any(axis=0).all() else None


def _lead(lead: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """[outputs, columns]: whether an output's total current beats every
    other output's of its column by more than the readout can round."""
    itself = np.eye(len(lead), dtype=bool)[:, :, None]
    return ((lead > margin) | itself).all(axis=1)  # [a, columns]: a beats every c


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
    result depends on its frame and the config alone.  ValueError if the
    robust readout f_last is not finite, whatever the configured readout
    (a v_thr too small for the output potentials).  The result carries
    every diagnostic: current sums and the settle step included.
    """
    frames = frame_stack(net, frames)
    return _run_stages(_checked_stages(net), frames, config)


def _run_stages(stages: list[_Stage], frames: np.ndarray, config: SimConfig,
                decide: bool = False) -> SimResult | np.ndarray:
    """run_batch on the stages of a checked network and a frame_stack of
    its frames, for a caller that simulates one network many times: the
    batch's _Plan, the pipelined loop over its blocks, and the result
    read from the end state.  With decide, the run answers each row's
    action, the argmax of its readout at T, instead of a SimResult: it
    skips current sums, the output trail and settle tracking, and runs
    no step when the bound at rest certifies every row's action (see
    Certified early decisions in the module docstring)."""
    plan = _Plan(stages, frames, config)
    if decide and _certifiable(stages, config):
        # The bound at rest: a run whose every action it proves runs no step.
        actions = _actions_at_rest(plan, config)
        if actions is not None:
            return plan.by_row(actions)
    T, v_thr, columns = config.timesteps, config.v_thr, plan.columns
    K, n_blocks, edges = plan.K, plan.n_blocks, plan.edges
    view, currents_of, steps_of = plan.view, plan.currents, plan.steps
    last_pop = len(edges) - 2
    # A steady input leaves a deciding run's loop, which starts at 1 (see One rule).
    leaves = int(plan.steady and decide)
    potentials = np.zeros(edges[-1])
    counts = np.zeros(edges[-1], dtype=np.int64)
    currents = np.empty((K, edges[-1]))
    fired = np.empty((K, edges[-1]), dtype=bool)
    sums = None if decide else np.zeros(edges[-1])
    trail = np.empty((K, edges[-1] - edges[-2])) \
        if not decide and config.readout == "robust" else None
    if plan.steady:
        view(currents, 1, K)[:] = currents_of(1, plan.fired0[None], 1)
    if not leaves:
        currents[:, :edges[1]] = plan.drive

    out = slice(edges[-2], edges[-1])
    settle = np.ones(columns, dtype=np.int64)
    prev_choice = np.zeros(columns, dtype=np.intp)  # at rest every score is 0
    for i in range(leaves, n_blocks + last_pop):
        # Population j runs block i - j; the active ones are lo..hi.
        lo = max(leaves, i - n_blocks + 1)
        hi = min(last_pop, i)
        # Every active stage reads the spikes the iteration before wrote,
        # before _integrate overwrites them below.
        for j in range(max(lo, 1 + plan.steady), hi + 1):
            steps = steps_of(i - j)
            view(currents, j, steps)[:] = currents_of(j, fired, steps)

        # The lowest population may be in the last, short block: it leaves
        # the slice after its last step.
        end = edges[hi + 1]
        short = steps_of(i - lo)
        parts = [(0, short, edges[lo]), (short, K, edges[lo + 1])] if short < K else \
            [(0, K, edges[lo])]
        watch = not decide and hi == last_pop
        if watch:
            out_before = counts[out].copy()
        for s0, s1, r0 in parts:
            if r0 < end:
                span = slice(r0, end)
                _integrate(potentials[span], currents[s0:s1, span], v_thr, fired[s0:s1, span],
                           None if decide else sums[span],
                           trail[s0:s1] if watch and trail is not None else None)
                # Large batches run one-step blocks, where adding the step's
                # spikes costs half of summing a one-step block.
                np.add(counts[span], fired[s0, span] if s1 - s0 == 1 else
                       fired[s0:s1, span].sum(axis=0, dtype=np.int64), out=counts[span])

        if watch:
            # The output argmax after each step of its block, as a step loop sees it.
            b = i - last_pop
            steps = steps_of(b)
            score = out_before + np.cumsum(fired[:steps, out], axis=0, dtype=np.int64)
            if trail is not None:
                score = score * v_thr + trail[:steps]
            choice = np.argmax(score.reshape(steps, -1, columns), axis=1)
            changed = choice != np.concatenate([prev_choice[None], choice[:-1]])
            from_end = np.argmax(changed[::-1], axis=0)
            settle = np.where(changed.any(axis=0), b * K + steps - from_end, settle)
            prev_choice = choice[-1]

    # Each column's readout, from the output population alone: [columns, outputs].
    rate_last = counts[out].reshape(-1, columns).T / T
    with np.errstate(over="ignore"):
        f_last = rate_last + potentials[out].reshape(-1, columns).T / (T * v_thr)
    if not np.all(np.isfinite(f_last)):
        # a v_thr far below the output potentials: V / (T * v_thr) overflows
        raise ValueError(f"the output potentials over timesteps * v_thr = {T} * {v_thr} "
                         f"overflow the readout")
    if decide:
        return plan.by_row(np.argmax(rate_last if config.readout == "rate" else f_last,
                                     axis=1))
    rates = [c / T for c in plan.per_population(counts)]
    residuals = [v / T for v in plan.per_population(potentials)]
    avg_currents = [z / (T * v_thr) for z in plan.per_population(sums)]
    return SimResult(timesteps=T, v_thr=v_thr, readout=config.readout,
                     rates=rates, residuals=residuals, avg_currents=avg_currents,
                     rate_last=plan.by_row(rate_last), f_last=plan.by_row(f_last),
                     settle_step=plan.by_row(settle))


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

    if frame is not None:
        drive0 = np.asarray(frame, dtype=np.float64)
    else:
        drive0 = result.avg_currents[0] * v_thr
    residuals = [float(np.max(np.abs(result.rates[0] - (drive0 - result.residuals[0]) / v_thr)))]

    for j, stage in enumerate(stages, start=1):
        # a run's result reads as a batch of one row
        z = apply_layer_linear(stage.layer, result.rates[j - 1].reshape(-1, *stage.input_shape))
        pred = (z - result.residuals[j].reshape(z.shape)) / v_thr
        residuals.append(float(np.max(np.abs(result.rates[j].reshape(z.shape) - pred))))
    return residuals


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
        "case_counts": classify_case_counts(np.concatenate(result.avg_currents, axis=None),
                                            np.concatenate(result.residuals, axis=None)),
        "settle_step": int(np.max(result.settle_step)),
    }
