"""The bound check of a simulated run that may stop before any step.

A run that answers actions (rateconv.simulate._run_stages with decide)
asks _actions_at_rest, when _certifiable allows it, whether the bound
at rest proves every row's action; the argument, the bounds and the
cases that run to T are in the simulate module docstring, Certified
early decisions.  The check reads the run's plan and changes nothing.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # simulate imports this module
    from .simulate import SimConfig, _Plan, _Stage


class _StageBounds:
    """The arrays the bounds of a stage (rateconv.simulate._Stage, whose
    layer, input_shape and gather they read) are computed from, each
    made once per stage."""

    @cached_property
    def peak(self) -> float:
        """The largest sum(|w|) + |b| of any neuron: no current is larger
        in magnitude."""
        return float(np.max(self.magnitude.sum(axis=1) + np.abs(self.layer.bias64)))

    @cached_property
    def magnitude(self) -> np.ndarray:
        """|w| of the layer's weights, [out_ch, fan-in]."""
        return np.abs(self.layer.weights64.reshape(len(self.layer.bias64), -1))

    @cached_property
    def gaps(self) -> np.ndarray:
        """Row a - row c of matrix for every ordered pair of neurons, and
        their magnitudes: [2, neurons * neurons, inputs]."""
        w = self.matrix
        gaps = (w[:, None] - w[None]).reshape(len(w) ** 2, -1)
        return np.stack([gaps, np.abs(gaps)])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The layer's weights as a dense map of its flattened input,
        [neurons, inputs]: a conv layer's kernel copied to every position."""
        w = self.layer.weights64.reshape(len(self.layer.bias64), -1)
        if self.gather is None:
            return w
        width = math.prod(self.input_shape)
        positions = self.gather.shape[1]
        m = np.zeros((len(w), positions, width + 1))  # the last column takes the padding
        m[:, np.arange(positions), self.gather] = w[:, :, None]
        return m[:, :, :width].reshape(len(w) * positions, width)


def _certifiable(stages: list[_Stage], config: SimConfig) -> bool:
    """Whether a run of these stages may stop once its actions are
    certified: the robust readout, and every stage exact with a v_thr
    that is a whole multiple of its u."""
    if config.readout != "robust":
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


def _actions_at_rest(plan: _Plan, config: SimConfig) -> Optional[np.ndarray]:
    """Each column's action (one per column of the populations kept per
    row, a signature, see _Plan) when the bound certifies every column
    at rest, before any step; None otherwise, and the run goes to T.

    At rest every population has T steps to run from V = 0.  Population
    by population, feed holds, per neuron, the centers and the half
    widths of two intervals over those steps: its spikes over all of
    them, and its spike at any one of them (0 never, 1 always, 0 or 1).
    A column is certified when its leading output's total current beats
    every other output's by more than the readout can round."""
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
                w = stage.layer.weights64.reshape(len(stage.layer.bias64), -1)
                center = plan.linear(j, w, feed[:2])
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
        win = _lead(plan, config, plan.inputs(last, feed, 4))
    return np.argmax(win, axis=0) if win.any(axis=0).all() else None


def _lead(plan: _Plan, config: SimConfig, x: np.ndarray) -> np.ndarray:
    """[outputs, columns]: whether an output leads every other output of
    its column by a proven margin; none does where a bound is not finite.

    x: the output stage's inputs from feed, [4, inputs, columns]."""
    T, v_thr, columns, stage = config.timesteps, config.v_thr, plan.columns, plan.stages[-1]
    slack = _slack(T, stage.layer.weights[0].size, stage.peak, v_thr)
    # each output's bias summed over the run, which with the currents of
    # its inputs makes its total, its readout times T v_thr
    held = T * _bias(plan, len(plan.stages)).reshape(-1, columns)
    n = len(held)
    # the lowest total_a - total_c, for every ordered pair (a, c)
    center, radius = stage.gaps @ np.stack([x[0], x[2]])
    lead = (held[:, None] - held[None]) + (center - radius).reshape(n, n, columns)
    # |total| at most, from the bounds of each output alone
    size = (np.abs(held + stage.matrix @ x[0]) + np.abs(stage.matrix) @ x[2]
            + 2.0 * slack)
    # The readout of a total S rounds by at most 2^-51 (T v_thr + |V at
    # T| + |S|) / (T v_thr), and |V at T| <= |S| + T v_thr.
    margin = 2.0 ** -47 * (T * v_thr + size[:, None] + size[None]) + 4.0 * slack
    lead[np.arange(n), np.arange(n)] = np.inf
    win = (lead > margin).all(axis=1)  # [a, columns]: a beats every c
    if not (np.isfinite(margin).all() and np.isfinite(size).all()):
        win[:] = False
    return win
