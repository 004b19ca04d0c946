"""The bound check of a simulated run that may stop early.

A run that answers actions (rateconv.simulate._run_stages with decide)
makes a _Certifier when _certifiable allows it, and asks it at each
scheduled check whether every row's action is proven; the argument,
the bounds and the cases that run to T are in the simulate module
docstring, Certified early decisions.  The check reads the run's plan
and state and changes neither.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

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


class _Certifier:
    """The bound check of a run that may stop early.

    check bounds, population by population, every neuron's spikes over
    the steps its consumer has yet to run, and marks a row certified
    once its leading output's total current beats every other output's
    by more than the readout can round; actions holds each certified
    row's action, -1 for the others, one row per column of the
    populations kept per row (a signature, see _Plan).  Once a bound is
    not finite it checks no more, and the run goes to T.
    """

    def __init__(self, plan: _Plan, config: SimConfig):
        T, v_thr = config.timesteps, config.v_thr
        self.plan, self.T, self.v_thr = plan, T, v_thr
        self.actions = np.full(plan.columns, -1)
        self.on = True
        # Per population: its bias over its flat elements, and the slack
        # that covers every rounding of its potentials over the rest of
        # the run and of the bound sums (see the module docstring).
        self.bias = [None]
        self.slack = [2.0 ** -50 * (T + 9) * T * (float(np.max(np.abs(plan.drive))) + v_thr)]
        for j, stage in enumerate(plan.stages, start=1):
            per_channel = plan.neurons[j] // len(stage.layer.bias64)
            self.bias.append(np.repeat(stage.layer.bias64, per_channel * plan.cols[j]))
            fan_in = stage.layer.weights[0].size
            self.slack.append(2.0 ** -50 * (T + fan_in + 8) * T * (stage.peak + v_thr))
        self.feed = np.zeros((4, plan.edges[-1]))

    def check(self, i: int, lo: int, lengths: list[int], potentials: np.ndarray,
              counts: np.ndarray, fired: np.ndarray) -> bool:
        """After iteration i, in which populations lo.. ran lengths[j - lo]
        steps each and the output a block: whether every row is certified.

        feed holds, per neuron of the population below, the centers and
        the half widths of two intervals over the steps the population
        above has yet to run: its spikes over all of them, and its spike
        at any one of them (0 never, 1 always, 0 or 1)."""
        if not self.on:
            return False
        plan, T, v_thr, feed = self.plan, self.T, self.v_thr, self.feed
        edges, first, last = plan.edges, plan.first, len(plan.edges) - 2
        # t[j]: the steps population j has run
        t = [plan.starts[min(i - (j - first) + 1, plan.n_blocks)] for j in range(last + 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(last + 1):
                flat = slice(edges[j], edges[j + 1])
                if j == 0 and plan.steady:
                    # the input fires its first step's spikes at every step
                    feed[0, flat] = (T - t[1]) * plan.fired0
                    feed[1, flat] = plan.fired0
                    feed[2:, flat] = 0.0
                    continue
                m, v, slack = T - t[j], potentials[flat], 3.0 * self.slack[j]
                if j == 0:
                    low = high = m * plan.drive
                    step_low = step_high = plan.drive
                else:
                    stage = plan.stages[j - 1]
                    if j == last:
                        return self._lead(stage, m, counts[flat] * v_thr + v,
                                          plan.inputs(j, feed, 4))
                    w = stage.layer.weights64.reshape(len(stage.layer.bias64), -1)
                    center = plan.linear(j, w, feed[:2])
                    radius = plan.linear(j, stage.magnitude, feed[2:])
                    low = m * self.bias[j] + center[0] - radius[0]
                    high = low + 2.0 * radius[0]
                    step_low = self.bias[j] + center[1] - radius[1] - slack
                    step_high = step_low + 2.0 * radius[1] + 2.0 * slack
                # V at T is at most max(v_thr, V) plus what each step above
                # v_thr adds, at least min(0, V) plus what each step below 0
                # takes; spikes = (V + the currents - V at T) / v_thr.
                v_high = np.maximum(v, v_thr) + m * np.maximum(step_high - v_thr, 0.0)
                v_low = np.minimum(v, 0.0) + m * np.minimum(step_low, 0.0)
                n_low = np.maximum(np.ceil((v + low - v_high - slack) / v_thr), 0.0)
                n_high = np.minimum(np.floor((v + high - v_low + slack) / v_thr), m)
                if not (np.isfinite(n_low).all() and np.isfinite(n_high).all()):
                    self.on = False
                    return False
                # A step of at least v_thr from V >= 0 always fires, as the
                # input does (see One rule); a step <= 0 below v_thr never.
                always = (step_low >= v_thr) & (v >= 0.0)
                never = (step_high <= 0.0) & (v < v_thr)
                n_low[always] = m
                n_high[never] = 0.0
                # plus the spikes of the block population j ran ahead of j + 1
                known = (fired[:lengths[j - lo], flat].sum(axis=0) if j >= lo
                         else np.zeros(len(v)))
                full = always & (known == t[j] - t[j + 1])
                may = ~(full | (never & (known == 0)))
                feed[0, flat] = known + 0.5 * (n_low + n_high)
                feed[1, flat] = full + 0.5 * may
                feed[2, flat] = 0.5 * (n_high - n_low)
                feed[3, flat] = 0.5 * may
        return False

    def _lead(self, stage: _Stage, m: int, held: np.ndarray, x: np.ndarray) -> bool:
        """Certify the rows whose leading output wins by a proven margin.

        held: each output's spikes times v_thr plus its potential, so
        far, whose sum with the currents still to come is its readout
        times T v_thr; x: the output stage's inputs from feed, [4, inputs,
        columns]."""
        T, v_thr, columns, slack = self.T, self.v_thr, self.plan.columns, self.slack[-1]
        held = held.reshape(-1, columns) + m * self.bias[-1].reshape(-1, columns)
        n = len(held)
        # the lowest total_a - total_c, for every ordered pair (a, c)
        center, radius = stage.gaps @ np.stack([x[0], x[2]])
        lead = (held[:, None] - held[None]) + (center - radius).reshape(n, n, columns)
        # |total| at most, from the bounds of each output alone
        size = (np.abs(held + stage.matrix @ x[0]) + np.abs(stage.matrix) @ x[2]
                + 2.0 * slack)
        # The readout of a total S rounds by at most 2^-51 (T v_thr + |V
        # at T| + |S|) / (T v_thr), and |V at T| <= |S| + T v_thr.
        margin = 2.0 ** -47 * (T * v_thr + size[:, None] + size[None]) + 4.0 * slack
        lead[np.arange(n), np.arange(n)] = np.inf
        if not (np.isfinite(margin).all() and np.isfinite(size).all()):
            self.on = False
            return False
        win = (lead > margin).all(axis=1)  # [a, columns]: a beats every c
        decided = win.any(axis=0) & (self.actions < 0)
        self.actions[decided] = np.argmax(win[:, decided], axis=0)
        # A check that certifies no new row is the last.
        self.on = bool(decided.any())
        return bool((self.actions >= 0).all())
