"""Decision-level evaluation of a network against its spiking conversion.

Two media: replaying a recorded trace (both networks see the same
frames, nothing is executed) or playing the built-in environment.
Either way the headline number is the conversion rate: the fraction of
decisions on which both pick the same action.

An evaluation is one play: the spiking agent acts and the source
network shadows every decision, or, with no spiking network, the source
plays alone.  Its episodes play in lockstep.  Episode i has its own
environment and its own generator, seeded derive_seed(master, i), from
which it draws its environment seed, its no-op prefix and its
exploration; each round, the player and the shadow each answer the
live episodes' observations, one greedy action per live episode in
episode order.  The spiking agent simulates them as one run, which makes
no step when a bound at rest certifies every row's action; every run
starts from rest and a row of run_batch is bit for bit the run of that
frame alone (see rateconv.simulate).  The analog agent (the source playing
alone, or shadowing) answers them in one network.forward_units pass
with the row-exact affine map (network.affine_rows): a stacked matmul
of single-row products for a dense layer, the per-offset einsum for a
conv layer.  Each of its rows is bit for bit the one-row forward pass
of its observation; a plain batched float64 GEMM could round a row
differently in the last bit, and a hidden ReLU carries that into a
near-tie argmax.  So results depend only on the seed, never on which
episodes share a round, and a replay's actions never on which frames
share its trace: a replay asks each agent once per distinct frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lincatch import LineCatchEnv
from .modelio import EpisodeTrace, ReportRow
from .network import (NetworkSpec, UnitValues, affine_rows, explore, first_new, forward_units,
                      frame_keys, frame_stack, layer_shapes, number_keys, require_integer,
                      require_number)
from .normalize import NormConfig, _stats_per_config, apply_normalization, collect_stats
from .simulate import SimConfig, _checked_stages, _run_stages, readout

CR_MODES = ("greedy", "executed")
REPLAY_CHUNK = 256  # distinct frames per actions call of a replay, and frames keyed at once
_MASK64 = (1 << 64) - 1


def derive_seed(master: int, index: int) -> int:
    """Stable per-episode seed (splitmix64 finalizer of master and index)."""
    x = (master * 0x9E3779B97F4A7C15 + index + 0x1F123BB5) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass
class EvalConfig:
    epsilon: float = 0.05
    max_noop: int = 30
    episodes: int = 50
    seed: int = 0
    frame_budget: int = 18000
    cr_mode: str = "greedy"  # compare greedy intents; "executed" counts exploration noise

    def __post_init__(self):
        require_number("epsilon", self.epsilon)
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        for name in ("max_noop", "episodes", "seed", "frame_budget"):
            require_integer(name, getattr(self, name))
        if self.max_noop < 0:
            raise ValueError(f"max_noop must be >= 0, got {self.max_noop}")
        if self.max_noop >= 2 ** 63:  # past int64, where numpy draws the no-op count
            raise ValueError(f"max_noop must be < 2**63, got {self.max_noop}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if self.frame_budget < 0:
            raise ValueError(f"frame_budget must be >= 0, got {self.frame_budget}")
        if self.cr_mode not in CR_MODES:
            raise ValueError(f"cr_mode must be one of {CR_MODES}, got {self.cr_mode!r}")


@dataclass
class ActionAgreement:
    agreements: int
    decisions: int

    @property
    def cr(self) -> float:
        return self.agreements / self.decisions if self.decisions else float("nan")


def conversion_rate(snn_actions, source_actions) -> ActionAgreement:
    """Count positions where both action sequences agree."""
    snn = list(snn_actions)
    src = list(source_actions)
    if not snn or not src:
        raise ValueError("action sequences must be nonempty")
    if len(snn) != len(src):
        raise ValueError(f"action sequences differ in length: {len(snn)} vs {len(src)}")
    agreements = sum(1 for a, b in zip(snn, src) if a == b)
    return ActionAgreement(agreements=agreements, decisions=len(snn))


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and population standard deviation; (nan, nan) for no values."""
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


@dataclass
class ConversionReport(ActionAgreement):
    scores: list[float]  # per episode, of whoever played (a replay: the trace's total)
    per_episode_cr: list[float]
    episodes: int
    records: Optional[list] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# agents: actions(observations) takes a list of observations or a
# [rows, *shape] array and returns one greedy action per row, the first
# index of the row's largest value; qvalues returns the values themselves

def _q_width(net: NetworkSpec) -> int:
    """The number of values, one per action, that net gives."""
    return int(np.prod([net.input_shape, *layer_shapes(net)][-1]))


def _check_q_width(net: NetworkSpec, action_count: int, role: str) -> None:
    """ValueError unless net gives one q-value per action."""
    width = _q_width(net)
    if width != action_count:
        raise ValueError(f"{role} network gives {width} q-values, "
                         f"but there are {action_count} actions")


class AnalogAgent:
    """Values and actions from the analog forward pass of the network.

    qvalues answers all its rows in one network.forward_units pass with
    the row-exact affine map (network.affine_rows): the leading conv
    layers once per distinct receptive field, every later product as a
    one-row pass makes it.  Each row is bit for bit the one-row forward
    pass of its observation, so no decision depends on another.  actions
    is the argmax of qvalues.
    """

    def __init__(self, net: NetworkSpec):
        self.net = net

    def qvalues(self, observations) -> np.ndarray:
        values = forward_units(self.net, observations, affine_rows)[-1]
        if isinstance(values, UnitValues):
            values = values.expanded
        return values.reshape(len(values), -1)

    def actions(self, observations) -> np.ndarray:
        return np.argmax(self.qvalues(observations), axis=1)


class SpikingAgent:
    """Values and actions from spiking runs of the converted network.

    The network is checked and its stages built once, at construction
    (ValueError for an invalid network, as run_batch gives).  Both
    methods simulate the observations from rest in one run; each row
    reads what run_batch of its observation alone reads, so no decision
    depends on another.  qvalues runs to T and returns the readout.
    actions returns the argmax of that readout, and runs no step when
    interval bounds on the run's currents, computed once at rest, prove
    every row's action (see Certified early decisions in
    rateconv.simulate), so the actions are those of the whole run by
    proof.  It runs to T when the bound leaves a row open, for the rate
    readout, for an output of more than one position, and when a stage
    is not exact or v_thr is not a whole multiple of a stage's u.
    """

    def __init__(self, net: NetworkSpec, sim_config: SimConfig):
        self.net = net
        self.sim_config = sim_config
        self.stages = _checked_stages(net)

    def qvalues(self, observations) -> np.ndarray:
        frames = frame_stack(self.net, observations)
        return readout(_run_stages(self.stages, frames, self.sim_config))

    def actions(self, observations) -> np.ndarray:
        frames = frame_stack(self.net, observations)
        return _run_stages(self.stages, frames, self.sim_config, decide=True)


# ---------------------------------------------------------------------------
# playing

@dataclass
class PlayRecord:
    score: float
    executed_actions: list[int]
    greedy_actions: list[int]
    shadow_actions: Optional[list[int]]
    frames: list[np.ndarray]
    rewards: list[float]
    noop_steps: int
    env_steps: int


@dataclass
class _Episode:
    """One episode of a lockstep play: its env, its rng and its record so far."""

    env: LineCatchEnv
    rng: np.random.Generator
    obs: np.ndarray
    done: bool
    record: PlayRecord

    def live(self, config: EvalConfig) -> bool:
        return not self.done and self.record.env_steps < config.frame_budget


def _start_episode(env: LineCatchEnv, config: EvalConfig, rng: np.random.Generator,
                   shadowed: bool) -> _Episode:
    """Reset the env from rng, then play the random-length no-op prefix,
    whose steps are not decisions: they leave no frames or actions."""
    env_seed = int(rng.integers(0, 2**63))
    noop_len = int(rng.integers(0, config.max_noop + 1))
    episode = _Episode(env, rng, env.reset(env_seed), env.done, PlayRecord(
        score=0.0, executed_actions=[], greedy_actions=[],
        shadow_actions=[] if shadowed else None, frames=[], rewards=[],
        noop_steps=0, env_steps=0))
    rec = episode.record
    for _ in range(noop_len):
        if not episode.live(config):
            break
        episode.obs, reward, episode.done = env.step(env.noop_action)
        rec.score += reward
        rec.env_steps += 1
        rec.noop_steps += 1
    return episode


def _play_lockstep(envs: list[LineCatchEnv], rngs: list[np.random.Generator], agent,
                   config: EvalConfig, shadow: Optional[AnalogAgent] = None,
                   keep_frames: bool = True) -> list[PlayRecord]:
    """Play one episode per (env, rng), all advancing together.

    Each round, the agent and the shadow, if any, each get one actions
    call on the current observations of the live episodes (not done,
    under the frame budget), in episode order.  Each live episode then
    takes its greedy action from the agent's row, explores from it with
    its own rng over the agent's network's actions, notes the shadow's
    greedy action and steps its own env; an episode that ends leaves
    the next round.
    """
    episodes = [_start_episode(env, config, rng, shadow is not None)
                for env, rng in zip(envs, rngs)]
    width = _q_width(agent.net)
    live = [i for i, episode in enumerate(episodes) if episode.live(config)]
    while live:
        observations = [episodes[i].obs for i in live]
        greedy = agent.actions(observations).tolist()
        shadowed = shadow.actions(observations).tolist() if shadow is not None else greedy
        for i, action, shadow_action in zip(live, greedy, shadowed):
            episode = episodes[i]
            rec = episode.record
            rec.greedy_actions.append(action)
            rec.executed_actions.append(explore(action, width, config.epsilon, episode.rng))
            if shadow is not None:
                rec.shadow_actions.append(shadow_action)
            if keep_frames:
                rec.frames.append(np.array(episode.obs, dtype=np.float32))
            episode.obs, reward, episode.done = episode.env.step(rec.executed_actions[-1])
            rec.score += reward
            rec.rewards.append(reward)
            rec.env_steps += 1
        live = [i for i in live if episodes[i].live(config)]
    return [episode.record for episode in episodes]


# ---------------------------------------------------------------------------
# replay

def _replay_actions(agent, distinct: np.ndarray, inverse: np.ndarray) -> list[int]:
    """Each step's greedy action from agent, which answers each distinct
    frame once, REPLAY_CHUNK frames per actions call; inverse[i] is the
    distinct frame step i shows."""
    actions = np.concatenate([agent.actions(distinct[start:start + REPLAY_CHUNK])
                              for start in range(0, len(distinct), REPLAY_CHUNK)])
    return actions[inverse].tolist()


def _distinct_frames(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct frames of obs plus 0.0, in the order they first come,
    and the distinct frame each row shows.  The keys are numbered into one
    dict REPLAY_CHUNK rows at a time, so only the distinct ones are held."""
    numbers: dict = {}
    inverse = np.empty(len(obs), dtype=np.intp)
    firsts = []
    for start in range(0, len(obs), REPLAY_CHUNK):
        size = len(numbers)
        slots = number_keys(numbers, frame_keys(obs[start:start + REPLAY_CHUNK] + 0.0))
        inverse[start:start + len(slots)] = slots
        firsts.append(start + first_new(slots, size))
    return obs[np.concatenate(firsts)], inverse


def replay_trace(trace: EpisodeTrace, snn_net: NetworkSpec, sim_config: SimConfig,
                 source_net: Optional[NetworkSpec] = None) -> ConversionReport:
    """Feed recorded frames to both networks and compare greedy decisions.

    Source actions are recomputed from source_net when given (guards
    against stale traces), from AnalogAgent.actions, and taken from the
    trace otherwise.  Nothing is executed, so exploration plays no role
    here.  Each agent answers each distinct frame once, in the order
    frames first come, REPLAY_CHUNK frames per actions call, and its
    action goes to every step that shows it: a row of either agent is
    bit for bit its frame's answer alone.  Frames are keyed by their
    bytes (network.frame_keys) plus 0.0, so a -0.0 reads as 0.0, to
    which both agents give equal values.
    """
    _check_q_width(snn_net, trace.action_count, "spiking")
    if source_net is not None:
        _check_q_width(source_net, trace.action_count, "source")
    if len(trace.steps) == 0:
        raise ValueError("cannot replay an empty trace")
    distinct, inverse = _distinct_frames(trace.observations())
    snn_actions = _replay_actions(SpikingAgent(snn_net, sim_config), distinct, inverse)
    source_actions = (trace.actions() if source_net is None
                      else _replay_actions(AnalogAgent(source_net), distinct, inverse))

    agreement = conversion_rate(snn_actions, source_actions)
    return ConversionReport(
        agreements=agreement.agreements,
        decisions=agreement.decisions,
        scores=[trace.total_reward()],
        per_episode_cr=[agreement.cr],
        episodes=1,
    )


# ---------------------------------------------------------------------------
# evaluation

def _agreement(rec: PlayRecord, cr_mode: str) -> ActionAgreement:
    """An episode's decisions that match the source's.

    Without a shadow the source played, and agrees with itself.  An
    episode with no decisions has a NaN conversion rate.
    """
    if rec.shadow_actions is None:
        return ActionAgreement(len(rec.greedy_actions), len(rec.greedy_actions))
    chosen = rec.greedy_actions if cr_mode == "greedy" else rec.executed_actions
    return ActionAgreement(sum(1 for a, b in zip(chosen, rec.shadow_actions) if a == b),
                           len(chosen))


def evaluate(source_net: NetworkSpec, snn_net: Optional[NetworkSpec],
             sim_config: SimConfig, eval_config: EvalConfig, env: LineCatchEnv,
             keep_records: bool = False) -> ConversionReport:
    """Scores and conversion rate over eval_config.episodes episodes, in one play.

    With snn_net the spiking agent plays and the source shadows its
    decisions, one spiking run per round over the live episodes.
    With snn_net None the source plays alone and agrees with itself; the
    same eval_config gives it the same environment seeds and no-op
    prefixes.
    """
    _check_q_width(source_net, env.action_count, "source")
    if snn_net is not None:
        _check_q_width(snn_net, env.action_count, "spiking")
    seeds = [derive_seed(eval_config.seed, i) for i in range(eval_config.episodes)]
    source = AnalogAgent(source_net)
    agent, shadow = ((source, None) if snn_net is None
                     else (SpikingAgent(snn_net, sim_config), source))
    records = _play_lockstep([env.clone() for _ in seeds],
                             [np.random.default_rng(seed) for seed in seeds],
                             agent, eval_config, shadow, keep_records)
    agreements = [_agreement(rec, eval_config.cr_mode) for rec in records]
    return ConversionReport(
        agreements=sum(a.agreements for a in agreements),
        decisions=sum(a.decisions for a in agreements),
        scores=[rec.score for rec in records],
        per_episode_cr=[a.cr for a in agreements],
        episodes=eval_config.episodes,
        records=records if keep_records else None,
    )


# ---------------------------------------------------------------------------
# sweeps

def pearson(xs, ys) -> float:
    """Pearson correlation; NaN when undefined (fewer than 2 points or no spread)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        return float("nan")
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
    return float(np.clip(r, -1.0, 1.0))  # NaN stays NaN


def report_row(sweep_param: str, value: float, report: ConversionReport) -> ReportRow:
    """One CSV row: mean and std of the scores and of the per-episode conversion rate."""
    return ReportRow(sweep_param, float(value), report.episodes, *mean_std(report.scores),
                     *mean_std(report.per_episode_cr), float("nan"))


def _finish_rows(rows: list[ReportRow]) -> list[ReportRow]:
    corr = pearson([r.mean_score for r in rows], [r.mean_cr for r in rows])
    for row in rows:
        row.pearson_score_cr = corr
    return rows


def sweep_time(source_net: NetworkSpec, env: LineCatchEnv, frames,
               sim_configs: list[SimConfig], norm_config: NormConfig,
               eval_config: EvalConfig) -> list[ReportRow]:
    """Normalize once by norm_config, evaluate per simulation config."""
    if not sim_configs:
        raise ValueError("need at least one timestep value")
    norm_net = apply_normalization(source_net, collect_stats(source_net, frames, norm_config))
    return _finish_rows([
        report_row("time", config.timesteps,
                   evaluate(source_net, norm_net, config, eval_config, env=env))
        for config in sim_configs])


def sweep_percentile(source_net: NetworkSpec, env: LineCatchEnv, frames,
                     norm_configs: list[NormConfig], sim_config: SimConfig,
                     eval_config: EvalConfig) -> list[ReportRow]:
    """Re-normalize per percentile config, evaluate at a fixed simulation config.

    Configs that share max_frames share one calibration pass.
    """
    if not norm_configs:
        raise ValueError("need at least one percentile value")
    rows = []
    for config, stats in zip(norm_configs, _stats_per_config(source_net, frames, norm_configs)):
        norm_net = apply_normalization(source_net, stats)
        report = evaluate(source_net, norm_net, sim_config, eval_config, env=env)
        rows.append(report_row("percentile", config.percentile, report))
    return _finish_rows(rows)


def collect_frames_by_play(source_net: NetworkSpec, env: LineCatchEnv, n_frames: int,
                           eval_config: EvalConfig) -> np.ndarray:
    """Gather calibration frames by letting the source play the environment.

    Episode i plays from derive_seed(seed, 0x10000 + i); its frames are
    taken in episode order until there are n_frames.  Episodes play in
    lockstep chunks.  No episode yields more than min(frame_budget,
    episode_len) frames, and the search gives up after 101 empty
    episodes in a row, so a chunk holds only episodes that playing one
    episode at a time would also play.
    """
    require_integer("n_frames", n_frames)
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    _check_q_width(source_net, env.action_count, "source")
    agent = AnalogAgent(source_net)
    most = max(1, min(eval_config.frame_budget, env.episode_len))
    frames: list[np.ndarray] = []
    episode = 0
    empty_streak = 0
    while len(frames) < n_frames:
        count = min(-(-(n_frames - len(frames)) // most), 101 - empty_streak)
        seeds = [derive_seed(eval_config.seed, 0x10000 + episode + k) for k in range(count)]
        episode += count
        for rec in _play_lockstep([env.clone() for _ in seeds],
                                  [np.random.default_rng(seed) for seed in seeds],
                                  agent, eval_config):
            if not rec.frames:
                # a long no-op prefix can swallow a short episode; give up
                # only when the environment never yields decisions
                empty_streak += 1
                if empty_streak > 100:
                    raise ValueError(
                        f"environment produced no decision frames in 101 episodes in a "
                        f"row: each episode's budget of {eval_config.frame_budget} "
                        f"environment steps counts its no-op prefix, which runs up to "
                        f"{eval_config.max_noop} steps (episode length {env.episode_len})")
                continue
            empty_streak = 0
            frames.extend(rec.frames)
    return np.stack(frames[:n_frames]).astype(np.float64)
