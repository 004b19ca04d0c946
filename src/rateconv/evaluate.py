"""Decision-level evaluation of a network against its spiking conversion.

Two media: replaying a recorded trace (both networks see the same
frames, nothing is executed) or playing the built-in environment (the
spiking agent acts, the source network shadows every decision).  Either
way the headline number is the conversion rate: the fraction of
decisions on which both pick the same action.

Episodes play in lockstep.  Episode i has its own environment and its
own generator, seeded derive_seed(master, i), from which it draws its
environment seed, its no-op prefix and its exploration; each round, the
live episodes' observations go to the spiking network as one run_batch,
one row per live episode in episode order.  Every run starts from rest
and a row of run_batch is bit for bit the run of that frame alone (see
rateconv.simulate), so results depend only on the seed, never on which
episodes share a round.  Analog q-values (the source playing alone,
and the shadow) stay one forward pass per observation: the rows of a
batched float64 GEMM can differ in the last bit from single-row
products, and a hidden ReLU activation carries that into a near-tie
argmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .lincatch import LineCatchEnv
from .modelio import EpisodeTrace, ReportRow
from .network import NetworkSpec, epsilon_greedy_action, forward, forward_batch, greedy_action
from .normalize import NormConfig, apply_normalization, collect_stats
from .simulate import SimConfig, readout, run_batch

CR_MODES = ("greedy", "executed")
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
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.max_noop < 0:
            raise ValueError(f"max_noop must be >= 0, got {self.max_noop}")
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
class ConversionReport:
    agreements: int
    decisions: int
    source_scores: list[float]
    snn_scores: list[float]
    per_episode_cr: list[float]
    episodes: int
    pearson_score_cr: float = float("nan")
    records: Optional[list] = field(default=None, repr=False)

    @property
    def cr(self) -> float:
        return self.agreements / self.decisions if self.decisions else float("nan")

    @property
    def scores(self) -> list[float]:
        """The spiking agent's scores if it played, else the source's."""
        return self.snn_scores or self.source_scores


# ---------------------------------------------------------------------------
# agents

class AnalogAgent:
    """Greedy values straight from the analog forward pass, one observation a call."""

    def __init__(self, net: NetworkSpec):
        self.net = net

    def qvalues(self, obs) -> np.ndarray:
        return forward(self.net, obs).qvalues


class SpikingAgent:
    """Values from spiking runs of the converted network.

    qvalues takes one observation, or a stack of them, and simulates
    them from rest in one run_batch; each row reads what a run of its
    observation alone reads, so no decision depends on another.
    """

    def __init__(self, net: NetworkSpec, sim_config: SimConfig):
        self.net = net
        self.sim_config = sim_config

    def qvalues(self, obs) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        single = obs.shape == self.net.input_shape
        values = readout(run_batch(self.net, obs[None] if single else obs, self.sim_config))
        return values[0] if single else values


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


# values(observations): one q-vector per live episode, in episode order
Values = Callable[[list[np.ndarray]], Sequence[np.ndarray]]


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
    """Reset the env from rng, then play the random-length no-op prefix."""
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


def _play_lockstep(envs: list[LineCatchEnv], rngs: list[np.random.Generator],
                   values: Values, config: EvalConfig, shadow: Optional[AnalogAgent] = None,
                   keep_frames: bool = True) -> list[PlayRecord]:
    """Play one episode per (env, rng), all advancing together.

    Each round, values(observations) gets the current observations of
    the live episodes (not done, under the frame budget), in episode
    order, and returns one q-vector per row.  Each live episode then
    draws its epsilon-greedy action from its own rng and steps its own
    env; an episode that ends leaves the next round.
    The shadow, if any, gives the source's greedy action for each row
    from its own forward pass.
    """
    episodes = [_start_episode(env, config, rng, shadow is not None)
                for env, rng in zip(envs, rngs)]
    live = [i for i, episode in enumerate(episodes) if episode.live(config)]
    while live:
        for i, q in zip(live, values([episodes[i].obs for i in live])):
            episode = episodes[i]
            rec = episode.record
            rec.greedy_actions.append(greedy_action(q))
            rec.executed_actions.append(epsilon_greedy_action(q, config.epsilon, episode.rng))
            if shadow is not None:
                rec.shadow_actions.append(greedy_action(shadow.qvalues(episode.obs)))
            if keep_frames:
                rec.frames.append(np.asarray(episode.obs, dtype=np.float32).copy())
            episode.obs, reward, episode.done = episode.env.step(rec.executed_actions[-1])
            rec.score += reward
            rec.rewards.append(reward)
            rec.env_steps += 1
        live = [i for i in live if episodes[i].live(config)]
    return [episode.record for episode in episodes]


def _each_row(agent) -> Values:
    """An agent's q-values row by row, one qvalues call per observation."""
    return lambda observations: [agent.qvalues(obs) for obs in observations]


def play_episode(env: LineCatchEnv, agent, config: EvalConfig,
                 rng: np.random.Generator, shadow: Optional[AnalogAgent] = None
                 ) -> PlayRecord:
    """One episode: random-length no-op prefix, then epsilon-greedy play.

    The environment is reseeded from `rng` before the no-op draw, so two
    calls with identically seeded rngs see the same object sequence and
    prefix regardless of which agent plays.  Forced no-op steps are not
    decisions: they carry no frames or actions in the record.  This is
    the one-episode case of the lockstep loop evaluate plays.
    """
    return _play_lockstep([env], [rng], _each_row(agent), config, shadow)[0]


# ---------------------------------------------------------------------------
# replay

def replay_trace(trace: EpisodeTrace, snn_net: NetworkSpec, sim_config: SimConfig,
                 source_net: Optional[NetworkSpec] = None, chunk: int = 256
                 ) -> ConversionReport:
    """Feed recorded frames to both networks and compare greedy decisions.

    Source actions are recomputed from source_net when given (guards
    against stale traces) and taken from the trace otherwise.  Nothing
    is executed, so exploration plays no role here.  Each distinct frame
    is simulated once and its action given to every step that shows it:
    a row of run_batch is bit for bit the run of its frame alone.
    """
    if len(trace.steps) == 0:
        raise ValueError("cannot replay an empty trace")
    obs = trace.observations().astype(np.float64)

    distinct, inverse = np.unique(obs, axis=0, return_inverse=True)
    actions = np.empty(len(distinct), dtype=np.int64)
    for start in range(0, len(distinct), chunk):
        result = run_batch(snn_net, distinct[start:start + chunk], sim_config)
        actions[start:start + chunk] = np.argmax(readout(result), axis=1)
    snn_actions = actions[inverse.reshape(-1)].tolist()

    if source_net is not None:
        _, q = forward_batch(source_net, obs)
        source_actions = [int(a) for a in np.argmax(q, axis=1)]
    else:
        source_actions = trace.actions()

    agreement = conversion_rate(snn_actions, source_actions)
    return ConversionReport(
        agreements=agreement.agreements,
        decisions=agreement.decisions,
        source_scores=[trace.total_reward()],
        snn_scores=[],
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
    """Aggregate scores and conversion rate over independent episodes.

    Plays eval_config.episodes paired episodes: the source alone for its
    score, then the spiking agent with the source shadowing for its
    score and the agreement counts.  With snn_net None the source plays
    alone (useful for recording traces).  Each play runs its episodes
    in lockstep, one spiking run_batch per round over the live episodes.
    """
    seeds = [derive_seed(eval_config.seed, i) for i in range(eval_config.episodes)]

    def play(values, shadow=None, keep_frames=keep_records) -> list[PlayRecord]:
        return _play_lockstep([env.clone() for _ in seeds],
                              [np.random.default_rng(seed) for seed in seeds],
                              values, eval_config, shadow, keep_frames)

    source = AnalogAgent(source_net)
    source_records = play(_each_row(source), keep_frames=keep_records and snn_net is None)
    records = source_records
    if snn_net is not None:
        spiking = SpikingAgent(snn_net, sim_config)
        records = play(lambda observations: spiking.qvalues(np.stack(observations)),
                       shadow=source)
    agreements = [_agreement(rec, eval_config.cr_mode) for rec in records]
    return ConversionReport(
        agreements=sum(a.agreements for a in agreements),
        decisions=sum(a.decisions for a in agreements),
        source_scores=[rec.score for rec in source_records],
        snn_scores=[rec.score for rec in records] if snn_net is not None else [],
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
    return max(-1.0, min(1.0, r))


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
               t_values: list[int], sim_config: SimConfig, eval_config: EvalConfig,
               percentile: float = 99.9, max_frames: int = 15000) -> list[ReportRow]:
    """Normalize once at the given percentile, evaluate per simulation length."""
    if not t_values:
        raise ValueError("need at least one timestep value")
    configs = [replace(sim_config, timesteps=int(t)) for t in t_values]
    stats = collect_stats(source_net, frames, NormConfig(percentile, max_frames))
    norm_net = apply_normalization(source_net, stats)
    return _finish_rows([
        report_row("time", t, evaluate(source_net, norm_net, config, eval_config, env=env))
        for t, config in zip(t_values, configs)])


def sweep_percentile(source_net: NetworkSpec, env: LineCatchEnv, frames,
                     p_values: list[float], sim_config: SimConfig,
                     eval_config: EvalConfig, max_frames: int = 15000) -> list[ReportRow]:
    """Re-normalize per percentile, evaluate at a fixed simulation length."""
    if not p_values:
        raise ValueError("need at least one percentile value")
    rows = []
    for config in [NormConfig(float(p), max_frames) for p in p_values]:
        norm_net = apply_normalization(source_net, collect_stats(source_net, frames, config))
        report = evaluate(source_net, norm_net, sim_config, eval_config, env=env)
        rows.append(report_row("percentile", config.percentile, report))
    return _finish_rows(rows)


def collect_frames_by_play(source_net: NetworkSpec, env: LineCatchEnv, n_frames: int,
                           eval_config: EvalConfig) -> np.ndarray:
    """Gather calibration frames by letting the source play the environment."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    frames: list[np.ndarray] = []
    episode = 0
    empty_streak = 0
    while len(frames) < n_frames:
        rec = play_episode(env.clone(), AnalogAgent(source_net), eval_config,
                           np.random.default_rng(derive_seed(eval_config.seed, 0x10000 + episode)))
        episode += 1
        if not rec.frames:
            # a long no-op prefix can swallow a short episode; give up only
            # when the environment never yields decisions
            empty_streak += 1
            if empty_streak > 100:
                raise ValueError("environment produced no decision frames "
                                 "(episode length or frame budget too small)")
            continue
        empty_streak = 0
        frames.extend(rec.frames)
    return np.stack(frames[:n_frames]).astype(np.float64)
