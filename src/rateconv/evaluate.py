"""Decision-level evaluation of a network against its spiking conversion.

Two media: replaying a recorded trace (both networks see the same
frames, nothing is executed) or playing the built-in environment (the
spiking agent acts, the source network shadows every decision).  Either
way the headline number is the conversion rate: the fraction of
decisions on which both pick the same action.

Episodes run one after another in index order, and episode i runs from
seed derive_seed(master, i), so results depend only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .lincatch import LineCatchEnv
from .modelio import EpisodeTrace, ReportRow
from .network import NetworkSpec, epsilon_greedy_action, forward, forward_batch, greedy_action
from .normalize import NormConfig, apply_normalization, collect_stats
from .simulate import SimConfig, init_sim, readout, run, run_batch

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
    """Greedy values straight from the analog forward pass."""

    def __init__(self, net: NetworkSpec):
        self.net = net

    def qvalues(self, obs) -> np.ndarray:
        return forward(self.net, obs).qvalues


class SpikingAgent:
    """Values from a fresh spiking run per decision (state buffers reused)."""

    def __init__(self, net: NetworkSpec, sim_config: SimConfig):
        self.net = net
        self.sim_config = sim_config
        self._state = init_sim(net, sim_config, batch=1)

    def qvalues(self, obs) -> np.ndarray:
        result = run(self.net, obs, self.sim_config, state=self._state)
        return readout(result)


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


def play_episode(env: LineCatchEnv, agent, config: EvalConfig,
                 rng: np.random.Generator, shadow: Optional[AnalogAgent] = None
                 ) -> PlayRecord:
    """One episode: random-length no-op prefix, then epsilon-greedy play.

    The environment is reseeded from `rng` before the no-op draw, so two
    calls with identically seeded rngs see the same object sequence and
    prefix regardless of which agent plays.  Forced no-op steps are not
    decisions: they carry no frames or actions in the record.
    """
    env_seed = int(rng.integers(0, 2**63))
    noop_len = int(rng.integers(0, config.max_noop + 1))
    obs = env.reset(env_seed)
    done = env.done
    score = 0.0
    steps = 0

    noops = 0
    for _ in range(noop_len):
        if done or steps >= config.frame_budget:
            break
        obs, reward, done = env.step(env.noop_action)
        score += reward
        steps += 1
        noops += 1

    executed: list[int] = []
    greedy: list[int] = []
    shadow_actions: list[int] = [] if shadow is not None else None
    frames: list[np.ndarray] = []
    rewards: list[float] = []
    while not done and steps < config.frame_budget:
        q = agent.qvalues(obs)
        intent = greedy_action(q)
        action = epsilon_greedy_action(q, config.epsilon, rng)
        if shadow is not None:
            shadow_actions.append(greedy_action(shadow.qvalues(obs)))
        frames.append(np.asarray(obs, dtype=np.float32).copy())
        greedy.append(intent)
        executed.append(action)
        obs, reward, done = env.step(action)
        score += reward
        rewards.append(reward)
        steps += 1

    return PlayRecord(score=score, executed_actions=executed, greedy_actions=greedy,
                      shadow_actions=shadow_actions, frames=frames, rewards=rewards,
                      noop_steps=noops, env_steps=steps)


# ---------------------------------------------------------------------------
# replay

def replay_trace(trace: EpisodeTrace, snn_net: NetworkSpec, sim_config: SimConfig,
                 source_net: Optional[NetworkSpec] = None, chunk: int = 256
                 ) -> ConversionReport:
    """Feed recorded frames to both networks and compare greedy decisions.

    Source actions are recomputed from source_net when given (guards
    against stale traces) and taken from the trace otherwise.  Nothing
    is executed, so exploration plays no role here.
    """
    if not trace.steps:
        raise ValueError("cannot replay an empty trace")
    obs = trace.observations().astype(np.float64)

    snn_actions: list[int] = []
    for start in range(0, obs.shape[0], chunk):
        result = run_batch(snn_net, obs[start:start + chunk], sim_config)
        snn_actions.extend(int(a) for a in np.argmax(readout(result), axis=1))

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

def evaluate(source_net: NetworkSpec, snn_net: Optional[NetworkSpec],
             sim_config: SimConfig, eval_config: EvalConfig, env: LineCatchEnv,
             keep_records: bool = False) -> ConversionReport:
    """Aggregate scores and conversion rate over independent episodes.

    Plays eval_config.episodes paired episodes: the source alone for its
    score, then the spiking agent with the source shadowing for its
    score and the agreement counts.  With snn_net None the source plays
    alone (useful for recording traces).
    """
    source = AnalogAgent(source_net)
    agreements = decisions = 0
    source_scores: list[float] = []
    snn_scores: list[float] = []
    per_episode_cr: list[float] = []
    records = []
    for i in range(eval_config.episodes):
        base = derive_seed(eval_config.seed, i)
        rec = play_episode(env.clone(), source, eval_config, np.random.default_rng(base))
        source_scores.append(rec.score)
        if snn_net is None:
            n = len(rec.greedy_actions)
            agreements += n
            decisions += n
            per_episode_cr.append(1.0)
        else:
            rec = play_episode(env.clone(), SpikingAgent(snn_net, sim_config), eval_config,
                               np.random.default_rng(base), shadow=source)
            snn_scores.append(rec.score)
            chosen = (rec.greedy_actions if eval_config.cr_mode == "greedy"
                      else rec.executed_actions)
            hits = sum(1 for a, b in zip(chosen, rec.shadow_actions) if a == b)
            agreements += hits
            decisions += len(chosen)
            per_episode_cr.append(hits / len(chosen) if chosen else float("nan"))
        if keep_records:
            records.append(rec)

    return ConversionReport(
        agreements=agreements,
        decisions=decisions,
        source_scores=source_scores,
        snn_scores=snn_scores,
        per_episode_cr=per_episode_cr,
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
                           eval_config: EvalConfig, seed: Optional[int] = None) -> np.ndarray:
    """Gather calibration frames by letting the source play the environment."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    seed = eval_config.seed if seed is None else seed
    frames: list[np.ndarray] = []
    episode = 0
    empty_streak = 0
    while len(frames) < n_frames:
        rec = play_episode(env.clone(), AnalogAgent(source_net), eval_config,
                           np.random.default_rng(derive_seed(seed, 0x10000 + episode)))
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
