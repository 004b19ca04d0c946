"""Command-line pipeline: stats -> normalize -> simulate/replay/play -> sweep.

Exit codes: 0 success, 1 usage error (bad flags or parameter values),
2 data error (missing or malformed files, shape mismatches, a model
whose q-values do not match the action count, or one too large to
allocate).

Defaults reproduce the standard protocol: 500 timesteps, threshold 1.0,
robust readout, percentile 99.9, epsilon 0.05, up to 30 no-op starts,
at most 15000 calibration frames, 10 episodes per sweep point and 50
for plain evaluation.  All randomness derives from --seed, so reruns
with the same flags produce identical bytes.  Reports gain a
"<out>.meta.json" sidecar recording the full protocol configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import closing
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import modelio
from .evaluate import (CR_MODES, EvalConfig, collect_frames_by_play, evaluate, mean_std,
                       replay_trace, report_row, sweep_percentile, sweep_time)
from .lincatch import LineCatchEnv
from .modelio import EpisodeTrace, FormatError
from .network import NetworkSpec, greedy_action, require_stack
from .normalize import (STATS_CHUNK, NormConfig, apply_normalization, collect_stats, load_stats,
                        save_stats)
from .simulate import READOUTS, SimConfig, diagnostics, readout, run

DEFAULT_TIME_VALUES = [100, 500]
DEFAULT_PERCENTILE_VALUES = [99.9, 99.99]
SWEEP_EPISODES = 10
EVAL_EPISODES = 50
CALIBRATION_FRAMES = 512


class UsageError(Exception):
    """Bad parameter values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_sim_flags(p):
    p.add_argument("--timesteps", type=int, default=500,
                   help="simulation steps per decision (default 500)")
    p.add_argument("--vthr", type=float, default=1.0, help="spike threshold (default 1.0)")
    p.add_argument("--readout", choices=READOUTS, default="robust",
                   help="output readout (default robust)")


def _add_eval_flags(p, episodes):
    p.add_argument("--episodes", type=int, default=episodes,
                   help=f"episodes to run (default {episodes})")
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="exploration probability (default 0.05)")
    p.add_argument("--max-noop", type=int, default=30,
                   help="max random no-op starts (default 30)")
    p.add_argument("--frame-budget", type=int, default=18000,
                   help="max environment steps per episode (default 18000)")
    p.add_argument("--cr-mode", choices=CR_MODES, default="greedy",
                   help="compare greedy intents or executed actions (default greedy)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_env_flags(p):
    p.add_argument("--grid-size", type=int, default=8, help="environment grid (default 8)")
    p.add_argument("--episode-len", type=int, default=112,
                   help="environment steps per episode (default 112)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rateconv",
                     description="Convert value networks to spiking networks and "
                                 "measure how faithfully they act.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[], help="collect activation scale statistics")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--frames", required=True, help="frame blob or trace file")
    p.add_argument("--percentile", type=float, default=99.9,
                   help="scale percentile in [99, 100] (default 99.9)")
    p.add_argument("--max-frames", type=int, default=15000,
                   help="calibration frame cap (default 15000)")
    p.add_argument("--provenance", default="", help="free-form note on frame origin")
    p.add_argument("--out", required=True, help="stats JSON output path")

    p = sub.add_parser("normalize", help="rescale a model by collected statistics")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True, help="stats JSON from the stats command")
    p.add_argument("--out", required=True, help="output model directory")

    p = sub.add_parser("simulate", help="run the spiking network on one frame")
    p.add_argument("--model", required=True)
    p.add_argument("--frame", required=True, help="frame blob (or trace; first frame)")
    _add_sim_flags(p)
    p.add_argument("--diagnose", metavar="PATH", default=None,
                   help="also write identity residuals and case counts as JSON")

    p = sub.add_parser("replay", help="replay a trace through source and conversion")
    p.add_argument("--snn-model", required=True, help="converted model directory")
    p.add_argument("--source", default=None,
                   help="source model directory (else trust trace actions)")
    p.add_argument("--trace", required=True)
    _add_sim_flags(p)
    p.add_argument("--out", required=True, help="report CSV path")

    p = sub.add_parser("play", help="play the built-in environment")
    p.add_argument("--model", required=True, help="source model directory")
    p.add_argument("--snn-model", default=None,
                   help="converted model; omit to play the source alone")
    _add_sim_flags(p)
    _add_eval_flags(p, EVAL_EPISODES)
    _add_env_flags(p)
    p.add_argument("--record-trace", metavar="PATH", default=None,
                   help="record decision frames and source actions to a trace file")
    p.add_argument("--out", required=True, help="report CSV path")

    p = sub.add_parser("sweep", help="sweep simulation time or percentile")
    p.add_argument("--mode", choices=("time", "percentile"), required=True)
    p.add_argument("--values", default=None,
                   help="comma-separated sweep values (defaults: time 100,500; "
                        "percentile 99.9,99.99)")
    p.add_argument("--model", required=True, help="source model directory")
    p.add_argument("--frames", default=None,
                   help="calibration frames (blob or trace); collected by play if omitted")
    p.add_argument("--percentile", type=float, default=99.9,
                   help="fixed percentile for time sweeps (default 99.9)")
    p.add_argument("--max-frames", type=int, default=15000)
    _add_sim_flags(p)
    _add_eval_flags(p, SWEEP_EPISODES)
    _add_env_flags(p)
    p.add_argument("--out", required=True, help="report CSV path")

    return parser


# ---------------------------------------------------------------------------
# configs from flags: the config classes hold the range rules

def _usage(build, *args, **kwargs):
    """build(*args, **kwargs), with a rejected value reported as a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _sim_config(args) -> SimConfig:
    """The simulation settings given by --timesteps, --vthr and --readout."""
    return _usage(SimConfig, timesteps=args.timesteps, v_thr=args.vthr, readout=args.readout)


def _protocol(args) -> tuple[SimConfig, EvalConfig, LineCatchEnv]:
    """Simulation, evaluation and environment settings of play and sweep."""
    sim_config = _sim_config(args)
    eval_config = _usage(EvalConfig, epsilon=args.epsilon, max_noop=args.max_noop,
                         episodes=args.episodes, seed=args.seed,
                         frame_budget=args.frame_budget, cr_mode=args.cr_mode)
    if args.episode_len < 1:  # LineCatchEnv accepts 0, but such episodes have no decisions
        raise UsageError(f"--episode-len must be >= 1, got {args.episode_len}")
    env = _usage(LineCatchEnv, grid_size=args.grid_size, episode_len=args.episode_len)
    return sim_config, eval_config, env


def _protocol_meta(sim_config: SimConfig, eval_config: EvalConfig,
                   env: LineCatchEnv) -> dict:
    """Sidecar keys shared by play and sweep."""
    return {**asdict(eval_config), "timesteps": sim_config.timesteps,
            "v_thr": sim_config.v_thr, "readout": sim_config.readout,
            "grid_size": env.grid_size, "episode_len": env.episode_len}


def _parse_values(raw: str | None, mode: str) -> list[float]:
    if raw is None:
        return [float(v) for v in
                (DEFAULT_TIME_VALUES if mode == "time" else DEFAULT_PERCENTILE_VALUES)]
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise UsageError("--values must list at least one number")
    try:
        values = [float(s) for s in items]
    except ValueError as exc:
        raise UsageError(f"--values failed to parse: {exc}") from exc
    if mode == "time" and not all(v.is_integer() for v in values):
        raise UsageError(f"time values must be integers, got {raw}")
    return values


def _finite_or_null(value):
    """value with every non-finite float in it replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path, payload: dict) -> None:
    """payload as strict JSON: a NaN or infinite value is written as null."""
    Path(path).write_text(
        json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_meta(out_path: str, payload: dict) -> None:
    """The report's sidecar."""
    _write_json(str(out_path) + ".meta.json", payload)


def _unit_frames(path, windows) -> None:
    """FormatError naming the file and its first pixel outside [0, 1], over
    windows of frames in order.  Normalization assumes an input scale of
    1, and an input neuron fires at most once per step.  NaN passes here
    and is rejected as non-finite where the frames are used.  Every
    window is read before the error is raised, so a trace read window by
    window reports a fault in its structure anywhere first."""
    first = None
    for frames in windows:
        # NaN fails the min/max test too; only then are masks built
        if first is None and frames.size and not (frames.min() >= 0.0 and frames.max() <= 1.0):
            outside = (frames < 0.0) | (frames > 1.0)
            if outside.any():
                first = frames.flat[np.argmax(outside)]
    if first is not None:
        raise FormatError(f"{path}: pixel value {first} outside [0, 1]")


def _load_frames(path, frame_shape=None, net: Optional[NetworkSpec] = None):
    """The frames of a trace or blob (modelio.open_frames) once they stack
    over net's input, if net is given, and every pixel is checked to lie
    in [0, 1], one STATS_CHUNK window at a time; the calibration pass
    reads them again, window by window.  The stack check comes first, so
    frames that no pass could use are refused before any is read."""
    frames = modelio.open_frames(path, frame_shape)
    if net is not None:
        require_stack(net, frames.shape)
    _unit_frames(path, (window for _, window in frames.frame_windows(STATS_CHUNK)))
    return frames


def _load_frame(path: str, input_shape) -> np.ndarray:
    """Frame 0 of a trace or of a stacked blob, or a blob of one frame (one
    not stacked over input_shape), once _load_frames' checks pass: only
    that frame is kept."""
    p = Path(path)
    frames = _load_frames(p, input_shape)
    with closing(frames.frame_windows(1)) as windows:  # closes the file
        for _, window in windows:
            return window[0].astype(np.float64)
    raise FormatError(f"{p}: {frames.kind} contains no frames")


# ---------------------------------------------------------------------------
# commands

def cmd_stats(args) -> int:
    config = _usage(NormConfig, args.percentile, args.max_frames)
    net = modelio.load_model(args.model)
    frames = _load_frames(args.frames, net=net)
    stats = collect_stats(net, frames, config, provenance=args.provenance or str(args.frames))
    save_stats(stats, args.out)
    print(f"wrote {args.out}: {len(stats.scales)} scales, "
          f"{len(stats.warnings)} warnings")
    return 0


def cmd_normalize(args) -> int:
    net = modelio.load_model(args.model)
    stats = load_stats(args.stats)
    modelio.save_model(apply_normalization(net, stats), args.out)
    print(f"wrote normalized model to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    config = _sim_config(args)
    net = modelio.load_model(args.model)
    frame = _load_frame(args.frame, net.input_shape)
    result = run(net, frame, config)
    values = readout(result)
    print("readout:", " ".join(format(v, ".9g") for v in values))
    print("action:", greedy_action(values))
    if args.diagnose:
        _write_json(args.diagnose, diagnostics(result, net, frame=frame))
        print(f"wrote diagnostics to {args.diagnose}")
    return 0


def cmd_replay(args) -> int:
    config = _sim_config(args)
    snn_net = modelio.load_model(args.snn_model)
    source = modelio.load_model(args.source) if args.source else None
    trace = modelio.read_trace(args.trace)
    _unit_frames(args.trace, [trace.observations()])
    report = replay_trace(trace, snn_net, config, source_net=source)
    modelio.write_report([report_row("replay", config.timesteps, report)], args.out)
    _write_meta(args.out, {
        "command": "replay", "timesteps": config.timesteps, "v_thr": config.v_thr,
        "readout": config.readout, "decisions": report.decisions,
        "agreements": report.agreements, "conversion_rate": report.cr,
        "source_recomputed": args.source is not None,
    })
    print(f"conversion rate {report.cr:.6f} "
          f"({report.agreements}/{report.decisions} decisions)")
    return 0


def _record_trace(records, env: LineCatchEnv, path: str) -> None:
    steps = np.array([
        (obs, action, reward)
        for rec in records
        for obs, action, reward in zip(
            rec.frames,
            rec.shadow_actions if rec.shadow_actions is not None else rec.greedy_actions,
            rec.rewards)
    ], dtype=modelio.step_dtype(env.observation_shape))
    modelio.write_trace(EpisodeTrace(env.action_count, env.observation_shape, steps), path)


def cmd_play(args) -> int:
    sim_config, eval_config, env = _protocol(args)
    source = modelio.load_model(args.model)
    snn_net = modelio.load_model(args.snn_model) if args.snn_model else None
    report = evaluate(source, snn_net, sim_config, eval_config, env=env,
                      keep_records=args.record_trace is not None)
    # mean_source_score: the source alone, on the same environment seeds and no-op prefixes
    source_report = report if snn_net is None else evaluate(source, None, sim_config,
                                                            eval_config, env=env)
    if args.record_trace:
        _record_trace(report.records, env, args.record_trace)
    row = report_row("play", sim_config.timesteps, report)
    modelio.write_report([row], args.out)
    _write_meta(args.out, {
        **_protocol_meta(sim_config, eval_config, env), "command": "play",
        "spiking_agent": snn_net is not None,
        "mean_source_score": mean_std(source_report.scores)[0],
        "conversion_rate": report.cr,
    })
    print(f"mean score {row.mean_score:.3f} over {eval_config.episodes} episodes, "
          f"conversion rate {report.cr:.6f}")
    return 0


def cmd_sweep(args) -> int:
    sim_config, eval_config, env = _protocol(args)
    if not args.frames and eval_config.frame_budget == 0:
        raise UsageError("--frame-budget 0 leaves no decisions to collect calibration "
                         "frames from; give --frames or a positive budget")
    norm_config = _usage(NormConfig, args.percentile, args.max_frames)
    values = _parse_values(args.values, args.mode)
    # each point's config, so a bad value fails before any file is read
    if args.mode == "time":
        sweep, fixed = sweep_time, norm_config
        points = [_usage(replace, sim_config, timesteps=int(v)) for v in values]
    else:
        sweep, fixed = sweep_percentile, sim_config
        points = [_usage(NormConfig, v, args.max_frames) for v in values]
    source = modelio.load_model(args.model)

    if args.frames:
        frames = _load_frames(args.frames, net=source)
    else:
        frames = collect_frames_by_play(source, env, CALIBRATION_FRAMES, eval_config)
    rows = sweep(source, env, frames, points, fixed, eval_config)
    modelio.write_report(rows, args.out)
    _write_meta(args.out, {
        **_protocol_meta(sim_config, eval_config, env), "command": "sweep",
        "mode": args.mode, "values": values, "percentile": args.percentile,
        "calibration_frames": int(frames.shape[0]),
        "points": [{"value": r.value, "mean_score": r.mean_score,
                    "std_score": r.std_score, "mean_cr": r.mean_cr,
                    "std_cr": r.std_cr} for r in rows],
    })
    print(f"wrote {len(rows)} sweep rows to {args.out} "
          f"(pearson {rows[0].pearson_score_cr:.6g})")
    return 0


COMMANDS = {
    "stats": cmd_stats,
    "normalize": cmd_normalize,
    "simulate": cmd_simulate,
    "replay": cmd_replay,
    "play": cmd_play,
    "sweep": cmd_sweep,
}


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for reuse rather than return it.

    A calibration pass allocates and frees about 15 MB of arrays per
    STATS_CHUNK frames of calibrate-conv's net.  glibc sets its mmap and
    trim thresholds from the largest block freed so far; with the trace
    streamed, nothing larger than one chunk's arrays is freed first, so
    each chunk's arrays went back to the system and faulted back in:
    0.14 s of system time per 15000 frames.  Fixed thresholds keep them.
    A C library without mallopt is left as it is.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: up to 64 MiB free at its top stays


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"rateconv {args.command}: {exc}", file=sys.stderr)
        return 1
    except (FormatError, FileNotFoundError, NotADirectoryError, IsADirectoryError,
            PermissionError, ValueError, OSError) as exc:
        print(f"rateconv {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a huge conv padding: its arrays cannot be allocated
        print(f"rateconv {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
