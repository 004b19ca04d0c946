"""Input generator for the rateconv benchmark.

Every input is a pure function of the workload seed.  Two input sets
exist, each written to its own directory:

* ``dense``: the README random dense net (1x8x8 -> flatten -> 24 -> 3),
  built from ``default_rng(7 + seed)``, plus the number of spiking
  decisions the time sweep plays.  The sweep plays the README's
  ``--seed 3`` episodes for every seed, cut to ``SWEEP_FRAME_BUDGET``
  environment steps each, so every seed does the same amount of work;
  seed 0 is the README net.
* ``conv``: a random conv source net (1x16x16 -> conv 8@3x3/2 ->
  conv 16@3x3 -> flatten -> 32 -> 3), the frames it records playing
  16x16 LineCatch alone with ``--seed seed``, split into a 15000-frame
  calibration trace and a disjoint 256-frame replay trace, and the net
  normalized on the calibration frames.  The net is the same for every
  seed: the cost of the percentile depends on how sparse the
  activations are, which varies from net to net far more than from
  frame set to frame set.

Run as a script it generates one set; the benchmark does that in a
child process so generation never shows in its peak memory:

    python3 perfbench/inputs.py --kind conv --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# README random-net case: net from default_rng(7), sweep --seed 3.
DENSE_NET_SEED = 7
DENSE_PLAY_SEED = 3
SWEEP_VALUES = (10, 50, 500)
# Environment steps per episode (the CLI's --frame-budget).  The full
# 112-step episodes make one sweep take 15-25 s, too long to time more
# than once in a run; 24 steps keep all 10 episodes per point, each with
# at least 4 decisions, and cut the sweep to 134 decisions per point.
SWEEP_FRAME_BUDGET = 24
# CLI defaults the sweep runs with; the decision count depends on them.
SWEEP_EPISODES = 10
EPISODE_LEN = 112
MAX_NOOP = 30

CONV_GRID = 16
CONV_NET_SEED = 1000
CALIB_FRAMES = 15000
REPLAY_FRAMES = 256
PLAY_EPISODES = 200  # at least 200 * (112 - 30) = 16400 decision frames


def dense_net(seed: int):
    import rateconv as rc

    rng = np.random.default_rng(DENSE_NET_SEED + seed)
    return rc.NetworkSpec((1, 8, 8), [
        rc.flatten(),
        rc.dense(rng.normal(0, 0.2, (24, 64)), rng.normal(0, 0.05, 24)),
        rc.dense(rng.normal(0, 0.3, (3, 24)), rng.normal(0, 0.05, 3),
                 activation="none")])


def conv_net():
    import rateconv as rc

    rng = np.random.default_rng(CONV_NET_SEED)

    def he(shape, fan_in):
        return rng.normal(0.0, 1.0 / np.sqrt(fan_in), shape)

    return rc.NetworkSpec((1, CONV_GRID, CONV_GRID), [
        rc.conv2d(he((8, 1, 3, 3), 9), rng.normal(0, 0.05, 8), stride=(2, 2)),
        rc.conv2d(he((16, 8, 3, 3), 72), rng.normal(0, 0.05, 16)),
        rc.flatten(),
        rc.dense(he((32, 400), 400), rng.normal(0, 0.05, 32)),
        rc.dense(he((3, 32), 32), rng.normal(0, 0.05, 3), activation="none")])


def sweep_decisions(play_seed: int) -> int:
    """Spiking decisions of the whole time sweep, from the episode seeds alone.

    Each episode draws its environment seed and no-op prefix length
    first; every remaining step of the episode, up to the frame budget,
    is one decision, whichever agent plays.
    """
    from rateconv import derive_seed

    per_point = 0
    for i in range(SWEEP_EPISODES):
        rng = np.random.default_rng(derive_seed(play_seed, i))
        rng.integers(0, 2**63)
        noop = int(rng.integers(0, MAX_NOOP + 1))
        per_point += max(min(EPISODE_LEN, SWEEP_FRAME_BUDGET) - noop, 0)
    return per_point * len(SWEEP_VALUES)


def generate_dense(seed: int, out: Path) -> dict:
    import rateconv as rc

    rc.save_model(dense_net(seed), out / "model")
    return {"play_seed": DENSE_PLAY_SEED, "frame_budget": SWEEP_FRAME_BUDGET,
            "decisions": sweep_decisions(DENSE_PLAY_SEED)}


def generate_conv(seed: int, out: Path) -> dict:
    import rateconv as rc
    from rateconv.cli import main as cli_main

    source = conv_net()
    rc.save_model(source, out / "source")
    played = out / "play.trace"
    code = cli_main(["play", "--model", str(out / "source"), "--episodes", str(PLAY_EPISODES),
                     "--grid-size", str(CONV_GRID), "--seed", str(seed),
                     "--record-trace", str(played), "--out", str(out / "play.csv")])
    if code != 0:
        raise RuntimeError(f"recording play exited with {code}")
    trace = rc.read_trace(played)
    need = CALIB_FRAMES + REPLAY_FRAMES
    if len(trace.steps) < need:
        raise RuntimeError(f"play recorded {len(trace.steps)} frames, need {need}")
    calib = rc.EpisodeTrace(trace.action_count, trace.observation_shape,
                            trace.steps[:CALIB_FRAMES])
    replay = rc.EpisodeTrace(trace.action_count, trace.observation_shape,
                             trace.steps[CALIB_FRAMES:need])
    rc.write_trace(calib, out / "calib.trace")
    rc.write_trace(replay, out / "replay.trace")
    stats = rc.collect_stats(source, calib.observations(), rc.NormConfig())
    rc.save_model(rc.apply_normalization(source, stats), out / "snn")
    played.unlink()
    (out / "play.csv").unlink()
    (out / "play.csv.meta.json").unlink()
    return {"calib_frames": CALIB_FRAMES, "replay_frames": REPLAY_FRAMES,
            "decisions": REPLAY_FRAMES}


GENERATORS = {"dense": generate_dense, "conv": generate_conv}


def generate(kind: str, seed: int, out: Path) -> None:
    """Write input set `kind` for `seed` into `out`, all or nothing."""
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    info = GENERATORS[kind](seed, tmp)
    info.update(kind=kind, seed=seed)
    (tmp / "inputs.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(out, ignore_errors=True)
    tmp.replace(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    generate(args.kind, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
