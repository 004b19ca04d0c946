"""The benchmark's workloads: the CLI commands each runs and what it checks.

All three are closed loops with one client: one process, one thread,
commands issued back to back through ``rateconv.cli.main``.

sweep-dense
    ``rateconv sweep --mode time --values 10,50,500`` on the README
    random dense net, playing 8x8 LineCatch with the play-based
    512-frame calibration: 10 episodes per point, each cut to 24
    environment steps (``--frame-budget``) so that one sweep takes a
    few seconds and a run times several.  Each decision is a batch-1,
    T-step spiking run, so per-step Python overhead dominates: ``simulate.step``,
    ``simulate.if_step`` and settle tracking in ``run_batch``, plus the
    ``evaluate`` and ``lincatch`` loop.  No conv runs here, so a
    conv-kernel change must show no change.
replay-conv
    ``rateconv replay --source`` at T=500 of a 256-frame 16x16
    LineCatch trace through the normalized conv net, one ``run_batch``
    of 256 frames.  The affine map dominates (the ``conv2d_batch``
    einsum); ``evaluate`` and ``lincatch`` do no work, so lockstep
    episodes must show no change here, while time-blocking and the conv
    kernel do.
calibrate-conv
    ``rateconv stats`` on 15000 frames recorded from the same conv
    source, then ``rateconv normalize``.  The same conv layers run on
    analog float inputs once per frame in 1024-row chunks instead of
    0/1 spikes 500 times per frame, plus ``normalize.percentile`` over
    pools of about 10^6 samples per layer and ``modelio`` trace read
    and model write.  ``simulate`` does no work, so a simulator change
    must show no change.

An operation is a workload's commands run once, timed as a whole, so
its time includes the commands' own reads of their model, trace and
frame files; the set-up probes time the same reads separately.
"""

from __future__ import annotations

import csv
from pathlib import Path

import inputs


class Workload:
    name = ""
    kind = ""    # input set from inputs.py
    why = ""
    items = ""   # what one unit of throughput is, for the report

    def commands(self, inp: Path, info: dict, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def warmup(self, inp: Path, info: dict, out: Path) -> list[list[str]]:
        """A cheap run of the same code paths, so lazy set-up is paid before timing."""
        raise NotImplementedError

    def outputs(self, out: Path) -> list[Path]:
        raise NotImplementedError

    def loads(self, inp: Path) -> list[tuple[str, str]]:
        """(modelio function, path) pairs the command reads: part of set-up."""
        raise NotImplementedError

    def item_count(self, info: dict) -> int:
        raise NotImplementedError

    def expected_counts(self, info: dict) -> dict:
        """Per-operation span counts the inputs fix in advance."""
        raise NotImplementedError

    def sample(self, inp: Path, info: dict, out: Path):
        """(normalized net, frames) for the decision re-run check."""
        raise NotImplementedError

    def conversion_rate(self, out: Path):
        return None


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class SweepDense(Workload):
    name = "sweep-dense"
    kind = "dense"
    why = ("README time sweep on the dense net: batch-1 T-step decisions, so per-step "
           "Python overhead in simulate, evaluate and lincatch dominates; no conv runs")
    items = "decisions"

    def _argv(self, inp, info, out, values, extra=()):
        return ["sweep", "--mode", "time", "--values", values, "--model", str(inp / "model"),
                "--seed", str(info["play_seed"]), "--frame-budget", str(info["frame_budget"]),
                *extra, "--out", str(out)]

    def commands(self, inp, info, out):
        values = ",".join(str(v) for v in inputs.SWEEP_VALUES)
        return [self._argv(inp, info, out / "sweep.csv", values)]

    def warmup(self, inp, info, out):
        return [self._argv(inp, info, out / "warm.csv", "10", ("--episodes", "1"))]

    def outputs(self, out):
        return [out / "sweep.csv", out / "sweep.csv.meta.json"]

    def loads(self, inp):
        return [("load_model", str(inp / "model"))]

    def item_count(self, info):
        return info["decisions"]

    def expected_counts(self, info):
        return {"simulate.decisions": info["decisions"]}

    def sample(self, inp, info, out):
        # Rebuild the normalized net the sweep built: the same play-based
        # calibration frames, percentile and frame cap as the CLI defaults.
        import rateconv as rc
        from rateconv.cli import CALIBRATION_FRAMES

        source = rc.load_model(inp / "model")
        play = rc.EvalConfig(episodes=1, seed=info["play_seed"],
                             frame_budget=info["frame_budget"])
        frames = rc.collect_frames_by_play(source, rc.LineCatchEnv(), CALIBRATION_FRAMES, play)
        net = rc.apply_normalization(source, rc.collect_stats(source, frames, rc.NormConfig()))
        return net, frames[::CALIBRATION_FRAMES // 16]

    def conversion_rate(self, out):
        rows = _csv_rows(out / "sweep.csv")
        return float(next(r["mean_cr"] for r in rows
                          if float(r["value"]) == max(inputs.SWEEP_VALUES)))


class ReplayConv(Workload):
    name = "replay-conv"
    kind = "conv"
    why = ("T=500 replay of 256 frames through the conv net in one run_batch: the conv "
           "affine map dominates; evaluate and lincatch do no work")
    items = "decisions"

    def _argv(self, inp, out, extra=()):
        return ["replay", "--snn-model", str(inp / "snn"), "--source", str(inp / "source"),
                "--trace", str(inp / "replay.trace"), *extra, "--out", str(out)]

    def commands(self, inp, info, out):
        return [self._argv(inp, out / "replay.csv")]

    def warmup(self, inp, info, out):
        return [self._argv(inp, out / "warm.csv", ("--timesteps", "5"))]

    def outputs(self, out):
        return [out / "replay.csv", out / "replay.csv.meta.json"]

    def loads(self, inp):
        return [("load_model", str(inp / "snn")), ("load_model", str(inp / "source")),
                ("read_trace", str(inp / "replay.trace"))]

    def item_count(self, info):
        return info["decisions"]

    def expected_counts(self, info):
        return {"simulate.decisions": info["decisions"],
                "network.forward_batch.rows": info["replay_frames"]}

    def sample(self, inp, info, out):
        import rateconv as rc

        frames = rc.read_trace(inp / "replay.trace").observations()
        return rc.load_model(inp / "snn"), frames[::len(frames) // 16]

    def conversion_rate(self, out):
        return float(_csv_rows(out / "replay.csv")[0]["mean_cr"])


class CalibrateConv(Workload):
    name = "calibrate-conv"
    kind = "conv"
    why = ("stats on 15000 frames then normalize: conv layers on analog inputs in 1024-row "
           "chunks, percentile over ~10^6 samples per layer, trace read and model write")
    items = "calib_frames"

    def _argv(self, inp, out, extra=()):
        return [["stats", "--model", str(inp / "source"), "--frames", str(inp / "calib.trace"),
                 "--provenance", "calibration", *extra, "--out", str(out / "stats.json")],
                ["normalize", "--model", str(inp / "source"), "--stats",
                 str(out / "stats.json"), "--out", str(out / "snn")]]

    def commands(self, inp, info, out):
        return self._argv(inp, out)

    def warmup(self, inp, info, out):
        warm = out / "warm"
        warm.mkdir(exist_ok=True)
        return self._argv(inp, warm, ("--max-frames", "1024"))

    def outputs(self, out):
        snn = out / "snn"
        blobs = sorted(snn.glob("*.bin")) if snn.is_dir() else []
        return [out / "stats.json", snn / "manifest.json", *blobs]

    def loads(self, inp):
        return [("load_model", str(inp / "source")), ("load_frames", str(inp / "calib.trace"))]

    def item_count(self, info):
        return info["calib_frames"]

    def expected_counts(self, info):
        return {"simulate.decisions": 0, "network.forward_batch.rows": info["calib_frames"]}

    def sample(self, inp, info, out):
        import rateconv as rc

        frames = rc.load_frames(inp / "calib.trace")
        return rc.load_model(out / "snn"), frames[::len(frames) // 15]


WORKLOADS = {w.name: w for w in (SweepDense(), ReplayConv(), CalibrateConv())}
