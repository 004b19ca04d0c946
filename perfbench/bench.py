"""Measurement, output checks and reporting for one workload run.

Times are reported in reference seconds.  A shared 2-vCPU Xeon host
was measured changing speed by 30-45 % within minutes, for every kind
of code alike (interpreter loops, small numpy calls, BLAS), with what
else ran on the machine.  So the benchmark also times a fixed
pure-Python loop (``reference_ns``) while it measures, and scales each
measured time by ``REF_NOMINAL_NS`` over the median loop speed seen
meanwhile: a time in reference seconds is what the same work takes on
this host when the loop runs at ``REF_NOMINAL_NS`` per iteration.
The loop does not touch rateconv, so a change to the program cannot
move it.  The raw seconds and the scales are printed as report lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_build" / "perfbench"
BASELINE = HERE / "baseline.json"

SETUP_PROBES = 7
# Median speed of the reference loop on the host the baseline was recorded
# on (2-vCPU Intel Xeon, Python 3.11), so reference seconds read close to
# that host's seconds.
REF_NOMINAL_NS = 93.0
SETUP_REF_LOOPS = 1_500_000  # about 0.14 s before each set-up probe
OP_REF_LOOPS = 50_000        # about 5 ms, every OP_REF_INTERVAL_S of an operation
OP_REF_INTERVAL_S = 0.25
IDENTITY_TOL = 1e-9  # bookkeeping residual and robust-readout exactness
CHILD_TIMEOUT = 150  # well inside the 180 s a whole run may take

# Each probe is a fresh interpreter: import rateconv, then read what the
# command reads.  Interpreter start-up itself is not counted.
PROBE = """import time
t0 = time.perf_counter()
import rateconv
from rateconv import modelio
for fn, path in {loads!r}:
    getattr(modelio, fn)(path)
print(time.perf_counter() - t0)
"""


def machine_info() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                         "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def ensure_inputs(kind: str, seed: int) -> Path:
    # Keyed by the bytes of the generator and of the program it runs (the
    # recorded trace and the normalized net come from rateconv), so a
    # change to either never reuses stale inputs.
    sources = [HERE / "inputs.py", *sorted((ROOT / "src" / "rateconv").glob("*.py"))]
    h = hashlib.sha256()
    for f in sources:
        h.update(f.read_bytes())
    version = h.hexdigest()[:12]
    path = CACHE / "inputs" / f"{kind}-{seed}-{version}"
    if not (path / "inputs.json").is_file():
        for stale in path.parent.glob(f"{kind}-{seed}-*"):
            shutil.rmtree(stale, ignore_errors=True)
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--kind", kind,
                        "--seed", str(seed), "--out", str(path)],
                       check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
    return path


def reference_ns(loops: int) -> float:
    """Nanoseconds per iteration of a fixed pure-Python loop: the host's current speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return (perf_counter() - t0) * 1e9 / loops


class HostSpeed:
    """Samples the reference loop while an operation runs.

    One sample is taken on creation; inside ``with``, a SIGALRM handler
    takes one every OP_REF_INTERVAL_S, between the program's bytecodes,
    so the samples cover the operation's whole interval.  ``spent`` is
    the time the handler took, for the caller to subtract.
    """

    def __init__(self):
        self.samples = [reference_ns(OP_REF_LOOPS)]
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_ns(OP_REF_LOOPS))
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, OP_REF_INTERVAL_S, OP_REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference seconds per raw second."""
        return REF_NOMINAL_NS / statistics.median(self.samples)


def setup_seconds(loads) -> tuple[list, list]:
    """(probe seconds, reference-loop ns), one reference before each probe.

    No sampling during a probe: the loop would compete with the probe's
    interpreter for the host's other CPU."""
    code = PROBE.format(loads=loads)
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_ns(SETUP_REF_LOOPS))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, cwd=ROOT, timeout=CHILD_TIMEOUT)
        times.append(float(done.stdout.split()[-1]))
    return times, refs


def digest(out: Path, files) -> dict:
    result = {}
    for f in files:
        key = f.relative_to(out).as_posix()
        result[key] = hashlib.sha256(f.read_bytes()).hexdigest() if f.is_file() else "missing"
    return result


def recorded_digests(workload: str, seed: int):
    if not BASELINE.is_file():
        return None
    table = json.loads(BASELINE.read_text()).get("digests", {})
    return table.get(workload, {}).get(str(seed))


def run_commands(argvs, speed=None) -> tuple[float, list]:
    """Run CLI commands back to back; returns (seconds, exit codes).

    With a HostSpeed, it samples throughout and its handler's time is
    not counted."""
    cli = importlib.import_module("rateconv.cli")  # look up main each time: tracing rebinds it
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), speed or contextlib.nullcontext():
        t0 = perf_counter()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crashing command is a failed operation, not a crashed run
                traceback.print_exc()
                codes.append("exception")
        seconds = perf_counter() - t0 - (speed.spent if speed else 0.0)
    return seconds, codes


def check_decisions(net, frames) -> tuple[float, float]:
    """Re-run sample decisions at T=500: (max identity residual, max robust-readout error).

    The robust readout must equal the normalized net's output layer
    applied, in analog, to the rates the spiking net fed it.
    """
    import rateconv as rc
    from rateconv.network import apply_layer_linear

    frames = np.asarray(frames, dtype=np.float64)
    result = rc.run_batch(net, frames, rc.SimConfig())
    residual = max(rc.layer_identity_residual(result, net, frame=frames))
    prev = result.rates[-2].reshape(len(frames), -1)
    analog = apply_layer_linear(net.layers[-1], prev) / result.v_thr
    return residual, float(np.max(np.abs(rc.robust_readout(result) - analog)))


class Runner:
    """One workload run: inputs, set-up, timed operations, checks."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.inp = ensure_inputs(workload.kind, seed)
        self.info = json.loads((self.inp / "inputs.json").read_text())
        self.out = CACHE / "work" / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.recorded = recorded_digests(workload.name, seed)
        self.reference = self.recorded
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def warmup(self):
        _, codes = run_commands(self.wl.warmup(self.inp, self.info, self.out))
        if any(c != 0 for c in codes):
            self.problems.append(f"warm-up exit codes {codes}")

    def op(self, speed=None) -> float:
        """One timed operation, checked outside the timed region."""
        for f in self.wl.outputs(self.out):
            f.unlink(missing_ok=True)
        seconds, codes = run_commands(self.wl.commands(self.inp, self.info, self.out), speed)
        got = digest(self.out, self.wl.outputs(self.out))
        if self.reference is None:
            self.reference = got
        self.attempted += 1
        bad = [c for c in codes if c != 0]
        if bad or got != self.reference:
            self.failed += 1
            self.problems.append(f"op {self.attempted}: exit codes {codes}, "
                                 f"digests {'match' if got == self.reference else 'differ'}")
        return seconds

    def check_sample(self):
        """Decision re-run check; a failure fails every operation, since all
        operations produced the same bytes from the same simulator."""
        try:
            residual, readout_err = check_decisions(*self.wl.sample(self.inp, self.info, self.out))
        except Exception:
            traceback.print_exc()
            residual = readout_err = float("inf")
        ok = residual <= IDENTITY_TOL and readout_err <= IDENTITY_TOL
        if not ok:
            self.failed = self.attempted
            self.problems.append(f"sample check: identity residual {residual:.3e}, "
                                 f"robust readout error {readout_err:.3e}")
        return {"identity_residual_max": residual, "robust_readout_err_max": readout_err}


def measure(runner, seconds: float, tracer=None) -> tuple[list, list, list]:
    """Timed operations until `seconds` are used: (untraced op seconds,
    their reference seconds per raw second, traced op seconds).  With a
    tracer every untraced op is followed by a traced one."""
    plain, scales, traced = [], [], []
    start = perf_counter()
    while True:
        speed = HostSpeed()
        plain.append(runner.op(speed))
        scales.append(speed.scale())
        if tracer is not None:
            tracer.install(SPANS)
            try:
                traced.append(runner.op())
            finally:
                tracer.uninstall()
        used = perf_counter() - start
        if used + used / len(plain) > seconds:
            break
    return plain, scales, traced


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    machine = machine_info()
    runner = Runner(workload, seed)
    tracer = Tracer() if trace else None
    try:
        setup_times, setup_refs = setup_seconds(workload.loads(runner.inp))
        runner.warmup()
        times, scales, traced = measure(runner, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sample = runner.check_sample()
        cr = None
        with contextlib.suppress(OSError, KeyError, ValueError, StopIteration):
            cr = workload.conversion_rate(runner.out)  # absent when the command failed
    finally:
        runner.close()

    setup_scale = REF_NOMINAL_NS / statistics.median(setup_refs)
    setup = statistics.median(setup_times) * setup_scale
    wall = statistics.median(t * s for t, s in zip(times, scales))
    items = workload.item_count(runner.info)
    end_to_end = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "frames_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    print(f"perfbench workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("inputs " + json.dumps(runner.info, sort_keys=True))
    print(f"ops {len(times)} untraced, raw command seconds "
          + " ".join(f"{t:.4f}" for t in times))
    print("reference seconds per raw second, ops " + " ".join(f"{s:.4f}" for s in scales)
          + f"; set-up {setup_scale:.4f}")
    print(f"raw setup_s {statistics.median(setup_times):.6g} s, "
          f"raw wall_s {statistics.median(times):.6g} s")
    digest_note = ("recorded for this seed on the seed commit" if runner.recorded
                   else "no recorded digest for this seed: checked for repeatability only")
    print(f"check digests: {digest_note}")
    print("check sample " + json.dumps(sample))
    for p in runner.problems:
        print(f"check FAILED {p}")
    # Per-workload names for the same numbers, plus the ones that are not
    # end-to-end metrics of every workload.
    report = dict(end_to_end)
    report[f"{workload.items}_per_s"] = end_to_end["frames_per_s"]
    if cr is not None:
        report["conversion_rate"] = (cr, "ratio")
    report["ops_failed_frac"] = (runner.failed / max(runner.attempted, 1), "ratio")
    for name, (value, unit) in report.items():
        print(f"metric {name} {value:.6g} {unit}")

    if trace:
        metrics = per_layer(tracer, workload, runner.info, traced, times)
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics of the traced operations

def reconcile(tr: Tracer, workload, info: dict, n: int) -> list[str]:
    """Counts the inputs fix in advance, checked against what the spans saw."""
    problems = [f"{name} hook failed: {err}" for name, err in tr.hook_errors.items()]
    for layer in set(tr.expected_rows) | set(tr.simulated_rows):
        want, got = tr.expected_rows[layer], tr.simulated_rows[layer]
        if want != got:
            problems.append(f"layer rows via simulate: {got} != sum T*batch {want}")
    for counter, per_op in workload.expected_counts(info).items():
        if tr.counts[counter] != per_op * n:
            problems.append(f"{counter}: {tr.counts[counter] / n:g} per op, expected {per_op}")
    return problems


def per_layer(tr: Tracer, workload, info: dict, traced, plain) -> dict:
    """Per-layer metrics, per traced operation: counts, and seconds a layer was busy.

    ``*.self_s`` is a span's own time (children excluded), ``*.s`` its
    inclusive time.  A layer idle on a workload reads 0.
    """
    n = len(traced)
    wall = sum(traced)
    calls, total, own, counts = tr.calls, tr.total, tr.self_time, tr.counts
    mismatches = reconcile(tr, workload, info, n)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0

    print(f"trace {n} traced ops, command seconds " + " ".join(f"{t:.4f}" for t in traced))
    print(f"trace {'span':<28} {'calls/op':>12} {'incl_s/op':>11} {'self_s/op':>11} {'self%':>6}")
    for name in sorted(calls):
        print(f"trace {name:<28} {calls[name] / n:>12.0f} {total[name] / n:>11.5f} "
              f"{own[name] / n:>11.5f} {100 * own[name] / wall:>6.2f}")
    for name in tr.absent:
        print(f"trace absent {name}")
    for problem in mismatches:
        print(f"trace MISMATCH {problem}")
    decisions_ms = np.asarray(tr.durations["evaluate.spiking_decision"]) * 1e3
    print(f"trace evaluate.spiking_decision: {decisions_ms.size} decisions")

    def per_op(value):
        return value / n

    def rate(work, seconds):
        return work / seconds if seconds else 0.0

    def ms_at(q):
        return float(np.percentile(decisions_ms, q)) if decisions_ms.size else 0.0

    metrics = {}
    for name in ("simulate.run_batch", "simulate.step", "simulate.if_step", "network.affine",
                 "network.conv2d", "network.forward_batch", "lincatch.step"):
        metrics[f"{name}.calls"] = (per_op(calls[name]), "count")
    for name in ("simulate.run_batch", "simulate.step", "simulate.if_step", "network.affine",
                 "network.conv2d", "network.forward_batch", "evaluate.play_episode",
                 "lincatch.step", "normalize.collect_stats", "cli.command"):
        metrics[f"{name}.self_s"] = (per_op(own[name]), "s")
    for name in ("evaluate.shadow", "evaluate.collect_frames", "normalize.percentile",
                 "normalize.apply", "modelio.load_model", "modelio.read_trace",
                 "modelio.load_frames", "modelio.save_model", "modelio.write_report"):
        metrics[f"{name}.s"] = (per_op(total[name]), "s")
    neuron_steps = counts["simulate.neuron_steps"]
    run_batch_calls = calls["simulate.run_batch"]
    metrics.update({
        "simulate.neuron_steps": (per_op(neuron_steps), "count"),
        "simulate.ns_per_neuron_step": (rate(1e9 * total["simulate.run_batch"],
                                             neuron_steps), "ns"),
        "network.affine.rows_per_call": (rate(counts["network.affine.rows"],
                                              calls["network.affine"]), "rows/call"),
        "network.conv2d.flop": (per_op(counts["network.conv2d.flop"]), "flop"),
        "network.conv2d.gflop_per_s": (rate(counts["network.conv2d.flop"] / 1e9,
                                            total["network.conv2d"]), "GFLOP/s"),
        "network.forward_batch.rows": (per_op(counts["network.forward_batch.rows"]), "rows"),
        "evaluate.decisions": (per_op(counts["simulate.decisions"]), "count"),
        "evaluate.episodes": (per_op(calls["evaluate.play_episode"]), "count"),
        "evaluate.rows_per_simulate_call": (rate(counts["simulate.decisions"],
                                                 run_batch_calls), "rows/call"),
        "evaluate.spiking_decision.ms_p50": (ms_at(50), "ms"),
        "evaluate.spiking_decision.ms_p99": (ms_at(99), "ms"),
        "normalize.percentile.calls": (per_op(calls["normalize.percentile"]), "count"),
        "normalize.samples": (per_op(counts["normalize.samples"]), "count"),
        "modelio.bytes_read": (per_op(counts["modelio.bytes_read"]), "B"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.reconcile_mismatches": (float(len(mismatches)), "count"),
        "trace.absent_spans": (float(len(tr.absent)), "count"),
    })
    return metrics
