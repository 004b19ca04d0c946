"""Span tracing of rateconv from outside the program.

Each traced function is wrapped at every place it is bound: a module
global (``from .network import apply_layer_linear`` in simulate binds a
second name), a dict value (the CLI's command table) or a class
attribute.  Wrapping only the defining module would miss calls made
through those other names.  A function that no longer exists is
reported as absent.

Spans are aggregated as they close: calls, inclusive time and self time
(inclusive minus the inclusive time of child spans) per span name.
Hooks turn the arguments and results of a call into work counts, so
ratios are measured where the work happens.  Wrapping costs time, and
a span's self time includes the wrapping of its children, so compare
self times between versions of the program, not with untraced times.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

SIMULATE = "rateconv.simulate"


@dataclass(frozen=True)
class SpanSpec:
    name: str
    module: str
    attr: str  # "func" or "Class.method"
    hook: Optional[Callable] = None  # (tracer, site, args, kwargs, result) -> None
    tag: Optional[Callable] = None   # (args, kwargs) -> tag stored on the open span
    rename: Optional[Callable] = None  # (tracer) -> span name for this call
    keep_durations: bool = False  # keep each call's duration, for percentiles


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child_time, tag]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)
        self.expected_rows: Counter = Counter()  # param layer id -> T * batch
        self.simulated_rows: Counter = Counter()  # param layer id -> rows via simulate
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._restore: list[tuple] = []

    def enclosing_tag(self, name: str):
        for frame in reversed(self.stack):
            if frame[0] == name:
                return frame[2]
        return None

    def wrap(self, spec: SpanSpec, fn, site: str):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = spec.rename(self) if spec.rename else spec.name
            frame = [name, 0.0, spec.tag(args, kwargs) if spec.tag else None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if spec.keep_durations:
                    self.durations[name].append(dur)
            if spec.hook:
                try:
                    spec.hook(self, site, args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the command
                    self.hook_errors[spec.name] = repr(exc)
            return result

        return wrapper

    def install(self, specs) -> None:
        """Wrap every binding of every spec'd function in the rateconv modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "rateconv" or n.startswith("rateconv.")]
        for spec in specs:
            try:
                owner = importlib.import_module(spec.module)
            except ImportError:
                self._mark_absent(spec.name)
                continue
            cls_name, _, attr = spec.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                fn = vars(cls).get(attr) if isinstance(cls, type) else None
                if not callable(fn):
                    self._mark_absent(spec.name)
                    continue
                setattr(cls, attr, self.wrap(spec, fn, spec.module))
                self._restore.append((setattr, cls, attr, fn))
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self._mark_absent(spec.name)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, self.wrap(spec, fn, mod.__name__))
                        self._restore.append((setattr, mod, key, fn))
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                value[dkey] = self.wrap(spec, fn, mod.__name__)
                                self._restore.append((dict.__setitem__, value, dkey, fn))

    def _mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def uninstall(self) -> None:
        for setter, target, key, fn in reversed(self._restore):
            setter(target, key, fn)
        self._restore.clear()


# ---------------------------------------------------------------------------
# hooks: work counts from call arguments and results

def _param_layers(net):
    return [layer for layer in net.layers if getattr(layer, "weights", None) is not None]


def _run_batch(tr: Tracer, site, args, kwargs, result):
    net, frames = args[0], args[1]
    config = args[2] if len(args) > 2 else kwargs["config"]
    rows = config.timesteps * len(frames)
    tr.counts["simulate.decisions"] += len(frames)
    tr.counts["simulate.neuron_steps"] += rows * sum(r[0].size for r in result.rates)
    for layer in _param_layers(net):
        tr.expected_rows[id(layer)] += rows


def _affine(tr: Tracer, site, args, kwargs, result):
    tr.counts["network.affine.rows"] += len(args[1])
    if site == SIMULATE:
        tr.simulated_rows[id(args[0])] += len(args[1])


def _conv2d(tr: Tracer, site, args, kwargs, result):
    weights = args[1]
    out_ch, in_ch, kh, kw = weights.shape
    tr.counts["network.conv2d.flop"] += 2 * result.size * in_ch * kh * kw


def _forward_batch(tr: Tracer, site, args, kwargs, result):
    tr.counts["network.forward_batch.rows"] += len(args[1])


def _collect_stats(tr: Tracer, site, args, kwargs, result):
    tr.counts["normalize.samples"] += sum(result.sample_counts)


def _shadow_tag(args, kwargs):
    shadow = kwargs.get("shadow", args[4] if len(args) > 4 else None)
    return "shadow" if shadow is not None else None


def _analog_name(tr: Tracer) -> str:
    shadowed = tr.enclosing_tag("evaluate.play_episode") == "shadow"
    return "evaluate.shadow" if shadowed else "evaluate.analog_decision"


def _bytes_read(tr: Tracer, site, args, kwargs, result):
    # An outermost read counts once: load_frames reads through read_trace.
    if any(frame[0].startswith("modelio.") for frame in tr.stack):
        return
    path = Path(args[0])
    files = path.iterdir() if path.is_dir() else [path]
    tr.counts["modelio.bytes_read"] += sum(f.stat().st_size for f in files if f.is_file())


SPANS = [
    SpanSpec("cli.command", "rateconv.cli", "main"),
    SpanSpec("evaluate.sweep", "rateconv.evaluate", "sweep_time"),
    SpanSpec("evaluate.sweep", "rateconv.evaluate", "sweep_percentile"),
    SpanSpec("evaluate.evaluate", "rateconv.evaluate", "evaluate"),
    SpanSpec("evaluate.replay", "rateconv.evaluate", "replay_trace"),
    SpanSpec("evaluate.collect_frames", "rateconv.evaluate", "collect_frames_by_play"),
    SpanSpec("evaluate.play_episode", "rateconv.evaluate", "play_episode", tag=_shadow_tag),
    SpanSpec("evaluate.spiking_decision", "rateconv.evaluate", "SpikingAgent.qvalues",
             keep_durations=True),
    SpanSpec("evaluate.analog_decision", "rateconv.evaluate", "AnalogAgent.qvalues",
             rename=_analog_name),
    SpanSpec("lincatch.step", "rateconv.lincatch", "LineCatchEnv.step"),
    SpanSpec("lincatch.reset", "rateconv.lincatch", "LineCatchEnv.reset"),
    SpanSpec("simulate.run_batch", "rateconv.simulate", "run_batch", hook=_run_batch),
    SpanSpec("simulate.run", "rateconv.simulate", "run"),
    SpanSpec("simulate.init_sim", "rateconv.simulate", "init_sim"),
    SpanSpec("simulate.step", "rateconv.simulate", "step"),
    SpanSpec("simulate.if_step", "rateconv.simulate", "if_step"),
    SpanSpec("network.forward_batch", "rateconv.network", "forward_batch", hook=_forward_batch),
    SpanSpec("network.affine", "rateconv.network", "apply_layer_linear", hook=_affine),
    SpanSpec("network.conv2d", "rateconv.network", "conv2d_batch", hook=_conv2d),
    SpanSpec("normalize.collect_stats", "rateconv.normalize", "collect_stats",
             hook=_collect_stats),
    SpanSpec("normalize.percentile", "rateconv.normalize", "percentile"),
    SpanSpec("normalize.apply", "rateconv.normalize", "apply_normalization"),
    SpanSpec("normalize.load_stats", "rateconv.normalize", "load_stats"),
    SpanSpec("normalize.save_stats", "rateconv.normalize", "save_stats"),
    SpanSpec("modelio.load_model", "rateconv.modelio", "load_model", hook=_bytes_read),
    SpanSpec("modelio.read_trace", "rateconv.modelio", "read_trace", hook=_bytes_read),
    SpanSpec("modelio.load_frames", "rateconv.modelio", "load_frames", hook=_bytes_read),
    SpanSpec("modelio.save_model", "rateconv.modelio", "save_model"),
    SpanSpec("modelio.write_report", "rateconv.modelio", "write_report"),
]
