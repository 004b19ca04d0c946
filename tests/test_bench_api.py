"""Every rateconv name the benchmark in perfbench/ uses still exists.

The benchmark imports the package by name, so removing or renaming one
of those names would fail every benchmark operation rather than any
test; this checks them statically.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from conftest import PERFBENCH, name_resolves, rateconv_names

SOURCES = sorted(PERFBENCH.glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_perfbench_rateconv_names_resolve(source):
    used = rateconv_names(ast.parse(source.read_text()))
    missing = [f"{module}:{name}" for module, name in sorted(used) if not name_resolves(module, name)]
    assert not missing, f"{source.name} uses names rateconv no longer has: {missing}"


def test_scan_sees_the_library_calls_the_workloads_use():
    used = set().union(*(rateconv_names(ast.parse(p.read_text())) for p in SOURCES))
    for name in ("run_batch", "robust_readout", "layer_identity_residual",
                 "collect_frames_by_play", "collect_stats", "apply_normalization",
                 "read_trace", "write_trace", "EpisodeTrace"):
        assert ("rateconv", name) in used
    assert ("rateconv.cli", "main") in used and ("rateconv.cli", "") in used
    assert not name_resolves("rateconv", "no_such_name")


def test_workload_loaders_exist(monkeypatch):
    """The set-up probes call modelio loaders by the names each workload lists."""
    from rateconv import modelio
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:  # perfbench's flat module names stay out of other tests' imports
        for name in ("workloads", "inputs"):
            sys.modules.pop(name, None)
    for workload in workloads.WORKLOADS.values():
        for fn, _ in workload.loads(Path("inputs")):
            assert callable(getattr(modelio, fn, None)), (workload.name, fn)


# spans of the stepping API that run_batch replaced, and of the one-episode
# wrapper of the lockstep play; dropping them from perfbench/spans.py is an
# open item, so they may stay absent
_STALE_SPANS = {("rateconv.simulate", "init_sim"), ("rateconv.simulate", "step"),
                ("rateconv.simulate", "if_step"), ("rateconv.evaluate", "play_episode")}


def _span_targets() -> list[tuple[str, str]]:
    """The (module, attr) of every SpanSpec in perfbench/spans.py's SPANS list."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    [spans] = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)]
    return [(call.args[1].value, call.args[2].value) for call in spans.elts]


def test_span_targets_resolve():
    targets = _span_targets()
    assert ("rateconv.evaluate", "SpikingAgent.qvalues") in targets  # the scan sees them
    missing = {t for t in targets if not name_resolves(*t)}
    assert missing <= _STALE_SPANS, f"spans.py traces names rateconv no longer has: {missing}"
