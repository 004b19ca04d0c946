"""Every rateconv name the benchmark in perfbench/ uses still exists.

The benchmark imports the package by name, so removing or renaming one
of those names would fail every benchmark operation rather than any
test; this checks them statically.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _is_rateconv(module: str) -> bool:
    return module.split(".")[0] == "rateconv"


def _rateconv_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) pairs the code looks up in rateconv: from-imports,
    attributes of a name bound to a rateconv module, and modules loaded
    through importlib.import_module (name "")."""
    aliases: dict[str, str] = {}
    used: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if _is_rateconv(a.name):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and _is_rateconv(node.module or ""):
            for a in node.names:
                used.add((node.module, a.name))
                value = getattr(importlib.import_module(node.module), a.name, None)
                if isinstance(value, types.ModuleType):
                    aliases[a.asname or a.name] = value.__name__
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "import_module" and node.args
              and isinstance(node.args[0], ast.Constant) and _is_rateconv(node.args[0].value)):
            used.add((node.args[0].value, ""))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add((aliases[node.value.id], node.attr))
    return used


def _resolves(module: str, name: str) -> bool:
    """Whether module has name, a dotted "Class.method" included ("" for the module)."""
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    for part in filter(None, name.split(".")):
        if not hasattr(found, part):
            return False
        found = getattr(found, part)
    return True


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_perfbench_rateconv_names_resolve(source):
    used = _rateconv_names(ast.parse(source.read_text()))
    missing = [f"{module}:{name}" for module, name in sorted(used) if not _resolves(module, name)]
    assert not missing, f"{source.name} uses names rateconv no longer has: {missing}"


def test_scan_sees_the_library_calls_the_workloads_use():
    used = set().union(*(_rateconv_names(ast.parse(p.read_text())) for p in SOURCES))
    for name in ("run_batch", "robust_readout", "layer_identity_residual",
                 "collect_frames_by_play", "collect_stats", "apply_normalization",
                 "read_trace", "write_trace", "EpisodeTrace"):
        assert ("rateconv", name) in used
    assert ("rateconv.cli", "main") in used and ("rateconv.cli", "") in used
    assert not _resolves("rateconv", "no_such_name")


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


# spans of the stepping API that run_batch replaced; dropping them from
# perfbench/spans.py is an open item, so they may stay absent
_STALE_SPANS = {("rateconv.simulate", "init_sim"), ("rateconv.simulate", "step"),
                ("rateconv.simulate", "if_step")}


def _span_targets() -> list[tuple[str, str]]:
    """The (module, attr) of every SpanSpec in perfbench/spans.py's SPANS list."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    [spans] = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)]
    return [(call.args[1].value, call.args[2].value) for call in spans.elts]


def test_span_targets_resolve():
    targets = _span_targets()
    assert ("rateconv.evaluate", "SpikingAgent.qvalues") in targets  # the scan sees them
    missing = {t for t in targets if not _resolves(*t)}
    assert missing <= _STALE_SPANS, f"spans.py traces names rateconv no longer has: {missing}"
