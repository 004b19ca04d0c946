"""The README's documented commands and library sketch run as written."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import rateconv as rc
from rateconv import SpikingAgent, simulate
from rateconv.cli import COMMANDS, build_parser, main

from conftest import PERFBENCH, name_resolves, rateconv_names

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced(language: str) -> list[str]:
    """The bodies of the README's code blocks fenced as the given language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def _commands() -> list[list[str]]:
    """Every `rateconv ...` command of the README's sh blocks, as argv."""
    return [shlex.split(command, comments=True)
            for block in _fenced("sh")
            for command in block.replace("\\\n", " ").splitlines()
            if command.startswith("rateconv ")]


def _python_c(saves: str) -> str:
    """The code of the README's `python3 -c` command that saves the given model."""
    for block in _fenced("sh"):
        for code in re.findall(r'^python3 -c "(.*?)"$', block, flags=re.M | re.S):
            if f"save_model(net, '{saves}')" in code:
                return code
    raise AssertionError(f"README has no python3 -c command saving {saves}")


def _quick_start_play() -> list[str]:
    """The quick start's recording `rateconv play` command, as argv."""
    for argv in _commands():
        if argv[1] == "play" and "--record-trace" in argv:
            return argv
    raise AssertionError("README has no recording play command")


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    """A flag renamed or removed cannot leave the README's commands stale."""
    build_parser().parse_args(argv[1:])


def test_readme_shows_every_command():
    """The parse test above has something to check: every command is shown."""
    assert {argv[1] for argv in _commands()} == set(COMMANDS)


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc.save_model(rc.optimal_network(8), "model")
    argv = _quick_start_play()
    assert main(argv[1:]) == 0
    assert Path("episodes.trace").exists()
    [sketch] = _fenced("python")
    exec(compile(sketch, "README.md", "exec"), {})
    assert rc.read_trace("first100.trace").action_count == 3


def test_sketch_and_benchmark_names_resolve():
    """Every rateconv name the library sketch and the benchmark look up
    exists, so trimming the exports cannot break either."""
    sources = {"README.md": _fenced("python")[0]}
    sources.update((f"perfbench/{p.name}", p.read_text()) for p in sorted(PERFBENCH.glob("*.py")))
    used = {(where, module, name) for where, text in sources.items()
            for module, name in rateconv_names(ast.parse(text))}
    missing = sorted(u for u in used if not name_resolves(*u[1:]))
    assert not missing, f"names rateconv no longer has: {missing}"
    # the scan sees the calls a trim of the exports would break
    assert {("README.md", "rateconv", "robust_readout"), ("README.md", "rateconv", "load_frames"),
            ("perfbench/bench.py", "rateconv", "robust_readout"),
            ("perfbench/workloads.py", "rateconv", "load_frames")} <= used


def test_readme_time_sweep_decides_at_rest(tmp_path, monkeypatch):
    """On the README's random dense net every decision of a time sweep is
    certified at rest, before any step: a short sweep (its frame budget
    cut to 24) makes decisions and never calls _integrate."""
    monkeypatch.chdir(tmp_path)
    exec(_python_c("rand_model"), {})
    [argv] = [a for a in _commands() if a[1] == "sweep" and "rand_model" in a]
    assert argv[argv.index("--values") + 1] == "10,50,500"
    decisions, steps = [], []
    actions = SpikingAgent.actions
    monkeypatch.setattr(SpikingAgent, "actions", lambda self, observations: (
        decisions.append(len(observations)) or actions(self, observations)))
    monkeypatch.setattr(simulate, "_integrate", lambda *args, **kwargs: steps.append(args))
    assert main([*argv[1:], "--frame-budget", "24"]) == 0
    assert sum(decisions) > 100 and steps == []
