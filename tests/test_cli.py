"""Exit codes, defaults, and byte-reproducibility of the command line."""

import copy
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import rateconv
from rateconv import (EpisodeTrace, NetworkSpec, conv2d, dense, flatten, load_model,
                      optimal_network, read_blob, read_trace, save_model,
                      validate_network, write_blob, write_trace)
from rateconv import cli, modelio, normalize
from rateconv.cli import main

from conftest import json_paths, read_report_rows, trace_steps


@pytest.fixture
def model_dir(tmp_path):
    save_model(optimal_network(6), tmp_path / "model")
    return tmp_path / "model"


@pytest.fixture
def frames_blob(tmp_path, rng):
    frames = (rng.random((40, 1, 6, 6)) < 0.1).astype(np.float32)
    path = tmp_path / "frames.bin"
    write_blob(path, frames)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# stats

def test_stats_writes_scales(tmp_path, model_dir, frames_blob):
    out = tmp_path / "stats.json"
    assert run_cli("stats", "--model", model_dir, "--frames", frames_blob,
                   "--out", out) == 0
    payload = json.loads(out.read_text())
    assert len(payload["scales"]) == 2  # input + one dense layer
    assert payload["percentile"] == 99.9
    assert payload["max_frames"] == 15000


def test_stats_percentile_out_of_range_is_usage_error(tmp_path, model_dir, frames_blob):
    assert run_cli("stats", "--model", model_dir, "--frames", frames_blob,
                   "--percentile", "98", "--out", tmp_path / "s.json") == 1


def test_stats_non_finite_frame_is_data_error_and_writes_no_file(tmp_path, model_dir,
                                                                  capsys):
    frames = np.zeros((4, 1, 6, 6), dtype=np.float32)
    frames[2, 0, 3, 1] = np.nan
    path = tmp_path / "nan.bin"
    write_blob(path, frames)
    out = tmp_path / "stats.json"
    assert run_cli("stats", "--model", model_dir, "--frames", path, "--out", out) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


_SWEEP_PERCENTILE = ["sweep", "--mode", "percentile", "--values", "99.9,100", "--grid-size", "6"]


@pytest.mark.parametrize("command, max_frames", [
    (["stats"], "2"), (_SWEEP_PERCENTILE, "15000"), (_SWEEP_PERCENTILE, "2")])
def test_non_finite_calibration_frame_is_data_error_and_writes_no_file(
        tmp_path, model_dir, capsys, command, max_frames):
    """Frame 2 is NaN: used at the default cap, past a cap of 2."""
    frames = np.zeros((4, 1, 6, 6), dtype=np.float32)
    frames[2, 0, 3, 1] = np.nan
    path = tmp_path / "nan.bin"
    write_blob(path, frames)
    out = tmp_path / "out"
    assert run_cli(*command, "--model", model_dir, "--frames", path,
                   "--max-frames", max_frames, "--out", out) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pixel", [1.5, -0.1])
def test_frames_outside_unit_range_are_data_errors_and_write_no_file(tmp_path, model_dir,
                                                                      pixel, capsys):
    """Every command that reads frames rejects a pixel outside [0, 1]: exit
    2, a message naming the file and the value, and no output written."""
    frames = np.zeros((4, 1, 6, 6), dtype=np.float32)
    frames[1, 0, 2, 3] = 1.0
    frames[2, 0, 4, 1] = pixel
    blob, trace = tmp_path / "frames.bin", tmp_path / "frames.trace"
    write_blob(blob, frames)
    write_trace(EpisodeTrace(3, (1, 6, 6), trace_steps((1, 6, 6), frames, [0, 1, 2, 0], 1.0)),
                trace)
    out = tmp_path / "out"
    commands = [
        (blob, ["simulate", "--model", model_dir, "--frame", blob, "--diagnose", out]),
        (trace, ["simulate", "--model", model_dir, "--frame", trace, "--diagnose", out]),
        (blob, ["stats", "--model", model_dir, "--frames", blob, "--out", out]),
        (trace, ["stats", "--model", model_dir, "--frames", trace, "--out", out]),
        (blob, ["sweep", "--mode", "time", "--values", "5", "--model", model_dir,
                "--frames", blob, "--episodes", "1", "--grid-size", "6", "--out", out]),
        (trace, ["replay", "--snn-model", model_dir, "--trace", trace, "--timesteps", "5",
                 "--out", out]),
    ]
    for path, argv in commands:
        capsys.readouterr()
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert str(path) in err and f"pixel value {np.float32(pixel)} outside [0, 1]" in err
        assert not out.exists() and not Path(f"{out}.meta.json").exists()


# ---------------------------------------------------------------------------
# calibration frames streamed from a trace file

_CHUNK = 4  # a small STATS_CHUNK, so a few frames span several windows


def _unit_trace(path, frames):
    shape = frames.shape[1:]
    actions = [i % 3 for i in range(len(frames))]
    write_trace(EpisodeTrace(3, shape, trace_steps(shape, frames, actions, 1.0)), path)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK,
                          2 * _CHUNK + 1, 3 * _CHUNK + 2]),
       cap=st.sampled_from(["inside", "edge", "end", "past"]), seed=st.integers(0, 3),
       p=st.sampled_from(["99", "99.9", "100"]))
def test_stats_on_a_trace_equals_stats_on_its_frames_as_an_array(tmp_path, monkeypatch,
                                                                 n, cap, seed, p):
    """stats reads a trace window by window; its stats.json equals, byte
    for byte, that of the same frames in a blob, with max_frames inside a
    window, at a window's edge, at or past the end."""
    monkeypatch.setattr(normalize, "STATS_CHUNK", _CHUNK)
    model = tmp_path / "model"
    if not model.exists():
        _conv_model(model)
    rng = np.random.default_rng(seed)
    frames = (rng.random((n, 1, 6, 6)) * (rng.random((n, 1, 6, 6)) < 0.5)).astype(np.float32)
    blob, trace = tmp_path / "f.bin", tmp_path / "f.trace"
    write_blob(blob, frames)
    _unit_trace(trace, frames)
    max_frames = {"inside": min(n, _CHUNK + 2), "edge": max(1, n // _CHUNK * _CHUNK),
                  "end": n, "past": n + 5}[cap]
    outputs = []
    for path in (blob, trace):
        out = tmp_path / f"{path.suffix[1:]}.json"
        assert run_cli("stats", "--model", model, "--frames", path, "--percentile", p,
                       "--max-frames", max_frames, "--provenance", "frames",
                       "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _faulty_trace(path, faults):
    """13 frames of 3 windows of _CHUNK: a pixel of 1.5 in frame 0, NaN in
    frame 1, then the structural faults named, all in the last window."""
    frames = np.full((13, 1, 6, 6), 0.25, dtype=np.float32)
    frames[0, 0, 2, 2] = 1.5
    frames[1, 0, 3, 3] = np.nan
    _unit_trace(path, frames)
    data = bytearray(path.read_bytes())

    def put(step, offset, value: bytes):
        at = 32 + step * (24 + 144 + 12) + offset  # header, then step records
        data[at:at + len(value)] = value

    if "action" in faults:
        put(12, 24 + 144, struct.pack("<I", 7))
    if "head" in faults:
        put(11, 0, b"XXXXXXXX")
    if "dims" in faults:
        put(10, 12, struct.pack("<3I", 1, 6, 5))
    if "cut" in faults:
        del data[-5:]
    if "trailing" in faults:
        data += b"\0\0"
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("faults, message", [
    ({"head", "dims", "cut", "trailing", "action"},
     "step 10 observation shape (1, 6, 5) != header (1, 6, 6)"),
    ({"head", "cut", "action"}, "step 11 observation: bad magic b'XXXXXXXX'"),
    ({"cut", "action"}, "truncated while reading step 12 reward"),
    ({"trailing", "action"}, "2 trailing bytes after last step"),
    ({"action"}, "step 12 action 7 out of range [0, 3)"),
    (set(), "pixel value 1.5 outside [0, 1]"),
])
@pytest.mark.parametrize("command", [
    ["stats", "--max-frames", "2"],
    ["sweep", "--mode", "percentile", "--values", "99.9,100", "--grid-size", "6"],
    ["simulate", "--timesteps", "5"]])
def test_trace_with_several_faults_reports_the_first_by_kind(tmp_path, model_dir, monkeypatch,
                                                             capsys, faults, message, command):
    """A structural fault anywhere in the file wins over a pixel outside
    [0, 1] in its first window, which wins over a NaN: the layout, then
    truncation, trailing bytes, actions, pixels, finiteness.  simulate,
    which uses frame 0 alone, checks the file as stats does."""
    monkeypatch.setattr(normalize, "STATS_CHUNK", _CHUNK)
    monkeypatch.setattr(cli, "STATS_CHUNK", _CHUNK)
    path = tmp_path / "t.trace"
    _faulty_trace(path, faults)
    out = tmp_path / "out"
    frames, written = ("--frame", "--diagnose") if command[0] == "simulate" \
        else ("--frames", "--out")
    assert run_cli(*command, "--model", model_dir, frames, path, written, out) == 2
    assert capsys.readouterr().err == f"rateconv {command[0]}: {path}: {message}\n"
    assert not out.exists()


def test_trace_with_only_a_nan_frame_reports_it(tmp_path, model_dir, monkeypatch, capsys):
    monkeypatch.setattr(normalize, "STATS_CHUNK", _CHUNK)
    frames = np.zeros((13, 1, 6, 6), dtype=np.float32)
    frames[9, 0, 1, 1] = np.nan  # past the cap of 2, in the third window
    _unit_trace(tmp_path / "t.trace", frames)
    assert run_cli("stats", "--model", model_dir, "--frames", tmp_path / "t.trace",
                   "--max-frames", "2", "--out", tmp_path / "s.json") == 2
    assert capsys.readouterr().err == ("rateconv stats: frames must be finite "
                                       "(found NaN or infinity)\n")


def _traced_peak(*args) -> int:
    """The traced memory peak of a successful CLI command."""
    tracemalloc.start()
    try:
        assert run_cli(*args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stats_memory_does_not_grow_with_the_trace(tmp_path, model_dir):
    """stats holds one STATS_CHUNK window of a trace, not the trace: four
    times the frames leave its traced peak within 10 %."""
    chunk = normalize.STATS_CHUNK
    rng = np.random.default_rng(5)
    peaks = []
    for n in (2 * chunk, 8 * chunk):
        path = tmp_path / f"{n}.trace"
        _unit_trace(path, rng.random((n, 1, 6, 6)).astype(np.float32))
        peaks.append(_traced_peak("stats", "--model", model_dir, "--frames", path,
                                  "--out", tmp_path / "s.json"))
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("command", [
    ["stats"], ["sweep", "--mode", "time", "--values", "5", "--grid-size", "6"]])
def test_frames_that_do_not_stack_are_refused_before_any_window_is_read(
        tmp_path, model_dir, monkeypatch, capsys, command):
    """A 20-byte blob of 4294967295 zero-size frames is refused by the
    stack check, exit 2 with its message, before the pixel pass reads a
    window (walking its empty windows took seconds)."""
    path = tmp_path / "empty.bin"
    path.write_bytes(modelio.BLOB_MAGIC + struct.pack("<3I", 2, 4294967295, 0))
    windows, real = [], modelio.BlobReader.frame_windows
    monkeypatch.setattr(modelio.BlobReader, "frame_windows",
                        lambda self, rows: windows.append(rows) or real(self, rows))
    out = tmp_path / "out"
    assert run_cli(*command, "--model", model_dir, "--frames", path, "--out", out) == 2
    assert capsys.readouterr().err == (f"rateconv {command[0]}: frames of shape (4294967295, 0) "
                                       f"do not stack over network input (1, 6, 6)\n")
    assert windows == [] and not out.exists()


def test_stats_memory_does_not_grow_with_the_blob(tmp_path, model_dir):
    """stats holds one STATS_CHUNK window of a blob, not the blob: four
    times the frames leave its traced peak within 10 %."""
    chunk = normalize.STATS_CHUNK
    rng = np.random.default_rng(5)
    peaks = []
    for n in (2 * chunk, 8 * chunk):
        path = tmp_path / f"{n}.bin"
        write_blob(path, rng.random((n, 1, 6, 6)).astype(np.float32))
        peaks.append(_traced_peak("stats", "--model", model_dir, "--frames", path,
                                  "--out", tmp_path / "s.json"))
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_simulate_memory_does_not_grow_with_the_trace(tmp_path, model_dir):
    """simulate --frame on a trace checks it one STATS_CHUNK window at a
    time and keeps frame 0: four times the frames leave its traced peak
    within 10 %."""
    chunk = cli.STATS_CHUNK
    rng = np.random.default_rng(6)
    peaks = []
    for n in (2 * chunk, 8 * chunk):
        path = tmp_path / f"{n}.trace"
        _unit_trace(path, rng.random((n, 1, 6, 6)).astype(np.float32))
        peaks.append(_traced_peak("simulate", "--model", model_dir, "--frame", path,
                                  "--timesteps", "5"))
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_simulate_memory_does_not_grow_with_the_blob(tmp_path, model_dir, monkeypatch):
    """simulate --frame on a stacked blob checks it one window at a time
    and keeps frame 0: four times the frames add less than a tenth of the
    added bytes to its traced peak (a whole read adds them twice over)."""
    monkeypatch.setattr(cli, "STATS_CHUNK", 64)
    rng = np.random.default_rng(7)
    peaks, sizes = [], []
    for n in (1000, 4000):
        path = tmp_path / f"{n}.bin"
        write_blob(path, rng.random((n, 1, 6, 6)).astype(np.float32))
        sizes.append(path.stat().st_size)
        peaks.append(_traced_peak("simulate", "--model", model_dir, "--frame", path,
                                  "--timesteps", "5"))
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 10, (peaks, sizes)


@pytest.mark.parametrize("fault, message", [
    ("magic", "bad magic b'XXXXXXXX'"),
    ("cut", "truncated while reading data"),
    ("trailing", "2 trailing bytes after tensor data"),
    ("pixel", "pixel value 1.5 outside [0, 1]"),
    (None, None),
])
def test_simulate_checks_a_stacked_blob_as_a_whole_read_does(tmp_path, model_dir, monkeypatch, capsys,
                                                              fault, message):
    """simulate --frame and stats --frames read a stacked blob in windows,
    yet report what a whole read reports: read_blob's fault in its
    structure before a pixel outside [0, 1] in a late frame; a sound blob
    gives frame 0's run."""
    monkeypatch.setattr(cli, "STATS_CHUNK", _CHUNK)
    monkeypatch.setattr(normalize, "STATS_CHUNK", _CHUNK)
    frames = np.full((13, 1, 6, 6), 0.25, dtype=np.float32)
    frames[0, 0, 5, :] = frames[0, 0, 0, 2] = 1.0
    if fault is not None:
        frames[11, 0, 2, 2] = 1.5
    path = tmp_path / "f.bin"
    write_blob(path, frames)
    data = path.read_bytes()
    data = {"magic": b"XXXXXXXX" + data[8:], "cut": data[:-5],
            "trailing": data + b"\0\0"}.get(fault, data)
    path.write_bytes(data)
    code = run_cli("simulate", "--model", model_dir, "--frame", path, "--timesteps", "20")
    got = capsys.readouterr()
    if fault is None:
        alone = tmp_path / "frame0.bin"
        write_blob(alone, frames[0])
        assert code == run_cli("simulate", "--model", model_dir, "--frame", alone,
                               "--timesteps", "20") == 0
        assert got.out == capsys.readouterr().out
        return
    assert code == 2 and got.err == f"rateconv simulate: {path}: {message}\n"
    assert run_cli("stats", "--model", model_dir, "--frames", path,
                   "--out", tmp_path / "s.json") == 2
    assert capsys.readouterr().err == f"rateconv stats: {path}: {message}\n"
    if fault != "pixel":
        with pytest.raises(rateconv.BlobError) as caught:
            read_blob(path)
        assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize("kind", ["trace", "blob"])
def test_simulate_on_a_file_of_no_frames_is_data_error(tmp_path, model_dir, capsys, kind):
    """An empty trace, or a blob stacking no frames of the network input,
    has no frame 0."""
    frames = np.zeros((0, 1, 6, 6), dtype=np.float32)
    path = tmp_path / f"empty.{kind}"
    if kind == "trace":
        _unit_trace(path, frames)
    else:
        write_blob(path, frames)
    assert run_cli("simulate", "--model", model_dir, "--frame", path) == 2
    assert capsys.readouterr().err == f"rateconv simulate: {path}: {kind} contains no frames\n"


# float32 values an edited pixel takes: NaN, +inf, -inf, one outside [0, 1], negative zero
_PIXELS = st.sampled_from([math.nan, math.inf, -math.inf, 1.5, -0.0])


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 3 * _CHUNK + 2), seed=st.integers(0, 3),
       pixels=st.lists(st.tuples(st.integers(0, 10**6), _PIXELS), max_size=3),
       max_frames=st.integers(1, 4 * _CHUNK))
@example(n=3 * _CHUNK + 2, seed=0, pixels=[], max_frames=_CHUNK + 1)
@example(n=2 * _CHUNK, seed=1, pixels=[(5 * 36, 1.5), (3 * 36 + 7, math.nan)], max_frames=2)
@example(n=2 * _CHUNK + 1, seed=2, pixels=[(7 * 36 + 3, math.nan)], max_frames=3)
@example(n=_CHUNK + 3, seed=3, pixels=[(4 * 36, -0.0), (0, -0.0)], max_frames=_CHUNK + 1)
def test_stats_on_a_blob_equals_stats_on_the_same_frames_as_a_trace(
        tmp_path, monkeypatch, capsys, n, seed, pixels, max_frames):
    """The file format does not show: the same frames as a blob and as a
    trace give stats the same exit code, the same message after the path,
    the same stats.json bytes and the same chunks through the network,
    whatever pixels are edited in and wherever max_frames cuts the
    STATS_CHUNK windows."""
    monkeypatch.setattr(normalize, "STATS_CHUNK", _CHUNK)
    monkeypatch.setattr(cli, "STATS_CHUNK", _CHUNK)
    chunks = []
    monkeypatch.setattr(normalize, "forward_batch",
                        lambda net, x: chunks.append(x.shape[0]) or rateconv.forward_batch(net, x))
    model = tmp_path / "model"
    if not model.exists():
        _conv_model(model)
    rng = np.random.default_rng(seed)
    frames = (rng.random((n, 1, 6, 6)) * (rng.random((n, 1, 6, 6)) < 0.5)).astype(np.float32)
    for index, value in pixels:
        frames.flat[index % frames.size] = value
    blob, trace = tmp_path / "f.bin", tmp_path / "f.trace"
    write_blob(blob, frames)
    _unit_trace(trace, frames)
    results = []
    for path in (blob, trace):
        out = tmp_path / f"{path.suffix[1:]}.json"
        out.unlink(missing_ok=True)
        code = run_cli("stats", "--model", model, "--frames", path, "--max-frames", max_frames,
                       "--provenance", "frames", "--out", out)
        err = capsys.readouterr().err.replace(str(path), "FRAMES")
        results.append((code, err, out.read_bytes() if out.exists() else None, chunks[:]))
        chunks.clear()
    assert results[0] == results[1]


def test_unit_range_check_builds_no_masks_for_valid_frames(tmp_path):
    """A valid array is checked by its minimum and maximum alone: no
    boolean mask the size of the frames is allocated."""
    frames = np.random.default_rng(2).random((64, 1, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        cli._unit_frames(tmp_path / "f.bin", [frames])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frames.size // 8, peak


def test_stats_missing_model_is_data_error(tmp_path, frames_blob, capsys):
    code = run_cli("stats", "--model", tmp_path / "absent", "--frames", frames_blob,
                   "--out", tmp_path / "s.json")
    assert code == 2
    assert "absent" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# normalize

_STATS = {"percentile": 99.9, "max_frames": 15000, "scales": [1.0, 2.0],
          "sample_counts": [0, 10], "warnings": [], "provenance": ""}


def test_normalize_identity_stats_is_byte_identical(tmp_path, model_dir):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({
        "percentile": 99.9, "max_frames": 15000, "scales": [1.0, 1.0],
        "sample_counts": [0, 10], "warnings": [], "provenance": "",
    }))
    out = tmp_path / "norm"
    assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                   "--out", out) == 0
    for blob in sorted(p.name for p in model_dir.iterdir() if p.suffix == ".bin"):
        assert (out / blob).read_bytes() == (model_dir / blob).read_bytes()
    assert validate_network(load_model(out)).ok


def test_normalize_scale_count_mismatch_is_data_error(tmp_path, model_dir):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({
        "percentile": 99.9, "max_frames": 15000, "scales": [1.0, 1.0, 1.0],
        "sample_counts": [0, 1, 1], "warnings": [], "provenance": "",
    }))
    assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                   "--out", tmp_path / "norm") == 2


def test_normalize_non_finite_scale_is_data_error(tmp_path, model_dir):
    stats = tmp_path / "stats.json"
    for bad in ("NaN", "Infinity"):
        stats.write_text('{"percentile": 99.9, "max_frames": 15000, "scales": [1.0, %s], '
                         '"sample_counts": [0, 10], "warnings": [], "provenance": ""}' % bad)
        assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                       "--out", tmp_path / "norm") == 2
    assert not (tmp_path / "norm").exists()


@pytest.mark.parametrize("max_frames, counts", [("Infinity", "[0, 10]"),
                                               ("15000", "[0, Infinity]")])
def test_normalize_infinite_count_is_data_error(tmp_path, model_dir, max_frames, counts):
    stats = tmp_path / "stats.json"
    stats.write_text('{"percentile": 99.9, "max_frames": %s, "scales": [1.0, 1.0], '
                     '"sample_counts": %s, "warnings": [], "provenance": ""}'
                     % (max_frames, counts))
    assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                   "--out", tmp_path / "norm") == 2
    assert not (tmp_path / "norm").exists()


@pytest.mark.parametrize("key, value", [
    ("scales", "12"), ("scales", [1.0, True]), ("sample_counts", "05"),
    ("sample_counts", [0, 10.0]), ("warnings", "ab"), ("warnings", [1]),
    ("provenance", ["a"]), ("percentile", "99.9"), ("percentile", True),
    ("max_frames", 15000.7), ("max_frames", 15000.0), ("max_frames", True)])
def test_normalize_mistyped_stats_value_is_data_error(tmp_path, model_dir, key, value):
    """A string is not a list of its characters or a number, a bool is not
    a number and a float is not a count."""
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({**_STATS, key: value}))
    assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                   "--out", tmp_path / "norm") == 2
    assert not (tmp_path / "norm").exists()


def run_cli_process(*args):
    """The CLI in a fresh interpreter, with numpy's warnings as they print."""
    env = {**os.environ, "PYTHONPATH": str(Path(rateconv.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from rateconv.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *[str(a) for a in args]],
        env=env, capture_output=True, text=True, timeout=120)


def test_normalize_float32_overflow_is_data_error_without_numpy_warning(tmp_path, model_dir):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({**_STATS, "scales": [1.0, 1e-40]}))
    done = run_cli_process("normalize", "--model", model_dir, "--stats", stats,
                           "--out", tmp_path / "norm")
    assert done.returncode == 2
    assert "do not fit in float32" in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert not (tmp_path / "norm").exists()


# ---------------------------------------------------------------------------
# simulate

def test_simulate_deterministic_output(tmp_path, model_dir, frames_blob, capsys):
    assert run_cli("simulate", "--model", model_dir, "--frame", frames_blob,
                   "--timesteps", "60") == 0
    first = capsys.readouterr().out
    assert run_cli("simulate", "--model", model_dir, "--frame", frames_blob,
                   "--timesteps", "60") == 0
    assert capsys.readouterr().out == first
    assert first.startswith("readout:") and "action:" in first


def test_simulate_zero_timesteps_is_usage_error(tmp_path, model_dir, frames_blob):
    assert run_cli("simulate", "--model", model_dir, "--frame", frames_blob,
                   "--timesteps", "0") == 1


def test_simulate_diagnose_residuals_tiny(tmp_path, model_dir, frames_blob):
    diag = tmp_path / "diag.json"
    assert run_cli("simulate", "--model", model_dir, "--frame", frames_blob,
                   "--diagnose", diag) == 0
    payload = json.loads(diag.read_text())
    assert all(r <= 1e-9 for r in payload["identity_residuals"])
    assert payload["case_counts"]["impossible"] == 0


def test_simulate_diagnose_writes_strict_json(tmp_path, model_dir, frames_blob):
    """The diagnostics file is strict JSON, and the writer it shares with
    the sidecars writes an infinity or NaN at any depth as null."""
    diag = tmp_path / "diag.json"
    assert run_cli("simulate", "--model", model_dir, "--frame", frames_blob,
                   "--timesteps", "5", "--diagnose", diag) == 0
    assert _strict_json(diag)["readout_vector"]
    cli._write_json(diag, {"readout_vector": [1.0, math.inf, -math.inf],
                           "residuals": {"max": math.nan}, "steps": 5})
    assert _strict_json(diag) == {"readout_vector": [1.0, None, None],
                                  "residuals": {"max": None}, "steps": 5}


def test_simulate_readout_overflow_is_data_error_without_numpy_warning(tmp_path, model_dir):
    """A normal T * v_thr can still be far below the output potentials:
    V / (T * v_thr) overflows, and the run is refused, not read as +-inf."""
    frame = tmp_path / "half.bin"
    write_blob(frame, np.full((1, 6, 6), 0.5, dtype=np.float32))
    done = run_cli_process("simulate", "--model", model_dir, "--frame", frame,
                           "--vthr", "3e-308", "--timesteps", "5",
                           "--diagnose", tmp_path / "d.json")
    assert done.returncode == 2
    assert "overflow the readout" in done.stderr and done.stdout == ""
    assert "RuntimeWarning" not in done.stderr
    assert not (tmp_path / "d.json").exists()


def test_simulate_shape_mismatch_is_data_error(tmp_path, model_dir):
    bad = tmp_path / "bad.bin"
    write_blob(bad, np.zeros((3, 3), dtype=np.float32))
    assert run_cli("simulate", "--model", model_dir, "--frame", bad) == 2


def test_simulate_non_finite_frame_is_data_error(tmp_path, model_dir, capsys):
    frame = np.zeros((1, 6, 6), dtype=np.float32)
    frame[0, 2, 3] = np.nan
    path = tmp_path / "nan.bin"
    write_blob(path, frame)
    assert run_cli("simulate", "--model", model_dir, "--frame", path) == 2
    assert "finite" in capsys.readouterr().err


def test_simulate_non_finite_weights_is_data_error(tmp_path, model_dir, frames_blob, capsys):
    weights = next(model_dir.glob("*_weights.bin"))
    w = read_blob(weights)
    w[0, 0] = np.inf
    write_blob(weights, w)
    assert run_cli("simulate", "--model", model_dir, "--frame", frames_blob) == 2
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# play / replay

def test_play_records_replayable_trace(tmp_path, model_dir):
    trace_path = tmp_path / "ep.trace"
    csv_path = tmp_path / "play.csv"
    assert run_cli("play", "--model", model_dir, "--episodes", "2", "--seed", "5",
                   "--grid-size", "6", "--episode-len", "20",
                   "--record-trace", trace_path, "--out", csv_path) == 0
    rows = read_report_rows(csv_path)
    assert len(rows) == 1 and rows[0].sweep_param == "play" and rows[0].episodes == 2
    trace = read_trace(trace_path)
    assert trace.action_count == 3 and len(trace.steps) > 0

    # normalize against the recorded trace, then replay it
    stats = tmp_path / "stats.json"
    norm = tmp_path / "norm"
    out = tmp_path / "replay.csv"
    assert run_cli("stats", "--model", model_dir, "--frames", trace_path,
                   "--out", stats) == 0
    assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                   "--out", norm) == 0
    assert run_cli("replay", "--snn-model", norm, "--source", model_dir,
                   "--trace", trace_path, "--timesteps", "80", "--out", out) == 0
    row = read_report_rows(out)[0]
    assert row.sweep_param == "replay" and row.mean_cr == 1.0


def test_play_with_spiking_agent(tmp_path, model_dir):
    """The spiking play's sidecar carries the mean score the source alone
    makes on the same seeds."""
    stats = tmp_path / "stats.json"
    norm = tmp_path / "norm"
    frames = tmp_path / "cal.trace"
    assert run_cli("play", "--model", model_dir, "--episodes", "1", "--seed", "2",
                   "--grid-size", "6", "--episode-len", "20",
                   "--record-trace", frames, "--out", tmp_path / "a.csv") == 0
    assert run_cli("stats", "--model", model_dir, "--frames", frames,
                   "--out", stats) == 0
    assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                   "--out", norm) == 0
    assert run_cli("play", "--model", model_dir, "--snn-model", norm,
                   "--episodes", "2", "--seed", "3", "--timesteps", "60",
                   "--grid-size", "6", "--episode-len", "20",
                   "--out", tmp_path / "b.csv") == 0
    row = read_report_rows(tmp_path / "b.csv")[0]
    assert 0.0 <= row.mean_cr <= 1.0
    meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
    assert meta["spiking_agent"] is True and meta["epsilon"] == 0.05
    assert run_cli("play", "--model", model_dir, "--episodes", "2", "--seed", "3",
                   "--grid-size", "6", "--episode-len", "20",
                   "--out", tmp_path / "c.csv") == 0
    alone = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["mean_source_score"] == alone["mean_source_score"]
    assert alone["mean_source_score"] == pytest.approx(
        read_report_rows(tmp_path / "c.csv")[0].mean_score)


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not strict JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("spiking", [False, True])
def test_play_without_decisions_reports_nan_cr_and_strict_json(tmp_path, model_dir, spiking):
    """With no decisions the conversion rate is undefined in both modes:
    nan in the CSV, null in the sidecar."""
    snn = ["--snn-model", model_dir] if spiking else []
    out = tmp_path / "zero.csv"
    assert run_cli("play", "--model", model_dir, *snn, "--frame-budget", "0",
                   "--episodes", "2", "--out", out) == 0
    row = read_report_rows(out)[0]
    assert np.isnan(row.mean_cr) and np.isnan(row.std_cr)
    meta = _strict_json(tmp_path / "zero.csv.meta.json")
    assert meta["conversion_rate"] is None and meta["spiking_agent"] is spiking


def _model(path, grid, outputs, conv=False):
    """A random net on (1, grid, grid) frames with `outputs` q-values,
    conv first if conv; written to path."""
    rng = np.random.default_rng(outputs)
    layers = [flatten(), dense(rng.normal(0, 0.2, (outputs, grid * grid)),
                               rng.normal(0, 0.05, outputs), activation="none")]
    if conv:
        side = grid - 2
        layers = [conv2d(rng.normal(0, 0.3, (2, 1, 3, 3)), rng.normal(0, 0.05, 2)), flatten(),
                  dense(rng.normal(0, 0.2, (outputs, 2 * side * side)),
                        rng.normal(0, 0.05, outputs), activation="none")]
    save_model(NetworkSpec((1, grid, grid), layers), path)
    return path


def _conv_model(path):
    """Two conv layers on (1, 6, 6) frames, the second reducing to 3
    q-values, so a stride or padding that keeps its 1 x 1 output loads."""
    rng = np.random.default_rng(3)
    save_model(NetworkSpec((1, 6, 6), [
        conv2d(rng.normal(0, 0.3, (2, 1, 3, 3)), rng.normal(0, 0.05, 2), padding=(1, 1)),
        conv2d(rng.normal(0, 0.2, (3, 2, 6, 6)), rng.normal(0, 0.05, 3), activation="none"),
        flatten()]), path)
    return path


@pytest.mark.parametrize("command", ["play", "play-spiking", "play-epsilon-1", "replay",
                                     "replay-source", "sweep"])
def test_q_width_other_than_the_action_count_is_data_error(tmp_path, command, capsys):
    """A model must give one q-value per action: a 2- or 5-output net on
    3-action LineCatch, or against a 3-action trace, is refused before any
    play, with exit 2 and no report written."""
    two, five = _model(tmp_path / "two", 8, 2), _model(tmp_path / "five", 8, 5)
    conv = _model(tmp_path / "conv", 8, 3, conv=True)
    trace = tmp_path / "t.trace"
    frames = (np.arange(4 * 64).reshape(4, 1, 8, 8) % 7 == 0).astype(np.float32)
    write_trace(EpisodeTrace(3, (1, 8, 8), trace_steps((1, 8, 8), frames, [0, 1, 2, 1], 0.0)),
                trace)
    small = ["--episodes", "1", "--timesteps", "5", "--max-noop", "0", "--episode-len", "20"]
    argv = {
        "play": ["play", "--model", two, *small],
        "play-spiking": ["play", "--model", conv, "--snn-model", two, *small],
        "play-epsilon-1": ["play", "--model", five, "--epsilon", "1", *small],
        "replay": ["replay", "--snn-model", two, "--trace", trace, "--timesteps", "5"],
        "replay-source": ["replay", "--snn-model", five, "--source", conv, "--trace", trace,
                          "--timesteps", "5"],
        "sweep": ["sweep", "--mode", "time", "--values", "5", "--model", two, *small],
    }[command]
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out) == 2
    assert "q-values, but there are 3 actions" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


@pytest.mark.parametrize("command", ["play", "replay"])
def test_invalid_spiking_model_is_data_error(tmp_path, command, capsys):
    """A converted model that breaks a network rule (a hidden layer
    without ReLU) is refused with exit 2 and no report written."""
    model = _model(tmp_path / "model", 8, 3, conv=True)
    bad = tmp_path / "bad"
    shutil.copytree(model, bad)
    payload = json.loads((bad / "manifest.json").read_text())
    payload["layers"][0]["activation"] = "none"
    (bad / "manifest.json").write_text(json.dumps(payload))
    trace = tmp_path / "t.trace"
    frames = (np.arange(4 * 64).reshape(4, 1, 8, 8) % 7 == 0).astype(np.float32)
    write_trace(EpisodeTrace(3, (1, 8, 8), trace_steps((1, 8, 8), frames, [0, 1, 2, 1], 0.0)),
                trace)
    argv = {
        "play": ["play", "--model", model, "--snn-model", bad, "--episodes", "1",
                 "--timesteps", "5", "--episode-len", "20"],
        "replay": ["replay", "--snn-model", bad, "--source", model, "--trace", trace,
                   "--timesteps", "5"],
    }[command]
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out) == 2
    assert "hidden layers must use relu" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


def test_huge_conv_stride_is_data_error(tmp_path, frames_blob, capsys):
    """A stride of 2**31 or more is refused when the model loads, even one
    that leaves the output shape as it was."""
    model = _conv_model(tmp_path / "conv")
    manifest = model / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["layers"][1]["stride"] = [10**30, 1]
    manifest.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    for argv in (["stats", "--model", model, "--frames", frames_blob, "--out", out],
                 ["simulate", "--model", model, "--frame", frames_blob, "--diagnose", out]):
        assert run_cli(*argv) == 2
        assert "stride must be in [1, 2**31)" in capsys.readouterr().err
        assert not out.exists()


def test_conv_too_large_to_allocate_is_data_error(tmp_path, capsys):
    """Padding of 2**30 rows on 128-pixel-wide frames asks for arrays of
    2 TiB or more, whose allocation fails at once: exit 2, no traceback."""
    rng = np.random.default_rng(0)
    model = tmp_path / "padded"
    save_model(NetworkSpec((1, 2, 128), [
        conv2d(rng.normal(0, 1, (1, 1, 1, 1)), [0.0], padding=(2**30, 0))]), model)
    frames = tmp_path / "frames.bin"
    write_blob(frames, (rng.random((2, 1, 2, 128)) < 0.5).astype(np.float32))
    out = tmp_path / "out.json"
    for argv in (["stats", "--model", model, "--frames", frames, "--out", out],
                 ["simulate", "--model", model, "--frame", frames, "--timesteps", "5"]):
        assert run_cli(*argv) == 2
        assert "out of memory" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# sweep

def test_sweep_rows_and_reproducible_bytes(tmp_path, model_dir):
    args = ("sweep", "--mode", "time", "--values", "20,60", "--model", model_dir,
            "--episodes", "2", "--seed", "4", "--grid-size", "6",
            "--episode-len", "20", "--max-noop", "5")
    assert run_cli(*args, "--out", tmp_path / "a.csv") == 0
    assert run_cli(*args, "--out", tmp_path / "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    rows = read_report_rows(tmp_path / "a.csv")
    assert [r.value for r in rows] == [20.0, 60.0]
    assert len(rows) == 2


def test_sweep_empty_values_is_usage_error(tmp_path, model_dir):
    assert run_cli("sweep", "--mode", "time", "--values", " , ", "--model", model_dir,
                   "--out", tmp_path / "s.csv") == 1
    assert run_cli("sweep", "--mode", "time", "--values", "10,zap", "--model", model_dir,
                   "--out", tmp_path / "s.csv") == 1


def test_sweep_percentile_values_validated(tmp_path, model_dir):
    assert run_cli("sweep", "--mode", "percentile", "--values", "42", "--model",
                   model_dir, "--out", tmp_path / "s.csv") == 1


def test_sweep_meta_sidecar_records_protocol(tmp_path, model_dir):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--mode", "percentile", "--values", "99.9,100",
                   "--model", model_dir, "--episodes", "2", "--seed", "6",
                   "--grid-size", "6", "--episode-len", "20", "--out", out) == 0
    meta = json.loads((out.with_suffix(".csv.meta.json")).read_text())
    assert meta["mode"] == "percentile"
    assert meta["values"] == [99.9, 100.0]
    assert meta["epsilon"] == 0.05 and meta["max_noop"] == 30
    assert len(meta["points"]) == 2


# ---------------------------------------------------------------------------
# argument handling

def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("simulate", "--model", "x", "--frame", "y", "--bogus") == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("flags, model", [
    (["simulate", "--vthr", "0"], "model"),
    (["play", "--epsilon", "2"], "model"),
    (["play", "--episodes", "0"], "model"),
    (["play", "--max-noop", "-1"], "model"),
    (["play", "--frame-budget", "-1"], "model"),
    (["play", "--grid-size", "1"], "model"),
    (["play", "--episode-len", "0"], "model"),
    (["sweep", "--mode", "time", "--max-frames", "0"], "model"),
    (["sweep", "--mode", "time", "--percentile", "98"], "model"),
    (["sweep", "--mode", "percentile", "--values", "98"], "model"),
    (["sweep", "--mode", "time", "--values", "nan"], "model"),
    (["sweep", "--mode", "time", "--values", "10,inf"], "model"),
    (["sweep", "--mode", "time", "--grid-size", "1"], "model"),
    (["sweep", "--mode", "time", "--episode-len", "0"], "model"),
    (["play", "--episodes", "0"], "absent"),  # flags are checked before files are read
    (["sweep", "--mode", "time", "--frame-budget", "0"], "absent"),  # no calibration frames
    (["simulate", "--vthr", "inf"], "model"),
    (["play", "--vthr", "inf"], "model"),
    (["simulate", "--vthr", "1e-310", "--timesteps", "5"], "model"),  # T * v_thr subnormal
])
def test_bad_flag_value_is_usage_error(tmp_path, model_dir, frames_blob, flags, model):
    out = tmp_path / "out"
    model_path = model_dir if model == "model" else tmp_path / model
    if flags[0] == "simulate":
        tail = ["--frame", frames_blob, "--diagnose", out]
    else:
        tail = ["--out", out]
    assert run_cli(*flags, "--model", model_path, *tail) == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# any input file: exit 0, 1 or 2, never a traceback

_JSON_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -10**400, 2**64, -1, 0,
                     True, None, "", [], {}]),
    st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(_STATS)), index=st.none() | st.integers(0, 1),
       value=_JSON_VALUES)
def test_any_stats_value_exits_0_1_or_2(tmp_path, model_dir, key, index, value):
    """Replacing one value of a valid stats file, or one item of a list in
    it, never raises out of normalize."""
    payload = copy.deepcopy(_STATS)
    if index is not None and isinstance(payload[key], list) and payload[key]:
        payload[key][index] = value
    else:
        payload[key] = value
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps(payload))
    assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                   "--out", tmp_path / "norm") in (0, 1, 2)


_EDITS = st.lists(st.tuples(st.integers(0, 600), st.binary(min_size=1, max_size=4)),
                  max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS, cut=st.none() | st.integers(0, 600))
def test_any_trace_bytes_exit_0_1_or_2(tmp_path, model_dir, edits, cut):
    """A valid three-step trace with bytes overwritten, or cut short, never
    raises out of replay --trace or stats --frames."""
    path = tmp_path / "t.trace"
    frames = (np.arange(108, dtype=np.float32).reshape(3, 1, 6, 6) % 5) / 4
    write_trace(EpisodeTrace(3, (1, 6, 6), trace_steps((1, 6, 6), frames, [0, 1, 2], 1.0)),
                path)
    data = bytearray(path.read_bytes())
    for pos, chunk in edits:
        data[pos:pos + len(chunk)] = chunk
    path.write_bytes(bytes(data[:cut]))
    assert run_cli("replay", "--snn-model", model_dir, "--trace", path, "--timesteps", "5",
                   "--out", tmp_path / "replay.csv") in (0, 1, 2)
    assert run_cli("stats", "--model", model_dir, "--frames", path,
                   "--out", tmp_path / "stats.json") in (0, 1, 2)


# 4-byte words: float32 NaN, +inf, -inf, the largest float32, all ones, zero, or any
_WORDS = st.lists(st.tuples(st.integers(0, 150), st.sampled_from(
    [0x7FC00000, 0x7F800000, 0xFF800000, 0x7F7FFFFF, 0xFFFFFFFF, 0]) | st.integers(0, 2**32 - 1)),
    max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS, words=_WORDS, cut=st.none() | st.integers(0, 600))
def test_any_frame_blob_bytes_exit_0_1_or_2(tmp_path, model_dir, edits, words, cut):
    """A valid blob of three frames with bytes or aligned words overwritten,
    or cut short, never raises out of stats --frames or simulate --frame,
    and whatever JSON a successful command writes is strict."""
    path = tmp_path / "f.bin"
    write_blob(path, (np.arange(108, dtype=np.float32).reshape(3, 1, 6, 6) % 5) / 4)
    data = bytearray(path.read_bytes())
    for pos, chunk in edits:
        data[pos:pos + len(chunk)] = chunk
    for index, word in words:
        data[4 * index:4 * index + 4] = word.to_bytes(4, "little")
    path.write_bytes(bytes(data[:cut]))
    stats, diagnose = tmp_path / "stats.json", tmp_path / "diagnose.json"
    for out in (stats, diagnose):
        out.unlink(missing_ok=True)
    codes = [run_cli("stats", "--model", model_dir, "--frames", path, "--out", stats),
             run_cli("simulate", "--model", model_dir, "--frame", path, "--timesteps", "5",
                     "--diagnose", diagnose)]
    assert set(codes) <= {0, 1, 2}
    for code, out in zip(codes, (stats, diagnose)):
        if code == 0:
            _strict_json(out)


# Mutations of a valid model directory.  Sizes, strides and paddings are
# drawn small (at most 8) or at least 2**31, which is refused before any
# allocation; the manifest's byte edits write no digits, so they make no
# number in between.  Blob edits can claim any dims, but a blob's data
# must fill them, so a blob never holds more than its file.
_MODEL_FILES = ["manifest.json", "layer000_weights.bin", "layer000_bias.bin",
                "layer001_weights.bin", "layer001_bias.bin"]
_MODEL_VALUES = st.one_of(
    st.integers(-1, 8), st.sampled_from([2**31, 2**40, 10**30]),
    st.sampled_from([None, True, 1.5, "", "relu", "none", "dense", "conv2d", "flatten", {},
                     "..", "../outside.bin", "sub/layer000_weights.bin", "/absent/x.bin",
                     "layer001_bias.bin", "absent.bin"]),
    st.lists(st.one_of(st.integers(-1, 8), st.sampled_from([2**31, 10**30, True, 1.5, "1"])),
             max_size=4))
_MODEL_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["set", "add"]), st.integers(0, 99), _MODEL_VALUES),
    st.tuples(st.just("delete"), st.integers(0, 99), st.none()),
    st.tuples(st.just("text"), st.integers(0, 2000), st.sampled_from(
        [b"{", b"}", b"[", b'"', b",", b"x", b" ", b"-", b".", b"\xff"])),
    st.tuples(st.just("byte"), st.sampled_from(_MODEL_FILES[1:]),
              st.tuples(st.integers(0, 900), st.binary(min_size=1, max_size=4))),
    st.tuples(st.just("word"), st.sampled_from(_MODEL_FILES[1:]), st.tuples(
        st.integers(0, 24), st.sampled_from([0, 1, 3, 8, 0x7FC00000, 0x7F800000, 0x7F7FFFFF,
                                             2**31 - 1, 2**32 - 1]))),
    st.tuples(st.just("cut"), st.sampled_from(_MODEL_FILES), st.integers(0, 900)),
    st.tuples(st.just("remove"), st.sampled_from(_MODEL_FILES), st.none()),
    st.tuples(st.just("extra"), st.sampled_from(
        ["extra.bin", "notes.txt", "sub/layer000_weights.bin", "../outside.bin"]), st.none()),
), min_size=1, max_size=3)


def _edit_manifest(doc, op, index, value):
    """doc with the value at its index-th key path set, deleted or given
    an extra key ("add")."""
    paths = list(json_paths(doc))
    path = paths[index % len(paths)]
    if not path:
        return value if op == "set" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "set":
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent[path[-1]], dict):
        parent[path[-1]]["extra"] = value
    return doc


def _mutate_model(model, edits):
    manifest = model / "manifest.json"
    blob = (model / "layer000_weights.bin").read_bytes()
    for op, target, arg in edits:
        if op in ("set", "add", "delete"):
            if manifest.is_file():
                try:
                    doc = json.loads(manifest.read_text())
                except ValueError:
                    continue
                manifest.write_text(json.dumps(_edit_manifest(doc, op, target, arg)))
        elif op == "text" and manifest.is_file():
            data = bytearray(manifest.read_bytes())
            data[target % len(data)] = arg[0]
            manifest.write_bytes(bytes(data))
        elif op in ("byte", "word", "cut") and (model / target).is_file():
            data = bytearray((model / target).read_bytes())
            if op == "byte":
                pos, chunk = arg
                data[pos:pos + len(chunk)] = chunk
            elif op == "word":
                index, word = arg
                data[4 * index:4 * index + 4] = struct.pack("<I", word)
            else:
                del data[arg:]
            (model / target).write_bytes(bytes(data))
        elif op == "remove":
            (model / target).unlink(missing_ok=True)
        elif op == "extra":
            path = model / target
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(blob if target.endswith("weights.bin") else b"junk")
    return model


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_MODEL_EDITS)
@example(edits=[("set", 26, 10**30)])  # second conv's stride [10**30, 1]
@example(edits=[("set", 23, 2**31)])  # second conv's padding [2**31, 0]
@example(edits=[("extra", "sub/layer000_weights.bin", None),
                ("set", 17, "sub/layer000_weights.bin")])  # the blob is there, the name is a path
@example(edits=[("extra", "../outside.bin", None), ("set", 17, "../outside.bin")])
def test_any_mutated_model_directory_exits_0_1_or_2(tmp_path, edits):
    """A valid conv model directory with its manifest, blobs or files
    mutated never raises out of any command, and whatever JSON a
    successful command writes is strict."""
    case = tmp_path / "case"
    shutil.rmtree(case, ignore_errors=True)
    case.mkdir()
    model = _mutate_model(_conv_model(case / "m"), edits)
    frames = case / "frames.bin"
    pixels = (np.arange(4 * 36).reshape(4, 1, 6, 6) % 5 == 0).astype(np.float32)
    write_blob(frames, pixels)
    trace = case / "t.trace"
    write_trace(EpisodeTrace(3, (1, 6, 6), trace_steps((1, 6, 6), pixels, [0, 1, 2, 1], 1.0)),
                trace)
    stats = case / "given_stats.json"
    stats.write_text(json.dumps({**_STATS, "scales": [1.0, 2.0, 4.0], "sample_counts": [0, 1, 1]}))
    small = ["--timesteps", "5", "--episodes", "1", "--frame-budget", "4", "--max-noop", "0",
             "--grid-size", "6"]
    runs = [
        (["stats", "--model", model, "--frames", frames, "--out", case / "s.json"],
         [case / "s.json"]),
        (["normalize", "--model", model, "--stats", stats, "--out", case / "n"],
         [case / "n" / "manifest.json"]),
        (["simulate", "--model", model, "--frame", frames, "--timesteps", "5",
          "--diagnose", case / "d.json"], [case / "d.json"]),
        (["replay", "--snn-model", model, "--source", model, "--trace", trace,
          "--timesteps", "5", "--out", case / "r.csv"], [case / "r.csv.meta.json"]),
        (["play", "--model", model, "--snn-model", model, *small, "--out", case / "p.csv"],
         [case / "p.csv.meta.json"]),
        (["sweep", "--mode", "time", "--values", "5", "--model", model, "--frames", frames,
          *small, "--out", case / "w.csv"], [case / "w.csv.meta.json"]),
    ]
    for argv, outputs in runs:
        code = run_cli(*argv)
        assert code in (0, 1, 2), argv
        if code == 0:
            for out in outputs:
                _strict_json(out)


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "stats" in capsys.readouterr().out
