"""Exit codes, defaults, and byte-reproducibility of the command line."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rateconv
from rateconv import (EpisodeTrace, load_model, optimal_network, read_blob, read_report,
                      read_trace, save_model, validate_network, write_blob, write_trace)
from rateconv.cli import main

from conftest import trace_steps


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
    ("provenance", ["a"])])
def test_normalize_mistyped_stats_value_is_data_error(tmp_path, model_dir, key, value):
    """A string is not a list of its characters, a bool is not a number and
    a float is not a count."""
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({**_STATS, key: value}))
    assert run_cli("normalize", "--model", model_dir, "--stats", stats,
                   "--out", tmp_path / "norm") == 2
    assert not (tmp_path / "norm").exists()


def test_normalize_float32_overflow_is_data_error_without_numpy_warning(tmp_path, model_dir):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({**_STATS, "scales": [1.0, 1e-40]}))
    env = {**os.environ, "PYTHONPATH": str(Path(rateconv.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from rateconv.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "normalize", "--model", str(model_dir),
         "--stats", str(stats), "--out", str(tmp_path / "norm")],
        env=env, capture_output=True, text=True, timeout=120)
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
    rows = read_report(csv_path)
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
    row = read_report(out)[0]
    assert row.sweep_param == "replay" and row.mean_cr == 1.0


def test_play_with_spiking_agent(tmp_path, model_dir):
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
    row = read_report(tmp_path / "b.csv")[0]
    assert 0.0 <= row.mean_cr <= 1.0
    meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
    assert meta["spiking_agent"] is True and meta["epsilon"] == 0.05


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
    row = read_report(out)[0]
    assert np.isnan(row.mean_cr) and np.isnan(row.std_cr)
    meta = _strict_json(tmp_path / "zero.csv.meta.json")
    assert meta["conversion_rate"] is None and meta["spiking_agent"] is spiking


# ---------------------------------------------------------------------------
# sweep

def test_sweep_rows_and_reproducible_bytes(tmp_path, model_dir):
    args = ("sweep", "--mode", "time", "--values", "20,60", "--model", model_dir,
            "--episodes", "2", "--seed", "4", "--grid-size", "6",
            "--episode-len", "20", "--max-noop", "5")
    assert run_cli(*args, "--out", tmp_path / "a.csv") == 0
    assert run_cli(*args, "--out", tmp_path / "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    rows = read_report(tmp_path / "a.csv")
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


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "stats" in capsys.readouterr().out
