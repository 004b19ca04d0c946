"""Round-trip and malformed-input behavior of all file formats."""

import copy
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rateconv import (BlobError, EpisodeTrace, FormatError, ManifestError, NetworkSpec,
                      NormConfig, ReportRow, TraceError, TraceReader, collect_stats, dense,
                      conv2d, flatten, load_frames, load_model, read_blob,
                      read_trace, save_model, step_dtype, validate_network, write_blob,
                      write_report, write_trace)
from rateconv.modelio import BlobReader, open_frames

from conftest import (json_paths, rand_conv_net, rand_dense_net, read_report_rows,
                      trace_steps)


# ---------------------------------------------------------------------------
# tensor blobs

def test_blob_round_trip_bit_exact(tmp_path, rng):
    arr = rng.normal(size=(4, 3, 2)).astype(np.float32)
    path = tmp_path / "t.bin"
    write_blob(path, arr)
    back = read_blob(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)
    # declared byte length: magic + ndim + dims + data
    assert path.stat().st_size == 8 + 4 + 4 * 3 + 4 * 24


def test_blob_truncated_names_file(tmp_path):
    path = tmp_path / "t.bin"
    write_blob(path, np.ones((5,), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(BlobError, match="t.bin"):
        read_blob(path)


def test_blob_bad_magic_and_trailing_bytes(tmp_path):
    path = tmp_path / "t.bin"
    write_blob(path, np.ones((2,), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(BlobError, match="magic"):
        read_blob(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(BlobError, match="trailing"):
        read_blob(path)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), dims=st.lists(st.integers(0, 3), max_size=4).map(tuple),
       stacked=st.booleans())
def test_blob_round_trip_through_every_read(tmp_path, data, dims, stacked):
    """read_blob and BlobReader.frame_windows give back what write_blob
    wrote, as float32 arrays of the blob's dims (zero dims included), on
    every pass and at any rows: frames along the leading dim, or the
    whole blob as one frame."""
    arr = data.draw(arrays(np.float32, dims))
    path = tmp_path / "t.bin"
    write_blob(path, arr)
    # a frame shape of dims[1:] stacks frames along the leading dim; any other is one frame
    stacked = stacked and len(dims) >= 2
    reader = BlobReader(path, dims[1:] if stacked else (*dims, 1))
    assert reader.shape == (dims if stacked else (1, *dims))
    frames = arr.reshape(reader.shape)
    rows = data.draw(st.integers(1, 6))
    for _ in range(2):
        back = read_blob(path)
        assert back.dtype == np.float32 and back.shape == dims
        assert back.tobytes() == arr.tobytes()
        starts = []
        for start, window in reader.frame_windows(rows):
            starts.append(start)
            expected = frames[start:start + rows]
            assert window.dtype == np.float32 and window.shape == expected.shape
            assert window.tobytes() == expected.tobytes()
        assert starts == list(range(0, len(frames), rows))


# ---------------------------------------------------------------------------
# model directories

@pytest.mark.parametrize("builder", [
    lambda rng: rand_dense_net(rng),
    lambda rng: rand_conv_net(rng),
    lambda rng: NetworkSpec((1, 4, 4), [flatten(),
                                        dense(rng.normal(size=(3, 16)), rng.normal(size=3),
                                              activation="none")]),
])
def test_model_round_trip_bit_exact(tmp_path, rng, builder):
    net = builder(rng)
    save_model(net, tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert back.input_shape == net.input_shape
    assert len(back.layers) == len(net.layers)
    for a, b in zip(net.layers, back.layers):
        assert a.kind == b.kind and a.activation == b.activation
        if a.kind == "conv2d":
            assert a.stride == b.stride and a.padding == b.padding
        if a.parameterized:
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def test_save_model_bytes_stable_across_runs(tmp_path, rng):
    net = rand_conv_net(rng)
    save_model(net, tmp_path / "a")
    save_model(net, tmp_path / "b")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_model_missing_dir_and_missing_blob(tmp_path, rng):
    with pytest.raises(ManifestError, match="manifest"):
        load_model(tmp_path / "nope")
    net = rand_dense_net(rng)
    save_model(net, tmp_path / "m")
    (tmp_path / "m" / "layer000_weights.bin").unlink()
    with pytest.raises(BlobError, match="layer000_weights.bin"):
        load_model(tmp_path / "m")


def test_save_model_refuses_invalid_network(tmp_path):
    broken = NetworkSpec((3,), [dense(np.zeros((2, 5)), np.zeros(2))])
    with pytest.raises(ValueError, match="cannot save invalid network"):
        save_model(broken, tmp_path / "m")
    assert not (tmp_path / "m").exists()


def test_load_model_dim_mismatch_reported(tmp_path, rng):
    net = NetworkSpec((5,), [dense(rng.normal(size=(4, 5)), np.zeros(4)),
                             dense(rng.normal(size=(3, 4)), np.zeros(3), activation="none")])
    save_model(net, tmp_path / "m")
    # replace the second weight blob with a [3, 4]-incompatible tensor
    write_blob(tmp_path / "m" / "layer001_weights.bin", np.zeros((3, 7), dtype=np.float32))
    with pytest.raises(ManifestError, match="layer 1"):
        load_model(tmp_path / "m")


def test_load_model_rejects_bad_json_and_version(tmp_path, rng):
    net = rand_dense_net(rng)
    save_model(net, tmp_path / "m")
    manifest = tmp_path / "m" / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["format_version"] = 99
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ManifestError, match="format_version"):
        load_model(tmp_path / "m")
    manifest.write_text("{not json")
    with pytest.raises(ManifestError, match="JSON"):
        load_model(tmp_path / "m")


MANIFEST_VALUES = [None, True, 0, -1, 2, 1.5, 1e300, float("inf"), "", "x", "..",
                   "../layer000_weights.bin", "/x.bin", [], [1], [2, 2], [1.5, 1], ["1", 1],
                   [[1]], {}, {"kind": "dense"}]


def _with_value(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_load_model_any_manifest_value_loads_or_raises_format_error(tmp_path):
    net = rand_conv_net(np.random.default_rng(4))
    assert [layer.kind for layer in net.layers][:2] == ["conv2d", "conv2d"]
    save_model(net, tmp_path / "m")
    manifest = tmp_path / "m" / "manifest.json"
    valid = json.loads(manifest.read_text())
    for path in list(json_paths(valid)):
        for value in MANIFEST_VALUES:
            manifest.write_text(json.dumps(_with_value(valid, path, value)))
            try:
                loaded = load_model(tmp_path / "m")
            except Exception as exc:  # any other type fails, naming the case
                assert isinstance(exc, FormatError), (path, value, exc)
                continue
            assert validate_network(loaded).ok, (path, value)


def test_load_model_rejects_blob_paths_outside_the_model(tmp_path, rng):
    save_model(rand_dense_net(rng), tmp_path / "m")
    (tmp_path / "outside.bin").write_bytes((tmp_path / "m" / "layer000_weights.bin").read_bytes())
    manifest = tmp_path / "m" / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["layers"][0]["weights"] = "../outside.bin"
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ManifestError, match="not a file name"):
        load_model(tmp_path / "m")


# ---------------------------------------------------------------------------
# traces

def _trace(rng, steps, action_count=4, shape=(1, 4, 4)):
    records = trace_steps(shape, rng.random((steps, *shape)),
                          rng.integers(action_count, size=steps), rng.integers(0, 2, size=steps))
    return EpisodeTrace(action_count=action_count, observation_shape=shape, steps=records)


def test_missing_frames_file_is_named(tmp_path):
    missing = tmp_path / "absent.trace"
    with pytest.raises(TraceError, match="absent.trace: no such trace file"):
        TraceReader(missing)
    with pytest.raises(FormatError, match="absent.trace: no such file"):
        open_frames(missing)


def test_trace_round_trip_empty(tmp_path, rng):
    trace = _trace(rng, 0)
    write_trace(trace, tmp_path / "t.trace")
    back = read_trace(tmp_path / "t.trace")
    assert back.action_count == 4
    assert back.observation_shape == (1, 4, 4)
    assert len(back.steps) == 0 and back.steps.dtype == step_dtype((1, 4, 4))


def test_trace_round_trip_bit_exact(tmp_path, rng):
    trace = _trace(rng, 100)
    write_trace(trace, tmp_path / "t.trace")
    back = read_trace(tmp_path / "t.trace")
    assert len(back.steps) == 100
    for name in ("observation", "action", "reward"):
        assert np.array_equal(back.steps[name], trace.steps[name])


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), shape=st.lists(st.integers(0, 3), max_size=3).map(tuple),
       count=st.integers(0, 20), action_count=st.integers(1, 2**32 - 1))
def test_trace_round_trip_keeps_every_field(tmp_path, data, shape, count, action_count):
    steps = np.empty(count, step_dtype(shape))
    steps["observation"] = data.draw(arrays(np.float32, (count, *shape)))
    steps["action"] = data.draw(arrays(np.uint32, count,
                                       elements=st.integers(0, action_count - 1)))
    steps["reward"] = data.draw(arrays(np.float64, count))
    path = tmp_path / "t.trace"
    write_trace(EpisodeTrace(action_count, shape, steps), path)
    back = read_trace(path)
    assert (back.action_count, back.observation_shape) == (action_count, shape)
    assert back.steps.dtype == steps.dtype
    for name in steps.dtype.names:  # bytes, so NaNs compare too
        assert back.steps[name].tobytes() == steps[name].tobytes()
    rows = data.draw(st.integers(1, 6))
    reader = TraceReader(path)
    assert reader.shape == (count, *shape)
    for _ in range(2):  # a second pass reads the same windows
        starts = []
        for start, records in reader.windows(rows):
            starts.append(start)
            for name in steps.dtype.names:
                assert records[name].tobytes() == steps[name][start:start + rows].tobytes()
        assert starts == list(range(0, count, rows))


def test_sliced_steps_write_that_slice_of_the_file(tmp_path, rng):
    """perfbench/inputs.py splits a recorded trace by slicing its steps:
    the slice's file is the header with the new step count, then the
    sliced records' bytes."""
    write_trace(_trace(rng, 10), tmp_path / "t.trace")
    raw = (tmp_path / "t.trace").read_bytes()
    trace = read_trace(tmp_path / "t.trace")
    header, record = 32, 24 + 64 + 12
    for a, b in [(0, 10), (0, 4), (4, 10), (3, 3), (9, 10)]:
        part = EpisodeTrace(trace.action_count, trace.observation_shape, trace.steps[a:b])
        write_trace(part, tmp_path / "part.trace")
        assert (tmp_path / "part.trace").read_bytes() == (
            raw[:header - 4] + struct.pack("<I", b - a)
            + raw[header + a * record:header + b * record])


def test_write_trace_rejects_steps_of_another_dtype(tmp_path, rng):
    trace = _trace(rng, 3)
    for steps in (list(trace.steps), trace.steps[["observation", "action"]],
                  _trace(rng, 3, shape=(4,)).steps, trace.steps.reshape(3, 1)):
        with pytest.raises(TraceError, match="step_dtype"):
            write_trace(EpisodeTrace(4, (1, 4, 4), steps), tmp_path / "t.trace")


def test_observation_past_numpy_record_limit_is_a_trace_error(tmp_path):
    """numpy caps one record at 2**31 - 1 bytes: a header whose observation
    is larger is rejected before any step is read."""
    path = tmp_path / "t.trace"
    path.write_bytes(b"SNNTR001" + struct.pack("<5I", 2, 2, 2**15, 2**15, 0))  # 4 GiB
    with pytest.raises(TraceError, match="too large"):
        read_trace(path)


def test_trace_rejects_out_of_range_action(tmp_path, rng):
    trace = _trace(rng, 3)
    trace.steps["action"][1] = 7
    with pytest.raises(TraceError, match="out of range"):
        write_trace(trace, tmp_path / "t.trace")


def test_trace_truncation_detected(tmp_path, rng):
    write_trace(_trace(rng, 5), tmp_path / "t.trace")
    raw = (tmp_path / "t.trace").read_bytes()
    (tmp_path / "t.trace").write_bytes(raw[:-4])
    with pytest.raises(TraceError, match="truncated"):
        read_trace(tmp_path / "t.trace")


def test_load_frames_from_blob_and_trace(tmp_path, rng):
    frames = rng.random((7, 1, 4, 4)).astype(np.float32)
    write_blob(tmp_path / "f.bin", frames)
    got = load_frames(tmp_path / "f.bin")
    assert np.array_equal(got, frames)

    trace = _trace(rng, 7)
    write_trace(trace, tmp_path / "t.trace")
    got = load_frames(tmp_path / "t.trace")
    assert got.shape == (7, 1, 4, 4)
    assert np.array_equal(got, trace.observations())

    (tmp_path / "junk").write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(FormatError):
        load_frames(tmp_path / "junk")


def test_trace_errors_name_the_first_bad_step(tmp_path, rng):
    path = tmp_path / "t.trace"
    write_trace(_trace(rng, 4), path)
    raw = path.read_bytes()
    header, record = 32, 24 + 64 + 12  # blob header of (1, 4, 4), data, action, reward

    def patch(data, step, field_offset, value: bytes):
        pos = header + step * record + field_offset
        return data[:pos] + value + data[pos + len(value):]

    path.write_bytes(patch(raw, 2, 0, b"XXXXXXXX"))
    with pytest.raises(BlobError, match="step 2 observation: bad magic"):
        read_trace(path)
    bad_actions = patch(patch(raw, 3, 88, struct.pack("<I", 9)), 1, 88, struct.pack("<I", 4))
    path.write_bytes(bad_actions)
    for reader in (read_trace, load_frames):
        with pytest.raises(TraceError, match=r"step 1 action 4 out of range \[0, 4\)"):
            reader(path)


def test_trace_errors_name_the_step_that_breaks_the_layout(tmp_path, rng):
    path = tmp_path / "t.trace"
    write_trace(_trace(rng, 5), path)
    raw = path.read_bytes()
    header, record = 32, 24 + 64 + 12
    dims = header + record + 12  # step 1's blob dims
    path.write_bytes(raw[:dims] + struct.pack("<3I", 1, 4, 2) + raw[dims + 12:])
    with pytest.raises(TraceError, match=r"step 1 observation shape \(1, 4, 2\) != header"):
        read_trace(path)
    path.write_bytes(raw[:-4])
    with pytest.raises(TraceError, match="truncated while reading step 4 reward"):
        read_trace(path)
    path.write_bytes(raw[:-20])
    with pytest.raises(BlobError, match="step 4 observation: truncated while reading data"):
        read_trace(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(TraceError, match="1 trailing bytes"):
        read_trace(path)


@pytest.mark.parametrize("change", ["head", "header", "longer", "shorter"])
def test_trace_changed_between_passes_is_a_trace_error(tmp_path, rng, change):
    """A pass after the first checks the file against it: a record head,
    the header or the size that changed is a TraceError, not other frames."""
    path = tmp_path / "t.trace"
    write_trace(_trace(rng, 9), path)
    reader = TraceReader(path)
    for _ in reader.windows(4):
        pass
    raw = path.read_bytes()
    header, record = 32, 24 + 64 + 12
    edits = {"head": raw[:header + 5 * record] + b"X" + raw[header + 5 * record + 1:],
             "header": raw[:8] + struct.pack("<I", 5) + raw[12:],
             "longer": raw + raw[header:header + record],
             "shorter": raw[:-record]}
    path.write_bytes(edits[change])
    with pytest.raises(TraceError, match="changed while it was being read"):
        list(reader.windows(4))
    net = NetworkSpec((1, 4, 4), [flatten(), dense(np.ones((2, 16)), np.zeros(2))])
    with pytest.raises(TraceError, match="changed"):
        collect_stats(net, reader, NormConfig())


@pytest.mark.parametrize("change", ["header", "longer", "shorter"])
def test_blob_changed_between_passes_is_a_blob_error(tmp_path, rng, change):
    """A pass after the first checks the file against it: a header or a
    size that changed is a BlobError, not other frames."""
    path = tmp_path / "f.bin"
    write_blob(path, rng.random((9, 1, 4, 4)).astype(np.float32))
    reader = open_frames(path)
    for _ in reader.frame_windows(4):
        pass
    raw = path.read_bytes()
    header, frame = 8 + 4 + 4 * 4, 4 * 16
    edits = {"header": raw[:12] + struct.pack("<I", 5) + raw[16:],
             "longer": raw + raw[header:header + frame],
             "shorter": raw[:-frame]}
    path.write_bytes(edits[change])
    with pytest.raises(BlobError, match="changed while it was being read"):
        list(reader.frame_windows(4))
    net = NetworkSpec((1, 4, 4), [flatten(), dense(np.ones((2, 16)), np.zeros(2))])
    with pytest.raises(BlobError, match="changed"):
        collect_stats(net, reader, NormConfig())


@pytest.mark.parametrize("kind", ["trace", "blob"])
def test_file_that_shrinks_during_a_pass_is_changed(tmp_path, rng, kind):
    """A file cut to half its size after the first window of a pass, 200
    16x16 frames (more than a read buffer holds), comes up short in a
    later window of that pass: the reader's error, not fewer frames."""
    path = tmp_path / kind
    if kind == "trace":
        write_trace(_trace(rng, 200, shape=(1, 16, 16)), path)
        windows, error = TraceReader(path).windows(16), TraceError
    else:
        write_blob(path, rng.random((200, 1, 16, 16)).astype(np.float32))
        windows, error = open_frames(path).frame_windows(16), BlobError
    next(windows)
    with path.open("r+b") as fh:
        fh.truncate(path.stat().st_size // 2)
    with pytest.raises(error, match="changed while it was being read"):
        list(windows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), shape=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
       count=st.integers(0, 20), kind=st.sampled_from(["blob", "trace"]))
def test_frame_windows_are_the_frames_in_order(tmp_path, data, shape, count, kind):
    """Either format's frame windows are slices of the frames along the
    leading dim, on every pass, and load_frames returns those frames."""
    frames = data.draw(arrays(np.float32, (count, *shape)))
    path = tmp_path / f"f.{kind}"
    if kind == "blob":
        write_blob(path, frames)
    else:
        steps = np.zeros(count, step_dtype(shape))
        steps["observation"] = frames
        write_trace(EpisodeTrace(1, shape, steps), path)
    reader = open_frames(path)
    assert isinstance(reader, BlobReader if kind == "blob" else TraceReader)
    assert reader.kind == kind and reader.shape == (count, *shape)
    rows = data.draw(st.integers(1, 6))
    for _ in range(2):
        starts = []
        for start, window in reader.frame_windows(rows):
            starts.append(start)
            assert window.dtype == np.float32 and window.shape[1:] == shape
            assert window.tobytes() == frames[start:start + rows].tobytes()
        assert starts == list(range(0, count, rows))
    got = load_frames(path)
    assert got.dtype == np.float32 and got.tobytes() == frames.tobytes()
    assert got.shape == frames.shape


def test_a_blob_is_one_frame_unless_it_stacks_the_frame_shape(tmp_path):
    """Given a frame shape, a blob of [n, *frame_shape] holds n frames and
    any other blob one, whatever its ndim; without one, a blob needs a
    leading frame dimension."""
    path = tmp_path / "f.bin"
    for dims, frame_shape, shape in [((3, 4), (4,), (3, 4)), ((0, 4), (4,), (0, 4)),
                                     ((4,), (4,), (1, 4)), ((3, 5), (4,), (1, 3, 5)),
                                     ((2, 3), None, (2, 3))]:
        write_blob(path, np.zeros(dims, dtype=np.float32))
        assert open_frames(path, frame_shape).shape == shape
    write_blob(path, np.zeros(4, dtype=np.float32))
    for read in (open_frames, load_frames):
        with pytest.raises(BlobError, match="leading frame dimension"):
            read(path)


def test_dims_too_large_for_an_array_are_format_errors(tmp_path):
    """A zero dim leaves the array empty, but numpy still refuses dims whose
    nonzero product overflows; both formats reject them at the header."""
    huge = (0, 2**32 - 1, 2**32 - 1)
    path = tmp_path / "t.bin"
    path.write_bytes(b"SNNT0001" + struct.pack("<4I", 3, *huge))
    with pytest.raises(BlobError, match="too large"):
        read_blob(path)
    path = tmp_path / "t.trace"
    path.write_bytes(b"SNNTR001" + struct.pack("<6I", 2, 3, *huge, 0))
    with pytest.raises(TraceError, match="too large"):
        load_frames(path)


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, where, value in edits:
        if op == "byte" and out:
            out[where % len(out)] = value % 256
        elif op == "word" and 4 * where + 4 <= len(out):  # an aligned u32
            out[4 * where:4 * where + 4] = struct.pack("<I", value)
        elif op == "cut":
            del out[where % (len(out) + 1):]
        elif op == "grow":
            out.extend([value % 256] * (where % 16 + 1))
    return bytes(out)


_WORDS = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 2**31 - 1, 2**32 - 1]),
                   st.integers(0, 2**32 - 1))
_EDITS = st.lists(st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 2**16), st.integers(0, 255)),
    st.tuples(st.just("word"), st.integers(0, 24), _WORDS),
    st.tuples(st.just("cut"), st.integers(0, 2**16), st.just(0)),
    st.tuples(st.just("grow"), st.integers(0, 64), st.integers(0, 255)),
), min_size=1, max_size=4)


def _valid_file(kind, path):
    """A small blob, or a three-step trace; values of at least 0.5 read as
    large u32 dims when a mutation shifts them into a header."""
    values = (np.arange(12, dtype=np.float32) / 11 + 0.5).reshape(3, 2, 2)
    if kind == "blob":
        write_blob(path, values)
    else:
        steps = trace_steps((1, 2, 2), values[:, None], [0, 1, 2], [0.0, 1.0, 2.0])
        write_trace(EpisodeTrace(3, (1, 2, 2), steps), path)
    return path.read_bytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["blob", "trace"]), edits=_EDITS)
@example(kind="blob", edits=[("word", 2, 4), ("word", 3, 0)])    # dims (0, 2, float, float)
@example(kind="trace", edits=[("word", 10, 5), ("word", 11, 0)])  # step 0's blob, likewise
def test_mutated_blob_or_trace_loads_or_raises_format_error(tmp_path, kind, edits):
    path = tmp_path / f"mutated.{kind}"
    path.write_bytes(_mutate(_valid_file(kind, path), edits))
    if kind == "blob":
        readers = [read_blob, load_frames]
    else:
        readers = [read_trace, lambda p: read_trace(p).observations(), load_frames]
    for reader in readers:
        try:
            reader(path)
        except FormatError:
            pass


# ---------------------------------------------------------------------------
# reports

GOLDEN = ("sweep_param,value,episodes,mean_score,std_score,mean_cr,std_cr,"
          "pearson_score_cr\n"
          "time,500,10,123.456789,1.5,0.875,0.0625,nan\n")


def test_report_golden_bytes(tmp_path):
    row = ReportRow("time", 500.0, 10, 123.456789, 1.5, 0.875, 0.0625, float("nan"))
    write_report([row], tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == GOLDEN
    write_report([row], tmp_path / "r2.csv")
    assert (tmp_path / "r2.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


def test_report_zero_rows_header_only(tmp_path):
    write_report([], tmp_path / "r.csv")
    text = (tmp_path / "r.csv").read_text()
    assert text.splitlines() == [GOLDEN.splitlines()[0]]


def test_report_parse_back_within_1e9(tmp_path, rng):
    rows = [ReportRow("percentile", 99.0 + float(rng.random()), int(rng.integers(1, 100)),
                      float(rng.normal(0, 100)), float(rng.random() * 10),
                      float(rng.random()), float(rng.random()), float(rng.uniform(-1, 1)))
            for _ in range(20)]
    write_report(rows, tmp_path / "r.csv")
    back = read_report_rows(tmp_path / "r.csv")
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a.sweep_param == b.sweep_param and a.episodes == b.episodes
        for name in ("value", "mean_score", "std_score", "mean_cr", "std_cr",
                     "pearson_score_cr"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


def test_report_nan_round_trips(tmp_path):
    write_report([ReportRow("time", 1.0, 1, float("nan"), 0.0, 1.0, 0.0, float("nan"))],
                 tmp_path / "r.csv")
    back = read_report_rows(tmp_path / "r.csv")
    assert math.isnan(back[0].mean_score) and math.isnan(back[0].pearson_score_cr)

