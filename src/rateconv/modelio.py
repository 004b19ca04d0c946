"""Bit-exact persistence for models, tensors, episode traces and reports.

Three formats, all little-endian:

Tensor blob (``*.bin``)
    magic ``SNNT0001`` (8 bytes), ndim (u32), ndim dims (u32 each), then
    prod(dims) float32 values in row-major order.  Total length is
    exactly 8 + 4 + 4*ndim + 4*prod(dims) bytes.

Model directory
    ``manifest.json`` (format_version 1, input_shape, per-layer records
    with kind/activation/stride/padding and blob filenames) plus one
    tensor blob per parameter tensor.

Episode trace (``*.trace``)
    magic ``SNNTR001`` (8 bytes), action_count (u32), ndim (u32), dims
    (u32 each), step_count (u32), then per step: one tensor blob holding
    the observation (dims must match the header), action (u32), reward
    (f64).  The header fixes every step record, so TraceReader reads
    the body into a record array (step_dtype behind the blob header) one
    window of steps at a time; an error names the first step that breaks
    the layout.  numpy caps a record at 2**31 - 1 bytes, so one
    observation must be smaller than 2 GiB.

Frame files
    Calibration and simulation frames come from a trace (its
    observations) or a blob (slices along its leading dim).
    open_frames tells the two apart and returns a TraceReader or a
    BlobReader; both give the frames' `shape` and frame_windows(rows),
    which yields (start, float32 frames) a window at a time, so no pass
    holds more than one window of the file.

Readers share one header cursor (_Header: truncation, ndim <= 32, dims
numpy can hold) and one windowed read (_windows: the header and size
seen at open, then one reused buffer; read_blob reads one window), and
raise FormatError, naming the file and location, for anything they
cannot load.

CSV reports render every number with ten significant digits, so a
parse of the written file recovers values to within 1e-9 relative.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import LAYER_KINDS, LayerSpec, NetworkSpec, validate_network

BLOB_MAGIC = b"SNNT0001"
TRACE_MAGIC = b"SNNTR001"
MANIFEST_NAME = "manifest.json"
REPORT_HEADER = ("sweep_param,value,episodes,mean_score,std_score,"
                 "mean_cr,std_cr,pearson_score_cr")


class FormatError(Exception):
    """A file failed to parse; the message names the offending location."""


class BlobError(FormatError):
    pass


class ManifestError(FormatError):
    pass


class TraceError(FormatError):
    pass


# ---------------------------------------------------------------------------
# headers, windowed reads and tensor blobs

def _blob_head(shape: tuple[int, ...]) -> bytes:
    """A blob's bytes before its data: magic, ndim and dims."""
    return BLOB_MAGIC + struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)


def blob_to_bytes(array: np.ndarray) -> bytes:
    arr = np.asarray(array, dtype="<f4")  # not ascontiguousarray, which makes a 0-d array 1-d
    return _blob_head(arr.shape) + arr.tobytes(order="C")


class _Header:
    """A cursor over a file's leading bytes, holding the rules every
    format's header shares; each fault is an `error` naming `where`."""

    def __init__(self, buf: bytes, where, error: type[FormatError]):
        self.buf, self.where, self.error = buf, where, error
        self.offset = 0

    def fail(self, message: str) -> FormatError:
        return self.error(f"{self.where}: {message}")

    def take(self, n: int, what: str) -> bytes:
        """The next n bytes, or a fault naming `what` if the buffer ends first."""
        end = self.offset + n
        if end > len(self.buf):
            raise self.fail(f"truncated while reading {what}")
        chunk, self.offset = self.buf[self.offset:end], end
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def dims(self, ndim: str = "ndim", noun: str = "dims", verb: str = "are"
             ) -> tuple[int, ...]:
        """ndim (a u32, at most 32), then ndim dims (u32 each) of a float32
        array numpy can hold, which it refuses if the nonzero dims and item
        size multiply past the largest intp, even when a zero dim leaves
        it empty; messages call them `ndim` and `noun`."""
        n = self.u32("ndim")
        if n > 32:
            raise self.fail(f"implausible {ndim} {n}")
        dims = struct.unpack(f"<{n}I", self.take(4 * n, noun))
        if 4 * math.prod(d or 1 for d in dims) > np.iinfo(np.intp).max:
            raise self.fail(f"{noun} {dims} {verb} too large for an array")
        return dims


def _read_header(path: Path, where, error: type[FormatError], at: int = 0
                 ) -> tuple[_Header, int]:
    """A cursor over the bytes of a file from `at` (as many as the longest
    header holds), and the number of bytes from `at` to its end."""
    with open(path, "rb") as fh:
        fh.seek(at)
        # the longest header: a trace's magic, action count, ndim, 32 dims, step count
        return _Header(fh.read(8 + 4 * 35), where, error), fh.seek(0, 2) - at


def _windows(path: Path, header: bytes, size: int, item: tuple, count: int, rows: int,
             changed):
    """Yield (start, window) for each window of up to `rows` of the
    `count` items after a file's header, in file order: each item an
    array of item = (dtype, shape), the window one buffer that the next
    overwrites.  Raises changed() if the file's header bytes or size are
    not those seen at open, or if a read comes up short."""
    dtype, shape = item
    with open(path, "rb") as fh:
        if fh.read(len(header)) != header or fh.seek(0, 2) != size:
            raise changed()
        fh.seek(len(header))
        # shaped, not of a subarray dtype, which makes a zero-size item's array V0
        buf = np.empty((min(rows, count), *shape), dtype)
        for start in range(0, count, rows):
            window = buf[:min(rows, count - start)]
            if fh.readinto(window.view(np.uint8)) != window.nbytes:
                raise changed()
            yield start, window


def _blob_dims(head: _Header, size: int) -> tuple[tuple[int, ...], int]:
    """A blob's dims and the end of its data, parsed at the cursor's start
    in `size` bytes; a fault if the data would run past them."""
    magic = head.take(8, "magic")
    if magic != BLOB_MAGIC:
        raise head.fail(f"bad magic {magic!r}")
    dims = head.dims()
    end = head.offset + 4 * math.prod(dims)
    if end > size:
        raise head.fail("truncated while reading data")
    return dims, end


def write_blob(path, array: np.ndarray) -> None:
    Path(path).write_bytes(blob_to_bytes(array))


def _blob_layout(p: Path):
    """A blob file's dims, and read(item, count, rows), _windows over its
    data as checked here, in this order: the file exists, its header
    parses, and its data fills the rest of the file exactly."""
    if not p.is_file():
        raise BlobError(f"{p}: no such blob file")
    head, size = _read_header(p, p, BlobError)
    dims, end = _blob_dims(head, size)
    if end < size:
        raise head.fail(f"{size - end} trailing bytes after tensor data")

    def read(item, count, rows):
        return _windows(p, head.buf[:head.offset], size, item, count, rows,
                        lambda: head.fail("blob changed while it was being read"))
    return dims, read


def read_blob(path) -> np.ndarray:
    dims, read = _blob_layout(Path(path))
    [(_, data)] = read(("<f4", dims), 1, 1)
    return data[0].astype(np.float32, copy=False)


class BlobReader:
    """A frame blob read one window of frames at a time.

    Its frames lie along the blob's leading dim, and `shape` is
    [frame_count, *frame_shape].  Construction reads the header and the
    file's size and raises what read_blob raises, in read_blob's order.
    Given `frame_shape`, a blob whose dims are not [n, *frame_shape]
    holds one frame, the whole blob; without it, a blob must have a
    leading frame dimension, as load_frames requires.
    """

    kind = "blob"

    def __init__(self, path, frame_shape=None):
        p = Path(path)
        dims, self._read = _blob_layout(p)
        if frame_shape is not None and dims[1:] != tuple(frame_shape):
            dims = (1, *dims)
        elif len(dims) < 2:
            raise BlobError(f"{p}: frame blob must have a leading frame dimension")
        self.path = p
        self.shape = dims

    def frame_windows(self, rows: int):
        """Yield (start, frames) for each window of up to `rows` frames in
        file order, frames a float32 [n, *frame_shape] view that the next
        window overwrites.  Each pass checks the file against construction
        and raises BlobError if its header or size changed."""
        return self._read(("<f4", self.shape[1:]), self.shape[0], rows)


# ---------------------------------------------------------------------------
# model directories

def save_model(net: NetworkSpec, model_dir) -> None:
    """Write manifest plus one blob per parameter tensor; byte-deterministic."""
    result = validate_network(net)
    if not result.ok:
        raise ValueError("cannot save invalid network: " + "; ".join(result.violations))
    d = Path(model_dir)
    d.mkdir(parents=True, exist_ok=True)
    records = []
    for i, layer in enumerate(net.layers):
        rec = {
            "kind": layer.kind,
            "activation": layer.activation,
            "stride": list(layer.stride) if layer.kind == "conv2d" else None,
            "padding": list(layer.padding) if layer.kind == "conv2d" else None,
            "weights": None,
            "bias": None,
        }
        if layer.parameterized:
            rec["weights"] = f"layer{i:03d}_weights.bin"
            rec["bias"] = f"layer{i:03d}_bias.bin"
            write_blob(d / rec["weights"], layer.weights)
            write_blob(d / rec["bias"], layer.bias)
        records.append(rec)
    manifest = {
        "format_version": 1,
        "input_shape": list(net.input_shape),
        "layers": records,
    }
    (d / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _is_int_list(value, length=None) -> bool:
    return (isinstance(value, list) and length in (None, len(value))
            and all(type(x) is int for x in value))


def load_model(model_dir) -> NetworkSpec:
    """Load a model directory; the result always passes validate_network."""
    d = Path(model_dir)
    mpath = d / MANIFEST_NAME
    if not mpath.is_file():
        raise ManifestError(f"{mpath}: no such manifest")
    try:
        manifest = json.loads(mpath.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{mpath}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ManifestError(f"{mpath}: top level must be an object")
    if manifest.get("format_version") != 1:
        raise ManifestError(f"{mpath}: unsupported format_version "
                            f"{manifest.get('format_version')!r}")
    if not _is_int_list(manifest.get("input_shape")):
        raise ManifestError(f"{mpath}: input_shape must be a list of integers")
    records = manifest.get("layers")
    if not isinstance(records, list):
        raise ManifestError(f"{mpath}: layers must be a list")

    layers = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ManifestError(f"{mpath}: layer {i} must be an object")
        kind = rec.get("kind")
        if kind not in LAYER_KINDS:
            raise ManifestError(f"{mpath}: layer {i} has unknown kind {kind!r}")
        for key in ("stride", "padding"):
            if rec.get(key) is not None and not _is_int_list(rec[key], length=2):
                raise ManifestError(f"{mpath}: layer {i} {key} must be two integers")
        weights = bias = None
        if kind != "flatten":
            for key in ("weights", "bias"):
                name = rec.get(key)
                if not name:
                    raise ManifestError(f"{mpath}: layer {i} is missing its {key} blob name")
                # a name, not a path: blobs live in the model directory itself
                if not isinstance(name, str) or name == ".." or Path(name).name != name:
                    raise ManifestError(f"{mpath}: layer {i} {key} blob name {name!r} "
                                        "is not a file name")
            weights = read_blob(d / rec["weights"])
            bias = read_blob(d / rec["bias"])
        layers.append(LayerSpec(
            kind=kind,
            weights=weights,
            bias=bias,
            stride=tuple(rec.get("stride") or (1, 1)),
            padding=tuple(rec.get("padding") or (0, 0)),
            activation=rec.get("activation", "none" if kind == "flatten" else "relu"),
        ))
    net = NetworkSpec(input_shape=tuple(manifest["input_shape"]), layers=layers)
    result = validate_network(net)
    if not result.ok:
        raise ManifestError(f"{mpath}: loaded network is invalid: "
                            + "; ".join(result.violations))
    return net


# ---------------------------------------------------------------------------
# episode traces

def step_dtype(shape) -> np.dtype:
    """The record of one trace step: its observation, action and reward."""
    return np.dtype([("observation", "<f4", tuple(shape)), ("action", "<u4"), ("reward", "<f8")])


def _file_record(shape: tuple[int, ...], where) -> tuple[np.ndarray, np.dtype]:
    """The blob header of a step's observation, and the step's record in
    a file: that header, then step_dtype(shape)."""
    head = np.frombuffer(_blob_head(shape), dtype=np.uint8)
    try:
        return head, np.dtype([("head", "u1", head.shape), *step_dtype(shape).descr])
    except ValueError as exc:  # numpy caps a dtype at 2**31 - 1 bytes, a dim below 2**31
        raise TraceError(f"{where}: observation shape {shape} is too large "
                         "for a trace step") from exc


@dataclass
class EpisodeTrace:
    """Recorded observations with the source network's action per step.

    `steps` is a 1-D array of step_dtype(observation_shape) records.
    """

    action_count: int
    observation_shape: tuple[int, ...]
    steps: np.ndarray

    def observations(self) -> np.ndarray:
        """All observations, [steps, *observation_shape] float32 (a view of steps)."""
        return self.steps["observation"]

    def actions(self) -> list[int]:
        return self.steps["action"].tolist()

    def total_reward(self) -> float:
        return float(sum(self.steps["reward"].tolist()))


def _check_actions(action_count: int, actions: np.ndarray, where: str, start: int = 0) -> None:
    """TraceError for action_count < 1 or an action out of range; actions
    are those of steps start, start + 1, ..."""
    if action_count < 1:
        raise TraceError(f"{where}: action_count must be >= 1")
    bad = np.flatnonzero(actions >= action_count)
    if len(bad):
        i = int(bad[0])
        raise TraceError(f"{where}: step {start + i} action {actions[i]} out of range "
                         f"[0, {action_count})")


def write_trace(trace: EpisodeTrace, path) -> None:
    p = Path(path)
    shape = tuple(int(d) for d in trace.observation_shape)
    steps = trace.steps
    head, record = _file_record(shape, p)
    if not isinstance(steps, np.ndarray) or steps.ndim != 1 or steps.dtype != step_dtype(shape):
        raise TraceError(f"{p}: steps must be a 1-D array of step_dtype({shape})")
    _check_actions(trace.action_count, steps["action"], str(p))
    records = np.empty(len(steps), record)
    records["head"] = head
    for name in steps.dtype.names:
        records[name] = steps[name]
    p.write_bytes(TRACE_MAGIC
                  + struct.pack(f"<{len(shape) + 3}I", trace.action_count, len(shape),
                                *shape, len(steps))
                  + records.tobytes())


class TraceReader:
    """A trace file read one window of step records at a time.

    Construction reads and checks the header.  Each windows(rows) pass
    reads the body through one buffer of `rows` records, so a pass holds
    one window of the file, whatever its length.  `shape` is that of the
    trace's observations stacked, [step_count, *observation_shape].
    """

    kind = "trace"

    def __init__(self, path):
        p = Path(path)
        if not p.is_file():
            raise TraceError(f"{p}: no such trace file")
        head, size = _read_header(p, p, TraceError)
        if head.take(8, "magic") != TRACE_MAGIC:
            raise head.fail("bad magic")
        action_count = head.u32("action count")
        shape = head.dims("observation ndim", "observation shape", "is")
        step_count = head.u32("step count")
        self._head, self._record = _file_record(shape, p)
        self.path = p
        self.action_count = int(action_count)
        self.observation_shape = shape
        self.step_count = step_count
        self.shape = (step_count, *shape)
        # complete step records in the file, at most step_count
        self._whole = min(step_count, (size - head.offset) // self._record.itemsize)
        self._header = head.buf[:head.offset]
        self._size = size
        self._checked = False

    def windows(self, rows: int):
        """Yield (start, records) for each window of up to `rows` steps in
        file order, records a view of the file's records (a blob header
        field "head", then step_dtype's fields) that the next window
        overwrites.

        The first complete pass raises what a malformed file calls for,
        in this order: a step that breaks the header's layout, before its
        window is yielded; then, after the last window, truncation,
        trailing bytes and the first action out of range.  Each later
        pass checks the file against the first and raises TraceError if
        its header, size or any record head changed.
        """
        bad_actions = None  # (start, actions) of the first window with one out of range
        for start, records in _windows(self.path, self._header, self._size, (self._record, ()),
                                       self._whole, rows, self._changed):
            bad = np.flatnonzero((records["head"] != self._head).any(axis=1))
            if len(bad):
                if self._checked:
                    raise self._changed()
                self._bad_step(start + int(bad[0]))
            actions = records["action"]
            if bad_actions is None and not (actions < self.action_count).all():
                bad_actions = start, actions.copy()
            yield start, records
        if self._whole < self.step_count:
            self._bad_step(self._whole)
        trailing = self._size - len(self._header) - self.step_count * self._record.itemsize
        if trailing:
            raise TraceError(f"{self.path}: {trailing} trailing bytes after last step")
        start, actions = bad_actions or (0, np.empty(0, np.uint32))
        _check_actions(self.action_count, actions, str(self.path), start)
        self._checked = True

    def frame_windows(self, rows: int):
        """windows(rows) with each window's observations, a float32 view of
        its records: (start, [n, *observation_shape])."""
        return ((start, records["observation"]) for start, records in self.windows(rows))

    def _bad_step(self, first: int):
        """Raise the fault of step `first`, whose record breaks the header's
        layout: its blob names the fault, else the body ends inside the step."""
        p = self.path
        head, rest = _read_header(p, f"{p}: step {first} observation", BlobError,
                                  len(self._header) + first * self._record.itemsize)
        dims, end = _blob_dims(head, rest)
        if dims != self.observation_shape:
            raise TraceError(f"{p}: step {first} observation shape {dims} "
                             f"!= header {self.observation_shape}")
        what = "action" if rest - end < 4 else "reward"
        raise TraceError(f"{p}: truncated while reading step {first} {what}")

    def _changed(self) -> TraceError:
        return TraceError(f"{self.path}: trace changed while it was being read")


def read_trace(path) -> EpisodeTrace:
    """Read a trace file into one array of steps; a malformed one raises
    TraceError or BlobError naming the first bad step.

    The file is read through TraceReader about 1 MiB at a time, so the
    steps are the one copy of the trace held.
    """
    reader = TraceReader(path)
    steps = np.empty(reader._whole, step_dtype(reader.observation_shape))
    rows = max(1, 2**20 // reader._record.itemsize)
    for start, records in reader.windows(rows):
        for name in steps.dtype.names:
            steps[name][start:start + len(records)] = records[name]
    return EpisodeTrace(reader.action_count, reader.observation_shape, steps)


def open_frames(path, frame_shape=None) -> TraceReader | BlobReader:
    """The frames of a file, whichever its format: a TraceReader for a
    trace, else a BlobReader(path, frame_shape), which refuses anything
    but a tensor blob.  Both give `kind`, `shape` ([frame_count,
    *frame_shape]) and frame_windows(rows), a pass yielding (start,
    float32 frames) a window at a time; a trace ignores frame_shape.
    This is the one place that tells the formats apart."""
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"{p}: no such file")
    with open(p, "rb") as fh:
        magic = fh.read(len(TRACE_MAGIC))
    return TraceReader(p) if magic == TRACE_MAGIC else BlobReader(p, frame_shape)


def load_frames(path) -> np.ndarray:
    """The frames of a stacked tensor blob or a trace file, as one array
    (open_frames' one window); open_frames reads them a window at a time."""
    frames = open_frames(path)
    # one window of every frame: the file is read once, into the array returned
    windows = [window for _, window in frames.frame_windows(max(1, frames.shape[0]))]
    return windows[0] if windows else np.empty(frames.shape, np.float32)


# ---------------------------------------------------------------------------
# CSV reports

@dataclass
class ReportRow:
    sweep_param: str
    value: float
    episodes: int
    mean_score: float
    std_score: float
    mean_cr: float
    std_cr: float
    pearson_score_cr: float


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def write_report(rows: list[ReportRow], path) -> None:
    """Write sweep rows as CSV with ten-significant-digit numbers."""
    lines = [REPORT_HEADER]
    for row in rows:
        lines.append(",".join([
            row.sweep_param,
            _fmt(row.value),
            str(int(row.episodes)),
            _fmt(row.mean_score),
            _fmt(row.std_score),
            _fmt(row.mean_cr),
            _fmt(row.std_cr),
            _fmt(row.pearson_score_cr),
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
