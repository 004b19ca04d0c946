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
    (f64).  The header fixes every step record's size, so a well-formed
    body is decoded in one pass; a malformed one is parsed step by step
    so the error names the first bad step.

Readers raise FormatError, naming the file and location, for anything
they cannot load, including dims too large for a numpy array.

CSV reports render every number with ten significant digits, so a
parse of the written file recovers values to within 1e-9 relative.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .network import LayerSpec, NetworkSpec, validate_network

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
# tensor blobs

def blob_to_bytes(array: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(array, dtype="<f4")
    parts = [BLOB_MAGIC, struct.pack("<I", arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(arr.tobytes(order="C"))
    return b"".join(parts)


def _holdable(dims) -> bool:
    """Whether numpy can hold a float32 array of these dims.

    numpy refuses an array whose nonzero dims and item size multiply past
    the largest intp, even when a zero dim leaves it empty.
    """
    nbytes = 4
    for d in dims:
        nbytes *= d or 1
    return nbytes <= np.iinfo(np.intp).max


def blob_from_buffer(buf: bytes, offset: int, where: str) -> tuple[np.ndarray, int]:
    """Parse one blob starting at `offset`; returns (array, next offset)."""
    def take(n, what):
        end = offset + n
        if end > len(buf):
            raise BlobError(f"{where}: truncated while reading {what}")
        return buf[offset:end], end

    chunk, offset = take(8, "magic")
    if chunk != BLOB_MAGIC:
        raise BlobError(f"{where}: bad magic {chunk!r}")
    chunk, offset = take(4, "ndim")
    ndim = struct.unpack("<I", chunk)[0]
    if ndim > 32:
        raise BlobError(f"{where}: implausible ndim {ndim}")
    chunk, offset = take(4 * ndim, "dims")
    dims = struct.unpack(f"<{ndim}I", chunk)
    if not _holdable(dims):
        raise BlobError(f"{where}: dims {dims} are too large for an array")
    count = 1
    for d in dims:
        count *= d
    chunk, offset = take(4 * count, "data")
    data = np.frombuffer(chunk, dtype="<f4").reshape(dims)
    return data.astype(np.float32), offset


def write_blob(path, array: np.ndarray) -> None:
    Path(path).write_bytes(blob_to_bytes(array))


def read_blob(path) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise BlobError(f"{p}: no such blob file")
    buf = p.read_bytes()
    arr, end = blob_from_buffer(buf, 0, str(p))
    if end != len(buf):
        raise BlobError(f"{p}: {len(buf) - end} trailing bytes after tensor data")
    return arr


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
        if kind not in ("dense", "conv2d", "flatten"):
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

@dataclass
class TraceStep:
    observation: np.ndarray  # float32, values in [0, 1]
    action: int
    reward: float


@dataclass
class EpisodeTrace:
    """Recorded observations with the source network's action per step."""

    action_count: int
    observation_shape: tuple[int, ...]
    steps: list[TraceStep] = field(default_factory=list)

    def observations(self) -> np.ndarray:
        """All observations stacked into [steps, *observation_shape]."""
        if not self.steps:
            return np.zeros((0, *self.observation_shape), dtype=np.float32)
        return np.stack([s.observation for s in self.steps])

    def actions(self) -> list[int]:
        return [s.action for s in self.steps]

    def total_reward(self) -> float:
        return float(sum(s.reward for s in self.steps))


def _check_trace(trace: EpisodeTrace, where: str) -> None:
    if trace.action_count < 1:
        raise TraceError(f"{where}: action_count must be >= 1")
    for i, step in enumerate(trace.steps):
        if not 0 <= step.action < trace.action_count:
            raise TraceError(f"{where}: step {i} action {step.action} out of range "
                             f"[0, {trace.action_count})")
        if tuple(step.observation.shape) != tuple(trace.observation_shape):
            raise TraceError(f"{where}: step {i} observation shape "
                             f"{step.observation.shape} != header "
                             f"{tuple(trace.observation_shape)}")


def write_trace(trace: EpisodeTrace, path) -> None:
    p = Path(path)
    _check_trace(trace, str(p))
    shape = tuple(int(d) for d in trace.observation_shape)
    parts = [TRACE_MAGIC,
             struct.pack("<I", trace.action_count),
             struct.pack("<I", len(shape)),
             struct.pack(f"<{len(shape)}I", *shape),
             struct.pack("<I", len(trace.steps))]
    for step in trace.steps:
        parts.append(blob_to_bytes(step.observation))
        parts.append(struct.pack("<I", step.action))
        parts.append(struct.pack("<d", step.reward))
    p.write_bytes(b"".join(parts))


def _decode_steps(buf: bytes, offset: int, shape: tuple[int, ...], step_count: int
                  ) -> Optional[tuple[np.ndarray, list[int], list[float]]]:
    """A well-formed trace body in one pass: (observations, actions, rewards).

    The header fixes every step record: a blob header repeating the
    trace's shape, the observation, the action and the reward.  Returns
    None unless the body is exactly step_count such records.
    """
    head = np.frombuffer(BLOB_MAGIC + struct.pack(f"<{len(shape) + 1}I", len(shape), *shape),
                         dtype=np.uint8)
    size = 4 * math.prod(shape)
    record = len(head) + size + 12
    if len(buf) - offset != step_count * record:
        return None
    raw = np.frombuffer(buf, dtype=np.uint8, count=step_count * record, offset=offset)
    raw = raw.reshape(step_count, record)
    if not (raw[:, :len(head)] == head).all():
        return None
    body = raw[:, len(head):]
    obs = body[:, :size].copy().view("<f4").astype(np.float32, copy=False)
    return (obs.reshape(step_count, *shape),
            body[:, size:size + 4].copy().view("<u4")[:, 0].tolist(),
            body[:, size + 4:].copy().view("<f8")[:, 0].tolist())


def _read_trace_arrays(path) -> tuple[int, tuple[int, ...], np.ndarray, list[int], list[float]]:
    """(action_count, observation shape, observations [steps, *shape],
    actions, rewards) of a trace file; raises TraceError or BlobError
    naming the first bad step of a malformed one."""
    p = Path(path)
    if not p.is_file():
        raise TraceError(f"{p}: no such trace file")
    buf = p.read_bytes()
    offset = 0

    def take(n, what):
        nonlocal offset
        end = offset + n
        if end > len(buf):
            raise TraceError(f"{p}: truncated while reading {what}")
        chunk = buf[offset:end]
        offset = end
        return chunk

    if take(8, "magic") != TRACE_MAGIC:
        raise TraceError(f"{p}: bad magic")
    action_count = struct.unpack("<I", take(4, "action count"))[0]
    ndim = struct.unpack("<I", take(4, "ndim"))[0]
    if ndim > 32:
        raise TraceError(f"{p}: implausible observation ndim {ndim}")
    shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "observation shape"))
    if not _holdable(shape):
        raise TraceError(f"{p}: observation shape {shape} is too large for an array")
    step_count = struct.unpack("<I", take(4, "step count"))[0]

    decoded = _decode_steps(buf, offset, shape, step_count)
    if decoded is None:
        # Some step breaks the header's record layout: parsing step by step
        # raises the error that names the first such step.
        steps = []
        for i in range(step_count):
            obs, offset = blob_from_buffer(buf, offset, f"{p}: step {i} observation")
            action = struct.unpack("<I", take(4, f"step {i} action"))[0]
            reward = struct.unpack("<d", take(8, f"step {i} reward"))[0]
            steps.append(TraceStep(observation=obs, action=int(action), reward=float(reward)))
        if offset != len(buf):
            raise TraceError(f"{p}: {len(buf) - offset} trailing bytes after last step")
        _check_trace(EpisodeTrace(action_count, shape, steps), str(p))
        raise TraceError(f"{p}: step records do not match the header")
    observations, actions, rewards = decoded
    if action_count < 1:
        raise TraceError(f"{p}: action_count must be >= 1")
    bad = np.flatnonzero(np.asarray(actions, dtype=np.int64) >= action_count)
    if len(bad):
        i = int(bad[0])
        raise TraceError(f"{p}: step {i} action {actions[i]} out of range "
                         f"[0, {action_count})")
    return int(action_count), tuple(int(d) for d in shape), observations, actions, rewards


def read_trace(path) -> EpisodeTrace:
    action_count, shape, observations, actions, rewards = _read_trace_arrays(path)
    views = [observations[i, ...] for i in range(len(observations))]
    return EpisodeTrace(action_count=action_count, observation_shape=shape,
                        steps=list(map(TraceStep, views, actions, rewards)))


def read_magic(path) -> bytes:
    """The first 8 bytes of a file, which tell a tensor blob from a trace."""
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"{p}: no such file")
    with open(p, "rb") as fh:
        return fh.read(8)


def load_frames(path) -> np.ndarray:
    """Read a frame set from either a stacked tensor blob or a trace file."""
    p = Path(path)
    magic = read_magic(p)
    if magic == TRACE_MAGIC:
        return _read_trace_arrays(p)[2]
    if magic == BLOB_MAGIC:
        frames = read_blob(p)
        if frames.ndim < 2:
            raise BlobError(f"{p}: frame blob must have a leading frame dimension")
        return frames
    raise FormatError(f"{p}: neither a tensor blob nor a trace (magic {magic!r})")


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


def read_report(path) -> list[ReportRow]:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"{p}: no such report file")
    lines = p.read_text().splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise FormatError(f"{p}: missing or unexpected CSV header")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 8:
            raise FormatError(f"{p}: line {ln} has {len(cells)} cells, expected 8")
        try:
            rows.append(ReportRow(
                sweep_param=cells[0],
                value=float(cells[1]),
                episodes=int(cells[2]),
                mean_score=float(cells[3]),
                std_score=float(cells[4]),
                mean_cr=float(cells[5]),
                std_cr=float(cells[6]),
                pearson_score_cr=float(cells[7]),
            ))
        except ValueError as exc:
            raise FormatError(f"{p}: line {ln} failed to parse ({exc})") from exc
    return rows
