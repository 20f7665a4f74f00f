"""Deterministic file formats: the dataset container and CSV reports.

Dataset container layout (little-endian, all bytes deterministic):

    magic   4 bytes  b"RSEL"
    version uint32
    metalen uint64
    meta    UTF-8 JSON (sorted keys) of length metalen
    arrays  raw C-order float64 bytes, concatenated in the order listed
            under meta["arrays"] (each entry records name and shape)

The metadata records the model descriptor and the operator kind
("dense" with a matrix array, "convolution" with a kernel array, or
"identity" with a dimension).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..operators import ConvolutionOperator, DenseOperator, IdentityOperator
from ..selection import TrainingSet

MAGIC = b"RSEL"
FORMAT_VERSION = 1


def save_dataset(path, model_info: dict, operator, data: TrainingSet) -> None:
    """Write a self-describing dataset file; identical inputs give identical bytes."""
    arrays: list[tuple[str, np.ndarray]] = []
    if isinstance(operator, DenseOperator):
        op_meta = {"kind": "dense"}
        arrays.append(("operator", operator.matrix))
    elif isinstance(operator, ConvolutionOperator):
        op_meta = {"kind": "convolution"}
        arrays.append(("operator", operator.kernel))
    elif isinstance(operator, IdentityOperator):
        op_meta = {"kind": "identity", "dim": operator.dim}
    else:
        raise ValueError(f"cannot persist operator of type {type(operator).__name__}")
    arrays.append(("ys", np.asarray(data.ys, dtype=float)))
    arrays.append(("xs", np.asarray(data.xs, dtype=float)))

    meta = {
        "format_version": FORMAT_VERSION,
        "model": model_info,
        "operator": op_meta,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_dataset(path):
    """Read a dataset file back into (model_info, operator, TrainingSet)."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError("bad magic: not a dataset file")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {version}")
    (metalen,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16:16 + metalen].decode("utf-8"))
    offset = 16 + metalen
    loaded: dict[str, np.ndarray] = {}
    for entry in meta["arrays"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=size, offset=offset).reshape(shape)
        loaded[entry["name"]] = arr.astype(float)
        offset += size * 8
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} trailing bytes after the last array")
    op_meta = meta["operator"]
    needed = {"ys", "xs"} | ({"operator"} if op_meta["kind"] in ("dense", "convolution") else set())
    missing = sorted(needed - loaded.keys())
    if missing:
        raise ValueError(f"dataset file lacks arrays: {', '.join(missing)}")
    if op_meta["kind"] == "dense":
        operator = DenseOperator(loaded["operator"])
    elif op_meta["kind"] == "convolution":
        operator = ConvolutionOperator(loaded["operator"])
    elif op_meta["kind"] == "identity":
        operator = IdentityOperator(op_meta["dim"])
    else:
        raise ValueError(f"unknown operator kind {op_meta['kind']!r}")
    data = TrainingSet(ys=loaded["ys"], xs=loaded["xs"])
    return meta["model"], operator, data


def write_csv(path, header: list[str], rows, metadata: dict | None = None) -> None:
    """Write a CSV with optional '# key=value' comment lines before the header.

    Floats are rendered with repr (shortest round-trip), so identical
    numbers give identical bytes.
    """
    lines = []
    if metadata:
        lines.extend(f"# {key}={value}" for key, value in metadata.items())
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)
