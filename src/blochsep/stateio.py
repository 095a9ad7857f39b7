"""JSON state files and report serialization.

State files carry the density matrix entrywise as [re, im] pairs.  Floats go
through Python's shortest round-trip repr (up to 17 significant digits), so a
save/load/save cycle is byte-identical.  Writes are atomic: content lands in
a sibling temporary file first and is moved into place.
"""
from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from .errors import InvalidStateError
from .states import DensityMatrix

SCHEMA_VERSION = "blochsep/1"


def state_to_jsonable(rho: DensityMatrix, name: str | None = None, source: str | None = None) -> dict:
    matrix = [
        [[float(entry.real), float(entry.imag)] for entry in row] for row in rho.matrix
    ]
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "state",
        "dims": [int(d) for d in rho.dims],
        "matrix": matrix,
    }
    metadata = {}
    if name is not None:
        metadata["name"] = name
    if source is not None:
        metadata["source"] = source
    if metadata:
        doc["metadata"] = metadata
    return doc


def state_from_jsonable(doc) -> DensityMatrix:
    """Parse and validate a state document, naming the first problem found."""
    if not isinstance(doc, dict):
        raise InvalidStateError("state document must be a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise InvalidStateError(
            f"unsupported schema {schema!r} (this reader understands {SCHEMA_VERSION!r})"
        )
    if doc.get("kind", "state") != "state":
        raise InvalidStateError(f"document kind {doc.get('kind')!r} is not a state")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims:
        raise InvalidStateError("dims must be a nonempty list of integers")
    for d in dims:
        if not isinstance(d, int) or isinstance(d, bool):
            raise InvalidStateError(f"dims entries must be integers, got {d!r}")
    raw = doc.get("matrix")
    total = 1
    for d in dims:
        total *= max(d, 1)
    if not isinstance(raw, list) or len(raw) != total:
        raise InvalidStateError(f"matrix must be a list of {total} rows")
    mat = np.empty((total, total), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != total:
            raise InvalidStateError(f"matrix row {i} must hold {total} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise InvalidStateError(
                    f"matrix entry ({i}, {j}) must be a [re, im] number pair"
                )
            try:
                mat[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise InvalidStateError(f"matrix entry ({i}, {j}) is too large for a float")
    # dimension and matrix-content checks (Hermiticity, trace, positivity)
    return DensityMatrix(tuple(dims), mat)


def state_metadata(doc) -> dict:
    meta = doc.get("metadata", {}) if isinstance(doc, dict) else {}
    return meta if isinstance(meta, dict) else {}


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_state(rho: DensityMatrix, path: str, name: str | None = None, source: str | None = None) -> None:
    write_text_atomic(path, dump_json(state_to_jsonable(rho, name=name, source=source)))


def load_state(path: str) -> tuple:
    """Read a state file; returns (DensityMatrix, metadata dict)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidStateError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidStateError(f"state file {path} is not valid JSON: {exc}") from exc
    return state_from_jsonable(doc), state_metadata(doc)


def format_number(x: float) -> str:
    """Fixed 12-significant-digit rendering used in CSV reports."""
    return f"{float(x):.12g}"


def records_to_csv(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
