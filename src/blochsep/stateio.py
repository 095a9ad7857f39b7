"""JSON state files and report serialization.

State files carry the density matrix entrywise as [re, im] pairs.  Floats go
through Python's shortest round-trip repr (up to 17 significant digits), so a
save/load/save cycle is byte-identical.  Writes are atomic: content lands in
a sibling temporary file first and is moved into place.

Both directions work on whole arrays.  The reader converts the matrix with
one ``np.asarray`` call and checks its shape and leaf types; only a matrix
that fails those checks goes through the entrywise walk, which exists to name
the first bad row or entry.  The writer fills the matrix of a state document
from a per-row ``%r`` template and leaves the rest to ``json``; its bytes are
those of ``json.dumps(doc, indent=2, allow_nan=False)``, which it falls back
to for any matrix it cannot vouch for (non-finite values, leaves that are not
floats, ragged rows).
"""
from __future__ import annotations

import csv
import io
from itertools import chain
import json
import os

import numpy as np

from .errors import InvalidStateError
from .states import DensityMatrix

SCHEMA_VERSION = "blochsep/1"


def state_to_jsonable(rho: DensityMatrix, name: str | None = None, source: str | None = None) -> dict:
    m = np.ascontiguousarray(rho.matrix, dtype=complex)
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "state",
        "dims": [int(d) for d in rho.dims],
        "matrix": m.view(float).reshape(*m.shape, 2).tolist(),
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
    mat = _matrix_array(raw, total)
    if mat is None:
        mat = _matrix_entrywise(raw, total)
    # dimension and matrix-content checks (Hermiticity, trace, positivity)
    return DensityMatrix(tuple(dims), mat)


def _matrix_array(raw: list, total: int):
    """The complex matrix of a well-formed ``raw``: ``total`` lists of
    ``total`` [re, im] lists of ints and floats.  None for anything else,
    bools included, which ``np.asarray`` would quietly read as 0 and 1."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (ValueError, TypeError, OverflowError):
        return None
    if (
        arr.shape != (total, total, 2)
        or set(map(type, raw)) != {list}
        or set(map(type, chain.from_iterable(raw))) != {list}
        or not set(map(type, chain.from_iterable(chain.from_iterable(raw)))) <= {int, float}
    ):
        return None
    return arr.view(complex)[..., 0]


def _matrix_entrywise(raw: list, total: int) -> np.ndarray:
    """Entry-by-entry conversion that raises on the first malformed row or
    entry; reached only when ``_matrix_array`` refuses ``raw``."""
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
    return mat


def state_metadata(doc) -> dict:
    meta = doc.get("metadata", {}) if isinstance(doc, dict) else {}
    return meta if isinstance(meta, dict) else {}


# one [re, im] pair of a matrix row, at the depth ``indent=2`` puts it
_PAIR = "      [\n        %r,\n        %r\n      ]"
_MATRIX_LINE = '\n  "matrix": '


def dump_json(doc) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)`` plus a newline; the
    matrix of a state document is written from a template."""
    body = _matrix_text(doc)
    if body is None:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    # a top-level key is the only line that starts with exactly two spaces
    # and a quote, so the placeholder occurs once
    head, _, tail = json.dumps({**doc, "matrix": []}, indent=2, allow_nan=False) \
        .partition(_MATRIX_LINE + "[]")
    return head + _MATRIX_LINE + body + tail + "\n"


def _matrix_text(doc):
    """The ``indent=2`` text of a state document's matrix, or None unless it
    is a nonempty list of equal-length, nonempty lists of [re, im] lists of
    finite floats, which is all the template writes as json would."""
    if type(doc) is not dict or doc.get("kind") != "state":
        return None
    matrix = doc.get("matrix")
    if type(matrix) is not list or set(map(type, matrix)) != {list}:
        return None
    n = len(matrix[0])
    if (
        set(map(len, matrix)) != {n}
        or set(map(type, chain.from_iterable(matrix))) != {list}
        or set(map(len, chain.from_iterable(matrix))) != {2}
        or set(map(type, chain.from_iterable(chain.from_iterable(matrix)))) != {float}
    ):
        return None
    row = "    [\n" + ",\n".join([_PAIR] * n) + "\n    ]"
    body = ",\n".join(map(row.__mod__, map(tuple, map(chain.from_iterable, matrix))))
    # the repr of a finite float has no "n"; "nan" and "inf" do, and json
    # refuses them
    return None if "n" in body else "[\n" + body + "\n  ]"


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
