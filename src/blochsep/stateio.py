"""JSON state files and report serialization.

State files carry the density matrix entrywise as [re, im] pairs.  Floats go
through Python's shortest round-trip repr (up to 17 significant digits), so a
save/load/save cycle is byte-identical.  Writes are atomic: content lands in
a sibling temporary file first and is moved into place.

Both directions work on whole arrays.  The reader converts the matrix with
one ``np.asarray`` call and checks its shape and leaf types; only a matrix
that fails those checks goes through the entrywise walk, which exists to name
the first bad row or entry.  The writer, ``state_text``, takes a
``DensityMatrix``, whose matrix validation has made finite: ``json`` writes
the head of the document and a per-row ``%r`` template fills in the matrix
straight from the array, giving the bytes of ``json.dumps(doc, indent=2)``.
Every other document goes through ``dump_json``, which is ``json`` alone.
"""
from __future__ import annotations

import contextlib
import csv
import io
from itertools import chain
import json
import os

import numpy as np

from .errors import InvalidStateError
from .states import DensityMatrix

SCHEMA_VERSION = "blochsep/1"


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


def dump_json(doc) -> str:
    """A report as ``json.dumps(doc, indent=2, allow_nan=False)`` plus a
    newline."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# one [re, im] pair of a matrix row, at the depth ``indent=2`` puts it
_PAIR = "      [\n        %r,\n        %r\n      ]"
# a top-level key is the only line that starts with exactly two spaces and a
# quote, so the placeholder occurs once
_MATRIX_LINE = '\n  "matrix": '


def state_text(rho: DensityMatrix, name: str | None = None, source: str | None = None) -> str:
    """The state document of ``rho`` as ``dump_json`` would write it, its
    matrix filled in from the array; ``name`` and ``source`` go into
    ``metadata`` when given."""
    doc = {"schema": SCHEMA_VERSION, "kind": "state", "dims": list(rho.dims), "matrix": []}
    metadata = {key: value for key, value in (("name", name), ("source", source))
                if value is not None}
    if metadata:
        doc["metadata"] = metadata
    head, _, tail = dump_json(doc).partition(_MATRIX_LINE + "[]")
    rows = np.ascontiguousarray(rho.matrix).view(float).tolist()
    row = "    [\n" + ",\n".join([_PAIR] * len(rows)) + "\n    ]"
    body = ",\n".join(map(row.__mod__, map(tuple, rows)))
    return head + _MATRIX_LINE + "[\n" + body + "\n  ]" + tail


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to a sibling temporary file and move it onto ``path``;
    the temporary file is removed if either step fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_state(rho: DensityMatrix, path: str, name: str | None = None, source: str | None = None) -> None:
    write_text_atomic(path, state_text(rho, name=name, source=source))


def load_state(path: str) -> tuple:
    """Read a state file; returns (DensityMatrix, metadata dict)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidStateError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidStateError(f"state file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidStateError(f"state file {path} is not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise InvalidStateError(f"state file {path} is nested too deeply to parse") from exc
    rho = state_from_jsonable(doc)
    metadata = doc.get("metadata", {})
    return rho, metadata if isinstance(metadata, dict) else {}


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
