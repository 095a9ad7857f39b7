"""JSON state files and report serialization.

- Round trips are bit-exact.  Every document, a state file or a report, is
  written with the bytes of ``json.dumps(doc, indent=2, allow_nan=False)``
  plus a newline, floats by their shortest round-trip repr, so a
  save/load/save cycle gives the same bytes.  Writes onto a regular file,
  directly or through a link, are atomic; a FIFO or device is written in
  place.
- Every JSON layout is read, the writer's ``indent=2``, ``json.dumps``'s
  compact one or any other whitespace, to the bits ``json.loads`` gives,
  the last of duplicate keys winning.
- A refusal names the head, ``schema``, ``kind`` or ``dims``, when it
  reads and is wrong, or else the first bad row or entry of the matrix;
  text that is not JSON gets json's own message.

Map: every JSON text is written here, and the CLI writes none.
``_pieces`` writes a document as pieces whose join is its text:
``json.dumps`` writes the frame, and sections rendered by ``%`` templates
stand in place of an empty list, item by item.  ``_template`` derives every
template from ``json.dumps`` of an example, ``None`` leaves made ``%s``:
``_state_pieces``'s matrix pair, ``_analysis_text``'s record and
``_decomposition_pieces``'s term.  ``dump_json`` and ``state_text`` are the
joins of the pieces; ``write_text_atomic`` (``save_state``, the CLI's
``zoo`` and ``decompose``) and the CLI's stdout write them in joined
batches (``_batches``), so a large document is never held whole.
``load_state`` reads a file's bytes once and reads them as text mode would:
it checks bytes that are not ASCII to be UTF-8 and reads CRLF and CR as LF.
``_fields`` walks the top-level object in the bytes, each value but the
matrix decoded from a window after it (``_value``), widened only on an
error the cut can have made, and the matrix stepped over unparsed.
``_head`` checks the head once, and ``_flat_matrix`` parses the matrix
bytes as one flat array, the writer's rows of zero pairs cut unparsed by
``_cut_zero_rows``.  A file that ``_fields`` or
``_flat_matrix`` refuses is decoded and goes through ``json.loads`` and
``state_from_jsonable``, whose walk names the first bad row or entry.
Validation is ``DensityMatrix``'s.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
from json.encoder import encode_basestring_ascii
import math
import os
import re
import stat
import threading

import numpy as np

from .errors import InvalidStateError
from .states import DensityMatrix, _instance, _subsystem_dims

SCHEMA_VERSION = "blochsep/1"


def _head(doc) -> tuple:
    """(dims, T) of a state document, T = prod(dims), after its ``schema``,
    ``kind`` and ``dims`` are checked; raises InvalidStateError naming the
    first that is wrong."""
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise InvalidStateError(
            f"unsupported schema {schema!r} (this reader understands {SCHEMA_VERSION!r})")
    if doc.get("kind", "state") != "state":
        raise InvalidStateError(f"document kind {doc.get('kind')!r} is not a state")
    dims = _subsystem_dims(doc.get("dims"))
    return dims, math.prod(dims)


def state_from_jsonable(doc) -> DensityMatrix:
    """Parse and validate a state document, naming the first problem found:
    the matrix is converted entry by entry, and the first malformed row or
    entry raises."""
    if not isinstance(doc, dict):
        raise InvalidStateError("state document must be a JSON object")
    dims, total = _head(doc)
    raw = doc.get("matrix")
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
                raise InvalidStateError(f"matrix entry ({i}, {j}) must be a [re, im] number pair")
            try:
                mat[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise InvalidStateError(f"matrix entry ({i}, {j}) is too large for a float")
    return DensityMatrix._parsed(dims, mat)


def dump_json(doc, sections=None) -> str:
    """A report as ``json.dumps(doc, indent=2, allow_nan=False)`` plus a
    newline, byte for byte, raising what ``json`` raises: the join of
    :func:`_pieces`.

    ``sections`` maps top-level keys of ``doc``, each of which holds ``[]``
    there, to the texts of the items that list stands for, each as ``json``
    writes an item of a top-level list, rendered by templates from arrays
    and results; they are spliced into json's text in place of the ``[]``."""
    return "".join(_pieces(doc, sections))


def _pieces(doc, sections=None) -> list:
    """The text of ``dump_json(doc, sections)`` as a list of pieces whose
    join it is: json's text of ``doc``, the frame, around the sections, and
    each section's items, filled ``_template`` texts, the separators between
    them pieces of their own.  A writer writes the pieces in batches
    (``_batches``), so no copy of a large document is made whole.  A
    top-level key is the one text that starts a line with exactly two
    spaces and a quote: ``json`` writes no raw line break inside a string."""
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    spans = []
    for key, items in (sections or {}).items():
        if items:
            line = "\n  " + encode_basestring_ascii(key) + ": ["
            spans.append((text.index(line + "]"), line, items))
    pieces, start, lead = [], 0, ""
    for at, line, items in sorted(spans):
        pieces.append(lead + text[start:at] + line + "\n    ")
        run = [",\n    "] * (2 * len(items) - 1)
        run[::2] = items
        pieces += run
        # the list's "]" starts the text after it
        start, lead = at + len(line), "\n  "
    pieces.append(lead + text[start:])
    return pieces


# the characters of a batch that ``_batches`` joins
_BATCH = 1 << 17


def _batches(text):
    """The texts of ``text``, a ``str`` or a list of pieces, joined in runs
    of about ``_BATCH`` characters: one piece at least, and more until the
    run reaches it."""
    run, size = [], 0
    for piece in [text] if isinstance(text, str) else text:
        run.append(piece)
        size += len(piece)
        if size >= _BATCH:
            yield "".join(run)
            run, size = [], 0
    if run:
        yield "".join(run)


def _check_finite(values) -> None:
    """Raise what ``dump_json`` raises for the first float of ``values``, a
    list or an array, that is not finite, where their sum is not finite; a
    sum that merely overflows passes."""
    if not math.isfinite(values.sum() if isinstance(values, np.ndarray) else sum(values)):
        _json(values.tolist() if isinstance(values, np.ndarray) else values, "\n")


def _json(value, newline: str) -> str:
    """``value`` as ``json`` writes it at the depth whose line break and
    indent are ``newline``: no string it writes holds a raw line break."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", newline)


def _template(example, newline: str) -> str:
    """The ``%`` template of ``example`` as ``_json`` writes it at the depth
    of ``newline``, with ``%s`` in place of each ``None`` leaf, json's
    ``null``; no key of ``example`` holds ``null``."""
    return _json(example, newline).replace("%", "%%").replace("null", "%s")


# a pair, and the ends of a row as an item of the matrix, at the depth
# ``indent=2`` puts them
_PAIR = "      " + _template([None, None], "\n      ")
_ZERO = _PAIR % (0.0, 0.0)
_PIECES = np.array([_ZERO, _PAIR], dtype=object)
_ROW_OPEN, _ROW_CLOSE = "[\n", "\n    ]"


def state_text(rho: DensityMatrix, name: str | None = None, source: str | None = None) -> str:
    """The state document of ``rho`` as ``dump_json`` would write it: the
    join of :func:`_state_pieces`.  ``name`` and ``source`` go into
    ``metadata`` when given."""
    return "".join(_state_pieces(rho, name, source))


def _state_pieces(rho: DensityMatrix, name: str | None = None, source: str | None = None) -> list:
    """The state document of ``rho`` as the :func:`_pieces` of its head,
    matrix rows and tail, the rows rendered from the array.

    A row's template puts ``_ZERO`` at its pairs whose leaves are both +0.0
    by their bits, so a -0.0 goes through ``repr``, and ``_PAIR`` at the
    rest; one ``%`` call fills it, and the next row reuses it when its zero
    pairs sit in the same places.  A row of zero pairs only is its template,
    one string for every such row."""
    _instance(rho, DensityMatrix, "rho")
    doc = {"schema": SCHEMA_VERSION, "kind": "state", "dims": list(rho.dims), "matrix": []}
    metadata = {key: value for key, value in (("name", name), ("source", source))
                if value is not None}
    if metadata:
        doc["metadata"] = metadata
    m = np.ascontiguousarray(rho.matrix)
    bits = m.view(np.uint64).reshape(*m.shape, 2)
    nonzero = np.logical_or(bits[..., 0], bits[..., 1])
    rows, last = [], None
    for row, keep, blank in zip(m, nonzero, ~nonzero.any(axis=1)):
        pattern = keep.tobytes()
        if pattern != last:
            template = _ROW_OPEN + ",\n".join(_PIECES[keep.view(np.uint8)].tolist()) + _ROW_CLOSE
            last = pattern
        rows.append(template if blank else template % tuple(row[keep].view(float).tolist()))
    return _pieces(doc, {"matrix": rows})


# a norm record's keys, and its text as an item of a JSON report's "records"
_FIELDS = ("subset", "norm", "bound", "decision", "criterion", "borderline")
_RECORD = _template(dict.fromkeys(_FIELDS), "\n    ")
_BOOLS = ("false", "true")


@functools.lru_cache(maxsize=4096)
def _subset_text(subset: tuple) -> str:
    """A record's subset as ``dump_json`` writes it in the record."""
    return _json(subset, "\n      ")


def _analysis_text(doc, verdicts: list) -> str:
    """``dump_json`` of the analyze report ``doc``, its ``"records"`` those
    of the norm ``verdicts``, each ``_RECORD`` filled; a norm or bound that
    is not finite raises json's ``ValueError`` before the rest is written."""
    _check_finite([x for v in verdicts for x in (v.norm_value, v.bound_value)])
    quoted = encode_basestring_ascii
    records = [_RECORD % (_subset_text(v.subset), v.norm_value, v.bound_value,
                          quoted(v.decision), quoted(v.criterion), _BOOLS[v.borderline])
               for v in verdicts]
    return dump_json(doc, {"records": records})


def _analysis_csv(verdicts: list) -> str:
    """The CSV report of the norm ``verdicts``, one row of ``_FIELDS`` each."""
    return records_to_csv([(",".join(map(str, v.subset)), format_number(v.norm_value),
                            format_number(v.bound_value), v.decision.value, v.criterion,
                            int(v.borderline)) for v in verdicts], _FIELDS)


@functools.lru_cache(maxsize=64)
def _term_template(dims: tuple) -> str:
    """A decompose term on ``dims`` as it is written in the report: the
    weight, then the entries of each factor's coherence vector."""
    return _template({"weight": None, "factors": [[None] * (d * d - 1) for d in dims]},
                     "\n    ")


def _decomposition_pieces(doc, dec) -> list:
    """The :func:`_pieces` of the decompose report ``doc``, its ``"terms"``
    the rows of ``dec``'s weights-and-factors table, each distinct float of
    it, told apart by its bits so that -0.0 stays itself, rendered once.  A
    float that is not finite raises, the report's frame checked first."""
    table = np.column_stack([dec.terms.weights, *(f.T for f in dec.terms.factors)])
    distinct, where = np.unique(table.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(float).tolist())), dtype=object)
    template = _term_template(dec.dims)
    rows = texts[where.reshape(table.shape)].tolist()
    pieces = _pieces(doc, {"terms": [template % tuple(row) for row in rows]})
    _check_finite(table)
    return pieces


def _mode(path: str):
    """The ``st_mode`` of ``path`` itself, a link not followed, or None
    where nothing can be read there."""
    try:
        return os.lstat(path).st_mode
    except OSError:
        return None


def _write(path: str, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for batch in _batches(text):
            fh.write(batch)


def write_text_atomic(path: str, text) -> None:
    """Write ``text``, a ``str`` or a list of pieces whose join it is, to
    ``path``.  An absent name or a regular file gets a sibling temporary
    file moved onto it; on any exception the temporary file is removed and
    ``path`` is left as it was.  The sibling, ``.blochsep.<pid>.<thread
    id>.tmp`` in the directory of ``path``, has a short name, so any name
    the filesystem accepts can be written; it takes the permission bits of
    the regular file it replaces, and a new file keeps the umask's.  A
    symbolic link is written through: its resolved target is replaced so,
    and the link stays.  Any other file, a FIFO, a device or a socket, is
    opened and written in place, with no temporary file and no rename.

    The file is opened once, in text mode, and pieces are written in joined
    batches of about ``_BATCH`` characters (``_batches``), so a large
    document is never joined or encoded whole."""
    mode = _mode(path)
    if mode is not None and stat.S_ISLNK(mode):
        path = os.path.realpath(path)
        mode = _mode(path)
    if mode is not None and not stat.S_ISREG(mode):
        _write(path, text)
        return
    tmp = os.path.join(os.path.dirname(path),
                       f".blochsep.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        _write(tmp, text)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_state(rho: DensityMatrix, path: str, name: str | None = None, source: str | None = None) -> None:
    write_text_atomic(path, _state_pieces(rho, name=name, source=source))


_JSON_SPACE = b" \t\n\r"
_NUMBER_CHARACTERS = b"0123456789+-.eE"
_UNBRACKET = bytes.maketrans(b"[]", b"  ")
# "[," and ",]" as little-endian 16-bit words
_EMPTY_FIRST, _EMPTY_SECOND = np.frombuffer(b"[,,]", dtype="<u2").tolist()
_DECODER = json.JSONDecoder()
_SPACE = re.compile(rb"[ \t\n\r]*").match
# the bytes of the first window a value other than the matrix is decoded from
_WINDOW = 256
_CUT_REACH = len("-Infinity")


def _value(data: bytes, i: int):
    """(the JSON value that starts at byte ``i`` of ``data``, valid UTF-8, as
    ``json.loads`` reads it, the byte where it ends), decoded from a window
    of the bytes after ``i`` that doubles until the value ends strictly
    inside it, before a character that cannot continue a number, or until
    it reaches the end of ``data``.  So a value cut at the window's end,
    such as ``1.5`` read as the ``1`` of ``1.``, is never taken, and a
    character cut there is dropped.  Raises what ``json`` raises.

    The window widens on an error only where the cut can have made it: a
    string left open, or an error within ``_CUT_REACH`` characters of the
    window's end, the length of ``-Infinity``, json's longest token other
    than a string or number.  Any other error is the value's own, and is
    raised from the first window."""
    size = _WINDOW
    while True:
        whole = i + size >= len(data)
        chunk = data[i:i + size].decode("utf-8", "ignore")
        try:
            value, k = _DECODER.raw_decode(chunk)
        except json.JSONDecodeError as exc:
            if whole or not (exc.msg.startswith("Unterminated string")
                             or exc.pos >= len(chunk) - _CUT_REACH):
                raise
        else:
            end = i + len(chunk[:k].encode())
            if whole or k < len(chunk) and data[end] not in _NUMBER_CHARACTERS:
                return value, end
        size *= 2


def _fields(data: bytes):
    """The top-level object of ``data``, valid UTF-8 with LF line ends, as
    ``json.loads`` reads it, but for the value of ``"matrix"``, which is not
    parsed: (the other keys' values, start, end) of that value's bytes.
    None where ``data`` is no such object, or its ``"matrix"`` is missing,
    given twice or not an array.  The matrix ends after its last ``]``
    before the next ``"`` or ``}``, neither of which a matrix holds; an end
    put elsewhere the layout check of ``_flat_matrix`` refuses."""
    fields, span = {}, None
    i = _SPACE(data).end()
    if data[i:i + 1] != b"{":
        return None
    i = _SPACE(data, i + 1).end()
    try:
        while data[i:i + 1] == b'"':
            key, i = _value(data, i)
            i = _SPACE(data, i).end()
            if data[i:i + 1] != b":":
                return None
            i = _SPACE(data, i + 1).end()
            if key != "matrix":
                fields[key], i = _value(data, i)
            elif span is None and data[i:i + 1] == b"[":
                stop = min(k for k in (data.find(b'"', i), data.find(b"}", i), len(data))
                           if k >= 0)
                end = data.rfind(b"]", i, stop) + 1
                if not end:
                    return None
                span, i = (i, end), end
            else:
                return None
            i = _SPACE(data, i).end()
            if data[i:i + 1] == b"}":
                if span is None or _SPACE(data, i + 1).end() != len(data):
                    return None
                return fields, *span
            if data[i:i + 1] != b",":
                return None
            i = _SPACE(data, i + 1).end()
    except (ValueError, RecursionError):
        pass  # json's errors, an int past the digit limit, nesting too deep
    return None


_MATRIX_OPEN = ("[\n    " + _ROW_OPEN).encode()
_CUT = b"[0]"


def _cut_zero_rows(text: bytes, start: int, end: int, total: int):
    """(``text[start:end]`` with ``_CUT`` in place of each cut row, the
    indices of the cut rows), or None where no row is cut.

    A row is cut where its text, where the walk over the rows puts its
    start, is exactly a row of ``total`` zero pairs as ``state_text`` writes
    it; another row is stepped over by one ``find`` of its end.  A walk gone
    wrong leaves a ``[]`` where ``_flat_matrix``'s layout check expects a
    row, so a cut changes how fast a file is read, never what it reads to."""
    if not text.startswith(_MATRIX_OPEN, start, end):
        return None
    zero = ("    " + _ROW_OPEN + ",\n".join([_ZERO] * total) + _ROW_CLOSE).encode()
    if text.find(zero, start, end) < 0:
        return None
    row_end = ("]" + _ROW_CLOSE).encode()
    rows, pieces, pos, last = [], [], start + len("[\n"), start
    for i in range(total):
        if text.startswith(zero, pos, end):
            rows.append(i)
            pieces.append(text[last:pos])
            pos = last = pos + len(zero)
        else:
            pos = text.find(row_end, pos, end)
            if pos < 0:
                break
            pos += len(row_end)
        pos += len(",\n")
    pieces.append(text[last:end])
    return (_CUT.join(pieces), rows) if rows else None


def _flat_matrix(text: bytes, start: int, end: int, total: int):
    """The complex ``total`` x ``total`` matrix written in ``text[start:end]``
    as rows of [re, im] pairs of JSON numbers; None for any other text.

    Text shorter than the 6T^2 characters the shortest such matrix takes is
    refused before anything of size T^2 is built.  With each row cut by
    ``_cut_zero_rows`` standing in for one row, as ``[]``, and JSON
    whitespace dropped, dropping the number characters must leave exactly
    the brackets and commas of the layout, and no slot of a pair may be
    empty: a number moved out of its pair leaves one.  The brackets then
    become spaces, and one ``json.loads`` checks every number's grammar."""
    if end - start < 6 * total * total:
        return None
    found = _cut_zero_rows(text, start, end, total)
    cut = []
    if found is not None:
        text, cut = found
        start, end = 0, len(text)
    layout = [b"[" + b",".join([b"[,]"] * total) + b"]"] * total
    for i in cut:
        layout[i] = b"[]"
    # the span's one copy; it becomes json's input below
    body = bytearray(memoryview(text)[start:end])
    dense = body.translate(None, _JSON_SPACE)
    if dense.translate(None, _NUMBER_CHARACTERS) != b"[" + b",".join(layout) + b"]":
        return None
    for offset in (0, 1):
        words = np.frombuffer(dense, dtype="<u2", count=(len(dense) - offset) // 2,
                              offset=offset)
        if ((words == _EMPTY_FIRST) | (words == _EMPTY_SECOND)).any():
            return None
    del dense, words  # words is a view of dense
    # the span starts at the matrix's "[" and ends at its "]", kept as the list's
    body = body.translate(_UNBRACKET)
    body[0], body[-1] = b"[]"
    try:
        leaves = json.loads(body)
        del body
        flat = np.fromiter(leaves, dtype=float, count=len(leaves))
    except (ValueError, OverflowError):
        return None  # a malformed number, or an int past the digit limit or float range
    if cut:
        # a cut row left one 0 in ``flat``, every other row its 2T leaves
        zero = np.zeros(total, dtype=bool)
        zero[cut] = True
        pairs = np.zeros((total, 2 * total))
        pairs[~zero] = flat[np.repeat(~zero, np.where(zero, 1, 2 * total))].reshape(-1, 2 * total)
        flat = pairs
    return flat.view(complex).reshape(total, total)


def load_state(path) -> tuple:
    """Read a state file; returns (DensityMatrix, metadata dict).  A path
    that is not a ``str`` or ``os.PathLike`` is refused: ``open`` would read
    an int as a file descriptor, and close it.

    The file is read as bytes and parsed in place, as text mode would read
    it.  Bytes that are not ASCII are checked to be UTF-8 once, before the
    CR mapping, so a decode error names text mode's byte position.  CRLF
    and CR then become LF in the bytes: no multi-byte UTF-8 sequence holds
    either byte.  A file that the walk or the flat parse refuses is decoded
    and goes to the refusal route, whose text is text mode's."""
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidStateError(f"a state file path must be a str or os.PathLike, got {path!r}")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InvalidStateError(f"cannot read state file {path}: {exc}") from exc
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidStateError(f"state file {path} is not UTF-8: {exc}") from exc
    if b"\r" in data:
        # a scan for CR is 25 times faster than a replace that finds no CRLF
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    found, mat = _fields(data), None
    if found is not None:
        doc, start, end = found
        dims, total = _head(doc)
        mat = _flat_matrix(data, start, end, total)
    if mat is not None:
        del data
        rho = DensityMatrix._parsed(dims, mat)
    else:
        text = data.decode("utf-8")
        del data
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidStateError(f"state file {path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InvalidStateError(f"state file {path} is nested too deeply to parse") from exc
        except ValueError as exc:
            # after its subclass above: an int past sys.get_int_max_str_digits()
            raise InvalidStateError(f"state file {path} cannot be read: {exc}") from exc
        del text
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
