"""JSON state files and report serialization.

State files carry the density matrix entrywise as [re, im] pairs.  Floats go
through Python's shortest round-trip repr (up to 17 significant digits), so a
save/load/save cycle is byte-identical.  Writes are atomic: content lands in
a sibling temporary file first and is moved into place.

Both directions work on whole arrays.  ``load_state`` reads the file once
and walks its top-level object key by key with ``json``'s own decoder, so
every key but ``"matrix"`` is read as ``json.loads`` reads it, the last of
duplicate keys winning.  The text of the matrix is not parsed as nested
lists: the reader checks it as it stands and parses it as one flat array.
The length of the text is checked against T^2 (T = prod(dims)) before
anything of that size is built.  Rows of zero pairs are then cut unparsed.
If the matrix opens as ``state_text`` writes it, at ``indent=2``, a row
whose text is exactly ``T`` [0.0, 0.0] pairs in that layout is recognised
by one comparison at the start of its row, and replaced by ``[0]``; one
search for that row's text passes over a file that holds none.  Every other
row, and every file of another layout, goes through the same checks and
the same json call as before.  In those checks each cut row stands in for
one row: the text is accepted only if, with JSON whitespace dropped,
dropping its number characters leaves exactly the brackets and commas of
``T`` rows of ``T`` [re, im] pairs, with ``[]`` in place of each cut row,
so no other character is in it; and if no pair has an empty slot, which is
where a number moved out of its pair, right after a ``]`` or right before a
``[``, would leave one.  Its brackets are then turned into spaces and one
``json.loads`` call parses what is left: json checks every number's
grammar and refuses whitespace inside a number, and the commas make the
count exactly 2T for each row that is not cut and one for each that is.
One ``np.fromiter`` call converts those numbers, and the rows not cut land
in order in a zero-filled array.  Both readers check ``schema``, ``kind``
and ``dims`` by one rule, ``_head``.  A document that fails any check, or
whose ``schema``, ``kind`` or ``dims`` is wrong, whose matrix holds an int
too large for a float or appears twice, goes through ``json.loads`` of the
whole text and ``state_from_jsonable``, which converts the parsed matrix
by one walk, entry by entry, and names the first bad row or entry.
Validation checks finiteness, Hermiticity and positive semidefiniteness,
by a Cholesky factorization, on the block of the rows and columns that hold
a nonzero entry, so a sparse state such as GHZ-9 is checked on its 2 x 2
block (see ``states.validate_density``).

Every document is written with the bytes of ``json.dumps(doc, indent=2,
allow_nan=False)``.  Reports go through ``dump_json``, a template writer.
An object fills one ``%`` template of its keys, cached per tuple of keys and
depth, and a list of objects with one tuple of keys, such as a report's
records, fills that one template per object, its values encoded column by
column.  Scalars are encoded by their exact type: strings by
``json.encoder.encode_basestring_ascii``, ints and floats by
``int.__repr__`` and ``float.__repr__``, and a list or column of one scalar
type by one ``map``.  Anything else, a subclass such as a ``str`` enum or
``np.float64``, a key that is not a ``str``, or a float that is not finite,
gets the text ``json`` itself gives it, errors included.

The state writer, ``state_text``, takes a ``DensityMatrix``, whose matrix
validation has made finite: ``dump_json`` writes the head of the document and
the matrix is written row by row, straight from the array.  A pair whose two
leaves are +0.0, bit for bit, is one constant text; each row's template puts
that constant at its zero pairs and a ``%r`` pair at the rest, and one ``%``
call fills it with the row's nonzero leaves.  Every row, dense or not, is
built by that one rule, so float formatting costs as many pairs as are
nonzero, and a row whose zero pairs sit where the previous row's do reuses
that row's template.
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

import numpy as np

from .errors import InvalidStateError
from .states import DensityMatrix, _subsystem_dims

SCHEMA_VERSION = "blochsep/1"


def _head(doc) -> tuple:
    """(dims, T) of a state document, T = prod(dims), after its ``schema``,
    ``kind`` and ``dims`` are checked; raises InvalidStateError naming the
    first that is wrong."""
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise InvalidStateError(
            f"unsupported schema {schema!r} (this reader understands {SCHEMA_VERSION!r})"
        )
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
                raise InvalidStateError(
                    f"matrix entry ({i}, {j}) must be a [re, im] number pair"
                )
            try:
                mat[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise InvalidStateError(f"matrix entry ({i}, {j}) is too large for a float")
    # dimension and matrix-content checks (Hermiticity, trace, positivity)
    return DensityMatrix(dims, mat)


def dump_json(doc) -> str:
    """A report as ``json.dumps(doc, indent=2, allow_nan=False)`` plus a
    newline, byte for byte, raising what ``json`` raises."""
    try:
        return _encode(doc, "\n") + "\n"
    except RecursionError:
        # a cycle, which json names, or nesting too deep for json too
        return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` as ``json`` writes it at the depth whose line break and
    indent are ``newline``: no string it writes holds a raw line break."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", newline)


# the text of a scalar by its exact type; a subclass, a ``str`` enum or
# ``np.float64``, goes to ``json``, and so does a float that is not finite
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


@functools.lru_cache(maxsize=64)
def _template(keys: tuple, newline: str):
    """The ``%`` template of an object with ``keys`` at the depth of
    ``newline``, one ``%s`` per value; None for no keys, or for a key that
    is not a ``str``, which ``json`` converts or refuses."""
    if not keys or not all(type(k) is str for k in keys):
        return None
    inner = newline + "  "
    lines = [inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    return "{" + ",".join(lines) + newline + "}"


def _texts(items, newline: str) -> list:
    """The texts of ``items``, a list or tuple, at the depth of ``newline``.

    Items of one scalar type are encoded by one ``map``; floats so only when
    their sum is finite, so that each one is.  Objects with one tuple of
    ``str`` keys, a report's records, fill one template, their values
    encoded column by column."""
    kinds = set(map(type, items))
    if len(kinds) == 1:
        kind = kinds.pop()
        scalar = _SCALARS.get(kind)
        if scalar is not None and (kind is not float or math.isfinite(sum(items))):
            return list(map(scalar, items))
        if kind is dict and len(set(map(tuple, items))) == 1:
            template = _template(tuple(items[0]), newline)
            if template is not None:
                columns = [_texts(c, newline + "  ") for c in zip(*map(dict.values, items))]
                return [template % row for row in zip(*columns)]
    return [_encode(v, newline) for v in items]


def _encode(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at the depth
    whose line break and indent are ``newline``."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(_texts(value, inner)) + newline + "]"
    if kind is dict:
        template = _template(tuple(value), newline)
        if template is not None:
            return template % tuple(_texts(tuple(value.values()), newline + "  "))
    elif kind in _SCALARS and (kind is not float or math.isfinite(value)):
        return _SCALARS[kind](value)
    return _json(value, newline)


# one [re, im] pair of a matrix row, at the depth ``indent=2`` puts it
_PAIR = "      [\n        %r,\n        %r\n      ]"
# a pair of +0.0 leaves, the same text for every zero pair; ``_PIECES`` is
# indexed by whether a pair is nonzero
_ZERO = _PAIR % (0.0, 0.0)
_PIECES = np.array([_ZERO, _PAIR], dtype=object)
# a row's opening and closing at that depth; rows, and the pairs of a row,
# are joined by ",\n"
_ROW_OPEN, _ROW_CLOSE = "    [\n", "\n    ]"
# a top-level key is the only line that starts with exactly two spaces and a
# quote, so the placeholder occurs once
_MATRIX_LINE = '\n  "matrix": '


def state_text(rho: DensityMatrix, name: str | None = None, source: str | None = None) -> str:
    """The state document of ``rho`` as ``dump_json`` would write it, its
    matrix filled in from the array; ``name`` and ``source`` go into
    ``metadata`` when given.

    Every row is written by one rule: a template of ``_ZERO`` at its zero
    pairs, both leaves +0.0 by their bits, and ``_PAIR`` at the rest, at
    the depth ``indent=2`` puts a row, filled by one ``%`` call with the
    row's other leaves.  A row whose zero pairs sit where the previous
    row's do reuses that row's template.  A -0.0 leaf has its sign bit set,
    so its pair goes through ``repr`` as ``json`` writes it."""
    doc = {"schema": SCHEMA_VERSION, "kind": "state", "dims": list(rho.dims), "matrix": []}
    metadata = {key: value for key, value in (("name", name), ("source", source))
                if value is not None}
    if metadata:
        doc["metadata"] = metadata
    head, _, tail = dump_json(doc).partition(_MATRIX_LINE + "[]")
    m = np.ascontiguousarray(rho.matrix)
    bits = m.view(np.uint64).reshape(*m.shape, 2)
    nonzero = (bits[..., 0] | bits[..., 1]) != 0
    rows, last = [], None
    for row, keep in zip(m, nonzero):
        pattern = keep.tobytes()
        if pattern != last:
            template = _ROW_OPEN + ",\n".join(_PIECES[keep.view(np.uint8)].tolist()) + _ROW_CLOSE
            last = pattern
        rows.append(template % tuple(row[keep].view(float).tolist()))
    return head + _MATRIX_LINE + "[\n" + ",\n".join(rows) + "\n  ]" + tail


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


# JSON whitespace and the characters of JSON numbers, which the matrix check
# drops, and the table that turns brackets into spaces for the flat parse
_JSON_SPACE = b" \t\n\r"
_NUMBER_CHARACTERS = b"0123456789+-.eE"
_UNBRACKET = str.maketrans("[]", "  ")
# "[," and ",]", each as one little-endian 16-bit word: a pair's slot left empty
_EMPTY_FIRST, _EMPTY_SECOND = np.frombuffer(b"[,,]", dtype="<u2").tolist()
_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match


def _fields(text: str):
    """The top-level object of ``text`` as ``json.loads`` reads it, but for
    the value of ``"matrix"``, which is not parsed: (the other keys' values,
    start, end) of that value's text.  None where ``text`` is no such
    object, or its ``"matrix"`` is missing, given twice or not an array.

    The matrix text ends at its last ``]`` before the next ``"`` or ``}``,
    neither of which a matrix holds; if it ends elsewhere, the matrix check
    refuses the text."""
    fields, span = {}, None
    i = _SPACE(text).end()
    if text[i:i + 1] != "{":
        return None
    i = _SPACE(text, i + 1).end()
    try:
        while text[i:i + 1] == '"':
            key, i = _DECODER.raw_decode(text, i)
            i = _SPACE(text, i).end()
            if text[i:i + 1] != ":":
                return None
            i = _SPACE(text, i + 1).end()
            if key != "matrix":
                fields[key], i = _DECODER.raw_decode(text, i)
            elif span is None and text[i:i + 1] == "[":
                stop = min((k for k in (text.find('"', i), text.find("}", i)) if k >= 0),
                           default=len(text))
                end = text.rfind("]", i, stop) + 1
                if not end:
                    return None
                span, i = (i, end), end
            else:
                return None
            i = _SPACE(text, i).end()
            if text[i:i + 1] == "}":
                if span is None or _SPACE(text, i + 1).end() != len(text):
                    return None
                return fields, *span
            if text[i:i + 1] != ",":
                return None
            i = _SPACE(text, i + 1).end()
    except (ValueError, RecursionError):
        pass  # json's errors, an int past the digit limit, nesting too deep
    return None


# the matrix as ``state_text`` writes it opens with this text, its first
# row's opening; only then are rows of zero pairs cut before the check
_MATRIX_OPEN = "[\n" + _ROW_OPEN
# what a cut row leaves in the matrix text: the layout check reads "[]",
# which no row of pairs holds, and json reads one number
_CUT = "[0]"


def _cut_zero_rows(text: str, start: int, end: int, total: int):
    """(``text[start:end]`` with ``_CUT`` in place of each cut row, the
    indices of the cut rows), or None where no row is cut.

    A row is cut where its text, found where the walk over the rows puts
    its start, is exactly a row of ``total`` zero pairs as ``state_text``
    writes it.  Another row is stepped over by one ``find`` of its end.
    Where the walk goes wrong, on text of some other layout, a ``[]`` lands
    where the matrix check expects a row, so the check refuses the text and
    the whole document is read by ``json``: a cut changes how fast a file
    is read, never what it reads to."""
    if not text.startswith(_MATRIX_OPEN, start, end):
        return None
    zero = _ROW_OPEN + ",\n".join([_ZERO] * total) + _ROW_CLOSE
    if text.find(zero, start, end) < 0:
        return None
    row_end = "]" + _ROW_CLOSE
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


def _flat_matrix(text: str, start: int, end: int, total: int):
    """The complex ``total`` x ``total`` matrix written in ``text[start:end]``
    as rows of [re, im] pairs of JSON numbers; None for any other text."""
    # the shortest such text has 4T^2 + 2T + 1 brackets and commas and 2T^2
    # numbers, so a short text is refused before anything of size T^2 is built
    if end - start < 6 * total * total:
        return None
    # each cut row of zero pairs stands in for one row in every check below,
    # and ``_CUT``'s edges are brackets, as a row's are
    found = _cut_zero_rows(text, start, end, total)
    cut = []
    if found is not None:
        text, cut = found
        start, end = 0, len(text)
    layout = [b"[" + b",".join([b"[,]"] * total) + b"]"] * total
    for i in cut:
        layout[i] = b"[]"
    # as ASCII bytes, which ``translate`` drops characters from faster than
    # from a str; any other character becomes "?", which the layout refuses
    dense = text[start:end].encode("ascii", "replace").translate(None, _JSON_SPACE)
    if dense.translate(None, _NUMBER_CHARACTERS) != b"[" + b",".join(layout) + b"]":
        return None
    # a number moved out of its pair leaves a slot empty, and json, which
    # sees no brackets, would read it in that slot's place.  Every two
    # adjacent bytes are one 16-bit word, at an even or at an odd offset
    for offset in (0, 1):
        words = np.frombuffer(dense, dtype="<u2", count=(len(dense) - offset) // 2,
                              offset=offset)
        if ((words == _EMPTY_FIRST) | (words == _EMPTY_SECOND)).any():
            return None
    del dense, words  # words is a view of dense
    try:
        leaves = json.loads(f"[{text[start:end].translate(_UNBRACKET)}]")
    except ValueError:
        # a malformed number, or an int past the digit limit
        return None
    try:
        flat = np.fromiter(leaves, dtype=float, count=len(leaves))
    except OverflowError:
        return None
    if cut:
        # a cut row left one 0 in ``flat``, every other row its 2T leaves
        zero = np.zeros(total, dtype=bool)
        zero[cut] = True
        pairs = np.zeros((total, 2 * total))
        pairs[~zero] = flat[np.repeat(~zero, np.where(zero, 1, 2 * total))].reshape(-1, 2 * total)
        flat = pairs
    return flat.view(complex).reshape(total, total)


def _flat_state(text: str):
    """(dims, matrix, metadata) of a state document read by the flat parse,
    or None where the document must go through ``state_from_jsonable``."""
    found = _fields(text)
    if found is None:
        return None
    fields, start, end = found
    try:
        dims, total = _head(fields)
    except InvalidStateError:
        return None
    mat = _flat_matrix(text, start, end, total)
    if mat is None:
        return None
    return dims, mat, fields.get("metadata", {})


def load_state(path: str) -> tuple:
    """Read a state file; returns (DensityMatrix, metadata dict).

    A well-formed file is read by the flat parse; any other goes through
    ``json.loads`` and ``state_from_jsonable``, so it gets the messages
    that name what is wrong with it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidStateError(f"cannot read state file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidStateError(f"state file {path} is not UTF-8: {exc}") from exc
    found = _flat_state(text)
    if found is not None:
        del text
        dims, mat, metadata = found
        rho = DensityMatrix(dims, mat)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidStateError(f"state file {path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InvalidStateError(f"state file {path} is nested too deeply to parse") from exc
        except ValueError as exc:
            # after its subclass above: json raises a plain ValueError for an
            # integer longer than sys.get_int_max_str_digits() allows
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
