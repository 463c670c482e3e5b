"""Result files: atomic writes and block-formatted JSON, CSV and OBJ rows.

Every result file is opened through ``atomic_open``.  The bytes go to a
temporary file in the target's directory, which replaces the target only
after the write succeeded, so a failed run leaves neither a partial file
nor a stray temporary one.  The command line calls ``check_writable`` on
every output target before the command runs, so a bad target fails before
anything is printed, computed or written.

Float arrays, and the float lists of spec tables, are written
``BLOCK_ROWS`` rows at a time, one ``%`` call per block, and give the same
bytes as ``json.dump(doc, fh, indent=1)`` and as
``csv.writer`` with ``f"{x:.17g}"`` cells.  JSON and CSV text is made once
per distinct value of a block, told apart by its bits so that -0.0 stays
-0.0: report blocks are about a fifth distinct, but OBJ vertices are about
half, too many for the lookup to pay, so OBJ lines are formatted directly.
Non-finite values are refused before any file is opened: JSON has no token
for them, and a NaN in a result file is a numerical failure, not a result.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import NumericalError, ValidationError

# Rows formatted per call.  Bounds the size of the formatted text held at
# once; a whole file formatted as one string costs tens of MB of memory.
BLOCK_ROWS = 4096

# Stands in for an array in the scalar part of a JSON document; a
# noncharacter, so no label or kind written by the toolkit contains it.
_ARRAY_MARK = "\ufdd0array\ufdd0"


def _umask_mode():
    mask = os.umask(0)
    os.umask(mask)
    return 0o666 & ~mask


def _temp_beside(path):
    if not path:
        raise ValidationError("cannot write to an empty path")
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {path!r}: Is a directory")
    try:
        return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                prefix=".alphasurf-", suffix=".tmp")
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc.strerror}") from None


def check_writable(*paths):
    """Fail as ``atomic_open`` would on the first path (None skipped) that
    cannot be written, so a command can stop before its work and its first
    write instead of after them."""
    for path in paths:
        if path is not None:
            fd, tmp = _temp_beside(os.fspath(path))
            os.close(fd)
            os.unlink(tmp)


@contextmanager
def atomic_open(path, newline=None):
    """Text handle whose file replaces ``path`` only if the block succeeds."""
    path = os.fspath(path)
    fd, tmp = _temp_beside(path)
    try:
        # mkstemp creates the file private; give it the mode open() would
        os.chmod(tmp, _umask_mode())
        with open(fd, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _require_finite(arr, what):
    if not np.isfinite(arr).all():
        raise NumericalError(f"refusing to write non-finite values to {what}")


def _blocks(arr):
    for start in range(0, len(arr), BLOCK_ROWS):
        yield arr[start:start + BLOCK_ROWS]


def _cells(block, fmt):
    """``fmt % x`` for every value of ``block`` in row order, each distinct
    value (by its float64 bits) formatted once."""
    bits = np.ravel(block).astype(np.float64, copy=False).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([fmt % x for x in distinct.view(float).tolist()], object)
    return tuple(text[inverse].tolist())


# ---------------------------------------------------------------------------
# JSON


def write_json(path, doc):
    """``json.dump(doc, fh, indent=1)`` and a newline, with arrays in blocks.

    Non-empty 1-D and 2-D float arrays in the dicts and lists of ``doc``,
    and each non-empty list of floats or rectangular list of such lists,
    are formatted ``BLOCK_ROWS`` rows at a time; other arrays go through
    ``tolist`` and the json encoder, as does a list holding a non-finite
    value, for the encoder to refuse.  The encoder writes a float as
    ``float.__repr__``, which ``%r`` does as well, so the bytes agree.
    """
    arrays = []

    def held(obj):
        """``obj`` with each array it holds for blocks replaced by the mark."""
        if isinstance(obj, dict):
            return {key: held(val) for key, val in obj.items()}
        if type(obj) is list and obj:
            rows = obj if type(obj[0]) is list else [obj]
            if not (rows[0] and all(type(row) is list and len(row) == len(rows[0])
                                    for row in rows)
                    and set(map(type, itertools.chain.from_iterable(rows))) == {float}):
                return [held(val) for val in obj]
            if not np.isfinite(arr := np.array(obj)).all():
                return obj
            obj = arr
        if not isinstance(obj, np.ndarray):
            return obj
        if obj.dtype.kind != "f" or obj.ndim not in (1, 2) or obj.size == 0:
            return obj.tolist()
        _require_finite(obj, path)
        arrays.append(obj)
        return _ARRAY_MARK

    try:
        text = json.dumps(held(doc), indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write {path}: {exc}") from None
    pieces = text.split(json.dumps(_ARRAY_MARK))
    with atomic_open(path) as fh:
        fh.write(pieces[0])
        for before, arr, after in zip(pieces, arrays, pieces[1:]):
            # indent=1 puts every value on its own line, so the indent of
            # the line the array opens on is its nesting depth
            line = before.rpartition("\n")[2]
            _write_json_array(fh, arr, len(line) - len(line.lstrip(" ")))
            fh.write(after)
        fh.write("\n")


def _write_json_array(fh, arr, depth):
    """Write ``arr`` as ``json.dumps(arr.tolist(), indent=1)`` at ``depth``."""
    fh.write("[\n")
    for k, block in enumerate(_blocks(arr)):
        fh.write((",\n" if k else "") + _json_block(block, depth))
    fh.write("\n" + " " * depth + "]")


def _json_block(block, depth):
    item = " " * (depth + 1)
    if block.ndim == 1:  # one number per line
        row = item + "%s"
    else:  # one number per line, each row in its own brackets
        cell = ",\n" + item + " %s"
        row = f"{item}[\n{item} %s{cell * (block.shape[1] - 1)}\n{item}]"
    return ",\n".join([row] * len(block)) % _cells(block, "%r")


# ---------------------------------------------------------------------------
# CSV and OBJ


def _write_lines(fh, line, rows, offset=0):
    """Write ``line % (row + offset)`` for every row, one %-call per block."""
    for block in _blocks(rows):
        if offset:  # adding 0 would turn -0.0 into 0.0
            block = block + offset
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_csv(path, header, rows):
    """What ``csv.writer`` writes for ``header`` and ``rows`` with
    ``f"{x:.17g}"`` cells, so an integer-valued cell reads as an integer;
    lines end in ``"\\r\\n"``."""
    rows = np.asarray(rows, dtype=float)
    _require_finite(rows, path)
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        line = ",".join(["%s"] * len(header)) + "\r\n"
        for block in _blocks(rows):
            fh.write((line * len(block)) % _cells(block, "%.17g"))


def write_obj(path, vertices, triangles):
    """Wavefront OBJ text: ``v`` lines, then 1-based triangle ``f`` lines."""
    _require_finite(vertices, path)
    with atomic_open(path) as fh:
        _write_lines(fh, "v %.17g %.17g %.17g\n", vertices)
        _write_lines(fh, "f %d %d %d\n", triangles, offset=1)
