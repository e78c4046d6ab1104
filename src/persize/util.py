"""Small shared helpers: atomic writes, the one reader of numeric text files,
the rules of id arrays (``_ids``) and of (user, item) pairs (``_pairs``), the
one pair membership test (``in_pairs``), number checks and parallel maps."""

from __future__ import annotations

import math
import os
import re
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from numbers import Integral, Real
from pathlib import Path

import numpy as np

_KINDS = {"i": "<i8", "f": "<f8", "s": "O"}
# Query entries per ``in_pairs`` chunk: store-sized temporaries freed on the
# main thread would stay resident while a stage's thread pool allocates.
_QUERY_CHUNK = 32_768
_INT64 = np.iinfo(np.int64)
# Bytes np.loadtxt parses as Python's int/float do: printable ASCII plus
# tab, line feed, vertical tab and form feed. (loadtxt also strips \x1c-\x1f
# and reads some non-ASCII letters as digits, which Python rejects.)
_PLAIN = bytes([9, 10, 11, 12, *range(32, 127)])
# Bytes per ``translate`` call of that check: one call over the whole file
# would allocate a result as long as the file.
_PLAIN_SLICE = 65_536
# A data line (first non-blank byte not '#') holding a '#', where loadtxt's
# comment rule would cut the row short; sought only if a '#' starts no line.
_HASH_IN_DATA = re.compile(rb"^[ \t\x0b\x0c]*[^\s#][^\n]*#", re.MULTILINE)
# A blank at a line end, which the scan strips and a loadtxt string field keeps.
_BLANKS = (b" ", b"\t", b"\x0b", b"\x0c")
_PADS = tuple(p for c in _BLANKS for p in (b"\n" + c, c + b"\n"))
# Line ends that text-mode reading, the scan's and loadtxt's, reads as b"\n".
_NEWLINES = re.compile(rb"\r\n?")


def atomic_write(path, text: str) -> None:
    """Write text as UTF-8 through ``atomic_write_bytes``."""
    atomic_write_bytes(path, [text.encode("utf-8")])


def atomic_write_bytes(path, chunks) -> None:
    """Write an iterable of bytes-like chunks, in order, to a temp file in
    the target directory, then rename, so a reader never sees a partial
    file. On any exception, one raised by ``chunks`` included, the temp file
    is removed and the target is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parallel_map(fn, keys, threads: int = 1) -> list:
    """Map a pure per-user function over keys, preserving input order.

    Results are gathered into a list in the order of ``keys`` regardless of
    thread count, so downstream reductions are deterministic.
    """
    keys = list(keys)
    if threads <= 1 or len(keys) <= 1:
        return [fn(k) for k in keys]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, keys))


def in_pairs(owners, items, pairs) -> np.ndarray:
    """Whether each ``(owners[j], items[j])`` is a row of the (n, 2)
    ``pairs``: one membership test over packed keys. A key packs the dense
    codes of the pairs' own user and item ids, so it stays below n² for any
    int64 ids; a query id that the pairs lack is a non-member."""
    owners, items = (_ids(x, "owners and items are not int64 integers") for x in (owners, items))
    pairs = _pairs(pairs)
    found = np.zeros(len(items), dtype=bool)
    if not len(pairs):
        return found
    users, pair_users = np.unique(pairs[:, 0], return_inverse=True)
    catalog, pair_items = np.unique(pairs[:, 1], return_inverse=True)
    pair_keys = pair_users * len(catalog) + pair_items
    for a in range(0, len(items), _QUERY_CHUNK):
        u, i = owners[a:a + _QUERY_CHUNK], items[a:a + _QUERY_CHUNK]
        at_user = np.minimum(users.searchsorted(u), len(users) - 1)
        at_item = np.minimum(catalog.searchsorted(i), len(catalog) - 1)
        found[a:a + _QUERY_CHUNK] = ((users[at_user] == u) & (catalog[at_item] == i)
                                     & np.isin(at_user * len(catalog) + at_item, pair_keys))
    return found


def _ids(values, error: str) -> np.ndarray:
    """``values`` as int64, the one rule of every array of ids; an int64 array
    is not copied. A bool, float, string or other non-integer, or an integer
    past int64, is a ValueError(error); an empty array of any dtype is no ids."""
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iu" or (
            not np.can_cast(arr.dtype, np.int64) and arr.max() > _INT64.max)):
        raise ValueError(error)
    return arr.astype(np.int64, copy=False)


def _pairs(values) -> np.ndarray:
    """``values`` as an (n, 2) int64 array of (user, item) pairs by ``_ids``'
    rule, with one wording; an empty array of any shape is no pairs."""
    error = "pairs are not an (n, 2) array of int64 integers"
    pairs = _ids(values, error)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(error)
    return pairs.reshape(-1, 2)


def _read_rows(path, kinds: str, layout: str, check, exact: bool = False) -> list:
    """The leading fields of each data row of a tab-separated UTF-8 file, one
    array per field: int64 for an ``i`` in ``kinds``, float64 for an ``f``,
    Python strings (an object array, so no field is ever cut) for an ``s``.

    Each line is stripped; blank lines and lines starting with ``#`` are
    skipped. Fields past ``len(kinds)`` are ignored, or with ``exact``
    rejected. A number must parse with Python's ``int`` or ``float``, and an
    id must fit in int64. ``check(columns)`` returns ``(row, message)`` for
    the earliest row it rejects, or None; it may run twice. Every rejection
    is a ValueError naming the path and the line: ``expected '<layout>'``,
    ``malformed row '<line>'`` or the check's message.

    One ``np.loadtxt`` call parses a plain ASCII file. The file is scanned
    row by row only when that call fails, when a data line holds a ``#``,
    when the file has other bytes, when a string field could keep a line's
    end blanks, or when ``check`` rejects a row; the scan names the first
    bad line, or returns the same columns for a row that only Python reads
    (a leading tab, an indented comment, ``1_000``). The checks run on the
    file's bytes, which are freed before ``np.loadtxt`` reads the file; only
    the scan decodes them.
    """
    dtype = np.dtype([(f"f{j}", _KINDS[k]) for j, k in enumerate(kinds)])
    data = _read_lines(path)
    if _plain(data, dtype):
        del data  # np.loadtxt reads the file itself
        columns = _load_plain(path, dtype, exact)
        if columns is not None and check(columns) is None:
            return columns
        data = _read_lines(path)
    columns, lines, error = _scan_rows(path, data.decode("utf-8"), dtype, layout, exact)
    flagged = check(columns)
    if flagged is not None:
        row, message = flagged
        raise ValueError(f"{path}: line {lines[row]}: {message}")
    if error:
        raise ValueError(error)
    return columns


def _read_lines(path) -> bytes:
    """The file's bytes, with CRLF and CR line ends read as LF, as text
    mode reads them."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _NEWLINES.sub(b"\n", data) if b"\r" in data else data


def _plain(data: bytes, dtype) -> bool:
    """Whether one ``np.loadtxt`` call may read the file: only ``_PLAIN``
    bytes, no line-end blank that a string field would keep, and no ``#``
    inside a data line, where loadtxt's comment rule would cut the row."""
    return not (any(data[a:a + _PLAIN_SLICE].translate(None, _PLAIN)
                    for a in range(0, len(data), _PLAIN_SLICE))
                or (dtype.hasobject and (data.startswith(_BLANKS) or data.endswith(_BLANKS)
                                         or any(p in data for p in _PADS)))
                or (b"#" in data
                    and data.count(b"#") != data.count(b"\n#") + data.startswith(b"#")
                    and _HASH_IN_DATA.search(data)))


def _load_plain(path, dtype, exact: bool):
    """Columns of a plain ASCII file from one ``np.loadtxt`` call, or None."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy < 2 reads "1.0" as the int 1 with only this warning
            warnings.filterwarnings("error", category=DeprecationWarning)
            table = np.loadtxt(path, dtype=dtype, delimiter="\t", comments="#",
                               usecols=None if exact else range(len(dtype)),
                               ndmin=1, encoding="utf-8")
    except (ValueError, DeprecationWarning):
        return None
    return [table[name] for name in dtype.names]


def _scan_rows(path, text: str, dtype, layout: str, exact: bool):
    """Row-by-row parse with Python's ``int`` / ``float``: (columns, line
    number of each row, error naming the first malformed line or None).
    The columns hold the rows before that line."""
    parse = [{"f": float, "i": _int64, "O": str}[dtype[j].kind] for j in range(len(dtype))]
    rows, lines, error = [], [], None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < len(parse) or (exact and len(fields) > len(parse)):
            error = f"{path}: line {lineno}: expected '{layout}'"
            break
        try:
            rows.append(tuple(f(x) for f, x in zip(parse, fields)))
        except ValueError:
            error = f"{path}: line {lineno}: malformed row {line!r}"
            break
        lines.append(lineno)
    table = np.array(rows, dtype=dtype)
    return [table[name] for name in dtype.names], lines, error


def _int64(field: str) -> int:
    value = int(field)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{value} does not fit in int64")
    return value


def _check_number(name: str, value, low, integer: bool = False) -> None:
    """Reject a value that is not an integer (with ``integer``) or a finite
    number, or is below ``low``, with a ValueError naming it: the one check
    of every size and count, library argument or config value. A bool is
    not a number."""
    if (isinstance(value, bool) or not isinstance(value, Integral if integer else Real)
            or not (isinstance(value, Integral) or math.isfinite(value)) or value < low):
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {what} >= {low}, got {value!r}")


def _rising(*keys) -> bool:
    """Whether the rows strictly rise in ``np.lexsort(keys)`` order (the last
    key primary): one pass per key over neighbouring rows, no sort."""
    rising = tied = None
    for key in reversed(keys):
        key = np.asarray(key)
        later, prev = key[1:], key[:-1]
        if tied is None:
            rising, tied = later > prev, later == prev
        else:
            rising |= tied & (later > prev)
            tied &= later == prev
    return bool(rising.all())


def _repeats(*keys):
    """The rows whose keys all equal those of an earlier row. Rows that
    already strictly rise in key order (``_rising``) are all distinct, so
    only other rows are sorted."""
    if _rising(*keys):
        return np.empty(0, dtype=np.intp)
    order = np.lexsort(keys)  # stable: a repeat follows its first row
    later, prev = order[1:], order[:-1]
    return later[np.logical_and.reduce([key[later] == key[prev] for key in keys])]


def _outside(ids, n: int, kind: str, where: str):
    """The ``_first_flagged`` pair for ids outside ``[0, n)``."""
    return (np.flatnonzero((ids < 0) | (ids >= n)),
            lambda r: f"{kind} id {ids[r]} is outside the {n} {kind}s of {where}")


def _first_flagged(flags):
    """``(row, message)`` for the earliest flagged row, or None.

    ``flags`` holds ``(rows, describe)`` pairs in priority order: the row
    indices one check rejects, and ``describe(row)`` giving its message. On
    a row that several checks reject, the first pair wins.
    """
    hits = [(int(rows.min()), describe) for rows, describe in flags if len(rows)]
    if not hits:
        return None
    row, describe = min(hits, key=lambda hit: hit[0])
    return row, describe(row)
