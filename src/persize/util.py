"""Small shared helpers: atomic file writes, the one reader of numeric text
files, the one (user, item) membership test, checks of numeric config
values, and per-user parallel maps."""

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
# A data line (first non-blank byte not '#') holding a '#', where loadtxt's
# comment rule would cut the row short; sought only if a '#' starts no line.
_HASH_IN_DATA = re.compile(rb"^[ \t\x0b\x0c]*[^\s#][^\n]*#", re.MULTILINE)
# A blank at a line end, which the scan strips and a loadtxt string field keeps.
_PADS = tuple(p for c in b" \t\x0b\x0c" for p in (b"\n" + bytes([c]), bytes([c]) + b"\n"))


def atomic_write(path, text: str) -> None:
    """Write text as UTF-8 through ``atomic_write_bytes``."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    """Write data to a temp file in the target directory, then rename, so a
    reader never sees a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    owners = np.asarray(owners, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
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
    (a leading tab, an indented comment, ``1_000``).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    dtype = np.dtype([(f"f{j}", _KINDS[k]) for j, k in enumerate(kinds)])
    columns = _load_plain(path, text, dtype, exact)
    if columns is not None and check(columns) is None:
        return columns
    columns, lines, error = _scan_rows(path, text, dtype, layout, exact)
    flagged = check(columns)
    if flagged is not None:
        row, message = flagged
        raise ValueError(f"{path}: line {lines[row]}: {message}")
    if error:
        raise ValueError(error)
    return columns


def _load_plain(path, text: str, dtype, exact: bool):
    """Columns of a plain ASCII file from one ``np.loadtxt`` call, or None."""
    if not text.isascii():
        return None
    data = b"\n" + text.encode("ascii") + b"\n"
    if (data.translate(None, _PLAIN) or (dtype.hasobject and any(p in data for p in _PADS))
            or (b"#" in data and data.count(b"#") != data.count(b"\n#")
                and _HASH_IN_DATA.search(data))):
        return None
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


def _parse_int64(fields):
    """int64 values of an array of strings (0 where bad) and the mask of the
    fields that Python's ``int`` rejects or int64 cannot hold. One cast
    reads a good array; only a failed cast tries the fields one by one."""
    bad = np.zeros(len(fields), dtype=bool)
    try:
        return fields.astype(np.int64), bad
    except (ValueError, OverflowError):
        for r, field in enumerate(fields.tolist()):
            try:
                _int64(field)
            except ValueError:
                bad[r] = True
    return np.where(bad, "0", fields).astype(np.int64), bad


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
