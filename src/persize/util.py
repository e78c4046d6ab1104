"""Small shared helpers: atomic file writes and per-user parallel maps."""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


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
