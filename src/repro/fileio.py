"""The one way this package writes a durable file.

Stdlib only, so every layer can use it — the tuning database, session
reports, flight recordings and the ``repro.obs`` CLI all write through
:func:`atomic_write`.
"""

from __future__ import annotations

import os
import tempfile

__all__ = ["atomic_write"]


def atomic_write(path: str, payload: str) -> None:
    """Write ``payload`` to ``path`` through a temp file in the same
    directory and ``os.replace``: a reader sees the old file or the new
    one, and a writer killed mid-write leaves only a stray ``*.tmp``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
