"""The one way this package writes a durable file, and the one way its
command-line tools end when their reader goes away.

Stdlib only, so every layer can use it — the tuning database, session
reports, flight recordings and the ``repro.obs`` CLI all write through
:func:`atomic_write`; both CLIs (``python -m repro.obs`` and
``python -m repro.diagnostics``) run through :func:`run_cli`.
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Callable

__all__ = ["atomic_write", "run_cli"]


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


def run_cli(main: Callable[[], int]) -> int:
    """Run a command-line ``main`` and return its exit status.

    A reader that closes stdout early (``... | head -1``) ends the
    command quietly with status 1, the EPIPE idiom of Python's
    ``signal`` docs: no traceback, and stdout pointed at ``os.devnull``
    so the interpreter's flush at exit cannot fail a second time."""
    try:
        status = main()
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
