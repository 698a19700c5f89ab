"""The default servers behind ``repro.compile``.

The module keeps one lazily-created :class:`ScheduleServer` per
(target, database-path) pair, so the one-liner
``repro.compile(func, target)`` behaves like a process-wide compile
cache: the first call tunes, every later call for a structurally
identical workload is a database hit.  The servers are closed at
interpreter exit.
"""

from __future__ import annotations

import atexit
import threading
from typing import Dict, Optional, Tuple

from ..sim import Target
from ..tir import PrimFunc
from .api import CompileResponse, ServeConfig
from .server import ScheduleServer

__all__ = ["default_server", "compile", "shutdown_default_servers"]

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_SERVERS: Dict[Tuple[str, Optional[str]], ScheduleServer] = {}


def default_server(
    target: Target, config: Optional[ServeConfig] = None
) -> ScheduleServer:
    """The process-wide shared server for ``target`` (one per
    (target, db_path); ``config`` only shapes the first construction).
    A closed default server is replaced by a new one."""
    config = config or ServeConfig()
    key = (target.name, config.db_path)
    with _DEFAULT_LOCK:
        server = _DEFAULT_SERVERS.get(key)
        if server is None or server._closed:
            server = ScheduleServer(target, config)
            _DEFAULT_SERVERS[key] = server
    return server


def shutdown_default_servers() -> None:
    """Close every default server (tests, interpreter exit)."""
    with _DEFAULT_LOCK:
        servers = list(_DEFAULT_SERVERS.values())
        _DEFAULT_SERVERS.clear()
    for server in servers:
        server.close()


atexit.register(shutdown_default_servers)


def compile(  # noqa: A001 — deliberate: the serve-surface entry point
    func: PrimFunc,
    target: Target,
    *,
    config: Optional[ServeConfig] = None,
    server: Optional[ScheduleServer] = None,
    timeout: Optional[float] = None,
) -> CompileResponse:
    """Compile one workload through the serving stack (``repro.compile``).

    Routes through ``server`` when given, else the process-wide default
    server for ``target``: a database hit returns the stored best
    program (zero search), a miss tunes it once — with concurrent
    misses for the same workload coalesced into a single run — and
    every later call is a hit.  The response carries the scheduled
    program, its printed script, the predicted cycles, and (by default)
    a runtime-compiled callable.
    """
    if server is None:
        server = default_server(target, config)
    return server.compile(func, timeout=timeout)
