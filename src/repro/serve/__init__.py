"""Tuning-as-a-service: the persistent schedule server (``repro.serve``).

The serving layer turns the batch tuning stack into a long-lived
service: a :class:`ScheduleServer` answers compile/tune requests for
``PrimFunc`` workloads — hits instantly from a persistent
:class:`~repro.meta.database.Database`, misses via batched, coalesced
:class:`~repro.meta.session.TuningSession` runs on a background worker.
Applications call the server directly, or the one-liner
``repro.compile``, which routes through a process-wide default server
per (target, database path).
"""

from .api import CompileRequest, CompileResponse, ServeConfig, ServerStats
from .default import compile, default_server, shutdown_default_servers
from .server import ScheduleServer

__all__ = [
    "ScheduleServer",
    "ServeConfig",
    "CompileRequest",
    "CompileResponse",
    "ServerStats",
    "compile",
    "default_server",
    "shutdown_default_servers",
]
