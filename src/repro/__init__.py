"""repro — a pure-Python reproduction of *TensorIR: An Abstraction for
Automatic Tensorized Program Optimization* (ASPLOS 2023).

Top-level layout:

* :mod:`repro.tir` — the TensorIR abstraction (buffers, loops, blocks).
* :mod:`repro.arith` — integer analysis: simplifier, interval sets,
  quasi-affine iterator maps.
* :mod:`repro.schedule` — schedule primitives as IR→IR transforms, the
  replayable trace, and validation.
* :mod:`repro.runtime` — lowering and NumPy-backed execution.
* :mod:`repro.sim` — simulated GPU/CPU hardware targets and the
  analytical performance model.
* :mod:`repro.intrin` — tensor intrinsic descriptions (TensorIntrin).
* :mod:`repro.autotensorize` — §4.2 tensorization candidate generation.
* :mod:`repro.diagnostics` — typed diagnostics (stable ``TIRnnn`` error
  codes, source spans, ``tirlint``) for validation and scheduling.
* :mod:`repro.meta` — the tensorization-aware auto-scheduler (§4.3–4.4).
* :mod:`repro.obs` — the tuning flight recorder: hierarchical spans,
  per-trial provenance, exportable run timelines (``python -m repro.obs``).
* :mod:`repro.learn` — the from-scratch gradient-boosted-tree cost model.
* :mod:`repro.serve` — tuning-as-a-service: the persistent schedule
  server behind ``repro.compile`` (lookup-first, tune-on-miss,
  persist-forever).
* :mod:`repro.frontend` — operators, workloads and network graphs.
* :mod:`repro.baselines` — TVM/AMOS/CUTLASS/TensorRT/ACL/PyTorch-like
  comparison systems used by the evaluation benchmarks.
"""

__version__ = "0.1.0"

from . import obs  # noqa: F401  (the flight-recorder package)
from . import tir  # noqa: F401  (re-exported for convenience)
from .diagnostics import (  # noqa: F401  — the typed diagnostics API
    Diagnostic,
    DiagnosticContext,
    DiagnosticError,
    Severity,
)
from .meta import (  # noqa: F401  — the documented top-level tuning API
    Database,
    PersistentDatabase,
    Recorder,
    Telemetry,
    TuneConfig,
    TuneResult,
    TuningDatabase,
    TuningSession,
    tune,
    workload_key,
)
from .frontend.shapes import (  # noqa: F401  — shape-generic tuning
    BucketedWorkload,
    BucketSpec,
    ShapeBucket,
    canonicalize,
)
from .schedule import verify  # noqa: F401  — the §3.3 validation battery
from .serve import (  # noqa: F401  — the serving surface
    Client,
    CompileResponse,
    ScheduleServer,
    ServeConfig,
    compile,
)

__all__ = [
    "tir",
    "obs",
    "tune",
    "TuneConfig",
    "Recorder",
    "TuneResult",
    "TuningSession",
    "Database",
    "TuningDatabase",
    "PersistentDatabase",
    "Telemetry",
    "workload_key",
    "compile",
    "ScheduleServer",
    "Client",
    "ServeConfig",
    "CompileResponse",
    "ShapeBucket",
    "BucketSpec",
    "BucketedWorkload",
    "canonicalize",
    "verify",
    "Diagnostic",
    "DiagnosticContext",
    "DiagnosticError",
    "Severity",
    "__version__",
]
