"""The tensorization-aware auto-scheduler (paper §4)."""

from ..obs import Recorder, TrialRecord
from .autocopy import (
    schedule_default_spatial_cpu,
    schedule_default_spatial_gpu,
    schedule_fragment_copy,
    schedule_shared_copy,
)
from .config import TuneConfig
from .cost_model import CostModel
from .database import (
    Database,
    DatabaseEntry,
    PersistentDatabase,
    TuningDatabase,
    workload_key,
)
from .feature import FEATURE_NAMES, extract_features
from .search import SearchStats, TuneResult, evolutionary_search
from .session import SessionReport, TaskReport, TuningSession, estimated_cost
from .sketch import (
    CpuScalarSketch,
    CpuSdotSketch,
    GpuScalarSketch,
    Sketch,
    TensorCoreSketch,
    generate_sketches,
    main_block_of,
)
from .telemetry import Span, Telemetry
from .tune import tune

__all__ = [
    "tune",
    "TuneConfig",
    "evolutionary_search",
    "TuneResult",
    "SearchStats",
    "TuningSession",
    "SessionReport",
    "TaskReport",
    "estimated_cost",
    "Database",
    "TuningDatabase",
    "PersistentDatabase",
    "DatabaseEntry",
    "workload_key",
    "Telemetry",
    "Span",
    "Recorder",
    "TrialRecord",
    "CostModel",
    "extract_features",
    "FEATURE_NAMES",
    "Sketch",
    "TensorCoreSketch",
    "GpuScalarSketch",
    "CpuSdotSketch",
    "CpuScalarSketch",
    "generate_sketches",
    "main_block_of",
    "schedule_shared_copy",
    "schedule_fragment_copy",
    "schedule_default_spatial_gpu",
    "schedule_default_spatial_cpu",
]
