"""Comparison systems for the evaluation (§5).

The paper compares against real systems we cannot run offline; each is
re-built here as the *strategy* that defines it, on top of the same
simulated hardware (see DESIGN.md §2 for the substitution argument):

* :class:`TensorIRSystem` — this paper: auto-tensorization + joint
  evolutionary search over computation and data movement.
* :class:`AnsorBaseline` (the "TVM" bars) — the same search
  infrastructure with tensorization disabled: loop-nest transformations
  over the scalar pipeline only.
* :class:`AmosBaseline` — tensorization through mapping enumeration with
  template schedules: the intrinsic is used, but data movement comes
  from a small fixed candidate set rather than a joint search.
* :class:`CutlassLibrary` — hand-written tensorized kernels with a fixed
  tile catalogue, profile-and-select dispatch, and software-pipelining
  gains our search space does not model (a documented 0.85x cycle
  factor).  Supports GEMM-shaped ops only: DEP/GRP/T2D raise
  :class:`UnsupportedWorkload` exactly as the paper notes.
* :class:`TensorRTLibrary` — vendor engine: CUTLASS-class kernels for
  GEMM-shaped ops, fixed-configuration generic kernels for the rest, and
  graph-level elementwise fusion end-to-end.  No ViT support.
* :class:`TorchLikeFramework` — eager framework: vendor per-op kernels,
  per-op launch overhead, no fusion.  Its quantised CPU path (QNNPACK)
  lacks ``sdot`` support (§5.3), so int8 ops run on the scalar pipeline.
* :class:`ArmComputeLibrary` — hand-tuned sdot micro-kernels for int8
  C2D/GMM with an expert fixed configuration (0.9x cycle factor for
  assembly-level tuning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..meta import (
    CostModel,
    CpuScalarSketch,
    CpuSdotSketch,
    GpuScalarSketch,
    TensorCoreSketch,
    TuneConfig,
    evolutionary_search,
    tune,
)
from ..meta.search import TuneResult
from ..meta.sketch import apply_sketch
from ..schedule import Schedule, ScheduleError, verify
from ..sim import PerfReport, SimCPU, SimGPU, Target, estimate
from ..tir import PrimFunc

__all__ = [
    "UnsupportedWorkload",
    "OpResult",
    "System",
    "TensorIRSystem",
    "AnsorBaseline",
    "AmosBaseline",
    "CutlassLibrary",
    "TensorRTLibrary",
    "TorchLikeFramework",
    "ArmComputeLibrary",
]


class UnsupportedWorkload(Exception):
    """The library has no kernel for this operator."""


@dataclass
class OpResult:
    system: str
    workload: str
    cycles: float
    seconds: float
    tuning_seconds: float = 0.0
    trials: int = 0
    note: str = ""


class System:
    """A compilation system / kernel library under evaluation."""

    name = "system"
    #: per-op dispatch overhead in seconds when run from a framework
    #: (graph engines fold this away).
    op_overhead = 0.0
    #: engines with graph-level fusion fold elementwise layers away.
    fuses_elementwise = False

    def compile_op(self, func: PrimFunc, target: Target, seed: int = 0) -> OpResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}>"


def _first_valid(func, sketch, target, seeds, forced=None):
    for seed in seeds:
        try:
            sch = apply_sketch(func, sketch, seed=seed, forced=forced)
        except ScheduleError:
            continue
        if verify(sch.func, target):
            continue
        return sch
    return None


class TensorIRSystem(System):
    """This paper's system: full auto-tensorization + joint search."""

    name = "TensorIR"

    def __init__(self, trials: int = 24):
        self.trials = trials

    def tune_config(self, seed: int = 0) -> TuneConfig:
        """The config a ``TuningSession`` needs to reproduce this
        system's per-op searches exactly."""
        return TuneConfig(trials=self.trials, seed=seed)

    def compile_op(self, func: PrimFunc, target: Target, seed: int = 0) -> OpResult:
        result = tune(func, target, self.tune_config(seed))
        if result.best_report is None:
            raise UnsupportedWorkload(f"search found no valid program for {func.name}")
        return OpResult(
            self.name,
            func.name,
            result.best_cycles,
            result.best_report.seconds,
            tuning_seconds=result.tuning_seconds,
            trials=result.stats.measured,
            note=result.best_sketch or "",
        )


class AnsorBaseline(TensorIRSystem):
    """TVM's auto-scheduler: the same search without tensorization.

    The search space is larger relative to the work it can express (the
    paper's §5.2 tuning-time observation), so it needs ~2x the trials to
    converge — and its candidates are slower, so each profiling step
    costs more.
    """

    name = "TVM"

    def __init__(self, trials: int = 48):
        super().__init__(trials)

    def tune_config(self, seed: int = 0) -> TuneConfig:
        return super().tune_config(seed).with_(allow_tensorize=False)


class AmosBaseline(System):
    """AMOS: automatic intrinsic mapping with template schedules.

    Uses the same §4.2 mapping machinery but evaluates only a handful of
    template instantiations per mapping and keeps data movement fixed —
    no evolutionary refinement, no learned cost model.
    """

    name = "AMOS"

    def __init__(self, template_count: int = 4):
        self.template_count = template_count

    def compile_op(self, func: PrimFunc, target: Target, seed: int = 0) -> OpResult:
        if isinstance(target, SimGPU):
            sketches = [TensorCoreSketch(n) for n in target.compute_intrins]
            fallback = GpuScalarSketch()
        else:
            sketches = [CpuSdotSketch(n) for n in target.compute_intrins]
            fallback = CpuScalarSketch()
        probe = Schedule(func, record_trace=False)
        sketches = [s for s in sketches if s.applicable(probe)]
        best: Optional[PerfReport] = None
        tuning = 0.0
        measured = 0
        for sketch in sketches or [fallback]:
            result = evolutionary_search(
                func,
                sketch,
                target,
                TuneConfig(
                    trials=self.template_count,
                    population=self.template_count,
                    generations=1,  # template enumeration, no evolution
                    seed=seed,
                ),
            )
            tuning += result.tuning_seconds
            measured += result.stats.measured
            if result.best_report is not None and (
                best is None or result.best_report.cycles < best.cycles
            ):
                best = result.best_report
        if best is None:
            result = evolutionary_search(
                func, fallback, target, TuneConfig(trials=self.template_count, seed=seed)
            )
            best = result.best_report
            tuning += result.tuning_seconds
            measured += result.stats.measured
        if best is None:
            raise UnsupportedWorkload(f"AMOS found no valid mapping for {func.name}")
        return OpResult(
            self.name, func.name, best.cycles, best.seconds, tuning, measured
        )


#: Expert tile catalogue as decision vectors for the tensor-core sketch
#: (indices into each sampling step's candidate list, in decision order:
#: x_inner, x_mid, y_inner, y_mid, k_inner, copy_vec, unroll).
_CUTLASS_CATALOG = [
    [1, 1, 1, 1, 1, 3, 2],
    [2, 1, 1, 2, 1, 3, 2],
    [1, 2, 2, 1, 2, 2, 1],
    [2, 2, 1, 1, 1, 2, 2],
    [0, 2, 2, 0, 2, 3, 1],
    [1, 0, 1, 0, 1, 1, 0],
]

#: Gains from software pipelining (cp.async double buffering) and
#: swizzled layouts that sit outside the modelled search space.  They
#: apply to the kernels CUTLASS engineers hardest — dense GEMM and 3D
#: convolution; batch-1 1D/2D convolutions run through the generic
#: implicit-GEMM path where the fixed tile catalogue dominates.
_EXPERT_PIPELINE_FACTOR = 0.85
_PIPELINED_OPS = ("matmul", "batch_matmul", "conv3d")


def _op_kind(func: PrimFunc) -> str:
    """The operator class of a workload (independent of its layer name)."""
    return str(func.attrs.get("op", func.name))


class CutlassLibrary(System):
    """CUTLASS-style hand-written tensor-core kernels.

    Profile-and-select over a fixed tile catalogue; GEMM-shaped
    operators only (implicit-GEMM convolutions included).  DEP, GRP and
    T2D are unsupported — exactly the gaps Figure 11 notes.
    """

    name = "CUTLASS"
    _SUPPORTED = ("matmul", "batch_matmul", "conv1d", "conv2d", "dilated_conv2d", "conv3d")

    def compile_op(self, func: PrimFunc, target: Target, seed: int = 0) -> OpResult:
        if not isinstance(target, SimGPU):
            raise UnsupportedWorkload("CUTLASS targets NVIDIA GPUs only")
        if _op_kind(func) not in self._SUPPORTED:
            raise UnsupportedWorkload(f"CUTLASS has no kernel for {func.name}")
        cycles = _catalog_compile(func, target, seed)
        return OpResult(
            self.name,
            func.name,
            cycles,
            target.cycles_to_seconds(cycles),
            note="catalogue",
        )


def _catalog_compile(func: PrimFunc, target: Target, seed: int) -> float:
    """Profile-and-select over the fixed expert tile catalogue.

    Shapes the catalogue does not cover fall back to the library's
    heuristic kernel picker (a handful of untuned configurations) — a
    library always returns *some* kernel for a supported op class.
    """
    sketch = TensorCoreSketch()
    probe = Schedule(func, record_trace=False)
    if not sketch.applicable(probe):
        raise UnsupportedWorkload(f"no tensor-core mapping for {func.name}")
    best: Optional[PerfReport] = None
    for config in _CUTLASS_CATALOG:
        sch = _first_valid(func, sketch, target, seeds=[seed], forced=config)
        if sch is None:
            continue
        report = estimate(sch.func, target)
        if best is None or report.cycles < best.cycles:
            best = report
    if best is None:
        # Heuristic picker: best of a few untuned instantiations.
        for s in range(seed, seed + 8):
            sch = _first_valid(func, sketch, target, seeds=[s])
            if sch is None:
                continue
            report = estimate(sch.func, target)
            if best is None or report.cycles < best.cycles:
                best = report
    if best is None:
        raise UnsupportedWorkload(f"no catalogue entry fits {func.name}")
    factor = _EXPERT_PIPELINE_FACTOR if _op_kind(func) in _PIPELINED_OPS else 1.0
    return best.cycles * factor


class TensorRTLibrary(System):
    """TensorRT-style vendor engine.

    GEMM-shaped ops get CUTLASS-class kernels; everything else runs a
    fixed-configuration generic kernel (no per-shape tuning).  The
    engine fuses elementwise layers at graph level.  ViT is unsupported
    at the network level (§5.2).
    """

    name = "TensorRT"
    fuses_elementwise = True
    unsupported_networks = ("ViT",)
    #: TRT additionally ships grouped-conv tensor-core kernels.
    _TENSORIZED = CutlassLibrary._SUPPORTED + ("group_conv2d",)

    def compile_op(self, func: PrimFunc, target: Target, seed: int = 0) -> OpResult:
        if not isinstance(target, SimGPU):
            raise UnsupportedWorkload("TensorRT targets NVIDIA GPUs only")
        if _op_kind(func) in self._TENSORIZED:
            try:
                cycles = _catalog_compile(func, target, seed)
                return OpResult(
                    self.name,
                    func.name,
                    cycles,
                    target.cycles_to_seconds(cycles),
                    note="gemm-kernel",
                )
            except UnsupportedWorkload:
                pass
        # Generic kernel: one fixed configuration of the scalar schedule
        # (vendor kernels for odd ops exist but are not shape-tuned).
        sch = _first_valid(
            func, GpuScalarSketch(), target, seeds=range(seed, seed + 30)
        )
        if sch is None:
            raise UnsupportedWorkload(f"TensorRT generic kernel failed for {func.name}")
        report = estimate(sch.func, target)
        return OpResult(
            self.name, func.name, report.cycles, report.seconds, note="generic-kernel"
        )


class TorchLikeFramework(System):
    """Eager framework calling vendor kernels op by op.

    Per-op dispatch overhead (~25us) and no cross-op fusion.  On the
    int8 CPU path the backing library (QNNPACK) has not added ``sdot``
    support, so quantised ops fall back to the scalar pipeline (§5.3).
    """

    name = "PyTorch"
    op_overhead = 25e-6

    def __init__(self):
        self._trt = TensorRTLibrary()

    def compile_op(self, func: PrimFunc, target: Target, seed: int = 0) -> OpResult:
        if isinstance(target, SimGPU):
            result = self._trt.compile_op(func, target, seed)
            return OpResult(self.name, func.name, result.cycles, result.seconds)
        # CPU: no sdot in the quantised backend → scalar kernels with a
        # fixed configuration.
        sch = _first_valid(func, CpuScalarSketch(), target, seeds=range(seed, seed + 30))
        if sch is None:
            raise UnsupportedWorkload(f"no CPU kernel for {func.name}")
        report = estimate(sch.func, target)
        return OpResult(self.name, func.name, report.cycles, report.seconds, note="no-sdot")


class ArmComputeLibrary(System):
    """ACL-style hand-tuned sdot micro-kernels (int8 C2D/GMM)."""

    name = "ArmComputeLib"
    _SUPPORTED = ("matmul", "conv2d", "batch_matmul")
    _EXPERT_FACTOR = 0.9  # hand-scheduled assembly beyond the search space

    def compile_op(self, func: PrimFunc, target: Target, seed: int = 0) -> OpResult:
        if not isinstance(target, SimCPU):
            raise UnsupportedWorkload("ArmComputeLib targets ARM CPUs only")
        if _op_kind(func) not in self._SUPPORTED:
            raise UnsupportedWorkload(f"ACL has no sdot kernel for {func.name}")
        sketch = CpuSdotSketch()
        probe = Schedule(func, record_trace=False)
        if not sketch.applicable(probe):
            raise UnsupportedWorkload(f"no sdot mapping for {func.name}")
        best: Optional[PerfReport] = None
        for s in range(seed, seed + 6):
            sch = _first_valid(func, sketch, target, seeds=[s])
            if sch is None:
                continue
            report = estimate(sch.func, target)
            if best is None or report.cycles < best.cycles:
                best = report
        if best is None:
            raise UnsupportedWorkload(f"no ACL kernel fits {func.name}")
        cycles = best.cycles * self._EXPERT_FACTOR
        return OpResult(
            self.name, func.name, cycles, target.cycles_to_seconds(cycles), note="microkernel"
        )
