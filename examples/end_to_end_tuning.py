"""End-to-end automatic tuning (§4) and the evaluation's comparisons.

Tunes a GEMM with the full tensorization-aware auto-scheduler —
candidate generation, sketches with AutoCopy data movement, evolutionary
search with the learned cost model and validation filtering — compares
against the TVM-style (no tensorization) baseline and the
vendor-library analogues on the simulated RTX 3080, then tunes a small
multi-layer network through a ``TuningSession``: parallel workers,
database-replayed duplicate layers (§5.2), cost-share trial allocation
and a JSON telemetry report.

Run:  python examples/end_to_end_tuning.py
"""

import numpy as np

from repro import TuneConfig, TuningSession, tune
from repro.baselines import (
    AmosBaseline,
    AnsorBaseline,
    CutlassLibrary,
    TensorIRSystem,
    UnsupportedWorkload,
)
from repro.frontend import ops
from repro.runtime import random_args, run
from repro.sim import SimGPU


def build_gemm():
    """The GMM 512^3 workload the end-to-end walkthrough tunes."""
    return ops.matmul(512, 512, 512)


def main():
    target = SimGPU()
    func = build_gemm()

    # --- the full pipeline, exposed --------------------------------------
    result = tune(func, target, TuneConfig(trials=24, seed=0))
    print(f"best schedule via sketch {result.best_sketch!r}: {result.best_report}")
    print(
        f"search stats: {result.stats.measured} measured, "
        f"{result.stats.invalid_rejected} rejected by validation, "
        f"simulated tuning time {result.tuning_seconds:.1f}s"
    )

    # The tuned program is a real program: run it.
    args = random_args(result.best_func)
    run(result.best_func, args)
    ref = args["A"].astype(np.float32) @ args["B"].astype(np.float32)
    print("max |error| vs NumPy:", np.abs(args["C"].astype(np.float32) - ref).max())

    # --- the cast of §5's comparisons -------------------------------------
    print("\nsystem comparison on GMM 512^3 (fp16):")
    systems = [
        TensorIRSystem(trials=24),
        AnsorBaseline(trials=24),
        AmosBaseline(),
        CutlassLibrary(),
    ]
    for system in systems:
        try:
            r = system.compile_op(func, target, seed=0)
            print(f"  {system.name:<10s} {r.cycles:>10.0f} cycles  {r.note}")
        except UnsupportedWorkload as e:
            print(f"  {system.name:<10s} unsupported ({e})")

    # --- multi-workload tuning: the TuningSession -------------------------
    # Four layers, two identical: the session searches the three unique
    # workloads, replays the duplicate from the database, and splits the
    # 48-trial budget by each layer's cost share.
    print("\ntuning a 4-layer network with a TuningSession:")
    session = TuningSession(target, TuneConfig(seed=0))
    session.add(ops.matmul(512, 512, 512), name="attn_proj")
    session.add(ops.matmul(512, 512, 512), name="attn_proj_dup")
    session.add(ops.matmul(512, 2048, 512), name="ffn_up")
    session.add(ops.matmul(512, 512, 2048), name="ffn_down")
    report = session.run(total_trials=48)
    for task in report.tasks:
        print(
            f"  {task.name:<14s} {task.status:<9s} trials={task.trials_allocated:<3d}"
            f" cycles={task.cycles:>10.0f}  tuning={task.tuning_seconds:.1f}s"
        )
    print(
        f"  searched {report.totals['tasks_searched']:.0f}, replayed "
        f"{report.totals['tasks_replayed']:.0f}; "
        f"simulated tuning time {report.tuning_seconds:.1f}s"
    )
    print("  stage timings:", {
        stage: f"{secs * 1e3:.0f}ms"
        for stage, secs in report.telemetry["stage_seconds"].items()
    })


if __name__ == "__main__":
    main()
