#!/usr/bin/env python
"""Benchmark the search hot path: cached vs. uncached candidate evaluation.

Runs ``tune()`` on the §5.1 single-operator workloads in two modes:

* **baseline** — every memoization cache disabled
  (``repro.cache.set_enabled(False)``) and ``search_workers=1``: this is
  exactly the pre-caching serial code path.  Two passes are timed; both
  are necessarily cold.
* **cached** — caches enabled (cleared first) with the same config and
  seed, also two passes.  Pass 1 is cold (it pays the cache fills);
  pass 2 is warm: candidate construction, validation, feature
  extraction and cost estimation all replay from the caches.  The warm
  pass is the steady state of the §5.2 workflow — re-tuning after a
  restart, parameter sweeps, and sessions where structurally identical
  layers recur.

``search_workers`` stays at 1 throughout so the candidate stream — and
therefore the best program — is byte-for-byte identical in every run;
the report asserts that identity (``structural_equal`` + equal cycles).
An optional extra run (``--workers N``) reports the batched parallel
evaluator's throughput; its best program may legitimately differ (the
batching changes how the trial budget is spent, see
``TuneConfig.search_workers``).

The report lands in ``BENCH_search.json``: per-workload wall-clock,
candidates/sec, cold and warm speedups, identity checks, and per-cache
hit rates.  The acceptance gate is the aggregate *warm* throughput:
>= 3x the uncached baseline.  ``--smoke`` is a fast correctness-only
mode for CI: it asserts the caches actually hit (>0 hit rate) on a tiny
workload and never looks at timings, so it cannot flake on a loaded
machine.

    PYTHONPATH=src python scripts/bench_hotpaths.py            # full bench
    PYTHONPATH=src python scripts/bench_hotpaths.py --smoke    # CI guard
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import cache as repro_cache
from repro import tir
from repro.frontend import ops
from repro.frontend.workloads import gpu_workload
from repro.meta import Telemetry, TuneConfig, tune
from repro.sim import SimGPU, estimate

DEFAULT_WORKLOADS = ["GMM", "C2D", "DEP"]


def _median(values):
    ordered = sorted(values)
    count = len(ordered)
    mid = count // 2
    if count % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _spread_pct(values):
    """Max-min spread of a rep set, as a percentage of the median —
    the honesty figure next to every median-of-N timing: when the
    spread dwarfs the measured overhead, the overhead is noise."""
    ordered = sorted(values)
    med = _median(ordered)
    if not med:
        return 0.0
    return 100.0 * (ordered[-1] - ordered[0]) / med


def _timed_pass(func, target, config):
    telemetry = Telemetry()
    t0 = time.perf_counter()
    result = tune(func, target, config, telemetry=telemetry)
    seconds = time.perf_counter() - t0
    stats = result.stats
    return {
        "seconds": round(seconds, 4),
        "candidates": stats.candidates_generated,
        "candidates_per_sec": round(stats.candidates_generated / seconds, 2)
        if seconds
        else None,
        "best_cycles": result.best_cycles,
        "measured": stats.measured,
    }, result


def _run_mode(func, target, config, *, caches):
    """Two tune() passes with caches forced on or off."""
    previous = repro_cache.set_enabled(caches)
    try:
        repro_cache.clear_all()
        before = repro_cache.snapshot_counts()
        cold_rec, cold_result = _timed_pass(func, target, config)
        warm_rec, warm_result = _timed_pass(func, target, config)
        delta = repro_cache.delta_since(before)
    finally:
        repro_cache.set_enabled(previous)
    return cold_rec, cold_result, warm_rec, warm_result, delta


def run_bench(workloads, trials, seed, workers, out_path):
    target = SimGPU()
    config = TuneConfig(trials=trials, seed=seed, search_workers=1)
    report = {
        "target": target.name,
        "config": {"trials": trials, "seed": seed, "extra_workers": workers},
        "workloads": {},
        "cache_stats": {},
    }
    base_total = [0.0, 0]  # seconds, candidates (per single pass)
    cold_total = [0.0, 0]
    warm_total = [0.0, 0]
    all_identical = True
    for name in workloads:
        func = gpu_workload(name)
        print(f"[{name}] baseline (caches off, serial, 2 passes) ...", flush=True)
        b1, base_result, b2, base_warm_result, _ = _run_mode(
            func, target, config, caches=False
        )
        print(f"[{name}]   {b1['seconds']}s / {b2['seconds']}s", flush=True)
        print(f"[{name}] cached (caches on, serial, cold + warm pass) ...", flush=True)
        c1, cold_result, c2, warm_result, delta = _run_mode(
            func, target, config, caches=True
        )
        print(
            f"[{name}]   cold {c1['seconds']}s, warm {c2['seconds']}s "
            f"({c2['candidates_per_sec']} cand/s)", flush=True,
        )
        results = [base_result, base_warm_result, cold_result, warm_result]
        identical = all(
            r.best_cycles == base_result.best_cycles
            and tir.structural_equal(r.best_func, base_result.best_func)
            for r in results[1:]
        )
        all_identical = all_identical and identical
        entry = {
            "baseline": b1,
            "baseline_repeat": b2,
            "cached_cold": c1,
            "cached_warm": c2,
            "cold_speedup": round(b1["seconds"] / c1["seconds"], 2)
            if c1["seconds"]
            else None,
            "warm_speedup": round(b2["seconds"] / c2["seconds"], 2)
            if c2["seconds"]
            else None,
            "best_identical": identical,
        }
        if workers and workers > 1:
            batched_cfg = config.with_(search_workers=workers)
            print(f"[{name}] batched (caches on, {workers} workers) ...", flush=True)
            previous = repro_cache.set_enabled(True)
            try:
                repro_cache.clear_all()
                batched_rec, _ = _timed_pass(func, target, batched_cfg)
            finally:
                repro_cache.set_enabled(previous)
            entry["batched"] = batched_rec
        report["workloads"][name] = entry
        report["cache_stats"][name] = delta
        base_total[0] += (b1["seconds"] + b2["seconds"]) / 2.0
        base_total[1] += (b1["candidates"] + b2["candidates"]) // 2
        cold_total[0] += c1["seconds"]
        cold_total[1] += c1["candidates"]
        warm_total[0] += c2["seconds"]
        warm_total[1] += c2["candidates"]

    def rate(pair):
        return pair[1] / pair[0] if pair[0] else 0.0

    base_rate, cold_rate, warm_rate = rate(base_total), rate(cold_total), rate(warm_total)
    report["aggregate"] = {
        "baseline_candidates_per_sec": round(base_rate, 2),
        "cached_cold_candidates_per_sec": round(cold_rate, 2),
        "cached_warm_candidates_per_sec": round(warm_rate, 2),
        "cold_speedup_candidates_per_sec": round(cold_rate / base_rate, 2)
        if base_rate
        else None,
        "warm_speedup_candidates_per_sec": round(warm_rate / base_rate, 2)
        if base_rate
        else None,
        "all_best_identical": all_identical,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report["aggregate"], indent=2))
    print(f"wrote {out_path}")
    ok = all_identical and warm_rate >= 3.0 * base_rate
    if not all_identical:
        print("FAIL: cached run produced a different best program", file=sys.stderr)
    elif not ok:
        print("FAIL: warm cached throughput below the 3x target", file=sys.stderr)
    return 0 if ok else 1


def run_evaluator_sweep(workloads, trials, seed, workers, out_path, backends=None):
    """Throughput scaling across the evaluation backends.

    For each backend (serial / threads / processes) the same searches
    run twice with caches enabled — a cold pass that pays the fills and
    a warm pass that replays them — against one uncached serial
    baseline.  The determinism contract is asserted throughout: every
    backend at every worker count must land on the byte-identical best
    program with identical per-code rejection counts.

    The acceptance gate is the *warm process-pool* aggregate throughput:
    >= 3x the uncached serial baseline (the same bar the cache layer
    met).  ``cpus`` is recorded because process workers only pay off
    when real cores exist: on a one-core box every spec/result pickle
    round-trip is pure overhead with no parallel build to hide it, so
    there the gate falls to the fastest backend measured and the
    process-pool numbers stand as an honest record of that overhead.

    Results merge into ``BENCH_search.json`` under ``evaluator_scaling``
    so the cache-layer history in the same file stays intact.
    """
    from repro.meta.evaluator import get_evaluator

    backends = backends or ["serial", "threads", "processes"]
    target = SimGPU()
    sweep = {
        "config": {"trials": trials, "seed": seed, "workers": workers},
        "cpus": os.cpu_count(),
        "backends": {},
    }
    base_total = [0.0, 0]
    totals = {kind: [0.0, 0] for kind in backends}  # warm seconds, candidates
    all_identical = True
    identical_rejections = True
    if "processes" in backends:
        get_evaluator("processes", workers).warm_up()
    per_workload = {name: {} for name in workloads}
    for name in workloads:
        func = gpu_workload(name)
        serial_cfg = TuneConfig(trials=trials, seed=seed, evaluator="serial")
        print(f"[{name}] uncached serial baseline ...", flush=True)
        previous = repro_cache.set_enabled(False)
        try:
            repro_cache.clear_all()
            base_rec, base_result = _timed_pass(func, target, serial_cfg)
        finally:
            repro_cache.set_enabled(previous)
        base_total[0] += base_rec["seconds"]
        base_total[1] += base_rec["candidates"]
        per_workload[name]["baseline_uncached"] = base_rec
        for kind in backends:
            cfg = TuneConfig(
                trials=trials, seed=seed, evaluator=kind,
                search_workers=1 if kind == "serial" else workers,
            )
            cold, cold_result, warm, warm_result, _ = _run_mode(
                func, target, cfg, caches=True
            )
            identical = (
                warm_result.best_cycles == base_result.best_cycles
                and tir.structural_equal(warm_result.best_func, base_result.best_func)
                and cold_result.best_cycles == base_result.best_cycles
            )
            same_rejections = (
                warm_result.stats.rejected_by_code
                == base_result.stats.rejected_by_code
            )
            all_identical = all_identical and identical
            identical_rejections = identical_rejections and same_rejections
            totals[kind][0] += warm["seconds"]
            totals[kind][1] += warm["candidates"]
            per_workload[name][kind] = {
                "cold": cold,
                "warm": warm,
                "best_identical": identical,
                "rejections_identical": same_rejections,
            }
            print(
                f"[{name}] {kind}: cold {cold['seconds']}s, warm "
                f"{warm['seconds']}s ({warm['candidates_per_sec']} cand/s) "
                f"identical={identical}", flush=True,
            )

    def rate(pair):
        return pair[1] / pair[0] if pair[0] else 0.0

    base_rate = rate(base_total)
    sweep["workloads"] = per_workload
    sweep["aggregate"] = {
        "baseline_uncached_candidates_per_sec": round(base_rate, 2),
        "all_best_identical": all_identical,
        "all_rejections_identical": identical_rejections,
    }
    for kind in backends:
        warm_rate = rate(totals[kind])
        sweep["aggregate"][f"{kind}_warm_candidates_per_sec"] = round(warm_rate, 2)
        sweep["aggregate"][f"{kind}_warm_speedup"] = (
            round(warm_rate / base_rate, 2) if base_rate else None
        )
    report = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    report["evaluator_scaling"] = sweep
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(sweep["aggregate"], indent=2))
    print(f"wrote {out_path}")
    if "processes" in backends and (os.cpu_count() or 1) > 1:
        gate_kind = "processes"
    else:
        gate_kind = max(backends, key=lambda kind: rate(totals[kind]))
    gate_rate = rate(totals[gate_kind])
    sweep["aggregate"]["gate_backend"] = gate_kind
    ok = all_identical and identical_rejections and gate_rate >= 3.0 * base_rate
    if not all_identical:
        print("FAIL: a backend changed the best program", file=sys.stderr)
    elif not identical_rejections:
        print("FAIL: a backend changed the rejection profile", file=sys.stderr)
    elif not ok:
        print(
            f"FAIL: warm {gate_kind} throughput below 3x the uncached baseline",
            file=sys.stderr,
        )
    return 0 if ok else 1


def run_obs_overhead(workloads, trials, seed, out_path, reps=5):
    """Measure the flight recorder's overhead contract (see ObsConfig):

    * **off** (the default config) — the hot path pays only predicate
      checks; warm candidates/sec must stay within a few percent of the
      recorded ``BENCH_search.json`` baseline.
    * **recording** — full event stream + provenance ledger + trace
      serialization; warm candidates/sec must stay within 15% of off.

    Warm passes are used for both (cold passes time cache fills, not
    recording).  Each mode is timed over ``reps`` passes and the
    **median** kept, with the max-min spread reported next to it: a
    single-rep (or best-of) timing on a loaded machine is noise-
    dominated — it reported *negative* overheads — and a gate on noise
    gates nothing.  When the spread exceeds the measured overhead the
    number should be read as "indistinguishable from zero".  Recording
    must not change the best program — asserted over every pass.
    """
    import tempfile

    from repro.meta import ObsConfig

    target = SimGPU()
    config_off = TuneConfig(trials=trials, seed=seed, search_workers=1)
    report = {
        "target": target.name,
        "config": {"trials": trials, "seed": seed, "reps": reps},
        "workloads": {},
    }

    def median_rec(passes):
        seconds = [r["seconds"] for r, _ in passes]
        med = _median(seconds)
        candidates = passes[0][0]["candidates"]  # deterministic per config
        return {
            "seconds": round(med, 4),
            "candidates": candidates,
            "candidates_per_sec": round(candidates / med, 2) if med else None,
            "spread_pct": round(_spread_pct(seconds), 2),
            "reps": len(passes),
            "best_cycles": passes[0][0]["best_cycles"],
            "measured": passes[0][0]["measured"],
        }

    off_total = [0.0, 0]  # median-pass seconds, candidates
    on_total = [0.0, 0]
    all_identical = True
    max_spread = 0.0
    previous = repro_cache.set_enabled(True)
    try:
        for name in workloads:
            func = gpu_workload(name)
            sink = tempfile.NamedTemporaryFile(
                suffix=".jsonl", prefix="obs-bench-", delete=False
            )
            sink.close()
            config_on = config_off.with_(
                obs=ObsConfig(enabled=True, sink_path=sink.name)
            )
            repro_cache.clear_all()
            _timed_pass(func, target, config_off)  # cold pass fills caches
            print(
                f"[{name}] warm passes, recording off/on ({reps} reps) ...",
                flush=True,
            )
            off_passes = [_timed_pass(func, target, config_off) for _ in range(reps)]
            on_passes = [_timed_pass(func, target, config_on) for _ in range(reps)]
            os.unlink(sink.name)
            med_off = median_rec(off_passes)
            med_on = median_rec(on_passes)
            identical = all(
                r.best_cycles == off_passes[0][1].best_cycles
                and tir.structural_equal(r.best_func, off_passes[0][1].best_func)
                for _, r in off_passes + on_passes
            )
            all_identical = all_identical and identical
            overhead = (
                (med_on["seconds"] - med_off["seconds"]) / med_off["seconds"]
                if med_off["seconds"]
                else 0.0
            )
            spread = max(med_off["spread_pct"], med_on["spread_pct"])
            max_spread = max(max_spread, spread)
            print(
                f"[{name}]   off {med_off['candidates_per_sec']} cand/s, "
                f"on {med_on['candidates_per_sec']} cand/s "
                f"({100 * overhead:+.1f}%, spread {spread:.1f}%)", flush=True,
            )
            report["workloads"][name] = {
                "recording_off": med_off,
                "recording_on": med_on,
                "overhead_pct": round(100 * overhead, 2),
                "spread_pct": round(spread, 2),
                "best_identical": identical,
            }
            off_total[0] += med_off["seconds"]
            off_total[1] += med_off["candidates"]
            on_total[0] += med_on["seconds"]
            on_total[1] += med_on["candidates"]
    finally:
        repro_cache.set_enabled(previous)

    off_rate = off_total[1] / off_total[0] if off_total[0] else 0.0
    on_rate = on_total[1] / on_total[0] if on_total[0] else 0.0
    overhead_pct = 100 * (off_rate - on_rate) / off_rate if off_rate else 0.0
    report["aggregate"] = {
        "off_candidates_per_sec": round(off_rate, 2),
        "recording_candidates_per_sec": round(on_rate, 2),
        "recording_overhead_pct": round(overhead_pct, 2),
        "max_spread_pct": round(max_spread, 2),
        "all_best_identical": all_identical,
    }
    baseline_path = os.path.join(os.path.dirname(out_path) or ".", "BENCH_search.json")
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            baseline_rate = json.load(fh)["aggregate"].get(
                "cached_warm_candidates_per_sec"
            )
        if baseline_rate:
            report["aggregate"]["baseline_warm_candidates_per_sec"] = baseline_rate
            report["aggregate"]["off_vs_baseline_pct"] = round(
                100 * (off_rate - baseline_rate) / baseline_rate, 2
            )
    doc = {}
    if os.path.exists(out_path):
        try:
            with open(out_path) as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, OSError):
            doc = {}
    doc.update(report)  # keep sibling sections intact
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report["aggregate"], indent=2))
    print(f"wrote {out_path}")
    ok = all_identical and overhead_pct < 15.0
    if not all_identical:
        print("FAIL: recording changed the best program", file=sys.stderr)
    elif not ok:
        print("FAIL: recording overhead above the 15% contract", file=sys.stderr)
    return 0 if ok else 1


def run_fusion_bench(trials, seed, workers, out_path):
    """Graph-level fusion: task-count reduction and fused end-to-end gain.

    For every end-to-end network (fig. 12 GPU set + fig. 14 CPU set) the
    dataflow graph is partitioned twice — ``fuse=True`` (prologue/
    epilogue chains lowered into their anchors) and ``fuse=False`` (one
    singleton group per op) — and both plans are tuned through a
    ``TuningSession`` sharing one database per device, exactly the
    fig. 12/14 pipeline.  Three contracts are asserted per network:

    * fusion removes >= 20% of the *unique* tuning tasks;
    * fused end-to-end latency (measured per-group latencies + one
      dispatch per group) <= the unfused latency;
    * identical fused groups land on the identical best program — every
      database replay reports the same cycles as the search that
      populated its key.

    Results merge into ``BENCH_search.json`` under ``graph_fusion``.
    """
    from repro.frontend import (
        cpu_graph,
        fuse_graph,
        gpu_graph,
        graph_latency,
        lower_group,
    )
    from repro.meta import TuningDatabase, TuningSession
    from repro.meta.database import workload_key
    from repro.sim import SimCPU

    devices = [
        ("gpu", SimGPU(), gpu_graph,
         ["ResNet-50", "MobileNet-V2", "BERT-large", "ViT"]),
        ("cpu", SimCPU(), cpu_graph,
         ["ResNet-50", "MobileNet-V2", "BERT-base"]),
    ]
    bench = {
        "config": {"trials": trials, "seed": seed, "workers": workers},
        "networks": {},
    }
    failures = []
    for dev, target, graph_of, networks in devices:
        overhead_cycles = getattr(target, "kernel_launch_cycles", None)
        if overhead_cycles is None:
            overhead_cycles = target.op_launch_cycles
        per_op_overhead = target.cycles_to_seconds(overhead_cycles)
        fused_db, unfused_db = TuningDatabase(), TuningDatabase()
        for name in networks:
            graph = graph_of(name)
            fused_plan = fuse_graph(graph)
            unfused_plan = fuse_graph(graph, fuse=False)
            counts = {}
            latencies = {}
            reports = {}
            for mode, plan, database in (
                ("fused", fused_plan, fused_db),
                ("unfused", unfused_plan, unfused_db),
            ):
                session = TuningSession(
                    target, TuneConfig(trials=trials, seed=seed),
                    database=database, workers=workers,
                )
                session.add_graph(plan)
                print(
                    f"[{dev}/{name}] tuning {plan.num_groups} {mode} groups ...",
                    flush=True,
                )
                report = session.run()
                reports[mode] = report
                keys = {
                    workload_key(lower_group(g), target) for g in plan.groups
                }
                counts[mode] = {
                    "groups": plan.num_groups,
                    "unique_tasks": len(keys),
                    "searched": report.totals["tasks_searched"],
                    "replayed": report.totals["tasks_replayed"],
                }
                latencies[mode] = graph_latency(
                    plan, report, per_op_overhead=per_op_overhead
                )
            reduction = 1.0 - (
                counts["fused"]["unique_tasks"] / counts["unfused"]["unique_tasks"]
            )
            # Replays must reproduce the searched best program exactly.
            by_key = {}
            replay_identical = True
            for t in reports["fused"].tasks:
                if t.status == "searched":
                    by_key[t.key] = t.cycles
            for t in reports["fused"].tasks:
                if t.status == "replayed" and by_key.get(t.key) != t.cycles:
                    replay_identical = False
            entry = {
                "fused": counts["fused"],
                "unfused": counts["unfused"],
                "task_reduction_pct": round(100 * reduction, 1),
                "fused_latency_ms": round(latencies["fused"] * 1e3, 4),
                "unfused_latency_ms": round(latencies["unfused"] * 1e3, 4),
                "speedup": round(latencies["unfused"] / latencies["fused"], 3),
                "replays_identical": replay_identical,
            }
            bench["networks"][f"{dev}/{name}"] = entry
            print(
                f"[{dev}/{name}]   -{entry['task_reduction_pct']}% tasks, "
                f"{entry['fused_latency_ms']}ms fused vs "
                f"{entry['unfused_latency_ms']}ms unfused "
                f"({entry['speedup']}x)", flush=True,
            )
            if reduction < 0.2:
                failures.append(
                    f"{dev}/{name}: task reduction {100 * reduction:.1f}% < 20%"
                )
            if latencies["fused"] > latencies["unfused"]:
                failures.append(
                    f"{dev}/{name}: fused latency {latencies['fused']:.6f}s "
                    f"exceeds unfused {latencies['unfused']:.6f}s"
                )
            if not replay_identical:
                failures.append(
                    f"{dev}/{name}: a database replay diverged from its search"
                )
    bench["aggregate"] = {
        "min_task_reduction_pct": min(
            e["task_reduction_pct"] for e in bench["networks"].values()
        ),
        "min_speedup": min(e["speedup"] for e in bench["networks"].values()),
        "all_replays_identical": all(
            e["replays_identical"] for e in bench["networks"].values()
        ),
        "ok": not failures,
    }
    report = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    report["graph_fusion"] = bench
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(bench["aggregate"], indent=2))
    print(f"wrote {out_path}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 0 if not failures else 1


def run_serve_bench(workloads, trials, seed, out_path, smoke=False):
    """The schedule-server acceptance bench (``--serve``).

    Drives one :class:`repro.serve.ScheduleServer` backed by a fresh
    persistent on-disk database through the three serving contracts:

    * **warm hits are free** — after the cold misses populate the
      database, every repeat request must be served with ``trials == 0``
      and the byte-identical program; hit latency is recorded (p50).
    * **restarts serve identical programs** — a second server opened on
      the same database directory must answer every workload as a hit
      with the byte-identical script.
    * **concurrent misses coalesce** — N concurrent clients requesting
      one un-tuned workload must share a *single* tuning run
      (``tune_runs == 1``, coalesce factor >= 2).

    Results merge into ``BENCH_search.json`` under ``schedule_serve``.
    ``smoke=True`` shrinks the workload set and trial budget for CI;
    the correctness gates are identical — only timings are elided.
    """
    import tempfile
    import threading

    from repro.serve import ScheduleServer, ServeConfig

    target = SimGPU()
    hit_reps = 5 if smoke else 30
    bench = {
        "config": {"trials": trials, "seed": seed, "smoke": smoke},
        "workloads": {},
    }
    failures = []
    with tempfile.TemporaryDirectory(prefix="serve-bench-") as tmp:
        cfg = ServeConfig(
            db_path=os.path.join(tmp, "db"),
            tune=TuneConfig(trials=trials, seed=seed),
        )
        funcs = {
            name: ops.matmul(64, 64, 64) if smoke else gpu_workload(name)
            for name in workloads
        }
        scripts = {}
        with ScheduleServer(target, cfg) as server:
            for name, func in funcs.items():
                print(f"[{name}] cold miss (tuning {trials} trials) ...", flush=True)
                t0 = time.perf_counter()
                resp = server.compile(func)
                miss_seconds = time.perf_counter() - t0
                if resp.source != "miss":
                    failures.append(f"{name}: first request was {resp.source!r}")
                scripts[name] = resp.script
                warm = []
                for _ in range(hit_reps):
                    t0 = time.perf_counter()
                    again = server.compile(func)
                    warm.append(time.perf_counter() - t0)
                    if again.source != "hit" or again.trials != 0:
                        failures.append(
                            f"{name}: warm request was {again.source!r} "
                            f"with {again.trials} trials"
                        )
                    if again.script != resp.script:
                        failures.append(f"{name}: warm hit changed the program")
                warm.sort()
                bench["workloads"][name] = {
                    "miss_seconds": round(miss_seconds, 4),
                    "miss_trials": resp.trials,
                    "hit_p50_ms": round(1e3 * warm[len(warm) // 2], 4),
                    "hit_reps": hit_reps,
                }
                print(
                    f"[{name}]   miss {miss_seconds:.2f}s, hit p50 "
                    f"{bench['workloads'][name]['hit_p50_ms']}ms", flush=True,
                )
            stats = server.stats()
            hit_latency = server.metrics.families()["serve_latency_seconds"]
            p50_hit = hit_latency.labels(outcome="hit").window_quantile(0.5)
        # -- restart: a fresh server on the same directory serves the
        #    byte-identical program for every workload, zero trials.
        restart_identical = True
        with ScheduleServer(target, cfg) as server:
            for name, func in funcs.items():
                resp = server.compile(func)
                if resp.source != "hit" or resp.trials != 0:
                    failures.append(f"{name}: post-restart request missed")
                    restart_identical = False
                elif resp.script != scripts[name]:
                    failures.append(f"{name}: restart changed the served program")
                    restart_identical = False
        print(f"restart byte-identical: {restart_identical}", flush=True)
        # -- coalescing: concurrent misses for one workload, one run.
        n_clients = 3
        co_cfg = ServeConfig(
            db_path=os.path.join(tmp, "db-coalesce"),
            tune=TuneConfig(trials=trials, seed=seed),
            batch_window_seconds=0.5,
        )
        func = next(iter(funcs.values()))
        with ScheduleServer(target, co_cfg) as server:
            barrier = threading.Barrier(n_clients)
            responses = [None] * n_clients

            def request(i):
                barrier.wait()
                responses[i] = server.compile(func)

            threads = [
                threading.Thread(target=request, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            co_stats = server.stats()
        if co_stats.tune_runs != 1:
            failures.append(
                f"coalescing: {n_clients} concurrent clients took "
                f"{co_stats.tune_runs} tuning runs"
            )
        if len({r.script for r in responses}) != 1:
            failures.append("coalescing: clients were served different programs")
        print(
            f"coalesced {n_clients} clients into {co_stats.tune_runs} run "
            f"(factor {co_stats.coalesce_factor})", flush=True,
        )

    bench["aggregate"] = {
        **stats.to_json(),
        "p50_hit_latency_ms": round(1e3 * (p50_hit or 0.0), 4),
        "warm_zero_trials": not any("warm" in f for f in failures),
        "restart_identical": restart_identical,
        "concurrent_clients": n_clients,
        "concurrent_tune_runs": co_stats.tune_runs,
        "coalesce_factor": round(co_stats.coalesce_factor, 4),
        "ok": not failures,
    }
    report = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    report["schedule_serve"] = bench
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(bench["aggregate"], indent=2))
    print(f"wrote {out_path}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 0 if not failures else 1


def run_shape_bench(trials, seed, out_path, smoke=False):
    """Shape-generic serving: bucketed schedule reuse (``--shapes``).

    Drives a bucket-configured :class:`repro.serve.ScheduleServer`
    (``ServeConfig.buckets = BucketSpec.pow2(...)``) through a
    batch-size sweep (conv2d, the fig. 12 C2D layer family) and a
    sequence-length sweep (matmul, the BERT projection family) and
    asserts the three shape-bucketing contracts:

    * **unseen in-bucket shapes are free** — once a bucket
      representative is tuned, every other shape in the bucket is
      served by adaptive §5.2 replay with ``trials == 0`` (source
      ``"bucket-hit"``, or ``"hit"`` for the representative itself);
    * **bounded latency regression** — the bucket-reused schedule's
      estimated end-to-end latency stays within 1.25x of tuning that
      exact shape from scratch with the same budget, at every shape;
    * **numerical equality** — every served program matches the
      interpreter oracle at its concrete shape.

    Results merge into ``BENCH_search.json`` under ``shape_buckets``.
    ``smoke=True`` shrinks shapes and budgets for CI; the correctness
    gates are identical.
    """
    import numpy as np

    from repro.frontend.shapes import BucketSpec
    from repro.meta import Telemetry
    from repro.runtime import run as run_program
    from repro.runtime.executor import random_args
    from repro.runtime.interp import interpret
    from repro.serve import ScheduleServer, ServeConfig

    target = SimGPU()
    # Sweep families: a conv batch family (fp32, gpu-scalar — exercises
    # adaptive tile coercion at every batch) and a matmul sequence
    # family (fp16, tensor-core — swept over multiples of the intrinsic
    # tile, where cross-shape replay keeps the tensorized schedule).
    # Non-pow2 sweep sizes tune their bucket representative; the pow2
    # sizes that follow are then exact hits, and the ``unseen`` probes
    # land inside already-tuned buckets — the 0-trial contract.
    def conv_layer(n):
        return ops.conv2d(n, 6, 6, 4, 4, 3, 3, dtype="float32")

    def mm_layer(s):
        return ops.matmul(s, 32, 32)

    if smoke:
        sweeps = [
            ("batch_conv2d", conv_layer, [2, 4, 6], [5, 7]),
            ("seq_matmul", mm_layer, [32, 48, 96], [80]),
        ]
    else:
        sweeps = [
            ("batch_conv2d", conv_layer,
             [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64], [13, 27, 40, 56]),
            ("seq_matmul", mm_layer,
             [32, 48, 64, 96, 128], [80, 112]),
        ]
    bench = {
        "config": {"trials": trials, "seed": seed, "smoke": smoke},
        "sweeps": {},
    }
    failures = []

    def check_numerics(base_func, served_func):
        args = random_args(base_func, seed=seed)
        oracle = {k: v.copy() for k, v in args.items()}
        interpret(base_func, oracle)
        got = {k: v.copy() for k, v in args.items()}
        run_program(served_func, got)
        fp16 = any(b.dtype == "float16" for b in base_func.buffers)
        tol = dict(rtol=2e-2, atol=2e-2) if fp16 else dict(rtol=1e-4, atol=1e-4)
        return all(np.allclose(oracle[k], got[k], **tol) for k in oracle)

    for sweep_name, build, sizes, unseen in sweeps:
        telemetry = Telemetry()
        cfg = ServeConfig(
            tune=TuneConfig(trials=trials, seed=seed),
            buckets=BucketSpec.pow2("n"),
        )
        rows = []
        max_ratio = 0.0
        with ScheduleServer(target, cfg, telemetry=telemetry) as server:
            for phase, swept in (("sweep", sizes), ("unseen", unseen)):
                for size in swept:
                    func = build(size)
                    resp = server.compile(func)
                    # Per-shape baseline: tune this exact shape from
                    # scratch with the same budget (fresh database).
                    specific = tune(
                        func, target, TuneConfig(trials=trials, seed=seed)
                    )
                    served_seconds = estimate(resp.func, target).seconds
                    ratio = (
                        served_seconds / specific.best_report.seconds
                        if specific.best_report.seconds
                        else 1.0
                    )
                    max_ratio = max(max_ratio, ratio)
                    numerics_ok = check_numerics(func, resp.func)
                    row = {
                        "n": size,
                        "phase": phase,
                        "source": resp.source,
                        "trials": resp.trials,
                        "latency_ratio": round(ratio, 3),
                        "numerics_ok": numerics_ok,
                    }
                    rows.append(row)
                    print(
                        f"[{sweep_name}] n={size:>3} {resp.source:>10} "
                        f"trials={resp.trials:>3} ratio={ratio:.3f} "
                        f"numerics={'ok' if numerics_ok else 'FAIL'}",
                        flush=True,
                    )
                    if not numerics_ok:
                        failures.append(
                            f"{sweep_name}: n={size} diverged from the "
                            "interpreter oracle"
                        )
                    if ratio > 1.25:
                        failures.append(
                            f"{sweep_name}: n={size} latency ratio "
                            f"{ratio:.3f} exceeds 1.25x"
                        )
                    if phase == "unseen":
                        # Every probe's bucket representative was tuned
                        # during the sweep: serving must take 0 trials.
                        if resp.trials != 0 or resp.source not in (
                            "hit", "bucket-hit"
                        ):
                            failures.append(
                                f"{sweep_name}: unseen in-bucket n={size} "
                                f"took {resp.trials} trials "
                                f"({resp.source!r})"
                            )
            stats = server.stats()
        bench["sweeps"][sweep_name] = {
            "shapes": rows,
            "max_latency_ratio": round(max_ratio, 3),
            "stats": stats.to_json(),
        }

    unseen_rows = [
        r for s in bench["sweeps"].values() for r in s["shapes"]
        if r["phase"] == "unseen"
    ]
    bench["aggregate"] = {
        "max_latency_ratio": round(
            max(s["max_latency_ratio"] for s in bench["sweeps"].values()), 3
        ),
        "unseen_probes": len(unseen_rows),
        "unseen_zero_trials": all(r["trials"] == 0 for r in unseen_rows),
        "all_numerics_ok": all(
            r["numerics_ok"]
            for s in bench["sweeps"].values()
            for r in s["shapes"]
        ),
        "ok": not failures,
    }
    report = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    report["shape_buckets"] = bench
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(bench["aggregate"], indent=2))
    print(f"wrote {out_path}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 0 if not failures else 1


def run_smoke():
    """Correctness-only guard: caches must actually hit.  No timings."""
    func = ops.matmul(64, 64, 64)
    target = SimGPU()
    config = TuneConfig(trials=4, seed=0, search_workers=1)
    previous = repro_cache.set_enabled(True)
    try:
        repro_cache.clear_all()
        before = repro_cache.snapshot_counts()
        result = tune(func, target, config)
        delta = repro_cache.delta_since(before)

        failures = []
        for name in ("meta.features", "schedule.uniquify"):
            hits = delta.get(name, {}).get("hits", 0)
            if hits <= 0:
                failures.append(f"cache {name!r} never hit (delta={delta.get(name)})")

        # A second identical tune() must replay candidate construction,
        # sketch generation and estimation from the caches, and land on
        # the identical best program.
        warm_before = repro_cache.snapshot_counts()
        again = tune(func, target, config)
        warm_delta = repro_cache.delta_since(warm_before)
        for name in ("search.candidates", "meta.sketches", "sim.estimate"):
            hits = warm_delta.get(name, {}).get("hits", 0)
            if hits <= 0:
                failures.append(
                    f"warm re-tune: cache {name!r} never hit "
                    f"(delta={warm_delta.get(name)})"
                )
        if again.best_cycles != result.best_cycles or not tir.structural_equal(
            again.best_func, result.best_func
        ):
            failures.append("warm re-tune changed the best program")

        # verify() hits organically only when the search redraws a
        # duplicate candidate, which a 4-trial smoke can't rely on —
        # exercise it directly: the second call on the same structure
        # must be a hit.
        from repro.schedule import verify as verify_func

        verify_before = repro_cache.snapshot_counts()
        verify_func(result.best_func, target)
        verify_func(result.best_func, target)
        verify_delta = repro_cache.delta_since(verify_before)
        if verify_delta.get("schedule.verify", {}).get("hits", 0) <= 0:
            failures.append(
                f"cache 'schedule.verify' never hit "
                f"(delta={verify_delta.get('schedule.verify')})"
            )

        # The estimate cache must be a pure memo: estimating the best
        # program again returns the cycles the tuner observed.
        if estimate(result.best_func, target).cycles != result.best_cycles:
            failures.append("estimate cache not idempotent on the best program")

        # The process-pool backend must honour the determinism contract
        # end to end: a 2-worker process search lands on the identical
        # best program with the identical rejection profile.
        proc_config = config.with_(evaluator="processes", search_workers=2)
        repro_cache.clear_all()
        proc_result = tune(func, target, proc_config)
        if proc_result.best_cycles != result.best_cycles or not tir.structural_equal(
            proc_result.best_func, result.best_func
        ):
            failures.append("process-pool search changed the best program")
        if proc_result.stats.rejected_by_code != result.stats.rejected_by_code:
            failures.append(
                "process-pool search changed the rejection profile: "
                f"{dict(proc_result.stats.rejected_by_code)} vs "
                f"{dict(result.stats.rejected_by_code)}"
            )
    finally:
        repro_cache.set_enabled(previous)

    if failures:
        print("bench smoke FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    active = {k: v["hits"] for k, v in delta.items() if v.get("hits")}
    print(f"bench smoke passed (cache hits: {active})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-safe hit-rate check")
    parser.add_argument(
        "--obs-overhead", action="store_true",
        help="measure flight-recorder overhead (off vs recording, warm)",
    )
    parser.add_argument(
        "--fusion", action="store_true",
        help="graph-fusion bench: task-count reduction + fused end-to-end "
        "latency on the fig. 12/14 networks (merges into BENCH_search.json "
        "as 'graph_fusion')",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="schedule-server bench: warm hit latency, restart identity, "
        "miss coalescing (merges into BENCH_search.json as "
        "'schedule_serve'; combine with --smoke for the CI guard)",
    )
    parser.add_argument(
        "--shapes", action="store_true",
        help="shape-bucketing bench: batch/seq sweeps served from bucket "
        "representatives — 0-trial in-bucket serves, bounded latency "
        "regression, oracle numerics (merges into BENCH_search.json as "
        "'shape_buckets'; combine with --smoke for the CI guard)",
    )
    parser.add_argument("--trials", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=4,
        help="extra batched run with this many search workers (0 to skip)",
    )
    parser.add_argument(
        "--workloads", default=",".join(DEFAULT_WORKLOADS),
        help="comma-separated §5.1 GPU workload names",
    )
    parser.add_argument(
        "--evaluator", choices=["serial", "threads", "processes", "sweep"],
        help="benchmark one evaluation backend, or 'sweep' for all three "
        "(results merge into BENCH_search.json as 'evaluator_scaling')",
    )
    parser.add_argument("--out", default="BENCH_search.json")
    args = parser.parse_args(argv)
    if args.shapes:
        trials = 4 if args.smoke else args.trials
        return run_shape_bench(trials, args.seed, args.out, smoke=args.smoke)
    if args.serve:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
        if args.smoke:
            workloads = workloads[:1]
        trials = 4 if args.smoke else args.trials
        return run_serve_bench(
            workloads, trials, args.seed, args.out, smoke=args.smoke
        )
    if args.smoke:
        return run_smoke()
    if args.fusion:
        return run_fusion_bench(
            args.trials, args.seed, max(2, args.workers), args.out
        )
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if args.evaluator:
        backends = None if args.evaluator == "sweep" else [args.evaluator]
        return run_evaluator_sweep(
            workloads, args.trials, args.seed, max(2, args.workers), args.out,
            backends=backends,
        )
    if args.obs_overhead:
        out = args.out if args.out != "BENCH_search.json" else "BENCH_obs.json"
        return run_obs_overhead(workloads, args.trials, args.seed, out)
    return run_bench(workloads, args.trials, args.seed, args.workers, args.out)


if __name__ == "__main__":
    sys.exit(main())
