#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program under test is
imported from ``src/`` there, never from an installed copy.  Each
invocation is a fresh process, so every workload starts from its stated
cache state (cold runs also clear every memo cache before each
repetition).

After set-up, repetitions of the workload run until ``--seconds`` is
used up (at least one).  Every output check runs on the results; any
failure makes the exit code 1.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it repeat each metric as a row with its
unit, plus workload-specific detail rows and the machine fingerprint.

While a run lasts, ``speedprobe.py`` runs beside it in a child process
and times a fixed piece of work, so that the end-to-end times can be
scaled to a reference host speed (see ``end_to_end``).

With ``--trace 1`` untraced and traced repetitions alternate: the traced
ones time every call into each layer's public functions (see
``tracer.py``) and the untraced ones give the reference for the tracing
overhead and for the identity check (traced and untraced runs must
produce the same programs).  Spans are written to
``.perfbench-out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("tune-cold", "tune-warm", "network-bert", "serve-mixed")
#: set-up times the imports (in fresh interpreters) and builds the
#: workload's inputs this many times and counts the medians, so one slow
#: moment does not swing ``setup_s``
SETUP_REPEATS = 5

#: run by ``import_seconds`` in a fresh interpreter: the time to import
#: the program and the harness, which is what ``run`` imports
_IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import repro, workloads, tracer; print(time.perf_counter() - t0)"
)

#: the typical time of ``speedprobe.reference_work`` on the host the
#: bounds were set on (2-vCPU x86-64 Linux VM, Python 3.11, numpy 2.4)
PROBE_REFERENCE_S = 0.02
#: how the program's time follows the probe's when other tenants load
#: that host: as its square root.  Fitted on ten runs of tune-cold and
#: network-bert whose probe timings ranged over 1.7x; across five seeds
#: it cut the spread of tune-cold's pass time from 0.29 of the median
#: (raw) to 0.07, where full scaling (exponent 1) over-corrected to 0.22.
PROBE_EXPONENT = 0.5

#: end-to-end metrics (``--trace 0``): name -> unit.  What each means
#: per workload is listed in README.md.  Both times are scaled to the
#: reference host's speed (see ``end_to_end``).  Throughput is a detail
#: row only: with fixed work per repetition (serving, the network) it is
#: the reciprocal of ``rep_norm_s``, and the candidates a tuning pass
#: generates vary by a fifth from seed to seed.
END_TO_END = {
    "setup_s": "s",
    "rep_norm_s": "s",
    "cycles_geomean": "cycles",
    "peak_rss_mb": "MB",
}

#: the layer spans (see tracer.install_layers) and the metrics taken
#: from them: (metric, span name, what) -- "s" self seconds, "calls",
#: "failed_frac" failed calls per call, "size" summed size, "size_mean"
#: size per call; every figure but the fractions is per repetition.
SPAN_METRICS = [
    ("sketch.apply_s", "sketch.apply", "s"),
    ("sketch.apply_calls", "sketch.apply", "calls"),
    ("sketch.apply_failed_frac", "sketch.apply", "failed_frac"),
    ("schedule.verify_s", "schedule.verify", "s"),
    ("schedule.verify_calls", "schedule.verify", "calls"),
    ("schedule.invalid_frac", "schedule.verify", "failed_frac"),
    ("arith.simplify_s", "arith.simplify", "s"),
    ("arith.simplify_calls", "arith.simplify", "calls"),
    ("tir.structural_hash_s", "tir.structural_hash", "s"),
    ("tir.structural_hash_calls", "tir.structural_hash", "calls"),
    ("tir.script_s", "tir.script", "s"),
    ("feature.extract_s", "feature.extract", "s"),
    ("feature.calls", "feature.extract", "calls"),
    ("cost_model.predict_s", "cost_model.predict", "s"),
    ("cost_model.update_s", "cost_model.update", "s"),
    ("gbdt.fit_s", "gbdt.fit", "s"),
    ("gbdt.fits", "gbdt.fit", "calls"),
    ("gbdt.fit_rows_mean", "gbdt.fit", "size_mean"),
    ("sim.estimate_s", "sim.estimate", "s"),
    ("sim.estimate_calls", "sim.estimate", "calls"),
    ("database.replay_s", "database.replay", "s"),
    ("database.replays", "database.replay", "calls"),
    ("database.get_s", "database.get", "s"),
    ("database.put_s", "database.put", "s"),
    ("database.workload_key_s", "database.workload_key", "s"),
    ("frontend.fuse_s", "frontend.fuse", "s"),
    ("frontend.lower_s", "frontend.lower", "s"),
    ("frontend.groups", "frontend.fuse", "size"),
    ("runtime.compile_s", "runtime.compile", "s"),
    ("runtime.compile_calls", "runtime.compile", "calls"),
]

#: per-layer numbers the workloads read from public reports (session
#: totals, ``ScheduleServer.stats()``, the server's metrics snapshot);
#: 0 on workloads that do not exercise the layer.
REPORT_METRICS = {
    "session.searched": "count",
    "session.replayed": "count",
    "session.failed": "count",
    "serve.hit_rate": "frac",
    "serve.coalesced": "count",
    "serve.tune_runs": "count",
    "serve.failures": "count",
    "serve.queue_wait_p50_s": "s",
}

#: every memo cache and stats source in the ``repro.cache`` registry
CACHES = [
    "arith.iter_map_memo",
    "arith.simplify_memo",
    "frontend.buckets",
    "meta.features",
    "meta.sketches",
    "meta.workload_key",
    "obs.traces",
    "runtime.compile",
    "schedule.shared_footprint",
    "schedule.uniquify",
    "schedule.verify",
    "search.candidates",
    "sim.estimate",
    "tir.structural_hash_nodes",
]

TRACE_METRICS = {"trace.unattributed_frac": "frac", "trace.overhead_frac": "frac"}


SPAN_UNITS = {"s": "s", "calls": "count", "failed_frac": "frac", "size": "count",
              "size_mean": "rows"}


def per_layer_units() -> dict:
    units = {metric: SPAN_UNITS[what] for metric, _, what in SPAN_METRICS}
    units.update(REPORT_METRICS)
    for name in CACHES:
        units[f"cache.{name}.hits"] = "count"
        units[f"cache.{name}.misses"] = "count"
        units[f"cache.{name}.hit_rate"] = "frac"
    units.update(TRACE_METRICS)
    return units


def machine() -> dict:
    """Where the numbers were measured."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(paths) -> float:
    """Median over fresh interpreters of the time to import the program
    and the harness (a second import in this process would be free)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *paths], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class SpeedProbe:
    """``speedprobe.py`` in a child process, from construction to
    :meth:`samples` (or :meth:`kill` on the way out of a failed run)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "speedprobe.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def samples(self) -> list:
        out, _ = self.proc.communicate(timeout=60)
        return json.loads(out)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def speed_scale(samples, start, end) -> float:
    """How much faster the program would have run on the reference host
    than on this one during [start, end], judged by the probe's median
    timing inside that window.  A window too short to hold three
    timings uses them all."""
    inside = [d for t, d in samples if start <= t and t + d <= end]
    if len(inside) < 3:
        inside = [d for _, d in samples]
    return (PROBE_REFERENCE_S / _median(inside)) ** PROBE_EXPONENT


def end_to_end(name, setup, rss_mb, reps, samples):
    """The end-to-end metrics and the detail rows of one workload.

    ``setup`` and each repetition's ``window`` are (start, end) on the
    ``perf_counter`` clock.  Other tenants of a shared host slow this
    one, in bursts of seconds and in stretches longer than a run; both
    times are scaled to the reference host's speed by the probe's
    timings in their own window (``speed_scale``), and the median over
    repetitions drops what is left of the bursts.
    """
    first = reps[0]
    cycles = _geomean([p.cycles for p in first.programs.values()])
    rates = [r.work / r.wall_s for r in reps]
    wall = _median([r.wall_s for r in reps])
    if name == "serve-mixed":
        hits = [s for r in reps for src, s in r.latencies if src == "hit"]
        misses = [s for r in reps for src, s in r.latencies if src == "miss"]
        detail = {
            "hit_p50_us": (1e6 * _median(hits), "us"),
            "hit_p99_us": (1e6 * _quantile(hits, 0.99), "us"),
            "serve_rps": (_median(rates), "1/s"),
            "miss_p50_s": (_median(misses), "s"),
            "hit_samples": (len(hits), "count"),
        }
    else:
        detail = {"tune_wall_s": (wall, "s")}
        if name == "network-bert":
            detail["candidates_per_s"] = (
                _median([r.extra["candidates"] / r.wall_s for r in reps]), "1/s")
            detail["network_latency_ms"] = (first.extra["network_latency_ms"], "ms")
        else:
            detail["candidates_per_s"] = (_median(rates), "1/s")
            detail["best_cycles_geomean"] = (cycles, "cycles")
    setup_s, window = setup
    detail["setup_raw_s"] = (setup_s, "s")
    detail["probe_p50_s"] = (_median([d for _, d in samples]), "s")
    metrics = {
        "setup_s": setup_s * speed_scale(samples, *window),
        "rep_norm_s": _median([r.wall_s * speed_scale(samples, *r.window) for r in reps]),
        "cycles_geomean": cycles,
        "peak_rss_mb": rss_mb,
    }
    return metrics, detail


def per_layer(spans, cache_deltas, plain, traced):
    """Per-layer metrics from the spans, the memo-cache activity and the
    reports of the traced repetitions."""
    n = len(traced)
    totals = {}
    self_s = 0.0
    for span in spans:
        row = totals.setdefault(span[1], [0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[7]
        row[2] += span[5]
        row[3] += span[8]
        self_s += span[5]
    out = {}
    for metric, span_name, what in SPAN_METRICS:
        calls, failed, seconds, size = totals.get(span_name, [0, 0, 0.0, 0.0])
        out[metric] = {
            "s": seconds / n,
            "calls": calls / n,
            "failed_frac": failed / calls if calls else 0.0,
            "size": size / n,
            "size_mean": size / calls if calls else 0.0,
        }[what]
    for metric in REPORT_METRICS:
        out[metric] = sum(r.extra.get(metric, 0.0) for r in traced) / n
    for name in CACHES:
        hits = sum(delta.get(name, {}).get("hits", 0) for delta in cache_deltas)
        misses = sum(delta.get(name, {}).get("misses", 0) for delta in cache_deltas)
        out[f"cache.{name}.hits"] = hits / n
        out[f"cache.{name}.misses"] = misses / n
        out[f"cache.{name}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    busy_s = sum(r.busy_s for r in traced)
    out["trace.unattributed_frac"] = 1.0 - self_s / busy_s
    out["trace.overhead_frac"] = (
        _median([r.wall_s for r in traced]) / _median([r.wall_s for r in plain]) - 1.0
    )
    return out


def _same_programs(name, a, b):
    """Whether two repetitions produced the same programs: identical
    cycles and structural hash per task, or identical served scripts
    for every key both served."""
    from workloads import identity

    if name == "serve-mixed":
        return all(a.scripts[k] == b.scripts[k] for k in a.scripts.keys() & b.scripts.keys())
    return identity(a.programs) == identity(b.programs)


def run(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    paths = [os.path.dirname(os.path.abspath(__file__)), src]
    sys.path[:0] = paths
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from repro import cache as repro_cache

    import workloads
    from tracer import Tracer, install_layers

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.tiny, OUT_DIR)
    tracer = Tracer()
    failures = []
    probe = SpeedProbe()
    try:
        setup_start = time.perf_counter()
        import_s = import_seconds(paths)
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workload.setup()
        setup_end = time.perf_counter()
        setup = (import_s + statistics.median(builds) + setup_end - t0, (setup_start, setup_end))
        plain, traced, cache_deltas = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            plain.append(workload.rep())
            plain[-1].window = (started, time.perf_counter())
            if len(plain) == 1:
                # Taken after a fixed amount of work, so the figure does
                # not grow with the number of repetitions a run fits in.
                rss_mb = _peak_rss_mb()
            if args.trace:
                caches = repro_cache.snapshot_counts()
                install_layers(tracer)
                try:
                    traced.append(workload.rep())
                finally:
                    tracer.restore()
                cache_deltas.append(repro_cache.delta_since(caches))
            step = time.perf_counter() - started
            if time.perf_counter() + step > deadline:
                break
        samples = probe.samples()

        checked = [plain[0]] + (plain[1:] + traced if args.workload == "serve-mixed" else [])
        for rep in checked:
            failures.extend(workload.check(rep))
        for rep in plain[1:] + traced:
            if not _same_programs(args.workload, plain[0], rep):
                failures.append("a repetition produced different programs than the first")
    finally:
        probe.kill()
        workload.close()

    reps = plain + traced
    attempted = sum(r.units for r in reps)
    failed = sum(r.failed for r in reps) + len(failures)
    fingerprint = machine()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} reps={len(plain)}+{len(traced)}")
    print(f"# machine {json.dumps(fingerprint, sort_keys=True)}")
    for key, prog in sorted(plain[0].programs.items()):
        print(f"# program {key} cycles={prog.cycles!r} sha={prog.fingerprint()}")
    for line in failures:
        print(f"# FAILED {line}")
    if args.trace:
        metrics = per_layer(tracer.spans, cache_deltas, plain, traced)
        units = per_layer_units()
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "machine": fingerprint,
             "span_fields": ["id", "name", "thread", "start", "end", "self_s",
                             "parent", "failed", "size"]},
        )
    else:
        metrics, detail = end_to_end(args.workload, setup, rss_mb, plain, samples)
        units = dict(END_TO_END)
        for key, (value, unit) in detail.items():
            print(f"{args.workload:<14} {key:<34} {value:>16.6g} {unit}  (detail)")
    print(f"{args.workload:<14} {'failed_frac':<34} {failed / attempted:>16.6g} frac")
    for key, value in metrics.items():
        print(f"{args.workload:<14} {key:<34} {value:>16.6g} {units[key]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures and not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few seconds (self-test)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
