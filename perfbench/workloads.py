"""The benchmark's four workloads, each driven only through public APIs.

A workload is made from a seed; :meth:`build` constructs its inputs
(cheap, so the harness repeats it to time set-up steadily), :meth:`setup`
does the one-off preparation, and the workload is then measured as a
series of repetitions (:meth:`rep`).  Every repetition returns a :class:`Rep`:
its wall time, the work it did, the programs it produced and the
per-request latencies (serving only).  :meth:`check` turns a repetition
into a list of failed output checks.

Why these four (one sentence each, repeated in ``BENCHMARK.json``):

* ``tune-cold`` -- the paper's Table 1 tuning-time path with every memo
  cache empty, where candidate build, verify, arith and features do the
  work.
* ``tune-warm`` -- the same tasks re-tuned in a warm process, where the
  candidate cache makes build and verify near free and the GBDT refit
  dominates.
* ``network-bert`` -- a whole fused network through one session, the
  only workload where database replay, fusion and session dedup carry
  the load.
* ``serve-mixed`` -- Zipf hits on a persistent database from two
  closed-loop clients while a few fresh shapes tune in the server's
  worker, so reads run beside writes and hits compete with tuning.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro import (
    ScheduleServer,
    ServeConfig,
    TuneConfig,
    TuningDatabase,
    TuningSession,
    tune,
    verify,
)
from repro import cache as repro_cache
from repro import frontend
from repro.frontend import graph_latency, ops
from repro.frontend.networks import bert_large_graph
from repro.frontend.workloads import cpu_workload, gpu_workload
from repro.runtime import compile_func, random_args
from repro.sim import SimCPU, SimGPU
from repro.tir import script, structural_hash


@dataclass
class Program:
    """One produced program: what the output checks look at."""

    func: object
    target: object
    cycles: float

    def fingerprint(self) -> str:
        """A digest of the program text that is stable across processes
        (``structural_hash`` is only stable within one)."""
        return hashlib.sha256(script(self.func).encode()).hexdigest()[:16]


@dataclass
class Rep:
    """The outcome of one repetition of a workload."""

    wall_s: float
    work: int  # candidates generated, network groups compiled, or requests served
    units: int  # tasks or requests attempted
    failed: int  # tasks or requests that failed or were refused
    programs: Dict[str, Program]
    #: time the threads driving the load were busy: the repetition's
    #: wall time, or the summed loop time of the serve clients.
    busy_s: float = 0.0
    #: (source, seconds) per served request
    latencies: List[Tuple[str, float]] = field(default_factory=list)
    #: workload-specific numbers (session totals, server stats, ...)
    extra: Dict[str, float] = field(default_factory=dict)
    #: served script per request key, for the byte-identity check
    scripts: Dict[str, set] = field(default_factory=dict)
    #: (start, end) of the repetition on the ``perf_counter`` clock
    window: Tuple[float, float] = (0.0, 0.0)


def _verify_programs(programs: Dict[str, Program]) -> List[str]:
    failures = []
    for key, prog in programs.items():
        problems = verify(prog.func, prog.target)
        if problems:
            failures.append(f"{key}: verify reported {problems[0].code}")
    return failures


def _tune_tasks(tiny: bool):
    """The section 5.1 single-operator tasks: GPU GMM, C2D and DEP
    (fp16) and the int8 CPU GMM, built fresh so no per-node memo is
    shared with an earlier repetition."""
    if tiny:
        return [
            ("GMM", ops.matmul(64, 64, 64), SimGPU()),
            ("GMM-int8", ops.matmul(64, 64, 64, dtype="int8", acc_dtype="int32"), SimCPU()),
        ]
    return [(name, gpu_workload(name), SimGPU()) for name in ("GMM", "C2D", "DEP")] + [
        ("GMM-int8", cpu_workload("GMM"), SimCPU())
    ]


class TuneWorkload:
    """``tune()`` at 32 trials on the four tasks, cold or warm."""

    def __init__(self, seed: int, tiny: bool, warm: bool):
        self.config = TuneConfig(trials=2 if tiny else 32, seed=seed)
        self.tiny = tiny
        self.warm = warm
        self.tasks = []

    def build(self) -> None:
        self.tasks = _tune_tasks(self.tiny)

    def setup(self) -> None:
        if self.warm:
            self.rep()  # the untimed warm-up pass fills every memo cache

    def rep(self) -> Rep:
        if not self.warm:
            repro_cache.clear_all()
            self.build()
        programs, work = {}, 0
        t0 = time.perf_counter()
        for name, func, target in self.tasks:
            result = tune(func, target, self.config)
            work += result.stats.candidates_generated
            programs[name] = Program(result.best_func, target, result.best_cycles)
        wall = time.perf_counter() - t0
        return Rep(wall, work, len(self.tasks), 0, programs, busy_s=wall)

    def check(self, rep: Rep) -> List[str]:
        return _verify_programs(rep.programs)

    def close(self) -> None:
        pass


class NetworkWorkload:
    """BERT-large through ``TuningSession.add_graph(fuse_graph(...))`` at
    8 trials, with a fresh database and empty memo caches each time."""

    def __init__(self, seed: int, tiny: bool):
        self.config = TuneConfig(trials=2 if tiny else 8, seed=seed)
        self.graph = None
        self.target = SimGPU()

    def build(self) -> None:
        # The graph gpu_graph("BERT-large") builds once and caches.
        self.graph = bert_large_graph()

    def setup(self) -> None:
        pass

    def rep(self) -> Rep:
        repro_cache.clear_all()
        t0 = time.perf_counter()
        # Looked up at call time, so a traced run times this call too.
        plan = frontend.fuse_graph(self.graph)
        session = TuningSession(self.target, self.config, database=TuningDatabase())
        session.add_graph(plan)
        report = session.run()
        wall = time.perf_counter() - t0
        programs = {}
        searched_cycles = {}
        for task in report.tasks:
            result = session.results.get(task.name)
            if result is None:
                continue
            if task.key not in programs:
                programs[task.key] = Program(result.best_func, self.target, result.best_cycles)
            if task.status == "searched":
                searched_cycles[task.key] = task.cycles
        replay_mismatches = sum(
            1
            for task in report.tasks
            if task.status == "replayed" and searched_cycles.get(task.key) != task.cycles
        )
        totals = report.totals
        extra = {
            "candidates": sum(r.stats.candidates_generated for r in session.results.values()),
            "network_latency_ms": 1e3 * graph_latency(plan, report),
            "session.searched": totals["tasks_searched"],
            "session.replayed": totals["tasks_replayed"],
            "session.failed": totals["tasks_failed"],
            "replay_mismatches": replay_mismatches,
        }
        # Throughput counts groups, not candidates: every seed compiles
        # the same 360 groups, while its candidate count varies.
        return Rep(wall, len(report.tasks), len(report.tasks), int(totals["tasks_failed"]),
                   programs, busy_s=wall, extra=extra)

    def check(self, rep: Rep) -> List[str]:
        failures = _verify_programs(rep.programs)
        if rep.extra["replay_mismatches"]:
            failures.append(
                f"{rep.extra['replay_mismatches']} replays differ from the search they replay"
            )
        return failures

    def close(self) -> None:
        pass


#: matmul shapes tuned while setting up the server; requests for them hit
_PRETUNED = [(32, 32, 32), (64, 32, 32), (32, 64, 32), (32, 32, 64), (64, 64, 32), (64, 64, 64)]
#: shapes never pre-tuned: each stream requests a few of them, seeded
#: (58 shapes, enough for 19 streams; sizes stay close to the pre-tuned
#: ones so every miss costs about the same)
_FRESH = [
    shape
    for shape in itertools.product((16, 32, 48, 64), repeat=3)
    if shape not in _PRETUNED
]


class ServeWorkload:
    """A ``ScheduleServer`` on a ``PersistentDatabase`` serving a seeded
    request stream from two closed-loop client threads.

    Each repetition is one stream: Zipf-distributed requests for the
    pre-tuned shapes, with a fresh shape at each of a few fixed
    positions.  A fresh shape misses and tunes in the server's worker
    while the other client keeps hitting.  Every stream goes to a new
    server on the database pre-tuned in set-up: one server's tuning
    slows with every request it has served (from 1-2 s to 3-5 s a miss
    over seven streams), which would tie a run's figures to the number of
    streams it fits in.
    """

    clients = 2
    misses_per_stream = 3

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.requests = 400 if tiny else 20000
        self.tune_config = TuneConfig(trials=2 if tiny else 8, seed=seed)
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.fresh = self.rng.sample(_FRESH, len(_FRESH))
        self.target = SimGPU()
        self.hot = []
        self.tmp = None
        self.config = None
        self.server = None

    def build(self) -> None:
        self.hot = [ops.matmul(*shape) for shape in _PRETUNED]

    def setup(self) -> None:
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        self.config = ServeConfig(db_path=self.tmp, tune=self.tune_config)
        self.server = ScheduleServer(self.target, self.config)
        try:
            for func in self.hot:
                self.server.compile(func)
        finally:
            self.server.close()
            self.server = None

    def _stream(self) -> list:
        """Request i is a pre-tuned shape drawn with Zipf weights
        1/rank, except at the fixed miss positions."""
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(self.hot))]
        stream = self.rng.choices(self.hot, weights=weights, k=self.requests)
        for j in range(self.misses_per_stream):
            position = (j + 1) * self.requests // (self.misses_per_stream + 1)
            stream[position] = ops.matmul(*self.fresh.pop())
        return stream

    def rep(self) -> Rep:
        stream = self._stream()
        self.server = ScheduleServer(self.target, self.config)
        try:
            return self._serve(stream)
        finally:
            self.server.close()
            self.server = None

    def _serve(self, stream: list) -> Rep:
        before = self.server.stats()
        queue_before = self.server.metrics.snapshot()
        results: List[object] = [None] * len(stream)
        counter = itertools.count()
        busy = [0.0] * self.clients

        def client(slot: int) -> None:
            start = time.perf_counter()
            while True:
                i = next(counter)
                if i >= len(stream):
                    break
                t0 = time.perf_counter()
                try:
                    resp = self.server.compile(stream[i], timeout=120)
                except Exception as err:  # noqa: BLE001 -- a failed request is counted
                    results[i] = err
                    continue
                results[i] = (resp, time.perf_counter() - t0)
            busy[slot] = time.perf_counter() - start

        threads = [threading.Thread(target=client, args=(k,)) for k in range(self.clients)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0

        after = self.server.stats()
        programs, latencies, scripts = {}, [], {}
        failed = 0
        for outcome in results:
            if not isinstance(outcome, tuple):
                failed += 1
                continue
            resp, seconds = outcome
            latencies.append((resp.source, seconds))
            scripts.setdefault(resp.key, set()).add(resp.script)
            if resp.key not in programs:
                programs[resp.key] = Program(resp.func, self.target, resp.cycles)
        requests = after.requests - before.requests
        hits = after.hits - before.hits
        waits = _window_delta(
            queue_before, self.server.metrics.snapshot(), "serve_queue_wait_seconds"
        )
        extra = {
            "serve.hit_rate": hits / requests if requests else 0.0,
            "serve.coalesced": after.coalesced - before.coalesced,
            "serve.tune_runs": after.tune_runs - before.tune_runs,
            "serve.failures": after.failures - before.failures,
            "serve.queue_wait_p50_s": float(np.median(waits)) if waits else 0.0,
        }
        return Rep(wall, len(stream) - failed, len(stream), failed, programs,
                   busy_s=sum(busy), latencies=latencies, extra=extra, scripts=scripts)

    def check(self, rep: Rep) -> List[str]:
        failures = _verify_programs(rep.programs)
        for key, texts in rep.scripts.items():
            if len(texts) != 1:
                failures.append(f"{key}: served {len(texts)} different scripts")
        for key, prog in rep.programs.items():
            if not _matches_numpy(prog.func, self.seed):
                failures.append(f"{key}: served program differs from the numpy reference")
        return failures

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


def _window_delta(before: dict, after: dict, name: str) -> List[float]:
    """Raw observations of histogram ``name`` added between two registry
    snapshots (the rolling window is long enough for one stream)."""
    def window(doc):
        series = doc["metrics"].get(name, {}).get("series", {})
        return [v for value in series.values() for v in value.get("window", [])]

    old = window(before)
    new = window(after)
    return new[len(old):] if new[: len(old)] == old else new


def _matches_numpy(func, seed: int) -> bool:
    """Run a served matmul through ``compile_func`` on ``random_args``
    and compare with numpy; the tolerance allows for the fp16
    accumulation the program performs."""
    args = random_args(func, seed=seed)
    ordered = [args[func.buffer_map[p].name] for p in func.params]
    compile_func(func)(*ordered)
    a, b, c = (args[name].astype(np.float64) for name in ("A", "B", "C"))
    reference = a @ b
    atol = 2.0 ** -8 * max(1.0, float(np.abs(reference).max()))
    return bool(np.allclose(c, reference, rtol=0.0, atol=atol))


def identity(programs: Dict[str, Program]) -> Dict[str, Tuple[float, int]]:
    """The in-process identity of each program: cycles and structural hash."""
    return {key: (p.cycles, structural_hash(p.func)) for key, p in programs.items()}


def make(name: str, seed: int, tiny: bool, workdir: str):
    if name == "tune-cold":
        return TuneWorkload(seed, tiny, warm=False)
    if name == "tune-warm":
        return TuneWorkload(seed, tiny, warm=True)
    if name == "network-bert":
        return NetworkWorkload(seed, tiny)
    if name == "serve-mixed":
        return ServeWorkload(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
