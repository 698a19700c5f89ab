"""Shared IR construction and session helpers for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from contextlib import contextmanager

import pytest

from repro.meta import session as session_mod
from repro.tir import IRBuilder, PrimFunc, call


@contextmanager
def search_width(width: int):
    """Run a session's searches ``width`` at a time: on a pool of that
    many worker processes, or in-process for 1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_mod, "_search_width", lambda searches: min(width, searches))
        yield


@contextmanager
def one_search_per_worker(width: int):
    """:func:`search_width`, with every worker of the pool holding one
    search: a worker's first ``tune()`` waits at a barrier of ``width``
    parties, inherited through the fork, so no worker can finish its
    first search and take the next before every other worker has taken
    one.  A session with at least ``width`` searches then runs on
    exactly ``width`` worker lanes however the host schedules them.  A
    search that waits a minute fails with ``BrokenBarrierError``;
    searches in this process never wait."""
    barrier = multiprocessing.get_context("fork").Barrier(width, timeout=60)
    parent, tune, waited = os.getpid(), session_mod.tune, []

    def held_tune(*args, **kwargs):
        if os.getpid() != parent and not waited:
            waited.append(True)  # each worker's own copy of the list
            barrier.wait()
        return tune(*args, **kwargs)

    with search_width(width), pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_mod, "tune", held_tune)
        yield


def run_into_closing_reader(*args: str):
    """Run ``python *args`` with stdout piped to a reader that closes it
    after one line, as ``| head -1`` does; returns the line read, the
    exit status and everything written to stderr."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(timeout=120), stderr


def build_matmul(n: int = 64, m: int = 64, k: int = 64, dtype: str = "float32") -> PrimFunc:
    """C[i, j] = sum_k A[i, k] * B[k, j] as a single reduction block."""
    b = IRBuilder("matmul")
    A = b.arg_buffer("A", (n, k), dtype)
    B = b.arg_buffer("B", (k, m), dtype)
    C = b.arg_buffer("C", (n, m), dtype)
    with b.grid(n, m, k) as (i, j, kk):
        with b.block("C") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(m, j)
            vk = blk.reduce(k, kk)
            with blk.init():
                b.store(C, (vi, vj), 0.0)
            b.store(C, (vi, vj), C[vi, vj] + A[vi, vk] * B[vk, vj])
    return b.finish()


def build_elementwise_chain(n: int = 64) -> PrimFunc:
    """B = A + 1; C = exp(B) — the paper's Figure 4 program."""
    b = IRBuilder("fuse_add_exp")
    A = b.arg_buffer("A", (n, n), "float32")
    C = b.arg_buffer("C", (n, n), "float32")
    B = b.alloc_buffer("B", (n, n), "float32")
    with b.grid(n, n) as (i, j):
        with b.block("B") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(n, j)
            b.store(B, (vi, vj), A[vi, vj] + 1.0)
    with b.grid(n, n) as (i, j):
        with b.block("C") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(n, j)
            b.store(C, (vi, vj), call("exp", B[vi, vj]))
    return b.finish()


def build_matmul_relu(n: int = 64, dtype: str = "float32") -> PrimFunc:
    """The running example of Figure 8: matmul followed by RELU."""
    b = IRBuilder("matmul_relu")
    A = b.arg_buffer("A", (n, n), dtype)
    B = b.arg_buffer("B", (n, n), dtype)
    D = b.arg_buffer("D", (n, n), dtype)
    C = b.alloc_buffer("C", (n, n), dtype)
    with b.grid(n, n, n) as (i, j, k):
        with b.block("C") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(n, j)
            vk = blk.reduce(n, k)
            with blk.init():
                b.store(C, (vi, vj), 0.0)
            b.store(C, (vi, vj), C[vi, vj] + A[vi, vk] * B[vk, vj])
    with b.grid(n, n) as (i, j):
        with b.block("D") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(n, j)
            from repro.tir import max_expr

            b.store(D, (vi, vj), max_expr(C[vi, vj], 0.0))
    return b.finish()


def tune_fused_and_unfused(graph, target, config, databases) -> dict:
    """Tune ``graph`` fused and unfused, one ``TuningSession`` each, into
    ``databases[True]`` / ``databases[False]``.  Returns each plan's
    end-to-end latency (tuned group latencies plus one launch per
    group) keyed by ``fuse``.  Asserts that every database replay
    reports the cycles of the search that stored its key."""
    from repro.frontend import fuse_graph, graph_latency
    from repro.meta import TuningSession

    launch = getattr(target, "kernel_launch_cycles", None) or target.op_launch_cycles
    latency = {}
    for fuse in (True, False):
        plan = fuse_graph(graph, fuse=fuse)
        session = TuningSession(target, config, database=databases[fuse])
        session.add_graph(plan)
        report = session.run()
        for task in report.tasks:
            if task.status == "replayed":
                assert task.cycles == databases[fuse].get(task.key).cycles, task.name
        latency[fuse] = graph_latency(
            plan, report, per_op_overhead=target.cycles_to_seconds(launch)
        )
    return latency
