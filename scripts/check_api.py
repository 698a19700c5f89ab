#!/usr/bin/env python
"""Fail fast when the documented public API surface regresses.

Imports every documented entry point (README quickstart + DESIGN.md §3)
and sanity-checks the signatures that downstream code relies on.  Run
as a CI step:

    PYTHONPATH=src python scripts/check_api.py
"""

import inspect
import sys

FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)


def main() -> int:
    import repro

    # --- top-level surface -------------------------------------------
    for name in (
        "tune",
        "TuneConfig",
        "TuneResult",
        "TuningSession",
        "TuningDatabase",
        "Telemetry",
        "workload_key",
        "tir",
        "verify",
        "Diagnostic",
        "DiagnosticContext",
        "DiagnosticError",
        "Severity",
        "__version__",
    ):
        check(hasattr(repro, name), f"repro.{name} missing")

    # --- module surface ----------------------------------------------
    from repro import meta

    for name in (
        "tune",
        "TuneConfig",
        "TuningSession",
        "SessionReport",
        "TaskReport",
        "TuningDatabase",
        "DatabaseEntry",
        "workload_key",
        "Telemetry",
        "SearchStats",
        "TuneResult",
        "evolutionary_search",
        "estimated_cost",
    ):
        check(hasattr(meta, name), f"repro.meta.{name} missing")

    from repro import schedule

    for name in (
        "Schedule",
        "BlockRV",
        "LoopRV",
        "ScheduleError",
        "Trace",
        "Instruction",
        "verify",
        "is_valid",
        "assert_valid",
        "VerificationError",
        "Diagnostic",
        "DiagnosticContext",
        "DiagnosticError",
    ):
        check(hasattr(schedule, name), f"repro.schedule.{name} missing")

    from repro import diagnostics

    for name in (
        "Diagnostic",
        "Severity",
        "DiagnosticContext",
        "DiagnosticError",
        "tagged",
        "ErrorCode",
        "register_code",
        "code_info",
        "all_codes",
        "family_of",
        "LintReport",
        "lint_func",
        "lint_trace",
        "lint_path",
    ):
        check(hasattr(diagnostics, name), f"repro.diagnostics.{name} missing")

    from repro.sim import SimCPU, SimGPU, estimate  # noqa: F401

    # --- the graph-fusion layer ---------------------------------------
    from repro import frontend

    for name in (
        "Graph",
        "GraphError",
        "OpNode",
        "TensorNode",
        "FusionPlan",
        "FusionGroup",
        "FusionRejection",
        "ANCHOR_KINDS",
        "fuse_graph",
        "compose_group",
        "lower_group",
        "graph_latency",
        "run_graph",
        "run_plan",
        "random_graph_inputs",
        "gpu_graph",
        "cpu_graph",
    ):
        check(hasattr(frontend, name), f"repro.frontend.{name} missing")
    fuse_params = inspect.signature(frontend.fuse_graph).parameters
    check("fuse" in fuse_params, "fuse_graph(...fuse...) missing")
    latency_params = inspect.signature(frontend.graph_latency).parameters
    check(
        "per_op_overhead" in latency_params,
        "graph_latency(...per_op_overhead...) missing",
    )
    check(
        callable(getattr(repro.TuningSession, "add_graph", None)),
        "TuningSession.add_graph missing",
    )
    # A network has one form, its dataflow graph: the layer tables, their
    # builders and accounting, and the session intake for them are gone.
    from repro.frontend import graph as graph_mod, networks as networks_mod

    for module, names in (
        (frontend, ("LayerSpec", "NetworkSpec", "network_latency", "gpu_network",
                    "cpu_network")),
        (frontend.ops, ("elementwise_unary",)),
        (graph_mod, ("LayerSpec", "NetworkSpec", "network_latency")),
        (networks_mod, ("gpu_network", "cpu_network", "GPU_NETWORKS", "CPU_NETWORKS",
                        "resnet50", "mobilenet_v2", "bert_large", "bert_base", "vit",
                        "_conv", "_dep", "_gemm", "_bmm", "_ew", "_softmax",
                        "_layernorm")),
    ):
        for name in names:
            check(
                not hasattr(module, name), f"{module.__name__}.{name} must not exist"
            )
    check(
        not hasattr(repro.TuningSession, "add_network"),
        "TuningSession.add_network must not exist",
    )
    # Exact shape: a task is one workload; a key shared by several tasks
    # weighs as many, so no caller passes a weight.
    add_params = list(inspect.signature(repro.TuningSession.add).parameters)
    check(
        add_params == ["self", "func", "name"],
        f"TuningSession.add takes {add_params[1:]}",
    )
    task_fields = list(getattr(meta.TaskReport, "__dataclass_fields__", {}))
    check("weight" not in task_fields, "TaskReport.weight must not exist")

    # --- the performance layer (structural hashing + caches) ---------
    check(hasattr(repro.tir, "structural_hash"), "repro.tir.structural_hash missing")
    hash_params = inspect.signature(repro.tir.structural_hash).parameters
    for param in ("node", "map_free_vars"):
        check(param in hash_params, f"structural_hash(...{param}...) missing")

    from repro import cache

    for name in (
        "MemoCache",
        "cache_stats",
        "snapshot_counts",
        "delta_since",
        "clear_all",
    ):
        check(hasattr(cache, name), f"repro.cache.{name} missing")

    # --- signatures downstream code relies on ------------------------
    cfg_fields = set(repro.TuneConfig.field_names())
    for field in (
        "trials",
        "seed",
        "allow_tensorize",
        "sketches",
        "validate",
    ):
        check(field in cfg_fields, f"TuneConfig.{field} missing")
    # Exact shape: search budget and space only — recording is switched
    # by handing a run a Recorder, and a session picks its own search
    # width, so neither is a config field.
    cfg_names = list(repro.TuneConfig.field_names())
    check(
        cfg_names
        == ["trials", "seed", "allow_tensorize", "sketches", "validate",
            "population", "generations"],
        f"TuneConfig fields are {cfg_names}",
    )

    tune_params = inspect.signature(repro.tune).parameters
    for param in ("func", "target", "config", "database", "telemetry"):
        check(param in tune_params, f"tune(...{param}...) missing")

    session_params = inspect.signature(repro.TuningSession.__init__).parameters
    for param in ("target", "config", "database", "telemetry"):
        check(param in session_params, f"TuningSession(...{param}...) missing")
    # Exact shape: counts are read where they are kept, so a session
    # takes no registry to copy them into, and stamps no origin tag on
    # the records it commits.
    check(
        list(session_params)
        == ["self", "target", "config", "database", "telemetry", "recorder",
            "buckets"],
        f"TuningSession takes {list(session_params)[1:]}",
    )

    run_params = inspect.signature(repro.TuningSession.run).parameters
    check("total_trials" in run_params, "TuningSession.run(total_trials=...) missing")

    # The database protocol: four primitives on the shared base, both
    # backends implementing them.  Exact shape: ``replay_entry`` is the
    # one way to rebuild a stored record.
    for name in ("Database", "PersistentDatabase"):
        check(hasattr(repro, name), f"repro.{name} missing")
        check(hasattr(meta, name), f"repro.meta.{name} missing")
    db_methods = {
        name for name, _ in inspect.getmembers(meta.Database, inspect.isfunction)
        if not name.startswith("_")
    }
    check(
        db_methods
        == {"get", "put", "evict", "keys", "entries", "record", "replay_entry"},
        f"Database's public methods are {sorted(db_methods)}",
    )
    for backend in (repro.TuningDatabase, repro.PersistentDatabase):
        check(
            issubclass(backend, meta.Database),
            f"{backend.__name__} must subclass Database",
        )
    # Exact shape: the persistent store is a plain record store with no
    # settings beyond its directory.
    pdb_params = list(inspect.signature(repro.PersistentDatabase.__init__).parameters)
    check(pdb_params == ["self", "root"], f"PersistentDatabase takes {pdb_params[1:]}")
    # Exact shape: a stored record is its sketch and decisions, with no
    # second copy of the program and no origin tag nothing reads.
    entry_fields = list(getattr(meta.DatabaseEntry, "__dataclass_fields__", {}))
    check(
        entry_fields == ["key", "workload", "target", "sketch", "decisions", "cycles"],
        f"DatabaseEntry fields are {entry_fields}",
    )
    record_params = inspect.signature(meta.Database.record).parameters
    check(
        list(record_params)
        == ["self", "func", "target", "sketch_name", "decisions", "cycles"],
        f"Database.record takes {list(record_params)[1:]}",
    )
    # Exact shape: a stored record picks its own replay mode (strict at
    # its own key, adaptive elsewhere), so no caller passes one.
    replay_params = list(inspect.signature(meta.Database.replay_entry).parameters)
    check(
        replay_params == ["self", "func", "entry", "ctx"],
        f"Database.replay_entry takes {replay_params[1:]}",
    )
    from repro.meta.tune import replay_result

    replay_result_params = list(inspect.signature(replay_result).parameters)
    check(
        replay_result_params == ["func", "target", "database", "entry", "ctx"],
        f"replay_result takes {replay_result_params}",
    )

    # --- the serving surface (repro.serve) ----------------------------
    from repro import serve

    # Exact shape: applications call the server itself, or
    # ``repro.compile``, which routes through a default server.
    serve_names = sorted(serve.__all__)
    check(
        serve_names
        == ["CompileRequest", "CompileResponse", "ScheduleServer", "ServeConfig",
            "ServerStats", "compile", "default_server",
            "shutdown_default_servers"],
        f"repro.serve exports {serve_names}",
    )
    for name in serve_names:
        check(hasattr(serve, name), f"repro.serve.{name} missing")
    for name in ("compile", "ScheduleServer", "ServeConfig", "CompileResponse"):
        check(hasattr(repro, name), f"repro.{name} missing")
    for name in ("Client", "default_client"):
        check(not hasattr(serve, name), f"repro.serve.{name} must not exist")
        check(not hasattr(repro, name), f"repro.{name} must not exist")
    compile_params = list(inspect.signature(repro.compile).parameters)
    check(
        compile_params == ["func", "target", "config", "server", "timeout"],
        f"repro.compile takes {compile_params}",
    )
    server_params = inspect.signature(serve.ScheduleServer.__init__).parameters
    # Exact shape: responses are counted by the latency histograms, so
    # a server takes no recorder to copy them into.
    check(
        list(server_params) == ["self", "target", "config", "database", "telemetry"],
        f"ScheduleServer takes {list(server_params)[1:]}",
    )
    for method in ("submit", "compile", "stats", "health", "close"):
        check(
            callable(getattr(serve.ScheduleServer, method, None)),
            f"ScheduleServer.{method} missing",
        )
    # Exact shape: the batch cap is a constant of the server.
    serve_field_names = list(getattr(serve.ServeConfig, "__dataclass_fields__", {}))
    check(
        serve_field_names
        == ["db_path", "tune", "batch_window_seconds", "compile_programs", "buckets"],
        f"ServeConfig fields are {serve_field_names}",
    )
    serve_fields = set(serve_field_names)
    response_fields = set(
        getattr(serve.CompileResponse, "__dataclass_fields__", {})
    )
    for field in ("source", "func", "script", "cycles", "trials", "compiled"):
        check(field in response_fields, f"CompileResponse.{field} missing")
    stats_methods = serve.ServerStats()
    check(
        hasattr(stats_methods, "hit_rate")
        and hasattr(stats_methods, "coalesce_factor")
        and callable(getattr(stats_methods, "to_json", None)),
        "ServerStats accounting surface incomplete",
    )

    # --- serving observability (request ids) --------------------------
    # Every response carries a request-scoped trace id.
    check("request_id" in response_fields, "CompileResponse.request_id missing")

    # --- shape-generic tuning (repro.frontend.shapes) ------------------
    from repro.frontend import shapes

    for name in (
        "ShapeBucket",
        "BucketSpec",
        "BucketedWorkload",
        "canonicalize",
        "shape_parametric",
        "shape_args_of",
        "rebuild",
    ):
        check(hasattr(shapes, name), f"repro.frontend.shapes.{name} missing")
        check(hasattr(frontend, name), f"repro.frontend.{name} missing")
    for name in ("ShapeBucket", "BucketSpec", "BucketedWorkload", "canonicalize"):
        check(hasattr(repro, name), f"repro.{name} missing")
    bucket_params = inspect.signature(shapes.ShapeBucket).parameters
    for param in ("dim", "boundaries"):
        check(param in bucket_params, f"ShapeBucket(...{param}...) missing")
    check(
        callable(getattr(shapes.BucketSpec, "pow2", None)),
        "BucketSpec.pow2 missing",
    )
    canon_params = inspect.signature(shapes.canonicalize).parameters
    for param in ("func", "spec", "ctx"):
        check(param in canon_params, f"canonicalize(...{param}...) missing")
    bw_fields = set(getattr(shapes.BucketedWorkload, "__dataclass_fields__", {}))
    for field in ("concrete", "representative", "dims"):
        check(field in bw_fields, f"BucketedWorkload.{field} missing")
    check(
        isinstance(getattr(shapes.BucketedWorkload, "bucketed", None), property),
        "BucketedWorkload.bucketed missing",
    )
    check("buckets" in session_params, "TuningSession(...buckets...) missing")
    check("buckets" in serve_fields, "ServeConfig.buckets missing")
    request_fields = set(getattr(serve.CompileRequest, "__dataclass_fields__", {}))
    check("bucket_key" in request_fields, "CompileRequest.bucket_key missing")
    stats_fields_serve = set(getattr(serve.ServerStats, "__dataclass_fields__", {}))
    for field in ("bucket_hits", "replay_fallbacks"):
        check(field in stats_fields_serve, f"ServerStats.{field} missing")
    from repro.diagnostics import code_info as _code_info

    for code in ("TIR701", "TIR702", "TIR703"):
        try:
            _code_info(code)
        except Exception:
            check(False, f"diagnostic code {code} unregistered")

    for method in ("span", "add", "mark", "since", "report", "to_json"):
        check(
            callable(getattr(repro.Telemetry, method, None)),
            f"Telemetry.{method} missing",
        )
    # Telemetry keeps spans only.
    check(not hasattr(repro.Telemetry, "count"), "Telemetry.count must not exist")
    report_keys = set(repro.Telemetry().report())
    check(
        report_keys == {"spans", "stage_seconds"},
        f"Telemetry.report() keys are {sorted(report_keys)}",
    )

    check(
        callable(getattr(meta.SearchStats, "merge", None)), "SearchStats.merge missing"
    )
    check(
        callable(getattr(meta.SearchStats, "search_signature", None)),
        "SearchStats.search_signature missing",
    )

    # Exact shape: one search builds its candidates inline; there is no
    # evaluation backend to hand it.
    search_params = list(inspect.signature(meta.evolutionary_search).parameters)
    check(
        search_params
        == ["func", "sketch", "target", "config", "cost_model", "telemetry",
            "task", "recorder"],
        f"evolutionary_search takes {search_params}",
    )

    # --- the observability layer (flight recorder) --------------------
    from repro import obs

    for name in (
        "Recorder",
        "TrialRecord",
        "Rejection",
        "chrome_trace",
        "summarize",
        "diff_recordings",
        "load_recording",
        "replay_trial",
    ):
        check(hasattr(obs, name), f"repro.obs.{name} missing")
    check(hasattr(repro, "Recorder"), "repro.Recorder missing")
    # Exact shape: a recorder keeps one row per candidate — a trial row
    # or a rejection row, its own or a session search's — and writes
    # them out; nothing else.
    recorder_methods = {
        name for name, _ in inspect.getmembers(obs.Recorder, inspect.isfunction)
        if not name.startswith("_")
    }
    check(
        recorder_methods == {"trial", "rejection", "adopt", "recording", "save"},
        f"Recorder's public methods are {sorted(recorder_methods)}",
    )
    # Exact shape: the flight recorder is the recorder, its exporters and
    # the CLI, beside the serving metrics.
    import pkgutil

    obs_modules = {m.name for m in pkgutil.iter_modules(obs.__path__)}
    check(
        obs_modules == {"__main__", "export", "metrics", "record"},
        f"repro.obs submodules are {sorted(obs_modules)}",
    )
    # Exact shape: a trial row stores its program as a database record
    # does, as a sketch token and decisions, and ``replay_trial``
    # rebuilds it through the one replay function.
    trial_fields = list(getattr(obs.TrialRecord, "__dataclass_fields__", {}))
    check(
        trial_fields
        == ["trial_id", "ts", "task", "workload", "sketch", "generation",
            "parent", "decisions", "predicted", "cycles", "seconds", "bound",
            "rejection", "structural_hash"],
        f"TrialRecord fields are {trial_fields}",
    )
    trial_params = list(inspect.signature(obs.Recorder.trial).parameters)
    check(
        trial_params
        == ["self", "task", "workload", "sketch", "generation", "parent",
            "decisions", "predicted", "cycles", "seconds", "bound",
            "rejection", "func"],
        f"Recorder.trial takes {trial_params[1:]}",
    )
    from repro.meta import sketch as sketch_mod

    for name in ("apply_sketch", "replay_sketch"):
        check(
            callable(getattr(sketch_mod, name, None)),
            f"repro.meta.sketch.{name} missing",
        )
    # Exact shape: a sketch runs as a decision-free prefix and the
    # sampled rest given the prefix's state; ``apply_sketch`` builds a
    # candidate either from scratch or as a fork of a given prefix, and
    # ``Schedule.copy`` is that fork.
    for cls in (meta.Sketch, *sketch_mod.SKETCHES.values()):
        for method, params in (("prefix", ["self", "sch"]), ("apply", ["self", "sch", "state"])):
            fn = getattr(cls, method, None)
            got = list(inspect.signature(fn).parameters) if callable(fn) else None
            check(got == params, f"{cls.__name__}.{method} takes {got}")
    apply_params = list(inspect.signature(sketch_mod.apply_sketch).parameters)
    check(
        apply_params == ["func", "sketch", "seed", "forced", "decision_mode", "prefix"],
        f"apply_sketch takes {apply_params}",
    )
    copy_params = list(inspect.signature(schedule.Schedule.copy).parameters)
    check(copy_params == ["self", "seed"], f"Schedule.copy takes {copy_params[1:]}")
    # A schedule uniquifies its base function itself: no memo fronts it.
    from repro.schedule import state as state_mod

    check(
        not hasattr(state_mod, "_UNIQUIFY_CACHE"),
        "repro.schedule.state._UNIQUIFY_CACHE must not exist",
    )
    # A search result keeps its best program, not a row per measurement.
    result_fields = list(getattr(meta.TuneResult, "__dataclass_fields__", {}))
    check(
        result_fields
        == ["workload", "best_func", "best_cycles", "best_report", "best_sketch",
            "stats", "best_decisions", "replayed"],
        f"TuneResult fields are {result_fields}",
    )

    # --- the metrics layer (repro.obs.metrics) -------------------------
    # Exact shape: latency histograms with fixed buckets and window, and
    # their read views; every other serving count is kept where it
    # happens (stats(), health(), repro.cache, database diagnostics).
    from repro.obs import metrics as obs_metrics

    metrics_names = sorted(obs_metrics.__all__)
    check(
        metrics_names
        == ["DEFAULT_LATENCY_BUCKETS", "DEFAULT_WINDOW", "Histogram",
            "MetricFamily", "MetricsRegistry", "quantile", "render_prometheus"],
        f"repro.obs.metrics exports {metrics_names}",
    )
    for name in metrics_names:
        check(hasattr(obs_metrics, name), f"repro.obs.metrics.{name} missing")
    for name in ("MetricsRegistry", "render_prometheus", "serve_report"):
        check(hasattr(obs, name), f"repro.obs.{name} missing")
    registry_methods = {
        name for name, _ in inspect.getmembers(
            obs_metrics.MetricsRegistry, inspect.isfunction
        )
        if not name.startswith("_")
    }
    check(
        registry_methods == {"histogram", "snapshot", "prometheus_text", "save"},
        f"MetricsRegistry's public methods are {sorted(registry_methods)}",
    )
    registry_params = list(
        inspect.signature(obs_metrics.MetricsRegistry.__init__).parameters
    )
    check(registry_params == ["self"], f"MetricsRegistry takes {registry_params[1:]}")
    hist_params = list(
        inspect.signature(obs_metrics.MetricsRegistry.histogram).parameters
    )
    check(
        hist_params == ["self", "name", "help_text", "labels"],
        f"MetricsRegistry.histogram takes {hist_params[1:]}",
    )
    for method in ("observe", "window_values", "to_json"):
        check(
            callable(getattr(obs_metrics.Histogram, method, None)),
            f"Histogram.{method} missing",
        )
    # The storage layer keeps no metrics: its recoveries are counted by
    # ``diagnostics`` alone.
    check(
        not hasattr(repro.PersistentDatabase, "bind_metrics"),
        "PersistentDatabase.bind_metrics must not exist",
    )
    # Exact shape: a trace records, copies and replays through the
    # Schedule's own methods; it has no serialized form.
    trace_names = {name for name in vars(schedule.Trace) if not name.startswith("_")}
    check(
        trace_names == {"append", "copy", "apply_to"},
        f"Trace's public names are {sorted(trace_names)}",
    )
    inst_names = {
        name for name in vars(schedule.Instruction) if not name.startswith("_")
    }
    check(
        inst_names
        == {"name", "inputs", "attrs", "outputs", "decision", "is_sampling"},
        f"Instruction's public names are {sorted(inst_names)}",
    )
    add_params = inspect.signature(repro.Telemetry.add).parameters
    check("start" in add_params, "Telemetry.add(...start...) missing")
    span_fields = set(getattr(meta.Span, "__dataclass_fields__", {}))
    for field in ("span_id", "parent_id"):
        check(field in span_fields, f"Span.{field} missing")
    check(
        callable(getattr(repro.TuningSession, "save_recording", None)),
        "TuningSession.save_recording missing",
    )
    check(callable(getattr(meta.Sketch, "token", None)), "Sketch.token missing")

    # Session reports are summed from these fields (invalid_by_code
    # from rejected_by_code) — renames break every reader of a report.
    stats_fields = set(
        getattr(meta.SearchStats, "__dataclass_fields__", {})
    )
    for field in (
        "candidates_generated",
        "invalid_rejected",
        "apply_failed",
        "measured",
        "profiling_seconds",
        "rejected_by_code",
    ):
        check(field in stats_fields, f"SearchStats.{field} missing")
    check(
        "cache_stats" in getattr(meta.SessionReport, "__dataclass_fields__", {}),
        "SessionReport.cache_stats missing",
    )

    # The benchmark's per-layer tracer (perfbench/tracer.py) wraps every
    # one of these by name, on the class and each subclass that defines
    # the method, and reads X's rows from the first positional argument
    # of fit.  It patches nothing when no class defines a method or a
    # module lacks a function, so a rename would silently zero that
    # layer's metrics (database.replays, sketch.apply_calls, ...).
    import importlib

    from repro.arith import Analyzer
    from repro.frontend.fuse import FusionPlan
    from repro.learn import GradientBoostedTrees

    for owner, method, params in (
        (GradientBoostedTrees, "fit", ["self", "X", "y"]),
        (meta.CostModel, "update", ["self", "funcs", "cycles"]),
        (meta.CostModel, "predict", ["self", "funcs"]),
        (meta.Sketch, "apply", ["self", "sch"]),
        (Analyzer, "simplify", ["self", "expr"]),
        (meta.Database, "replay_entry", ["self", "func", "entry"]),
        (meta.Database, "get", ["self", "key"]),
        (meta.Database, "put", ["self", "entry"]),
    ):
        todo, defined = [owner], []
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            if callable(vars(klass).get(method)):
                defined.append(vars(klass)[method])
        check(
            any(list(inspect.signature(fn).parameters)[: len(params)] == params
                for fn in defined),
            f"{owner.__name__}.{method}({', '.join(params[1:])}, ...) missing",
        )
    # Exact shape: the cost model reports its updates to no recorder;
    # they are the search's model-update spans.
    cost_params = list(inspect.signature(meta.CostModel.__init__).parameters)
    check(
        cost_params == ["self", "target", "min_data"],
        f"CostModel takes {cost_params[1:]}",
    )
    for module, name in (
        ("repro.schedule.validation", "verify"),
        ("repro.tir.structural", "structural_hash"),
        ("repro.tir.printer", "script"),
        ("repro.meta.feature", "extract_features"),
        ("repro.sim.cost", "estimate"),
        ("repro.meta.database", "workload_key"),
        ("repro.frontend.fuse", "fuse_graph"),
        ("repro.frontend.fuse", "lower_group"),
        ("repro.runtime.codegen", "compile_func"),
    ):
        check(
            callable(getattr(importlib.import_module(module), name, None)),
            f"{module}.{name} missing",
        )
    check(isinstance(getattr(FusionPlan, "num_groups", None), property),
          "FusionPlan.num_groups missing")

    verify_params = inspect.signature(repro.verify).parameters
    for param in ("func", "target", "ctx"):
        check(param in verify_params, f"verify(...{param}...) missing")

    check(
        issubclass(schedule.ScheduleError, repro.DiagnosticError),
        "ScheduleError must subclass DiagnosticError",
    )
    check(
        issubclass(schedule.VerificationError, repro.DiagnosticError),
        "VerificationError must subclass DiagnosticError",
    )
    for attr in ("code", "message", "severity", "render", "span"):
        check(
            hasattr(repro.Diagnostic, attr) or attr in getattr(
                repro.Diagnostic, "__dataclass_fields__", {}
            ),
            f"Diagnostic.{attr} missing",
        )
    for method in ("emit", "extend", "errors", "ok", "counts_by_code", "render"):
        check(
            hasattr(repro.DiagnosticContext, method),
            f"DiagnosticContext.{method} missing",
        )

    if FAILURES:
        print("public API check FAILED:")
        for message in FAILURES:
            print(f"  - {message}")
        return 1
    print("public API check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
