"""CLI over saved flight recordings and serving-metrics snapshots.

    python -m repro.obs summarize RUN.json
    python -m repro.obs export --chrome RUN.json -o TIMELINE.json
    python -m repro.obs export --chrome --request req-000003 RUN.json
    python -m repro.obs diff A.json B.json
    python -m repro.obs serve-report METRICS.json [--prom]

A recording is what ``Recorder.save`` wrote: the trial and rejection
rows, plus the spans it was handed.  ``summarize`` prints the per-stage
/ per-task / rejection-mix tables; ``export --chrome`` writes a
Chrome-trace/Perfetto timeline (``--request`` narrows it to one serving
request's span tree); ``diff`` compares two runs (stage seconds,
rejection mix, the best-cost curve derived from the trial rows);
``serve-report`` digests a ``MetricsRegistry.save()`` snapshot into a
count / mean / p50 / p95 / p99 row per latency-histogram series, or
dumps it in Prometheus text exposition with ``--prom``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..fileio import atomic_write
from .export import chrome_trace, diff_recordings, serve_report, summarize
from .metrics import render_prometheus
from .record import load_recording


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and export tuning flight recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="per-stage/per-task summary table")
    p_sum.add_argument("recording", help="path to a Recorder.save artifact")

    p_exp = sub.add_parser("export", help="convert a recording to a timeline")
    p_exp.add_argument("recording", help="path to a Recorder.save artifact")
    p_exp.add_argument(
        "--chrome", action="store_true",
        help="Chrome-trace/Perfetto JSON (the only format, and the default)",
    )
    p_exp.add_argument("-o", "--out", default=None, help="output path (default: stdout)")
    p_exp.add_argument(
        "--request", default=None, metavar="REQ_ID",
        help="narrow the timeline to one serving request's span tree "
             "(e.g. req-000003)",
    )

    p_diff = sub.add_parser("diff", help="compare two recordings")
    p_diff.add_argument("recording_a")
    p_diff.add_argument("recording_b")

    p_srv = sub.add_parser(
        "serve-report", help="summarize a serving-metrics snapshot"
    )
    p_srv.add_argument(
        "snapshot", help="path to a MetricsRegistry.save() JSON snapshot"
    )
    p_srv.add_argument(
        "--prom", action="store_true",
        help="dump Prometheus text exposition instead of the summary table",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "summarize":
            print(summarize(load_recording(args.recording)))
        elif args.command == "export":
            trace = chrome_trace(load_recording(args.recording), request=args.request)
            payload = json.dumps(trace, indent=1, sort_keys=True)
            if args.out:
                atomic_write(args.out, payload)
                print(
                    f"wrote {args.out} ({len(trace['traceEvents'])} trace events)",
                    file=sys.stderr,
                )
            else:
                print(payload)
        elif args.command == "diff":
            a = load_recording(args.recording_a)
            b = load_recording(args.recording_b)
            print(
                diff_recordings(
                    a, b,
                    label_a=os.path.basename(args.recording_a),
                    label_b=os.path.basename(args.recording_b),
                )
            )
        elif args.command == "serve-report":
            with open(args.snapshot) as f:
                snapshot = json.load(f)
            # Every family a registry saves is a histogram; refuse the
            # counters and gauges that older snapshots carried.
            other = sorted(
                name for name, family in snapshot.get("metrics", {}).items()
                if family.get("kind") != "histogram"
            )
            if other:
                raise ValueError(f"not histogram families: {', '.join(other)}")
            if args.prom:
                print(render_prometheus(snapshot), end="")
            else:
                print(serve_report(snapshot))
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as err:
        print(f"error: malformed recording: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
