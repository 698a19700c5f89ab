"""CLI entry point: ``python -m repro.diagnostics file.py [...]``.

Runs the §3.3 validation battery (tirlint) over every PrimFunc
discoverable in the given Python files and renders each failure with
its stable error code and underlined source span.

Exit status: 0 all clean, 1 diagnostics found (or stdout closed early),
2 a file failed to load.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..fileio import run_cli
from .lint import lint_path, resolve_target


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diagnostics",
        description="tirlint: validate TensorIR programs (§3.3 battery)",
    )
    parser.add_argument("paths", nargs="+", help="Python files to lint")
    parser.add_argument(
        "--target",
        choices=("none", "gpu", "cpu"),
        default="none",
        help="also run target-dependent threading checks (default: none)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    args = parser.parse_args(argv)

    target = resolve_target(args.target)
    status = 0
    json_out = []
    for path in args.paths:
        report = lint_path(path, target)
        if report.failures.get("<module>"):
            status = 2
        elif not report.ok and status == 0:
            status = 1
        if args.format == "json":
            json_out.append(
                {
                    "path": report.path,
                    "ok": report.ok,
                    "counts_by_code": report.counts_by_code(),
                    "failures": report.failures,
                    "diagnostics": {
                        name: [
                            {
                                "code": d.code,
                                "severity": str(d.severity),
                                "message": d.message,
                                "block": d.block,
                                "span": d.span(),
                            }
                            for d in diags
                        ]
                        for name, diags in report.diagnostics.items()
                    },
                }
            )
        else:
            print(report.render())
    if args.format == "json":
        print(json.dumps(json_out, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(run_cli(main))
