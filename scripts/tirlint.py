#!/usr/bin/env python
"""tirlint — run the §3.3 TensorIR validation battery over Python files.

Thin launcher for ``python -m repro.diagnostics``; keeps working when
the package is not installed by adding ``src/`` to ``sys.path``:

    python scripts/tirlint.py examples/*.py --target gpu
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.diagnostics.__main__ import main  # noqa: E402
from repro.fileio import run_cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(run_cli(main))
