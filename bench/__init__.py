"""The repository benchmark: ``python3 -m bench`` (see ``bench/README.md``).

Four workloads, seven end-to-end metrics and a per-layer budget, all timed
from outside the library: nothing here is imported by ``src/`` and nothing
under ``benchmarks/`` is imported from here.

The driver starts the benchmark from the root of a checkout without
``PYTHONPATH``; the package therefore puts the checkout's ``src/`` on the
import path itself.  When ``src/`` is missing, importing ``repro`` fails and
the command exits non-zero without printing a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
