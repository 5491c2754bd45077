"""Lets the benchmark's tests import ``atlsat`` and the test oracles:
``python3 -m pytest benchmarks`` from the repository root."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
