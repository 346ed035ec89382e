"""Put the harness modules (and the checkout's ``src``) on the import path.

These tests are not part of tier-1 (``testpaths = tests``); run them with
``python -m pytest benchmarks/e2e/tests``.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (E2E, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
