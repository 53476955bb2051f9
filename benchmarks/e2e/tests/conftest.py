"""Self-tests of the benchmark: ``pytest benchmarks/e2e/tests``.

Not part of the repository's tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
