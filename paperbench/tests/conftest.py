"""Make the program and the benchmark importable for the self-tests.

Run from the repository root:  python3 -m pytest paperbench/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
