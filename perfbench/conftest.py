"""Import paths for the benchmark self-tests: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
