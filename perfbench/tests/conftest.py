"""Make the benchmark's modules importable by name, as run.py does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
