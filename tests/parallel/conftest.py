"""Parallel-suite fixtures; makes the chaos harness importable.

Same arrangement as the serving suite: the subprocess helpers that check
no worker outlives its parent live in ``tests/_chaos.py``, so the
``tests`` directory must be on ``sys.path``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_TESTS_DIR = str(Path(__file__).resolve().parent.parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)
