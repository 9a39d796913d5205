"""Static analysis gates: ruff over the repo, mypy over the typed core,
and no tracked file under an ignored path.

Both tools are optional at development time (the reference container
does not ship them); the tests skip cleanly when a tool is missing and
the CI lint job — which installs both — enforces them on every push.
Configuration lives in ``pyproject.toml`` so editors, CI, and these
tests all see the same rules.
"""

from __future__ import annotations

import os
import shutil
import subprocess

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(tool: str, *args: str) -> "subprocess.CompletedProcess[str]":
    if shutil.which(tool) is None:
        pytest.skip(f"{tool} is not installed")
    return subprocess.run(
        [tool, *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_ruff_clean():
    result = _run("ruff", "check", ".")
    assert result.returncode == 0, f"ruff found issues:\n{result.stdout}{result.stderr}"


def test_mypy_core_clean():
    env_path = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), os.environ.get("MYPYPATH", "")])
    )
    if shutil.which("mypy") is None:
        pytest.skip("mypy is not installed")
    result = subprocess.run(
        ["mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "MYPYPATH": env_path},
    )
    assert result.returncode == 0, f"mypy found issues:\n{result.stdout}{result.stderr}"


def test_no_tracked_file_is_ignored():
    """Runs rewrite what ``.gitignore`` lists (bench tables under
    ``benchmarks/results/``); a tracked copy there turns every bench run
    into a dirty tree that a later ``git add -A`` commits."""
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        pytest.skip("not a git checkout")
    result = _run("git", "ls-files", "--cached", "--ignored", "--exclude-standard")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "", f"tracked but ignored:\n{result.stdout}"
