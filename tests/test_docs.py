"""The documentation cannot rot silently.

Three guards over ``README.md`` and ``docs/*.md``:

* every ``>>>`` example is a doctest and must pass (the quickstart is
  executed for real, processes pools included);
* every relative markdown link must point at a file that exists;
* the README's per-command flag tables and the CLI's options agree in
  both directions.

CI runs this module as its docs job; it is also part of tier-1.
"""

from __future__ import annotations

import argparse
import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda p: p.name,
)

#: ``[text](target)`` markdown links, excluding images.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_examples_run(path):
    """All ``>>>`` blocks in the documentation execute and pass."""
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert results.failed == 0, f"{path.name}: {results.failed} doctest failure(s)"
    if path.name == "README.md":
        # The quickstart must actually contain runnable examples.
        assert results.attempted >= 5


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_links_resolve(path):
    """Relative links in the docs point at files that exist."""
    dead = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            dead.append(target)
    assert not dead, f"{path.name}: dead link(s) {dead}"


#: A README command section: ``### `<command>` — ...`` up to the next heading.
_COMMAND_SECTION = re.compile(r"^### `([\w-]+)`[^\n]*\n(.*?)(?=^#{2,3} )", re.S | re.M)


def _flag(option: str) -> "re.Pattern[str]":
    return re.compile(rf"(?<![\w-]){re.escape(option)}(?![\w-])")


def test_readme_flag_tables_match_cli():
    """Each ``### `<command>` `` section's flag table names only options
    of that subcommand, and names every one of them in the section."""
    from repro.cli import build_parser

    commands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    sections = dict(_COMMAND_SECTION.findall((REPO_ROOT / "README.md").read_text("utf-8")))
    assert {"summarize", "query", "serve-net"} <= set(sections)
    problems = []
    for command, text in sections.items():
        options = {
            option
            for action in commands[command]._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        table = "\n".join(line for line in text.splitlines() if line.startswith("|"))
        for span in re.findall(r"`([^`]*)`", table):
            for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", span):
                if flag not in options:
                    problems.append(f"{command}: README documents {flag}, the CLI does not")
        for option in sorted(options):
            if not _flag(option).search(text):
                problems.append(f"{command}: {option} is missing from its README section")
    assert not problems, "\n".join(problems)
