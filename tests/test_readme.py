"""The README's examples run as written.

The `## Library` section's Python block is executed, and the JSON that the
README shows for `beatsched analyze scenarios/chain6.json` must equal what
the CLI prints for that scenario.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from beatsched import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)


def fenced_block(language: str, starts: str = "", after: str = "") -> str:
    """The body of the first fenced block of `language` past the text
    `after` whose body starts with `starts`."""
    for match in FENCED.finditer(README, README.index(after)):
        if match.group(1) == language and match.group(2).startswith(starts):
            return match.group(2)
    raise AssertionError(f"README has no {language or 'plain'} block starting {starts!r} after {after!r}")


def test_library_example_runs():
    exec(compile(fenced_block("python", after="\n## Library\n"), "README.md", "exec"), {})


def test_analyze_example_is_the_cli_output(capsys, monkeypatch):
    command = "$ beatsched analyze scenarios/chain6.json\n"
    shown = fenced_block("", starts=command)[len(command):]
    monkeypatch.chdir(ROOT)
    assert cli.main(["analyze", "scenarios/chain6.json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(shown)
