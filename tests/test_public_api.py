"""The package's public names and version stay what the project declares:
the README's "Public API" list and ``pyproject.toml``'s ``version``."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import wumpusbench

ROOT = Path(__file__).resolve().parent.parent


def documented_names() -> set[str]:
    """The names in the bullet list that follows the README's "Public API"
    paragraph."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    _, found, rest = text.partition("**Public API.**")
    assert found, "README.md has no Public API paragraph"
    items = re.search(r"^- .*?(?=\n\n)", rest, re.MULTILINE | re.DOTALL)
    assert items, "the Public API paragraph lists no names"
    return set(re.findall(r"`(\w+)`", items.group(0)))


def test_package_exports_exactly_the_documented_public_names():
    exported = {
        name
        for name, value in vars(wumpusbench).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == documented_names()


def test_package_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no version"
    assert wumpusbench.__version__ == match.group(1)
