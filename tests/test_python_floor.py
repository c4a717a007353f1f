"""The package sources stay within the oldest Python that pyproject.toml
declares. No interpreter that old need be installed: ``ast.parse`` with
``feature_version`` rejects grammar added later, such as ``except*`` (3.11).
It checks syntax only, not the standard library's API."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match.group(1)), int(match.group(2))


def test_every_source_module_parses_at_the_declared_floor():
    floor = declared_floor()
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def test_the_floor_check_rejects_newer_grammar():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=declared_floor())
