"""The sources parse as Python 3.10, the floor pyproject.toml declares."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def test_floor_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    assert tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize("snippet", ["try:\n    pass\nexcept* ValueError:\n    pass\n",
                                     "type Pair = tuple[int, int]\n",
                                     "def first[T](xs: list[T]) -> T:\n    return xs[0]\n"],
                         ids=["except-star", "type-alias", "generic-function"])
def test_the_check_rejects_later_syntax(snippet):
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
