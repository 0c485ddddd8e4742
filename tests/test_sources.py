"""The sources stay within the Python 3.10 grammar, the floor of pyproject.toml."""

import ast
from pathlib import Path

import pytest

import curvforms

SOURCES = sorted(Path(curvforms.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_check_rejects_3_11_syntax():
    assert "cli.py" in {p.name for p in SOURCES}
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
