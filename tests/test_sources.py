"""The sources stay within the Python 3.10 grammar, the floor of pyproject.toml,
and the line counts of `tools/src_lines.py` cover each of their lines once."""

import ast
import importlib.util
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


def _src_lines():
    """The line-counting tool, loaded from its file (tools/ is no package)."""
    path = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_the_four_line_counts_add_up_to_each_modules_lines(path):
    text = path.read_text(encoding="utf-8")
    counts = _src_lines().count_lines(text)
    assert set(counts) == {"code", "docstring", "comment", "blank"}
    assert sum(counts.values()) == len(text.splitlines())


def test_each_line_is_counted_as_its_kind():
    source = (
        '"""Module\n\ndocstring."""\n'  # 3 docstring lines, its blank one included
        "\n"
        "# a comment\n"
        "def f(x):  # code with a comment\n"
        "    '''One line.'''\n"
        "    s = '''a string\n"
        "\n"
        "    that is code'''\n"
        "    return (x,\n"
        "\n"
        "            s)\n"
    )
    assert _src_lines().count_lines(source) == {"code": 6, "docstring": 4, "comment": 1, "blank": 2}
