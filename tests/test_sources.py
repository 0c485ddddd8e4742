"""The sources stay within the Python 3.10 grammar, the floor of pyproject.toml,
the line counts of `tools/src_lines.py` cover each of their lines once,
`tools/report_bytes.py` hashes every file command's report, and
`tools/startup.py` alternates its pairs of starts."""

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


def _tool(name: str):
    """A tool of tools/, loaded from its file (tools/ is no package)."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _src_lines():
    return _tool("src_lines")


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


def test_report_bytes_masks_only_where_a_warning_comes_from():
    stderr = b"/any/src/curvforms/topology.py:503: RuntimeWarning: overflow encountered\n  x = a @ b\nerror: T must be finite\n"
    masked = _tool("report_bytes")._WARNING_SOURCE.sub(b"<source>: RuntimeWarning:", stderr)
    assert masked == b"<source>: RuntimeWarning: overflow encountered\n  x = a @ b\nerror: T must be finite\n"


def test_report_bytes_runs_every_file_command_in_both_formats(monkeypatch, capsys):
    tool = _tool("report_bytes")
    calls = []

    def record(argv):
        calls.append(argv)
        return "0" * 64, 0

    monkeypatch.setattr(tool, "run_digest", record)
    assert tool.main(["a.jsonl", "b.jsonl.gz"]) == 0
    assert len(calls) == len(capsys.readouterr().out.splitlines()) == 2 * 9 * 2
    assert {" ".join(argv[:1] + argv[2:]) for argv in calls} == {
        f"{command} --format {fmt}"
        for command in ("validate", "einstein-check --metric g", "einstein-check --metric h",
                        "einstein-check --metric lorentz", "normal-form", "petrov",
                        "integrate --quantity ht", "integrate --quantity chi", "integrate --quantity tau")
        for fmt in ("json", "text")
    }
    assert tool.main([]) == 2


def test_report_bytes_hashes_the_exit_code_and_both_streams(tmp_path):
    tool = _tool("report_bytes")
    path = tmp_path / "point.jsonl"
    line = '{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], "rm": [[1, 2, 3, 4, %s]], "weight": 1}\n'
    path.write_text(line % "0.0")
    clean, code = tool.run_digest(["validate", str(path)])
    assert code == 0 and tool.run_digest(["validate", str(path)]) == (clean, 0)
    path.write_text(line % "0.5")  # the same file name, now breaking first Bianchi
    broken, code = tool.run_digest(["validate", str(path)])
    assert code == 1 and broken != clean


def test_startup_alternates_twenty_pairs_of_the_two_trees(monkeypatch, capsys, tmp_path):
    tool = _tool("startup")
    calls = []

    def record(argv, env):
        calls.append((argv[1:], Path(env["PYTHONPATH"]).name))
        return (0.2, 0.3) if env["PYTHONPATH"].endswith("a") else (0.1, 0.4)

    monkeypatch.setattr(tool, "run_once", record)
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert {tuple(argv) for argv, _ in calls} == {("-c", "import curvforms")}
    trees = [tree for _, tree in calls]
    # one untimed start of each, then A first in even pairs and B first in odd ones
    assert trees == ["a", "b"] + ["a", "b", "b", "a"] * (tool.PAIRS // 2) and tool.PAIRS == 20
    out = capsys.readouterr().out
    assert "wall wins: A 0, B 20" in out and "cpu wins: A 20, B 0" in out
    assert "median 0.2000 s  quartiles 0.2000 .. 0.2000 s" in out

    calls.clear()
    assert tool.main(["a", "b", "--version"]) == 0
    assert {tuple(argv) for argv, _ in calls} == {("-m", "curvforms", "--version")} and len(calls) == 42
    assert tool.main([]) == 2 and tool.main(["a"]) == 2
