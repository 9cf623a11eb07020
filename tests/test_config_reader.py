"""The config reader ``cli._read_ini``, with configparser as its second route.

configparser, set to the reader's grammar (inline ``#`` and ``;`` comments,
no interpolation), gives the same sections, keys and values on every shipped
config, on the README's example and on every benchmark input. No module of
saddleflow imports configparser.
"""

import ast
import configparser
import importlib.util
import re
from pathlib import Path

import pytest

from saddleflow import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "saddleflow").rglob("*.py"))
_spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def _configparser(path: Path) -> dict:
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    ini.read(path)
    return {name: dict(ini[name]) for name in ini.sections()}


def test_the_reader_reads_every_config_as_configparser_does(tmp_path):
    readme = (ROOT / "README.md").read_text()
    example = tmp_path / "readme_example.ini"
    example.write_text(re.search(r"### Config format\n.*?```ini\n(.*?)```", readme, re.S)[1])
    # configs/*.ini and every benchmark input at both of the benchmark's seeds
    paths = compare_runs.default_configs(tmp_path) + [example]
    assert compare_runs.BENCH_SEEDS == (2024, 31337)
    assert len(paths) == len(list((ROOT / "configs").glob("*.ini"))) + 30 + 1
    for path in paths:
        assert cli._read_ini(path) == _configparser(path), path.name
    sections = cli._read_ini(example)
    assert list(sections) == ["experiment", "problem", "algorithm", "integrator"]
    assert sections["problem"]["matrix"] == "1 0;\n0 1"


def test_a_continued_value_joins_its_lines_with_newlines(tmp_path):
    path = tmp_path / "continued.ini"
    path.write_text(
        "[problem]\n"
        "  Kind: lp            # an indented key line sets the indent\n"
        "  a = -1 0;\n"
        "      0 -1;  ; a comment after the value\n"
        "\n"
        "    ; a comment line, then a blank one, inside the value\n"
        "\n"
        "   1 1\n"
        "b = 50%\n"
    )
    # configparser keeps the blank lines as empty ones: "-1 0;\n0 -1;\n\n\n1 1"
    expected = {"problem": {"kind": "lp", "a": "-1 0;\n0 -1;\n1 1", "b": "50%"}}
    assert cli._read_ini(path) == expected
    assert (cli._parse_matrix(expected["problem"]["a"]) == cli._parse_matrix("-1 0; 0 -1; 1 1")).all()


def _imports(source: str) -> list:
    """Top-level names of the modules ``source`` imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("code", ["import configparser", "from configparser import ConfigParser",
                                  "def f():\n    import os, configparser as cp\n"])
def test_the_scan_sees_each_way_to_import(code):
    assert "configparser" in _imports(code)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_configparser(path):
    assert "configparser" not in _imports(path.read_text())
