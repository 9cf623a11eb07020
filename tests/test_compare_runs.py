"""tools/compare_runs.py against this checkout and against a changed copy of it."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

SHORT = """
[experiment]
seed = 1

[problem]
kind = quadratic_saddle
mu = 1.0
q = 2.0
matrix = 0.5

[algorithm]
kind = standard

[integrator]
step = 0.01
horizon = 30
record_every = 100
"""


def _config(tmp_path, text=SHORT) -> Path:
    path = tmp_path / "short.ini"
    path.write_text(text)
    return path


def _changed_copy(tmp_path, file: str, old: str, new: str) -> Path:
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = other / "src" / "saddleflow" / file
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return other


def test_a_checkout_against_itself_is_identical(tmp_path, capsys):
    assert compare_runs.main([str(ROOT), str(_config(tmp_path))]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("short.ini: identical")
    assert out[-1] == ("1 of 1 configs identical; largest state difference 0.000e+00 * (1 + ||z||); "
                       "verdict-bearing lines differing: none")


def test_a_changed_checkout_shows_which_files_differ_and_how(tmp_path, capsys):
    other = _changed_copy(tmp_path, "integrate.py", "blocks.append(z[None].copy())",
                          "blocks.append(z[None] + 1e-9)")
    assert compare_runs.main([str(other), str(_config(tmp_path))]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("short.ini: differs")
    assert out[-1] == ("0 of 1 configs identical; largest state difference 1.000e-09 * (1 + ||z||); "
                       "verdict-bearing lines differing: none")
    assert "  trajectory.csv: largest state difference 1.000e-09 * (1 + ||z||)" in out
    assert "  rates.csv:" in out and "  report.txt:" in out
    changed = [line for line in out if line.startswith("    - ")]
    assert any(line.startswith("    - final residual:") for line in changed)
    assert not any("wall time:" in line for line in out)


def test_the_summary_names_the_verdict_bearing_lines_that_differ(tmp_path, capsys):
    other = _changed_copy(tmp_path, "cli.py", 'f"converged: yes (residual', 'f"converged: YES (residual')
    assert compare_runs.main([str(other), str(_config(tmp_path)), str(_config(tmp_path))]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "    - converged: YES (residual <= 1e-06)" in out  # the other checkout's line
    assert out[-1] == ("0 of 2 configs identical; largest state difference 0.000e+00 * (1 + ||z||); "
                       "verdict-bearing lines differing: converged: in 2")


def test_the_same_failure_in_both_checkouts_is_no_difference(tmp_path, capsys):
    bad = _config(tmp_path, SHORT.replace("kind = standard", "kind = standard\nrho = 1.0"))
    assert compare_runs.main([str(ROOT), str(bad)]) == 0
    other = _changed_copy(tmp_path, "cli.py", '"saddleflow: config error: ', '"config error: ')
    assert compare_runs.main([str(other), str(bad)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  exit codes 1 (this) and 1 (other)" in out


def test_the_default_configs_are_the_shipped_ones_then_the_benchmark_inputs(tmp_path):
    configs = compare_runs.default_configs(tmp_path)
    shipped = sorted((ROOT / "configs").glob("*.ini"))
    generated = configs[len(shipped):]
    assert configs[: len(shipped)] == shipped and len(generated) == 30
    dirs = {c.parent for c in generated}
    assert {d.parent for d in dirs} == {tmp_path} and len(dirs) == 6  # 3 workloads x 2 seeds
    assert {d.name.rpartition("_")[2] for d in dirs} == {"2024", "31337"}
