"""A run writes its files over the old ones in place (``integrate._overwrite``).

A rerun into the same directory leaves the bytes of a run into a fresh one,
however long the old files were; a symlinked output is written through, an
existing file keeps its mode.
"""

import csv
import os
import re
import stat
from pathlib import Path

import pytest

from saddleflow.cli import main
from saddleflow.integrate import _overwrite

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
OUTPUTS = ("trajectory.csv", "rates.csv", "report.txt")


def _config(tmp_path, name: str, horizon: int) -> Path:
    """The shipped config ``name`` at ``horizon``, written as ``<stem>.ini`` in a directory of its own."""
    text = re.sub(r"(?m)^horizon = \S+$", f"horizon = {horizon}", (CONFIGS / name).read_text())
    path = tmp_path / f"h{horizon}" / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    return path


def _run(config: Path, out: Path) -> None:
    assert main(["run", str(config), "--output-dir", str(out), "--quiet"]) == 0


def _outputs(out: Path) -> dict:
    """Each output's bytes; report.txt without its ``wall time:`` line."""
    files = {name: (out / name).read_bytes() for name in OUTPUTS}
    files["report.txt"] = re.sub(rb"(?m)^wall time: .*\n", b"", files["report.txt"])
    return files


def _comparison(path: Path) -> list:
    """comparison.csv's rows without the wall_time column."""
    with open(path, newline="") as fh:
        return [row[:3] + row[4:] for row in csv.reader(fh)]


def _lengthen(path: Path) -> None:
    """Append bytes, so that every old output is longer than any new one."""
    with open(path, "ab") as fh:
        fh.write(b"9," * 50_000)


def test_a_rerun_over_longer_outputs_leaves_the_bytes_of_a_fresh_run(tmp_path):
    long = _config(tmp_path, "quadratic_standard.ini", 20)
    short = _config(tmp_path, "quadratic_standard.ini", 5)
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    _run(long, rerun)
    old = {name: (rerun / name).stat().st_size for name in OUTPUTS}
    for name in OUTPUTS:
        _lengthen(rerun / name)
    _run(short, rerun)
    _run(short, fresh)
    assert _outputs(rerun) == _outputs(fresh)
    assert old["trajectory.csv"] > (fresh / "trajectory.csv").stat().st_size  # shorter without the padding too


def test_a_compare_rerun_over_a_longer_table_leaves_the_table_of_a_fresh_compare(tmp_path):
    quad = _config(tmp_path, "quadratic_standard.ini", 5)
    precond = _config(tmp_path, "qp_preconditioned_uy.ini", 5)  # its label has commas: a quoted field
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert main(["compare", str(quad), str(precond), "--output-dir", str(rerun), "--quiet"]) == 0
    table = rerun / "comparison.csv"
    two = table.stat().st_size
    assert main(["compare", str(precond), "--output-dir", str(rerun), "--quiet"]) == 0
    assert main(["compare", str(precond), "--output-dir", str(fresh), "--quiet"]) == 0
    assert table.stat().st_size < two
    assert table.stat().st_size == (fresh / "comparison.csv").stat().st_size
    assert _comparison(table) == _comparison(fresh / "comparison.csv")
    assert len(_comparison(table)) == 2
    assert _outputs(rerun / "qp_preconditioned_uy") == _outputs(fresh / "qp_preconditioned_uy")


def test_a_symlinked_output_is_written_through(tmp_path):
    config = _config(tmp_path, "quadratic_standard.ini", 5)
    out, fresh, elsewhere = tmp_path / "out", tmp_path / "fresh", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    (elsewhere / "trajectory.csv").write_bytes(b"old," * 100_000)
    (out / "trajectory.csv").symlink_to(elsewhere / "trajectory.csv")
    (out / "rates.csv").symlink_to(elsewhere / "rates.csv")  # dangling: the run creates its target
    (out / "report.txt").symlink_to(os.devnull)  # a device: written, not cut
    _run(config, out)
    _run(config, fresh)
    for name in ("trajectory.csv", "rates.csv"):
        assert (out / name).is_symlink()
        assert (elsewhere / name).read_bytes() == (fresh / name).read_bytes()
    assert (out / "report.txt").is_symlink()


def test_outputs_keep_the_modes_of_existing_files_and_get_those_of_open_for_new_ones(tmp_path):
    config = _config(tmp_path, "quadratic_standard.ini", 5)
    out = tmp_path / "out"
    out.mkdir()
    modes = {"trajectory.csv": 0o600, "rates.csv": 0o640}
    for name, mode in modes.items():
        (out / name).write_bytes(b"x" * 1_000_000)
        (out / name).chmod(mode)
    with open(tmp_path / "by_open", "w"):
        pass
    _run(config, out)
    for name, mode in modes.items():
        assert stat.S_IMODE((out / name).stat().st_mode) == mode
    assert (out / "report.txt").stat().st_mode == (tmp_path / "by_open").stat().st_mode


def test_an_output_that_cannot_be_opened_is_a_config_error(tmp_path, capsys):
    config = _config(tmp_path, "quadratic_standard.ini", 5)
    out = tmp_path / "out"
    (out / "report.txt").mkdir(parents=True)
    assert main(["run", str(config), "--output-dir", str(out), "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err


def test_a_write_that_stops_part_way_leaves_the_new_bytes_then_the_old(tmp_path):
    path = tmp_path / "file"
    path.write_bytes(b"0123456789")
    with pytest.raises(RuntimeError):
        with _overwrite(path) as fh:
            fh.write(b"abc")
            raise RuntimeError("stopped")
    assert path.read_bytes() == b"abc3456789"
    with _overwrite(path) as fh:
        fh.write(b"abc")
    assert path.read_bytes() == b"abc"

