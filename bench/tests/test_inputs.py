"""The benchmark's seeded inputs: same seed, same bytes; every config builds.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
from saddleflow.cli import build_setup, load_config  # noqa: E402

HELD_OUT_SEED = 31337  # not used while the workloads were tuned


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_bytes(tmp_path, workload, seed):
    ops_a = inputs.write_inputs(workload, seed, tmp_path / "a")
    ops_b = inputs.write_inputs(workload, seed, tmp_path / "b")
    assert ops_a == ops_b
    files = _files(tmp_path / "a")
    assert "manifest.json" in files and len(files) > 2
    assert files == _files(tmp_path / "b")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_changes_the_data(tmp_path, workload):
    inputs.write_inputs(workload, inputs.DEFAULT_SEED, tmp_path / "a")
    inputs.write_inputs(workload, HELD_OUT_SEED, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a.keys() == b.keys()
    assert a["manifest.json"] != b["manifest.json"]


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_config_loads_and_builds(tmp_path, workload, seed):
    ops = inputs.write_inputs(workload, seed, tmp_path)
    for op in ops:
        for cfg in op.configs:
            setup = build_setup(load_config(tmp_path / f"{cfg.stem}.ini"))
            assert setup.flow.dim > 0
