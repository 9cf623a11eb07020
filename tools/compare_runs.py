"""Compare the outputs of this checkout of saddleflow with another, config by config.

Usage: python tools/compare_runs.py OTHER_CHECKOUT [CONFIG ...]

Runs each config once with this checkout's ``src`` and once with
OTHER_CHECKOUT's ``src``, each as
``saddleflow run`` in a subprocess of its own with a fresh temporary output
directory. It then compares trajectory.csv, rates.csv and report.txt, the
last without its ``wall time:`` line. For each config it prints
``identical``, or ``differs`` with the names of the files that differ, and
then how: for trajectory.csv the largest state difference over 1 + ||z||,
for the other two the lines that differ. The last line sums up: the configs
compared, how many have byte-identical trajectory.csv and rates.csv, the
largest state difference over all of them, and the configs whose
verdict-bearing lines differ (the ``verdict`` column of rates.csv and
the ``equilibrium:``, ``certificate sandwich:`` and ``converged:`` lines of
report.txt). Exits 1 if anything differs, else 0.

With no CONFIG, the configs are this checkout's configs/*.ini plus every
benchmark workload's inputs at the seeds ``BENCH_SEEDS``, as
``bench/inputs.py`` writes them (with this checkout's ``src``) into a
temporary directory.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
FILES = ("trajectory.csv", "rates.csv", "report.txt")
BENCH_SEEDS = (2024, 31337)
VERDICT_LINES = ("equilibrium:", "certificate sandwich:", "converged:")


def default_configs(directory: Path) -> list:
    """configs/*.ini, then the benchmark configs at ``BENCH_SEEDS``, written into ``directory``."""
    sys.path[:0] = [str(HERE / "src"), str(HERE / "bench")]
    import inputs

    configs = sorted((HERE / "configs").glob("*.ini"))
    for workload in inputs.WORKLOADS:
        for seed in BENCH_SEEDS:
            out = directory / f"{workload}_{seed}"
            inputs.write_inputs(workload, seed, out)
            configs += sorted(out.glob("*.ini"))
    return configs


def run(checkout: Path, config: Path, out: Path) -> subprocess.CompletedProcess:
    """``saddleflow run config`` with ``checkout``'s sources, writing into ``out``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "saddleflow.cli", "run", str(config),
            "--output-dir", str(out), "--quiet"]
    return subprocess.run(argv, env=env, cwd=out, capture_output=True, text=True)


def lines(path: Path) -> list:
    text = path.read_text().splitlines()
    return [line for line in text if not line.startswith("wall time:")]


def state_gap(a: Path, b: Path) -> tuple:
    """(gap, text): the largest state difference of two trajectory.csv files over 1 + ||z||.

    The gap is inf when the shapes differ.
    """
    ta, tb = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (a, b))
    if ta.shape != tb.shape:
        return np.inf, f"shapes differ: {ta.shape} against {tb.shape}"
    za, zb = ta[:, 1:], tb[:, 1:]
    gap = (np.abs(za - zb).max(axis=1) / (1.0 + np.linalg.norm(zb, axis=1))).max()
    times = "" if np.array_equal(ta[:, 0], tb[:, 0]) else "; the times differ too"
    return gap, f"largest state difference {gap:.3e} * (1 + ||z||){times}"


def verdicts(out: Path) -> dict:
    """The verdict-bearing outputs of one run: rates.csv's verdicts and report.txt's lines."""
    with open(out / "rates.csv", newline="") as fh:
        found = {"rates.csv verdict": [row["verdict"] for row in csv.DictReader(fh)]}
    report = lines(out / "report.txt")
    for prefix in VERDICT_LINES:
        found[prefix] = [line for line in report if line.startswith(prefix)]
    return found


def line_diff(a: list, b: list) -> list:
    """'- other' / '+ this' pairs of the lines that differ, by position."""
    out = []
    for i in range(max(len(a), len(b))):
        old = b[i] if i < len(b) else "<none>"
        new = a[i] if i < len(a) else "<none>"
        if old != new:
            out += [f"    - {old}", f"    + {new}"]
    return out


def compare(config: Path, other: Path) -> tuple:
    """(differing, report, gap, verdicts) of one config's outputs.

    ``differing`` names the outputs that differ (empty: identical): files of
    ``FILES``, or ``exit`` where the runs fail differently. ``report`` lists
    the differences as lines to print, ``gap`` is the largest state
    difference over 1 + ||z|| (0 when the trajectories are byte-identical or
    both runs fail), and ``verdicts`` names the verdict-bearing outputs that
    differ.
    """
    with tempfile.TemporaryDirectory() as this_dir, tempfile.TemporaryDirectory() as other_dir:
        this_out, other_out = Path(this_dir), Path(other_dir)
        this_run, other_run = run(HERE, config, this_out), run(other, config, other_out)
        if this_run.returncode or other_run.returncode:
            if (this_run.returncode, this_run.stderr) == (other_run.returncode, other_run.stderr):
                return [], [], 0.0, []
            report = [f"  exit codes {this_run.returncode} (this) and {other_run.returncode} (other)",
                      *line_diff(this_run.stderr.splitlines(), other_run.stderr.splitlines())]
            return ["exit"], report, 0.0, []
        differing, report, gap = [], [], 0.0
        for name in FILES:
            a, b = this_out / name, other_out / name
            if a.read_bytes() == b.read_bytes():
                continue
            if name == "trajectory.csv":
                gap, text = state_gap(a, b)
                differing.append(name)
                report.append(f"  {name}: {text}")
                continue
            diff = line_diff(lines(a), lines(b))
            if diff:
                differing.append(name)
                report += [f"  {name}:", *diff]
        ours, theirs = verdicts(this_out), verdicts(other_out)
        return differing, report, gap, [key for key in ours if ours[key] != theirs[key]]


def summary(compared: int, identical: int, files: Counter, gap: float, verdict_diffs: Counter) -> str:
    """The last line of the output: what was compared and what differs.

    ``files`` counts, for each name ``compare`` gives, the configs whose
    output of that name differs.
    """
    same = ", ".join(f"{name} in {compared - files[name] - files['exit']}" for name in FILES[:2])
    kinds = ", ".join(f"{key} in {n}" for key, n in verdict_diffs.items()) or "none"
    return (f"{identical} of {compared} configs identical; byte-identical {same}; "
            f"largest state difference {gap:.3e} * (1 + ||z||); verdict-bearing lines differing: {kinds}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare against")
    parser.add_argument("configs", type=Path, nargs="*",
                        help="default: configs/*.ini and the benchmark inputs")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "saddleflow").is_dir():
        parser.error(f"{other} holds no src/saddleflow")
    with tempfile.TemporaryDirectory() as inputs_dir:
        configs = [c.resolve() for c in args.configs] or default_configs(Path(inputs_dir))
        identical, files, largest, verdict_diffs = 0, Counter(), 0.0, Counter()
        for config in configs:
            names, report, gap, changed = compare(config, other)
            identical += not names
            files.update(names)
            largest = max(largest, gap)
            verdict_diffs.update(changed)
            generated = config.is_relative_to(inputs_dir)
            name = os.path.relpath(config, inputs_dir if generated else None)
            print(f"{name}: " + (f"differs ({', '.join(names)})" if names else "identical"))
            for line in report:
                print(line)
    print(summary(len(configs), identical, files, largest, verdict_diffs))
    return 1 if identical < len(configs) else 0


if __name__ == "__main__":
    sys.exit(main())
