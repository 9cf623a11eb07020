"""Benchmark of saddleflow runs through the CLI entry point.

Usage, from the root of a checkout:

    python3 bench/run.py --workload inner_solve --seed 2024 --seconds 20 --trace 0

The benchmark writes the workload's inputs from ``--seed`` (see
``bench/inputs.py``), then runs the workload as a closed loop in this one
process: each pass calls ``saddleflow.cli.main`` once per operation, the next
call starting when the previous one returns, and passes repeat until
``--seconds`` have elapsed after one untimed warm-up pass. After every pass,
outside the timed region, each operation's files are checked against
independent oracles (``bench/checks.py``) and every trajectory.csv against
the first pass's bytes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s``, the wall time of one pass; ``setup_s``, the time in
``load_config`` plus ``build_setup`` per pass; and ``peak_rss_mb``, the
process's peak resident memory. Both times are in reference seconds. On a
machine shared with other tenants every operation runs up to 2x slower for
tens of seconds at a time, so each operation is bracketed by a fixed
calibration loop (``calibrate``), its wall time is divided by the mean of the
two calibration times, and the median of these ratios over the passes is
scaled by the loop's time on an idle machine (``REFERENCE_CALIBRATION_S``).
A change to the program moves these times as it moves raw wall time; the
machine's momentary speed cancels. With ``--trace 1`` passes alternate
untraced and traced (``bench/tracing.py``) and the line carries the
per-layer metrics of the traced passes, per pass. Lines before it record the
environment, the solver facts of every config, the raw pass times and
calibration times, and the failure ratio. Raw samples go to
``.bench_work/<workload>/samples.json``. The program's BLAS/OpenMP pools are
limited to one thread.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Workloads whose flows need no inner solve; the traced run checks it.
NO_INNER_SOLVE = ("projected_direct", "dense_record")
# Traced passes repeat the same counts; a few bound the spans kept in memory.
MAX_TRACED_PASSES = 5
# Time of ``calibrate()`` on an otherwise idle 2-vCPU Intel Xeon (numpy 2.4,
# Python 3.11): the speed that normalized times are expressed at.
REFERENCE_CALIBRATION_S = 0.95e-3
_CAL_M = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]])


def calibrate() -> float:
    """Wall time of a fixed loop of the small solves and norms saddle flows make.

    The program never runs this code, so its time tracks only how fast the
    machine is right now; co-tenants slow it and the program alike.
    """
    z = np.ones(3)
    start = perf_counter()
    for _ in range(120):
        z = np.linalg.solve(_CAL_M, z) + 0.1
        z /= np.linalg.norm(z)
    return perf_counter() - start


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _normalized(times: dict) -> float:
    """Sum over keys of the median calibration-relative time, in reference seconds."""
    return REFERENCE_CALIBRATION_S * sum(statistics.median(v) for v in times.values())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _timed(fn, sink: dict, config_path):
    """``fn`` adding its wall time to ``sink`` under (name, config path)."""

    @functools.wraps(fn)
    def timer(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink[(fn.__name__, str(config_path(args[0])))] = perf_counter() - start

    return timer


class Workload:
    """One workload's operations, run pass by pass and checked after each."""

    def __init__(self, cli, checks, ops, input_dir: Path, output_dir: Path):
        self.cli = cli
        self.checks = checks
        self.ops = ops
        self.input_dir = input_dir
        self.output_dir = output_dir
        self.oracle = checks.Oracle(ops)
        self.setup_times: dict = {}
        self.digests: dict = {}
        self.facts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run_pass(self) -> tuple:
        """(outcomes, samples) of one pass; a sample per operation holds its wall
        time, its set-up times per call, and the calibration time around it."""
        outcomes, samples = [], []
        before = calibrate()
        for op in self.ops:
            self.setup_times.clear()
            start = perf_counter()
            try:
                outcomes.append(self.cli.main(op.argv(self.input_dir, self.output_dir / op.name)))
            except Exception as err:  # a crash fails the operation, not the benchmark
                outcomes.append(f"{type(err).__name__}: {err}")
            wall = perf_counter() - start
            after = calibrate()
            samples.append({"op": op.name, "wall": wall, "setup": dict(self.setup_times),
                            "calibration": 0.5 * (before + after)})
            before = after
        return outcomes, samples

    def check_pass(self, outcomes: list) -> None:
        for op, outcome in zip(self.ops, outcomes):
            self.attempted += 1
            problems = [] if outcome == 0 else [f"exit {outcome}"]
            if outcome == 0:
                for stem, out in op.output_dirs(self.output_dir / op.name).items():
                    try:
                        found, self.facts[stem] = self.checks.check_config(self.oracle, stem, out)
                        digest = self.checks.digest(out / "trajectory.csv")
                    except (OSError, ValueError, AttributeError, IndexError) as err:
                        problems.append(f"{stem}: unreadable output: {err}")
                        continue
                    problems += found
                    if self.digests.setdefault(stem, digest) != digest:
                        problems.append(f"{stem}: trajectory.csv differs from the first pass")
            if problems:
                self.failed += 1
                self.problems.append(f"{op.name}: {'; '.join(problems)}")


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "saddleflow" / "cli.py").is_file():
        print(f"bench: no saddleflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from saddleflow import cli

    import checks
    import inputs
    import tracing

    if args.workload not in inputs.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    ops = inputs.write_inputs(args.workload, seed, work / "inputs")

    env = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    bench = Workload(cli, checks, ops, work / "inputs", work / "out")
    # main and run_experiment look both names up in cli, so timing them there
    # catches every set-up call, compare's worker threads included
    cli.load_config = _timed(cli.load_config, bench.setup_times, lambda path: path)
    cli.build_setup = _timed(cli.build_setup, bench.setup_times, lambda cfg: cfg.path)
    bench.check_pass(bench.run_pass()[0])  # warm-up: imports, caches, first files
    passes, traced_walls = [], []
    tracer = tracing.Tracer() if args.trace else None
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or not passes or (tracer and not traced_walls):
        outcomes, samples = bench.run_pass()
        bench.check_pass(outcomes)
        passes.append(samples)
        if tracer is not None and len(traced_walls) < MAX_TRACED_PASSES:
            tracer.install()
            try:
                outcomes, samples = bench.run_pass()
            finally:
                tracer.uninstall()
            bench.check_pass(outcomes)
            traced_walls.append(sum(sample["wall"] for sample in samples))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(sample["wall"] for sample in samples) for samples in passes]

    cross_failures = []
    if tracer is None:
        op_times, setup_times = {}, {}
        for samples in passes:
            for sample in samples:
                cal = sample["calibration"]
                op_times.setdefault(sample["op"], []).append(sample["wall"] / cal)
                for call, seconds in sample["setup"].items():
                    setup_times.setdefault(call, []).append(seconds / cal)
        metrics = {
            "wall_s": {"value": _normalized(op_times), "unit": "s"},
            "setup_s": {"value": _normalized(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        layer, cross_failures = tracing.summarize(tracer, traced_walls, walls)
        if args.workload in NO_INNER_SOLVE and layer["transforms.inner.solves"] != 0:
            cross_failures.append(
                f"{layer['transforms.inner.solves']} inner solves per pass on {args.workload}"
            )
        tracer.dump(work / "spans.npz")
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in layer.items()}

    (work / "samples.json").write_text(json.dumps(
        [[{**sample, "setup": {" ".join(k): v for k, v in sample["setup"].items()}}
          for sample in samples] for samples in passes], indent=1) + "\n")
    cals = [sample["calibration"] for samples in passes for sample in samples]
    print(f"raw pass wall_s min {min(walls):.6g} median {statistics.median(walls):.6g} "
          f"max {max(walls):.6g}; calibration_s min {min(cals):.6g} median "
          f"{statistics.median(cals):.6g} max {max(cals):.6g}")
    fail_ratio = bench.failed / bench.attempted
    print("facts " + json.dumps(bench.facts, sort_keys=True))
    print(f"passes {len(walls)} untraced, {len(traced_walls)} traced; "
          f"fail_ratio {fail_ratio:.6g} ratio ({bench.failed}/{bench.attempted})")
    for problem in bench.problems + cross_failures:
        print(f"bench: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not bench.failed and not cross_failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
