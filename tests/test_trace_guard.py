"""The benchmark's span tracer still fits the library.

``bench/tracing.py`` wraps the library from outside at every module that
looks up a traced name (``REQUIRED_SITES``) and cross-checks its counts:
each projected field evaluation calls ``project_vector_field`` exactly once,
and ``integrate`` evaluates the field four times per RK4 step. A change that
moves a lookup site or adds a projection breaks the benchmark's traced run;
these tests run the same install and cross-checks on one short projected
run, on short runs of every config built on an inner-solve transform, and on
one short ``compare``. The tracer module is loaded from its file and not
modified.
"""

import importlib.util
from pathlib import Path
from time import perf_counter

import pytest

from saddleflow import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, command: str, *configs):
    """Trace one ``saddleflow <command>`` of shipped configs cut to horizon 2.

    ``configs`` are (file name, shipped horizon) pairs.
    """
    tracing = _load_tracing()
    paths = []
    for name, horizon in configs:
        text = (ROOT / "configs" / name).read_text()
        assert f"horizon = {horizon}\n" in text
        config = tmp_path / name
        config.write_text(text.replace(f"horizon = {horizon}\n", "horizon = 2\n"))
        paths.append(str(config))

    tracer = tracing.Tracer()
    tracer.install()  # raises if a required lookup site is not wrapped
    try:
        start = perf_counter()
        code = cli.main([command, *paths, "--output-dir", str(tmp_path / "out"), "--quiet"])
        wall = perf_counter() - start
    finally:
        tracer.uninstall()

    assert code == 0
    metrics, failures = tracing.summarize(tracer, [wall], [wall])
    assert failures == []
    return tracer, metrics


def test_traced_projected_run_passes_the_cross_checks(tmp_path):
    tracer, metrics = _traced(tmp_path, "run", ("lp_augmented.ini", "150"))
    assert tracer.counters["flows.field.projected"] > 0
    assert metrics["integrate.field_evals"] == 4 * metrics["integrate.steps"] > 0
    assert metrics["projection.vf.calls"] >= metrics["integrate.field_evals"]


@pytest.mark.parametrize(
    "name, horizon",
    [
        ("qp_proximal.ini", "60"),
        ("quadratic_proximal.ini", "60"),
        ("separable_reduced.ini", "40"),
        ("lasso_pipeline.ini", "60"),
    ],
)
def test_traced_inner_solve_run_passes_the_cross_checks(tmp_path, name, horizon):
    _, metrics = _traced(tmp_path, "run", (name, horizon))
    assert metrics["transforms.inner.solves"] > 0
    assert metrics["transforms.inner.residual_evals"] > 0


def test_traced_compare_passes_the_cross_checks(tmp_path):
    # the benchmark's dense_record workload runs only ``compare``
    _, metrics = _traced(
        tmp_path, "compare", ("quadratic_standard.ini", "25"), ("separable_preconditioned.ini", "30")
    )
    assert metrics["integrate.field_evals"] == 4 * metrics["integrate.steps"] > 0
    assert metrics["certificates.states"] > 0
    assert (tmp_path / "out" / "comparison.csv").is_file()
