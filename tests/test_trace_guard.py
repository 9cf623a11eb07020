"""The benchmark's span tracer still fits the library.

``bench/tracing.py`` wraps the library from outside at every module that
looks up a traced name (``REQUIRED_SITES``) and cross-checks its counts:
each projected field evaluation calls ``project_vector_field`` exactly once,
and ``integrate`` evaluates the field four times per RK4 step. A change that
moves a lookup site or adds a projection breaks the benchmark's traced run;
this test runs the same install and cross-checks on one short projected run.
The tracer module is loaded from its file and not modified.
"""

import importlib.util
from pathlib import Path
from time import perf_counter

from saddleflow import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_projected_run_passes_the_cross_checks(tmp_path):
    tracing = _load_tracing()
    text = (ROOT / "configs" / "lp_augmented.ini").read_text()
    assert "horizon = 150\n" in text
    config = tmp_path / "lp_augmented.ini"
    config.write_text(text.replace("horizon = 150\n", "horizon = 2\n"))

    tracer = tracing.Tracer()
    tracer.install()  # raises if a required lookup site is not wrapped
    try:
        start = perf_counter()
        code = cli.main(["run", str(config), "--output-dir", str(tmp_path / "out"), "--quiet"])
        wall = perf_counter() - start
    finally:
        tracer.uninstall()

    assert code == 0
    metrics, failures = tracing.summarize(tracer, [wall], [wall])
    assert failures == []
    assert tracer.counters["flows.field.projected"] > 0
    assert metrics["integrate.field_evals"] == 4 * metrics["integrate.steps"] > 0
    assert metrics["projection.vf.calls"] >= metrics["integrate.field_evals"]
