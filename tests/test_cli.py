import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from saddleflow import cli
from saddleflow.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

QUADRATIC = """
[experiment]
seed = 7

[problem]
kind = quadratic_saddle
mu = 1.0
q = 2.0
n = 2
m = 2
coupling_norm = 0.5

[algorithm]
kind = standard

[integrator]
method = rk4
step = 0.002
horizon = 20
record_every = 20
"""

BILINEAR_STANDARD = """
[experiment]
seed = 0
z0 = 1 0

[problem]
kind = bilinear
matrix = 1.0

[algorithm]
kind = standard

[integrator]
step = 0.01
horizon = 10
record_every = 10
"""

BILINEAR_AUGMENTED = """
[experiment]
seed = 0
z0 = 1 0 0 0

[problem]
kind = bilinear
matrix = 1.0

[algorithm]
kind = augmented
rho = 0.5

[integrator]
step = 0.02
horizon = 60
record_every = 20
"""

DIVERGENT = """
[problem]
kind = quadratic_saddle
mu = 1.0
q = 1.0
matrix = 0.0

[algorithm]
kind = standard

[integrator]
method = rk4
step = 5.0
horizon = 4000
record_every = 10
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_quadratic_passes_bound(tmp_path, capsys):
    cfg = _write(tmp_path, "quad.ini", QUADRATIC)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "verdict: pass" in report
    assert "converged: yes" in report
    assert (out / "trajectory.csv").is_file()
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0].startswith("c_fit,c_bound")
    assert rates[1].endswith("pass")
    assert "saddleflow experiment report" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, "quad.ini", QUADRATIC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--output-dir", str(out1), "--quiet"]) == 0
    assert main(["run", str(cfg), "--output-dir", str(out2), "--quiet"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_seed_override_changes_problem(tmp_path):
    cfg = _write(tmp_path, "quad.ini", QUADRATIC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--output-dir", str(out1), "--quiet"]) == 0
    assert main(["run", str(cfg), "--output-dir", str(out2), "--seed", "8", "--quiet"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_bilinear_standard_flags_non_convergence(tmp_path):
    cfg = _write(tmp_path, "bil.ini", BILINEAR_STANDARD)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    assert "non-convergence" in (out / "report.txt").read_text()


def test_bilinear_augmented_converges(tmp_path):
    cfg = _write(tmp_path, "aug.ini", BILINEAR_AUGMENTED)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "converged: yes" in report
    assert "certificate [augmented]" in report


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1
    assert "config error" in capsys.readouterr().err


def test_incompatible_algorithm_is_config_error(tmp_path, capsys):
    bad = QUADRATIC.replace("kind = standard", "kind = reduced")
    cfg = _write(tmp_path, "bad.ini", bad)
    assert main(["run", str(cfg)]) == 1
    assert "not compatible" in capsys.readouterr().err


def test_missing_section_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[problem]\nkind = bilinear\nmatrix = 1\n")
    assert main(["run", str(cfg)]) == 1
    assert "missing" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "boom.ini", DIVERGENT)
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
    # z' = -z at step 5, past RK4's stable step of about 2.79: each step
    # multiplies the state by P4(-5) = 13.7, and step 272 leaves the finite
    # numbers, so the last finite state is at t = 271 * 5, between records
    err = capsys.readouterr().err
    assert "numerical failure: non-finite state encountered (last finite time t=1355)" in err


def test_a_method_other_than_rk4_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "euler.ini", DIVERGENT.replace("method = rk4", "method = euler"))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"saddleflow: config error: {cfg}: bad integrator config: "
        "method must be 'rk4', the only method, got 'euler'\n"
    )
    assert not (tmp_path / "out").exists()


def test_an_inner_solve_that_stalls_far_out_names_the_iterate(tmp_path, capsys):
    # the proximal surrogate of a 129-coordinate saddle, past the affine cap,
    # at a step too coarse for q = 100: the flow diverges, and its inner
    # Newton solve stalls near its absolute tolerance once the iterates are
    # large; the message gives their size, which reads as the divergence
    text = """
[problem]
kind = quadratic_saddle
mu = 1.0
q = 100
n = 65
m = 64
coupling_norm = 1.0

[algorithm]
kind = proximal
rho = 1.0

[integrator]
method = rk4
step = 0.05
horizon = 10
"""
    cfg = _write(tmp_path, "far.ini", text)
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    found = re.search(r"numerical failure: newton line search stalled \(residual (\S+), \|iterate\| (\S+)\)", err)
    assert found, err
    assert float(found[1]) > 1e-10 and float(found[2]) > 1e5


def test_compare_writes_table(tmp_path, capsys):
    cfg1 = _write(tmp_path, "one.ini", QUADRATIC)
    cfg2 = _write(tmp_path, "two.ini", BILINEAR_AUGMENTED)
    out = tmp_path / "cmp"
    assert main(["compare", str(cfg1), str(cfg2), "--output-dir", str(out), "--quiet"]) == 0
    table = (out / "comparison.csv").read_text().splitlines()
    assert table[0] == "algorithm,c_bound,c_fit,wall_time,final_residual"
    assert len(table) == 3
    assert table[1].startswith("standard")
    assert table[2].startswith("augmented")
    assert (out / "one" / "trajectory.csv").is_file()
    assert (out / "two" / "report.txt").is_file()


def test_compare_empty_list_is_usage_error(capsys):
    assert main(["compare"]) == 1
    assert "at least one" in capsys.readouterr().err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_successive_calls_in_one_process_parse_their_own_arguments(tmp_path, capsys):
    # the parser is built once per process; no call sees the command or the
    # flags of the call before it
    assert cli._parser() is cli._parser()
    cfg = _write(tmp_path, "quad.ini", QUADRATIC)
    seeded, cmp_out, plain = tmp_path / "seeded", tmp_path / "cmp", tmp_path / "plain"
    assert main(["run", str(cfg), "--output-dir", str(seeded), "--seed", "8", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["compare", str(cfg), "--output-dir", str(cmp_out)]) == 0
    assert capsys.readouterr().out.startswith("algorithm,c_bound")  # not quiet, and a table
    assert main(["run", str(cfg), "--output-dir", str(plain), "--quiet"]) == 0
    compared = (cmp_out / "quad" / "trajectory.csv").read_bytes()
    assert compared == (plain / "trajectory.csv").read_bytes()  # seed 7 from the config, twice
    assert compared != (seeded / "trajectory.csv").read_bytes()
    assert main(["run", str(cfg), "--no-such-flag"]) == 1  # a usage error still exits 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "after"), "--quiet"]) == 0


def test_z0_must_match_dimension(tmp_path, capsys):
    bad = QUADRATIC.replace("seed = 7", "seed = 7\nz0 = 1 2 3")
    cfg = _write(tmp_path, "bad.ini", bad)
    assert main(["run", str(cfg), "--quiet"]) == 1


def _comparison_rows(path):
    with open(path) as fh:
        return {row["algorithm"]: row for row in csv.DictReader(fh)}


def test_compare_preconditioned_beats_proximal_on_same_qp(tmp_path):
    out = tmp_path / "cmp"
    code = main([
        "compare",
        str(CONFIGS / "qp_proximal.ini"),
        str(CONFIGS / "qp_preconditioned_uy.ini"),
        "--output-dir", str(out), "--quiet",
    ])
    assert code == 0
    rows = _comparison_rows(out / "comparison.csv")
    (prox_label,) = [k for k in rows if k.startswith("proximal")]
    (pre_label,) = [k for k in rows if k.startswith("preconditioned")]
    assert float(rows[pre_label]["c_fit"]) >= float(rows[prox_label]["c_fit"])


def test_compare_reduced_and_preconditioned_pass_their_bounds(tmp_path):
    out = tmp_path / "cmp"
    code = main([
        "compare",
        str(CONFIGS / "separable_reduced.ini"),
        str(CONFIGS / "separable_preconditioned.ini"),
        "--output-dir", str(out), "--quiet",
    ])
    assert code == 0
    for row in _comparison_rows(out / "comparison.csv").values():
        assert float(row["c_fit"]) >= 0.9 * float(row["c_bound"])
        assert float(row["final_residual"]) <= 1e-6


def test_report_states_why_the_rate_fit_is_missing(tmp_path):
    # the equilibrium is known, but two records leave too few samples to fit
    short = QUADRATIC.replace("horizon = 20", "horizon = 0.12").replace(
        "record_every = 20", "record_every = 60"
    )
    cfg = _write(tmp_path, "short.ini", short)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "equilibrium: hint" in report
    assert "fitted rate: unavailable (too few usable samples in window" in report


def test_report_states_why_the_certificate_is_skipped(tmp_path, monkeypatch):
    import saddleflow.cli as cli

    def refuse(*args, **kwargs):
        raise ValueError("certificate produced shape (0,), expected (1, 2)")

    monkeypatch.setattr(cli.cert, "eval_certificate", refuse)
    cfg = _write(tmp_path, "quad.ini", QUADRATIC)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "certificate: skipped (certificate produced shape (0,), expected (1, 2))" in report
    assert "max_bracket_violation=" not in report


def test_report_warns_when_the_certificate_vanishes_but_the_residual_does_not(tmp_path, monkeypatch):
    from dataclasses import replace

    import saddleflow.cli as cli

    evaluate = cli.cert.eval_certificate
    monkeypatch.setattr(
        cli.cert, "eval_certificate", lambda *a, **k: replace(evaluate(*a, **k), observability_violated=True)
    )
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "quad.ini", QUADRATIC)), "--output-dir", str(out), "--quiet"]) == 0
    lines = (out / "report.txt").read_text().splitlines()
    assert "WARNING: certificate vanished while the flow residual did not" in lines


def test_report_without_equilibrium_gives_reasons(tmp_path, monkeypatch):
    # a run without a hint that has not converged finds no z*, and integrates once
    text = (CONFIGS / "separable_reduced.ini").read_text().replace("horizon = 40", "horizon = 0.1")
    cfg = _write(tmp_path, "reduced_short.ini", text)
    out = tmp_path / "out"
    calls = []
    integrate = cli.integrate
    monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args) or integrate(*args))
    assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    assert len(calls) == 1
    report = (out / "report.txt").read_text()
    assert "converged: yes" not in report and "hint" not in report
    assert "equilibrium: not found" in report
    assert "fitted rate: unavailable (no equilibrium found)" in report
    assert "certificate: skipped (no equilibrium found)" in report


@pytest.mark.parametrize("config, horizons", [
    ("separable_reduced.ini", ("0.1", "2", "40")),
    ("qp_preconditioned_uy.ini", ("1", "30")),
    ("lp_augmented.ini", ("5", "150")),
])
def test_a_run_without_a_hint_detects_its_equilibrium_exactly_when_it_converges(tmp_path, config, horizons):
    text = (CONFIGS / config).read_text()
    (old,) = [line for line in text.splitlines() if line.startswith("horizon = ")]
    seen = set()
    for horizon in horizons:
        out = tmp_path / horizon
        cfg = _write(tmp_path, f"{horizon}.ini", text.replace(old, f"horizon = {horizon}"))
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        converged = any(line.startswith("converged: yes") for line in lines)
        assert ("equilibrium: detected" in lines) == converged, horizon
        assert ("equilibrium: not found" in lines) == (not converged), horizon
        seen.add(converged)
    assert seen == {True, False}


def test_report_line_formats_read_by_tools(tmp_path):
    cfg = _write(tmp_path, "aug.ini", BILINEAR_AUGMENTED)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    lines = (out / "report.txt").read_text().splitlines()
    assert any(line.startswith("final residual: ") for line in lines)
    assert "equilibrium: hint" in lines
    (cert_line,) = [line for line in lines if line.startswith("certificate [augmented]: ")]
    assert ", max_bracket_violation=" in cert_line


@pytest.mark.parametrize(
    "violation, verdict",
    [
        (0.0, "certificate sandwich: within 1e-09"),
        # the violation the canonical min-cost-flow network reports
        (1.045e-8, "certificate sandwich: violated (1.045e-08 > 1e-09)"),
    ],
)
def test_report_gives_the_sandwich_verdict(tmp_path, violation, verdict):
    from dataclasses import replace

    from saddleflow.cli import _format_report, load_config, run_experiment

    cfg = _write(tmp_path, "quad.ini", QUADRATIC.replace("horizon = 20", "horizon = 1"))
    res = run_experiment(load_config(cfg))
    res = replace(res, cert_report=replace(res.cert_report, max_bracket_violation=violation))
    lines = _format_report(res).splitlines()
    (i,) = [k for k, line in enumerate(lines) if line.startswith("certificate [strict_cc]: ")]
    assert f", max_bracket_violation={violation:.3e}, " in lines[i]
    assert lines[i + 1] == verdict


# an augmented bilinear run past AFFINE_MAX_DIM: it runs the oracle field, and
# its certificate takes the batch route of the declared hessian
BIG_BILINEAR_AUGMENTED = """
[problem]
kind = bilinear
n = 70
m = 70

[algorithm]
kind = augmented

[integrator]
step = 0.05
horizon = 1
record_every = 5
"""


@pytest.mark.parametrize(
    "text, route",
    [
        ((CONFIGS / "qp_preconditioned_uy.ini").read_text(),
         r"batch \(declared hessian\), oracle gap \d\.\de[+-]\d\d at 3 states"),
        (BIG_BILINEAR_AUGMENTED,
         r"batch \(declared hessian\), oracle gap \d\.\de[+-]\d\d at 3 states"),
    ],
    ids=["batch", "past_cap"],
)
def test_report_names_the_certificate_route_after_the_verdict(tmp_path, text, route):
    import re

    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "run.ini", text)), "--output-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    lines = report.splitlines()
    (i,) = [k for k, line in enumerate(lines) if line.startswith("certificate sandwich: ")]
    assert re.fullmatch("certificate route: " + route, lines[i + 1]), lines[i + 1]
    # the batch gaps are centred at z*: on the shipped uy run a vanishing gap
    # came out of them as -0.0, printed as -0.000e+00
    assert "-0.000e+00" not in report


def test_report_names_the_oracle_route_of_a_certificate_without_a_batch_form(tmp_path):
    # every certificate the CLI builds has a batch form; a report of one without it
    from dataclasses import replace

    from saddleflow.cli import _format_report, load_config, run_experiment

    cfg = _write(tmp_path, "quad.ini", QUADRATIC.replace("horizon = 20", "horizon = 1"))
    res = run_experiment(load_config(cfg))
    assert res.cert_report.route == "batch"
    res = replace(res, cert_report=replace(res.cert_report, route="oracle"))
    lines = _format_report(res).splitlines()
    (i,) = [k for k, line in enumerate(lines) if line.startswith("certificate sandwich: ")]
    assert lines[i + 1] == "certificate route: oracle at every state (no declared hessian)"


@pytest.mark.parametrize(
    "config, old, new, message",
    [
        ("qp_preconditioned_uy.ini", "space = uy", "space = zz", "space must be 'uy' or 'xy'"),
        ("lp_augmented.ini", "rho = 0.5", "rho = -1", "rho must be > 0"),
        ("lp_augmented.ini", "b = -1 -0.5 3", "b = -1 -0.5", "inconsistent LP shapes"),
        ("qp_preconditioned_uy.ini", "space = uy", "space = uy\neta = 0.2\nalpha = 1", "2*eta > l*alpha"),
    ],
)
def test_bad_algorithm_or_problem_data_is_config_error(tmp_path, capsys, config, old, new, message):
    text = (CONFIGS / config).read_text()
    assert old in text
    cfg = _write(tmp_path, config, text.replace(old, new))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("saddleflow: config error: ")
    assert message in err


@pytest.mark.parametrize(
    "config, old, new, message",
    [
        ("lp_augmented.ini", "c = 1 1", "c = 1 x", "bad vector '1 x'"),
        ("lp_augmented.ini", "seed = 0", "seed = 0\nz0 = 1 x", "bad vector '1 x'"),
        ("lp_augmented.ini", "seed = 0", "seed = 2.5", "key 'seed' must be an integer, got '2.5'"),
        ("quadratic_standard.ini", "mu = 1.0\n", "", "missing required key 'mu'"),
        ("mincostflow_augmented.ini", "file = network.txt", "file = missing.txt", "network file not found"),
        # a required data key of each kind that reads its data without a default
        ("lp_augmented.ini", "c = 1 1\n", "", "missing required key 'c'"),
        ("qp_proximal.ini", "p = 0 0\n", "", "missing required key 'p'"),
        ("separable_reduced.ini", "a_c = 1\n", "", "missing required key 'a_c'"),
        # a key the builder would drop: the rate-mu pick replaced a lone eta or alpha
        ("qp_preconditioned_uy.ini", "space = uy", "space = uy\neta = 5.0",
         "key 'eta' needs 'alpha' as well"),
        ("qp_preconditioned_uy.ini", "space = uy", "space = uy\nalpha = 0.5",
         "key 'alpha' needs 'eta' as well"),
        # the matrix fixed the shape and the norm
        ("bilinear_standard.ini", "matrix = 1.0", "matrix = 1.0\nn = 3",
         "keys 'matrix' and 'n' exclude each other"),
        ("quadratic_standard.ini", "coupling_norm = 0.5", "coupling_norm = 0.5\nmatrix = 1 0; 0 1; 0 0",
         "keys 'matrix' and 'n', 'm', 'coupling_norm' exclude each other"),
        # given data won over the seeded shape, and a lone b was dropped
        ("lasso_pipeline.ini", "lam = 0.5", "lam = 0.5\na = 1 0 0 0\nb = 1",
         "keys 'a', 'b' and 'n', 'm' exclude each other"),
        ("lasso_pipeline.ini", "lam = 0.5", "lam = 0.5\nb = 1 2 3 4 5 6", "key 'b' needs 'a' as well"),
        # alpha won over alpha_over_l
        ("lasso_pipeline.ini", "rho = 1.0", "rho = 1.0\nalpha = 0.1",
         "keys 'alpha' and 'alpha_over_l' exclude each other"),
        # a horizon past float range: the step count overflowed int()
        ("lp_augmented.ini", "horizon = 150", "horizon = inf", "key 'horizon' must be finite, got 'inf'"),
        ("lp_augmented.ini", "horizon = 150", "horizon = 1e400",
         "key 'horizon' must be finite, got '1e400'"),
        # a non-finite scalar reached the run and read as a numerical failure
        ("lp_augmented.ini", "rho = 0.5", "rho = inf", "key 'rho' must be finite, got 'inf'"),
        ("quadratic_standard.ini", "mu = 1.0", "mu = inf", "key 'mu' must be finite, got 'inf'"),
        # an empty matrix failed inside numpy with "need at least one array to concatenate"
        ("lp_augmented.ini", "a = -1 0; 0 -1; 1 1", "a = ", "the matrix is empty"),
        ("lp_augmented.ini", "record_every = 10", "record_every = 2.5",
         "key 'record_every' must be an integer, got '2.5'"),
        # an empty seeded block: the seeded matrix or its eigenvalues indexed nothing
        ("bilinear_standard.ini", "matrix = 1.0", "n = 0\nm = 1", "key 'n' must be >= 1, got '0'"),
        ("quadratic_standard.ini", "m = 2", "m = 0", "key 'm' must be >= 1, got '0'"),
        ("lasso_pipeline.ini", "n = 4", "n = 0", "key 'n' must be >= 1, got '0'"),
        # a non-finite entry reached the integrator and read as a numerical failure
        ("quadratic_standard.ini", "seed = 7", "seed = 7\nz0 = nan 1 1 1 1",
         "bad vector 'nan 1 1 1 1': entries must be finite"),
        ("qp_proximal.ini", "p = 0 0", "p = 0 inf", "bad vector '0 inf': entries must be finite"),
        # branches no other test reached
        ("lp_augmented.ini", "a = -1 0; 0 -1; 1 1", "a = -1 0; 0 -1; 1", "ragged matrix '-1 0; 0 -1; 1'"),
        ("lp_augmented.ini", "seed = 0", "seed = 0\n[experiment]", "section 'experiment' already exists"),
        ("lp_augmented.ini", "kind = augmented\n", "", "[algorithm] needs a 'kind' key"),
        ("lp_augmented.ini", "kind = lp", "kind = lq", "unknown problem kind 'lq'"),
        ("lp_augmented.ini", "step = 0.01", "step = fast", "key 'step' must be a number, got 'fast'"),
    ],
)
def test_every_config_error_names_its_config(tmp_path, capsys, config, old, new, message):
    text = (CONFIGS / config).read_text()
    assert old in text
    cfg = _write(tmp_path, config, text.replace(old, new))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"saddleflow: config error: {cfg}: ")
    assert message in err


def test_integrator_integers_parse_as_other_sections_do(tmp_path):
    from saddleflow.cli import load_config

    text = (CONFIGS / "lp_augmented.ini").read_text().replace("record_every = 10", "record_every = 1e1")
    assert load_config(_write(tmp_path, "lp_augmented.ini", text)).integrator.record_every == 10


def test_seed_is_parsed_exactly_past_float_precision(tmp_path):
    from saddleflow.cli import load_config

    text = (CONFIGS / "lp_augmented.ini").read_text().replace("seed = 0", f"seed = {2**60 + 1}")
    assert load_config(_write(tmp_path, "lp_augmented.ini", text)).seed == 2**60 + 1


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("record_every = 10", "record_every = 10\nclamp = false", "clamp"),  # a removed switch
        ("horizon = 150", "horizn = 5", "horizn"),  # a typo, not a silent default horizon
    ],
)
def test_unknown_integrator_key_is_config_error(tmp_path, capsys, old, new, key):
    text = (CONFIGS / "lp_augmented.ini").read_text()
    assert old in text
    cfg = _write(tmp_path, "lp_augmented.ini", text.replace(old, new))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"saddleflow: config error: {cfg}: unknown [integrator] key '{key}'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("step, horizon", [("1e-300", "1e10"), ("1e-290", "150")])
def test_a_step_count_past_2_to_53_is_config_error(tmp_path, capsys, step, horizon):
    # horizon / step is inf, then 1.5e292: the run would die counting or sizing its steps
    text = (CONFIGS / "lp_augmented.ini").read_text()
    text = text.replace("step = 0.01", f"step = {step}").replace("horizon = 150", f"horizon = {horizon}")
    cfg = _write(tmp_path, "lp_augmented.ini", text)
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"saddleflow: config error: {cfg}: bad integrator config: horizon / step must be < 2**53")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, old, new, section, key, allowed",
    [
        # a typo, not a silent rho = 1
        ("lp_augmented.ini", "rho = 0.5", "rh = 0.5", "algorithm", "rh", "kind, rho"),
        # a key of another section
        ("lp_augmented.ini", "c = 1 1", "c = 1 1\nrho = 2", "problem", "rho", "kind, c, a, b"),
        # a key another algorithm reads
        ("separable_reduced.ini", "kind = reduced", "kind = reduced\nrho = 2", "algorithm", "rho",
         "kind"),
        # the inner-solve tolerance is fixed, not a setting
        ("qp_proximal.ini", "rho = 1.0", "rho = 1.0\ninner_tol = 1e-8", "algorithm", "inner_tol",
         "kind, rho"),
        # a misspelt seed, not a silent seed 0
        ("lp_augmented.ini", "seed = 0", "sede = 5", "experiment", "sede", "seed, output_dir, z0"),
    ],
)
def test_unknown_problem_or_algorithm_key_is_config_error(
    tmp_path, capsys, config, old, new, section, key, allowed
):
    text = (CONFIGS / config).read_text()
    assert old in text
    cfg = _write(tmp_path, config, text.replace(old, new))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"saddleflow: config error: {cfg}: unknown [{section}] key '{key}' (allowed: {allowed})\n"
    )
    assert not (tmp_path / "out").exists()


class _Reads(dict):
    """A config section that records every key whose value the builders read.

    A membership test is not a read: a builder that checks a key and then
    runs without its value has dropped it.
    """

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            self.read.add(key)
        return super().get(key, default)


def test_every_shipped_config_loads_and_builds_reading_only_declared_keys():
    from saddleflow.cli import BUILDERS, PROBLEM_KEYS, build_setup, load_config

    assert set(PROBLEM_KEYS) == {p for p, _ in BUILDERS}
    for path in sorted(CONFIGS.glob("*.ini")):
        cfg = load_config(path)
        cfg.problem, cfg.algorithm = _Reads(cfg.problem), _Reads(cfg.algorithm)
        build_setup(cfg)
        assert cfg.problem.read <= set(PROBLEM_KEYS[cfg.problem_kind]), path.name
        assert cfg.algorithm.read <= set(BUILDERS[cfg.problem_kind, cfg.algorithm_kind][1]), path.name
        # and every key the config sets is read ('kind' is read by load_config)
        for section in (cfg.problem, cfg.algorithm):
            assert set(section) - {"kind"} <= section.read, path.name


def test_non_integral_integer_key_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "quad.ini", QUADRATIC.replace("n = 2", "n = 2.5"))
    assert main(["run", str(cfg), "--quiet"]) == 1
    assert "key 'n' must be an integer, got '2.5'" in capsys.readouterr().err


def test_compare_stops_at_a_bad_config_with_config_error(tmp_path, capsys):
    good = _write(tmp_path, "good.ini", QUADRATIC)
    bad = _write(tmp_path, "bad.ini", BILINEAR_AUGMENTED.replace("rho = 0.5", "rho = 0"))
    out = tmp_path / "cmp"
    assert main(["compare", str(good), str(bad), "--output-dir", str(out), "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "comparison.csv").exists()


def test_compare_refuses_configs_that_share_a_file_stem(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _write(tmp_path / "a", "x.ini", QUADRATIC)
    second = _write(tmp_path / "b", "x.ini", BILINEAR_AUGMENTED)
    out = tmp_path / "cmp"
    assert main(["compare", str(first), str(second), "--output-dir", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"{first} and {second} share the output directory {out / 'x'}" in err
    assert not out.exists()  # refused before any run


def test_singular_matrix_while_building_stays_numerical_failure(tmp_path, capsys, monkeypatch):
    import numpy as np

    import saddleflow.cli as cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "make_bilinear", singular)
    cfg = _write(tmp_path, "aug.ini", BILINEAR_AUGMENTED)
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
    assert "numerical failure: Singular matrix" in capsys.readouterr().err


def test_programming_error_is_not_reported_as_numerical_failure(tmp_path, monkeypatch):
    import saddleflow.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("not a numerical failure")

    monkeypatch.setattr(cli, "make_bilinear", broken)
    cfg = _write(tmp_path, "aug.ini", BILINEAR_AUGMENTED)
    with pytest.raises(RuntimeError, match="not a numerical failure"):
        main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"])


def test_allowed_algorithms_are_the_builder_table_keys(tmp_path, capsys):
    from saddleflow.cli import BUILDERS

    cfg = _write(tmp_path, "bad.ini", QUADRATIC.replace("kind = standard", "kind = lasso_pipeline"))
    assert main(["run", str(cfg)]) == 1
    assert "(allowed: standard, augmented, proximal)" in capsys.readouterr().err
    # every shipped config names a pair of the table
    for path in sorted(CONFIGS.glob("*.ini")):
        text = path.read_text()
        kinds = [line.split("=", 1)[1].strip() for line in text.splitlines() if line.startswith("kind")]
        assert tuple(kinds) in BUILDERS, path.name


def test_preconditioned_xy_takes_the_bound_of_the_uy_run(tmp_path):
    # x = u - alpha*A^T*y is a fixed linear map: with eta and alpha set by hand
    # the xy run has the uy run's bound, min(mu, q) of the preconditioned problem
    from saddleflow.cli import build_setup, load_config

    text = (CONFIGS / "qp_preconditioned_xy.ini").read_text().replace(
        "space = xy", "space = xy\neta = 1.0\nalpha = 0.1"
    ).replace("horizon = 30", "horizon = 150").replace("step = 0.002", "step = 0.01")
    xy = _write(tmp_path, "xy.ini", text)
    uy = _write(tmp_path, "uy.ini", text.replace("space = xy", "space = uy"))
    assert build_setup(load_config(xy)).c_bound == build_setup(load_config(uy)).c_bound
    out = tmp_path / "out"
    assert main(["run", str(xy), "--output-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "rate bound: 0.18 -> verdict: pass" in report
    # the xy run is the uy run recorded through that map: it is certified by strict_cc
    assert "certificate [strict_cc]: " in report
    assert "certificate sandwich: within 1e-09\n" in report


def test_preconditioned_xy_records_the_uy_run_through_its_map(tmp_path):
    # x = u - alpha*A^T*y of every recorded (u, y) state, also where the stage and
    # state clamps act on y: the constraint x2 <= 1 is slack, so y2 hits 0
    import numpy as np

    alpha = 0.1
    text = """
[experiment]
z0 = {z0}

[problem]
kind = qp_affine
q = 1 0; 0 2
p = 0 0
a = 1 0; 0 1
b = -1 1

[algorithm]
kind = preconditioned
space = {space}
eta = 1.0
alpha = {alpha}

[integrator]
step = 0.1
horizon = 200
record_every = 1
"""
    V = np.eye(4)
    V[:2, 2:] = -alpha * np.eye(2)  # A = I
    z0_uy = np.linalg.solve(V, np.ones(4))
    runs = {}
    for space, z0 in (("xy", np.ones(4)), ("uy", z0_uy)):
        z0_text = " ".join(f"{v:.17g}" for v in z0)
        cfg = _write(tmp_path, f"{space}.ini", text.format(z0=z0_text, space=space, alpha=alpha))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / space), "--quiet"]) == 0
        runs[space] = np.loadtxt(tmp_path / space / "trajectory.csv", delimiter=",", skiprows=1)
    uy, xy = runs["uy"], runs["xy"]
    assert ((uy[1:-1, 4] == 0.0) & (uy[:-2, 4] > 0.0)).any()  # the dual clamp fires
    assert np.array_equal(uy[:, 0], xy[:, 0])
    assert np.abs(uy[:, 1:] @ V.T - xy[:, 1:]).max() <= 1e-12
    report = (tmp_path / "xy" / "report.txt").read_text()
    assert "verdict: pass" in report
    assert "certificate [strict_cc]: " in report


def test_preconditioned_xy_start_outside_the_box_keeps_its_x(tmp_path):
    # z0 is in recorded coordinates: the start clamp moves y and leaves x
    import numpy as np

    text = (CONFIGS / "qp_preconditioned_xy.ini").read_text().replace(
        "seed = 0", "seed = 0\nz0 = 1 1 -1 1"
    ).replace("horizon = 30", "horizon = 0.1")
    cfg = _write(tmp_path, "xy.ini", text)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="initial state outside the feasible set by 1.000e\\+00"):
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    first = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[0]
    assert np.abs(first[1:] - [1.0, 1.0, 0.0, 1.0]).max() <= 1e-12


def test_every_shipped_flow_with_a_feasible_set_is_a_projected_flow():
    # feasibility is enforced in one place: the projection projected_flow
    # sets, inside its closure or as the box of an affine field
    from saddleflow.cli import build_setup, load_config
    from saddleflow.flows import AffineField

    projected = 0
    for path in sorted(CONFIGS.glob("*.ini")):
        flow = build_setup(load_config(path)).flow
        if flow.feasible is not None:
            if isinstance(flow.field, AffineField):
                assert flow.field.box is flow.feasible, path.name
            else:
                assert flow.field.__qualname__ == "projected_flow.<locals>.field", path.name
            projected += 1
    assert projected == 7


def test_bilinear_standard_reports_strict_cc_not_applicable(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "bilinear_standard.ini"), "--output-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert (
        "certificate: skipped (not applicable: strict_cc needs mu > 0 and q > 0, got mu=0.0, q=0.0)\n"
        in report
    )
    assert "certificate [" not in report
    assert "WARNING" not in report


def _closed_form_bound(path):
    """The bound of a shipped config from the raw constants of its problem."""
    import saddleflow as sf
    from saddleflow.cli import _build_problem, load_config

    from helpers import rate_bound_precond, rate_bound_reduced

    cfg = load_config(path)
    built, _ = _build_problem(cfg)
    kind, algo = cfg.algorithm_kind, cfg.algorithm
    rho = float(algo.get("rho", 1.0))
    if kind == "standard" and built.meta.mu > 0 and built.meta.q > 0:
        return sf.rate_bound_strong(built.meta.mu, built.meta.q)
    if kind == "proximal" and cfg.problem_kind == "quadratic_saddle":
        return sf.rate_bound_proximal(built.meta.mu, built.meta.l, built.meta.kappa, rho, built.meta.q)
    if kind == "proximal":
        return sf.rate_bound_proximal(built.f.mu, built.f.l, built.kappa, rho)
    if kind == "preconditioned":
        bundle = sf.separable_qp_bundle(built) if cfg.problem_kind == "separable_qp" else built
        eta, alpha = sf.precond_params_pick(bundle.f.mu, bundle.f.l, bundle.kappa)
        return rate_bound_precond(bundle.f.mu, bundle.f.l, bundle.kappa, eta, alpha)
    if kind == "reduced":
        return rate_bound_reduced(built.f_c.mu, built.f_s.l, built.kappa_s)
    return None  # bilinear standard, the augmented flows and the Lasso pipeline


def _coarse(tmp_path, path):
    """A copy of a shipped config at five times its step: same records, less run time."""
    import re

    text = path.read_text().replace("file = network.txt", f"file = {CONFIGS / 'network.txt'}")
    text = re.sub(r"^step = (.*)$", lambda s: f"step = {5 * float(s[1]):g}", text, flags=re.M)
    text = re.sub(r"^record_every = (.*)$", lambda r: f"record_every = {int(r[1]) // 5}", text,
                  flags=re.M)
    return str(_write(tmp_path, path.name, text))


@pytest.mark.parametrize(
    "config, reason",
    [
        ("lasso_pipeline.ini", "no certificate of the Lasso dual-proximal flow"),
        ("qp_proximal.ini", "no certificate of the proximal primal-dual flow"),
    ],
)
def test_runs_without_a_certificate_say_so(tmp_path, config, reason):
    out = tmp_path / "out"
    assert main(["run", _coarse(tmp_path, CONFIGS / config), "--output-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "equilibrium: " in report and "equilibrium: not found" not in report
    assert f"certificate: skipped (not applicable: {reason})\n" in report


def test_rates_csv_bound_of_every_shipped_config_is_its_closed_form(tmp_path, monkeypatch):
    # the CLI reads the bound off the meta of the problem the flow runs on; the
    # closed forms take the raw constants. Five times the shipped step keeps the
    # records and the bound and cuts the run time. The same runs check that
    # every certificate's batch form matches its oracle forms at every state.
    import saddleflow.cli as cli

    from helpers import assert_batch_matches_the_oracle

    evaluate, certified = cli.cert.eval_certificate, []

    def checked(cert, traj, flow=None):
        assert_batch_matches_the_oracle(cert, traj)
        certified.append(cert.label)
        return evaluate(cert, traj, flow=flow)

    monkeypatch.setattr(cli.cert, "eval_certificate", checked)
    paths = [_coarse(tmp_path, path) for path in sorted(CONFIGS.glob("*.ini"))]
    out = tmp_path / "out"
    assert main(["compare", *paths, "--output-dir", str(out), "--quiet"]) == 0
    bounded = 0
    for path in sorted(CONFIGS.glob("*.ini")):
        with open(out / path.stem / "rates.csv") as fh:
            (row,) = csv.DictReader(fh)
        expected = _closed_form_bound(path)
        assert row["verdict"] != "none", path.name
        assert (float(row["c_bound"]) if row["c_bound"] else None) == expected, path.name
        bounded += expected is not None
        equilibrium = (out / path.stem / "report.txt").read_text().split("\nequilibrium: ")[1]
        assert equilibrium.startswith(("hint\n", "detected\n")), path.name
    assert bounded == 7
    # all but bilinear_standard, lasso_pipeline and qp_proximal
    assert len(certified) == 9


def test_a_wrong_saddle_hint_is_rejected_and_named():
    # S(x, y) = x^2/2 + xy - y^2, saddle at the origin, built by hand with a
    # wrong analytic saddle: detection finds the origin and names the hint
    import numpy as np

    import saddleflow as sf
    from saddleflow.cli import _resolve_equilibrium

    def problem(saddle):
        return sf.SaddleProblem(
            n=1, m=1, value=lambda x, y: float(0.5 * x @ x + x @ y - y @ y),
            grad_x=lambda x, y: x + y, grad_y=lambda x, y: x - 2.0 * y,
            meta=sf.ConvexityMeta(mu=1.0, q=2.0), saddle=saddle,
        )

    config = sf.IntegratorConfig(step=0.01, horizon=30.0, record_every=10)
    wrong = sf.standard_flow(problem(np.array([1.0, 0.5])))
    traj = sf.integrate(wrong, [1.0, 1.0], config)
    converged = wrong.residual(traj.final_state) <= cli.RESIDUAL_TOL
    assert converged
    z, how = _resolve_equilibrium(wrong, traj, converged)
    assert how == "detected; hint [1.  0.5] rejected (residual 1.500e+00 > 1e-06)"
    assert np.abs(z).max() <= 1e-6
    # a run that has not converged has no z*, and still names the hint it rejected
    assert _resolve_equilibrium(wrong, traj, False) == (
        None, "not found; hint [1.  0.5] rejected (residual 1.500e+00 > 1e-06)"
    )
    right = sf.standard_flow(problem(np.zeros(2)))
    assert _resolve_equilibrium(right, traj, converged)[1] == "hint"
    assert _resolve_equilibrium(right, traj, False)[1] == "hint"


def test_bilinear_standard_prints_no_r_squared_for_its_flat_distance(tmp_path):
    # the undamped bilinear flow circles its saddle: ln d moves by about 1e-13
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "bilinear_standard.ini"), "--output-dir", str(out), "--quiet"]) == 0
    with open(out / "rates.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["r_squared"] == "nan" and row["verdict"] == "no_bound"
    assert abs(float(row["c_fit"])) <= 1e-12
    assert "(r^2=nan, window=[0, 20])" in (out / "report.txt").read_text()


def test_python_m_saddleflow_runs_a_shipped_config(tmp_path):
    path = [str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "saddleflow", "run", str(CONFIGS / "quadratic_standard.ini"),
         "--output-dir", str(tmp_path / "out"), "--quiet"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    written = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert written == ["rates.csv", "report.txt", "trajectory.csv"]
