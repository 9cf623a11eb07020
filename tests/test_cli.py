import csv
from pathlib import Path

import pytest

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
method = euler
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
    assert "numerical failure" in capsys.readouterr().err


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


def test_report_without_equilibrium_gives_reasons(tmp_path):
    text = (CONFIGS / "separable_reduced.ini").read_text().replace("horizon = 40", "horizon = 0.1")
    cfg = _write(tmp_path, "reduced_short.ini", text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "equilibrium: not found" in report
    assert "fitted rate: unavailable (no equilibrium found)" in report
    assert "certificate: skipped (no equilibrium found)" in report


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


def test_singular_matrix_while_building_stays_numerical_failure(tmp_path, capsys, monkeypatch):
    import numpy as np

    import saddleflow.cli as cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "make_bilinear", singular)
    cfg = _write(tmp_path, "aug.ini", BILINEAR_AUGMENTED)
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
    assert "numerical failure: Singular matrix" in capsys.readouterr().err


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
