"""Command-line experiment runner.

``saddleflow run <config>`` builds a problem and an algorithm from an INI
config, integrates the flow, fits the empirical decay rate against the
applicable theoretical bound, evaluates the matching certificate, and writes
trajectory.csv, rates.csv, and report.txt. ``saddleflow compare <configs>``
runs several configs in turn and writes a comparison table.

Exit codes: 0 success, 1 config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import certificates as cert
from ._inner import InnerSolveError
from .core import PointZ, SaddleProblem
from .flows import Flow, preconditioned_pd, proximal_primal_dual, standard_flow
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    RateReport,
    Trajectory,
    detect_equilibrium,
    distance_series,
    fit_rate,
    integrate,
    lyapunov_series,
    max_increment,
)
from .problems import (
    make_bilinear,
    make_lasso,
    make_lp,
    make_min_cost_flow,
    make_qp_affine,
    make_quadratic_saddle,
    make_separable_qp,
    parse_network,
    separable_qp_bundle,
    LinearProgram,
)
from .transforms import (
    InnerSolveConfig,
    augment,
    precondition,
    proximal_surrogate,
    reduce as reduce_transform,
)

__all__ = ["main", "ConfigError", "run_experiment", "compare_experiments"]

RESIDUAL_TOL = 1e-6


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# config parsing


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.replace(",", " ").split()])
    except ValueError as err:
        raise ConfigError(f"bad vector {text!r}: {err}") from None


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in (row.strip() for row in text.split(";")) if r]
    mat = [_parse_vector(r) for r in rows]
    if len({row.shape[0] for row in mat}) > 1:
        raise ConfigError(f"ragged matrix {text!r}")
    return np.vstack(mat)


@dataclass
class ExperimentConfig:
    path: Path
    seed: int
    output_dir: Path
    problem_kind: str
    problem: dict
    algorithm_kind: str
    algorithm: dict
    integrator: IntegratorConfig
    z0: Optional[np.ndarray]
    quiet: bool = False


def load_config(
    path,
    output_dir: Optional[str] = None,
    seed: Optional[int] = None,
    quiet: bool = False,
) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        ini.read(path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    for section in ("problem", "algorithm", "integrator"):
        if section not in ini:
            raise ConfigError(f"{path}: missing [{section}] section")

    exp = ini["experiment"] if "experiment" in ini else {}
    cfg_seed = seed if seed is not None else int(exp.get("seed", "0"))
    out = Path(output_dir) if output_dir is not None else Path(exp.get("output_dir", "saddleflow_out"))

    prob = dict(ini["problem"])
    algo = dict(ini["algorithm"])
    for section, d in (("problem", prob), ("algorithm", algo)):
        if "kind" not in d:
            raise ConfigError(f"{path}: [{section}] needs a 'kind' key")
    allowed = [a for p, a in BUILDERS if p == prob["kind"]]
    if not allowed:
        raise ConfigError(f"{path}: unknown problem kind {prob['kind']!r}")
    if algo["kind"] not in allowed:
        raise ConfigError(
            f"{path}: algorithm {algo['kind']!r} is not compatible with problem "
            f"{prob['kind']!r} (allowed: {', '.join(allowed)})"
        )

    integ = ini["integrator"]
    keys = [f.name for f in fields(IntegratorConfig)]
    unknown = [k for k in integ if k not in keys]
    if unknown:
        raise ConfigError(
            f"{path}: unknown [integrator] key {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(keys)})"
        )
    try:
        integrator = IntegratorConfig(
            method=integ.get("method", "rk4"),
            step=float(integ.get("step", "1e-3")),
            horizon=float(integ.get("horizon", "10")),
            record_every=int(integ.get("record_every", "10")),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: bad integrator config: {err}") from None

    z0 = _parse_vector(exp["z0"]) if "z0" in exp else None
    return ExperimentConfig(
        path=path,
        seed=cfg_seed,
        output_dir=out,
        problem_kind=prob["kind"],
        problem=prob,
        algorithm_kind=algo["kind"],
        algorithm=algo,
        integrator=integrator,
        z0=z0,
        quiet=quiet,
    )


def _get_float(d: dict, key: str, default: Optional[float] = None) -> float:
    if key not in d:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return float(d[key])
    except ValueError:
        raise ConfigError(f"key '{key}' must be a number, got {d[key]!r}") from None


def _get_int(d: dict, key: str, default: Optional[int] = None) -> int:
    value = _get_float(d, key, default if default is None else float(default))
    if not value.is_integer():
        raise ConfigError(f"key '{key}' must be an integer, got {d[key]!r}")
    return int(value)


# ---------------------------------------------------------------------------
# building flows from configs


@dataclass
class RunSetup:
    flow: Flow
    label: str
    problem_desc: str
    c_bound: Optional[float] = None
    # builds the matching certificate once an equilibrium is known
    cert_builder: Optional[Callable[[np.ndarray], cert.Certificate]] = None
    # maps a converged state to a problem-level summary line
    recover: Optional[Callable[[np.ndarray], str]] = None


def _seeded_matrix(rng, n: int, m: int, spectral_norm: float) -> np.ndarray:
    B = rng.standard_normal((n, m))
    s = np.linalg.svd(B, compute_uv=False)[0]
    return B * (spectral_norm / s)


def _build_problem(cfg: ExperimentConfig):
    kind = cfg.problem_kind
    p = cfg.problem
    rng = np.random.default_rng(cfg.seed)
    if kind == "bilinear":
        if "matrix" in p:
            M = _parse_matrix(p["matrix"])
        else:
            M = _seeded_matrix(rng, _get_int(p, "n"), _get_int(p, "m"), _get_float(p, "coupling_norm", 1.0))
        return make_bilinear(M), f"bilinear (n={M.shape[0]}, m={M.shape[1]})"
    if kind == "quadratic_saddle":
        mu = _get_float(p, "mu")
        q = _get_float(p, "q")
        if "matrix" in p:
            B = _parse_matrix(p["matrix"])
        else:
            B = _seeded_matrix(rng, _get_int(p, "n"), _get_int(p, "m"), _get_float(p, "coupling_norm", 0.5))
        return (
            make_quadratic_saddle(mu, q, B),
            f"quadratic_saddle (mu={mu}, q={q}, n={B.shape[0]}, m={B.shape[1]})",
        )
    if kind == "lp":
        lp = LinearProgram(
            c=_parse_vector(p["c"]), A=_parse_matrix(p["a"]), b=_parse_vector(p["b"])
        )
        return make_lp(lp), f"lp (n={lp.n}, m={lp.b.shape[0]})"
    if kind == "min_cost_flow":
        if "file" not in p:
            raise ConfigError("min_cost_flow needs a 'file' key")
        net_path = Path(p["file"])
        if not net_path.is_absolute():
            net_path = cfg.path.parent / net_path
        if not net_path.is_file():
            raise ConfigError(f"network file not found: {net_path}")
        net = parse_network(net_path)
        return net, f"min_cost_flow ({net.num_nodes} nodes, {net.num_edges} edges)"
    if kind == "qp_affine":
        bundle = make_qp_affine(
            _parse_matrix(p["q"]), _parse_vector(p["p"]),
            _parse_matrix(p["a"]), _parse_vector(p["b"]),
        )
        return bundle, f"qp_affine (n={bundle.f.dim}, m={bundle.A.shape[0]})"
    if kind == "separable_qp":
        sep = make_separable_qp(
            _parse_matrix(p["q_s"]), _parse_vector(p["p_s"]),
            _parse_matrix(p["q_c"]), _parse_vector(p["p_c"]),
            _parse_matrix(p["a_s"]), _parse_matrix(p["a_c"]), _parse_vector(p["b"]),
        )
        return sep, f"separable_qp (n_s={sep.f_s.dim}, n_c={sep.f_c.dim}, m={sep.b.shape[0]})"
    if kind == "lasso":
        lam = _get_float(p, "lam")
        if "a" in p:
            A = _parse_matrix(p["a"])
            b = _parse_vector(p["b"])
        else:
            n, m = _get_int(p, "n"), _get_int(p, "m")
            A = rng.standard_normal((m, n)) / np.sqrt(m)
            b = rng.standard_normal(m)
        bundle = make_lasso(A, b, lam)
        return bundle, f"lasso (n={bundle.n}, m={A.shape[0]}, lam={lam})"
    raise ConfigError(f"unknown problem kind {kind!r}")


def _inner_config(algo: dict) -> InnerSolveConfig:
    return InnerSolveConfig(
        tol=_get_float(algo, "inner_tol", 1e-10),
        max_iters=_get_int(algo, "inner_max_iters", 100),
    )


def _strict_cc(problem: SaddleProblem) -> Callable[[np.ndarray], cert.Certificate]:
    n = problem.n
    return lambda z: cert.cert_strict_cc(problem, PointZ(z[:n], z[n:]))


def _standard(problem: SaddleProblem, desc: str, algo: dict) -> RunSetup:
    meta = problem.meta
    c_bound = cert.rate_bound_strong(meta.mu, meta.q) if meta.mu and meta.q else None
    builder = _strict_cc(problem) if problem.convex_concave else None
    return RunSetup(flow=standard_flow(problem), label="standard", problem_desc=desc,
                    c_bound=c_bound, cert_builder=builder)


def _augmented(problem: SaddleProblem, desc: str, algo: dict, recover=None) -> RunSetup:
    rho = _get_float(algo, "rho", 1.0)
    flow = standard_flow(augment(problem, rho).problem)
    n, m = problem.n, problem.m

    def builder(z):
        z_star = PointZ(z[:n], z[2 * n : 2 * n + m])
        return cert.cert_augmented(rho, n, m, problem=problem, z_star=z_star)

    return RunSetup(flow=flow, label=f"augmented(rho={rho})", problem_desc=desc,
                    cert_builder=builder, recover=recover)


def _augmented_network(net, desc: str, algo: dict) -> RunSetup:
    problem, recover_map = make_min_cost_flow(net)

    def recover(z):
        x, val = recover_map(z)
        return f"edge flows {np.array2string(x, precision=6)}, objective {val:.9g}"

    return _augmented(problem, desc, algo, recover)


def _proximal(problem: SaddleProblem, desc: str, algo: dict) -> RunSetup:
    rho = _get_float(algo, "rho", 1.0)
    surrogate = proximal_surrogate(problem, rho, _inner_config(algo))
    flow = replace(standard_flow(surrogate.problem), reset=surrogate.reset)
    meta = problem.meta
    c_bound = None
    if meta.mu and meta.l and meta.kappa:
        c_bound = cert.rate_bound_proximal(meta.mu, meta.l, meta.kappa, rho)
    n = problem.n
    builder = lambda z: cert.cert_proximal(surrogate, PointZ(z[:n], z[n:]))
    return RunSetup(flow=flow, label=f"proximal(rho={rho})", problem_desc=desc,
                    c_bound=c_bound, cert_builder=builder)


def _proximal_pd(bundle, desc: str, algo: dict) -> RunSetup:
    rho = _get_float(algo, "rho", 1.0)
    flow = proximal_primal_dual(bundle.f, bundle.constraints(), rho, _inner_config(algo))
    c_bound = cert.rate_bound_proximal(bundle.f.mu, bundle.f.l, bundle.kappa, rho)
    return RunSetup(flow=flow, label=f"proximal_pd(rho={rho})", problem_desc=desc,
                    c_bound=c_bound)


def _preconditioned(bundle, desc: str, algo: dict) -> RunSetup:
    space = algo.get("space", "uy")
    if space not in ("uy", "xy"):
        raise ConfigError(f"space must be 'uy' or 'xy', got {space!r}")
    if "eta" in algo and "alpha" in algo:
        eta, alpha = _get_float(algo, "eta"), _get_float(algo, "alpha")
    else:
        eta, alpha = cert.precond_params_pick(bundle.f.mu, bundle.f.l, bundle.kappa)
    transform = precondition(bundle.f, bundle.A, bundle.b, eta, alpha)
    label = f"preconditioned({space}, eta={eta:.6g}, alpha={alpha:.6g})"
    if space == "xy":
        return RunSetup(flow=preconditioned_pd(transform), label=label, problem_desc=desc,
                        c_bound=bundle.f.mu)
    c_bound = cert.rate_bound_precond(bundle.f.mu, bundle.f.l, bundle.kappa, eta, alpha)
    return RunSetup(flow=standard_flow(transform.problem), label=label, problem_desc=desc,
                    c_bound=c_bound, cert_builder=_strict_cc(transform.problem))


def _preconditioned_separable(sep, desc: str, algo: dict) -> RunSetup:
    return _preconditioned(separable_qp_bundle(sep), desc, algo)


def _reduced(sep, desc: str, algo: dict) -> RunSetup:
    reduced = reduce_transform(sep, _inner_config(algo))
    flow = replace(standard_flow(reduced.problem), reset=reduced.reset)
    c_bound = cert.rate_bound_reduced(sep.f_c.mu, sep.f_s.l, sep.kappa_s)
    return RunSetup(flow=flow, label="reduced_pd", problem_desc=desc,
                    c_bound=c_bound, cert_builder=_strict_cc(reduced.problem))


def _lasso_pipeline(bundle, desc: str, algo: dict) -> RunSetup:
    alpha_scale = _get_float(algo, "alpha_over_l", 1.0)
    alpha = _get_float(algo, "alpha", alpha_scale / bundle.l if bundle.l > 0 else 1.0)
    rho = _get_float(algo, "rho", 1.0)
    transform, flow = bundle.dynamics(alpha, rho, _inner_config(algo))

    def recover(z):
        xhat = bundle.recover_xhat(transform, z)
        return f"x_hat {np.array2string(xhat, precision=6)}"

    return RunSetup(flow=flow, label=f"lasso_pipeline(alpha={alpha:.6g}, rho={rho})",
                    problem_desc=desc, recover=recover)


# (problem kind, algorithm kind) -> builder(problem, description, [algorithm] section);
# the compatible pairs are exactly the keys, in the order "allowed:" lists them
BUILDERS = {
    ("bilinear", "standard"): _standard,
    ("bilinear", "augmented"): _augmented,
    ("quadratic_saddle", "standard"): _standard,
    ("quadratic_saddle", "augmented"): _augmented,
    ("quadratic_saddle", "proximal"): _proximal,
    ("lp", "augmented"): _augmented,
    ("min_cost_flow", "augmented"): _augmented_network,
    ("qp_affine", "proximal"): _proximal_pd,
    ("qp_affine", "preconditioned"): _preconditioned,
    ("separable_qp", "reduced"): _reduced,
    ("separable_qp", "preconditioned"): _preconditioned_separable,
    ("lasso", "lasso_pipeline"): _lasso_pipeline,
}


def build_setup(cfg: ExperimentConfig) -> RunSetup:
    """The flow and its analysis hooks for a loaded config.

    Bad problem data or algorithm parameters (a ``ValueError`` from the
    library) are config errors; a singular matrix stays a numerical failure.
    """
    try:
        built, desc = _build_problem(cfg)
        return BUILDERS[cfg.problem_kind, cfg.algorithm_kind](built, desc, cfg.algorithm)
    except np.linalg.LinAlgError:
        raise
    except ValueError as err:
        raise ConfigError(f"{cfg.path}: {err}") from None


# ---------------------------------------------------------------------------
# running


@dataclass
class RunResult:
    config: ExperimentConfig
    setup: RunSetup
    trajectory: Trajectory
    wall_time: float
    initial_residual: float
    final_residual: float
    converged: bool
    z_star: Optional[np.ndarray] = None
    rate: Optional[RateReport] = None
    lyapunov_increment: Optional[float] = None
    cert_report: Optional[cert.CertificateReport] = None
    cert_label: str = ""
    recover_line: str = ""
    equilibrium_how: str = "not found"
    # why the rate fit or the certificate is missing; empty when present
    rate_skipped: str = ""
    cert_skipped: str = ""


def _resolve_equilibrium(flow: Flow, traj: Trajectory, config: IntegratorConfig):
    if flow.equilibrium_hint is not None:
        return flow.equilibrium_hint, "hint"
    z = detect_equilibrium(flow, traj, RESIDUAL_TOL)
    if z is not None:
        return z, "detected"
    ref_cfg = replace(
        config, horizon=10.0 * config.horizon, record_every=max(1, 10 * config.record_every)
    )
    ref = integrate(flow, traj.states[0], ref_cfg)
    z = detect_equilibrium(flow, ref, RESIDUAL_TOL)
    if z is not None:
        return z, "detected (10x-horizon reference run)"
    return None, "not found"


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    setup = build_setup(cfg)
    if cfg.z0 is not None and cfg.z0.shape != (setup.flow.dim,):
        raise ConfigError(
            f"z0 has dimension {cfg.z0.shape[0]}, the flow expects {setup.flow.dim}"
        )
    z0 = cfg.z0 if cfg.z0 is not None else np.ones(setup.flow.dim)
    t0 = time.perf_counter()
    traj = integrate(setup.flow, z0, cfg.integrator)
    wall = time.perf_counter() - t0

    r0 = setup.flow.residual(traj.states[0])
    r1 = setup.flow.residual(traj.final_state)
    converged = r1 <= RESIDUAL_TOL

    z_star, how = _resolve_equilibrium(setup.flow, traj, cfg.integrator)
    rate = None
    rate_skipped = ""
    lyap = None
    if z_star is None:
        rate_skipped = "no equilibrium found"
    else:
        series = distance_series(traj, z_star)
        try:
            rate = fit_rate(series, c_bound=setup.c_bound)
        except ValueError as err:
            rate_skipped = str(err)
        lyap = max_increment(lyapunov_series(traj, z_star))

    cert_report = None
    cert_label = ""
    cert_skipped = ""
    if setup.cert_builder is not None:
        if z_star is None:
            cert_skipped = "no equilibrium found"
        else:
            try:
                certificate = setup.cert_builder(z_star)
                cert_report = cert.eval_certificate(certificate, traj, flow=setup.flow)
                cert_label = certificate.label
            except ValueError as err:
                cert_skipped = str(err)

    recover_line = ""
    if setup.recover is not None and converged:
        recover_line = setup.recover(traj.final_state)

    return RunResult(
        config=cfg,
        setup=setup,
        trajectory=traj,
        wall_time=wall,
        initial_residual=r0,
        final_residual=r1,
        converged=converged,
        z_star=z_star,
        rate=rate,
        lyapunov_increment=lyap,
        cert_report=cert_report,
        cert_label=cert_label,
        recover_line=recover_line,
        equilibrium_how=how,
        rate_skipped=rate_skipped,
        cert_skipped=cert_skipped,
    )


def _format_report(res: RunResult) -> str:
    cfg, setup = res.config, res.setup
    lines = [
        "saddleflow experiment report",
        f"config: {cfg.path}",
        f"seed: {cfg.seed}",
        f"problem: {setup.problem_desc}",
        f"algorithm: {setup.label}",
        f"integrator: {cfg.integrator.method}, step={cfg.integrator.step}, "
        f"horizon={cfg.integrator.horizon}",
        f"wall time: {res.wall_time:.3f} s",
        f"initial residual: {res.initial_residual:.6e}",
        f"final residual: {res.final_residual:.6e}",
    ]
    if res.converged:
        lines.append(f"converged: yes (residual <= {RESIDUAL_TOL:g})")
    elif res.final_residual > 0.5 * res.initial_residual:
        lines.append("converged: NO -- residual not decreasing (flagged non-convergence)")
    else:
        lines.append("converged: not yet (residual still decreasing)")
    lines.append(f"equilibrium: {res.equilibrium_how}")
    if res.rate is not None:
        r = res.rate
        bound = "none" if r.c_bound is None else f"{r.c_bound:.6g}"
        lines.append(
            f"fitted rate: c_fit={r.c_fit:.6g} (r^2={r.r_squared:.6f}, "
            f"window=[{r.window[0]:.4g}, {r.window[1]:.4g}])"
        )
        lines.append(f"rate bound: {bound} -> verdict: {r.verdict}")
    else:
        lines.append(f"fitted rate: unavailable ({res.rate_skipped})")
    if res.lyapunov_increment is not None:
        lines.append(f"lyapunov max increment: {res.lyapunov_increment:.3e}")
    if res.cert_report is not None:
        c = res.cert_report
        lines.append(
            f"certificate [{res.cert_label}]: min_entry=({c.min_entry[0]:.3e}, "
            f"{c.min_entry[1]:.3e}), max_bracket_violation={c.max_bracket_violation:.3e}, "
            f"final=({c.final_values[0]:.3e}, {c.final_values[1]:.3e})"
        )
        if c.observability_violated:
            lines.append("WARNING: certificate vanished while the flow residual did not")
    elif res.cert_skipped:
        lines.append(f"certificate: skipped ({res.cert_skipped})")
    if res.recover_line:
        lines.append(f"recovered solution: {res.recover_line}")
    return "\n".join(lines) + "\n"


def _write_rates_csv(path: Path, res: RunResult) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("c_fit,c_bound,r_squared,window_start,window_end,verdict\n")
        if res.rate is None:
            fh.write(",,,,,none\n")
        else:
            r = res.rate
            bound = "" if r.c_bound is None else f"{r.c_bound:.17g}"
            fh.write(
                f"{r.c_fit:.17g},{bound},{r.r_squared:.17g},"
                f"{r.window[0]:.17g},{r.window[1]:.17g},{r.verdict}\n"
            )


def _run_to_files(cfg: ExperimentConfig, out_dir: Path) -> RunResult:
    res = run_experiment(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    res.trajectory.write_csv(out_dir / "trajectory.csv")
    _write_rates_csv(out_dir / "rates.csv", res)
    (out_dir / "report.txt").write_text(_format_report(res))
    return res


def compare_experiments(configs: list[ExperimentConfig], out_dir: Path) -> Path:
    """Run the configs one after another; returns the comparison CSV path."""
    results = [_run_to_files(c, out_dir / c.path.stem) for c in configs]
    out_dir.mkdir(parents=True, exist_ok=True)
    table = out_dir / "comparison.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", "c_bound", "c_fit", "wall_time", "final_residual"])
        for res in results:
            writer.writerow(
                [
                    res.setup.label,
                    "" if res.setup.c_bound is None else f"{res.setup.c_bound:.17g}",
                    "" if res.rate is None else f"{res.rate.c_fit:.17g}",
                    f"{res.wall_time:.6f}",
                    f"{res.final_residual:.17g}",
                ]
            )
    return table


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(prog="saddleflow", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_cmp = sub.add_parser("compare", help="run several configs and tabulate")
    p_cmp.add_argument("configs", nargs="*")
    for p in (p_run, p_cmp):
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")

    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("a command is required: run | compare")
        if args.command == "run":
            cfg = load_config(args.config, args.output_dir, args.seed, args.quiet)
            try:
                res = _run_to_files(cfg, cfg.output_dir)
            except (IntegrationError, InnerSolveError, np.linalg.LinAlgError, RuntimeError) as err:
                print(f"saddleflow: numerical failure: {err}", file=sys.stderr)
                return 2
            if not cfg.quiet:
                print(_format_report(res), end="")
            return 0
        # compare
        if not args.configs:
            raise ConfigError("compare needs at least one config file")
        configs = [
            load_config(p, None, args.seed, args.quiet) for p in args.configs
        ]
        out_dir = Path(args.output_dir) if args.output_dir else Path("saddleflow_out")
        try:
            table = compare_experiments(configs, out_dir)
        except (IntegrationError, InnerSolveError, np.linalg.LinAlgError, RuntimeError) as err:
            print(f"saddleflow: numerical failure: {err}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(table.read_text(), end="")
        return 0
    except ConfigError as err:
        print(f"saddleflow: config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"saddleflow: config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
