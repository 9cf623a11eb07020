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
import functools
import io
import locale
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import certificates as cert
from ._inner import InnerSolveError
from .core import SaddleProblem
from .flows import Flow, standard_flow
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    RateReport,
    Trajectory,
    _overwrite,
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
    qp_lagrangian,
    separable_qp_bundle,
    LinearProgram,
)
from .transforms import augment, precondition, proximal_surrogate, reduce as reduce_transform

__all__ = ["main", "ConfigError", "run_experiment", "compare_experiments"]

RESIDUAL_TOL = 1e-6


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# config parsing
#
# The parse helpers and the builders raise ValueError; ``load_config`` and
# ``build_setup`` turn it into a ConfigError that names the config path.


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.replace(",", " ").split()])
    except ValueError as err:
        raise ValueError(f"bad vector {text!r}: {err}") from None
    if not np.isfinite(vec).all():
        raise ValueError(f"bad vector {text!r}: entries must be finite")
    return vec


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in (row.strip() for row in text.split(";")) if r]
    if not rows:
        raise ValueError(f"bad matrix {text!r}: the matrix is empty")
    mat = [_parse_vector(r) for r in rows]
    if len({row.shape[0] for row in mat}) > 1:
        raise ValueError(f"ragged matrix {text!r}")
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


def load_config(path, output_dir: Optional[str] = None, seed: Optional[int] = None) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        ini.read(path)
    except configparser.Error as err:
        raise ConfigError(f"{path}: cannot parse: {err}") from None
    for section in ("problem", "algorithm", "integrator"):
        if section not in ini:
            raise ConfigError(f"{path}: missing [{section}] section")

    exp = ini["experiment"] if "experiment" in ini else {}
    _check_keys(path, "experiment", exp, ("seed", "output_dir", "z0"))
    try:
        cfg_seed = seed if seed is not None else _get_int(exp, "seed", 0)
        z0 = _parse_vector(exp["z0"]) if "z0" in exp else None
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None
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
    _check_keys(path, "problem", prob, ("kind",) + PROBLEM_KEYS[prob["kind"]])
    _check_keys(path, "algorithm", algo, ("kind",) + BUILDERS[prob["kind"], algo["kind"]][1])

    integ = ini["integrator"]
    _check_keys(path, "integrator", integ, ("method", "step", "horizon", "record_every"))
    try:
        if integ.get("method", "rk4") != IntegratorConfig.method:  # every config writes it
            raise ValueError(f"method must be 'rk4', the only method, got {integ['method']!r}")
        integrator = IntegratorConfig(
            step=_get_float(integ, "step", 1e-3),
            horizon=_get_float(integ, "horizon", 10.0),
            record_every=_get_int(integ, "record_every", 10),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: bad integrator config: {err}") from None

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
    )


def _check_keys(path: Path, section: str, present, allowed: tuple) -> None:
    """A key the code does not read would run silently at its default."""
    unknown = [k for k in present if k not in allowed]
    if unknown:
        raise ConfigError(
            f"{path}: unknown [{section}] key {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(allowed)})"
        )


def _required(d: dict, key: str) -> str:
    if key not in d:
        raise ValueError(f"missing required key '{key}'")
    return d[key]


def _get_float(d: dict, key: str, default: Optional[float] = None) -> float:
    if key not in d and default is not None:
        return default
    text = _required(d, key)
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"key '{key}' must be a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"key '{key}' must be finite, got {text!r}")
    return value


def _get_int(d: dict, key: str, default: Optional[int] = None) -> int:
    if key in d and d[key].strip().isdecimal():  # exact past 2**53, where a float rounds
        return int(d[key])
    value = _get_float(d, key, default if default is None else float(default))
    if not value.is_integer():
        raise ValueError(f"key '{key}' must be an integer, got {d[key]!r}")
    return int(value)


def _get_size(d: dict, key: str) -> int:
    """A seeded block size: an integer of at least 1."""
    size = _get_int(d, key)
    if size < 1:
        raise ValueError(f"key '{key}' must be >= 1, got {d[key]!r}")
    return size


# ---------------------------------------------------------------------------
# building flows from configs


@dataclass
class RunSetup:
    flow: Flow
    label: str
    problem_desc: str
    # builds the matching certificate once an equilibrium is known; a run
    # without one raises ValueError with the reason
    cert_builder: Callable[[np.ndarray], cert.Certificate]
    c_bound: Optional[float] = None
    no_bound: str = ""  # why c_bound is None
    # maps a converged state to a problem-level summary line
    recover: Optional[Callable[[np.ndarray], str]] = None
    # V: the run records V @ z of each integrated state z (None: z itself)
    record_map: Optional[np.ndarray] = None


def _seeded_matrix(rng, n: int, m: int, spectral_norm: float) -> np.ndarray:
    B = rng.standard_normal((n, m))
    s = np.linalg.svd(B, compute_uv=False)[0]
    return B * (spectral_norm / s)


def _one_way(d: dict, keys: tuple, others: tuple = ()) -> None:
    """``keys`` are read together and never with ``others``: any other mix leaves a key unread."""
    given = [k for k in keys if k in d]
    missing, clash = [k for k in keys if k not in d], [k for k in others if k in d]
    if given and (missing or clash):
        names = lambda ks: ", ".join(map(repr, ks))
        if missing:
            raise ValueError(f"key {names(given)} needs {names(missing)} as well")
        raise ValueError(f"keys {names(given)} and {names(clash)} exclude each other")


def _build_problem(cfg: ExperimentConfig):
    kind = cfg.problem_kind
    p = cfg.problem
    rng = np.random.default_rng(cfg.seed)
    if kind in ("bilinear", "quadratic_saddle"):
        _one_way(p, ("matrix",), ("n", "m", "coupling_norm"))
        if "matrix" in p:
            B = _parse_matrix(p["matrix"])
        else:
            norm = _get_float(p, "coupling_norm", 1.0 if kind == "bilinear" else 0.5)
            B = _seeded_matrix(rng, _get_size(p, "n"), _get_size(p, "m"), norm)
        shape = f"n={B.shape[0]}, m={B.shape[1]}"
        if kind == "bilinear":
            return make_bilinear(B), f"bilinear ({shape})"
        mu, q = _get_float(p, "mu"), _get_float(p, "q")
        return make_quadratic_saddle(mu, q, B), f"quadratic_saddle (mu={mu}, q={q}, {shape})"
    if kind == "lp":
        lp = LinearProgram(c=_parse_vector(_required(p, "c")), A=_parse_matrix(_required(p, "a")),
                           b=_parse_vector(_required(p, "b")))
        return make_lp(lp), f"lp (n={lp.n}, m={lp.b.shape[0]})"
    if kind == "min_cost_flow":
        net_path = Path(_required(p, "file"))
        if not net_path.is_absolute():
            net_path = cfg.path.parent / net_path
        if not net_path.is_file():
            raise ValueError(f"network file not found: {net_path}")
        net = parse_network(net_path)
        return net, f"min_cost_flow ({net.num_nodes} nodes, {net.num_edges} edges)"
    if kind == "qp_affine":
        bundle = make_qp_affine(
            _parse_matrix(_required(p, "q")), _parse_vector(_required(p, "p")),
            _parse_matrix(_required(p, "a")), _parse_vector(_required(p, "b")),
        )
        return bundle, f"qp_affine (n={bundle.f.dim}, m={bundle.A.shape[0]})"
    if kind == "separable_qp":
        sep = make_separable_qp(
            _parse_matrix(_required(p, "q_s")), _parse_vector(_required(p, "p_s")),
            _parse_matrix(_required(p, "q_c")), _parse_vector(_required(p, "p_c")),
            _parse_matrix(_required(p, "a_s")), _parse_matrix(_required(p, "a_c")),
            _parse_vector(_required(p, "b")),
        )
        return sep, f"separable_qp (n_s={sep.f_s.dim}, n_c={sep.f_c.dim}, m={sep.b.shape[0]})"
    if kind == "lasso":
        lam = _get_float(p, "lam")
        _one_way(p, ("a", "b"), ("n", "m"))
        if "a" in p:
            A = _parse_matrix(p["a"])
            b = _parse_vector(p["b"])
        else:
            n, m = _get_size(p, "n"), _get_size(p, "m")
            A = rng.standard_normal((m, n)) / np.sqrt(m)
            b = rng.standard_normal(m)
        bundle = make_lasso(A, b, lam)
        return bundle, f"lasso (n={bundle.n}, m={A.shape[0]}, lam={lam})"
    raise ValueError(f"unknown problem kind {kind!r}")


def _not_applicable(reason: str):
    """The certificate builder of a run without one: the report gives ``reason``."""

    def builder(z):
        raise ValueError(f"not applicable: {reason}")

    return builder


def _saddle_run(problem: SaddleProblem, desc: str, label: str, certificate=None,
                recover=None, no_bound: str = "") -> RunSetup:
    """The saddle flow of ``problem``, with its rate bound and certificate.

    ``problem`` is the base problem for ``standard`` and the transformed one
    for every other algorithm. The bound min(mu, q) of its meta and the default
    certificate ``strict_cc`` both need mu > 0 and q > 0; ``no_bound`` says why
    there is no bound where the meta's mu and q do not.
    """
    meta = problem.meta
    strong = (meta.mu or 0) > 0 and (meta.q or 0) > 0
    needs = f"needs mu > 0 and q > 0, got mu={meta.mu}, q={meta.q}"
    if certificate is None and strong:
        certificate = lambda z: cert.cert_strict_cc(problem, z)
    elif certificate is None:
        certificate = _not_applicable(f"strict_cc {needs}")
    return RunSetup(flow=standard_flow(problem), label=label,
                    problem_desc=desc, recover=recover, cert_builder=certificate,
                    c_bound=cert.rate_bound_strong(meta.mu, meta.q) if strong else None,
                    no_bound="" if strong else no_bound or f"min(mu, q) {needs}")


def _standard(problem: SaddleProblem, desc: str, algo: dict) -> RunSetup:
    return _saddle_run(problem, desc, "standard")


def _augmented(problem: SaddleProblem, desc: str, algo: dict, recover=None) -> RunSetup:
    rho = _get_float(algo, "rho", 1.0)
    n, m = problem.n, problem.m
    base = np.r_[:n, 2 * n : 2 * n + m]  # (x, y) of the augmented state (x, x_hat, y, y_hat)
    return _saddle_run(augment(problem, rho), desc, f"augmented(rho={rho})", recover=recover,
                       certificate=lambda z: cert.cert_augmented(problem, rho, z[base]),
                       no_bound="the augmentation gives asymptotic convergence, not a rate")


def _augmented_network(net, desc: str, algo: dict) -> RunSetup:
    problem, recover_map = make_min_cost_flow(net)

    def recover(z):
        x, val = recover_map(z)
        return f"edge flows {np.array2string(x, precision=6)}, objective {val:.9g}"

    return _augmented(problem, desc, algo, recover)


def _proximal(problem: SaddleProblem, desc: str, algo: dict) -> RunSetup:
    # of a Lagrangian over y >= 0 (a y_set), the saddle flow of the proximal
    # surrogate is the proximal primal-dual flow, which has no certificate
    rho = _get_float(algo, "rho", 1.0)
    surrogate = proximal_surrogate(problem, rho)
    if problem.y_set is not None:
        return _saddle_run(surrogate.problem, desc, f"proximal_pd(rho={rho})",
                           certificate=_not_applicable("no certificate of the proximal primal-dual flow"))
    return _saddle_run(surrogate.problem, desc, f"proximal(rho={rho})",
                       certificate=lambda z: cert.cert_proximal(surrogate, z))


def _preconditioned(bundle, desc: str, algo: dict) -> RunSetup:
    space = algo.get("space", "uy")
    if space not in ("uy", "xy"):
        raise ValueError(f"space must be 'uy' or 'xy', got {space!r}")
    _one_way(algo, ("eta", "alpha"))
    if "eta" in algo:
        eta, alpha = _get_float(algo, "eta"), _get_float(algo, "alpha")
    else:
        eta, alpha = cert.precond_params_pick(bundle.f.mu, bundle.f.l, bundle.kappa)
    problem = precondition(bundle.f, bundle.A, bundle.b, eta, alpha)
    label = f"preconditioned({space}, eta={eta:.6g}, alpha={alpha:.6g})"
    setup = _saddle_run(problem, desc, label)
    if space == "xy":  # the uy run, recorded through the fixed map x = u - alpha*A^T*y
        n = problem.n
        setup.record_map = np.eye(setup.flow.dim)
        setup.record_map[:n, n:] = -alpha * bundle.A.T
    return setup


def _preconditioned_separable(sep, desc: str, algo: dict) -> RunSetup:
    return _preconditioned(separable_qp_bundle(sep), desc, algo)


def _reduced(sep, desc: str, algo: dict) -> RunSetup:
    reduced = reduce_transform(sep)
    return _saddle_run(reduced.problem, desc, "reduced_pd")


def _lasso_pipeline(bundle, desc: str, algo: dict) -> RunSetup:
    _one_way(algo, ("alpha",), ("alpha_over_l",))
    alpha_scale = _get_float(algo, "alpha_over_l", 1.0)
    alpha = _get_float(algo, "alpha", alpha_scale / bundle.l if bundle.l > 0 else 1.0)
    rho = _get_float(algo, "rho", 1.0)
    flow = bundle.dynamics(alpha, rho)

    def recover(z):
        xhat = bundle.recover(alpha, z)[: bundle.n]
        return f"x_hat {np.array2string(xhat, precision=6)}"

    return RunSetup(flow=flow, label=f"lasso_pipeline(alpha={alpha:.6g}, rho={rho})",
                    problem_desc=desc, recover=recover, no_bound="no bound of the Lasso dual-proximal flow",
                    cert_builder=_not_applicable("no certificate of the Lasso dual-proximal flow"))


# [problem] keys each problem kind reads, besides 'kind'
PROBLEM_KEYS = {
    "bilinear": ("matrix", "n", "m", "coupling_norm"),
    "quadratic_saddle": ("mu", "q", "matrix", "n", "m", "coupling_norm"),
    "lp": ("c", "a", "b"),
    "min_cost_flow": ("file",),
    "qp_affine": ("q", "p", "a", "b"),
    "separable_qp": ("q_s", "p_s", "q_c", "p_c", "a_s", "a_c", "b"),
    "lasso": ("lam", "a", "b", "n", "m"),
}

_PRECONDITIONED_KEYS = ("space", "eta", "alpha")

# (problem kind, algorithm kind) -> (builder(problem, description, [algorithm]
# section), the [algorithm] keys it reads besides 'kind'); the compatible pairs
# are exactly the keys, in the order "allowed:" lists them
BUILDERS = {
    ("bilinear", "standard"): (_standard, ()),
    ("bilinear", "augmented"): (_augmented, ("rho",)),
    ("quadratic_saddle", "standard"): (_standard, ()),
    ("quadratic_saddle", "augmented"): (_augmented, ("rho",)),
    ("quadratic_saddle", "proximal"): (_proximal, ("rho",)),
    ("lp", "augmented"): (_augmented, ("rho",)),
    ("min_cost_flow", "augmented"): (_augmented_network, ("rho",)),
    ("qp_affine", "proximal"): (lambda bundle, desc, algo: _proximal(qp_lagrangian(bundle), desc, algo), ("rho",)),
    ("qp_affine", "preconditioned"): (_preconditioned, _PRECONDITIONED_KEYS),
    ("separable_qp", "reduced"): (_reduced, ()),
    ("separable_qp", "preconditioned"): (_preconditioned_separable, _PRECONDITIONED_KEYS),
    ("lasso", "lasso_pipeline"): (_lasso_pipeline, ("alpha_over_l", "alpha", "rho")),
}


def build_setup(cfg: ExperimentConfig) -> RunSetup:
    """The flow and its analysis hooks for a loaded config.

    Bad problem data or algorithm parameters (a ``ValueError`` from a parse
    helper, a builder or the library) are config errors; a singular matrix
    stays a numerical failure.
    """
    try:
        built, desc = _build_problem(cfg)
        builder, _ = BUILDERS[cfg.problem_kind, cfg.algorithm_kind]
        return builder(built, desc, cfg.algorithm)
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


def _resolve_equilibrium(flow: Flow, traj: Trajectory, converged: bool):
    """(z*, how): the hint if its residual is within ``RESIDUAL_TOL``, else the
    last state of a converged run, else None."""
    rejected = ""
    if flow.equilibrium_hint is not None:
        residual = flow.residual(flow.equilibrium_hint)
        if residual <= RESIDUAL_TOL:
            return flow.equilibrium_hint, "hint"
        hint = np.array2string(flow.equilibrium_hint, precision=6, max_line_width=np.inf)
        rejected = f"; hint {hint} rejected (residual {residual:.3e} > {RESIDUAL_TOL:g})"
    if converged:
        return traj.final_state, "detected" + rejected
    return None, "not found" + rejected


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    setup = build_setup(cfg)
    if cfg.z0 is not None and cfg.z0.shape != (setup.flow.dim,):
        raise ConfigError(
            f"{cfg.path}: z0 has dimension {cfg.z0.shape[0]}, the flow expects {setup.flow.dim}"
        )
    z0 = cfg.z0 if cfg.z0 is not None else np.ones(setup.flow.dim)
    V = setup.record_map  # z0, the rate fit, the Lyapunov series and the CSV are in V coordinates
    if V is not None:  # integrate clamps y (and warns) without moving the x of z0
        inside = setup.flow.feasible.clamp(z0)
        z0 = np.linalg.solve(V, inside) + (z0 - inside)
    t0 = time.perf_counter()
    traj = integrate(setup.flow, z0, cfg.integrator)
    wall = time.perf_counter() - t0
    recorded = traj if V is None else replace(traj, states=traj.states @ V.T)

    r0 = setup.flow.residual(traj.states[0])
    r1 = setup.flow.residual(traj.final_state)
    res = RunResult(config=cfg, setup=setup, trajectory=recorded, wall_time=wall,
                    initial_residual=r0, final_residual=r1, converged=r1 <= RESIDUAL_TOL)

    res.z_star, res.equilibrium_how = _resolve_equilibrium(setup.flow, traj, res.converged)
    if res.z_star is None:
        res.rate_skipped = res.cert_skipped = "no equilibrium found"
    else:
        z_star = res.z_star if V is None else V @ res.z_star
        try:
            res.rate = fit_rate(distance_series(recorded, z_star), c_bound=setup.c_bound)
        except ValueError as err:
            res.rate_skipped = str(err)
        res.lyapunov_increment = max_increment(lyapunov_series(recorded, z_star))
        try:
            certificate = setup.cert_builder(res.z_star)
            res.cert_report = cert.eval_certificate(certificate, traj, flow=setup.flow)
            res.cert_label = certificate.label
        except ValueError as err:
            res.cert_skipped = str(err)

    if setup.recover is not None and res.converged:
        res.recover_line = setup.recover(traj.final_state)
    return res


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
        bound = f"none ({setup.no_bound})" if r.c_bound is None else f"{r.c_bound:.6g}"
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
        v, tol = c.max_bracket_violation, cert.SANDWICH_TOL
        verdict = f"within {tol:.0e}" if v <= tol else f"violated ({v:.3e} > {tol:.0e})"
        lines.append(f"certificate sandwich: {verdict}")
        lines.append("certificate route: " + (
            f"batch (declared hessian), oracle gap {c.oracle_gap:.1e} at {c.checked_states} states"
            if c.route == "batch" else "oracle at every state (no declared hessian)"))
        if c.observability_violated:
            lines.append("WARNING: certificate vanished while the flow residual did not")
    elif res.cert_skipped:
        lines.append(f"certificate: skipped ({res.cert_skipped})")
    if res.recover_line:
        lines.append(f"recovered solution: {res.recover_line}")
    return "\n".join(lines) + "\n"


def _write_text(path: Path, text: str) -> None:
    """``path.write_text(text)``'s bytes, written over the file in place (``integrate._overwrite``)."""
    with _overwrite(path) as fh:
        fh.write(text.encode(locale.getpreferredencoding(False)))


def _rates_csv(res: RunResult) -> str:
    head = "c_fit,c_bound,r_squared,window_start,window_end,verdict\n"
    if res.rate is None:
        return head + ",,,,,none\n"
    r = res.rate
    bound = "" if r.c_bound is None else f"{r.c_bound:.17g}"
    return head + (
        f"{r.c_fit:.17g},{bound},{r.r_squared:.17g},"
        f"{r.window[0]:.17g},{r.window[1]:.17g},{r.verdict}\n"
    )


def _run_to_files(cfg: ExperimentConfig, out_dir: Path) -> RunResult:
    res = run_experiment(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    res.trajectory.write_csv(out_dir / "trajectory.csv")
    _write_text(out_dir / "rates.csv", _rates_csv(res))
    _write_text(out_dir / "report.txt", _format_report(res))
    return res


def compare_experiments(configs: list[ExperimentConfig], out_dir: Path) -> Path:
    """Run the configs one after another; returns the comparison CSV path.

    Each config writes into ``out_dir``/<file stem>: a shared stem is a ``ConfigError``.
    """
    dirs = [out_dir / c.path.stem for c in configs]
    for i, d in enumerate(dirs):
        if d in dirs[:i]:
            first = configs[dirs.index(d)].path
            raise ConfigError(f"{first} and {configs[i].path} share the output directory {d}")
    results = [_run_to_files(c, d) for c, d in zip(configs, dirs)]
    out_dir.mkdir(parents=True, exist_ok=True)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
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
    table = out_dir / "comparison.csv"
    _write_text(table, text.getvalue())
    return table


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once: building it costs about ten times as much as a parse."""
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
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise ConfigError("a command is required: run | compare")
        if args.command == "run":
            cfg = load_config(args.config, args.output_dir, args.seed)
            res = _run_to_files(cfg, cfg.output_dir)
            if not args.quiet:
                print(_format_report(res), end="")
            return 0
        # compare
        if not args.configs:
            raise ConfigError("compare needs at least one config file")
        configs = [load_config(p, None, args.seed) for p in args.configs]
        out_dir = Path(args.output_dir) if args.output_dir else Path("saddleflow_out")
        table = compare_experiments(configs, out_dir)
        if not args.quiet:
            print(table.read_text(), end="")
        return 0
    except (ConfigError, OSError) as err:
        print(f"saddleflow: config error: {err}", file=sys.stderr)
        return 1
    except (IntegrationError, InnerSolveError, np.linalg.LinAlgError) as err:
        print(f"saddleflow: numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
