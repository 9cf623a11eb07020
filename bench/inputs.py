"""Seeded inputs of the benchmark workloads: INI configs and a network file.

``write_inputs(workload, seed, directory)`` writes every config of one
workload (and, for ``projected_direct``, the min-cost-flow network file)
plus ``manifest.json``, which lists the operations in run order and what
each config's final state is checked against. The same seed gives
byte-identical files: all data comes from ``numpy.random.default_rng`` seeded
with (seed, config index) and every float is written with ``repr``, so the
program reads back exactly the numbers generated here.

Problem sizes, steps and horizons are fixed per workload; the seed varies
only the data, so the work per pass is the same for every seed. Every
generated instance has a known solution: QPs and LPs are built around a
chosen primal-dual point with strict complementarity, quadratic and
bilinear saddles sit at the origin, and the Lasso and min-cost-flow answers
come from the library's independent oracles.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from saddleflow.problems import demo_network, lp_oracle, min_cost_flow_lp

DEFAULT_SEED = 2024
WORKLOADS = ("inner_solve", "projected_direct", "dense_record")

# Basic edge flows of an accepted network lie at least this far from both of
# their bounds. Near-degenerate vertices (a flow of 0.01 next to a bound)
# slow the augmented flow so much that no fixed horizon reaches the residual
# tolerance; candidates failing the margin are skipped deterministically.
NETWORK_MARGIN = 0.1
NETWORK_SEED_STRIDE = 100_003


@dataclass(frozen=True)
class Config:
    stem: str
    expect: dict  # {"saddle": z*} | {"lp": data} | {"lasso": data}


@dataclass(frozen=True)
class Operation:
    name: str
    command: str  # "run" | "compare"
    configs: tuple

    def argv(self, input_dir: Path, output_dir: Path) -> list:
        files = [str(input_dir / f"{c.stem}.ini") for c in self.configs]
        return [self.command, *files, "--output-dir", str(output_dir), "--quiet"]

    def output_dirs(self, output_dir: Path) -> dict:
        """Where each config's trajectory.csv, rates.csv and report.txt land."""
        if self.command == "run":
            return {self.configs[0].stem: output_dir}
        return {c.stem: output_dir / c.stem for c in self.configs}


# ---------------------------------------------------------------------------
# formatting


def _num(v) -> str:
    return repr(float(v))


def _vec(v) -> str:
    return " ".join(_num(x) for x in np.ravel(v))


def _mat(a) -> str:
    return "; ".join(_vec(row) for row in np.atleast_2d(a))


def _ini(comment: str, problem: dict, algorithm: dict, integrator: dict) -> str:
    lines = [f"# {comment}", "[experiment]", "seed = 0"]
    for section, body in (("problem", problem), ("algorithm", algorithm), ("integrator", integrator)):
        lines += ["", f"[{section}]"] + [f"{k} = {v}" for k, v in body.items()]
    return "\n".join(lines) + "\n"


def _integrator(step: float, horizon: float, record_every: int) -> dict:
    return {"method": "rk4", "step": _num(step), "horizon": _num(horizon),
            "record_every": str(record_every)}


# ---------------------------------------------------------------------------
# random data with known solutions


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spectral(rng, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
    """A rows x cols matrix with singular values spread evenly in [lo, hi]."""
    k = min(rows, cols)
    return _orthogonal(rng, rows)[:, :k] @ np.diag(np.linspace(lo, hi, k)) @ _orthogonal(rng, cols)[:, :k].T


def _spd(rng, n: int, lo: float, hi: float) -> np.ndarray:
    q = _orthogonal(rng, n)
    return (q * np.linspace(lo, hi, n)) @ q.T


def _kkt_point(rng, m: int):
    """Multipliers with the first constraint active, the rest slack."""
    y = np.zeros(m)
    y[0] = rng.uniform(0.5, 1.5)
    slack = np.zeros(m)
    slack[1:] = rng.uniform(0.5, 1.0, size=m - 1)
    return y, slack


def _qp_affine(rng, n: int = 3, m: int = 2):
    """min 0.5x'Qx + p'x s.t. Ax <= b with the saddle (x*, y*) built in."""
    Q = _spd(rng, n, 1.0, 2.0)
    A = _spectral(rng, m, n, 0.8, 1.2)
    x = rng.uniform(-1.0, 1.0, size=n)
    y, slack = _kkt_point(rng, m)
    p = -Q @ x - A.T @ y
    b = A @ x + slack
    problem = {"kind": "qp_affine", "q": _mat(Q), "p": _vec(p), "a": _mat(A), "b": _vec(b)}
    return problem, x, y, Q, A


def _separable_qp(rng, n_s: int = 2, n_c: int = 2, m: int = 2):
    Q_s = _spd(rng, n_s, 1.0, 2.0)
    Q_c = _spd(rng, n_c, 1.0, 2.0)
    A_s = _spectral(rng, m, n_s, 0.8, 1.2)
    A_c = 0.5 * _spectral(rng, m, n_c, 0.8, 1.2)
    x_s = rng.uniform(-1.0, 1.0, size=n_s)
    x_c = rng.uniform(-1.0, 1.0, size=n_c)
    y, slack = _kkt_point(rng, m)
    problem = {
        "kind": "separable_qp",
        "q_s": _mat(Q_s), "p_s": _vec(-Q_s @ x_s - A_s.T @ y),
        "q_c": _mat(Q_c), "p_c": _vec(-Q_c @ x_c - A_c.T @ y),
        "a_s": _mat(A_s), "a_c": _mat(A_c), "b": _vec(A_s @ x_s + A_c @ x_c + slack),
    }
    Q = np.block([[Q_s, np.zeros((n_s, n_c))], [np.zeros((n_c, n_s)), Q_c]])
    return problem, x_s, x_c, y, Q, np.hstack((A_s, A_c))


def _precond_params(Q: np.ndarray, A: np.ndarray):
    """The rate-mu pick (eta, alpha), written out so the checker knows u*."""
    eigs = np.linalg.eigvalsh(Q)
    mu, l = float(eigs[0]), float(eigs[-1])
    kappa = float(np.linalg.eigvalsh(A @ A.T)[0])
    alpha = float(np.sqrt(mu / (l * kappa)))
    return 0.55 * (l * alpha + mu / (kappa * alpha)), alpha


# ---------------------------------------------------------------------------
# configs, one generator per algorithm


def lasso_pipeline(rng, stem: str) -> tuple:
    n, m, lam = 3, 5, 0.3
    A = _spectral(rng, m, n, 0.8, 1.2)
    b = rng.standard_normal(m)
    alpha = 1.0 / float(np.linalg.eigvalsh(A.T @ A)[-1])
    text = _ini(
        "Lasso through the preconditioning + dual-proximal pipeline.",
        {"kind": "lasso", "lam": _num(lam), "a": _mat(A), "b": _vec(b)},
        {"kind": "lasso_pipeline", "alpha": _num(alpha), "rho": "1.0"},
        _integrator(0.2, 75.0, 3),
    )
    data = {"a": A.tolist(), "b": b.tolist(), "lam": lam, "alpha": alpha}
    return text, Config(stem, {"lasso": data})


def separable_reduced(rng, stem: str) -> tuple:
    problem, _, x_c, y, _, _ = _separable_qp(rng)
    text = _ini("Reduced primal-dual dynamics on a separable QP.", problem,
                {"kind": "reduced"}, _integrator(0.1, 30.0, 5))
    return text, Config(stem, {"saddle": np.concatenate((x_c, y)).tolist()})


def qp_proximal(rng, stem: str) -> tuple:
    problem, x, y, _, _ = _qp_affine(rng)
    text = _ini("Proximal primal-dual dynamics on an affinely constrained QP.", problem,
                {"kind": "proximal", "rho": "1.0"}, _integrator(0.1, 40.0, 5))
    return text, Config(stem, {"saddle": np.concatenate((x, y)).tolist()})


def quadratic_proximal(rng, stem: str) -> tuple:
    B = _spectral(rng, 3, 3, 0.6, 1.0)
    text = _ini(
        "Proximal saddle flow on a strongly convex-concave quadratic.",
        {"kind": "quadratic_saddle", "mu": "1.0", "q": "2.0", "matrix": _mat(B)},
        {"kind": "proximal", "rho": "1.0"},
        _integrator(0.1, 35.0, 5),
    )
    return text, Config(stem, {"saddle": [0.0] * 6})


def quadratic_standard(rng, stem: str) -> tuple:
    B = _spectral(rng, 3, 2, 0.25, 0.5)
    text = _ini(
        "Strongly convex-strongly concave quadratic under the standard flow.",
        {"kind": "quadratic_saddle", "mu": "1.0", "q": "2.0", "matrix": _mat(B)},
        {"kind": "standard"},
        _integrator(0.02, 20.0, 1),
    )
    return text, Config(stem, {"saddle": [0.0] * 5})


def bilinear_augmented(rng, stem: str) -> tuple:
    M = _spectral(rng, 2, 2, 0.8, 1.2)
    text = _ini(
        "Augmented saddle flow on a bilinear objective.",
        {"kind": "bilinear", "matrix": _mat(M)},
        {"kind": "augmented", "rho": "0.5"},
        _integrator(0.1, 100.0, 1),
    )
    return text, Config(stem, {"saddle": [0.0] * 8})


def separable_preconditioned(rng, stem: str) -> tuple:
    problem, x_s, x_c, y, Q, A = _separable_qp(rng)
    eta, alpha = _precond_params(Q, A)
    text = _ini(
        "Preconditioned dynamics on the combined blocks of a separable QP.",
        problem,
        {"kind": "preconditioned", "space": "uy", "eta": _num(eta), "alpha": _num(alpha)},
        _integrator(0.04, 20.0, 1),
    )
    y = y / eta  # the preconditioned Lagrangian weights the constraints by eta
    u = np.concatenate((x_s, x_c)) + alpha * (A.T @ y)
    return text, Config(stem, {"saddle": np.concatenate((u, y)).tolist()})


def qp_preconditioned(rng, stem: str, space: str) -> tuple:
    problem, x, y, Q, A = _qp_affine(rng)
    eta, alpha = _precond_params(Q, A)
    text = _ini(
        f"Preconditioned primal-dual dynamics in {space} space.",
        problem,
        {"kind": "preconditioned", "space": space, "eta": _num(eta), "alpha": _num(alpha)},
        _integrator(0.1, 40.0, 5),
    )
    y = y / eta  # the preconditioned Lagrangian weights the constraints by eta
    head = x + alpha * (A.T @ y) if space == "uy" else x
    return text, Config(stem, {"saddle": np.concatenate((head, y)).tolist()})


def lp_augmented(rng, stem: str) -> tuple:
    """A bounded 2-variable LP: two active cuts at x*, a slack box around it."""
    x = rng.uniform(-1.0, 1.0, size=2)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    phi = theta + rng.uniform(0.4, 0.6) * np.pi
    active = np.array([[np.cos(theta), np.sin(theta)], [np.cos(phi), np.sin(phi)]])
    y = rng.uniform(0.5, 1.5, size=2)
    c = -(active.T @ y)
    box = np.vstack((np.eye(2), -np.eye(2)))
    A = np.vstack((active, box))
    b = np.concatenate((active @ x, box @ x + rng.uniform(1.0, 2.0, size=4)))
    text = _ini(
        "Augmented primal-dual dynamics on a seeded bounded LP.",
        {"kind": "lp", "c": _vec(c), "a": _mat(A), "b": _vec(b)},
        {"kind": "augmented", "rho": "0.5"},
        _integrator(0.25, 300.0, 10),
    )
    data = {"c": c.tolist(), "a": A.tolist(), "b": b.tolist()}
    return text, Config(stem, {"lp": data})


def _network_margin(net) -> float:
    x = lp_oracle(min_cost_flow_lp(net)).x
    gap = np.minimum(np.abs(x), np.abs(net.capacities - x))
    return float(np.min(np.where(gap < 1e-7, np.inf, gap)))


def network_for(seed: int):
    """demo_network(seed), or the first later candidate with a clear margin."""
    k = 0
    while True:
        net = demo_network(seed + k * NETWORK_SEED_STRIDE)
        if _network_margin(net) >= NETWORK_MARGIN:
            return net
        k += 1


def network_text(net) -> str:
    lines = ["# seeded demo network for the benchmark"]
    lines += [f"node {nid} {_num(d)}" for nid, d in zip(net.node_ids, net.injections)]
    for t, h, c, u in zip(net.tails, net.heads, net.costs, net.capacities):
        lines.append(f"edge {net.node_ids[t]} {net.node_ids[h]} {_num(c)} {_num(u)}")
    return "\n".join(lines) + "\n"


def mincostflow_augmented(net, stem: str, network_file: str, integrator: dict) -> tuple:
    text = _ini(
        "Min-cost network flow via augmented primal-dual dynamics.",
        {"kind": "min_cost_flow", "file": network_file},
        {"kind": "augmented", "rho": "0.5"},
        integrator,
    )
    lp = min_cost_flow_lp(net)
    data = {"c": lp.c.tolist(), "a": lp.A.tolist(), "b": lp.b.tolist(),
            "a_eq": lp.A_eq.tolist(), "b_eq": lp.b_eq.tolist()}
    return text, Config(stem, {"lp": data})


# ---------------------------------------------------------------------------
# workloads


def _workload_files(workload: str, seed: int) -> tuple:
    """(files: {name: text}, operations) of one workload."""
    files: dict = {}
    counter = itertools.count()

    def add(generate, stem, *args, **kwargs):
        rng = np.random.default_rng([seed, next(counter)])
        text, cfg = generate(rng, stem, *args, **kwargs)
        files[f"{stem}.ini"] = text
        return cfg

    if workload == "inner_solve":
        ops = [
            Operation(name, "run", (add(generate, name),))
            for name, generate in (
                ("lasso_pipeline", lasso_pipeline),
                ("separable_reduced", separable_reduced),
                ("qp_proximal", qp_proximal),
                ("quadratic_proximal", quadratic_proximal),
            )
        ]
    elif workload == "projected_direct":
        net = network_for(seed)
        files["network.txt"] = network_text(net)
        text, mcf = mincostflow_augmented(
            net, "mincostflow_augmented", "network.txt", _integrator(0.5, 900.0, 10)
        )
        files["mincostflow_augmented.ini"] = text
        # The canonical network at the shipped config's horizon and sampling:
        # its run stops near a residual of 1e-8, where the certificate sandwich
        # shows the known violation of about 1e-8. It does not depend on the seed.
        canonical = demo_network(DEFAULT_SEED)
        files["network_canonical.txt"] = network_text(canonical)
        text, ref = mincostflow_augmented(
            canonical, "mincostflow_canonical", "network_canonical.txt",
            _integrator(0.5, 400.0, 1),
        )
        files["mincostflow_canonical.ini"] = text
        ops = [
            Operation("mincostflow_augmented", "run", (mcf,)),
            Operation("mincostflow_canonical", "run", (ref,)),
            Operation("lp_augmented", "run", (add(lp_augmented, "lp_augmented"),)),
            Operation("qp_preconditioned_uy", "run",
                      (add(qp_preconditioned, "qp_preconditioned_uy", "uy"),)),
            Operation("qp_preconditioned_xy", "run",
                      (add(qp_preconditioned, "qp_preconditioned_xy", "xy"),)),
        ]
    elif workload == "dense_record":
        # every state recorded; two configs per compare call, so compare
        # starts two worker threads: no more threads than a 2-core machine has
        cfg = {}
        for tag in ("a", "b"):
            cfg["qs" + tag] = add(quadratic_standard, f"quadratic_standard_{tag}")
            cfg["ba" + tag] = add(bilinear_augmented, f"bilinear_augmented_{tag}")
            cfg["sp" + tag] = add(separable_preconditioned, f"separable_preconditioned_{tag}")
        ops = [
            Operation("compare_1", "compare", (cfg["qsa"], cfg["baa"])),
            Operation("compare_2", "compare", (cfg["spa"], cfg["qsb"])),
            Operation("compare_3", "compare", (cfg["bab"], cfg["spb"])),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    manifest = {
        "workload": workload,
        "seed": seed,
        "operations": [
            {"name": op.name, "command": op.command,
             "configs": [asdict(c) for c in op.configs]}
            for op in ops
        ],
    }
    files["manifest.json"] = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    return files, ops


def write_inputs(workload: str, seed: int, directory) -> list:
    """Write one workload's inputs into ``directory``; returns its operations."""
    files, ops = _workload_files(workload, seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        with open(directory / name, "w", newline="\n") as fh:
            fh.write(text)
    return ops
