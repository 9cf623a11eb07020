"""Per-operation checks of the program's outputs against independent oracles.

Tolerances are the acceptance suite's: final residual 1e-6, objective within
1e-4 relative of ``lp_oracle``, Lasso ``x_hat`` within 1e-5 (inf-norm) of
``lasso_oracle``; the analytic saddle of a generated instance is held to the
same 1e-5. Rate verdicts must read ``pass`` wherever ``rates.csv`` carries a
bound. Every check reads the files the program wrote, never its objects.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

from saddleflow.problems import LinearProgram, lasso_oracle, lp_oracle, make_lasso

RESIDUAL_TOL = 1e-6
OBJECTIVE_RTOL = 1e-4
SOLUTION_TOL = 1e-5
# The acceptance suite's certificate sandwich tolerance; reported, not failed
# on (the known min-cost-flow violation stays visible in the solver facts).
SANDWICH_TOL = 1e-9


def _lp(data: dict) -> LinearProgram:
    return LinearProgram(
        c=data["c"], A=data["a"], b=data["b"], A_eq=data.get("a_eq"), b_eq=data.get("b_eq")
    )


class Oracle:
    """Reference answers of one workload's configs, computed once per run."""

    def __init__(self, operations):
        self.expect = {}
        for op in operations:
            for cfg in op.configs:
                self.expect[cfg.stem] = self._reference(cfg.expect)

    @staticmethod
    def _reference(expect: dict):
        if "saddle" in expect:
            return "saddle", np.asarray(expect["saddle"], dtype=float)
        if "lp" in expect:
            sol = lp_oracle(_lp(expect["lp"]))
            if sol.status != "optimal":
                raise RuntimeError(f"generated LP is {sol.status}")
            return "lp", (np.asarray(expect["lp"]["c"], dtype=float), sol.value)
        data = expect["lasso"]
        bundle = make_lasso(np.asarray(data["a"]), np.asarray(data["b"]), data["lam"])
        return "lasso", (bundle.n, data["alpha"], lasso_oracle(bundle, tol=1e-12))

    def check(self, stem: str, state: np.ndarray) -> list:
        """Problems with the final state, as messages (empty when it passes)."""
        kind, ref = self.expect[stem]
        if kind == "saddle":
            err = float(np.abs(state - ref).max())
            return [] if err <= SOLUTION_TOL else [f"saddle distance {err:.3e} > {SOLUTION_TOL:g}"]
        if kind == "lp":
            c, value = ref
            objective = float(c @ state[: c.shape[0]])
            rel = abs(objective - value) / max(abs(value), 1e-12)
            return [] if rel <= OBJECTIVE_RTOL else [
                f"objective {objective:.9g} vs lp_oracle {value:.9g} (rel {rel:.2e})"
            ]
        n, alpha, x_ref = ref
        lifted = 3 * n  # state (u, v); x_hat = u[:n] - alpha * v[:n]
        x_hat = state[:n] - alpha * state[lifted : lifted + n]
        err = float(np.abs(x_hat - x_ref).max())
        return [] if err <= SOLUTION_TOL else [f"x_hat off lasso_oracle by {err:.3e}"]


def read_report(path: Path) -> dict:
    text = path.read_text()
    facts = {
        "final_residual": float(re.search(r"^final residual: (\S+)$", text, re.M).group(1)),
        "equilibrium": re.search(r"^equilibrium: (.+)$", text, re.M).group(1),
    }
    m = re.search(r"max_bracket_violation=(\S+?),", text)
    facts["max_violation"] = float(m.group(1)) if m else None
    return facts


def read_rates(path: Path) -> dict:
    header, row = path.read_text().splitlines()[:2]
    rec = dict(zip(header.split(","), row.split(",")))
    return {"c_bound": rec["c_bound"], "verdict": rec["verdict"]}


def final_state(trajectory: Path) -> np.ndarray:
    size = trajectory.stat().st_size
    with open(trajectory, "rb") as fh:
        fh.seek(max(0, size - 8192))  # the last row is far shorter than this
        last = fh.read().splitlines()[-1].decode()
    return np.array([float(v) for v in last.split(",")[1:]])


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_config(oracle: Oracle, stem: str, out_dir: Path) -> tuple:
    """(problems, facts) of one config's output directory."""
    report = read_report(out_dir / "report.txt")
    rates = read_rates(out_dir / "rates.csv")
    problems = []
    if not report["final_residual"] <= RESIDUAL_TOL:
        problems.append(f"final residual {report['final_residual']:.3e} > {RESIDUAL_TOL:g}")
    if rates["c_bound"] and rates["verdict"] != "pass":
        problems.append(f"rate verdict {rates['verdict']!r} against bound {rates['c_bound']}")
    problems += oracle.check(stem, final_state(out_dir / "trajectory.csv"))
    violation = report["max_violation"]
    facts = {
        "equilibrium": report["equilibrium"],
        "verdict": rates["verdict"],
        "max_violation": violation,
        "sandwich": None if violation is None else (
            "within" if violation <= SANDWICH_TOL else "violated"
        ),
    }
    return problems, facts
