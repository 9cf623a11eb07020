"""Span tracing of saddleflow from outside the package.

``Tracer.install()`` wraps every public (not underscored) module-level
function of the library's modules, plus the two private CLI helpers the
per-layer metrics need, at every place the name is looked up: a function
imported by value into another module, such as ``project_vector_field`` in
``core``, ``flows`` and ``_inner``, is replaced there too. Public methods that carry counts (``WarmCache.match``, the inner
minimizers, ``Trajectory.write_csv``) are wrapped on their class, and the
oracle callables of every ``SaddleProblem``, ``ConvexObjective`` and
``ConstraintMap`` built while tracing are wrapped as the object is built.
The flow field the CLI builds is wrapped per flow kind, and the callables
handed to the inner solvers are wrapped per call, which counts Newton
iterations. ``uninstall()`` restores every original.

Each wrapped call records one span (name, start, end, parent, thread) in
flat arrays; spans stay in memory until ``dump``. A worker thread's outermost
span takes the main thread's innermost open span as its parent, so the spans
of ``compare``'s runs nest under the ``compare_experiments`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
from array import array
from collections import Counter
from dataclasses import replace
from time import perf_counter

import numpy as np

# module -> layer; the layers are the package's modules, with the inner
# solvers of ``_inner`` counted in ``transforms``
LAYERS = {
    "cli": "cli",
    "core": "core",
    "projection": "projection",
    "_inner": "transforms",
    "transforms": "transforms",
    "flows": "flows",
    "integrate": "integrate",
    "certificates": "certificates",
    "problems": "problems",
}
EXTRA_FUNCTIONS = {"cli": ("_run_to_files", "_resolve_equilibrium")}
METHODS = {
    "_inner": {"WarmCache": ("match",)},
    "transforms": {
        "ProximalSurrogate": ("minimizer",),
        "ReducedProblem": ("minimizer",),
        "LassoDualProx": ("maximizer",),
    },
    "integrate": {"Trajectory": ("write_csv",)},
}
ORACLES = {
    "SaddleProblem": {"value": "value", "grad_x": "grad", "grad_y": "grad"},
    "ConvexObjective": {"value": "value", "grad": "grad"},
    "ConstraintMap": {"value": "constraint", "jacobian": "constraint"},
}
FIELD_KINDS = (
    "standard", "augmented", "proximal", "proximal_pd",
    "preconditioned_uy", "preconditioned_xy", "reduced", "lasso",
)
# names whose every lookup site must be wrapped, with the modules that hold one
REQUIRED_SITES = {
    "projection.project_vector_field": {"projection", "core", "flows", "_inner"},
    "_inner.newton_solve": {"_inner", "flows", "transforms"},
    "_inner.projected_concave_max": {"_inner", "transforms"},
    "integrate.integrate": {"integrate", "cli"},
}


def field_kind(cfg) -> str:
    """The flow kind a CLI config builds, as named in the per-layer metrics."""
    kind = cfg.algorithm_kind
    if kind == "proximal" and cfg.problem_kind == "qp_affine":
        return "proximal_pd"
    if kind == "preconditioned":
        return f"preconditioned_{cfg.algorithm.get('space', 'uy')}"
    if kind == "lasso_pipeline":
        return "lasso"
    return kind


def rk_steps(config) -> int:
    """Steps ``integrate`` takes for a config: full steps plus a fractional one."""
    h = config.step
    n_full = int(config.horizon / h + 1e-9)
    return n_full + (1 if config.horizon - n_full * h > 1e-9 * h else 0)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.counters: Counter = Counter()
        self.max_violation = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list = []
        self._threads = 0
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.tid
        except AttributeError:
            with self._lock:
                local.tid = self._threads
                self._threads += 1
            is_main = threading.get_ident() == self._main_ident
            local.stack = self._main_stack if is_main else []
            return local.stack, local.tid

    def wrap(self, fn, name: str, pre=None, post=None):
        """``fn`` recording one span per call; ``pre`` may rewrite the arguments."""
        if getattr(fn, "__traced__", False):
            return fn
        nid = self.name_id(name)
        main_stack = self._main_stack
        lock = self._lock

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            stack, tid = self._thread_state()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            with lock:
                idx = len(self.t0)
                self.name.append(nid)
                self.parent.append(parent)
                self.thread.append(tid)
                self.t1.append(0.0)
                self.t0.append(perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        traced.__traced__ = True
        return traced

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {short: importlib.import_module(f"saddleflow.{short}") for short in LAYERS}
        package = [m for n, m in sys.modules.items() if n == "saddleflow" or n.startswith("saddleflow.")]
        wrapped: dict = {}  # id(original) -> (original, wrapper, span name)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA_FUNCTIONS.get(short, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = (obj, self.wrap(obj, name, *self._hooks(name)), name)
        sites: dict = {}
        for mod in package:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                    sites.setdefault(hit[2], set()).add(short)
        for name, need in REQUIRED_SITES.items():
            missing = need - sites.get(name, set())
            if missing:
                raise RuntimeError(f"{name} not wrapped where it is looked up: {sorted(missing)}")
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[short], cls_name)
                for meth in methods:
                    name = f"{short}.{cls_name}.{meth}"
                    self._patch(cls, meth, self.wrap(cls.__dict__[meth], name, *self._hooks(name)))
        for cls_name, attrs in ORACLES.items():
            cls = getattr(modules["core"], cls_name)
            self._patch(cls, "__init__", self._oracle_init(cls.__init__, attrs))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _oracle_init(self, init, attrs: dict):
        tracer = self

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for attr, kind in attrs.items():
                fn = getattr(obj, attr)
                if fn is not None:
                    layer = "transforms" if fn.__module__ == "saddleflow.transforms" else "core"
                    object.__setattr__(obj, attr, tracer.wrap(fn, f"{layer}.{kind}"))

        return traced_init

    # -- counting hooks -------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:  # compare's worker threads count too
            self.counters[key] += n

    def _hooks(self, name: str) -> tuple:
        """(pre, post) hooks that count what spans alone cannot."""
        count = self.count
        wrap = self.wrap

        def newton_args(args, kwargs):
            args = list(args)
            args[0] = wrap(args[0], "transforms.inner.residual")
            if len(args) > 2 and args[2] is not None:
                args[2] = wrap(args[2], "transforms.inner.jacobian")
            elif kwargs.get("jacobian") is not None:
                kwargs["jacobian"] = wrap(kwargs["jacobian"], "transforms.inner.jacobian")
            return args, kwargs

        def concave_args(args, kwargs):
            args = list(args)
            args[0] = wrap(args[0], "transforms.inner.value")
            args[1] = wrap(args[1], "transforms.inner.grad")
            if len(args) > 4 and args[4] is not None:
                args[4] = wrap(args[4], "transforms.inner.hess")
            elif kwargs.get("hess") is not None:
                kwargs["hess"] = wrap(kwargs["hess"], "transforms.inner.hess")
            return args, kwargs

        def integrated(args, kwargs, traj):
            config = args[2] if len(args) > 2 else kwargs["config"]
            steps = rk_steps(config)
            count("integrate.steps", steps)
            count("integrate.expected_field_evals", steps * (4 if config.method == "rk4" else 1))
            count("integrate.records", len(traj))

        def csv_written(args, kwargs, _):
            count("integrate.csv_bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))

        def certified(args, kwargs, report):
            traj = args[1] if len(args) > 1 else kwargs["traj"]
            count("certificates.states", len(traj))
            with self._lock:
                self.max_violation = max(self.max_violation, report.max_bracket_violation)

        def matched(args, kwargs, hit):
            count("transforms.inner.lookups")
            count("transforms.inner.hits", hit is not None)

        def stationarity(args, kwargs, _):
            feasible = args[2] if len(args) > 2 else kwargs.get("feasible")
            count("core.stationarity_projected", feasible is not None)

        def built(args, kwargs, setup):
            flow = setup.flow
            hook = None
            if flow.feasible is not None:
                def hook(a, k, r):
                    count("flows.field.projected")
            kind = field_kind(args[0] if args else kwargs["cfg"])
            setup.flow = replace(flow, field=wrap(flow.field, f"flows.field.{kind}", post=hook))

        return {
            "_inner.newton_solve": (newton_args, None),
            "_inner.projected_concave_max": (concave_args, None),
            "integrate.integrate": (None, integrated),
            "integrate.Trajectory.write_csv": (None, csv_written),
            "certificates.eval_certificate": (None, certified),
            "_inner.WarmCache.match": (None, matched),
            "core.stationarity_residual": (None, stationarity),
            "cli.build_setup": (None, built),
        }.get(name, (None, None))

    # -- output -----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "thread": np.frombuffer(self.thread, dtype=np.intc).astype(np.int64),
            "t0": np.frombuffer(self.t0, dtype=float).copy(),
            "t1": np.frombuffer(self.t1, dtype=float).copy(),
        }

    def dump(self, path) -> None:
        """Write every span: arrays plus the span names, as one .npz file."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("us") or ".us." in name:
        return "us"
    if name.endswith("csv_bytes"):
        return "bytes"
    if "ratio" in name or "share" in name or name == "trace.coverage":
        return "ratio"
    if name == "certificates.max_violation":
        return "1"
    return "count"


def _union_length(t0: np.ndarray, t1: np.ndarray) -> float:
    order = np.argsort(t0)
    total, end = 0.0, -np.inf
    for a, b in zip(t0[order], t1[order]):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(tracer: Tracer, traced_walls: list, untraced_walls: list) -> tuple:
    """(per-layer metrics per traced pass, cross-check failures)."""
    sp = tracer.arrays()
    names = tracer.names
    n_spans = sp["name"].shape[0]
    passes = len(traced_walls)
    dur = sp["t1"] - sp["t0"]
    parent = sp["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n_spans)
    # children from other threads overlap each other: count their union only
    cross = has_parent & (sp["thread"] != sp["thread"][np.maximum(parent, 0)])
    for p in np.unique(parent[cross]):
        kids = parent == p
        covered[p] = _union_length(sp["t0"][kids], sp["t1"][kids])
    self_time = dur - covered

    k = len(names)
    calls = np.bincount(sp["name"], minlength=k)
    total = np.bincount(sp["name"], weights=dur, minlength=k)
    own = np.bincount(sp["name"], weights=self_time, minlength=k)
    ids = {n: i for i, n in enumerate(names)}

    def stat(name, arr):
        i = ids.get(name)
        return float(arr[i]) if i is not None else 0.0

    def n_calls(*which):
        return sum(stat(w, calls) for w in which)

    def secs(*which):
        return sum(stat(w, total) for w in which)

    def per_call_us(seconds, count):
        return 1e6 * seconds / count if count else 0.0

    def under(child_prefix, parent_name):
        """Spans named ``child_prefix``* whose parent is a ``parent_name`` span."""
        pid = ids.get(parent_name)
        if pid is None:
            return np.zeros(n_spans, dtype=bool)
        kid_ids = [i for n, i in ids.items() if n.startswith(child_prefix)]
        parent_name_ids = np.where(has_parent, sp["name"][np.maximum(parent, 0)], -1)
        return np.isin(sp["name"], kid_ids) & (parent_name_ids == pid)

    c = tracer.counters
    m = {}
    m["cli.build_s"] = secs("cli.build_setup") / passes
    runs_in_compare = dur[under("cli._run_to_files", "cli.compare_experiments")].sum()
    m["cli.compare.overhead_ratio"] = (
        secs("cli.compare_experiments") / runs_in_compare if runs_in_compare else 0.0
    )
    m["core.grad.calls"] = n_calls("core.grad") / passes
    m["core.grad.us"] = per_call_us(secs("core.grad"), n_calls("core.grad"))
    vf = "projection.project_vector_field"
    m["projection.vf.calls"] = n_calls(vf) / passes
    m["projection.vf.us"] = per_call_us(secs(vf), n_calls(vf))
    solvers = ("_inner.newton_solve", "_inner.projected_concave_max")
    solves = n_calls(*solvers)
    m["transforms.inner.lookups"] = c["transforms.inner.lookups"] / passes
    m["transforms.inner.solves"] = solves / passes
    m["transforms.inner.cache_hit_ratio"] = (
        c["transforms.inner.hits"] / c["transforms.inner.lookups"] if c["transforms.inner.lookups"] else 0.0
    )
    m["transforms.inner.iters"] = n_calls(
        "transforms.inner.jacobian", "transforms.inner.hess", "_inner.fd_jacobian"
    ) / passes
    m["transforms.inner.residual_evals"] = n_calls(
        "transforms.inner.residual", "transforms.inner.grad"
    ) / passes
    m["transforms.inner.value_evals"] = n_calls("transforms.inner.value") / passes
    m["transforms.inner.fd_jacobians"] = n_calls("_inner.fd_jacobian") / passes
    m["transforms.inner.solve_us"] = per_call_us(secs(*solvers), solves)
    for kind in FIELD_KINDS:
        name = f"flows.field.{kind}"
        m[f"flows.field.calls.{kind}"] = n_calls(name) / passes
        m[f"flows.field.us.{kind}"] = per_call_us(stat(name, own), n_calls(name))
    steps = c["integrate.steps"]
    field_in_integrate = int(under("flows.field.", "integrate.integrate").sum())
    m["integrate.steps"] = steps / passes
    m["integrate.field_evals"] = field_in_integrate / passes
    m["integrate.step_us"] = per_call_us(stat("integrate.integrate", own), steps)
    m["integrate.records"] = c["integrate.records"] / passes
    m["integrate.write_csv_s"] = secs("integrate.Trajectory.write_csv") / passes
    m["integrate.csv_bytes"] = c["integrate.csv_bytes"] / passes
    m["integrate.fit_s"] = secs("integrate.fit_rate") / passes
    m["integrate.equilibrium_s"] = secs("cli._resolve_equilibrium") / passes
    m["integrate.equilibrium_reruns"] = (
        int(under("integrate.integrate", "cli._resolve_equilibrium").sum()) / passes
    )
    m["certificates.eval_s"] = secs("certificates.eval_certificate") / passes
    m["certificates.states"] = c["certificates.states"] / passes
    m["certificates.max_violation"] = tracer.max_violation
    layer_of = np.array([LAYERS[n.split(".", 1)[0]] for n in names])
    layer_self = {layer: float(own[layer_of == layer].sum()) for layer in dict.fromkeys(LAYERS.values())}
    all_self = sum(layer_self.values())
    for layer, seconds in layer_self.items():
        m[f"self_share.{layer}"] = seconds / all_self if all_self else 0.0
    m["trace.pass_s"] = float(np.median(traced_walls))
    m["trace.overhead_ratio"] = float(np.median(traced_walls) / np.median(untraced_walls))
    m["trace.coverage"] = float(dur[~has_parent].sum() / sum(traced_walls))
    m["trace.spans"] = n_spans / passes

    failures = []
    if field_in_integrate != c["integrate.expected_field_evals"]:
        failures.append(
            f"field evaluations inside integrate {field_in_integrate} != "
            f"{c['integrate.expected_field_evals']} from the steps taken"
        )
    vf_expected = (
        c["flows.field.projected"]
        + c["core.stationarity_projected"]
        + int(under(vf, "_inner.projected_concave_max").sum())
    )
    if n_calls(vf) != vf_expected:
        failures.append(
            f"projection calls {int(n_calls(vf))} != projected field evaluations "
            f"{c['flows.field.projected']} + projected residuals {c['core.stationarity_projected']} "
            f"+ inner projections"
        )
    return m, failures
