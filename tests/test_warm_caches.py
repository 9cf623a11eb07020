"""A transformed problem carries its warm-start caches, and ``integrate`` clears them."""

import numpy as np

import saddleflow as sf
from saddleflow._inner import WarmCache

from helpers import cosh_bundle, lasso_transform


def _twice(flow, z0, config):
    """The states of two runs of one flow, one after the other."""
    return [sf.integrate(flow, z0, config).states for _ in range(2)]


def test_a_cosh_surrogate_flow_runs_byte_identically_twice():
    # no declared hessian: every evaluation solves, warm-started from the last solve
    surrogate = sf.proximal_surrogate(sf.qp_lagrangian(cosh_bundle()), 1.0)
    assert surrogate.problem.hessian is None
    flow = sf.standard_flow(surrogate.problem)
    config = sf.IntegratorConfig(step=0.01, horizon=5.0, record_every=50)
    first, second = _twice(flow, np.ones(flow.dim), config)
    assert first.tobytes() == second.tobytes()


def test_a_lasso_flow_past_the_size_cap_runs_byte_identically_twice():
    rng = np.random.default_rng(51)
    n = 22
    bundle = sf.make_lasso(rng.standard_normal((30, n)) / np.sqrt(30), rng.standard_normal(30), 0.5)
    transform = lasso_transform(bundle.dynamics(0.8 / bundle.l, 1.0))
    assert transform.base.dim > sf.AFFINE_MAX_DIM
    flow = sf.standard_flow(transform.problem)
    config = sf.IntegratorConfig(step=0.05, horizon=5.0, record_every=10)
    first, second = _twice(flow, np.ones(flow.dim), config)
    assert first.tobytes() == second.tobytes()


def _ids(caches):
    return [id(c) for c in caches]


def test_augment_passes_the_caches_of_its_base_on():
    surrogate = sf.proximal_surrogate(sf.make_quadratic_saddle(1.0, 1.0, [[0.5]]), 1.0)
    assert _ids(surrogate.problem.caches) == [id(surrogate._cache)]
    augmented = sf.augment(surrogate.problem, 0.5)
    assert _ids(augmented.caches) == [id(surrogate._cache)]
    assert _ids(sf.standard_flow(augmented).caches) == [id(surrogate._cache)]


def test_a_transform_of_a_problem_with_caches_keeps_them():
    sep = sf.make_separable_qp(np.eye(1), np.zeros(1), np.eye(1), np.zeros(1),
                               np.eye(1), np.eye(1), np.array([-1.0]))
    reduced = sf.reduce(sep)
    assert _ids(reduced.problem.caches) == [id(reduced._cache)]
    surrogate = sf.proximal_surrogate(reduced.problem, 1.0)
    assert _ids(surrogate.problem.caches) == [id(reduced._cache), id(surrogate._cache)]
    dual = sf.lasso_dual_prox(reduced.problem, 1.0)  # a declared base: the map slot is a cache too
    assert _ids(dual.problem.caches) == [id(reduced._cache), id(dual._cache), id(dual._pieces)]
    chained = sf.lasso_dual_prox(sf.augment(surrogate.problem, 1.0), 1.0)
    assert _ids(chained.problem.caches[:2]) == [id(reduced._cache), id(surrogate._cache)]


def test_integrate_clears_every_cache_of_the_flow():
    cache, slot = WarmCache(), ["a stale map"]
    cache.store(np.ones(1), np.zeros(1))
    seen = []

    def field(z):
        seen.append((cache.point, list(slot)))
        return -z

    flow = sf.Flow(dim=1, field=field, caches=(cache, slot))
    sf.integrate(flow, np.ones(1), sf.IntegratorConfig(step=0.1, horizon=0.2))
    assert seen[0] == (None, [])  # cleared before the first evaluation
    assert cache.point is None and cache.key is None and slot == []
