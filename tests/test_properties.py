"""Closed-form lasso instances that ADMM and FISTA must both reproduce.

With g = 0 the lasso optimum is u = 0 for every H and lam; with H = I it is
soft_threshold(g, lam) entry by entry, whatever the phases of g.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rand_complex
from cradmm import AdmmParams, check_lasso_kkt, soft_threshold, solve_consensus_lasso, solve_fista

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def partitions(draw, m):
    """A block count for m rows: one block, one row per block, or anything between."""
    return draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)))


@st.composite
def zero_measurement_instances(draw):
    m = draw(st.integers(1, 10))
    n_p = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rand_complex(rng, m, n_p) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    lam = draw(st.sampled_from([0.0, 1e-6, 0.1, 10.0]))
    eps = draw(st.sampled_from([0.0, 1e-8]))
    params = AdmmParams(lam=lam, rho=draw(st.sampled_from([0.1, 1.0, 10.0])), max_iter=30,
                        eps_abs=eps, eps_rel=eps)
    return h, params, draw(partitions(m))


@PROPERTY_SETTINGS
@given(zero_measurement_instances())
def test_zero_measurement_gives_exact_zero(instance):
    h, params, n_blocks = instance
    g = np.zeros(h.shape[0], dtype=complex)
    v, trace, _ = solve_consensus_lasso(h, g, params, n_blocks)
    u, ftrace = solve_fista(h, g, params.lam, max_iter=30, tol=params.eps_abs)
    for estimate, objectives in ((v, trace.column("objective")), (u, ftrace.column("objective"))):
        assert np.array_equal(estimate, np.zeros(h.shape[1]))
        assert np.all(objectives == 0.0)
        assert check_lasso_kkt(h, g, params.lam, estimate, 0.0).passed


@st.composite
def identity_instances(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitudes = rng.uniform(0.0, 2.0, n)
    phases = draw(st.sampled_from(["real", "imaginary", "arbitrary"]))
    if phases == "arbitrary":
        g = magnitudes * np.exp(2j * np.pi * rng.uniform(size=n))
    else:
        g = magnitudes * (1j if phases == "imaginary" else 1.0) * rng.choice([-1.0, 1.0], n)
    lam = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.0]))
    params = AdmmParams(lam=lam, rho=draw(st.sampled_from([0.1, 1.0, 10.0])), max_iter=20000,
                        eps_abs=1e-13, eps_rel=1e-13)
    return g, params, draw(partitions(n))


@PROPERTY_SETTINGS
@given(identity_instances())
def test_identity_matrix_gives_soft_threshold(instance):
    g, params, n_blocks = instance
    h = np.eye(g.shape[0], dtype=complex)
    expected = soft_threshold(g, params.lam)
    v, trace, _ = solve_consensus_lasso(h, g, params, n_blocks)
    u, _ = solve_fista(h, g, params.lam, max_iter=100, tol=0.0)
    assert trace.stop_reason == "converged"
    np.testing.assert_allclose(v, expected, rtol=0, atol=1e-9)
    np.testing.assert_allclose(u, expected, rtol=0, atol=1e-14)
