"""The solve path's n-sized work in arrays it already owns, against the expressions it replaced.

Each reference below is the earlier form of one site, kept verbatim: the
adjoint, the soft threshold, the prox step, FISTA's step and extrapolation,
and the KKT residuals. The in-place forms must agree with them bit for bit,
zeros, subnormals and non-finite entries included, and must hold fewer
n-vectors at once.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rand_complex
from cradmm import DivergenceError, check_lasso_kkt, solve_fista
from cradmm.admm import lasso_objective, prox_step, run_iterations, soft_threshold_support
from cradmm.baselines import LIPSCHITZ_FLOOR, _norm
from cradmm.linop import SPARSE_FRACTION, SupportProducts, adjoint, lasso_inputs

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# parts an entry may take beside a standard normal draw: signed zeros, subnormals, the normal
# extremes and the non-finite values
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -2.5e-320, 1e-310, 2.2250738585072014e-308, 1e-160, -1e150, 1e300,
                 math.inf, -math.inf, math.nan]
FINITE_PARTS = [x for x in SPECIAL_PARTS if math.isfinite(x)]
SMALL_PARTS = [x for x in FINITE_PARTS if abs(x) < 1.0]


def reference_adjoint(h, r):
    return (np.conj(r) @ h).conj()


def reference_soft_threshold_support(a, kappa):
    a = np.asarray(a)
    mag = np.abs(a)
    shrunk = np.maximum(mag - kappa, 0.0)
    return a * (shrunk / np.where(mag > 0.0, mag, 1.0)), np.flatnonzero(shrunk > 0.0)


def reference_prox_step(products, base, supports, r, divisor, kappa):
    h_r = products.adjoint(r, supports, kappa * divisor)
    x, support = reference_soft_threshold_support(base + h_r / divisor, kappa)
    return x, support, products.forward(x, support)


def reference_fista(h, g, lam, max_iter):
    """``solve_fista`` with tol = 0 as its iteration was written before, on ``reference_prox_step``."""
    op, b, _, _ = lasso_inputs(h, g, lam)
    lips = max(op.norm_squared() or 1.0, LIPSCHITZ_FLOOR)  # the set-up's floor, which the forms below share
    if not math.isfinite(lips):
        raise DivergenceError(f"||H||^2 is not finite: {lips}")

    def steps(products):
        x = y = np.zeros(op.shape[1], dtype=np.complex128)
        h_x = h_y = np.zeros(op.shape[0], dtype=np.complex128)
        x_support = np.zeros(0, dtype=np.intp)
        y_supports = (x_support,)
        t = 1.0
        for _ in range(max_iter):
            x_new, support, h_x_new = reference_prox_step(products, y, y_supports, b - h_y, lips, lam / lips)
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            y = x_new + beta * (x_new - x)
            h_y = h_x_new + beta * (h_x_new - h_x)
            y_supports = (support, x_support)
            with np.errstate(over="ignore"):
                step = _norm(x_new - x)
                obj = lasso_objective(h_x_new - b, x_new, lam)
            x, h_x, t, x_support = x_new, h_x_new, t_new, support
            yield x, obj, step, 0.0, False

    return run_iterations(op, steps, max_iter)


def reference_kkt(h, g, lam, v):
    """``check_lasso_kkt``'s objective, max_active_violation and max_inactive_excess as they were formed before."""
    op, b, vv, _ = lasso_inputs(h, g, lam, v)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = op.forward(vv) - b
        grad = op.adjoint(resid)
    vmax = float(np.max(np.abs(vv), initial=0.0))
    cutoff = 1e-12 * vmax if vmax > 0.0 else 1e-14
    active = np.abs(vv) > cutoff
    av = vv[active]
    max_active = float(np.max(np.abs(grad[active] + lam * av / np.abs(av)), initial=0.0))
    max_inactive = max(float(np.max(np.abs(grad[~active]), initial=0.0)) - lam, 0.0)
    return lasso_objective(resid, vv, lam), max_active, max_inactive


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), (got, expected)


def same_float(a, b):
    """Bit-equal floats, any NaN matching any other."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


@st.composite
def arrays(draw, shape, parts=None, scales=(1e-300, 1e-160, 1.0, 1e150)):
    """A complex array of standard normal draws at one of ``scales``, some of whose parts are from ``parts``.

    ``parts`` is drawn when not given: the small, the finite or all of the special parts.
    """
    if parts is None:
        parts = draw(st.sampled_from([SMALL_PARTS, FINITE_PARTS, SPECIAL_PARTS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rand_complex(rng, *shape) * draw(st.sampled_from(scales))
    for part in (a.real, a.imag):
        idx = rng.choice(a.size, draw(st.integers(0, a.size)), replace=False)
        part.flat[idx] = rng.choice(parts, idx.size)
    return a


KAPPAS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, math.inf]),
                   st.floats(0.0, 10.0))


@SETTINGS
@given(st.data())
def test_adjoint_is_bit_identical(data):
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
    h, r = data.draw(arrays((m, n))), data.draw(arrays((m,)))
    with np.errstate(all="ignore"):
        assert_same_bits(adjoint(h, r), reference_adjoint(h, r))


@SETTINGS
@given(st.data())
def test_soft_threshold_is_bit_identical(data):
    kind = data.draw(st.sampled_from(["complex", "real", "scalar"]))
    shape = () if kind == "scalar" else (data.draw(st.integers(0, 40)),)
    a = data.draw(arrays(shape))
    if kind == "real":
        a = a.real.copy()
    kappa = data.draw(KAPPAS)
    with np.errstate(all="ignore"):
        x, support = soft_threshold_support(a, kappa)
        expected_x, expected_support = reference_soft_threshold_support(a, kappa)
    assert type(x) is type(expected_x)
    assert_same_bits(x, expected_x)
    assert_same_bits(support, expected_support)


def twin_products(h, anchor_r, threshold):
    """Two fresh SupportProducts on h, each holding the anchor that a dense adjoint of ``anchor_r`` leaves."""
    twins = [SupportProducts(h), SupportProducts(h)]
    if anchor_r is not None:
        empty = np.zeros(0, dtype=np.intp)
        for products in twins:
            products.adjoint(anchor_r, (empty,), threshold)
    return twins


@SETTINGS
@given(st.data())
def test_prox_step_is_bit_identical_on_both_paths(data):
    path = data.draw(st.sampled_from(["any", "screened"]))
    m = data.draw(st.integers(1, 6))
    n = SPARSE_FRACTION * data.draw(st.integers(1, 8))
    divisor = data.draw(st.sampled_from([1, 3, 31, 7.25, 1e-3]))
    kappa = data.draw(KAPPAS)
    if path == "any":
        # anything in H, r and the base, with or without an anchor
        h, r = data.draw(arrays((m, n))), data.draw(arrays((m,)))
        base = data.draw(arrays((n,)))
        anchor_r = data.draw(st.sampled_from([None, r]))
    else:
        # an H of normal draws with zero, subnormal and tiny entries (at a tiny scale the column
        # norms' underflow floor screens nothing), the residual close to the anchor, a narrow base
        # that holds the special values, and a level above every |H^H r_a|
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        h = data.draw(arrays((m, n), parts=SMALL_PARTS, scales=(1.0,)))
        h[:, rng.random(n) < 0.2] = 0.0
        anchor_r = rand_complex(rng, m)
        r = anchor_r + data.draw(st.sampled_from([0.0, 1e-15, 1e-8])) * rand_complex(rng, m)
        base = np.zeros(n, dtype=complex)
        base[rng.choice(n, n // SPARSE_FRACTION, replace=False)] = data.draw(arrays((n // SPARSE_FRACTION,)))
        kappa = 2.0 * float(np.max(np.abs(reference_adjoint(h, anchor_r)))) / divisor
    supports = data.draw(st.sampled_from([(np.flatnonzero(base),), (np.flatnonzero(base), np.zeros(0, np.intp))]))
    with np.errstate(all="ignore"):
        products, reference = twin_products(h, anchor_r, kappa * divisor)
        got = prox_step(products, base, supports, r, divisor, kappa)
        expected = reference_prox_step(reference, base, supports, r, divisor, kappa)
    for a, b in zip(got, expected):
        assert_same_bits(a, b)
    assert products.screened_adjoint_calls == reference.screened_adjoint_calls
    if path == "screened" and kappa > 0:
        assert products.screened_adjoint_calls == 1


def anchor_bytes(products):
    r_a, abs_q, norm_a = products._anchor
    return r_a.tobytes(), abs_q.tobytes(), norm_a


def test_prox_step_leaves_the_anchor_unchanged(rng):
    m, n = 6, 64 * SPARSE_FRACTION
    h = rand_complex(rng, m, n)
    products = SupportProducts(h)
    empty = np.zeros(0, dtype=np.intp)
    r = rand_complex(rng, m)
    kappa = 0.95 * float(np.max(np.abs(h.conj().T @ r)))
    x, support, _ = prox_step(products, np.zeros(n, dtype=complex), (empty,), r, 1, kappa)  # dense: sets the anchor
    expected = (r.tobytes(), np.abs(reference_adjoint(h, r)).tobytes(), math.sqrt(np.vdot(r, r).real))
    assert anchor_bytes(products) == expected
    assert 0 < len(support) <= n // SPARSE_FRACTION
    prox_step(products, x, (support,), r + 1e-9 * rand_complex(rng, m), 1, kappa)  # screened
    assert products.screened_adjoint_calls == 1
    assert anchor_bytes(products) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fista_is_bit_identical(data):
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.sampled_from([1, 7, 3 * SPARSE_FRACTION, 10 * SPARSE_FRACTION, 30 * SPARSE_FRACTION]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = rand_complex(rng, m, n) * data.draw(st.sampled_from([1e-160, 1.0, 1.0, 1e150]))
    h[:, rng.random(n) < 0.2] = 0.0
    g = data.draw(arrays((m,)))
    with np.errstate(all="ignore"):  # lam scales with the largest finite |H^H g|
        reach = float(np.max(np.abs(h.conj().T @ np.where(np.isfinite(g), g, 0.0))))
    lam = data.draw(st.sampled_from([0.0, 1e-300, 0.05, 0.3, 0.5, 0.8])) * (reach if math.isfinite(reach) else 1.0)
    max_iter = data.draw(st.integers(1, 30))
    results = []
    for solve in (lambda: solve_fista(h, g, lam, max_iter=max_iter, tol=0.0),
                  lambda: reference_fista(h, g, lam, max_iter)):
        with np.errstate(all="ignore"):
            try:
                results.append(solve())
            except DivergenceError as exc:
                results.append(str(exc))
    got, expected = results
    if isinstance(expected, str):
        assert got == expected
        return
    assert_same_bits(got[0], expected[0])
    for name in ("objective", "primal_residual", "dual_residual"):
        assert_same_bits(got[1].column(name), expected[1].column(name))
    assert got[1].screened_adjoint_iters == expected[1].screened_adjoint_iters
    assert got[1].sparse_forward_iters == expected[1].sparse_forward_iters


@st.composite
def kkt_points(draw):
    """v with active and inactive entries on both sides of the cutoff 1e-12 max|v|, and zeros."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = draw(st.sampled_from([SMALL_PARTS, FINITE_PARTS, SPECIAL_PARTS]))
    h = draw(arrays((m, n), parts=SMALL_PARTS, scales=(1e-160, 1.0, 1e100)))
    g = draw(arrays((m,), parts=parts))
    v = rand_complex(rng, n) * draw(st.sampled_from([1e-300, 1.0, 1e100]))
    kinds = rng.choice(["keep", "zero", "at", "below", "above", "special"], n)
    vmax = float(np.max(np.abs(v)))
    v[np.argmax(np.abs(v))] = vmax  # the largest magnitude stays, and is exactly the real vmax
    cutoff = 1e-12 * vmax if vmax > 0.0 else 1e-14
    for p, kind in enumerate(kinds):
        if np.abs(v[p]) == vmax:
            continue
        if kind == "zero":
            v[p] = 0.0
        elif kind in ("at", "below", "above"):
            level = {"at": cutoff, "below": np.nextafter(cutoff, 0.0), "above": np.nextafter(cutoff, np.inf)}[kind]
            v[p] = level * rng.choice([1.0, -1.0, 1j, -1j])
        elif kind == "special" and parts is SPECIAL_PARTS:
            v[p] = complex(rng.choice(SPECIAL_PARTS), rng.choice(SPECIAL_PARTS))
    lam = draw(st.sampled_from([0.0, 1e-300, 0.5, 3.0]))
    return h, g, lam, v


@SETTINGS
@given(kkt_points())
def test_kkt_report_is_bit_identical(point):
    h, g, lam, v = point
    with np.errstate(all="ignore"):
        report = check_lasso_kkt(h, g, lam, v, 0.0)
        objective, max_active, max_inactive = reference_kkt(h, g, lam, v)
    assert same_float(report.objective, objective)
    assert same_float(report.max_active_violation, max_active)
    assert same_float(report.max_inactive_excess, max_inactive)


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


N_VECTOR = 16 * 2**16  # bytes of one complex n-vector in the bounds below


@pytest.fixture(scope="module")
def wide_problem():
    """A 4 x 2^16 H, g, and the dense base and residual of a prox step on it."""
    rng = np.random.default_rng(7)
    m, n = 4, N_VECTOR // 16
    h = rand_complex(rng, m, n)
    return h, rand_complex(rng, m), rand_complex(rng, n), rand_complex(rng, m)


def test_kkt_of_a_dense_estimate_holds_at_most_three_n_vectors(wide_problem):
    # H^H r, the term lam v / |v| and |v| (half a complex vector), beside a few masks
    h, g, v, _ = wide_problem
    assert np.all(v != 0)
    peak = traced_peak(lambda: check_lasso_kkt(h, g, 0.5, v, 0.0))
    assert peak <= 3 * N_VECTOR, peak / N_VECTOR


def test_prox_step_holds_at_most_four_n_vectors(wide_problem):
    # H^H r (where the prox argument forms), x, and |.|, the shrunk magnitudes and the support
    # indices (half a complex vector each) of an argument the threshold keeps whole
    h, _, base, r = wide_problem
    products = SupportProducts(h)
    support = np.arange(h.shape[1])
    peak = traced_peak(lambda: prox_step(products, base, (support,), r, 3, 1e-300))
    assert peak <= 4 * N_VECTOR, peak / N_VECTOR
