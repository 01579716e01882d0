"""The config parser and the library apply one rule to every value they share.

Each scalar config field is paired with the library parameters that take the
same value. For any drawn value, the parser reports a violation exactly when
the library raises ValueError, whether the library is given the value itself
or its numpy scalar form, and the library raises nothing else.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cradmm import (
    AdmmParams,
    ScenarioConfig,
    add_noise,
    build_phantom,
    check_lasso_kkt,
    experiment_config_from_dict,
    partition_rows,
    precompute_block_solver,
    soft_threshold,
    solve_consensus_lasso,
    solve_fista,
    solve_pseudoinverse,
    support_metrics,
    synthesize_sensing_matrix,
)
from cradmm.errors import ConfigError
from cradmm.linop import lasso_inputs

# six measurement rows, as in H below; one ADMM block fits any valid scenario
SCENARIO = {"n_theta": 3, "n_freq": 2, "grid": [4, 4, 2], "roi_extent": [6.0, 6.0, 3.0]}
BASE = {"scenario": SCENARIO, "admm": {"n_blocks": 1}}

_rng = np.random.default_rng(11)
H = _rng.standard_normal((6, 4)) + 1j * _rng.standard_normal((6, 4))
X = np.array([1.0, 0.0, -2.0j, 0.5])
G = H @ X


def scenario(key, value):
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in SCENARIO.items()}
    fields[key] = tuple(value) if isinstance(value, list) else value
    return ScenarioConfig(**fields).validate()


def in_triple(value):
    return [value, 4, 2]


def target_box(value):
    return [{"box": [[value, 2], [0, 1], [1, 2]], "amplitude": 1.0}]


def target_amplitude(value):
    return [{"box": [[0, 1], [0, 1], [0, 1]], "amplitude": value}]


def phantom_of(targets):
    return build_phantom(scenario("n_theta", 3), [(tuple(map(tuple, t["box"])), t["amplitude"]) for t in targets])


# (config section, key, config value from the drawn value, library call on that config value)
PAIRS = {
    "admm.lambda-AdmmParams": ("admm", "lambda", None, lambda v: AdmmParams(lam=v, rho=1.0)),
    "admm.lambda-lasso_inputs": ("admm", "lambda", None, lambda v: lasso_inputs(H, G, v)),
    "admm.lambda-check_lasso_kkt": ("admm", "lambda", None, lambda v: check_lasso_kkt(H, G, v, X, 0.0)),
    "admm.rho-AdmmParams": ("admm", "rho", None, lambda v: AdmmParams(lam=0.1, rho=v)),
    "admm.rho-precompute_block_solver": ("admm", "rho", None, lambda v: precompute_block_solver(H, G, v)),
    "admm.max_iter-AdmmParams": ("admm", "max_iter", None, lambda v: AdmmParams(lam=0.1, rho=1.0, max_iter=v)),
    "admm.eps_abs-AdmmParams": ("admm", "eps_abs", None, lambda v: AdmmParams(lam=0.1, rho=1.0, eps_abs=v)),
    "admm.eps_rel-AdmmParams": ("admm", "eps_rel", None, lambda v: AdmmParams(lam=0.1, rho=1.0, eps_rel=v)),
    "admm.n_blocks-partition_rows": ("admm", "n_blocks", None, lambda v: partition_rows(H, G, v)),
    "fista.lambda-solve_fista": ("fista", "lambda", None, lambda v: solve_fista(H, G, v, max_iter=1)),
    # g = 0 stays at the zero start, so the rule holds at the second iteration whatever max_iter is
    "fista.max_iter-solve_fista": ("fista", "max_iter", None, lambda v: solve_fista(H, 0 * G, 0.1, max_iter=v)),
    "fista.tol-solve_fista": ("fista", "tol", None, lambda v: solve_fista(H, G, 0.1, max_iter=2, tol=v)),
    "pinv.trunc_rel_tol-solve_pseudoinverse": ("pinv", "trunc_rel_tol", None,
                                               lambda v: solve_pseudoinverse(H, G, v)),
    "support_rel_threshold-support_metrics": (None, "support_rel_threshold", None,
                                              lambda v: support_metrics(X, X, v)),
    "targets.box-build_phantom": (None, "targets", target_box, phantom_of),
    "targets.amplitude-build_phantom": (None, "targets", target_amplitude, phantom_of),
    **{
        f"scenario.{key}-ScenarioConfig": ("scenario", key, place, lambda v, key=key: scenario(key, v))
        for key, place in (("n_theta", None), ("n_freq", None), ("grid", in_triple), ("voxel_size_l", None),
                           ("roi_offset_z0", None), ("roi_extent", in_triple), ("center_freq_hz", None),
                           ("bandwidth_hz", None), ("rng_seed", None), ("snr_db", None))
    },
}

VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 6, 7, -1, 0.0, 0.5, 1.0, -0.0, 1e-10, 2**63, 10**400, -(10**400),
                     math.nan, math.inf, -math.inf, True, False, "", "1", "inf", None]),
    st.integers(),
    st.integers(min_value=2**1024),
    st.integers(max_value=-(2**1024)),
    st.floats(width=32),  # float32-exact, so np.float32(x) == x
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


def numpy_forms(value):
    """``value`` and each numpy scalar equal to it."""
    if isinstance(value, bool):
        return [value, np.bool_(value)]
    if isinstance(value, int):
        return [value, np.int64(value)] if -(2**63) <= value < 2**63 else [value]
    if isinstance(value, float):
        return [value, np.float32(value), np.float64(value)]
    return [value]


def parser_rejects(section, key, value):
    raw = {"scenario": dict(SCENARIO), "admm": dict(BASE["admm"])}
    target = raw if section is None else raw.setdefault(section, {})
    target[key] = value
    try:
        experiment_config_from_dict(raw)
    except ConfigError:
        return True
    return False


def library_rejects(call, value):
    try:
        call(value)
    except ValueError:
        return True
    return False


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(value=VALUES)
@pytest.mark.parametrize("pair", PAIRS, ids=list(PAIRS))
def test_parser_and_library_agree(pair, value):
    section, key, place, call = PAIRS[pair]
    # the parser reads null and "inf" as a noiseless snr_db before ScenarioConfig sees it
    assume(not (key == "snr_db" and (value is None or isinstance(value, str))))
    place = place or (lambda v: v)
    rejected = parser_rejects(section, key, place(value))
    for form in numpy_forms(value):
        assert library_rejects(call, place(form)) == rejected, f"{type(form).__name__} {form!r}"


# -- numpy scalars -------------------------------------------------------------

F32 = np.float32(0.1)  # equals the Python float float(F32), not 0.1
SMALL = ScenarioConfig(n_theta=2, n_freq=2, grid=(4, 3, 2), roi_extent=(6.0, 6.0, 3.0))


def admm_run(lam):
    v, trace, _ = solve_consensus_lasso(H, G, AdmmParams(lam=lam, rho=1.0, max_iter=20), 2)
    return v.tobytes(), trace.column("objective").tobytes()


def fista_run(max_iter):
    u, trace = solve_fista(H, G, 0.1, max_iter=max_iter, tol=0.0)
    return u.tobytes(), trace.column("objective").tobytes()


def sensing_matrix(**fields):
    return synthesize_sensing_matrix(dataclasses.replace(SMALL, **fields)).entries.tobytes()


def phantom(lo):
    return build_phantom(SMALL, [(((lo, 2), (0, 1), (1, 2)), 1.5)]).reflectivity.tobytes()


@pytest.mark.parametrize("run, numpy_value, value", [
    (lambda lam: AdmmParams(lam=lam, rho=1.0), F32, float(F32)),
    (admm_run, F32, float(F32)),
    (lambda lam: check_lasso_kkt(H, G, lam, X, 0.0), F32, float(F32)),
    (fista_run, np.int64(2), 2),
    (lambda n: partition_rows(H, G, n), np.int64(2), 2),
    (lambda n: sensing_matrix(n_theta=n), np.int64(2), 2),
    (lambda f: sensing_matrix(center_freq_hz=f), np.float32(6e10), float(np.float32(6e10))),
    (lambda n: sensing_matrix(grid=(4, n, 2)), np.int64(3), 3),
    (phantom, np.int64(0), 0),
    (lambda tol: solve_pseudoinverse(H, G, tol).tobytes(), F32, float(F32)),
    (lambda threshold: support_metrics(X, X, threshold), F32, float(F32)),
], ids=["AdmmParams", "admm-solve", "check_lasso_kkt", "solve_fista", "partition_rows",
        "ScenarioConfig-count", "ScenarioConfig-frequency", "ScenarioConfig-grid", "build_phantom", "solve_pseudoinverse", "support_metrics"])
def test_numpy_scalar_gives_the_result_of_the_python_number(run, numpy_value, value):
    assert numpy_value == value
    got, want = run(numpy_value), run(value)
    assert got == want
    assert repr(got) == repr(want)  # no numpy scalar is kept where the Python number would be


@pytest.mark.parametrize("call", [
    *(lambda b, place=place, call=call: call((place or (lambda v: v))(b)) for _, _, place, call in PAIRS.values()),
    lambda b: soft_threshold(X, b),
    lambda b: add_noise(G, b, 0),
], ids=[*PAIRS, "soft_threshold", "add_noise"])
@pytest.mark.parametrize("flag", [np.True_, np.False_, True, False])
def test_bools_are_refused(call, flag):
    with pytest.raises(ValueError):
        call(flag)


@pytest.mark.parametrize("kappa", ["1", None, math.nan, -1.0])
def test_soft_threshold_refuses_a_threshold_with_value_error(kappa):
    with pytest.raises(ValueError, match="threshold must be >= 0"):
        soft_threshold(X, kappa)


def test_numpy_counts_past_the_addressable_size_get_the_size_violation():
    # as int64 the entry count 6 * 2**64 wraps to 0
    counts = dict(n_theta=np.int64(3), n_freq=np.int64(2), grid=(np.int64(2**32), np.int64(2**32), np.int64(1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ScenarioConfig(**counts).violations() == [
            "grid: with n_theta * n_freq rows and one column per voxel, the sensing matrix exceeds the addressable size"
        ]
