"""Exact violation lists of the config parser, one representative bad value per field.

Each case applies one change to a small valid config and asserts the full
``ConfigError.violations`` list, text and order included. The README's
config schema is checked against the parser's defaults.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from cradmm import ScenarioConfig, experiment_config_from_dict, experiment_config_to_dict
from cradmm.errors import ConfigError
from cradmm.scene import MAX_MATRIX_ENTRIES

BASE = {
    "scenario": {"n_theta": 3, "n_freq": 2, "grid": [4, 4, 2], "roi_extent": [6.0, 6.0, 3.0]},
    "admm": {"n_blocks": 3},
}
DROP = object()


def with_change(section, key, value):
    raw = copy.deepcopy(BASE)
    target = raw if section is None else raw.setdefault(section, {})
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    return raw


def violations(raw):
    with pytest.raises(ConfigError) as err:
        experiment_config_from_dict(raw)
    return err.value.violations


SCENARIO_CASES = [
    ("n_theta", 0, ["scenario.n_theta: must be an integer >= 1"]),
    ("n_freq", 2.5, ["scenario.n_freq: must be an integer >= 1"]),
    ("grid", [4, 4], ["scenario.grid: must be three integer voxel counts >= 1"]),
    ("voxel_size_l", -1.5, ["scenario.voxel_size_l: must be a finite length > 0"]),
    ("roi_offset_z0", 0, ["scenario.roi_offset_z0: must be a finite length > 0"]),
    ("roi_extent", [6.0, 6.0, "a"], ["scenario.roi_extent: must be three finite lengths > 0"]),
    ("center_freq_hz", "60e9", ["scenario.center_freq_hz: must be a finite frequency > 0"]),
    ("bandwidth_hz", -1.0, ["scenario.bandwidth_hz: must be a finite frequency >= 0"]),
    ("rng_seed", True, ["scenario.rng_seed: must be an integer >= 0"]),
    ("snr_db", "loud", ['scenario.snr_db: must be a number, null, or "inf"']),
    ("snr_db", float("nan"), ["scenario.snr_db: must be a real value or +infinity"]),
    ("snr_db", float("-inf"), ["scenario.snr_db: must be a real value or +infinity"]),
    ("bogus", 1, ["scenario.bogus: unknown field"]),
]

SECTION_CASES = [
    ("admm", "lambda", -1.0, ["admm.lambda: must be a finite number >= 0"]),
    ("admm", "rho", 0.0, ["admm.rho: must be a finite number > 0"]),
    ("admm", "n_blocks", 7, ["admm.n_blocks: must be an integer in [1, 6] (the measurement count)"]),
    ("admm", "max_iter", 0, ["admm.max_iter: must be an integer >= 1"]),
    ("admm", "eps_abs", float("inf"), ["admm.eps_abs: must be a finite number >= 0"]),
    ("admm", "eps_rel", "x", ["admm.eps_rel: must be a finite number >= 0"]),
    ("admm", "bogus", 1, ["admm.bogus: unknown field"]),
    ("fista", "lambda", None, ["fista.lambda: must be a finite number >= 0"]),
    ("fista", "max_iter", 1.5, ["fista.max_iter: must be an integer >= 1"]),
    ("fista", "tol", -1e-3, ["fista.tol: must be a finite number >= 0"]),
    ("fista", "bogus", 1, ["fista.bogus: unknown field"]),
    ("pinv", "trunc_rel_tol", 1.0, ["pinv.trunc_rel_tol: must lie in (0, 1)"]),
    ("pinv", "bogus", 1, ["pinv.bogus: unknown field"]),
    ("sweep", "lambda", [], ["sweep.lambda: must be a nonempty list of valid values"]),
    ("sweep", "rho", [1.0, 0.0], ["sweep.rho: must be a nonempty list of valid values"]),
    ("sweep", "bogus", 1, ["sweep.bogus: unknown field"]),
    (None, "output_dir", "", ["output_dir: must be a nonempty string"]),
    (None, "noise_seed", -1, ["noise_seed: must be an integer >= 0"]),
    (None, "support_rel_threshold", 1, ["support_rel_threshold: must lie in (0, 1)"]),
    (None, "bogus", 1, ["bogus: unknown field"]),
    (None, "scenario", DROP, ["scenario: required field is missing"]),
    (None, "scenario", [], ["scenario: must be a JSON object"]),
    # the default n_blocks (31) is still checked against the scenario's 6 rows
    (None, "admm", "x", ["admm: must be a JSON object",
                         "admm.n_blocks: must be an integer in [1, 6] (the measurement count)"]),
    (None, "fista", [], ["fista: must be a JSON object"]),
    (None, "pinv", 1, ["pinv: must be a JSON object"]),
    (None, "sweep", "x", ["sweep: must be a JSON object"]),
]

TARGET_CASES = [
    ("x", ["targets: must be a list of {box, amplitude} objects"]),
    ([5], ["targets[0]: must be an object with keys 'box' and 'amplitude'"]),
    ([{"box": [[0, 1], [0, 1], [0, 1]], "phase": 0}],
     ["targets[0]: must be an object with keys 'box' and 'amplitude'"]),
    ([{"box": [[0, 1], [0, 1]]}], ["targets[0].box: must be three [lo, hi] integer pairs"]),
    ([{"box": [[0, 1], [0, 1], [0.0, 1]]}], ["targets[0].box: must be three [lo, hi] integer pairs"]),
    ([{"box": [[0, 1], [0, 1], [0, 1]], "amplitude": "x"}],
     ["targets[0].amplitude: must be a number or [re, im] pair"]),
    ([{"box": [[0, 1], [0, 1], [0, 1]], "amplitude": [1.0]}],
     ["targets[0].amplitude: must be a number or [re, im] pair"]),
    ([{"box": [[0, 5], [2, 2], [0, 1]]}, {"box": [[0, 1], [0, 1], [1, 3]]}],
     ["targets[0].box: x range [0, 5) outside grid of 4 voxels",
      "targets[0].box: y range [2, 2) outside grid of 4 voxels",
      "targets[1].box: z range [1, 3) outside grid of 2 voxels"]),
]

MULTI_ERROR = {
    "zeta": 1,
    "alpha": 2,
    "scenario": {"n_theta": 0, "grid": [4, 4], "snr_db": "loud", "extra": 1},
    "targets": [{"box": [[0, 60], [0, 1], [0, 1]], "amplitude": 1}, 3],
    "admm": {"n_blocks": 100, "lambda": -1, "rho": 0, "max_iter": 0, "eps_abs": -1,
             "eps_rel": -1, "z": 0, "a": 0},
    "fista": {"lambda": -1, "max_iter": 0, "tol": -1, "q": 0},
    "pinv": {"trunc_rel_tol": 0, "q": 0},
    "sweep": {"rho": [], "lambda": [-1], "q": 0},
    "output_dir": 3,
    "noise_seed": 1.5,
    "support_rel_threshold": 0,
}

MULTI_ERROR_VIOLATIONS = [
    "alpha: unknown field",
    "zeta: unknown field",
    "scenario.extra: unknown field",
    'scenario.snr_db: must be a number, null, or "inf"',
    "scenario.n_theta: must be an integer >= 1",
    "scenario.grid: must be three integer voxel counts >= 1",
    "targets[0].box: x range [0, 60) outside grid of 50 voxels",
    "targets[1]: must be an object with keys 'box' and 'amplitude'",
    "admm.a: unknown field",
    "admm.z: unknown field",
    "admm.lambda: must be a finite number >= 0",
    "admm.rho: must be a finite number > 0",
    "admm.max_iter: must be an integer >= 1",
    "admm.eps_abs: must be a finite number >= 0",
    "admm.eps_rel: must be a finite number >= 0",
    "admm.n_blocks: must be an integer in [1, 93] (the measurement count)",
    "fista.q: unknown field",
    "fista.lambda: must be a finite number >= 0",
    "fista.max_iter: must be an integer >= 1",
    "fista.tol: must be a finite number >= 0",
    "pinv.q: unknown field",
    "pinv.trunc_rel_tol: must lie in (0, 1)",
    "sweep.q: unknown field",
    "sweep.lambda: must be a nonempty list of valid values",
    "sweep.rho: must be a nonempty list of valid values",
    "output_dir: must be a nonempty string",
    "noise_seed: must be an integer >= 0",
    "support_rel_threshold: must lie in (0, 1)",
]


def test_base_config_is_valid():
    cfg = experiment_config_from_dict(copy.deepcopy(BASE))
    assert cfg.scenario.n_measurements == 6


@pytest.mark.parametrize("key, value, expected", SCENARIO_CASES,
                         ids=[f"scenario.{c[0]}={c[1]!r}" for c in SCENARIO_CASES])
def test_scenario_field(key, value, expected):
    assert violations(with_change("scenario", key, value)) == expected


@pytest.mark.parametrize("section, key, value, expected", SECTION_CASES,
                         ids=[f"{c[0] or 'root'}.{c[1]}" for c in SECTION_CASES])
def test_section_field(section, key, value, expected):
    assert violations(with_change(section, key, value)) == expected


@pytest.mark.parametrize("targets, expected", TARGET_CASES, ids=[str(i) for i in range(len(TARGET_CASES))])
def test_targets(targets, expected):
    assert violations(with_change(None, "targets", targets)) == expected


@pytest.mark.parametrize("root", [[], "x", 3, None])
def test_root_must_be_an_object(root):
    assert violations(root) == ["config root: must be a JSON object"]


def test_errors_of_every_section_in_order():
    assert violations(copy.deepcopy(MULTI_ERROR)) == MULTI_ERROR_VIOLATIONS


BOOLEAN_CASES = [
    ("n_theta", True, "n_theta: must be an integer >= 1"),
    ("n_freq", False, "n_freq: must be an integer >= 1"),
    ("grid", [True, 4, 2], "grid: must be three integer voxel counts >= 1"),
    ("grid", [4, True, 2], "grid: must be three integer voxel counts >= 1"),
    ("grid", [4, 4, True], "grid: must be three integer voxel counts >= 1"),
    ("bandwidth_hz", True, "bandwidth_hz: must be a finite frequency >= 0"),
    ("bandwidth_hz", False, "bandwidth_hz: must be a finite frequency >= 0"),
]


@pytest.mark.parametrize("key, value, message", BOOLEAN_CASES,
                         ids=[f"{c[0]}={c[1]!r}" for c in BOOLEAN_CASES])
def test_booleans_are_not_numbers(key, value, message):
    assert violations(with_change("scenario", key, value)) == [f"scenario.{message}"]
    fields = {**BASE["scenario"], key: tuple(value) if isinstance(value, list) else value}
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**fields).validate()
    assert err.value.violations == [message]


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, [1.0, -math.inf], [math.nan, 0.0]])
def test_non_finite_amplitude_is_a_violation(amplitude):
    targets = [{"box": [[0, 1], [0, 1], [0, 1]], "amplitude": 1.0},
               {"box": [[0, 1], [0, 1], [0, 1]], "amplitude": amplitude}]
    assert violations(with_change(None, "targets", targets)) == ["targets[1].amplitude: must be finite"]


# an integer JSON literal too large for a float
HUGE = 10**400

OVERFLOW_CASES = [
    ("admm", "lambda", HUGE, "admm.lambda: must be a finite number >= 0"),
    ("admm", "rho", HUGE, "admm.rho: must be a finite number > 0"),
    ("admm", "eps_abs", HUGE, "admm.eps_abs: must be a finite number >= 0"),
    ("admm", "eps_rel", HUGE, "admm.eps_rel: must be a finite number >= 0"),
    ("fista", "lambda", HUGE, "fista.lambda: must be a finite number >= 0"),
    ("fista", "tol", HUGE, "fista.tol: must be a finite number >= 0"),
    ("pinv", "trunc_rel_tol", HUGE, "pinv.trunc_rel_tol: must lie in (0, 1)"),
    (None, "support_rel_threshold", HUGE, "support_rel_threshold: must lie in (0, 1)"),
    ("sweep", "lambda", [0.1, HUGE], "sweep.lambda: must be a nonempty list of valid values"),
    ("sweep", "rho", [-HUGE], "sweep.rho: must be a nonempty list of valid values"),
    ("scenario", "voxel_size_l", HUGE, "scenario.voxel_size_l: must be a finite length > 0"),
    ("scenario", "roi_offset_z0", HUGE, "scenario.roi_offset_z0: must be a finite length > 0"),
    ("scenario", "roi_extent", [6.0, HUGE, 3.0], "scenario.roi_extent: must be three finite lengths > 0"),
    ("scenario", "center_freq_hz", HUGE, "scenario.center_freq_hz: must be a finite frequency > 0"),
    ("scenario", "bandwidth_hz", HUGE, "scenario.bandwidth_hz: must be a finite frequency >= 0"),
    ("scenario", "snr_db", HUGE, "scenario.snr_db: must be a real value or +infinity"),
    ("scenario", "snr_db", -HUGE, "scenario.snr_db: must be a real value or +infinity"),
    (None, "targets", [{"box": [[0, 1], [0, 1], [0, 1]], "amplitude": HUGE}],
     "targets[0].amplitude: must be finite"),
    (None, "targets", [{"box": [[0, 1], [0, 1], [0, 1]], "amplitude": [1.0, -HUGE]}],
     "targets[0].amplitude: must be finite"),
]


@pytest.mark.parametrize("section, key, value, message", OVERFLOW_CASES,
                         ids=[f"{c[0] or 'root'}.{c[1]}-{i}" for i, c in enumerate(OVERFLOW_CASES)])
def test_integer_beyond_float_range_is_a_violation(section, key, value, message):
    assert violations(with_change(section, key, value)) == [message]
    if section == "scenario":
        fields = {**BASE["scenario"], key: tuple(value) if isinstance(value, list) else value}
        assert ScenarioConfig(**fields).violations() == [message.removeprefix("scenario.")]


SIZE_MESSAGE = ("grid: with n_theta * n_freq rows and one column per voxel, "
                "the sensing matrix exceeds the addressable size")

COUNT_CASES = [
    ("n_theta", HUGE),
    ("n_freq", HUGE),
    ("grid", [4, 4, HUGE]),
    ("grid", [HUGE, 1, 1]),
    ("grid", [2**40, 2**40, 1]),
]


@pytest.mark.parametrize("key, value", COUNT_CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(COUNT_CASES)])
def test_count_beyond_the_addressable_size_is_a_violation(key, value):
    assert violations(with_change("scenario", key, value)) == [f"scenario.{SIZE_MESSAGE}"]
    fields = {**BASE["scenario"], key: tuple(value) if isinstance(value, list) else value}
    assert ScenarioConfig(**fields).violations() == [SIZE_MESSAGE]


def test_addressable_size_boundary():
    # checked on ScenarioConfig alone: nothing is allocated
    assert ScenarioConfig(n_theta=1, n_freq=1, grid=(MAX_MATRIX_ENTRIES, 1, 1)).violations() == []
    assert ScenarioConfig(n_theta=1, n_freq=1, grid=(MAX_MATRIX_ENTRIES + 1, 1, 1)).violations() == [SIZE_MESSAGE]
    assert ScenarioConfig(n_theta=2, n_freq=1, grid=(MAX_MATRIX_ENTRIES // 2 + 1, 1, 1)).violations() == [SIZE_MESSAGE]
    # a count that is itself invalid is reported alone
    assert ScenarioConfig(n_theta=0, grid=(4, 4, HUGE)).violations() == ["n_theta: must be an integer >= 1"]


def readme_schema():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config schema", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


def test_readme_schema_shows_the_parser_defaults():
    shown = readme_schema()
    defaults = experiment_config_to_dict(experiment_config_from_dict({"scenario": {}}))
    assert experiment_config_from_dict(shown).has_sweep
    for section in ("scenario", "admm", "fista", "pinv"):
        assert shown[section] == defaults[section], section
    for key in ("output_dir", "noise_seed", "support_rel_threshold"):
        assert shown[key] == defaults[key], key
    assert set(shown) == set(defaults) | {"sweep"}
