"""JSON experiment configuration: parsing, validation, and echoing.

Only ``scenario`` is required. Its keys are the fields of ScenarioConfig,
with that class's defaults; ``snr_db`` accepts a number, the string "inf", or
null (both meaning noiseless). ``targets`` is a list of
{"box": [[x0,x1],[y0,y1],[z0,z1]], "amplitude": [re, im] or a number}, and
the optional ``sweep`` holds the "lambda" and "rho" lists of a compare sweep.
Every other key is a scalar field listed, with its default and its check, in
FIELDS below; the README's "Config schema" shows them all. Validation is
strict: unknown keys and every out-of-range field are reported together in
one ConfigError. The value rules live in ``scene``, shared with the library;
only JSON shapes (objects, lists, pairs, strings) are checked here.
"""

import dataclasses
import functools
import inspect
import json
import math

from .admm import AdmmParams
from .baselines import solve_fista, solve_pseudoinverse
from .errors import ConfigError
from .scene import (FINITE_GE0, FINITE_GT0, IN_UNIT, INT_GE0, INT_GE1, SNR_DB, Check, ScenarioConfig,
                    block_count, is_integer, is_real, target_violations)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs: scenario, phantom, solver settings, outputs."""

    scenario: ScenarioConfig
    targets: tuple
    admm: AdmmParams
    admm_blocks: int
    fista_lam: float
    fista_max_iter: int
    fista_tol: float
    pinv_trunc_rel_tol: float
    sweep_lambdas: tuple
    sweep_rhos: tuple
    output_dir: str
    noise_seed: int
    support_rel_threshold: float

    @property
    def has_sweep(self):
        return bool(self.sweep_lambdas) and bool(self.sweep_rhos)


NONEMPTY_STR = Check(lambda x: isinstance(x, str) and x != "", "must be a nonempty string")

# (JSON key, ExperimentConfig attribute, default, check) per section, in the
# order their violations are reported; "" is the config root. "admm.lam" is
# ExperimentConfig.admm.lam. The two cross-section rules are the Nones:
# fista.lambda defaults to the ADMM lambda, and admm.n_blocks must lie in
# [1, rows] for the scenario's row count (measurement count). Each default of a
# solver setting is the library's: ADMM's from AdmmParams, FISTA's and pinv's
# from the signatures of solve_fista and solve_pseudoinverse.
_FISTA, _PINV = (inspect.signature(solve).parameters for solve in (solve_fista, solve_pseudoinverse))
FIELDS = {
    "admm": (
        ("lambda", "admm.lam", 0.01, FINITE_GE0),
        ("rho", "admm.rho", 1.0, FINITE_GT0),
        ("max_iter", "admm.max_iter", AdmmParams.max_iter, INT_GE1),
        ("eps_abs", "admm.eps_abs", AdmmParams.eps_abs, FINITE_GE0),
        ("eps_rel", "admm.eps_rel", AdmmParams.eps_rel, FINITE_GE0),
        ("n_blocks", "admm_blocks", 31, None),
    ),
    "fista": (
        ("lambda", "fista_lam", None, FINITE_GE0),
        ("max_iter", "fista_max_iter", _FISTA["max_iter"].default, INT_GE1),
        ("tol", "fista_tol", _FISTA["tol"].default, FINITE_GE0),
    ),
    "pinv": (("trunc_rel_tol", "pinv_trunc_rel_tol", _PINV["trunc_rel_tol"].default, IN_UNIT),),
    "": (
        ("output_dir", "output_dir", "out", NONEMPTY_STR),
        ("noise_seed", "noise_seed", 0, INT_GE0),
        ("support_rel_threshold", "support_rel_threshold", 0.2, IN_UNIT),
    ),
}
# a sweep list holds values of an ADMM field and is checked like it
SWEEP_KEYS = {"lambda": ("admm.lam", FINITE_GE0), "rho": ("admm.rho", FINITE_GT0)}


def load_experiment_config(path):
    """Parse and validate the JSON config file at ``path``.

    A file that is missing or cannot be read as UTF-8 JSON (a directory, say)
    is a ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config file is not valid JSON: {exc}"]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file is not UTF-8 text: {exc}"]) from None
    except OSError as exc:
        raise ConfigError([f"config file {path} cannot be read: {exc.strerror}"]) from None
    return experiment_config_from_dict(raw)


def experiment_config_from_dict(raw):
    """Build an ExperimentConfig from a JSON-shaped dict, reporting every violation."""
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root: must be a JSON object"])
    sections = {"scenario", "targets", "sweep", "admm", "fista", "pinv"}
    _reject_unknown(raw, sections | {f[0] for f in FIELDS[""]}, "", errors)

    scenario = _parse_scenario(raw, errors)
    targets = _parse_targets(raw.get("targets", []), scenario, errors)
    got = {}
    for name in ("admm", "fista", "pinv"):
        _parse_fields(raw.get(name, {}), name, scenario.n_measurements, got, errors)
    sweep = _parse_sweep(raw.get("sweep"), got, errors)
    _parse_fields(raw, "", scenario.n_measurements, got, errors)

    if errors:
        raise ConfigError(errors)
    admm = AdmmParams(**{f.name: got.pop(f"admm.{f.name}") for f in dataclasses.fields(AdmmParams)})
    return ExperimentConfig(scenario=scenario, targets=targets, admm=admm,
                            sweep_lambdas=sweep["lambda"], sweep_rhos=sweep["rho"], **got)


def experiment_config_to_dict(cfg):
    """JSON-ready dict that reproduces ``cfg`` through experiment_config_from_dict."""
    out = {
        "scenario": {f.name: _echo(getattr(cfg.scenario, f.name)) for f in dataclasses.fields(ScenarioConfig)},
        "targets": [
            {"box": [list(pair) for pair in box], "amplitude": [amp.real, amp.imag]}
            for box, amp in cfg.targets
        ],
    }
    for name, fields in FIELDS.items():
        section = out.setdefault(name, {}) if name else out
        for key, attr, _, _ in fields:
            section[key] = functools.reduce(getattr, attr.split("."), cfg)
    if cfg.has_sweep:
        out["sweep"] = {"lambda": list(cfg.sweep_lambdas), "rho": list(cfg.sweep_rhos)}
    return out


def _echo(value):
    if isinstance(value, tuple):
        return list(value)
    return None if value == math.inf else value  # a noiseless snr_db is null


# -- parsers -----------------------------------------------------------------


def _parse_fields(section, name, rows, got, errors):
    """Parse the FIELDS[name] scalars of ``section`` into ``got``, keyed by attribute.

    Defaults are checked like given values; a failing value falls back to its default.
    """
    prefix = f"{name}." if name else ""
    if not isinstance(section, dict):
        errors.append(f"{name}: must be a JSON object")
        section = {}
    elif name:
        _reject_unknown(section, {f[0] for f in FIELDS[name]}, prefix, errors)
    for key, attr, default, check in FIELDS[name]:
        if default is None:  # fista.lambda: the ADMM lambda
            default = got["admm.lam"]
        if check is None:  # admm.n_blocks: at most one block per measurement row
            check = block_count(rows)
        value = section.get(key, default)
        if check.accepts(value):
            got[attr] = check.convert(value)
        else:
            errors.append(f"{prefix}{key}: {check.message}")
            got[attr] = default


def _parse_scenario(raw, errors):
    section = raw.get("scenario")
    if not isinstance(section, dict):
        errors.append("scenario: must be a JSON object" if "scenario" in raw
                      else "scenario: required field is missing")
        return ScenarioConfig()
    names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    _reject_unknown(section, names, "scenario.", errors)
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items() if k in names}
    if "snr_db" in kwargs:
        snr = kwargs.pop("snr_db")
        if snr is None or isinstance(snr, str) and snr.lower() in ("inf", "infinity"):
            kwargs["snr_db"] = math.inf
        elif is_real(snr):  # an int beyond the float range stays one, for violations() to reject
            kwargs["snr_db"] = SNR_DB.convert(snr) if SNR_DB.accepts(snr) else snr
        else:
            errors.append('scenario.snr_db: must be a number, null, or "inf"')
    scenario = ScenarioConfig(**kwargs)
    violations = scenario.violations()
    errors.extend(f"scenario.{violation}" for violation in violations)
    return ScenarioConfig() if violations else scenario


def _parse_targets(section, scenario, errors):
    if not isinstance(section, list):
        errors.append("targets: must be a list of {box, amplitude} objects")
        return ()
    targets = []
    for idx, entry in enumerate(section):
        path = f"targets[{idx}]"
        if not isinstance(entry, dict) or set(entry) - {"box", "amplitude"}:
            errors.append(f"{path}: must be an object with keys 'box' and 'amplitude'")
            continue
        box = entry.get("box")
        box_ok = (
            isinstance(box, list) and len(box) == 3
            and all(isinstance(p, list) and len(p) == 2 and all(is_integer(c) for c in p) for p in box)
        )
        if not box_ok:
            errors.append(f"{path}.box: must be three [lo, hi] integer pairs")
            continue
        amp = entry.get("amplitude", 1.0)
        parts = amp if isinstance(amp, list) and len(amp) == 2 else [amp, 0.0]
        if not all(is_real(part) for part in parts):
            errors.append(f"{path}.amplitude: must be a number or [re, im] pair")
            continue
        bad = target_violations(box, parts, scenario.grid, f"{path}.box: ", f"{path}.amplitude: ")
        errors.extend(bad)
        if not bad:
            targets.append(((tuple(box[0]), tuple(box[1]), tuple(box[2])), complex(*parts)))
    return tuple(targets)


def sweep_tag(lam, rho):
    """The tag of a sweep run; its trace, estimate, metrics and views are named after it."""
    return f"admm_lam{lam:g}_rho{rho:g}"


def _parse_sweep(section, got, errors):
    """The sweep's lambda and rho lists; a missing list is the single ADMM value.

    Two values of a list that give a run the same tag are an error: the
    second run's files would overwrite the first's.
    """
    if section is None:
        return {"lambda": (), "rho": ()}
    if not isinstance(section, dict):
        errors.append("sweep: must be a JSON object")
        return {"lambda": (), "rho": ()}
    _reject_unknown(section, set(SWEEP_KEYS), "sweep.", errors)
    out = {}
    for key, (attr, check) in SWEEP_KEYS.items():
        values = section.get(key, [got[attr]])
        if isinstance(values, list) and values and all(check.accepts(v) for v in values):
            out[key] = tuple(float(v) for v in values)
        else:
            errors.append(f"sweep.{key}: must be a nonempty list of valid values")
            out[key] = (got[attr],)
    lams, rhos = out["lambda"], out["rho"]
    for key, tags in (("lambda", [sweep_tag(lam, rhos[0]) for lam in lams]),
                      ("rho", [sweep_tag(lams[0], rho) for rho in rhos])):
        for i, tag in enumerate(tags):
            first = tags.index(tag)
            if first < i:
                errors.append(f"sweep.{key}: {out[key][first]!r} and {out[key][i]!r} share the run tag {tag}")
    return out


def _reject_unknown(section, allowed, prefix, errors):
    for key in sorted(set(section) - set(allowed)):
        errors.append(f"{prefix}{key}: unknown field")
