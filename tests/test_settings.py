"""Every setting changes a run or is refused.

Perturbing any one field of the scenario changes the bytes that ``generate``
writes, and perturbing any one scalar config field changes what ``compare``
writes (timing fields aside), so no setting is carried along without effect.
"""

import csv
import dataclasses
import io
import json

import pytest

from cradmm import ScenarioConfig
from cradmm.cli import MANIFEST_FILE, MATRIX_FILE, MEASUREMENT_FILE, SCENE_FILE, main
from cradmm.config import FIELDS

# 3 x 2 rows on a 4 x 4 x 2 grid; a finite SNR and two frequencies, so the
# noise level and the bandwidth both reach the data
SCENARIO = {"n_theta": 3, "n_freq": 2, "grid": [4, 4, 2], "roi_extent": [6.0, 6.0, 3.0], "snr_db": 20.0,
            "rng_seed": 5}
TARGETS = [
    {"box": [[0, 2], [0, 2], [0, 1]], "amplitude": [1.0, 0.0]},
    {"box": [[2, 4], [2, 4], [1, 2]], "amplitude": [0.0, 1.0]},
]
BASE = {"scenario": SCENARIO, "targets": TARGETS, "admm": {"lambda": 0.05, "n_blocks": 3, "max_iter": 40},
        "fista": {"max_iter": 40}}

# one changed value per ScenarioConfig field
SCENARIO_CHANGES = {
    "n_theta": 4,
    "n_freq": 3,
    "grid": [4, 4, 3],
    "roi_offset_z0": 100.0,
    "roi_extent": [6.0, 6.0, 4.0],
    "center_freq_hz": 61.0e9,
    "bandwidth_hz": 3.0e9,
    "rng_seed": 6,
    "snr_db": 10.0,
}
# one changed value per FIELDS key, by (section, key); "" is the config root
FIELD_CHANGES = {
    ("admm", "lambda"): 0.2,
    ("admm", "rho"): 3.0,
    ("admm", "max_iter"): 41,
    ("admm", "eps_abs"): 1e-2,
    ("admm", "eps_rel"): 0.5,
    ("admm", "n_blocks"): 2,
    ("fista", "lambda"): 0.2,
    ("fista", "max_iter"): 41,
    ("fista", "tol"): 1e-2,
    ("pinv", "trunc_rel_tol"): 0.5,
    ("", "output_dir"): "elsewhere",
    ("", "noise_seed"): 3,
    ("", "support_rel_threshold"): 0.9,
}
GENERATED = (MATRIX_FILE, SCENE_FILE, MEASUREMENT_FILE)
TIMING = {"wall_seconds", "elapsed_seconds"}


def changed(section, key, value):
    raw = json.loads(json.dumps(BASE))
    (raw.setdefault(section, {}) if section else raw)[key] = value
    return raw


def run(monkeypatch, directory, raw, *commands):
    """Run ``generate``, then ``commands``, on ``raw`` from ``directory``; the config's output_dir is relative to it."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    (directory / "cfg.json").write_text(json.dumps(raw))
    for command in ("generate", *commands):
        assert main([command, "--config", "cfg.json"]) == 0


def without_timing(path):
    """The file's content, with the timing fields of a metrics record or a CSV taken out."""
    if path.suffix == ".json":
        return {k: v for k, v in json.loads(path.read_text()).items() if k not in TIMING}
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        keep = [i for i, name in enumerate(rows[0]) if name not in TIMING]
        return [[row[i] for i in keep] for row in rows]
    return path.read_bytes()


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScenarioConfig)])
def test_every_scenario_field_changes_what_generate_writes(tmp_path, monkeypatch, name):
    written = []
    for run_dir, raw in (("base", BASE), ("changed", changed("scenario", name, SCENARIO_CHANGES[name]))):
        run(monkeypatch, tmp_path / run_dir, raw)
        written.append({f: (tmp_path / run_dir / "out" / f).read_bytes() for f in GENERATED})
    assert written[0] != written[1]


@pytest.mark.parametrize("section, key", [(section, f[0]) for section, fields in FIELDS.items() for f in fields],
                         ids=lambda x: x or "root")
def test_every_config_field_changes_what_compare_writes(tmp_path, monkeypatch, section, key):
    written = []
    for run_dir, raw in (("base", BASE), ("changed", changed(section, key, FIELD_CHANGES[section, key]))):
        root = tmp_path / run_dir
        run(monkeypatch, root, raw, "compare")
        # keyed by the path under the run directory, so a changed output_dir shows
        outputs = [p for p in root.rglob("*") if p.is_file() and p.name not in {*GENERATED, MANIFEST_FILE, "cfg.json"}]
        assert outputs
        written.append({str(p.relative_to(root)): without_timing(p) for p in outputs})
    assert written[0] != written[1]
