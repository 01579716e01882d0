import math

import numpy as np
import pytest

from cradmm import (
    ConfigError,
    ScenarioConfig,
    build_phantom,
    forward_measure,
    synthesize_sensing_matrix,
)
from cradmm import scene

SMALL = ScenarioConfig(n_theta=4, n_freq=2, grid=(4, 3, 2), roi_extent=(6.0, 4.5, 3.0))


def flat_index(grid, ix, iy, iz):
    nx, ny, _ = grid
    return ix + nx * (iy + ny * iz)


class TestScenarioConfig:
    def test_defaults_match_demo_dimensions(self):
        cfg = ScenarioConfig()
        assert cfg.n_measurements == 93
        assert cfg.n_voxels == 25000
        assert cfg.violations() == []

    def test_frequencies_span_band(self):
        cfg = ScenarioConfig()
        freqs = cfg.frequencies_hz()
        assert freqs.shape == (3,)
        assert freqs[0] == pytest.approx(57.0e9)
        assert freqs[1] == pytest.approx(60.0e9)
        assert freqs[2] == pytest.approx(63.0e9)

    def test_single_frequency_uses_center(self):
        cfg = ScenarioConfig(n_freq=1)
        assert cfg.frequencies_hz().tolist() == [60.0e9]

    def test_validation_collects_all_violations(self):
        cfg = ScenarioConfig(n_theta=0, n_freq=0, grid=(0, 1, 1), rng_seed=-1)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        text = str(err.value)
        for field in ("n_theta", "n_freq", "grid", "rng_seed"):
            assert field in text

    def test_rejects_nan_snr(self):
        assert any("snr_db" in v for v in ScenarioConfig(snr_db=math.nan).violations())
        assert any("snr_db" in v for v in ScenarioConfig(snr_db=-math.inf).violations())
        assert ScenarioConfig(snr_db=math.inf).violations() == []


class TestBuildPhantom:
    def test_empty_targets_give_zero_scene(self):
        scene = build_phantom(SMALL, [])
        assert np.all(scene.reflectivity == 0)
        assert scene.support.size == 0

    def test_single_voxel_box_is_unit_vector(self):
        scene = build_phantom(SMALL, [(((0, 1), (0, 1), (0, 1)), 1.0)])
        expected = np.zeros(SMALL.n_voxels, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(scene.reflectivity, expected)
        assert scene.support.tolist() == [0]

    def test_four_disjoint_boxes(self):
        # oracle: enumerate every voxel and count box membership by hand
        cfg = ScenarioConfig(n_theta=1, n_freq=1, grid=(10, 10, 4), roi_extent=(1.0, 1.0, 1.0))
        boxes = [((0, 2), (0, 2), (0, 1)), ((5, 7), (1, 3), (1, 2)),
                 ((2, 4), (6, 8), (2, 3)), ((7, 9), (7, 9), (3, 4))]
        scene = build_phantom(cfg, [(b, 1.0) for b in boxes])
        members = set()
        for (x0, x1), (y0, y1), (z0, z1) in boxes:
            for iz in range(z0, z1):
                for iy in range(y0, y1):
                    for ix in range(x0, x1):
                        members.add(flat_index(cfg.grid, ix, iy, iz))
        assert len(members) == 16
        assert set(scene.support.tolist()) == members
        assert np.abs(scene.reflectivity).sum() == pytest.approx(16.0)

    def test_overlapping_boxes_sum(self):
        box = ((0, 2), (0, 1), (0, 1))
        scene = build_phantom(SMALL, [(box, 1.0), (box, 2.0 + 1.0j)])
        assert scene.reflectivity[0] == 3.0 + 1.0j
        assert scene.reflectivity[1] == 3.0 + 1.0j

    def test_box_outside_grid_raises(self):
        with pytest.raises(ValueError, match="outside grid"):
            build_phantom(SMALL, [(((0, 5), (0, 1), (0, 1)), 1.0)])
        with pytest.raises(ValueError, match="outside grid"):
            build_phantom(SMALL, [(((0, 1), (0, 1), (-1, 1)), 1.0)])

    def test_non_finite_amplitude_raises(self):
        with pytest.raises(ValueError, match="finite"):
            build_phantom(SMALL, [(((0, 1), (0, 1), (0, 1)), math.inf)])

    @pytest.mark.parametrize("target, match", [
        ((((0, True), (0, 1), (0, 1)), 1.0), "outside grid"),
        ((((0, 1), (0, 1), (0, 1)), True), "must be a number"),
        ((((0, 1), (0, 1), (0, 1)), np.True_), "must be a number"),
        ((((0, 1), (0, 1), (0, 1)), "2+1j"), "must be a number"),
    ], ids=["bool-bound", "bool-amplitude", "numpy-bool-amplitude", "string-amplitude"])
    def test_input_the_config_parser_rejects_raises(self, target, match):
        with pytest.raises(ValueError, match=match):
            build_phantom(SMALL, [target])

    @pytest.mark.parametrize("amplitude", [np.float64(2.0), np.complex64(2 + 1j), np.int64(2)])
    def test_numpy_scalar_amplitude_is_accepted(self, amplitude):
        scene = build_phantom(SMALL, [(((0, 1), (0, 1), (0, 1)), amplitude)])
        assert scene.reflectivity[0] == complex(amplitude)


class TestSynthesizeSensingMatrix:
    def test_demo_scale_shape(self):
        h = synthesize_sensing_matrix(ScenarioConfig())
        assert h.entries.shape == (93, 25000)
        assert len(h.row_meta) == 93
        assert np.all(np.isfinite(h.entries))

    def test_single_element_magnitude(self):
        # one voxel at the ROI center: distance is exactly z0 * wavelength
        cfg = ScenarioConfig(n_theta=1, n_freq=1, grid=(1, 1, 1), roi_extent=(1.0, 1.0, 1.0))
        h = synthesize_sensing_matrix(cfg)
        assert h.entries.shape == (1, 1)
        d = cfg.roi_offset_z0 * cfg.wavelength_m()
        assert abs(h.entries[0, 0]) == pytest.approx(1.0 / d**2, rel=1e-12)

    @pytest.mark.parametrize("n_freq", [1, 3, 5])
    def test_entries_match_the_per_row_expression(self, n_freq):
        # the frequency factor is formed once per frequency; every byte is as if formed per row
        cfg = ScenarioConfig(n_theta=3, n_freq=n_freq, grid=(5, 4, 3), roi_extent=(6.0, 4.5, 3.0), rng_seed=11)
        d = np.linalg.norm(cfg.voxel_centers_m() - cfg.focal_point_m(), axis=1)
        amplitude = 1.0 / d**2
        expected = np.empty((cfg.n_measurements, cfg.n_voxels), dtype=np.complex128)
        for r in range(cfg.n_theta):
            phase = np.random.default_rng([cfg.rng_seed, r]).uniform(0.0, 2.0 * np.pi, cfg.n_voxels)
            code = np.exp(1j * phase)
            for f, freq in enumerate(cfg.frequencies_hz()):
                k = 2.0 * np.pi * freq / scene.SPEED_OF_LIGHT_M_S
                expected[r * n_freq + f] = amplitude * np.exp(-2j * k * d) * code
        assert synthesize_sensing_matrix(cfg).entries.tobytes() == expected.tobytes()

    def test_rows_are_rotation_major(self):
        h = synthesize_sensing_matrix(SMALL)
        expected = [(r, f) for r in range(SMALL.n_theta) for f in range(SMALL.n_freq)]
        assert list(h.row_meta) == expected

    def test_code_phase_shared_within_rotation(self):
        # dividing two frequency rows of one rotation cancels the code phase,
        # so the ratio must not depend on the rotation index
        h = synthesize_sensing_matrix(SMALL).entries
        nf = SMALL.n_freq
        ratio0 = h[0] / h[1]
        for r in range(1, SMALL.n_theta):
            np.testing.assert_allclose(h[r * nf] / h[r * nf + 1], ratio0, rtol=1e-12)

    def test_deterministic_per_seed(self):
        a = synthesize_sensing_matrix(SMALL).entries
        b = synthesize_sensing_matrix(SMALL).entries
        assert a.tobytes() == b.tobytes()
        other = synthesize_sensing_matrix(
            ScenarioConfig(n_theta=4, n_freq=2, grid=(4, 3, 2), roi_extent=(6.0, 4.5, 3.0), rng_seed=1)
        ).entries
        assert a.tobytes() != other.tobytes()

    def test_no_all_zero_rows(self):
        h = synthesize_sensing_matrix(SMALL).entries
        assert np.all(np.abs(h).sum(axis=1) > 0)

    @pytest.mark.parametrize("n_freq", [1, 2, 3])
    def test_blocks_are_the_rotations_of_the_matrix(self, n_freq):
        cfg = ScenarioConfig(n_theta=5, n_freq=n_freq, grid=(4, 3, 2), roi_extent=(6.0, 4.5, 3.0), rng_seed=3)
        blocks = list(scene.sensing_blocks(cfg))
        assert [b.shape for b in blocks] == [(n_freq, cfg.n_voxels)] * cfg.n_theta
        assert np.concatenate(blocks).tobytes() == synthesize_sensing_matrix(cfg).entries.tobytes()

    def test_blocks_validate_before_the_first_is_taken(self):
        with pytest.raises(ConfigError):
            scene.sensing_blocks(ScenarioConfig(n_theta=0))


class TestForwardMeasure:
    def test_noiseless_is_exact(self, rng):
        h = synthesize_sensing_matrix(SMALL)
        u = rng.standard_normal(SMALL.n_voxels) + 1j * rng.standard_normal(SMALL.n_voxels)
        meas = forward_measure(h, u, math.inf, seed=0)
        np.testing.assert_array_equal(meas.g, h.entries @ u)
        assert meas.noise_power == 0.0
        assert meas.realized_snr_db == math.inf

    def test_identity_forward(self):
        g = forward_measure(np.eye(2), np.array([1.0, 2.0j]), math.inf, seed=0).g
        np.testing.assert_array_equal(g, np.array([1.0, 2.0j]))

    def test_zero_signal_convention(self):
        meas = forward_measure(np.eye(3), np.zeros(3), 20.0, seed=0)
        assert np.all(meas.g == 0)
        assert meas.noise_power == 0.0
        assert meas.realized_snr_db == math.inf

    def test_linearity(self, rng):
        h = synthesize_sensing_matrix(SMALL)
        u1 = rng.standard_normal(SMALL.n_voxels) + 1j * rng.standard_normal(SMALL.n_voxels)
        u2 = rng.standard_normal(SMALL.n_voxels) + 1j * rng.standard_normal(SMALL.n_voxels)
        a, b = 2.0 - 1.0j, 0.5 + 3.0j
        lhs = forward_measure(h, a * u1 + b * u2, math.inf, 0).g
        rhs = a * forward_measure(h, u1, math.inf, 0).g + b * forward_measure(h, u2, math.inf, 0).g
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_realized_snr_near_target(self, rng):
        h = synthesize_sensing_matrix(SMALL)
        u = rng.standard_normal(SMALL.n_voxels) + 1j * rng.standard_normal(SMALL.n_voxels)
        snrs = [forward_measure(h, u, 20.0, seed=k).realized_snr_db for k in range(120)]
        assert abs(np.mean(snrs) - 20.0) <= 1.0

    def test_deterministic_per_seed(self, rng):
        h = synthesize_sensing_matrix(SMALL)
        u = rng.standard_normal(SMALL.n_voxels) + 1j * rng.standard_normal(SMALL.n_voxels)
        a = forward_measure(h, u, 15.0, seed=7)
        b = forward_measure(h, u, 15.0, seed=7)
        assert a.g.tobytes() == b.g.tobytes()
        c = forward_measure(h, u, 15.0, seed=8)
        assert a.g.tobytes() != c.g.tobytes()

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="columns"):
            forward_measure(np.eye(3), np.zeros(4), math.inf, 0)

    def test_bad_snr_raises(self):
        with pytest.raises(ValueError, match="snr_db"):
            forward_measure(np.eye(2), np.ones(2), math.nan, 0)
        with pytest.raises(ValueError, match="snr_db"):
            scene.add_noise(np.ones(2, dtype=complex), math.nan, 0)

    @pytest.mark.parametrize("snr_db", [math.inf, 15.0])
    def test_noise_step_of_the_clean_product(self, rng, snr_db):
        h = synthesize_sensing_matrix(SMALL)
        u = rng.standard_normal(SMALL.n_voxels) + 1j * rng.standard_normal(SMALL.n_voxels)
        whole, step = forward_measure(h, u, snr_db, 4), scene.add_noise(h.entries @ u, snr_db, 4)
        assert whole.g.tobytes() == step.g.tobytes()
        assert (whole.noise_power, whole.realized_snr_db) == (step.noise_power, step.realized_snr_db)

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 4])
    def test_row_blocks_round_as_the_whole_product(self, rng, block_rows):
        # a one-row product is a dot product in numpy, which sums in another order than H @ u
        h = rng.standard_normal((12, 301)) + 1j * rng.standard_normal((12, 301))
        u = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        parts = [scene.rows_times(h[s:s + block_rows], u, len(h)) for s in range(0, len(h), block_rows)]
        assert np.concatenate(parts).tobytes() == (h @ u).tobytes()
        assert scene.rows_times(h[:1], u, 1).tobytes() == (h[:1] @ u).tobytes()
