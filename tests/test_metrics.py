import math
import warnings

import numpy as np
import pytest

from conftest import rand_complex
from cradmm import nmse, project_views, support_metrics


class TestNmse:
    def test_identity_is_zero(self, rng):
        u = rand_complex(rng, 20)
        assert nmse(u, u) == 0.0

    def test_zero_estimate_is_one(self, rng):
        u = rand_complex(rng, 20)
        assert nmse(np.zeros(20), u) == pytest.approx(1.0)

    def test_doubled_estimate_is_one(self, rng):
        u = rand_complex(rng, 20)
        assert nmse(2.0 * u, u) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_law(self, rng):
        u = rand_complex(rng, 50)
        for alpha in (0.0, 0.5, 1.0 + 2.0j, -3.0):
            assert nmse(alpha * u, u) == pytest.approx(abs(alpha - 1.0) ** 2, rel=1e-12, abs=1e-15)

    def test_zero_reference_raises(self):
        with pytest.raises(ValueError, match="zero reference"):
            nmse(np.ones(3), np.zeros(3))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            nmse(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0 + 2.0j, -3.0, 1e150])
    def test_finite_value_is_the_ratio_of_two_vdots(self, rng, alpha):
        u = rand_complex(rng, 50)
        est = alpha * u + rand_complex(rng, 50)
        diff = est - u
        assert nmse(est, u) == float(np.real(np.vdot(diff, diff))) / float(np.real(np.vdot(u, u)))

    @pytest.mark.parametrize("est_scale, true_scale, expected", [
        (1e160, 1.0, math.inf),  # past the float range
        (1e154, 1.0, (1e154 - 1.0) ** 2),  # ||est - true||^2 overflows, the ratio does not
        (2e200, 1e200, 1.0),  # both sums of squares overflow
        (-1e300, 1e300, 4.0),  # est - true overflows
    ], ids=["inf", "numerator", "both", "difference"])
    def test_sum_of_squares_that_overflows_is_never_nan(self, rng, est_scale, true_scale, expected):
        # an overflowing complex vdot reads nan+nanj; the NMSE must read as the ratio, with no warning
        u = rand_complex(rng, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nmse(est_scale * u, true_scale * u)
        assert got == pytest.approx(expected, rel=1e-12)


class TestSupportMetrics:
    def test_exact_recovery(self, rng):
        u = np.zeros(30, dtype=complex)
        u[[2, 9, 17]] = rand_complex(rng, 3)
        assert support_metrics(u, u, 0.2) == (1.0, 1.0)

    def test_one_spurious_voxel(self):
        true = np.zeros(10, dtype=complex)
        true[:4] = 1.0
        est = true.copy()
        est[7] = 1.0  # same magnitude as the real targets
        precision, recall = support_metrics(est, true, 0.5)
        assert precision == pytest.approx(0.8)
        assert recall == pytest.approx(1.0)

    def test_zero_estimate_nonempty_truth(self):
        true = np.zeros(6, dtype=complex)
        true[1] = 1.0
        assert support_metrics(np.zeros(6), true, 0.2) == (0.0, 0.0)

    def test_zero_estimate_empty_truth(self):
        assert support_metrics(np.zeros(6), np.zeros(6), 0.2) == (1.0, 1.0)

    def test_threshold_bounds(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="rel_threshold"):
                support_metrics(np.ones(3), np.ones(3), bad)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            support_metrics(np.ones(3), np.ones(4), 0.5)


class TestProjectViews:
    def test_single_voxel(self):
        grid = (4, 3, 2)
        u = np.zeros(24, dtype=complex)
        u[1 + 4 * (2 + 3 * 1)] = 5.0j  # voxel (x=1, y=2, z=1)
        views = project_views(u, grid)
        assert views.top.shape == (3, 4)
        assert views.front.shape == (2, 4)
        assert views.side.shape == (2, 3)
        for view in (views.top, views.front, views.side):
            assert np.count_nonzero(view) == 1
            assert view.max() == pytest.approx(5.0)
        assert views.top[2, 1] == pytest.approx(5.0)
        assert views.front[1, 1] == pytest.approx(5.0)
        assert views.side[1, 2] == pytest.approx(5.0)

    def test_uniform_volume(self):
        views = project_views(np.ones(24, dtype=complex), (4, 3, 2))
        for view in (views.top, views.front, views.side):
            np.testing.assert_array_equal(view, np.ones_like(view))

    def test_stacked_voxels_take_maximum(self):
        grid = (2, 2, 2)
        u = np.zeros(8, dtype=complex)
        u[1 + 2 * (1 + 2 * 0)] = 1.0  # (1, 1, 0)
        u[1 + 2 * (1 + 2 * 1)] = 3.0  # (1, 1, 1)
        views = project_views(u, grid)
        assert views.top[1, 1] == pytest.approx(3.0)

    def test_z_reversal_keeps_top_view(self, rng):
        grid = (5, 4, 3)
        u = rand_complex(rng, 60)
        vol = u.reshape(3, 4, 5)
        reversed_u = vol[::-1].ravel()
        np.testing.assert_array_equal(project_views(u, grid).top, project_views(reversed_u, grid).top)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="grid"):
            project_views(np.ones(7), (2, 2, 2))
