"""Tests for goodness-of-fit and event statistics."""

import numpy as np
import pytest

from lidscore.errors import ValidationError
from lidscore.metrics import nse, peak_stats


class TestNse:
    def test_identity_is_one(self):
        obs = np.array([1.0, 3.0, 2.0, 5.0])
        report = nse(obs, obs)
        assert report.nse == 1.0
        assert report.passed
        assert report.n_points == 4

    def test_mean_prediction_is_zero(self):
        obs = np.array([1.0, 2.0, 3.0, 4.0])
        report = nse(obs, np.full(4, obs.mean()))
        assert report.nse == pytest.approx(0.0, abs=1e-12)
        assert not report.passed

    def test_hand_case(self):
        """obs (1,2,3) vs sim (1,2,4): 1 - 1/2 = 0.5."""
        report = nse([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert report.nse == pytest.approx(0.5, abs=1e-12)
        assert not report.passed  # the pass rule is strict: nse > 0.5

    def test_constant_observed_rejected(self):
        with pytest.raises(ValidationError, match="zero variance"):
            nse([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            nse([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_resampling_by_interpolation(self):
        obs = np.array([0.0, 2.0, 4.0, 6.0])           # 120 s step
        sim = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # 60 s step
        report = nse(obs, sim, observed_step_s=120, simulated_step_s=60)
        assert report.nse == pytest.approx(1.0)

    def test_random_series_properties(self):
        rng = np.random.default_rng(7)
        obs = rng.uniform(1, 10, 50)
        assert nse(obs, obs).nse == 1.0
        assert nse(obs, np.full(50, obs.mean())).nse == pytest.approx(0.0, abs=1e-12)


class TestPeakStats:
    def test_constant_series_peaks_at_start(self):
        assert peak_stats(np.full(5, 3.0), 60) == (3.0, 0.0)

    def test_simple_peak(self):
        assert peak_stats(np.array([0.0, 5.0, 3.0]), 60) == (5.0, 60.0)

    def test_triangle_apex(self):
        flows = np.array([0.0, 2.0, 4.0, 6.0, 4.0, 2.0, 0.0])
        assert peak_stats(flows, 30) == (6.0, 90.0)

    def test_tie_breaks_earliest(self):
        assert peak_stats(np.array([1.0, 7.0, 7.0]), 60)[1] == 60.0

    def test_empty_rejected(self):
        assert peak_stats(np.zeros(1), 60) == (0.0, 0.0)
        with pytest.raises(ValidationError, match="empty hydrograph"):
            peak_stats(np.zeros(0), 60)

