"""Stepping kernels: exact mass closure, non-negative fluxes, the
substep limit and step-size independence of the LID-unit balance."""

import numpy as np
import pytest

from lidscore import kernels
from lidscore.errors import ValidationError


def subarea_cases():
    """Arguments of `kernels.step_subarea`; the same values on every call."""
    rng = np.random.default_rng(42)
    yield (np.full(30, 0.008), np.zeros(30), 2e-4, 1.5, 60.0, 0.01, 0.0)
    yield (np.full(30, 0.02), np.full(30, 0.003), 1e-3, 0.0, 60.0, 0.01, 0.0)
    yield (rng.uniform(0, 0.03, 120), rng.uniform(0, 0.01, 120),
           5e-4, 2.5, 30.0, 0.01, 1.2)
    yield (np.zeros(10), np.full(10, 0.005), 1e-3, 0.5, 300.0, 0.01, 4.0)


def lid_cases():
    rng = np.random.default_rng(42)
    yield (np.array([30.0, 50.0, 10.0, 0.0]), 25 / 3600, 2 / 3600, 60.0, 60.0, 0.0)
    yield (rng.uniform(0, 5.0, 200), 10 / 3600, 0.0, 250.0, 60.0, 0.0)
    yield (np.zeros(5), 10 / 3600, 5 / 3600, 100.0, 60.0, 80.0)


class TestPurePython:
    @pytest.mark.parametrize("case", list(subarea_cases()))
    def test_subarea_mass_closes_exactly(self, case):
        intensity, fcap, coef, ds, dt, max_step, d0 = case
        runoff, infil, d_end = kernels.step_subarea(*case)
        rain = float(intensity.sum()) * dt + d0
        assert rain == pytest.approx(
            float(runoff.sum() + infil.sum()) + d_end, abs=1e-9)
        assert np.all(runoff >= 0) and np.all(infil >= 0) and d_end >= 0

    @pytest.mark.parametrize("case", list(subarea_cases()))
    def test_subarea_mass_closes_every_step(self, case):
        """The kernel is causal, so a run over the first k + 1 steps ends
        at the depth after step k; each step's rain then equals its
        runoff, infiltration and depth change."""
        intensity, fcap, coef, ds, dt, max_step, d0 = case
        runoff, infil, _ = kernels.step_subarea(*case)
        depth = d0
        for k in range(len(intensity)):
            _, _, d_k = kernels.step_subarea(intensity[:k + 1], fcap[:k + 1],
                                             coef, ds, dt, max_step, d0)
            assert intensity[k] * dt + depth == pytest.approx(
                runoff[k] + infil[k] + d_k, abs=1e-12)
            depth = d_k

    def test_substep_limit_raises(self):
        """A step that asks for 8,280 substeps is rejected, not truncated."""
        case = (np.full(6, 0.02), np.full(6, 0.003), 1e-3, 0.0, 3600.0, 0.01,
                0.0)
        with pytest.raises(ValidationError,
                           match=r"step 0 \(t = 0 s\) needs 8280 substeps"):
            kernels.step_subarea(*case)

    @pytest.mark.parametrize("case", list(lid_cases()))
    def test_lid_mass_closes_exactly(self, case):
        inflow = case[0]
        overflow, drained, exfil, v = kernels.step_lid_unit(*case)
        total_in = float(inflow.sum()) + case[5]
        total_out = float(overflow.sum() + drained.sum() + exfil.sum()) + v
        assert total_in == pytest.approx(total_out, abs=1e-9)

    def test_lid_result_independent_of_step_size(self):
        """Piecewise-constant rates are integrated exactly, so slicing the
        same inflow onto a finer grid changes nothing."""
        inflow = np.array([30.0, 50.0, 10.0, 0.0])
        coarse = kernels.step_lid_unit(inflow, 25 / 3600, 2 / 3600,
                                       60.0, 60.0, 0.0)
        fine = kernels.step_lid_unit(np.repeat(inflow / 60, 60),
                                     25 / 3600, 2 / 3600, 60.0, 1.0, 0.0)
        assert coarse[0].sum() == pytest.approx(fine[0].sum(), abs=1e-9)
        assert coarse[3] == pytest.approx(fine[3], abs=1e-9)
