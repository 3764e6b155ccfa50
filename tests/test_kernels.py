"""Stepping kernels: exact mass closure, non-negative fluxes, the
substep limit and step-size independence of the LID-unit balance."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lidscore import kernels
from lidscore.errors import ValidationError


def subarea_cases():
    """Arguments of `kernels.step_subarea`; the same values on every call."""
    rng = np.random.default_rng(42)
    yield (np.full(30, 0.008), np.zeros(30), 2e-4, 1.5, 60.0, 0.0)
    yield (np.full(30, 0.02), np.full(30, 0.003), 1e-3, 0.0, 60.0, 0.0)
    yield (rng.uniform(0, 0.03, 120), rng.uniform(0, 0.01, 120),
           5e-4, 2.5, 30.0, 1.2)
    yield (np.zeros(10), np.full(10, 0.005), 1e-3, 0.5, 300.0, 4.0)


@st.composite
def subarea_calls(draw):
    """`kernels.step_subarea` arguments: 1 to 12 steps of 0 to 180 mm/hr
    rain and 0 to 108 mm/hr capacity (exact zeros included), a Manning
    coefficient from 1e-6 to 0.1, 0 to 10 mm depression storage, steps of
    1 to 3600 s and 0 to 50 mm initial depth."""
    n = draw(st.integers(1, 12))

    def rates(most):
        rate = st.one_of(st.just(0.0), st.floats(0.0, most))
        return np.array(draw(st.lists(rate, min_size=n, max_size=n)))

    intensity = rates(0.05)
    fcap = rates(0.03)
    return (intensity, fcap, draw(st.floats(1e-6, 0.1)),
            draw(st.floats(0.0, 10.0)), draw(st.floats(1.0, 3600.0)),
            draw(st.floats(0.0, 50.0)))


def assert_steps_close(call, runoff, infil, d_end):
    """Step the call again one step at a time from each step's start
    depth (the kernel's only state): each step must give the whole run's
    runoff and infiltration, be non-negative and close its mass within
    1e-12 mm."""
    intensity, fcap, coef, dstore, dt, depth = call
    for k in range(len(intensity)):
        r_k, f_k, d_k, _, _ = kernels.step_subarea(
            intensity[k:k + 1], fcap[k:k + 1], coef, dstore, dt, depth)
        assert (r_k[0], f_k[0]) == (runoff[k], infil[k])
        assert r_k[0] >= 0.0 and f_k[0] >= 0.0 and d_k >= 0.0
        assert abs(intensity[k] * dt + depth - (r_k[0] + f_k[0] + d_k)) <= 1e-12
        depth = d_k
    assert depth == d_end


def lid_cases():
    rng = np.random.default_rng(42)
    yield (np.array([30.0, 50.0, 10.0, 0.0]), 25 / 3600, 2 / 3600, 60.0, 60.0, 0.0)
    yield (rng.uniform(0, 5.0, 200), 10 / 3600, 0.0, 250.0, 60.0, 0.0)
    yield (np.zeros(5), 10 / 3600, 5 / 3600, 100.0, 60.0, 80.0)


class TestPurePython:
    @pytest.mark.parametrize("case", list(subarea_cases()))
    def test_subarea_mass_closes_exactly(self, case):
        intensity, fcap, coef, ds, dt, d0 = case
        runoff, infil, d_end, _, _ = kernels.step_subarea(*case)
        rain = float(intensity.sum()) * dt + d0
        assert rain == pytest.approx(
            float(runoff.sum() + infil.sum()) + d_end, abs=1e-9)
        assert np.all(runoff >= 0) and np.all(infil >= 0) and d_end >= 0

    @pytest.mark.parametrize("case", list(subarea_cases()))
    def test_subarea_mass_closes_every_step(self, case):
        assert_steps_close(case, *kernels.step_subarea(*case)[:3])

    def test_substep_limit_raises(self, monkeypatch):
        """A step that asks for 4,096 substeps is rejected, not truncated.

        The default tolerance bounds every count by 2 / TOL_REL + 1, far
        below the limit, so the tolerance is shrunk to an absolute 2**-10
        mm. Steps 0-2 are dry and pass in one substep each. In step 3 the
        trial's half-step depth is 256 s * 1/256 mm/s = 1 mm, so its
        midpoint outflow is 2**-7 mm/s and its Euler and midpoint end
        depths differ by 512 s * 2**-7 mm/s = 4 mm, 4,096 tolerances."""
        monkeypatch.setattr(kernels, "TOL_REL", 0.0)
        monkeypatch.setattr(kernels, "TOL_ABS_MM", 2.0**-10)
        case = (np.array([0.0, 0.0, 0.0, 2.0**-8]), np.zeros(4), 2.0**-7, 0.0,
                512.0, 0.0)
        with pytest.raises(ValidationError, match=(
                r"^step 3 \(t = 1536 s\) needs 4096 substeps, "
                r"more than 3600$")):
            kernels.step_subarea(*case)
        monkeypatch.setattr(kernels, "MAX_SUBSTEPS", 4096)
        _, _, _, substeps, max_substeps = kernels.step_subarea(*case)
        assert (substeps, max_substeps) == (3 + 4096, 4096)

    @settings(max_examples=300, deadline=None)
    @given(call=subarea_calls(),
           tol_abs_mm=st.one_of(st.none(), st.floats(1e-6, 1e-2)))
    # the substeps of step 3 drain 1.1e-12 mm more than there is; clamping
    # the end depth at 0 alone made that much water
    @example(call=(np.array([0.0, 0.0, 0.015625, 0.00390625, 0.0, 0.0]),
                   np.array([0.0, 0.0, 0.0, 0.0234375, 0.0, 0.0]),
                   1e-5, 0.0, 2190.0, 1.0), tol_abs_mm=0.00390625)
    def test_subarea_property(self, call, tol_abs_mm):
        """At the kernel's tolerance, or at an absolute `tol_abs_mm` in its
        place, a run either raises at the first step that needs more than
        MAX_SUBSTEPS substeps, naming it and its count, or finishes with
        every step within the limit, every flux non-negative and every
        step closing rain + old depth = runoff + infiltration + new depth
        within 1e-12 mm."""
        tolerance = ((kernels.TOL_REL, kernels.TOL_ABS_MM) if tol_abs_mm is None
                     else (0.0, tol_abs_mm))
        with mock.patch.multiple(kernels, TOL_REL=tolerance[0],
                                 TOL_ABS_MM=tolerance[1]):
            try:
                runoff, infil, d_end, substeps, max_substeps = \
                    kernels.step_subarea(*call)
            except ValidationError as exc:
                found = re.fullmatch(r"step (\d+) \(t = \S+ s\) needs (\d+) "
                                     r"substeps, more than 3600", str(exc))
                assert found, str(exc)
                step, count = int(found[1]), int(found[2])
                assert count > kernels.MAX_SUBSTEPS
                intensity, fcap, *rest = call
                prefix = (intensity[:step], fcap[:step], *rest)
                assert kernels.step_subarea(*prefix)[4] <= kernels.MAX_SUBSTEPS
            else:
                n = len(call[0])
                assert max_substeps <= kernels.MAX_SUBSTEPS
                assert n <= substeps <= n * max_substeps
                assert_steps_close(call, runoff, infil, d_end)

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
