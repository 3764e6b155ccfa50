"""The runoff kernel against a fine-budget explicit-Euler oracle.

`kernels.step_subarea` runs at the pipeline's error tolerance
(`kernels.TOL_ABS_MM`, `kernels.TOL_REL`); `reference.euler_subarea`
integrates the same reservoir with a fixed depth budget per substep fine
enough that its own error is a small part of the gates. Gates: event
runoff volume within max(0.1%, 1e-5 mm) and peak step runoff within 1% of
the oracle.
"""

import math

import numpy as np
import pytest

import reference
from lidscore import kernels
from lidscore.hydrology import HortonParams, Subcatchment, simulate_subcatchment
from lidscore.lid import LidKind, LidPlacement, default_catalog
from lidscore.pipeline import build_storms, simulate_all
from lidscore.storms import Hyetograph, IdfParams, chicago_hyetograph
from test_kernels import subarea_cases

VOLUME_RTOL = 1e-3
VOLUME_FLOOR_MM = 1e-5
PEAK_RTOL = 1e-2

# Oracle budgets: fine enough that the oracle's own error is a small part
# of the gate (Euler error is linear in the budget), cheap enough for the
# suite. The bundled case makes 186 kernel calls, hence the coarser one.
FINE_MM = 1e-4
BUNDLED_MM = 1e-3


def _gate_failures(call, budget_mm):
    """Kernel vs oracle on one `step_subarea` argument tuple; returns the
    list of gate violations (empty when both gates hold)."""
    intensity, fcap, coef, dstore, dt, d0 = call
    runoff = kernels.step_subarea(intensity, fcap, coef, dstore, dt, d0)[0]
    oracle, _, _ = reference.euler_subarea(intensity, fcap, coef, dstore, dt,
                                           d0, budget_mm)
    failures = []
    volume, volume_ref = float(runoff.sum()), float(oracle.sum())
    if abs(volume - volume_ref) > max(VOLUME_RTOL * volume_ref, VOLUME_FLOOR_MM):
        failures.append(f"volume {volume!r} mm vs oracle {volume_ref!r} mm")
    peak, peak_ref = float(runoff.max()), float(oracle.max())
    if abs(peak - peak_ref) > PEAK_RTOL * peak_ref:
        failures.append(f"peak {peak!r} mm vs oracle {peak_ref!r} mm")
    return failures


def _recorded_calls(monkeypatch, fn, *args, **kwargs):
    """Run `fn(*args, **kwargs)`; returns its result and the argument
    tuple of every `kernels.step_subarea` call it makes."""
    calls = []
    step = kernels.step_subarea

    def record(*call):
        calls.append(call)
        return step(*call)

    monkeypatch.setattr(kernels, "step_subarea", record)
    result = fn(*args, **kwargs)
    monkeypatch.setattr(kernels, "step_subarea", step)
    return result, calls


@pytest.mark.parametrize("case", list(subarea_cases()))
def test_kernel_cases_match_oracle(case):
    assert _gate_failures(case, FINE_MM) == []


def _hand_case(monkeypatch):
    """The acceptance-6 hand case: 1 ha, 60 mm/hr for 5 min then dry,
    constant 12 mm/hr infiltration, no depression storage."""
    sc = Subcatchment(id="hand", area_ha=1.0, impervious_fraction=0.0,
                      width_m=100, slope=0.01,
                      horton=HortonParams(12.0, 12.0, 1.0),
                      depression_storage_mm={"impervious": 0.0, "pervious": 0.0})
    storm = Hyetograph(step_s=60,
                       intensities_mm_hr=np.array([60.0] * 5 + [0.0] * 55),
                       total_depth_mm=5.0)
    return _recorded_calls(monkeypatch, simulate_subcatchment, sc, storm)


def test_hand_case_matches_oracle(monkeypatch):
    _, calls = _hand_case(monkeypatch)
    assert len(calls) == 1
    assert _gate_failures(calls[0], FINE_MM) == []


def test_hand_case_substep_counts(monkeypatch):
    """The kernel's substep counters on the hand case, as the kernel
    returns them and as `SubcatchmentDetail` carries them: 132 substeps
    over 60 steps, at most 12 in one step."""
    (_, _, detail), calls = _hand_case(monkeypatch)
    counts = kernels.step_subarea(*calls[0])[3:]
    assert counts == (132, 12)
    assert (detail.substeps, detail.max_substeps) == counts


def test_bundled_case_matches_oracle(monkeypatch, sports_config):
    """Every kernel call of one bundled `simulate_all`."""
    _, calls = _recorded_calls(monkeypatch, simulate_all, sports_config,
                               build_storms(sports_config))
    assert len(calls) == 186
    failures = [f"call {n}: {message}" for n, call in enumerate(calls)
                for message in _gate_failures(call, BUNDLED_MM)]
    assert failures == []


@pytest.mark.parametrize("depth_mm,idf", [(55.0, IdfParams(20.0, 10.0, 0.72)),
                                           (80.0, IdfParams(20.0, 5.0, 0.85))])
def test_heavy_storm_matches_oracle(monkeypatch, depth_mm, idf):
    """The regime of the kernel-bound benchmark workload: a 120 min storm
    of 55 mm, or a sharper one of 80 mm peaking at 469 mm/hr, and a 60 min
    dry tail on a 9 ha subcatchment with a bio-retention cell, both
    surfaces gated like the bundled case."""
    sc = Subcatchment(id="heavy", area_ha=9.0, impervious_fraction=0.6,
                      width_m=400, slope=0.01,
                      horton=HortonParams(75.0, 5.0, 3.5))
    storm = chicago_hyetograph(depth_mm, 120, 0.45, idf, 60)
    placement = LidPlacement("heavy", LidKind.BIO_RETENTION, 0.3, 0.25)
    _, calls = _recorded_calls(monkeypatch, simulate_subcatchment, sc, storm,
                               [placement], default_catalog(), tail_min=60)
    assert [len(call[0]) for call in calls] == [180, 180]
    failures = [f"call {n}: {message}" for n, call in enumerate(calls)
                for message in _gate_failures(call, BUNDLED_MM)]
    assert failures == []


@pytest.mark.parametrize("index", [0, 1, 2])
def test_second_order_convergence(monkeypatch, index):
    """The midpoint step is second order. An infinite tolerance accepts
    every trial, so each step is one midpoint step over the whole step;
    halving the step (each input repeated twice) then cuts the volume
    error at least 2.5 times, where a first-order step would only halve
    it."""
    monkeypatch.setattr(kernels, "TOL_ABS_MM", math.inf)
    intensity, fcap, coef, dstore, dt, d0 = list(subarea_cases())[index]
    oracle, _, _ = reference.euler_subarea(intensity, fcap, coef, dstore, dt,
                                           d0, FINE_MM)
    errors = []
    for m in (1, 2):
        runoff, _, _, _, max_substeps = kernels.step_subarea(
            np.repeat(intensity, m), np.repeat(fcap, m), coef, dstore, dt / m,
            d0)
        assert max_substeps == 1
        errors.append(abs(float(runoff.sum()) - float(oracle.sum())))
    assert errors[1] > 0.0
    assert errors[0] / errors[1] >= 2.5, errors
