"""The runoff kernel against a fine-budget explicit-Euler oracle.

`kernels.step_subarea` runs at the pipeline's substep budget
(`hydrology.MAX_SUBSTEP_DEPTH_MM`); `reference.euler_subarea` integrates
the same reservoir with a depth budget hundreds of times finer. Gates:
event runoff volume within max(0.1%, 1e-5 mm) and peak step runoff
within 1% of the oracle.
"""

import numpy as np
import pytest

import reference
from lidscore import hydrology, kernels
from lidscore.hydrology import HortonParams, Subcatchment, simulate_subcatchment
from lidscore.pipeline import build_storms, simulate_all
from lidscore.storms import Hyetograph
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
    intensity, fcap, coef, dstore, dt, _, d0 = call
    runoff, _, _ = kernels.step_subarea(intensity, fcap, coef, dstore, dt,
                                        hydrology.MAX_SUBSTEP_DEPTH_MM, d0)
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


def _recorded_calls(monkeypatch, fn, *args):
    """Run `fn(*args)` and return the argument tuple of every
    `kernels.step_subarea` call it makes."""
    calls = []
    step = kernels.step_subarea

    def record(*call):
        calls.append(call)
        return step(*call)

    monkeypatch.setattr(kernels, "step_subarea", record)
    fn(*args)
    monkeypatch.setattr(kernels, "step_subarea", step)
    return calls


@pytest.mark.parametrize("case", list(subarea_cases()))
def test_kernel_cases_match_oracle(case):
    assert _gate_failures(case, FINE_MM) == []


def test_hand_case_matches_oracle(monkeypatch):
    """The acceptance-6 hand case: 1 ha, 60 mm/hr for 5 min then dry,
    constant 12 mm/hr infiltration, no depression storage."""
    sc = Subcatchment(id="hand", area_ha=1.0, impervious_fraction=0.0,
                      width_m=100, slope=0.01,
                      horton=HortonParams(12.0, 12.0, 1.0),
                      depression_storage_mm={"impervious": 0.0, "pervious": 0.0})
    storm = Hyetograph(step_s=60,
                       intensities_mm_hr=np.array([60.0] * 5 + [0.0] * 55),
                       total_depth_mm=5.0)
    calls = _recorded_calls(monkeypatch, simulate_subcatchment, sc, storm)
    assert len(calls) == 1
    assert _gate_failures(calls[0], FINE_MM) == []


def test_bundled_case_matches_oracle(monkeypatch, sports_config):
    """Every kernel call of one bundled `simulate_all`."""
    calls = _recorded_calls(monkeypatch, simulate_all, sports_config,
                            build_storms(sports_config))
    assert len(calls) == 186
    failures = [f"call {n}: {message}" for n, call in enumerate(calls)
                for message in _gate_failures(call, BUNDLED_MM)]
    assert failures == []


@pytest.mark.parametrize("index", [0, 1, 2])
def test_second_order_convergence(index):
    """Halving the budget from 0.4 to 0.2 mm cuts the volume error at
    least 2.5 times; a first-order step would only halve it."""
    intensity, fcap, coef, dstore, dt, _, d0 = list(subarea_cases())[index]
    oracle, _, _ = reference.euler_subarea(intensity, fcap, coef, dstore, dt,
                                           d0, FINE_MM)
    errors = [
        abs(float(kernels.step_subarea(intensity, fcap, coef, dstore, dt,
                                       budget, d0)[0].sum()) - float(oracle.sum()))
        for budget in (0.4, 0.2)
    ]
    assert errors[1] > 0.0
    assert errors[0] / errors[1] >= 2.5, errors

