"""Stepping kernels for runoff and LID-unit water balances.

`step_subarea` integrates the Manning nonlinear reservoir of one runoff
subarea with midpoint (second-order Runge-Kutta) substeps, the
higher-order treatment SWMM 5 gives the same reservoir; `step_lid_unit`
routes inflow through one LID storage unit. Both are plain Python loops
over the time steps, on Python floats taken from the inputs once.
"""

import math

import numpy as np

from lidscore.errors import ValidationError

# Reported as `kernel_backend` in manifest.json.
BACKEND = "python"

FIVE_THIRDS = 5.0 / 3.0

# A step that needs more substeps than this is rejected, not truncated.
MAX_SUBSTEPS = 3600


def step_subarea(intensity_mmps, fcap_mmps, q_coef, dstore_mm, dt_s, max_step_mm, d0_mm):
    """Integrate ponded depth on one runoff subarea with midpoint substeps.

    intensity_mmps, fcap_mmps
        Per-step rainfall rate and infiltration capacity (mm/s). Pass a
        zero capacity array for impervious surfaces.
    q_coef
        Manning outflow coefficient such that q [mm/s] =
        q_coef * (depth_mm - dstore_mm) ** (5/3).
    max_step_mm
        Sub-stepping threshold: each step is cut into
        ceil((rain + capacity + outflow) * dt / max_step_mm) substeps,
        rates taken at the start of the step.

    Each substep infiltrates first (limited to rain plus ponded water),
    then drains the Manning outflow evaluated at the half-substep depth
    d + h/2 * (rain - infiltration - q(d)), limited to the water present.
    Raises ValidationError when a step needs more than MAX_SUBSTEPS.

    Returns (runoff_mm, infiltration_mm, final_depth_mm) where the arrays
    hold per-step totals. Mass closes exactly per step:
    rain = runoff + infiltration + depth change.
    """
    intensity = np.asarray(intensity_mmps, dtype=np.float64).tolist()
    fcap = np.asarray(fcap_mmps, dtype=np.float64).tolist()
    if len(intensity) != len(fcap):
        raise ValueError("intensity and capacity series differ in length")
    power = FIVE_THIRDS
    runoff = []
    infil = []
    d = float(d0_mm)
    for k, (i, fc) in enumerate(zip(intensity, fcap)):
        excess = d - dstore_mm
        q0 = q_coef * excess**power if excess > 0.0 else 0.0
        # total depth movement (in + out) bounds the substep size
        rate = i + fc + q0
        n_sub = int(math.ceil(rate * dt_s / max_step_mm)) if rate > 0.0 else 1
        if n_sub < 1:
            n_sub = 1
        elif n_sub > MAX_SUBSTEPS:
            raise ValidationError(
                f"step {k} (t = {k * dt_s:g} s) needs {n_sub} substeps, "
                f"more than {MAX_SUBSTEPS}")
        h = dt_s / n_sub
        half_h = 0.5 * h
        r_acc = 0.0
        f_acc = 0.0
        for _ in range(n_sub):
            # infiltration first (from rain plus ponded water), then the
            # Manning outflow at the half-substep depth drains whatever
            # depth remains
            f = fc
            avail_rate = i + d / h
            if f > avail_rate:
                f = avail_rate
            net = i - f
            excess = d - dstore_mm
            q = q_coef * excess**power if excess > 0.0 else 0.0
            excess = d + half_h * (net - q) - dstore_mm
            q = q_coef * excess**power if excess > 0.0 else 0.0
            avail = d + net * h
            take = q * h
            if take > avail:
                take = avail
            d = avail - take
            r_acc += take
            f_acc += f * h
        runoff.append(r_acc)
        infil.append(f_acc)
    return np.array(runoff), np.array(infil), d


def step_lid_unit(inflow_mm, exfil_mmps, drain_mmps, capacity_mm, dt_s, v0_mm):
    """Route per-step inflow depths through a storage unit of fixed capacity.

    The unit drains continuously at `exfil_mmps` (lost to native soil) and
    `drain_mmps` (underdrain, becomes outflow); water beyond `capacity_mm`
    overflows. Rates are piecewise constant so the step is integrated
    exactly and results do not depend on the step size.

    Returns (overflow_mm, drained_mm, exfiltrated_mm, final_storage_mm).
    """
    inflow = np.asarray(inflow_mm, dtype=np.float64).tolist()
    overflow = []
    drained = []
    exfil = []
    v = float(v0_mm)
    out_rate = exfil_mmps + drain_mmps
    for depth in inflow:
        rin = depth / dt_s
        t_rem = dt_s
        ov = dr = ex = 0.0
        while t_rem > 1e-12:
            if v <= 0.0 and rin <= out_rate:
                # empty and draining faster than filling: pass-through
                if out_rate > 0.0:
                    take = rin * t_rem
                    ex += take * exfil_mmps / out_rate
                    dr += take * drain_mmps / out_rate
                v = 0.0
                break
            if v >= capacity_mm and rin >= out_rate:
                # full: spill whatever the outlets cannot remove
                ex += exfil_mmps * t_rem
                dr += drain_mmps * t_rem
                ov += (rin - out_rate) * t_rem
                break
            net = rin - out_rate
            if net > 0.0:
                t_event = (capacity_mm - v) / net
            elif net < 0.0:
                t_event = v / -net
            else:
                t_event = t_rem
            step = t_event if t_event < t_rem else t_rem
            ex += exfil_mmps * step
            dr += drain_mmps * step
            v += net * step
            if v < 0.0:
                v = 0.0
            elif v > capacity_mm:
                v = capacity_mm
            t_rem -= step
        overflow.append(ov)
        drained.append(dr)
        exfil.append(ex)
    return np.array(overflow), np.array(drained), np.array(exfil), float(v)
