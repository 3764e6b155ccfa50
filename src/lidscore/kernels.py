"""Stepping kernels for runoff and LID-unit water balances.

`step_subarea` integrates the Manning nonlinear reservoir of one runoff
subarea; `step_lid_unit` routes inflow through one LID storage unit.
Both are plain Python loops over the time steps.
"""

import math

import numpy as np

# Reported as `kernel_backend` in manifest.json.
BACKEND = "python"

FIVE_THIRDS = 5.0 / 3.0


def step_subarea(intensity_mmps, fcap_mmps, q_coef, dstore_mm, dt_s, max_step_mm, d0_mm):
    """Integrate ponded depth on one runoff subarea with explicit Euler.

    intensity_mmps, fcap_mmps
        Per-step rainfall rate and infiltration capacity (mm/s). Pass a
        zero capacity array for impervious surfaces.
    q_coef
        Manning outflow coefficient such that q [mm/s] =
        q_coef * (depth_mm - dstore_mm) ** (5/3).
    max_step_mm
        Sub-stepping threshold: a single Euler substep may move the depth
        by at most this much.

    Returns (runoff_mm, infiltration_mm, final_depth_mm) where the arrays
    hold per-step totals. Mass closes exactly per step:
    rain = runoff + infiltration + depth change.
    """
    intensity = np.ascontiguousarray(intensity_mmps, dtype=np.float64)
    fcap = np.ascontiguousarray(fcap_mmps, dtype=np.float64)
    if intensity.shape != fcap.shape:
        raise ValueError("intensity and capacity series differ in length")
    n = intensity.shape[0]
    runoff = np.zeros(n)
    infil = np.zeros(n)
    d = float(d0_mm)
    for k in range(n):
        i = float(intensity[k])
        fc = float(fcap[k])
        excess = d - dstore_mm
        q0 = q_coef * excess**FIVE_THIRDS if excess > 0.0 else 0.0
        # total depth movement (in + out) bounds the substep size
        rate = i + fc + q0
        n_sub = int(math.ceil(rate * dt_s / max_step_mm)) if rate > 0.0 else 1
        if n_sub < 1:
            n_sub = 1
        elif n_sub > 3600:
            n_sub = 3600
        h = dt_s / n_sub
        r_acc = 0.0
        f_acc = 0.0
        for _ in range(n_sub):
            # infiltration first (from rain plus ponded water), then the
            # Manning outflow drains whatever depth remains
            f = fc
            avail_rate = i + d / h
            if f > avail_rate:
                f = avail_rate
            excess = d - dstore_mm
            q = q_coef * excess**FIVE_THIRDS if excess > 0.0 else 0.0
            avail = d + (i - f) * h
            take = q * h
            if take > avail:
                take = avail
            d = avail - take
            r_acc += take
            f_acc += f * h
        runoff[k] = r_acc
        infil[k] = f_acc
    return runoff, infil, float(d)


def step_lid_unit(inflow_mm, exfil_mmps, drain_mmps, capacity_mm, dt_s, v0_mm):
    """Route per-step inflow depths through a storage unit of fixed capacity.

    The unit drains continuously at `exfil_mmps` (lost to native soil) and
    `drain_mmps` (underdrain, becomes outflow); water beyond `capacity_mm`
    overflows. Rates are piecewise constant so the step is integrated
    exactly and results do not depend on the step size.

    Returns (overflow_mm, drained_mm, exfiltrated_mm, final_storage_mm).
    """
    inflow = np.ascontiguousarray(inflow_mm, dtype=np.float64)
    n = inflow.shape[0]
    overflow = np.zeros(n)
    drained = np.zeros(n)
    exfil = np.zeros(n)
    v = float(v0_mm)
    out_rate = exfil_mmps + drain_mmps
    for k in range(n):
        rin = float(inflow[k]) / dt_s
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
        overflow[k] = ov
        drained[k] = dr
        exfil[k] = ex
    return overflow, drained, exfil, float(v)
