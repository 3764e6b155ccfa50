"""Stepping kernels for runoff and LID-unit water balances.

`step_subarea` integrates the Manning nonlinear reservoir of one runoff
subarea with midpoint (second-order Runge-Kutta) steps, the higher-order
treatment SWMM 5 gives the same reservoir. Each step's substep count is
chosen from an embedded error estimate, the difference between an Euler
and a midpoint trial over the whole step (Hairer, Norsett & Wanner,
*Solving ODEs I*, II.4); a trial within tolerance is the step.
`step_lid_unit` routes inflow through one LID storage unit. Both are plain
Python loops over the time steps, on Python floats taken from the inputs
once.
"""

import math

import numpy as np

from lidscore.errors import ValidationError

# Reported as `kernel_backend` in manifest.json.
BACKEND = "python"

FIVE_THIRDS = 5.0 / 3.0

# Error tolerance of one step: TOL_ABS_MM + TOL_REL * dt * (mean of the
# start and midpoint outflow rates), in mm of end depth. Against the
# fine-step Euler oracle of tests/test_oracle.py (volume within 0.1%, peak
# within 1%), the relative part sets the peak error of heavy storms: 0.06
# put the sharpest peak of the kernel-bound benchmark workload (seed 11)
# at 1.2 times its gate, 0.03 puts it at 0.47. The absolute part lets the
# smallest flows pass in one trial: 1e-3 mm put the slow recession of the
# oracle's 5 mm hand case at 1.1 times its volume gate, 1e-4 mm puts it at
# 0.15. An absolute tolerance alone (0.01 mm) lost 0.17% of its volume.
TOL_ABS_MM = 1e-4
TOL_REL = 0.03

# A step that needs more substeps than this is rejected, not truncated.
MAX_SUBSTEPS = 3600


def step_subarea(intensity_mmps, fcap_mmps, q_coef, dstore_mm, dt_s, d0_mm):
    """Integrate ponded depth on one runoff subarea with midpoint steps.

    intensity_mmps, fcap_mmps
        Per-step rainfall rate and infiltration capacity (mm/s). Pass a
        zero capacity array for impervious surfaces.
    q_coef
        Manning outflow coefficient such that q [mm/s] =
        q_coef * (depth_mm - dstore_mm) ** (5/3).

    Each (sub)step of length h infiltrates first (at most the rain plus
    the ponded water), then drains the Manning outflow evaluated at the
    half-step depth, limited to the water present. A step first tries
    this over the whole step dt. The Euler and midpoint end depths of the
    trial differ by err = dt * |q_mid - q_start|; when err is within
    tol = TOL_ABS_MM + TOL_REL * dt * (q_start + q_mid) / 2 the trial is
    the step. Otherwise the step is redone as n equal substeps, with n
    the larger of ceil(err / tol) and the stability count
    ceil(dt * q / (depth - dstore)) at the start and half-step depths of
    the trial (no substep drains at its rate more than the water above
    depression storage). Raises ValidationError when a step needs more
    than MAX_SUBSTEPS.

    Returns (runoff_mm, infiltration_mm, final_depth_mm, substeps,
    max_substeps): per-step totals as arrays, the number of substeps over
    all steps (an accepted trial counts as one) and the largest count of
    any one step. Mass closes exactly per step:
    rain = runoff + infiltration + depth change.
    """
    intensity = np.asarray(intensity_mmps, dtype=np.float64).tolist()
    fcap = np.asarray(fcap_mmps, dtype=np.float64).tolist()
    if len(intensity) != len(fcap):
        raise ValueError("intensity and capacity series differ in length")
    power = FIVE_THIRDS
    tol_abs = TOL_ABS_MM
    half_tol_rel = 0.5 * TOL_REL * dt_s
    half_dt = 0.5 * dt_s
    runoff = []
    infil = []
    extra = 0   # substeps beyond one per step
    max_substeps = 1 if intensity else 0
    d = float(d0_mm)
    excess = d - dstore_mm
    # outflow at the start of the step; each step leaves its end value here
    q = q_coef * excess**power if excess > 0.0 else 0.0
    for i, fc in zip(intensity, fcap):
        # trial: one midpoint step over the whole step
        rain = i * dt_s
        inf = fc * dt_s
        avail = d + rain - inf
        if avail < 0.0:
            inf = d + rain
            avail = 0.0
        excess_mid = 0.5 * (d + avail) - half_dt * q - dstore_mm
        q_mid = q_coef * excess_mid**power if excess_mid > 0.0 else 0.0
        err = dt_s * abs(q_mid - q)
        tol = tol_abs + half_tol_rel * (q + q_mid)
        if err <= tol:
            take = q_mid * dt_s
            if take > avail:
                take = avail
            d = avail - take
            runoff.append(take)
            infil.append(inf)
            excess = d - dstore_mm
            q = q_coef * excess**power if excess > 0.0 else 0.0
            continue
        n_sub = err / tol
        if excess > 0.0 and dt_s * q > n_sub * excess:
            n_sub = dt_s * q / excess
        if q_mid > 0.0 and dt_s * q_mid > n_sub * excess_mid:
            n_sub = dt_s * q_mid / excess_mid
        if not n_sub <= MAX_SUBSTEPS:   # inf or nan too, from a surface that stiff
            k = len(runoff)
            needs = math.ceil(n_sub) if math.isfinite(n_sub) else n_sub
            raise ValidationError(
                f"step {k} (t = {k * dt_s:g} s) needs {needs} substeps, "
                f"more than {MAX_SUBSTEPS}")
        n_sub = math.ceil(n_sub)
        h = dt_s / n_sub
        half_h = 0.5 * h
        rain_h = i * h
        inf_h = fc * h
        d_start = d
        r_acc = 0.0
        f_acc = 0.0
        for _ in range(n_sub):
            inf = inf_h
            avail = d + rain_h - inf
            if avail < 0.0:
                inf = d + rain_h
                avail = 0.0
            excess = 0.5 * (d + avail) - half_h * q - dstore_mm
            take = q_coef * excess**power * h if excess > 0.0 else 0.0
            if take > avail:
                take = avail
            d = avail - take
            r_acc += take
            f_acc += inf
            excess = d - dstore_mm
            q = q_coef * excess**power if excess > 0.0 else 0.0
        # the step's own balance gives its end depth, so the rounding of
        # many substeps does not add up in the closure
        d = d_start + rain - f_acc - r_acc
        if d < 0.0:
            # the substeps took a rounding more than there was: give it back
            if r_acc >= -d:
                r_acc += d
            else:
                f_acc += d
            d = 0.0
        excess = d - dstore_mm
        q = q_coef * excess**power if excess > 0.0 else 0.0
        runoff.append(r_acc)
        infil.append(f_acc)
        extra += n_sub - 1
        if n_sub > max_substeps:
            max_substeps = n_sub
    return (np.array(runoff), np.array(infil), d, len(runoff) + extra,
            max_substeps)


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
