"""Subcatchment rainfall-runoff simulation and translation routing.

Each subcatchment is an impervious and a pervious nonlinear reservoir
(Manning-type outflow, Horton infiltration on the pervious part) stepped
with midpoint (second-order Runge-Kutta) steps, each cut into as many
substeps as an embedded error estimate asks for; see lidscore.kernels for
the inner loop and its tolerance. Conduits are abstracted to pure
translation lags, which preserves volumes and peak timing, the only
things the downstream indicators need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lidscore import kernels
from lidscore.errors import ValidationError
from lidscore.lid import (LidSpec, M2_PER_HA, placement_problems,
                          simulate_lid_unit)
from lidscore.storms import Hyetograph

@dataclass(frozen=True)
class HortonParams:
    """Infiltration capacity decay f(t) = fc + (f0 - fc) * exp(-k t)."""

    f0_mm_hr: float
    fc_mm_hr: float
    decay_per_hr: float

    def __post_init__(self):
        if not self.f0_mm_hr >= self.fc_mm_hr >= 0:
            raise ValidationError("need f0 >= fc >= 0")
        if self.decay_per_hr <= 0:
            raise ValidationError("decay constant must be positive")


def horton_rate(params: HortonParams, t_hr: float) -> float:
    """Infiltration capacity (mm/hr) after `t_hr` hours of wetting."""
    if t_hr < 0:
        raise ValidationError("time must be non-negative")
    return params.fc_mm_hr + (params.f0_mm_hr - params.fc_mm_hr) * math.exp(
        -params.decay_per_hr * t_hr
    )


@dataclass(frozen=True)
class LandUse:
    name: str
    runoff_coefficient: float
    area_ha: float
    surface_class: str = "other"

    def __post_init__(self):
        if not 0.0 <= self.runoff_coefficient <= 1.0:
            raise ValidationError(f"{self.name}: runoff coefficient outside [0, 1]")
        if self.area_ha <= 0:
            raise ValidationError(f"{self.name}: land-use area must be positive")


@dataclass
class Subcatchment:
    id: str
    area_ha: float
    impervious_fraction: float
    width_m: float
    slope: float
    horton: HortonParams
    land_uses: tuple = ()
    outlet: str = ""
    depression_storage_mm: dict = field(
        default_factory=lambda: {"impervious": 1.5, "pervious": 2.5}
    )
    manning_n: dict = field(
        default_factory=lambda: {"impervious": 0.012, "pervious": 0.15}
    )

    def __post_init__(self):
        if self.area_ha <= 0 or self.width_m <= 0 or self.slope <= 0:
            raise ValidationError(f"{self.id}: area, width and slope must be positive")
        if not 0.0 <= self.impervious_fraction <= 1.0:
            raise ValidationError(f"{self.id}: impervious fraction outside [0, 1]")
        for surface in ("impervious", "pervious"):
            if self.depression_storage_mm.get(surface, -1) < 0:
                raise ValidationError(
                    f"{self.id}: depression_storage_mm needs a non-negative "
                    f"{surface!r} entry"
                )
            if self.manning_n.get(surface, 0) <= 0:
                raise ValidationError(
                    f"{self.id}: manning_n needs a positive {surface!r} entry"
                )
        if self.land_uses:
            total = sum(lu.area_ha for lu in self.land_uses)
            if abs(total - self.area_ha) > 1e-3 * self.area_ha:
                raise ValidationError(
                    f"{self.id}: land-use areas sum to {total:.4f} ha, "
                    f"subcatchment is {self.area_ha} ha"
                )

    @property
    def area_m2(self) -> float:
        return self.area_ha * M2_PER_HA


@dataclass(frozen=True)
class Link:
    """Pure-translation conduit: shifts its inflow by `lag_s`."""

    id: str
    from_node: str
    to_node: str
    lag_s: float

    def __post_init__(self):
        if self.lag_s < 0:
            raise ValidationError(f"link {self.id}: negative lag")


def composite_runoff_coefficient(land_uses) -> float:
    """Area-weighted mean runoff coefficient of a land-use mix."""
    land_uses = list(land_uses)
    if not land_uses:
        raise ValidationError("no land uses given")
    total_area = sum(lu.area_ha for lu in land_uses)
    return sum(lu.runoff_coefficient * lu.area_ha for lu in land_uses) / total_area


def runoff_volume(psi: float, depth_mm: float, area_ha: float) -> float:
    """Event runoff volume W = 10 * psi * h * F (m3; h in mm, F in ha)."""
    if min(psi, depth_mm, area_ha) < 0:
        raise ValidationError("runoff-volume inputs must be non-negative")
    return 10.0 * psi * depth_mm * area_ha


@dataclass
class WaterBalance:
    """Event water balance of one subcatchment run (volumes in m3)."""

    rainfall_m3: float
    runoff_m3: float
    infiltration_m3: float
    surface_storage_m3: float
    lid_captured_m3: float

    def closure_error(self) -> float:
        if self.rainfall_m3 == 0.0:
            return 0.0
        out = (self.runoff_m3 + self.infiltration_m3 + self.surface_storage_m3
               + self.lid_captured_m3)
        return abs(self.rainfall_m3 - out) / self.rainfall_m3


def _manning_coefficient(sc: Subcatchment, area_m2: float, surface: str) -> float:
    # q [mm/s] = coef * (depth_mm - dstore_mm)^(5/3); derived from the SWMM
    # per-unit-area form q = W * sqrt(S) / (A * n) * d^(5/3) with d in m.
    if area_m2 <= 0:
        return 0.0
    n = sc.manning_n[surface]
    return sc.width_m * math.sqrt(sc.slope) / (area_m2 * n) * 1000.0 ** (-2.0 / 3.0)


@dataclass
class SubcatchmentDetail:
    """Per-step internals of one subcatchment run, for quality coupling,
    and the runoff kernel's substep counts over both surfaces: the total
    and the largest count of any one step."""

    pre_lid_runoff_m3: np.ndarray
    substeps: int
    max_substeps: int


def simulate_subcatchment(sc: Subcatchment, storm: Hyetograph,
                          placements=(), catalog: dict | None = None, *,
                          tail_min: float = 0.0):
    """Run one subcatchment through one storm, stepping at the storm's own
    step (`storm.step_s`) and continuing `tail_min` dry minutes after it.

    Returns (flows at the subcatchment outlet in L/s, WaterBalance,
    SubcatchmentDetail). LID placements intercept their
    `treated_fraction` of the runoff generated on the remaining area plus
    the rain falling on the facility itself. Raises ValidationError,
    naming the subcatchment, when the placements do not fit it or come
    without a catalog, when a step needs more substeps than the runoff
    kernel allows (naming the surface and step too), or when a flow is
    not finite or is negative.
    """
    dt = float(storm.step_s)
    intensity_mm_hr = storm.intensities_mm_hr
    if tail_min:
        intensity_mm_hr = np.concatenate(
            [intensity_mm_hr, np.zeros(int(round(tail_min * 60.0 / dt)))]
        )
    n = intensity_mm_hr.size
    intensity_mmps = intensity_mm_hr / 3600.0

    placements = list(placements)
    if problems := placement_problems(sc, placements):
        raise ValidationError("; ".join(problems))
    if placements and catalog is None:
        raise ValidationError(f"{sc.id}: placements given without a LID catalog")

    lid_area_m2 = sum(p.area_m2 for p in placements)
    treated_total = sum(p.treated_fraction for p in placements)
    area_rest = sc.area_m2 - lid_area_m2
    area_imp = area_rest * sc.impervious_fraction
    area_perv = area_rest - area_imp

    # horton_rate at each step's midpoint, in mm/s
    horton = sc.horton
    t_mid_hr = (np.arange(n) + 0.5) * dt / 3600.0
    fcap_mmps = (horton.fc_mm_hr + (horton.f0_mm_hr - horton.fc_mm_hr)
                 * np.exp(-horton.decay_per_hr * t_mid_hr)) / 3600.0
    zeros = np.zeros(n)

    runoff_m3 = np.zeros(n)
    infiltration_m3 = 0.0
    ponded_m3 = 0.0
    substeps = max_substeps = 0
    for area, fcap, surface in (
        (area_imp, zeros, "impervious"),
        (area_perv, fcap_mmps, "pervious"),
    ):
        if area <= 0.0:
            continue
        coef = _manning_coefficient(sc, area, surface)
        try:
            r_mm, f_mm, d_end, n_sub, most = kernels.step_subarea(
                intensity_mmps, fcap, coef, sc.depression_storage_mm[surface],
                dt, 0.0,
            )
        except ValidationError as exc:
            raise ValidationError(
                f"subcatchment {sc.id}, {surface} surface: {exc}") from exc
        runoff_m3 += r_mm * area / 1000.0
        infiltration_m3 += float(f_mm.sum()) * area / 1000.0
        ponded_m3 += d_end * area / 1000.0
        substeps += n_sub
        max_substeps = max(max_substeps, most)

    outlet_m3 = runoff_m3 * (1.0 - treated_total)
    lid_captured_m3 = 0.0
    for p in placements:
        spec: LidSpec = catalog[p.kind]
        result = simulate_lid_unit(
            spec, p.area_m2, runoff_m3 * p.treated_fraction, intensity_mm_hr, dt
        )
        outlet_m3 = outlet_m3 + result.outflow_m3
        lid_captured_m3 += result.captured_m3

    flows_lps = outlet_m3 / dt * 1000.0
    if not np.all(np.isfinite(flows_lps)):
        raise ValidationError(f"{sc.id}: non-finite flow")
    if np.any(flows_lps < 0):
        raise ValidationError(f"{sc.id}: negative flow")
    rainfall_m3 = float(intensity_mm_hr.sum()) * dt / 3600.0 * sc.area_m2 / 1000.0
    balance = WaterBalance(
        rainfall_m3=rainfall_m3,
        runoff_m3=float(outlet_m3.sum()),
        infiltration_m3=infiltration_m3,
        surface_storage_m3=ponded_m3,
        lid_captured_m3=lid_captured_m3,
    )
    detail = SubcatchmentDetail(pre_lid_runoff_m3=runoff_m3, substeps=substeps,
                                max_substeps=max_substeps)
    return flows_lps, balance, detail


def _downstream_paths(links) -> dict:
    """Map each node to (terminal node, accumulated lag); reject cycles
    and nodes with more than one outgoing link."""
    outgoing: dict = {}
    for link in links:
        if link.from_node in outgoing:
            raise ValidationError(
                f"node {link.from_node} has more than one outgoing link"
            )
        outgoing[link.from_node] = link
    paths: dict = {}
    for start in list(outgoing) + [l.to_node for l in links]:
        node = start
        lag = 0.0
        visited = [node]
        while node in outgoing:
            link = outgoing[node]
            lag += link.lag_s
            node = link.to_node
            if node in visited:
                cycle = " -> ".join(visited[visited.index(node):] + [node])
                raise ValidationError(f"link network contains a cycle: {cycle}")
            visited.append(node)
        paths[start] = (node, lag)
    return paths


def route_series(inflows: dict, links, step_s: float) -> dict:
    """Translate node series to the outfalls: each node's array (last axis
    time, at `step_s`; e.g. its flows and loads, one row each) is shifted
    by the summed lags of its path and added into its outfall's. Every
    inflow has the same leading shape; each row is routed as it would be
    alone, and volume is conserved."""
    if not inflows:
        return {}
    paths = _downstream_paths(links)
    plan = []
    for node, series in inflows.items():
        outfall, lag = paths.get(node, (node, 0.0))
        plan.append((outfall, int(round(lag / step_s)), np.asarray(series, dtype=float)))
    length = max(shift + series.shape[-1] for _, shift, series in plan)
    accum: dict = {}
    for outfall, shift, series in plan:
        base = accum.setdefault(outfall, np.zeros(series.shape[:-1] + (length,)))
        base[..., shift:shift + series.shape[-1]] += series
    return dict(sorted(accum.items()))
