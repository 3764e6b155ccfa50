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
import sys
from dataclasses import dataclass, field

import numpy as np

from lidscore import kernels
from lidscore.errors import Ranged, ValidationError
from lidscore.lid import (LidSpec, M2_PER_HA, placement_problems,
                          simulate_lid_unit)
from lidscore.storms import Hyetograph

SURFACES = ("impervious", "pervious")   # the two reservoirs of a subcatchment


@dataclass(frozen=True)
class HortonParams(Ranged):
    """Infiltration capacity decay f(t) = fc + (f0 - fc) * exp(-k t)."""

    f0_mm_hr: float = 76.2
    fc_mm_hr: float = field(default=3.81, metadata={"range": ">= 0"})
    decay_per_hr: float = field(default=4.14, metadata={"range": "> 0"})

    def __post_init__(self):
        super().__post_init__()
        if not self.f0_mm_hr >= self.fc_mm_hr:
            raise ValidationError("need f0 >= fc")


def horton_rate(params: HortonParams, t_hr):
    """Infiltration capacity (mm/hr) after `t_hr` hours of wetting; `t_hr`
    is a float or an array of them."""
    if np.any(np.asarray(t_hr) < 0):
        raise ValidationError("time must be non-negative")
    return params.fc_mm_hr + (params.f0_mm_hr - params.fc_mm_hr) * np.exp(
        -params.decay_per_hr * t_hr
    )


@dataclass(frozen=True)
class LandUse(Ranged):
    name: str
    runoff_coefficient: float = field(metadata={"range": "in [0, 1]"})
    area_ha: float = field(metadata={"range": "> 0"})
    surface_class: str = "other"


@dataclass
class Subcatchment(Ranged):
    id: str
    area_ha: float = field(metadata={"range": "> 0"})
    impervious_fraction: float = field(metadata={"range": "in [0, 1]"})
    width_m: float = field(metadata={"range": "> 0"})
    slope: float = field(metadata={"range": "> 0"})
    horton: HortonParams = field(default_factory=HortonParams)
    land_uses: tuple = ()
    outlet: str = ""
    depression_storage_mm: dict = field(default_factory=lambda: {"impervious": 1.5, "pervious": 2.5},
                                        metadata={"keys": SURFACES, "range": ">= 0"})
    manning_n: dict = field(default_factory=lambda: {"impervious": 0.012, "pervious": 0.15},
                            metadata={"keys": SURFACES, "range": "> 0"})

    def __post_init__(self):
        super().__post_init__()
        for name in ("depression_storage_mm", "manning_n"):
            if missing := [s for s in SURFACES if s not in getattr(self, name)]:
                raise ValidationError(f"{self.id}: {name} needs a {missing[0]!r} entry")
        if self.land_uses:
            total = kernels.ordered_sum(lu.area_ha for lu in self.land_uses)
            if abs(total - self.area_ha) > 1e-3 * self.area_ha:
                raise ValidationError(
                    f"{self.id}: land-use areas sum to {total:.4f} ha, "
                    f"subcatchment is {self.area_ha} ha"
                )

    @property
    def area_m2(self) -> float:
        return self.area_ha * M2_PER_HA


@dataclass(frozen=True)
class Link(Ranged):
    """Pure-translation conduit: shifts its inflow by `lag_s`."""

    id: str
    from_node: str
    to_node: str
    lag_s: float = field(default=0.0, metadata={"range": ">= 0"})


def composite_runoff_coefficient(land_uses) -> float:
    """Area-weighted mean runoff coefficient of a land-use mix."""
    land_uses = list(land_uses)
    if not land_uses:
        raise ValidationError("no land uses given")
    total_area = kernels.ordered_sum(lu.area_ha for lu in land_uses)
    return (kernels.ordered_sum(lu.runoff_coefficient * lu.area_ha for lu in land_uses)
            / total_area)


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
        """|rain - outflows| relative to the rain volume, or to the floor
        `sys.float_info.min / sys.float_info.epsilon` (2**-970, about
        1e-292 m3) when the rain volume is smaller.

        The rain term sums the mm/hr series; the runoff kernel gets each
        intensity divided by 3600, which drops bits of a subnormal
        intensity. Such a storm then closes off by that rounding times the
        step and the area, though no water is lost: by 3.7e-320 m3 for one
        300 s step of 7.88e-311 mm/hr on 5 ha, which against the smallest
        normal float reads as a closure of 1.65e-12. The floor is the
        smallest volume whose last bit is worth the smallest normal float,
        so rounding of subnormal size stays below that bit."""
        if self.rainfall_m3 == 0.0:
            return 0.0
        out = (self.runoff_m3 + self.infiltration_m3 + self.surface_storage_m3
               + self.lid_captured_m3)
        floor = sys.float_info.min / sys.float_info.epsilon
        return abs(self.rainfall_m3 - out) / max(self.rainfall_m3, floor)


def _manning_coefficient(sc: Subcatchment, area_m2: float, surface: str) -> float:
    # q [mm/s] = coef * (depth_mm - dstore_mm)^(5/3); derived from the SWMM
    # per-unit-area form q = W * sqrt(S) / (A * n) * d^(5/3) with d in m.
    # A subnormal area can make A * n underflow to 0; such a surface drains
    # its excess within the step, and the kernel takes an infinite coefficient.
    denominator = area_m2 * sc.manning_n[surface]
    if denominator == 0.0:
        return math.inf
    return sc.width_m * math.sqrt(sc.slope) / denominator * 1000.0 ** (-2.0 / 3.0)


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

    lid_area_m2 = kernels.ordered_sum(p.area_m2 for p in placements)
    treated_total = kernels.ordered_sum(p.treated_fraction for p in placements)
    area_rest = sc.area_m2 - lid_area_m2
    area_imp = area_rest * sc.impervious_fraction
    area_perv = area_rest - area_imp

    # the Horton capacity at each step's midpoint, in mm/s
    fcap_mmps = horton_rate(sc.horton, (np.arange(n) + 0.5) * dt / 3600.0) / 3600.0
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
