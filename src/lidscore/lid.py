"""LID facility catalog, sizing arithmetic and unit-scale water balance.

Sizing (capacity per unit area, required control volume, area allocation)
is deliberately separate from the event-scale unit simulation: the former
is static bucket arithmetic, the latter steps a storage unit through a
storm. Default layer parameters are chosen so both agree, i.e. the layered
static capacity equals the published per-unit-area control capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from lidscore import kernels
from lidscore.errors import ValidationError

M2_PER_HA = 10_000.0


class LidKind(str, Enum):
    BIO_RETENTION = "bio_retention"
    GRASSED_SWALE = "grassed_swale"
    SUNKEN_GREEN = "sunken_green"
    PERMEABLE_PAVEMENT = "permeable_pavement"
    STORAGE_TANK = "storage_tank"

    @classmethod
    def parse(cls, value) -> "LidKind":
        try:
            return cls(value)
        except ValueError:
            raise ValidationError(
                f"unknown LID kind {value!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


@dataclass(frozen=True)
class LidLayers:
    """Layered geometry of one facility; thicknesses in mm, rates in mm/hr."""

    berm_mm: float = 0.0
    soil_thickness_mm: float = 0.0
    soil_porosity: float = 0.5
    soil_ksat_mm_hr: float = 0.0
    storage_thickness_mm: float = 0.0
    storage_void_ratio: float = 0.5
    underdrain_mm_hr: float = 0.0

    def __post_init__(self):
        if min(self.berm_mm, self.soil_thickness_mm, self.storage_thickness_mm,
               self.soil_ksat_mm_hr, self.underdrain_mm_hr) < 0:
            raise ValidationError("layer thicknesses and rates must be non-negative")
        for name, value in (("soil_porosity", self.soil_porosity),
                            ("storage_void_ratio", self.storage_void_ratio)):
            if not 0.0 < value <= 1.0:
                raise ValidationError(f"{name} must be in (0, 1], got {value}")

    @property
    def static_capacity_mm(self) -> float:
        return (self.berm_mm
                + self.soil_thickness_mm * self.soil_porosity
                + self.storage_thickness_mm * self.storage_void_ratio)


@dataclass(frozen=True)
class LidSpec:
    kind: LidKind
    unit_capacity_m3_m2: float
    layers: LidLayers
    favorability: dict = field(default_factory=dict)
    unit_cost_weight: float = 1.0

    def __post_init__(self):
        if self.unit_capacity_m3_m2 <= 0:
            raise ValidationError(f"{self.kind.value}: unit capacity must be positive")
        if self.unit_cost_weight <= 0:
            raise ValidationError(f"{self.kind.value}: unit cost weight must be positive")
        if any(v < 0 for v in self.favorability.values()):
            raise ValidationError(f"{self.kind.value}: favorability scores must be >= 0")

    @property
    def capacity_mm(self) -> float:
        """Event storage depth used by the unit simulation."""
        if self.kind is LidKind.STORAGE_TANK:
            return self.unit_capacity_m3_m2 * 1000.0
        return self.layers.static_capacity_mm

    @property
    def exfiltration_mm_hr(self) -> float:
        return 0.0 if self.kind is LidKind.STORAGE_TANK else self.layers.soil_ksat_mm_hr


def default_catalog() -> dict:
    """Facility catalog whose layered capacities match the per-unit-area
    control capacities exactly (m3 stored per m2 of facility)."""
    return {
        LidKind.BIO_RETENTION: LidSpec(
            LidKind.BIO_RETENTION, 0.30,
            LidLayers(berm_mm=150, soil_thickness_mm=500, soil_porosity=0.2,
                      soil_ksat_mm_hr=30, storage_thickness_mm=200,
                      storage_void_ratio=0.25),
        ),
        LidKind.GRASSED_SWALE: LidSpec(
            LidKind.GRASSED_SWALE, 0.15,
            LidLayers(berm_mm=150, soil_ksat_mm_hr=20),
        ),
        LidKind.SUNKEN_GREEN: LidSpec(
            LidKind.SUNKEN_GREEN, 0.25,
            LidLayers(berm_mm=100, soil_thickness_mm=150, soil_porosity=0.5,
                      soil_ksat_mm_hr=25, storage_thickness_mm=300,
                      storage_void_ratio=0.25),
        ),
        LidKind.PERMEABLE_PAVEMENT: LidSpec(
            LidKind.PERMEABLE_PAVEMENT, 0.05,
            LidLayers(soil_thickness_mm=100, soil_porosity=0.15,
                      soil_ksat_mm_hr=40, storage_thickness_mm=140,
                      storage_void_ratio=0.25),
        ),
        LidKind.STORAGE_TANK: LidSpec(
            LidKind.STORAGE_TANK, 1.00,
            LidLayers(storage_thickness_mm=1000, storage_void_ratio=1.0),
        ),
    }


@dataclass(frozen=True)
class LidPlacement:
    subcatchment: str
    kind: LidKind
    area_ha: float
    treated_fraction: float

    def __post_init__(self):
        if not self.area_ha > 0:
            raise ValidationError("placement area must be positive")
        if not 0.0 <= self.treated_fraction <= 1.0:
            raise ValidationError("treated fraction must be in [0, 1]")

    @property
    def area_m2(self) -> float:
        return self.area_ha * M2_PER_HA


@dataclass(frozen=True)
class Scenario:
    name: str
    placements: tuple

    def area_by_kind(self) -> dict:
        areas: dict = {}
        for p in self.placements:
            areas[p.kind] = areas.get(p.kind, 0.0) + p.area_ha
        return areas

    @property
    def total_area_ha(self) -> float:
        return sum(p.area_ha for p in self.placements)


def placement_problems(host, placements) -> list:
    """What the placements in one host subcatchment (an object with `id`
    and `area_ha`) break: their LID area may not exceed the host's area and
    their treated fractions may not sum past 1. Empty when they fit."""
    problems = []
    area = sum(p.area_ha for p in placements)
    if area > host.area_ha + 1e-9:
        problems.append(f"LID area {area:.3f} ha exceeds subcatchment "
                        f"{host.id} area {host.area_ha} ha")
    treated = sum(p.treated_fraction for p in placements)
    if treated > 1.0 + 1e-9:
        problems.append(f"treated fractions in {host.id} sum to {treated:.3f} (> 1)")
    return problems


def control_capacity(scenario: Scenario, catalog: dict) -> float:
    """Total static runoff control volume of a scenario (m3)."""
    total = 0.0
    for p in scenario.placements:
        if p.kind not in catalog:
            raise ValidationError(f"no catalog entry for {p.kind.value}")
        total += p.area_m2 * catalog[p.kind].unit_capacity_m3_m2
    return total


def existing_capacity(facilities, psi: float, area_ha: float):
    """Total control volume of pre-existing facilities and the rainfall
    depth it corresponds to (inverting W = 10 * psi * h * F).

    `facilities` is a sequence of (label, volume_m3) pairs.
    """
    volumes = [float(v) for _, v in facilities]
    if any(v < 0 for v in volumes):
        raise ValidationError("facility volumes must be non-negative")
    total = sum(volumes)
    if total == 0.0:
        return 0.0, 0.0
    if psi <= 0 or area_ha <= 0:
        raise ValidationError("existing capacity needs a positive psi and area")
    depth = total / (10.0 * psi * area_ha)
    return total, depth


def required_volume(target_depth_mm: float, psi: float, area_ha: float,
                    existing_m3: float = 0.0) -> float:
    """Control volume still needed to capture the target depth (m3)."""
    if min(target_depth_mm, psi, area_ha, existing_m3) < 0:
        raise ValidationError("sizing inputs must be non-negative")
    return max(0.0, 10.0 * psi * target_depth_mm * area_ha - existing_m3)


def area_proportions(scenario: Scenario) -> dict:
    """Share of each facility kind in the scenario's total LID area."""
    total = scenario.total_area_ha
    if total <= 0:
        raise ValidationError(f"scenario {scenario.name!r} has no LID area")
    return {kind: area / total for kind, area in scenario.area_by_kind().items()}


@dataclass
class LidUnitResult:
    """Per-step water balance of one facility (all volumes in m3)."""

    inflow_m3: np.ndarray
    overflow_m3: np.ndarray
    drained_m3: np.ndarray
    infiltration_m3: np.ndarray
    storage_final_m3: float

    @property
    def outflow_m3(self) -> np.ndarray:
        """What leaves towards the outlet: overflow plus underdrain."""
        return self.overflow_m3 + self.drained_m3

    @property
    def captured_m3(self) -> float:
        """Units start empty, so what stays behind is the final storage."""
        return self.storage_final_m3 + float(self.infiltration_m3.sum())

    def balance_error(self) -> float:
        total_in = float(self.inflow_m3.sum())
        if total_in == 0.0:
            return 0.0
        total_out = (float(self.outflow_m3.sum())
                     + float(self.infiltration_m3.sum())
                     + self.storage_final_m3)
        return abs(total_in - total_out) / total_in


def simulate_lid_unit(spec: LidSpec, area_m2: float, inflow_m3, rain_mm_hr,
                      dt_s: float) -> LidUnitResult:
    """Step one facility through a storm.

    `inflow_m3` is run-on volume per step from the treated area and
    `rain_mm_hr` the direct rainfall on the facility itself; both series
    must share `dt_s`. Units start empty (tanks drain between events).
    """
    if dt_s <= 0:
        raise ValidationError("dt must be positive")
    if area_m2 <= 0:
        raise ValidationError("facility area must be positive")
    inflow = np.asarray(inflow_m3, dtype=float)
    rain = np.asarray(rain_mm_hr, dtype=float)
    if inflow.shape != rain.shape:
        raise ValidationError("inflow and rainfall series differ in length")
    total_in_mm = inflow / area_m2 * 1000.0 + rain * dt_s / 3600.0
    overflow, drained, exfil, v_end = kernels.step_lid_unit(
        total_in_mm,
        spec.exfiltration_mm_hr / 3600.0,  # mm/hr -> mm/s
        spec.layers.underdrain_mm_hr / 3600.0,
        spec.capacity_mm,
        float(dt_s),
        0.0,  # initial storage: units start empty
    )
    to_m3 = area_m2 / 1000.0
    return LidUnitResult(
        inflow_m3=total_in_mm * to_m3,
        overflow_m3=overflow * to_m3,
        drained_m3=drained * to_m3,
        infiltration_m3=exfil * to_m3,
        storage_final_m3=v_end * to_m3,
    )

