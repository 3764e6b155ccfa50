"""LID facility catalog, sizing arithmetic and unit-scale water balance.

Sizing (capacity per unit area, required control volume, area shares per
kind) is deliberately separate from the event-scale unit simulation: the
former is static bucket arithmetic, the latter steps a storage unit through
a storm. Both read one storage number per kind, `unit_capacity_m3_m2`, so
a unit filled to the brim holds exactly the control volume sizing counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from lidscore import kernels
from lidscore.errors import Ranged, ValidationError

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
class LidSpec(Ranged):
    """One facility kind. `unit_capacity_m3_m2` is its only storage number:
    sizing counts it as control volume and the unit simulation stores up to
    that depth. Rates are in mm/hr."""

    kind: LidKind
    unit_capacity_m3_m2: float = field(metadata={"range": "> 0"})
    favorability: dict = field(default_factory=dict, metadata={"range": ">= 0"})
    unit_cost_weight: float = field(default=1.0, metadata={"range": "> 0"})
    exfiltration_mm_hr: float = field(default=0.0, metadata={"range": ">= 0"})
    underdrain_mm_hr: float = field(default=0.0, metadata={"range": ">= 0"})


def default_catalog() -> dict:
    """The published per-unit-area control capacities (m3 stored per m2 of
    facility) with each kind's exfiltration rate."""
    return {spec.kind: spec for spec in (
        LidSpec(LidKind.BIO_RETENTION, 0.30, exfiltration_mm_hr=30),
        LidSpec(LidKind.GRASSED_SWALE, 0.15, exfiltration_mm_hr=20),
        LidSpec(LidKind.SUNKEN_GREEN, 0.25, exfiltration_mm_hr=25),
        LidSpec(LidKind.PERMEABLE_PAVEMENT, 0.05, exfiltration_mm_hr=40),
        LidSpec(LidKind.STORAGE_TANK, 1.00),
    )}


@dataclass(frozen=True)
class LidPlacement(Ranged):
    subcatchment: str
    kind: LidKind
    area_ha: float = field(metadata={"range": "> 0"})
    treated_fraction: float = field(metadata={"range": "in [0, 1]"})

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
    rain_mm = rain * dt_s / 3600.0
    with np.errstate(over="ignore"):
        total_in_mm = inflow / area_m2 * 1000.0 + rain_mm
    to_m3 = area_m2 / 1000.0
    if not np.isfinite(total_in_mm).all():
        # A unit too small for its run-on to be a finite depth (about 1e-308
        # m2 or less) can hold, drain and infiltrate nothing: it passes all
        # of its inflow on, as a surface too small for its Manning term
        # drains within the step.
        passed = inflow + rain_mm * to_m3
        none = np.zeros_like(passed)
        return LidUnitResult(inflow_m3=passed, overflow_m3=passed, drained_m3=none,
                             infiltration_m3=none, storage_final_m3=0.0)
    overflow, drained, exfil, v_end = kernels.step_lid_unit(
        total_in_mm,
        spec.exfiltration_mm_hr / 3600.0,  # mm/hr -> mm/s
        spec.underdrain_mm_hr / 3600.0,
        spec.unit_capacity_m3_m2 * 1000.0,  # m3/m2 -> mm
        float(dt_s),
        0.0,  # initial storage: units start empty
    )
    return LidUnitResult(
        inflow_m3=total_in_mm * to_m3,
        overflow_m3=overflow * to_m3,
        drained_m3=drained * to_m3,
        infiltration_m3=exfil * to_m3,
        storage_final_m3=v_end * to_m3,
    )

