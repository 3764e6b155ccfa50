"""Pollutant buildup, washoff and LID removal at event scale.

Buildup follows the saturation form B(t) = C1 * t / (C2 + t) per surface
class; washoff depletes the available mass exponentially at a rate driven
by the runoff intensity, so a step removes B * (1 - exp(-C3 * q^C4 * dt)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lidscore.errors import ValidationError
from lidscore.hydrology import Subcatchment
from lidscore.lid import LidKind

DEFAULT_ANTECEDENT_DRY_DAYS = 7.0


@dataclass(frozen=True)
class PollutantSpec:
    name: str
    buildup_max_kg_ha: float       # C1
    half_saturation_days: float    # C2
    washoff_coeff: float           # C3 (per hour at q = 1 mm/hr)
    washoff_exponent: float        # C4
    lid_removal: dict = field(default_factory=dict)
    surface_class_factors: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.buildup_max_kg_ha, self.half_saturation_days, self.washoff_coeff) <= 0:
            raise ValidationError(f"{self.name}: C1, C2, C3 must be positive")
        if self.washoff_exponent <= 0:
            raise ValidationError(f"{self.name}: washoff exponent must be positive")
        for kind, fraction in self.lid_removal.items():
            if not 0.0 <= fraction <= 1.0:
                raise ValidationError(
                    f"{self.name}: removal fraction for {kind} outside [0, 1]"
                )

    def removal_for(self, kind: LidKind) -> float:
        key = kind.value if isinstance(kind, LidKind) else str(kind)
        return float(self.lid_removal.get(key, 0.0))

    def class_factor(self, surface_class: str) -> float:
        return float(self.surface_class_factors.get(surface_class, 1.0))


@dataclass
class Pollutograph:
    site: str
    pollutant: str
    loads_kg: np.ndarray

    def __post_init__(self):
        self.loads_kg = np.asarray(self.loads_kg, dtype=float)
        if np.any(self.loads_kg < 0) or not np.all(np.isfinite(self.loads_kg)):
            raise ValidationError(f"{self.site}/{self.pollutant}: bad load series")


def buildup(spec: PollutantSpec, antecedent_dry_days: float) -> float:
    """Accumulated surface mass after a dry spell (kg/ha)."""
    if antecedent_dry_days < 0:
        raise ValidationError("dry period must be non-negative")
    t = antecedent_dry_days
    return spec.buildup_max_kg_ha * t / (spec.half_saturation_days + t)


def washoff_series(spec: PollutantSpec, runoff_mm_hr, initial_kg: float,
                   dt_s: float) -> np.ndarray:
    """Per-step washoff loads for a whole run (closed-form depletion)."""
    q = np.asarray(runoff_mm_hr, dtype=float)
    rates = spec.washoff_coeff * q ** spec.washoff_exponent * dt_s / 3600.0
    decay = np.exp(-rates)
    before = initial_kg * np.concatenate([[1.0], np.cumprod(decay[:-1])])
    return before * (1.0 - decay)


def apply_lid_removal(pollutograph: Pollutograph, treated_fraction: float,
                      removal_fraction: float) -> Pollutograph:
    """Reduce loads on the treated share: out = in * (1 - tf * removal)."""
    for name, value in (("treated fraction", treated_fraction),
                        ("removal fraction", removal_fraction)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} outside [0, 1]")
    return Pollutograph(
        site=pollutograph.site,
        pollutant=pollutograph.pollutant,
        loads_kg=pollutograph.loads_kg * (1.0 - treated_fraction * removal_fraction),
    )


def initial_buildup_kg(sc: Subcatchment, spec: PollutantSpec,
                       antecedent_dry_days: float, lid_area_ha: float = 0.0) -> float:
    """Mass available on a subcatchment at storm start.

    Computed per land-use surface class and summed; area occupied by LID
    facilities no longer accumulates surface load.
    """
    per_ha = buildup(spec, antecedent_dry_days)
    total = sum(
        per_ha * spec.class_factor(lu.surface_class) * lu.area_ha
        for lu in sc.land_uses
    )
    if sc.land_uses:
        scale = max(0.0, 1.0 - lid_area_ha / sc.area_ha)
        return total * scale
    return per_ha * max(0.0, sc.area_ha - lid_area_ha)


def simulate_quality(sc: Subcatchment, pre_lid_runoff_m3, spec: PollutantSpec,
                     dt_s: float, antecedent_dry_days: float = DEFAULT_ANTECEDENT_DRY_DAYS,
                     placements=()) -> Pollutograph:
    """Washoff driven by the runoff generated on the contributing surfaces,
    then reduced by each LID placement on its treated share."""
    placements = list(placements)
    lid_area_ha = sum(p.area_ha for p in placements)
    runoff_m3 = np.asarray(pre_lid_runoff_m3, dtype=float)
    area_m2 = (sc.area_ha - lid_area_ha) * 10_000.0
    if area_m2 <= 0:
        loads = np.zeros(runoff_m3.size)
    else:
        q_mm_hr = runoff_m3 / area_m2 * 1000.0 * 3600.0 / dt_s
        initial = initial_buildup_kg(sc, spec, antecedent_dry_days, lid_area_ha)
        loads = washoff_series(spec, q_mm_hr, initial, dt_s)
    result = Pollutograph(site=sc.id, pollutant=spec.name, loads_kg=loads)
    for p in placements:
        result = apply_lid_removal(result, p.treated_fraction, spec.removal_for(p.kind))
    return result
