"""Pollutant buildup, washoff and LID removal at event scale.

Buildup follows the saturation form B(t) = C1 * t / (C2 + t) per surface
class; washoff depletes the available mass exponentially at a rate driven
by the runoff intensity, so a step removes B * (1 - exp(-C3 * q^C4 * dt)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lidscore.errors import Ranged, ValidationError
from lidscore.hydrology import Subcatchment
from lidscore.lid import LidKind

DEFAULT_ANTECEDENT_DRY_DAYS = 7.0


@dataclass(frozen=True)
class PollutantSpec(Ranged):
    name: str
    buildup_max_kg_ha: float = field(metadata={"range": "> 0"})     # C1
    half_saturation_days: float = field(metadata={"range": "> 0"})  # C2
    washoff_coeff: float = field(metadata={"range": "> 0"})  # C3 (per hour at q = 1 mm/hr)
    washoff_exponent: float = field(default=1.0, metadata={"range": "> 0"})  # C4
    lid_removal: dict = field(default_factory=dict, metadata={"range": "in [0, 1]"})
    surface_class_factors: dict = field(default_factory=dict, metadata={"range": ">= 0"})

    def __post_init__(self):
        super().__post_init__()
        for kind in self.lid_removal:
            LidKind.parse(kind)   # a misspelled kind would remove nothing

    def removal_for(self, kind: LidKind) -> float:
        key = kind.value if isinstance(kind, LidKind) else str(kind)
        return float(self.lid_removal.get(key, 0.0))

    def class_factor(self, surface_class: str) -> float:
        return float(self.surface_class_factors.get(surface_class, 1.0))


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


def simulate_quality(sc: Subcatchment, pre_lid_runoff_m3, specs, dt_s: float,
                     antecedent_dry_days: float = DEFAULT_ANTECEDENT_DRY_DAYS,
                     placements=()) -> np.ndarray:
    """Washoff of every pollutant of `specs`, driven by the runoff generated
    on the contributing surfaces, then reduced by each LID placement on its
    treated share: out = in * (1 - treated_fraction * removal), placement
    by placement. Returns the (pollutant, step) load matrix in kg, rows in
    `specs` order."""
    placements = list(placements)
    lid_area_ha = sum(p.area_ha for p in placements)
    runoff_m3 = np.asarray(pre_lid_runoff_m3, dtype=float)
    area_m2 = (sc.area_ha - lid_area_ha) * 10_000.0
    loads = np.zeros((len(specs), runoff_m3.size))
    if area_m2 > 0:
        q_mm_hr = runoff_m3 / area_m2 * 1000.0 * 3600.0 / dt_s
        # one 1-D call per pollutant: a 2-D power may round on another SIMD path
        for row, spec in zip(loads, specs):
            initial = initial_buildup_kg(sc, spec, antecedent_dry_days, lid_area_ha)
            row[:] = washoff_series(spec, q_mm_hr, initial, dt_s)
    for p in placements:
        for row, spec in zip(loads, specs):
            row *= 1.0 - p.treated_fraction * spec.removal_for(p.kind)
    if np.any(loads < 0) or not np.all(np.isfinite(loads)):
        raise ValidationError(f"{sc.id}: bad load series")
    return loads
