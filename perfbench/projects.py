"""Benchmark workloads: the bundled case and two seeded synthetic projects.

`lidscore` only ever sees the files written here (project YAML, direct
indicator CSV, rainfall record). The same seed writes byte-identical
files; another seed writes different ones. Counts (subcatchments,
scenarios, storms, steps) are fixed per workload and only values are
drawn from the seed, so the work one rank does stays about the same from
seed to seed and timings stay comparable across seeds.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

WORKLOADS = ("sports_center", "scale_sim", "wide_output")

KINDS = ("bio_retention", "grassed_swale", "sunken_green",
         "permeable_pavement", "storage_tank")
POLLUTANT_NAMES = ("TSS", "COD", "TN", "TP", "ZN", "CU", "PB", "OIL")
SURFACE_CLASSES = (("roofs", 0.9), ("roads", 0.85), ("green", 0.15))
DIRECT_INDICATORS = ("maintenance_cost", "landscape", "ecological")


@dataclass(frozen=True)
class Sizes:
    """Knobs of one synthetic project; fixed per workload."""

    subcatchments: int
    junctions: int          # intermediate nodes; 0 = each subcatchment its own outfall
    outfalls: int
    pollutants: int
    scenarios: int
    placed_share: float     # share of subcatchments a scenario places LID in
    storm_depths_mm: tuple  # bands the storm depths are drawn from, except
    storm_total_mm: float   # the last storm, which takes the rest of this total
    duration_min: int
    tail_min: int
    rain_record_years: int  # 0 = sizing target given as a depth


# Kernel-bound: every subcatchment has a facility in every scenario and the
# heavy storms push the Euler substep count up; few files, no repeated runs.
SCALE_SIM = Sizes(subcatchments=10, junctions=4, outfalls=3, pollutants=2,
                  scenarios=8, placed_share=1.0,
                  storm_depths_mm=((30, 55), (55, 80)), storm_total_mm=110,
                  duration_min=120, tail_min=60, rain_record_years=0)

# Persistence-bound: one outfall per subcatchment and eight pollutants
# multiply the series files; light storms with a long dry tail make long
# series that are cheap to integrate; sizing inverts a long rain record.
WIDE_OUTPUT = Sizes(subcatchments=10, junctions=0, outfalls=10, pollutants=8,
                    scenarios=3, placed_share=0.3,
                    storm_depths_mm=((5, 10), (10, 15)), storm_total_mm=20,
                    duration_min=60, tail_min=240, rain_record_years=60)


@dataclass(frozen=True)
class Workload:
    name: str
    config_path: Path
    command: str            # CLI subcommand one rank runs
    options: tuple = ()     # its options besides --config and --out


def _r(x: float, digits: int = 4) -> float:
    return round(float(x), digits)


def _split(rng, total: float, parts: int) -> list:
    """Split `total` into `parts` positive shares summing to it exactly
    (to 4 decimals)."""
    weights = rng.uniform(0.5, 1.5, parts)
    shares = [_r(total * w / weights.sum()) for w in weights[:-1]]
    shares.append(_r(total - sum(shares)))
    return shares


def _ratio_matrix(rng, labels) -> dict:
    """A perfectly consistent pairwise matrix (CR = 0) from seeded weights."""
    w = rng.integers(1, 5, len(labels)).astype(float)
    rows = [[_r(w[i] / w[j]) for j in range(len(labels))] for i in range(len(labels))]
    return {"labels": list(labels), "rows": rows}


def _subcatchments(rng, sizes: Sizes) -> list:
    subs = []
    for i in range(sizes.subcatchments):
        area = _r(rng.uniform(4.0, 14.0), 3)
        imperv = _r(rng.uniform(0.35, 0.8), 3)
        imp_area = area * imperv
        roof, road = _split(rng, imp_area, 2)
        green = _r(area - roof - road)
        land_uses = [
            {"name": f"{cls}_{i}", "runoff_coefficient": coef, "area_ha": a,
             "surface_class": cls}
            for (cls, coef), a in zip(SURFACE_CLASSES, (roof, road, green))
        ]
        f0 = _r(rng.uniform(50.0, 100.0), 2)
        subs.append({
            "id": f"S{i:02d}",
            "area_ha": area,
            "impervious_fraction": imperv,
            "width_m": _r(rng.uniform(200.0, 600.0), 1),
            "slope": _r(rng.uniform(0.004, 0.02)),
            "outlet": f"J{i:02d}",
            "horton": {"f0_mm_hr": f0, "fc_mm_hr": _r(rng.uniform(2.0, 8.0), 2),
                       "decay_per_hr": _r(rng.uniform(2.0, 5.0), 2)},
            "land_uses": land_uses,
        })
    return subs


def _network(rng, sizes: Sizes) -> tuple:
    outfalls = [f"OUT{k}" for k in range(sizes.outfalls)]
    links = []
    if sizes.junctions:
        for m in range(sizes.junctions):
            links.append({"id": f"LM{m}", "from": f"M{m}",
                          "to": outfalls[m % sizes.outfalls],
                          "lag_s": int(rng.integers(1, 10)) * 60})
        for i in range(sizes.subcatchments):
            links.append({"id": f"L{i:02d}", "from": f"J{i:02d}",
                          "to": f"M{i % sizes.junctions}",
                          "lag_s": int(rng.integers(1, 6)) * 60})
    else:
        for i in range(sizes.subcatchments):
            links.append({"id": f"L{i:02d}", "from": f"J{i:02d}",
                          "to": outfalls[i], "lag_s": int(rng.integers(1, 6)) * 60})
    return links, outfalls


def _pollutants(rng, sizes: Sizes) -> list:
    out = []
    for name in POLLUTANT_NAMES[:sizes.pollutants]:
        out.append({
            "name": name,
            "buildup_max_kg_ha": _r(rng.uniform(1.0, 100.0), 3),
            "half_saturation_days": _r(rng.uniform(3.0, 10.0), 2),
            "washoff_coeff": _r(rng.uniform(0.004, 0.01), 5),
            "washoff_exponent": _r(rng.uniform(1.0, 1.3), 3),
            "surface_class_factors": {"roads": 1.0, "roofs": _r(rng.uniform(0.5, 0.9), 2),
                                      "green": _r(rng.uniform(0.1, 0.6), 2)},
            "lid_removal": {k: _r(rng.uniform(0.1, 0.8), 3) for k in KINDS},
        })
    return out


def _scenarios(rng, sizes: Sizes, subs: list) -> list:
    n_placed = max(1, round(sizes.placed_share * len(subs)))
    scenarios = []
    for s in range(sizes.scenarios):
        hosts = sorted(rng.choice(len(subs), n_placed, replace=False))
        placements = []
        for i in hosts:
            sub = subs[i]
            placements.append({
                "subcatchment": sub["id"],
                "kind": KINDS[int(rng.integers(len(KINDS)))],
                "area_ha": _r(sub["area_ha"] * rng.uniform(0.01, 0.05), 4),
                "treated_fraction": _r(rng.uniform(0.1, 0.4), 3),
            })
        scenarios.append({"name": f"scenario_{s + 1}", "placements": placements})
    return scenarios


def _rain_record(rng, years: int) -> str:
    """Daily event depths: wet days with exponential depths, about 70
    events a year, one line per event."""
    lines = ["date,depth_mm"]
    day = dt.date(1960, 1, 1)
    end = dt.date(1960 + years, 1, 1)
    while day < end:
        day += dt.timedelta(days=int(rng.integers(1, 10)))
        lines.append(f"{day.isoformat()},{_r(rng.exponential(9.0) + 0.2, 1)}")
    return "\n".join(lines) + "\n"


def _hierarchy(rng, pollutants: list) -> tuple:
    quality = [f"{p['name'].lower()}_reduction" for p in pollutants]
    # no peak_delay leaf: with LID in many subcatchments the outfall peak
    # can come earlier in every scenario, and linear normalization rejects
    # a column with a negative sum
    quantity = ["runoff_reduction", "peak_reduction"]

    def leaves(names, **extra):
        return [{"name": n, "source": "simulated", **extra} for n in names]

    hierarchy = {"name": "comprehensive", "children": [
        {"name": "environmental", "children": [
            {"name": "water_quantity", "children": leaves(quantity)},
            {"name": "water_quality", "children": leaves(quality)},
        ]},
        {"name": "economic", "children": [
            {"name": "construction_cost", "weight": 0.6, "source": "facility_derived",
             "polarity": "cost", "transform": "reciprocal"},
            {"name": "maintenance_cost", "weight": 0.4, "source": "direct",
             "polarity": "cost"},
        ]},
        {"name": "social", "children": [
            {"name": "landscape", "weight": 0.5, "source": "direct"},
            {"name": "ecological", "weight": 0.5, "source": "direct"},
        ]},
    ]}
    matrices = {
        "comprehensive": _ratio_matrix(rng, ["environmental", "economic", "social"]),
        "environmental": _ratio_matrix(rng, ["water_quantity", "water_quality"]),
        "water_quantity": _ratio_matrix(rng, quantity),
        "water_quality": _ratio_matrix(rng, quality),
    }
    return hierarchy, matrices


def _direct_table(rng, scenarios: list) -> str:
    """Pre-normalized direct indicators: each column sums to 1."""
    values = rng.uniform(0.5, 1.5, (len(scenarios), len(DIRECT_INDICATORS)))
    values /= values.sum(axis=0)
    lines = [",".join(("scenario",) + DIRECT_INDICATORS)]
    for s, row in zip(scenarios, values):
        lines.append(",".join([s["name"]] + [f"{v:.6f}" for v in row]))
    return "\n".join(lines) + "\n"


def generate(sizes: Sizes, seed: int, out_dir: Path, name: str) -> Path:
    """Write one seeded project under `out_dir`; returns the YAML path."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    subs = _subcatchments(rng, sizes)
    links, outfalls = _network(rng, sizes)
    pollutants = _pollutants(rng, sizes)
    scenarios = _scenarios(rng, sizes, subs)
    # a fixed total depth keeps the kernel's substep count, which grows with
    # depth, about the same for every seed
    depths = [_r(rng.uniform(lo, hi), 1) for lo, hi in sizes.storm_depths_mm[:-1]]
    depths.append(_r(sizes.storm_total_mm - sum(depths), 1))
    hierarchy, matrices = _hierarchy(rng, pollutants)

    if sizes.rain_record_years:
        (out_dir / "rainfall.csv").write_text(_rain_record(rng, sizes.rain_record_years))
        target = {"atrcr": _r(rng.uniform(0.7, 0.85), 3), "rainfall_csv": "rainfall.csv"}
    else:
        target = {"depth_mm": _r(rng.uniform(20.0, 35.0), 1)}
    (out_dir / "direct.csv").write_text(_direct_table(rng, scenarios))

    project = {
        "schema_version": 1,
        "name": f"{name}_seed{seed}",
        "output_dir": "results",
        "catchment": {"subcatchments": subs, "links": links, "outfalls": outfalls},
        "antecedent_dry_days": _r(rng.uniform(3.0, 10.0), 2),
        "pollutants": pollutants,
        "scenarios": scenarios,
        "storms": {
            "depths_mm": depths,
            "duration_min": sizes.duration_min,
            "peak_ratio": _r(rng.uniform(0.3, 0.6), 3),
            "step_s": 60,
            "tail_min": sizes.tail_min,
            "idf": {"a": 20.0, "b_min": _r(rng.uniform(5.0, 15.0), 2),
                    "n": _r(rng.uniform(0.6, 0.85), 3)},
        },
        "sizing": {
            "existing_facilities": [
                {"label": "storage_tanks", "volume_m3": int(rng.integers(200, 1500))},
            ],
            "target": target,
            "min_event_mm": 2.0,
        },
        "hierarchy": hierarchy,
        "matrices": matrices,
        "direct_tables": [{"file": "direct.csv", "normalized": True}],
    }
    path = out_dir / "project.yaml"
    path.write_text(yaml.safe_dump(project, sort_keys=False, width=100))
    return path


def build(name: str, seed: int, root: Path, work_dir: Path) -> Workload:
    """Materialise workload `name` and describe the rank the CLI runs on it.

    `root` is the repository checkout; synthetic projects are written
    under `work_dir`.
    """
    if name == "sports_center":
        return Workload(name, root / "sample" / "sports_center.yaml", "rank",
                        ("--sensitivity", "environmental", "--delta", "0.05"))
    if name == "scale_sim":
        path = generate(SCALE_SIM, seed, work_dir, name)
        return Workload(name, path, "rank")
    if name == "wide_output":
        path = generate(WIDE_OUTPUT, seed, work_dir, name)
        return Workload(name, path, "report", ("--format", "markdown"))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def input_size(config) -> dict:
    """Input properties of a loaded project that set how much work a rank
    does."""
    from lidscore.storms import RainRecord

    s = config.storms
    steps = int(round((s.duration_min + s.tail_min) * 60.0 / s.step_s))
    events = 0
    if config.sizing is not None and config.sizing.target.rainfall_csv is not None:
        events = len(RainRecord.from_csv(config.sizing.target.rainfall_csv).events)
    return {
        "subcatchments": len(config.subcatchments),
        "outfalls": len(config.outfalls),
        "pollutants": len(config.pollutants),
        "scenarios": len(config.scenarios),
        "storms": len(s.depths_mm),
        "steps_per_series": steps,
        "rain_record_events": events,
    }
