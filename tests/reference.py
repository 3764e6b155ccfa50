"""Frozen reference values for the bundled sports-center case study, and
reference implementations that the faster code is checked against.

Shared by the unit tests and the acceptance suite so every module checks
against the same numbers.
"""

import csv
import hashlib
import io
import json
import math
from pathlib import Path, PurePosixPath
from typing import NamedTuple

import numpy as np

from lidscore.config import ProjectConfig, _Collector
from lidscore.errors import ConfigError, ValidationError

# land use: (name, runoff coefficient, area ha, expected event runoff m3
# at a 26 mm depth)
LAND_USES = [
    ("asphalt_roof", 0.90, 12.56, 2938),
    ("concrete_asphalt_pavement", 0.90, 22.38, 5236),
    ("courts_track_field", 0.90, 2.76, 647),
    ("dry_masonry_pavement", 0.40, 0.77, 81),
    ("parking_lot", 0.20, 3.15, 164),
    ("training_field", 0.25, 0.96, 62),
    ("football_field", 0.15, 1.43, 55),
    ("green_land", 0.15, 20.59, 803),
]

COMPOSITE_PSI = 0.5945
CATCHMENT_AREA_HA = 64.61
DESIGN_DEPTH_MM = 26.0
TOTAL_RUNOFF_M3 = 9987
EXISTING_FACILITIES = [("storage_tanks", 1108), ("sunken_green", 571),
                       ("infiltration_pond", 50)]
EXISTING_TOTAL_M3 = 1729
EXISTING_DEPTH_MM = 4.50
REQUIRED_M3 = 8258

# m3 of runoff controlled per m2 of facility
UNIT_CAPACITY = {
    "bio_retention": 0.30,
    "grassed_swale": 0.15,
    "sunken_green": 0.25,
    "permeable_pavement": 0.05,
    "storage_tank": 1.00,
}

# facility areas (ha) per scenario: bio retention, grassed swale, sunken
# green, permeable pavement, storage tank
SCENARIO_AREAS = {
    "scenario_1": [0.757, 0.429, 0.847, 0.142, 0.316],
    "scenario_2": [1.035, 0.529, 0.941, 0.243, 0.189],
    "scenario_3": [0.850, 0.350, 0.305, 0.325, 0.426],
    "scenario_4": [1.125, 0.480, 1.500, 0.120, 0.035],
    "scenario_5": [0.675, 0.780, 0.850, 0.248, 0.281],
}
CAPACITY_BAND_M3 = (8248, 8268)

HIERARCHY_WEIGHTS = {
    "comprehensive": {"environmental": 0.608, "economic": 0.272, "social": 0.120},
    "environmental": {"water_quantity": 0.700, "water_quality": 0.300},
    "water_quantity": {"runoff_reduction": 0.607, "peak_reduction": 0.303,
                       "peak_delay": 0.090},
    "water_quality": {"tss_reduction": 0.466, "cod_reduction": 0.277,
                      "tn_reduction": 0.161, "tp_reduction": 0.096},
    "economic": {"construction_cost": 0.187, "maintenance_cost": 0.158,
                 "operation_performance": 0.655},
    "operation_performance": {"design_feasibility": 0.200,
                              "engineering_feasibility": 0.400,
                              "operation_stability": 0.400},
    "social": {"water_reuse": 0.648, "landscape": 0.122, "ecological": 0.230},
}

SCENARIOS = ["scenario_1", "scenario_2", "scenario_3", "scenario_4", "scenario_5"]

# raw environmental indicator values (percent; delay in minutes)
ENVIRONMENTAL_RAW = {
    "runoff_reduction": [19.3, 17.1, 17.8, 19.6, 17.3],
    "peak_reduction": [20.9, 18.7, 18.3, 21.8, 18.5],
    "peak_delay": [3, 1, 1, 2, 1],
    "tss_reduction": [21.6, 19.7, 19.7, 22.4, 19.3],
    "cod_reduction": [22.3, 20.2, 19.2, 23.1, 19.9],
    "tn_reduction": [20.5, 18.5, 18.6, 21.3, 18.2],
    "tp_reduction": [18.7, 16.5, 16.9, 19.2, 16.4],
}

# already-normalized economic and social indicator values
ECON_SOCIAL_NORMALIZED = {
    "construction_cost": [0.202, 0.199, 0.226, 0.182, 0.192],
    "maintenance_cost": [0.174, 0.222, 0.185, 0.236, 0.182],
    "design_feasibility": [0.181, 0.215, 0.200, 0.216, 0.188],
    "engineering_feasibility": [0.186, 0.207, 0.211, 0.191, 0.206],
    "operation_stability": [0.181, 0.215, 0.185, 0.231, 0.189],
    "water_reuse": [0.188, 0.211, 0.204, 0.212, 0.185],
    "landscape": [0.177, 0.221, 0.154, 0.268, 0.179],
    "ecological": [0.176, 0.220, 0.158, 0.257, 0.189],
}

# benefit scores the roll-up must reproduce within +/-0.001
EXPECTED_BENEFITS = {
    "environmental": [0.222, 0.186, 0.187, 0.220, 0.185],
    "economic": [0.185, 0.212, 0.201, 0.210, 0.192],
    "social": [0.184, 0.215, 0.188, 0.229, 0.185],
    "comprehensive": [0.208, 0.196, 0.191, 0.218, 0.187],
}
EXPECTED_RANKING = ["scenario_4", "scenario_1", "scenario_2", "scenario_3",
                    "scenario_5"]

SCENARIO_4_PROPORTIONS = {"bio_retention": 0.345, "sunken_green": 0.460}


def hierarchy_spec(env_source="direct"):
    """The case-study hierarchy as a config dict; environmental leaves can
    be bound to either the simulation or a direct table."""

    def leaf(name, weight, source, polarity="benefit"):
        return {"name": name, "weight": weight, "source": source,
                "polarity": polarity}

    w = HIERARCHY_WEIGHTS
    return {
        "name": "comprehensive",
        "children": [
            {"name": "environmental", "weight": w["comprehensive"]["environmental"],
             "children": [
                 {"name": "water_quantity", "weight": w["environmental"]["water_quantity"],
                  "children": [leaf(k, v, env_source)
                               for k, v in w["water_quantity"].items()]},
                 {"name": "water_quality", "weight": w["environmental"]["water_quality"],
                  "children": [leaf(k, v, env_source)
                               for k, v in w["water_quality"].items()]},
             ]},
            {"name": "economic", "weight": w["comprehensive"]["economic"],
             "children": [
                 leaf("construction_cost", w["economic"]["construction_cost"],
                      "direct", polarity="cost"),
                 leaf("maintenance_cost", w["economic"]["maintenance_cost"],
                      "direct", polarity="cost"),
                 {"name": "operation_performance",
                  "weight": w["economic"]["operation_performance"],
                  "children": [leaf(k, v, "direct")
                               for k, v in w["operation_performance"].items()]},
             ]},
            {"name": "social", "weight": w["comprehensive"]["social"],
             "children": [leaf(k, v, "direct") for k, v in w["social"].items()]},
        ],
    }


def weight_tree(hierarchy: dict, matrices: dict | None = None):
    """(WeightTree, {node: ConsistencyReport}) as a project load reads them
    from its `hierarchy` section and its read `matrices`; raises the
    ConfigError that lists every problem found."""
    errors = _Collector()
    tree, reports = ProjectConfig.weight_tree(errors, hierarchy, matrices or {})
    if errors.errors:
        raise ConfigError(errors.errors)
    return tree, reports


def washoff_step(spec, runoff_mm_hr: float, available_kg: float,
                 dt_s: float) -> float:
    """Mass one step washes off a surface holding `available_kg`: the
    step-wise form of quality.washoff_series. Never exceeds what is
    available."""
    if min(runoff_mm_hr, available_kg, dt_s) < 0:
        raise ValidationError("washoff inputs must be non-negative")
    if runoff_mm_hr == 0.0 or available_kg == 0.0:
        return 0.0
    rate = spec.washoff_coeff * runoff_mm_hr ** spec.washoff_exponent
    return available_kg * -np.expm1(-rate * dt_s / 3600.0)


def euler_subarea(intensity_mmps, fcap_mmps, q_coef, dstore_mm, dt_s, d0_mm,
                  budget_mm):
    """Fine-budget explicit-Euler integration of one runoff subarea: the
    oracle `kernels.step_subarea` is checked against.

    Same reservoir, infiltration-first limiting and substep-count rule as
    the kernel (`budget_mm` takes the place of its depth budget), but
    first order, with no substep limit. Returns (runoff_mm per step,
    infiltration_mm per step, final depth mm).
    """
    intensity = np.asarray(intensity_mmps, dtype=float).tolist()
    fcap = np.asarray(fcap_mmps, dtype=float).tolist()
    power = 5.0 / 3.0
    runoff, infil = [], []
    d = float(d0_mm)
    for i, fc in zip(intensity, fcap):
        excess = d - dstore_mm
        q0 = q_coef * excess**power if excess > 0.0 else 0.0
        rate = i + fc + q0
        n_sub = max(1, math.ceil(rate * dt_s / budget_mm)) if rate > 0.0 else 1
        h = dt_s / n_sub
        r_acc = f_acc = 0.0
        for _ in range(n_sub):
            f = fc
            if f > i + d / h:
                f = i + d / h
            excess = d - dstore_mm
            take = q_coef * excess**power * h if excess > 0.0 else 0.0
            avail = d + (i - f) * h
            if take > avail:
                take = avail
            d = avail - take
            r_acc += take
            f_acc += f * h
        runoff.append(r_acc)
        infil.append(f_acc)
    return np.array(runoff), np.array(infil), d


def reference_csv(header, rows) -> bytes:
    """A result file built row by row: `csv.writer` over `repr` strings."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


# The series files of the earlier layout, one file per series: what
# `outfall_<outfall>.csv` replaces, kept so its cells can be checked
# against the text those files held.
def reference_hydrograph(step_s, flows) -> bytes:
    """The earlier `hydro_<outfall>.csv`."""
    return reference_csv(["t_s", "flow_Lps"], [
        [repr(k * step_s), repr(float(q))] for k, q in enumerate(flows)
    ])


def reference_pollutograph(step_s, flows, loads_kg) -> bytes:
    """The earlier `quality_<outfall>_<pollutant>.csv`."""
    rows = []
    for k, (load, flow) in enumerate(zip(loads_kg, flows, strict=True)):
        conc = repr(float(load) * 1e6 / (float(flow) * step_s)) if flow > 0 else ""
        rows.append([repr(k * step_s), repr(float(load)), conc])
    return reference_csv(["t_s", "load_kg", "conc_mg_L"], rows)


def reference_outfall(step_s, names, matrix) -> bytes:
    """The earlier `results/<run>/<storm>/outfall_<outfall>.csv` of one run,
    built row by row from its (1 + pollutant, step) matrix `matrix`: row 0
    the flows, then the loads in `names` order. One row per step."""
    header = ["t_s", "flow_Lps"] + [f"{pollutant}_load_kg" for pollutant in names]
    rows = [[repr(k * step_s)] + [repr(float(value)) for value in column]
            for k, column in enumerate(np.asarray(matrix).T)]
    return reference_csv(header, rows)


def reference_outfall_table(step_s, names, matrices: dict) -> bytes:
    """`results/<storm>/outfall_<outfall>.csv` built row by row from the
    outfall matrix of each run (`matrices`: run label -> matrix, in column
    order): `t_s`, then `<run>/flow_Lps` and `<run>/<p>_load_kg` per run."""
    header = ["t_s"] + [f"{run}/{column}" for run in matrices
                        for column in ["flow_Lps"] + [f"{p}_load_kg" for p in names]]
    steps = np.asarray(next(iter(matrices.values()))).shape[1] if matrices else 0
    rows = [[repr(k * step_s)] + [repr(float(value)) for matrix in matrices.values()
                                  for value in np.asarray(matrix)[:, k]]
            for k in range(steps)]
    return reference_csv(header, rows)


class ResultFile(NamedTuple):
    """One file of a result tree, as `read_file` reads it."""

    sha256: str
    parsed: object      # CSV: rows of string cells; JSON: the object; Markdown: the text
    runs: dict | None   # outfall tables only: {run: {column: cells}}

    @property
    def columns(self) -> dict:
        """{header cell: [cells]} of a CSV file."""
        header, *rows = self.parsed
        return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def read_file(path: str, data: bytes) -> ResultFile:
    """The result file at `path` (relative to `--out`, `/`-separated; its
    suffix picks the parser) with the bytes `data`: its SHA-256 and its
    parsed form. CSV is read as rows of string cells, JSON as objects and
    Markdown as text. An outfall table (`results/<storm>/outfall_<o>.csv`)
    also gets `runs`: each header cell after `t_s` split at its first `/`
    into run and column, each run's columns led by `t_s`."""
    path = PurePosixPath(path)
    text = data.decode("utf-8")
    suffix = path.suffix
    if suffix == ".csv":
        parsed = list(csv.reader(io.StringIO(text, newline="")))
    elif suffix == ".json":
        parsed = json.loads(text)
    elif suffix == ".md":
        parsed = text
    else:
        raise ValueError(f"{path}: not a result file")
    file = ResultFile(hashlib.sha256(data).hexdigest(), parsed, None)
    if not path.match("results/*/outfall_*.csv"):
        return file
    time, *cells = columns = file.columns
    runs = {}
    for cell in cells:
        run, _, column = cell.partition("/")
        runs.setdefault(run, {time: columns[time]})[column] = columns[cell]
    return file._replace(runs=runs)


def read_tree(out_dir) -> dict:
    """{path relative to `out_dir`, `/`-separated: `read_file` of it} for
    every file under `out_dir`, in path order."""
    out_dir = Path(out_dir)
    paths = sorted(p.relative_to(out_dir).as_posix()
                   for p in out_dir.rglob("*") if p.is_file())
    return {path: read_file(path, (out_dir / path).read_bytes()) for path in paths}


def digests(out_dir) -> dict:
    """{path: SHA-256} of every file `read_tree(out_dir)` reads but
    `manifest.json`, the one file whose bytes differ between reruns."""
    return {path: file.sha256 for path, file in read_tree(out_dir).items()
            if path != "manifest.json"}


def derived_concentration(flow_cells, load_cells, step_s) -> list:
    """The concentration (mg/L) a reader of an outfall file derives from
    its cells: `load * 1e6 / (flow * step_s)` per row, blank where the flow
    is not positive. `step_s` is the t_s of the file's second row."""
    return [repr(float(load) * 1e6 / (float(flow) * step_s)) if float(flow) > 0 else ""
            for flow, load in zip(flow_cells, load_cells, strict=True)]
