"""End-to-end evaluation pipeline and result persistence.

Stages: sizing check -> design storms -> baseline and scenario simulations
(skipped entirely when every hierarchy leaf is direct-injected) ->
indicator tables -> normalization -> roll-up -> ranking -> capacity
compliance flags -> optional weight sensitivity. The weighted hierarchy
(`config.tree`) and the normalized column of every leaf that is not
simulated (`config.fixed_columns`) are built once, by `load_config`. Every
stage runs before the first result file is written, so a run that fails
writes nothing.

Within one `simulate_all` call each storm keeps the baseline result of
every subcatchment; a scenario that places nothing in a subcatchment
reuses that result instead of simulating it again (the runs are
deterministic, so the reused result is bit-identical).

`_Writer` is the only code that hashes and writes result files. Each
file is built in memory, hashed from those bytes and written without
being read back, so the manifest lists every file a run writes.

A run carries each node's series as one (1 + pollutant, step) matrix:
row 0 the flow (L/s), then the loads (kg) in `config.pollutants` order.
One `route_series` call per run takes them to the outfalls. Under
results/<storm>/, `_persist_runs` writes one `outfall_<outfall>.csv` per
outfall holding every run side by side: `t_s`, then for each run label
in `runs` order `<run>/flow_Lps` and `<run>/<p>_load_kg` per pollutant,
one row per step, the time column formatted once per writer. A run label
holds no `/`, so each header cell after `t_s` splits at its first `/`
into run and column. Every cell is the `repr` of its float, and
`_repr_rows` writes each block of cells with one orjson call: orjson gives
the same shortest digits as `repr`, and where it writes them in another
notation (nonzero |x| < 1e-4, |x| >= 1e16) the cell's text is rebuilt
from orjson's digits; only a non-finite cell is taken from `repr`. No
concentration is written: a reader derives it from the row's own cells
(see README "Outputs"). Each run's block of a row (`flow,load,...`) is
kept per (storm, outfall) keyed on its matrix's bytes, so a block that
repeats another run's, as a scenario's does at an outfall fed only by
placement-free subcatchments, is formatted once. Next to those files,
`water_balance.csv` holds one row per run and subcatchment.

The CLI subcommands call the same `_persist_*` functions as `run_pipeline`,
so each file comes from exactly one function. Rerunning an identical
config byte-reproduces every file; only the manifest carries a timestamp.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import io
import json
import math
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import orjson

import lidscore
from lidscore import kernels
from lidscore.config import ProjectConfig
from lidscore.errors import ConfigError, LidscoreError, ValidationError
from lidscore.evaluator import (IndicatorTable, StormSummary, WeightTree,
                                evaluate_environmental, normalize, rollup)
from lidscore.hydrology import (composite_runoff_coefficient, route_series,
                                simulate_subcatchment)
from lidscore.lid import control_capacity, existing_capacity, required_volume
from lidscore.quality import simulate_quality
from lidscore.storms import (atrcr_curve, design_storm_suite, invert_atrcr,
                             storm_label)

MASS_BALANCE_LIMIT = 0.005
ATRCR_GRID_MM = [float(h) for h in range(61)]   # capture depths of atrcr_curve.csv
route = route_series  # uncalled; perfbench/spans.py's `hydrology.route` span looks it up


@dataclass
class StormRun:
    """One run label (baseline or scenario) under one storm."""

    storm: str
    outfalls: dict              # outfall -> (1 + pollutant, step) matrix
    balances: dict              # subcatchment -> WaterBalance
    summary: StormSummary


@dataclass
class SizingSummary:
    psi: float
    area_ha: float
    target_depth_mm: float
    existing_m3: float
    existing_depth_mm: float
    required_m3: float
    capacities_m3: dict
    atrcr_points: dict | None = None

    @property
    def compliance(self) -> dict:
        """Scenario name -> whether its capacity meets the required volume,
        in name order."""
        return {name: capacity >= self.required_m3
                for name, capacity in sorted(self.capacities_m3.items())}

    def to_dict(self) -> dict:
        return {
            "composite_runoff_coefficient": self.psi,
            "catchment_area_ha": self.area_ha,
            "target_depth_mm": self.target_depth_mm,
            "existing_capacity_m3": self.existing_m3,
            "existing_capacity_depth_mm": self.existing_depth_mm,
            "required_volume_m3": self.required_m3,
            "scenario_capacity_m3": dict(sorted(self.capacities_m3.items())),
            "compliance": self.compliance,
        }


@dataclass
class RunManifest:
    config_hash: str
    package_version: str
    kernel_backend: str
    created_utc: str
    storms: list
    ranking: list
    compliance: dict
    files: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    sensitivity: dict | None = None   # written to sensitivity.json only
    tied: bool = False                # written to benefit_report.json only

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["sensitivity"], out["tied"]
        return out


class _Writer:
    """Formats, hashes and writes every result file.

    `files` maps each written path (relative to the output directory) to
    the SHA-256 of the bytes written there."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.files: dict = {}
        self._time_columns: dict = {}

    def record(self, text: str, *parts) -> Path:
        data = text.encode("utf-8")
        return self.put(data, hashlib.sha256(data).hexdigest(), *parts)

    def put(self, data: bytes, digest: str, *parts) -> Path:
        """Write `data`, whose SHA-256 is `digest`, and list the file."""
        path = self.out_dir.joinpath(*parts)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        except OSError as exc:
            raise LidscoreError(f"cannot write {path}: {exc.strerror or exc}") from None
        self.files[str(path.relative_to(self.out_dir))] = digest
        return path

    def write_json(self, obj, *parts) -> Path:
        return self.record(json.dumps(obj, indent=2, sort_keys=True) + "\n", *parts)

    def write_rows(self, header, rows, *parts) -> Path:
        """CSV with a header row, `csv` default quoting and CRLF line ends."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return self.record(buf.getvalue(), *parts)

    def time_column(self, n: int, step_s) -> list:
        """repr of `k * step_s` for k < n, formatted once per writer. The
        key holds `repr(step_s)`: 60 and 60.0 are equal but give "60" and
        "60.0"."""
        key = (n, repr(step_s))
        column = self._time_columns.get(key)
        if column is None:
            column = _repr_rows((np.arange(n) * step_s)[:, np.newaxis])
            self._time_columns[key] = column
        return column


def build_storms(config: ProjectConfig):
    s = config.storms
    suite = design_storm_suite(s.depths_mm, s.duration_min, s.peak_ratio,
                               s.idf, s.step_s)
    return {storm_label(d): storm for d, storm in zip(s.depths_mm, suite)}


def compute_sizing(config: ProjectConfig) -> SizingSummary | None:
    if config.sizing is None:
        return None
    # load_config has checked that the project has the source of each value
    # that is not set explicitly
    subcatchments = config.subcatchments.values()
    psi = config.sizing.psi
    if psi is None:
        psi = composite_runoff_coefficient([lu for sc in subcatchments for lu in sc.land_uses])
    area_ha = config.sizing.area_ha
    if area_ha is None:
        area_ha = sum(sc.area_ha for sc in subcatchments)
    target = config.sizing.target
    atrcr_points = None
    if target.depth_mm is not None:
        depth = float(target.depth_mm)
    else:
        depth = invert_atrcr(target.record, target.atrcr, config.sizing.min_event_mm)
        atrcr_points = atrcr_curve(target.record, ATRCR_GRID_MM,
                                   config.sizing.min_event_mm)
    existing_m3, existing_depth = existing_capacity(
        config.sizing.existing_facilities, psi, area_ha
    )
    required = required_volume(depth, psi, area_ha, existing_m3)
    capacities = {
        sc.name: control_capacity(sc, config.catalog) for sc in config.scenarios
    }
    return SizingSummary(
        psi=psi, area_ha=area_ha, target_depth_mm=depth,
        existing_m3=existing_m3, existing_depth_mm=existing_depth,
        required_m3=required, capacities_m3=capacities,
        atrcr_points=atrcr_points,
    )


def simulate_run(config: ProjectConfig, storm, label: str,
                 storm_name: str, scenario=None,
                 reuse: dict | None = None) -> StormRun:
    """Simulate every subcatchment, route each node's (1 + pollutant, step)
    matrix (see the module docstring) in one call and summarize.

    `reuse` maps subcatchment ids to the (WaterBalance, flows, load
    matrix) of a placement-free run under this same storm. A subcatchment
    without placements takes its entry instead of being simulated again,
    and a new placement-free run is added to it."""
    dt = config.storms.step_s
    node_series: dict = {}
    balances: dict = {}
    for sc in config.subcatchments.values():
        placements = []
        if scenario is not None:
            placements = [p for p in scenario.placements if p.subcatchment == sc.id]
        shared = reuse is not None and not placements
        if shared and sc.id in reuse:
            balance, flows, loads = reuse[sc.id]
        else:
            flows, balance, detail = simulate_subcatchment(
                sc, storm, placements, config.catalog,
                tail_min=config.storms.tail_min,
            )
            closure = balance.closure_error()
            if closure > MASS_BALANCE_LIMIT:
                raise LidscoreError(
                    f"{label}/{storm_name}/{sc.id}: water balance closure "
                    f"{closure:.2%} exceeds {MASS_BALANCE_LIMIT:.1%}"
                )
            loads = simulate_quality(sc, detail.pre_lid_runoff_m3, config.pollutants,
                                     dt, config.antecedent_dry_days, placements)
            if shared:
                reuse[sc.id] = (balance, flows, loads)
        balances[sc.id] = balance
        series = node_series.setdefault(sc.outlet,
                                        np.zeros((1 + len(loads), flows.size)))
        series[0] += flows
        series[1:] += loads

    outfalls = route_series(node_series, config.links, dt)
    summary = StormSummary.from_outfalls(storm_name, dt, outfalls,
                                         [p.name for p in config.pollutants])
    return StormRun(storm=storm_name, outfalls=outfalls, balances=balances,
                    summary=summary)


def simulate_all(config: ProjectConfig, storms: dict) -> dict:
    """Baseline plus every scenario, for every storm. Returns
    {run label: [StormRun in storm order]} with 'baseline' first."""
    # per storm: subcatchment id -> its baseline result (see simulate_run)
    reuse = {storm_name: {} for storm_name in storms}
    runs: dict = {"baseline": [
        simulate_run(config, storm, "baseline", storm_name, None, reuse[storm_name])
        for storm_name, storm in storms.items()
    ]}
    for scenario in config.scenarios:
        runs[scenario.name] = [
            simulate_run(config, storm, scenario.name, storm_name, scenario,
                         reuse[storm_name])
            for storm_name, storm in storms.items()
        ]
    return runs


def _persist_storms(writer: _Writer, storms: dict) -> list:
    """storms/storm_<name>.csv: `t_min,intensity_mm_per_hr`, t at step start."""
    return [
        writer.write_rows(
            ["t_min", "intensity_mm_per_hr"],
            [[repr(k * storm.step_s / 60.0), repr(float(v))]
             for k, v in enumerate(storm.intensities_mm_hr)],
            "storms", f"storm_{name}.csv",
        )
        for name, storm in storms.items()
    ]


def _persist_atrcr_curve(writer: _Writer, points: dict) -> Path:
    rows = [[repr(h), repr(r)] for h, r in sorted(points.items())]
    return writer.write_rows(["depth_mm", "atrcr"], rows, "atrcr_curve.csv")


def _persist_weights(writer: _Writer, tree: WeightTree, reports: dict) -> Path:
    return writer.write_json({
        "tree": tree.to_dict(),
        "consistency": {
            node: {"lambda_max": r.lambda_max, "ci": r.ci, "ri": r.ri,
                   "cr": r.cr, "passed": r.passed}
            for node, r in sorted(reports.items())
        },
    }, "weights.json")


def _persist_table(writer: _Writer, table: IndicatorTable, *parts) -> Path:
    rows = [[name] + [repr(float(v)) for v in row]
            for name, row in zip(table.scenarios, table.values)]
    return writer.write_rows(["scenario"] + list(table.indicators), rows, *parts)


# orjson writes the same shortest round-trip digits as `repr`, and in the
# same notation wherever x == 0 or 1e-4 <= |x| < 1e16. Each entry rewrites
# orjson's text of the floats with low <= |x| < high into repr's notation.
# A float's shortest digits carry the decimal exponent of its magnitude, so
# these exact bounds at powers of ten give each entry one notation.
_REWRITES = (
    # 0.0000123 -> 1.23e-05, 0.00005 -> 5e-05
    (1e-5, 1e-4, lambda text: [f"{c[6]}.{c[7:]}e-05" if len(c) > 7 else f"{c[6]}e-05"
                               for c in text.split(",")]),
    # 7.8e-6 -> 7.8e-06: a one-digit exponent, -6 to -9
    (1e-9, 1e-5, lambda text: text.replace("e-", "e-0").split(",")),
    # 1e-10, 5e-324: already repr's text
    (5e-324, 1e-9, lambda text: text.split(",")),
    # 1e16 -> 1e+16
    (1e16, math.inf, lambda text: text.replace("e", "e+").split(",")),
)


def _rebuilt_cells(x: np.ndarray) -> np.ndarray:
    """`repr` of each float of a 1-D array, every one nonzero and outside
    1e-4 <= |x| < 1e16, rebuilt from orjson's digits of it (`_REWRITES`).
    A non-finite value, which orjson writes as `null`, is taken from
    `repr`."""
    a = np.abs(x)
    cells = np.empty(x.shape, dtype=object)
    for low, high, rewrite in _REWRITES:
        group = (a >= low) & (a < high)
        if group.any():
            cells[group] = rewrite(orjson.dumps(a[group].tolist()).decode()[1:-1])
    negative = (x < 0) & (a < math.inf)
    cells[negative] = "-" + cells[negative]
    for i in np.flatnonzero(~np.isfinite(x)).tolist():
        cells[i] = repr(float(x[i]))
    return cells


def _repr_rows(block: np.ndarray) -> list:
    """The `repr` of each float of a 2-D array, one `,`-joined string per
    row, all written by one orjson call on an object copy of the array.
    In that copy each cell that orjson would write in another notation
    than `repr` (see `_REWRITES`) holds its rebuilt text, which orjson
    writes quoted; the quotes are dropped."""
    a = np.abs(block)
    odd = ~((a >= 1e-4) & (a < 1e16) | (a == 0.0))
    cells = block.astype(object)
    cells[odd] = _rebuilt_cells(block[odd])
    text = orjson.dumps(cells.tolist()).replace(b'"', b"").decode()
    return text[2:-2].split("],[") if len(block) else []


def _step_cells(series: np.ndarray) -> list:
    """The `flow,load,...` text of each step of a (1 + pollutant, step) matrix."""
    return _repr_rows(series.T)


def _persist_runs(writer: _Writer, config: ProjectConfig, runs: dict) -> None:
    """Every run of `config` (`simulate_all`) under results/<storm>/: one
    outfall table per outfall with every run side by side, and one water
    balance table (see the module docstring). Every run of a storm routes
    to the same outfalls."""
    step_s = config.storms.step_s
    columns = ["flow_Lps", *(f"{p.name}_load_kg" for p in config.pollutants)]
    buf = io.StringIO()   # a pollutant name may need quoting
    csv.writer(buf).writerow(["t_s", *(f"{label}/{c}" for label in runs for c in columns)])
    header = buf.getvalue()
    for storm_runs in zip(*runs.values()):
        storm = storm_runs[0].storm
        for outfall, first in storm_runs[0].outfalls.items():
            blocks: dict = {}   # matrix bytes -> its _step_cells
            cells = [writer.time_column(first.shape[1], step_s)]
            for run in storm_runs:
                key = run.outfalls[outfall].tobytes()
                if key not in blocks:
                    blocks[key] = _step_cells(run.outfalls[outfall])
                cells.append(blocks[key])
            writer.record(header + "\r\n".join([*map(",".join, zip(*cells, strict=True)), ""]),
                          "results", storm, f"outfall_{outfall}.csv")
        rows = [
            [label, sc_id, repr(float(b.rainfall_m3)), repr(float(b.runoff_m3)),
             repr(float(b.infiltration_m3)), repr(float(b.surface_storage_m3)),
             repr(float(b.lid_captured_m3)), repr(float(b.closure_error()))]
            for label, run in zip(runs, storm_runs)
            for sc_id, b in sorted(run.balances.items())
        ]
        writer.write_rows(
            ["run", "subcatchment", "rainfall_m3", "runoff_m3", "infiltration_m3",
             "surface_storage_m3", "lid_captured_m3", "closure_error"],
            rows, "results", storm, "water_balance.csv",
        )


def assemble_indicators(config: ProjectConfig, runs: dict | None) -> tuple:
    """Build the normalized leaf table of `config.tree` feeding the roll-up.

    Returns (normalized table, simulated raw environmental table or None).
    The simulated leaves' columns are normalized here; every other leaf's
    normalized column was built by `load_config` (`config.fixed_columns`).
    Raises ValidationError when the project has no scenarios.
    """
    if not config.scenarios:
        raise ValidationError("indicator table needs at least one scenario")
    leaves = list(config.tree.leaves())
    fixed = config.fixed_columns
    columns = dict(zip(fixed.indicators, fixed.values.T))
    simulated_table = None
    simulated = [l for l in leaves if l.source == "simulated"]
    if simulated:
        by_scenario = {
            name: [r.summary for r in storm_runs]
            for name, storm_runs in runs.items() if name != "baseline"
        }
        simulated_table = evaluate_environmental(
            [r.summary for r in runs["baseline"]],
            by_scenario,
            [p.name for p in config.pollutants],
        )
        for leaf in simulated:
            columns[leaf.indicator] = normalize(
                leaf, simulated_table.column(leaf.indicator), fixed.scenarios)
    indicators = [l.indicator for l in leaves]
    values = np.column_stack([columns[i] for i in indicators])
    return IndicatorTable(fixed.scenarios, indicators, values), simulated_table


class _Stage:
    """Names the failing pipeline stage on any package error."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, LidscoreError):
            exc.args = (f"[stage: {self.name}] {exc}",)
        return False


def simulate_if_needed(config: ProjectConfig,
                       storms: dict | None = None) -> dict | None:
    """Simulate when a hierarchy leaf is simulated or there is no scenario
    to evaluate (a baseline-only run); None otherwise. Storms are built
    here unless given."""
    if config.scenarios and not any(l.source == "simulated" for l in config.tree.leaves()):
        return None
    with _Stage("simulation"):
        return simulate_all(config, storms if storms is not None else build_storms(config))


def _persist_indicators(writer: _Writer, table: IndicatorTable,
                        simulated_table: IndicatorTable | None) -> None:
    """indicators/: the simulated raw environmental table, when there is
    one, and the normalized leaf table."""
    if simulated_table is not None:
        _persist_table(writer, simulated_table,
                       "indicators", "simulated_environmental.csv")
    _persist_table(writer, table, "indicators", "normalized.csv")


def run_pipeline(config: ProjectConfig, out_dir=None,
                 render: str | None = None,
                 sensitivity: tuple | None = None) -> RunManifest:
    """Execute every stage the config asks for, then persist the results.

    `render` additionally writes the summary tables in the given format
    ("markdown", "csv" or "json"). `sensitivity` = (node, delta)
    additionally writes `weight_sensitivity` to sensitivity.json. Errors
    abort the run before its first write and name the failing stage; a
    `sensitivity` request that cannot run fails before the first stage."""
    tree = config.tree
    if sensitivity is not None:
        if not config.scenarios:
            raise ConfigError("a sensitivity analysis needs scenarios to rank")
        with _Stage("sensitivity"):
            _perturbations(tree, *sensitivity)

    with _Stage("sizing"):
        sizing = compute_sizing(config)
    with _Stage("design storms"):
        storms = build_storms(config)
    runs = simulate_if_needed(config, storms)
    report = table = simulated_table = outcome = None
    if config.scenarios:
        with _Stage("indicator assembly"):
            table, simulated_table = assemble_indicators(config, runs)
        with _Stage("benefit roll-up"):
            report = rollup(tree, table)
        if sensitivity is not None:
            with _Stage("sensitivity"):
                outcome = weight_sensitivity(tree, table, *sensitivity)

    writer = _Writer(Path(out_dir) if out_dir else config.output_dir)
    if sizing is not None:
        writer.write_json(sizing.to_dict(), "sizing.json")
        if sizing.atrcr_points is not None:
            _persist_atrcr_curve(writer, sizing.atrcr_points)
    _persist_weights(writer, tree, config.consistency)
    _persist_storms(writer, storms)
    if runs is not None:
        _persist_runs(writer, config, runs)
    if report is not None:
        _persist_indicators(writer, table, simulated_table)
        writer.write_json(report.to_dict(), "benefit_report.json")
        top_nodes = [c.name for c in tree.root.children] + [tree.root.name]
        rows = [
            [name] + [repr(report.score(node, name)) for node in top_nodes]
            for name in report.scenarios
        ]
        writer.write_rows(["scenario"] + top_nodes, rows, "benefits.csv")
        writer.write_rows(
            ["rank", "scenario", "comprehensive"],
            [
                [str(i + 1), name, repr(report.score(tree.root.name, name))]
                for i, name in enumerate(report.ranking)
            ],
            "ranking.csv",
        )
    if outcome is not None:
        writer.write_json(outcome, "sensitivity.json")
    if render:
        from lidscore.report import render_tables

        render_tables(writer, config, sizing, report, simulated_table, table,
                      render)

    manifest = RunManifest(
        config_hash=config.config_hash,
        package_version=lidscore.__version__,
        kernel_backend=kernels.BACKEND,
        created_utc=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        storms=list(storms),
        ranking=list(report.ranking) if report is not None else [],
        compliance=sizing.compliance if sizing is not None else {},
        files=dict(writer.files),
        versions={"lidscore": lidscore.__version__, "numpy": np.__version__,
                  "python": platform.python_version()},
        sensitivity=outcome,
        tied=report is not None and report.tied,
    )
    # written after the snapshot above, so the manifest does not list itself
    writer.write_json(manifest.to_dict(), "manifest.json")
    return manifest


def weight_sensitivity(tree: WeightTree, table: IndicatorTable, node: str,
                       delta: float) -> dict:
    """Perturb one hierarchy node weight by +/-delta (siblings renormalized)
    and report whether the top-ranked scenario changes. `table` is the
    normalized leaf table of `tree`; the leaf set does not change under
    re-weighting, so it applies to every perturbed tree."""
    base_report = rollup(tree, table)
    outcomes = {"node": node, "base_weight": tree.find(node).weight,
                "base_ranking": list(base_report.ranking), "perturbations": {}}
    for key, (w, perturbed) in _perturbations(tree, node, delta).items():
        report = rollup(perturbed, table)
        outcomes["perturbations"][key] = {
            "weight": w,
            "ranking": list(report.ranking),
            "top_changed": report.ranking[0] != base_report.ranking[0],
        }
    return outcomes


def _perturbations(tree: WeightTree, node: str, delta: float) -> dict:
    """{"+delta": (weight, tree), "-delta": (weight, tree)}: `node`'s weight
    moved by +delta and by -delta, and `tree` reweighted to it. Raises
    ValidationError for a node `tree.reweighted` cannot perturb so."""
    base_weight = tree.find(node).weight
    perturbed = {}
    for sign in (+1.0, -1.0):
        w = base_weight + sign * delta
        perturbed[f"{sign * delta:+g}"] = (w, tree.reweighted(node, w))
    return perturbed
