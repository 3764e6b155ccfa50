"""End-to-end pipeline tests on the bundled projects."""

import csv
import dataclasses
import filecmp
import io
import json
import math
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
import yaml
from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra.numpy import arrays

import reference
import lidscore.pipeline
from lidscore.config import _Collector, load_config
from lidscore.errors import ConfigError, LidscoreError, ValidationError
from lidscore.evaluator import StormSummary, environmental_indicators, rollup
from lidscore.hydrology import HortonParams, Link, Subcatchment
from lidscore.lid import LidKind, LidPlacement, Scenario
from lidscore.pipeline import (StormRun, _persist_runs, _repr_rows, _Writer,
                               assemble_indicators, build_storms, compute_sizing,
                               run_pipeline, simulate_all, simulate_run,
                               weight_sensitivity)
from lidscore.storms import Hyetograph
from reference import (derived_concentration, reference_hydrograph,
                       reference_outfall, reference_outfall_table,
                       reference_pollutograph, run_columns)
from test_config import rewrite


def compare_trees(a: Path, b: Path, skip=("manifest.json",)):
    """Byte-compare two result trees; returns the differing files."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    different = []
    for rel in files_a:
        if rel.name in skip:
            continue
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            different.append(str(rel))
    return different


@pytest.fixture(scope="module")
def manifest_and_report(published_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("published")
    manifest = run_pipeline(published_config, out)
    with open(out / "benefit_report.json") as fh:
        report = json.load(fh)
    return manifest, report, out


@pytest.fixture(scope="module")
def runs(sports_config):
    return simulate_all(sports_config, build_storms(sports_config))


class TestPublishedTablesRun:
    def test_ranking(self, manifest_and_report):
        manifest, _, _ = manifest_and_report
        assert manifest.ranking == reference.EXPECTED_RANKING

    def test_every_benefit_cell(self, manifest_and_report):
        _, report, _ = manifest_and_report
        for node, expected in reference.EXPECTED_BENEFITS.items():
            got = report["scores"][node]
            np.testing.assert_allclose(got, expected, atol=1e-3, err_msg=node)

    def test_hydrology_was_bypassed(self, manifest_and_report):
        """All-direct indicator sources must not run any simulation."""
        _, _, out = manifest_and_report
        assert not (out / "results").exists()

    def test_sizing_summary(self, manifest_and_report):
        _, _, out = manifest_and_report
        with open(out / "sizing.json") as fh:
            sizing = json.load(fh)
        assert sizing["required_volume_m3"] == pytest.approx(
            reference.REQUIRED_M3, abs=2)
        assert sizing["existing_capacity_depth_mm"] == pytest.approx(4.50, abs=0.05)

    def test_manifest_lists_files_with_hashes(self, manifest_and_report):
        manifest, _, out = manifest_and_report
        assert "benefit_report.json" in manifest.files
        for rel in manifest.files:
            assert (out / rel).exists()


class TestSportsCenterRun:
    def test_mass_balance_everywhere(self, runs):
        worst = max(
            balance.closure_error()
            for storm_runs in runs.values()
            for run in storm_runs
            for balance in run.balances.values()
        )
        assert worst <= 0.005

    def test_runoff_reduction_band(self, runs):
        """Simulated reductions bracket the published 17-20% range."""
        base = [r.summary for r in runs["baseline"]]
        for name, storm_runs in runs.items():
            if name == "baseline":
                continue
            for b, s in zip(base, storm_runs):
                red = (b.volume_m3 - s.summary.volume_m3) / b.volume_m3 * 100
                assert 10.0 <= red <= 30.0, (name, s.storm, red)

    def test_scenario_loads_below_baseline(self, runs):
        base = {r.storm: r.summary.loads_kg for r in runs["baseline"]}
        for name, storm_runs in runs.items():
            if name == "baseline":
                continue
            for run in storm_runs:
                for pollutant, load in run.summary.loads_kg.items():
                    assert load <= base[run.storm][pollutant] + 1e-9

    def test_scenario_runoff_below_baseline(self, runs):
        base = {r.storm: r.summary.volume_m3 for r in runs["baseline"]}
        for name, storm_runs in runs.items():
            for run in storm_runs:
                assert run.summary.volume_m3 <= base[run.storm] + 1e-9

    def test_outfalls_present(self, runs, sports_config):
        run = runs["baseline"][0]
        assert sorted(run.outfalls) == sorted(sports_config.outfalls)


class TestDeterminism:
    def test_two_runs_byte_identical(self, sports_config, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        m1 = run_pipeline(sports_config, out1)
        m2 = run_pipeline(sports_config, out2)
        assert compare_trees(out1, out2) == []
        assert m1.files == m2.files  # manifest hashes agree too

    def test_rerun_into_same_directory(self, published_config, tmp_path):
        out = tmp_path / "again"
        m1 = run_pipeline(published_config, out)
        m2 = run_pipeline(published_config, out)
        assert m1.files == m2.files


class TestPipelineShapes:
    def test_zero_scenarios_baseline_only(self, sports_config, tmp_path):
        config = dataclasses.replace(sports_config, scenarios=[])
        manifest = run_pipeline(config, tmp_path / "base_only")
        assert manifest.ranking == []
        header = (tmp_path / "base_only" / "results" / "16mm" / "outfall_OUT_A.csv"
                  ).read_text().splitlines()[0]
        assert header.startswith("t_s,baseline/flow_Lps,") and "scenario" not in header
        assert not (tmp_path / "base_only" / "benefit_report.json").exists()

    def test_undersized_scenario_flagged(self, published_config):
        """A 7,000 m3 scenario against the 8,258 m3 requirement."""
        small = Scenario("small", (
            LidPlacement("site", LidKind.STORAGE_TANK, 0.7, 0.1),))
        config = dataclasses.replace(published_config, scenarios=[small])
        sizing = compute_sizing(config)
        assert sizing.capacities_m3["small"] == pytest.approx(7000.0)
        assert sizing.compliance == {"small": False}
        assert sizing.required_m3 == pytest.approx(reference.REQUIRED_M3, abs=2)

    def test_published_capacities_straddle_requirement(self, published_config):
        sizing = compute_sizing(published_config)
        for name, capacity in sizing.capacities_m3.items():
            assert capacity == pytest.approx(reference.REQUIRED_M3, abs=10), name

    def test_atrcr_target_resolves_to_26mm(self, sports_config):
        sizing = compute_sizing(sports_config)
        assert sizing.target_depth_mm == pytest.approx(26.0, abs=0.5)
        assert sizing.atrcr_points is not None

    def test_single_storm_run(self, sports_config):
        storms = build_storms(sports_config)
        storm = storms["26mm"]
        run = simulate_run(sports_config, storm, "baseline", "26mm", None)
        assert run.summary.volume_m3 > 0
        assert run.summary.peak_lps > 0

    def test_nan_closure_fails_the_run(self, sports_config, monkeypatch):
        """The water-balance guard fails closed: a closure that is not a
        number does not pass as within the limit."""
        simulate = lidscore.pipeline.simulate_subcatchment

        def nan_runoff(*args, **kwargs):
            flows, balance, detail = simulate(*args, **kwargs)
            return flows, dataclasses.replace(balance, runoff_m3=math.nan), detail

        monkeypatch.setattr(lidscore.pipeline, "simulate_subcatchment", nan_runoff)
        storm = build_storms(sports_config)["26mm"]
        with pytest.raises(LidscoreError, match="baseline/26mm/A: water balance closure nan"):
            simulate_run(sports_config, storm, "baseline", "26mm", None)


@pytest.fixture(scope="module")
def published_table(published_config):
    """Normalized leaf table of the published project."""
    table, _ = assemble_indicators(published_config, None)
    return table


@pytest.fixture(scope="module")
def published_weighted(published_config, published_table):
    """(weighted tree, its roll-up) of the published project."""
    return published_config.tree, rollup(published_config.tree, published_table)


class TestWeightSensitivity:
    def test_zero_delta_keeps_ranking(self, published_weighted):
        outcome = weight_sensitivity(*published_weighted, "environmental", 0.0)
        for entry in outcome["perturbations"].values():
            assert entry["ranking"] == outcome["base_ranking"]
            assert not entry["top_changed"]

    def test_large_shift_reports_rankings(self, published_weighted):
        outcome = weight_sensitivity(*published_weighted, "environmental", 0.108)
        assert outcome["base_weight"] == pytest.approx(0.608)
        for entry in outcome["perturbations"].values():
            assert sorted(entry["ranking"]) == sorted(reference.SCENARIOS)

    def test_overshoot_rejected(self, published_weighted):
        with pytest.raises(ValidationError, match="outside"):
            weight_sensitivity(*published_weighted, "environmental", 0.5)

    def test_unknown_node(self, published_weighted):
        with pytest.raises(ValidationError, match="no node"):
            weight_sensitivity(*published_weighted, "nonexistent", 0.05)

    def test_node_without_sibling_weight(self, sample_dir, tmp_path):
        """A node holding all of its parent's weight has nothing to rescale:
        a zero delta keeps it at 1, its siblings at 0, and the ranking."""
        def mutate(raw):
            social = next(c for c in raw["hierarchy"]["children"] if c["name"] == "social")
            for child, weight in zip(social["children"], (1.0, 0.0, 0.0)):
                child["weight"] = weight

        config = load_config(rewrite(sample_dir, tmp_path, mutate, "published_tables.yaml"))
        table, _ = assemble_indicators(config, None)
        outcome = weight_sensitivity(config.tree, rollup(config.tree, table),
                                     "water_reuse", 0.0)
        assert [entry["weight"] for entry in outcome["perturbations"].values()] == [1.0, 1.0]
        for entry in outcome["perturbations"].values():
            assert entry["ranking"] == outcome["base_ranking"]


class TestDirectTables:
    """Each direct leaf takes the one table column that provides it, in the
    config's scenario order."""

    def test_leaf_two_tables_provide_is_rejected(self, sample_dir, tmp_path):
        """A raw table providing `landscape` listed after the pre-normalized
        one that provides it too is an error naming both files; no kind or
        place in the list wins."""
        (tmp_path / "raw_landscape.csv").write_text("scenario,landscape\n" + "".join(
            f"scenario_{k},{k}\n" for k in range(1, 6)))
        path = rewrite(sample_dir, tmp_path, lambda raw: raw["direct_tables"].append(
            {"file": "raw_landscape.csv"}), "published_tables.yaml")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.errors == [
            f"hierarchy: leaf 'landscape': more than one direct table provides "
            f"'landscape': {tmp_path / 'econ_social_indicators.csv'}, "
            f"{tmp_path / 'raw_landscape.csv'}"]

    def test_shuffled_rows_follow_config_order(self, sample_dir, tmp_path,
                                               published_table):
        path = rewrite(sample_dir, tmp_path, lambda raw: None, "published_tables.yaml")
        for name in ("environmental_indicators.csv", "econ_social_indicators.csv"):
            header, first, *rest = (tmp_path / name).read_text().splitlines()
            (tmp_path / name).write_text("\n".join([header, *rest, first]) + "\n")
        got, _ = assemble_indicators(load_config(path), None)
        assert got.scenarios == published_table.scenarios
        np.testing.assert_array_equal(got.values, published_table.values)


class TestReportRendering:
    @pytest.mark.parametrize("fmt,suffix", [("markdown", ".md"), ("csv", ".csv"),
                                            ("json", ".json")])
    def test_tables_rendered(self, published_config, tmp_path, fmt, suffix):
        out = tmp_path / fmt
        run_pipeline(published_config, out, render=fmt)
        tables = out / "tables"
        names = {p.name for p in tables.iterdir()}
        for stem in ("benefits", "weights", "scenario_areas",
                     "capacity_compliance", "land_use_runoff",
                     "normalized_indicators"):
            assert stem + suffix in names, stem

    def test_benefit_cells_round_to_published(self, published_config, tmp_path):
        run_pipeline(published_config, tmp_path, render="json")
        with open(tmp_path / "tables" / "benefits.json") as fh:
            rows = json.load(fh)
        by_name = {row["scenario"]: row for row in rows}
        for node in ("environmental", "economic", "social", "comprehensive"):
            for name, expected in zip(reference.SCENARIOS,
                                      reference.EXPECTED_BENEFITS[node]):
                # cells are rendered at 3 decimals, so a true deviation just
                # under 0.001 can surface as exactly one ULP of the print
                assert abs(float(by_name[name][node]) - expected) <= 1e-3 + 1e-9

    def test_peak_delay_rounds_to_whole_minutes(self, sports_config, tmp_path):
        run_pipeline(sports_config, tmp_path, render="csv")
        text = (tmp_path / "tables" / "environmental_indicators.csv").read_text()
        header, first = text.splitlines()[:2]
        delay_idx = header.split(",").index("peak_delay")
        assert "." not in first.split(",")[delay_idx]


class TestHeaderOnlyRender:
    def test_scenarioless_report_emits_headers(self, sports_config, tmp_path):
        config = dataclasses.replace(sports_config, scenarios=[])
        run_pipeline(config, tmp_path, render="csv")
        text = (tmp_path / "tables" / "scenario_areas.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("scenario,")
        assert len(lines) == 1


def csv_columns(data: bytes) -> dict:
    """{header cell: [cells]} of a CSV file's bytes."""
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def assert_earlier_layout_text(data: bytes, step_s, names, matrix, run):
    """The columns of run `run` in an outfall table's bytes `data` hold,
    cell for cell and blanks included, the text of the earlier layouts'
    files of the same series (`matrix` is the run's outfall matrix: flows,
    then loads in `names` order): the one-file-per-run
    `results/<run>/<storm>/outfall_<outfall>.csv`, and the `hydro_` and
    `quality_` files before it. The earlier concentration column is the one
    derived from the table's flow and load cells, which it does not hold."""
    columns = run_columns(data, run)
    assert columns == csv_columns(reference_outfall(step_s, names, matrix))
    for pollutant in names:
        columns[f"{pollutant}_conc_mg_L"] = derived_concentration(
            columns["flow_Lps"], columns[f"{pollutant}_load_kg"], step_s)
    flows, *loads = matrix
    pairs = [(reference_hydrograph(step_s, flows),
              {"t_s": "t_s", "flow_Lps": "flow_Lps"})]
    pairs += [(reference_pollutograph(step_s, flows, series),
               {"t_s": "t_s", "load_kg": f"{pollutant}_load_kg",
                "conc_mg_L": f"{pollutant}_conc_mg_L"})
              for pollutant, series in zip(names, loads)]
    for earlier, column_names in pairs:
        for old_name, old_cells in csv_columns(earlier).items():
            assert columns[column_names[old_name]] == old_cells


def write_outfall_table(writer: _Writer, step_s, names, matrices: dict,
                        storm="s") -> Path:
    """Write through `_persist_runs` the table of one outfall `o` under
    `storm` for the runs `matrices` (run label -> outfall matrix, all of
    one length) at the step `step_s` with the pollutants `names`; returns
    its path."""
    config = SimpleNamespace(storms=SimpleNamespace(step_s=step_s),
                             pollutants=[SimpleNamespace(name=n) for n in names])
    _persist_runs(writer, config, {label: [StormRun(storm, {"o": matrix}, {}, None)]
                                   for label, matrix in matrices.items()})
    return writer.out_dir / "results" / storm / "outfall_o.csv"


# zero, subnormals, extremes and values that need all 17 significant digits
SPECIAL_VALUES = [0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e16,
                  0.30000000000000004, 1 / 3, 123456.78901234567, 2.0 ** 52 + 1]
series_floats = st.one_of(st.sampled_from(SPECIAL_VALUES),
                          st.floats(0.0, 1e16, allow_nan=False, allow_infinity=False))
series_values = st.lists(series_floats, max_size=30)
STEPS = [1.0, 60, 60.0, 90.0, 300.0]


def same_length(values) -> st.SearchStrategy:
    """Series as long as `values`."""
    return st.lists(series_floats, min_size=len(values), max_size=len(values))


def outfall_matrix(flows, loads) -> np.ndarray:
    """The (1 + pollutant, step) outfall matrix of `flows` and the load
    series `loads`, each as long as `flows`."""
    return np.array([flows, *loads], dtype=float).reshape(1 + len(loads), len(flows))


@st.composite
def outfall_series(draw, max_pollutants=3) -> np.ndarray:
    """The matrix of one outfall: flows, then up to `max_pollutants` load
    series as long as the flows."""
    flows = draw(series_values)
    return outfall_matrix(flows, draw(st.lists(same_length(flows),
                                               max_size=max_pollutants)))


def pollutant_names(matrix) -> list:
    return [f"p{j}" for j in range(len(matrix) - 1)]


class TestSeriesWriterBytes:
    """The table writer gives the bytes of the row-by-row reference, and
    each run's columns the text of the earlier layouts' files."""

    @settings(max_examples=200, deadline=None)
    @given(matrix=outfall_series(), step_s=st.sampled_from(STEPS))
    @example(matrix=np.zeros((1, 0)), step_s=60.0)                    # empty
    @example(matrix=np.zeros((2, 0)), step_s=60.0)
    @example(matrix=outfall_matrix([0.0] * 5, [[1e-3] * 5]), step_s=60.0)
    @example(matrix=outfall_matrix([0.0, 1.5, 0.0, 5e-324, 0.0, 1e16],  # wet/dry
                                   [[1e-300, 0.1, 0.0, 1 / 3, 1e16, 5e-324],
                                    [0.0, 0.2, 0.0, 0.0, 1.0, 2.0]]), step_s=60)
    def test_series_bytes_equal_reference(self, tmp_path_factory, matrix, step_s):
        names = pollutant_names(matrix)
        reversed_loads = matrix.copy()
        reversed_loads[1:] = matrix[1:, ::-1]
        runs = {"baseline": matrix, "s1": reversed_loads}
        writer = _Writer(tmp_path_factory.mktemp("series"))
        data = write_outfall_table(writer, step_s, names, runs).read_bytes()
        assert data == reference_outfall_table(step_s, names, runs)
        for run, series in runs.items():
            assert_earlier_layout_text(data, step_s, names, series, run)
        # a second table through the same writer matches too
        path = write_outfall_table(writer, step_s, names, {"s1": reversed_loads}, "t")
        assert path.read_bytes() == reference_outfall_table(step_s, names,
                                                            {"s1": reversed_loads})

    def test_header_quoted_like_csv_writer(self, tmp_path):
        """A pollutant name may hold `,` and `"`; the header row quotes it
        as `csv.writer` does, so a CSV reader gets the name back."""
        names, runs = ['a,"b'], {"baseline": np.array([[1.0, 2.0], [1e-3, 2e-3]])}
        data = write_outfall_table(_Writer(tmp_path), 60.0, names, runs).read_bytes()
        assert data == reference_outfall_table(60.0, names, runs)
        assert list(csv_columns(data)) == ["t_s", "baseline/flow_Lps",
                                           'baseline/a,"b_load_kg']
        assert data.startswith(b't_s,baseline/flow_Lps,"baseline/a,""b_load_kg"\r\n')


def assert_repr_cells(xs) -> None:
    """`_repr_rows` of the floats `xs` as one series is the `repr` of each."""
    assert _repr_rows(np.array([xs], dtype=float).T) == [repr(x) for x in xs], \
        f"orjson {orjson.__version__} text differs from repr in {xs!r}"


def ulps_around(x: float) -> list:
    """`x` and the two floats on either side of it."""
    below, above = [x], [x]
    for _ in range(2):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# floats where orjson's notation or the rewrite of it into repr's changes:
# the edges of each notation, one-digit mantissas, one- to three-digit
# exponents, and the smallest and largest floats
NOTATION_EDGES = sorted({
    *(x for edge in (1e-4, 1e-5, 1e-9, 1e-10, 1e16) for x in ulps_around(edge)),
    5e-05, 1e-06, 1e+16, *(float(f"{m}e{e}") for e in range(-10, -5) for m in (1, 7.8)),
    1e-308, sys.float_info.min, 5e-324, sys.float_info.max,
})
MIXED_CELLS = [*NOTATION_EDGES, *(-x for x in NOTATION_EDGES),
               math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5]


class TestStepCells:
    """Outfall cells come from orjson's shortest digits, in `repr`'s
    notation: where orjson writes another one (nonzero |x| < 1e-4,
    |x| >= 1e16) the text is rebuilt from orjson's digits, and a
    non-finite cell is taken from `repr`. Either way each cell is the
    float's `repr`."""

    @settings(max_examples=500, deadline=None)
    @given(series=arrays(np.float64,
                         st.tuples(st.integers(1, 4), st.integers(0, 12)),
                         elements=st.one_of(
                             st.floats(allow_nan=True, allow_infinity=True,
                                       allow_subnormal=True),
                             st.floats(-1e-3, 1e-3), st.floats(-1e-8, 1e-8),
                             st.floats(1e15, 1e18), st.floats(-1e18, -1e15))))
    @example(series=np.array([MIXED_CELLS, MIXED_CELLS[::-1]]))
    @example(series=np.zeros((3, 0)))
    def test_any_matrix_gives_repr(self, series):
        assert _repr_rows(series.T) == [",".join(map(repr, column))
                                       for column in series.T.tolist()], \
            f"orjson {orjson.__version__} text differs from repr"

    @pytest.mark.parametrize("x", NOTATION_EDGES, ids=repr)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_notation_edges_give_repr(self, x, sign):
        """The float below 1e-4 is `9.999999999999999e-05` to `repr` but
        `0.00009999999999999999` to orjson; 1e-5 is `1e-05` and `0.00001`,
        1e-9 `1e-09` and `1e-9`, 1e16 `1e+16` and `1e16`."""
        assert_repr_cells([sign * x])


def accepted_scenario_name(name: str) -> bool:
    """Whether `load_config` takes `name` as a scenario name."""
    errors = _Collector()
    errors.path_name("name", name)
    return not errors.errors and name != "baseline"


def accepted_pollutant_name(name: str) -> bool:
    """Whether `load_config` takes `name` as the only pollutant's name."""
    indicator = environmental_indicators([name])[-1]
    return bool(name) and indicator not in environmental_indicators([])


# text that needs CSV quoting or holds the header separator
header_text = st.text(st.one_of(st.sampled_from(',"/\\ '),
                                st.characters(blacklist_categories=("Cs", "Cc"))),
                      min_size=1, max_size=8)


class TestOutfallHeader:
    @settings(max_examples=300, deadline=None)
    @given(scenarios=st.lists(header_text.filter(accepted_scenario_name),
                              unique=True, max_size=4),
           names=st.lists(header_text.filter(accepted_pollutant_name),
                          unique_by=str.lower, max_size=4))
    @example(scenarios=["s,1", 'q"x', "t_s"], names=['a,"b/c', "/", "T/P", "x_load_kg"])
    def test_header_round_trip(self, tmp_path_factory, scenarios, names):
        """Each header cell after `t_s` splits at its first `/` into (run,
        column): the runs in order, each with `flow_Lps` and then its loads
        in pollutant order. No two cells are equal. A run label holds no
        `/` (the scenario-name rule); a pollutant name may."""
        labels = ["baseline", *scenarios]
        matrices = dict.fromkeys(labels, np.zeros((1 + len(names), 2)))
        path = write_outfall_table(_Writer(tmp_path_factory.mktemp("header")), 60.0,
                                   names, matrices)
        with path.open(newline="") as f:
            header = next(csv.reader(f))
        assert header[0] == "t_s"
        assert [tuple(cell.split("/", 1)) for cell in header[1:]] == [
            (run, column) for run in labels
            for column in ["flow_Lps", *(f"{p}_load_kg" for p in names)]]
        assert len(set(header)) == len(header)


def series_variant(draw, values) -> list:
    """`values` again, one ulp up at one entry, with its zeros negated, or
    a fresh draw of the same length: a second series equal, nearly equal
    or unrelated."""
    kind = draw(st.sampled_from(["same", "ulp", "negative zero", "fresh"]))
    values = list(values)
    if kind == "ulp" and values:
        i = draw(st.integers(0, len(values) - 1))
        values[i] = math.nextafter(values[i], math.inf)
    elif kind == "negative zero":
        values = [-v if v == 0.0 else v for v in values]
    elif kind == "fresh":
        values = draw(same_length(values))
    return values


@st.composite
def series_pairs(draw) -> tuple:
    """Two runs' matrices at one outfall under one storm, the second
    derived from the first, the step of their table and the step of a
    second table."""
    matrix = draw(outfall_series(max_pollutants=2))
    step_s = draw(st.sampled_from(STEPS))
    second = np.array([series_variant(draw, row) for row in matrix.tolist()])
    return (matrix, second.reshape(matrix.shape), step_s,
            draw(st.sampled_from([step_s, step_s, *STEPS])))


class TestSeriesCache:
    """In one table each distinct matrix is formatted once; runs whose
    matrices differ in any byte keep their own cells, and a table at a
    step of another text keeps its own time column."""

    @settings(max_examples=200, deadline=None)
    @given(pair=series_pairs())
    @example(pair=(np.array([[1.0, 2.0], [1e-3, 2e-3]]),                # one ulp
                   np.array([[1.0, math.nextafter(2.0, math.inf)], [1e-3, 2e-3]]),
                   60.0, 60.0))
    @example(pair=(np.array([[0.0, 1.0], [0.0, 1e-3]]),                 # signed zero
                   np.array([[-0.0, 1.0], [-0.0, 1e-3]]), 60.0, 60.0))
    @example(pair=(np.array([[1.0, 2.0], [1e-3, 0.0]]),                 # 60 == 60.0
                   np.array([[1.0, 2.0], [1e-3, 0.0]]), 60, 60.0))
    @example(pair=(np.array([[1.0, 2.0], [1e-3, 0.0]]),                 # other step
                   np.array([[1.0, 2.0], [1e-3, 0.0]]), 60.0, 90.0))
    @example(pair=(np.array([[1.0, 2.0], [1e-3, 2e-3]]),                # equal loads,
                   np.array([[2.0, 1.0], [1e-3, 2e-3]]), 60.0, 60.0))   # other flows
    @example(pair=(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]),      # no pollutants
                   60.0, 60.0))
    def test_distinct_series_never_merged(self, tmp_path_factory, pair):
        first, second, step_s, other_step = pair
        names = pollutant_names(first)
        writer = _Writer(tmp_path_factory.mktemp("group"))
        runs = {"baseline": first, "s1": second, "s2": first}
        path = write_outfall_table(writer, step_s, names, runs)
        assert path.read_bytes() == reference_outfall_table(step_s, names, runs)
        path = write_outfall_table(writer, other_step, names, {"s1": second}, "t")
        assert path.read_bytes() == reference_outfall_table(other_step, names,
                                                            {"s1": second})


class TestOutfallFiles:
    """Every outfall file of the bundled run, against the run's arrays."""

    @pytest.fixture(scope="class")
    def ranked(self, sports_config, tmp_path_factory):
        out = tmp_path_factory.mktemp("ranked")
        run_pipeline(sports_config, out)
        return out

    def test_every_float_round_trips(self, ranked, runs, sports_config):
        """results/ holds one directory per storm, each with one table per
        outfall and a water-balance table. Each cell is the `repr` of the
        run's float, bit for bit, and each run's columns hold the text of
        the earlier layouts' files."""
        pollutants = [p.name for p in sports_config.pollutants]
        header = ["t_s"] + [f"{label}/{column}" for label in runs
                            for column in ["flow_Lps"] + [f"{p}_load_kg" for p in pollutants]]
        storms = [run.storm for run in runs["baseline"]]
        assert sorted(p.name for p in (ranked / "results").iterdir()) == sorted(storms)
        checked = 0
        for storm_runs in zip(*runs.values()):
            base = ranked / "results" / storm_runs[0].storm
            assert sorted(p.name for p in base.iterdir()) == sorted(
                [f"outfall_{o}.csv" for o in sports_config.outfalls]
                + ["water_balance.csv"])
            for outfall in sports_config.outfalls:
                data = (base / f"outfall_{outfall}.csv").read_bytes()
                assert list(csv_columns(data)) == header
                for label, run in zip(runs, storm_runs):
                    matrix = run.outfalls[outfall]
                    assert matrix.shape[0] == 1 + len(pollutants)
                    columns = run_columns(data, label)
                    for name, series in zip(header[1:], matrix):
                        parsed = np.array([float(c) for c in columns[name.partition("/")[2]]])
                        assert parsed.tobytes() == series.tobytes(), name
                    assert_earlier_layout_text(data, sports_config.storms.step_s,
                                               pollutants, matrix, label)
                    checked += 1
        assert checked == (len(runs) * len(sports_config.storms.depths_mm)
                           * len(sports_config.outfalls))

    def test_water_balance_rows(self, ranked, runs):
        """One row per run and subcatchment, runs in order, the run label in
        front, then the subcatchment, the volumes and `closure_error` last."""
        for storm_runs in zip(*runs.values()):
            with open(ranked / "results" / storm_runs[0].storm / "water_balance.csv",
                      newline="") as f:
                header, *rows = csv.reader(f)
            assert header == ["run", "subcatchment", "rainfall_m3", "runoff_m3",
                              "infiltration_m3", "surface_storage_m3", "lid_captured_m3",
                              "closure_error"]
            assert [row[:2] for row in rows] == [
                [label, sc_id] for label, run in zip(runs, storm_runs)
                for sc_id in sorted(run.balances)]
            assert [float(row[-1]) for row in rows] == [
                b.closure_error() for run in storm_runs
                for _, b in sorted(run.balances.items())]

    def test_rows_as_wide_as_header(self, ranked):
        """Every row of every results/ table has a cell, none blank, in each
        column of its header, and no file of the earlier `hydro_` and
        `quality_` layout is written anywhere."""
        paths = list((ranked / "results").glob("*/*.csv"))
        assert len(paths) == 3 * 7
        for path in paths:
            with path.open(newline="") as f:
                header, *rows = csv.reader(f)
            assert {len(row) for row in rows} == {len(header)}, path
            assert not any("" in row for row in rows), path
        assert not [p for p in ranked.rglob("*") if p.name.startswith(("hydro_", "quality_"))]


def assert_same_run(a, b):
    """Two StormRuns with bit-identical outfall matrices and balances."""
    assert list(a.outfalls) == list(b.outfalls)
    for outfall, matrix in a.outfalls.items():
        assert matrix.shape == b.outfalls[outfall].shape
        assert matrix.tobytes() == b.outfalls[outfall].tobytes()
    assert a.balances == b.balances
    assert a.summary == b.summary


def test_one_routing_call_per_run(sports_config, monkeypatch):
    """A run routes the flows and loads of every node in one `route_series`
    call, one (1 + pollutant, step) matrix per node, and never calls
    `route`."""
    calls = []
    route_series = lidscore.pipeline.route_series

    def counting(inflows, *args):
        calls.append({node: matrix.shape for node, matrix in inflows.items()})
        return route_series(inflows, *args)

    def route(*args):
        raise AssertionError("route called")

    monkeypatch.setattr(lidscore.pipeline, "route_series", counting)
    monkeypatch.setattr(lidscore.pipeline, "route", route)
    runs = simulate_all(sports_config, build_storms(sports_config))
    assert len(calls) == sum(map(len, runs.values())) == 18
    assert len(sports_config.pollutants) == 4
    assert all(len(shape) == 2 and shape[0] == 5
               for call in calls for shape in call.values())


def test_route_alias_is_route_series():
    """`pipeline.route` stays the name the benchmark's `hydrology.route`
    span looks up, and is `route_series` itself."""
    assert lidscore.pipeline.route is lidscore.pipeline.route_series


class TestBaselineReuse:
    """Placement-free subcatchments take the baseline run of their storm."""

    def test_placement_free_subcatchments_simulated_once(self, sports_config,
                                                         monkeypatch):
        calls = []
        simulate = lidscore.pipeline.simulate_subcatchment

        def counting(*args, **kwargs):
            calls.append(args[0].id)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(lidscore.pipeline, "simulate_subcatchment", counting)
        simulate_all(sports_config, build_storms(sports_config))
        # 6 subcatchments x 3 storms x (baseline + 5 scenarios) = 108 runs,
        # less D, which no scenario places anything in: 5 scenarios x 3 storms
        assert len(calls) == 93
        assert calls.count("D") == 3

    def test_runs_equal_unshared_runs(self, sports_config, runs):
        storms = build_storms(sports_config)
        scenarios = {sc.name: sc for sc in sports_config.scenarios}
        for label, storm_runs in runs.items():
            for run, (storm_name, storm) in zip(storm_runs, storms.items()):
                alone = simulate_run(sports_config, storm, label, storm_name,
                                     scenarios.get(label))
                assert_same_run(run, alone)

    def test_empty_scenario_reproduces_baseline(self, sports_config):
        empty = Scenario("empty", ())
        config = dataclasses.replace(sports_config, scenarios=[empty])
        storms = build_storms(config)
        shared = simulate_all(config, storms)
        for base, run, (storm_name, storm) in zip(shared["baseline"], shared["empty"],
                                                  storms.items()):
            assert_same_run(run, base)
            assert_same_run(
                simulate_run(config, storm, "empty", storm_name, empty), base)


def bounded(low, high) -> st.SearchStrategy:
    return st.floats(low, high, allow_nan=False)


@st.composite
def generated_projects(draw, base) -> tuple:
    """(config, storms): `base` with 1 to 5 generated subcatchments, each
    draining to a junction or an outfall, junctions that drain by a lagged
    link or are outfalls themselves, a subset of its pollutants, and two
    scenarios: `placed`, which puts 0 to 2 facilities of any catalog kind
    in each subcatchment (together up to all of its area and treating up
    to all of its runoff), and `empty`, which places none; plus one or two
    storms of 1 to 30 steps and a dry tail."""
    step_s = draw(st.sampled_from([60.0, 120.0, 300.0]))
    nodes = ["J0", "J1", "O0", "O1"]
    links = [Link(f"l{i}", node, draw(st.sampled_from(nodes[i + 1:])),
                  lag_s=draw(bounded(0.0, 900.0)))
             for i, node in enumerate(nodes[:2]) if draw(st.booleans())]
    subcatchments = {}
    for i in range(draw(st.integers(1, 5))):
        f0 = draw(bounded(0.0, 150.0))
        sc = Subcatchment(
            id=f"S{i}", area_ha=draw(bounded(0.01, 5.0)),
            impervious_fraction=draw(bounded(0.0, 1.0)),
            width_m=draw(bounded(5.0, 500.0)), slope=draw(bounded(0.001, 0.1)),
            horton=HortonParams(f0, f0 * draw(bounded(0.0, 1.0)),
                                draw(bounded(0.5, 10.0))),
            outlet=draw(st.sampled_from(nodes)),
            depression_storage_mm={"impervious": draw(bounded(0.0, 3.0)),
                                   "pervious": draw(bounded(0.0, 6.0))},
            manning_n={"impervious": draw(bounded(0.01, 0.03)),
                       "pervious": draw(bounded(0.05, 0.5))},
        )
        subcatchments[sc.id] = sc
    placements = []
    for sc in subcatchments.values():
        count = draw(st.integers(0, 2))
        placements += [
            LidPlacement(sc.id, draw(st.sampled_from(list(base.catalog))),
                         sc.area_ha * draw(bounded(1e-3, 1.0)) / count,
                         draw(bounded(0.0, 1.0)) / count)
            for _ in range(count)]
    keep = draw(st.lists(st.booleans(), min_size=len(base.pollutants),
                         max_size=len(base.pollutants)))
    config = dataclasses.replace(
        base, subcatchments=subcatchments, links=links,
        outfalls=[n for n in nodes if n not in {link.from_node for link in links}],
        pollutants=[p for p, kept in zip(base.pollutants, keep) if kept],
        antecedent_dry_days=draw(bounded(0.0, 30.0)),
        scenarios=[Scenario("placed", tuple(placements)), Scenario("empty", ())],
        storms=dataclasses.replace(base.storms, step_s=step_s,
                                   tail_min=draw(st.sampled_from([0.0, 30.0, 60.0]))),
    )
    storms = {f"storm{j}": Hyetograph(step_s, draw(st.lists(bounded(0.0, 200.0),
                                                            min_size=1, max_size=30)), 0.0)
              for j in range(draw(st.integers(1, 2)))}
    return config, storms


def simulate_or_reject(config, storms) -> dict:
    """`simulate_all`, or a rejected example when a surface needs more
    substeps than the runoff kernel allows. A surface whose area is a
    sliver of its subcatchment's width (a tiny impervious fraction, or LID
    covering nearly all of the host) is that stiff, and the run stops with
    that named error; neither property below is about it."""
    try:
        return simulate_all(config, storms)
    except ValidationError as exc:
        if "substeps, more than" not in str(exc):
            raise
        reject()


class TestPipelineInvariants:
    """Properties of `simulate_all` on generated projects."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_empty_scenario_reproduces_baseline(self, sports_config, data):
        """Through the baseline reuse of `simulate_all` and through
        `simulate_run(reuse=None)` alike, a scenario that places nothing
        gives the baseline's outfall matrices byte for byte."""
        config, storms = data.draw(generated_projects(sports_config))
        runs = simulate_or_reject(config, storms)
        empty = config.scenarios[-1]
        for base, shared, (storm_name, storm) in zip(runs["baseline"], runs["empty"],
                                                      storms.items()):
            assert_same_run(shared, base)
            assert_same_run(simulate_run(config, storm, "empty", storm_name, empty),
                            base)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_water_balances_close(self, sports_config, data):
        """Every subcatchment's water balance closes within 1e-12 of its
        rainfall, far inside the 0.5% `MASS_BALANCE_LIMIT` a run must meet."""
        config, storms = data.draw(generated_projects(sports_config))
        for label, storm_runs in simulate_or_reject(config, storms).items():
            for run in storm_runs:
                for sc_id, b in run.balances.items():
                    assert b.closure_error() <= 1e-12, (label, run.storm, sc_id)
