"""End-to-end pipeline tests on the bundled projects."""

import csv
import dataclasses
import filecmp
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import reference
import lidscore.pipeline
from lidscore.config import load_config
from lidscore.errors import ConfigError, ValidationError
from lidscore.evaluator import StormSummary
from lidscore.hydrology import Hydrograph
from lidscore.lid import LidKind, LidPlacement, Scenario
from lidscore.pipeline import (StormRun, _persist_hydrograph,
                               _persist_pollutograph, _persist_runs, _Writer,
                               assemble_indicators, build_storms,
                               compute_sizing, run_pipeline, simulate_all,
                               simulate_run, weight_sensitivity)
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
        assert sorted(run.outfall_hydrographs) == sorted(sports_config.outfalls)


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
        assert (tmp_path / "base_only" / "results" / "baseline").exists()
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


@pytest.fixture(scope="module")
def published_weighted(published_config):
    """(weighted tree, normalized leaf table) of the published project."""
    table, _ = assemble_indicators(published_config, None)
    return published_config.tree, table


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
                                               published_weighted):
        _, table = published_weighted
        path = rewrite(sample_dir, tmp_path, lambda raw: None, "published_tables.yaml")
        for name in ("environmental_indicators.csv", "econ_social_indicators.csv"):
            header, first, *rest = (tmp_path / name).read_text().splitlines()
            (tmp_path / name).write_text("\n".join([header, *rest, first]) + "\n")
        got, _ = assemble_indicators(load_config(path), None)
        assert got.scenarios == table.scenarios
        np.testing.assert_array_equal(got.values, table.values)


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


def reference_csv(header, rows) -> bytes:
    """A series file built row by row: `csv.writer` over `repr` strings."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def reference_hydrograph(hydro) -> bytes:
    return reference_csv(["t_s", "flow_Lps"], [
        [repr(k * hydro.step_s), repr(float(q))]
        for k, q in enumerate(hydro.flows_lps)
    ])


def reference_pollutograph(hydro, loads_kg) -> bytes:
    rows = []
    for k, load in enumerate(loads_kg):
        flow = hydro.flows_lps[k] if k < hydro.flows_lps.size else 0.0
        conc = repr(float(load) * 1e6 / (float(flow) * hydro.step_s)) if flow > 0 else ""
        rows.append([repr(k * hydro.step_s), repr(float(load)), conc])
    return reference_csv(["t_s", "load_kg", "conc_mg_L"], rows)


# zero, subnormals, extremes and values that need all 17 significant digits
SPECIAL_VALUES = [0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e16,
                  0.30000000000000004, 1 / 3, 123456.78901234567, 2.0 ** 52 + 1]
series_values = st.lists(
    st.one_of(st.sampled_from(SPECIAL_VALUES),
              st.floats(0.0, 1e16, allow_nan=False, allow_infinity=False)),
    max_size=30,
)
STEPS = [1.0, 60, 60.0, 90.0, 300.0]


class TestSeriesWriterBytes:
    """The column-block writer gives the bytes of the row-by-row reference."""

    @settings(max_examples=200, deadline=None)
    @given(flows=series_values, loads=series_values,
           step_s=st.sampled_from(STEPS))
    @example(flows=[], loads=[], step_s=60.0)                         # empty
    @example(flows=[0.0] * 5, loads=[1e-3] * 5, step_s=60.0)         # no flow
    @example(flows=[2.0, 3.0], loads=[1e-3, 2e-3, 4e-3, 0.0], step_s=60.0)
    @example(flows=[0.0, 1.5, 0.0, 5e-324, 0.0, 1e16],               # wet/dry
             loads=[1e-300, 0.1, 0.0, 1 / 3, 1e16, 5e-324], step_s=60)
    def test_series_bytes_equal_reference(self, tmp_path_factory, flows, loads,
                                          step_s):
        hydro = Hydrograph(site="o", step_s=step_s, flows_lps=np.array(flows))
        loads_kg = np.array(loads, dtype=float)
        writer = _Writer(tmp_path_factory.mktemp("series"))
        path = _persist_hydrograph(writer, hydro, "h.csv", cache={})
        assert path.read_bytes() == reference_hydrograph(hydro)
        path = _persist_pollutograph(writer, hydro, loads_kg, "q.csv", cache={})
        assert path.read_bytes() == reference_pollutograph(hydro, loads_kg)
        # the time column is cached per writer: a second file of the same
        # length reuses it and still matches
        path = _persist_pollutograph(writer, hydro, loads_kg[::-1], "q2.csv",
                                     cache={})
        assert path.read_bytes() == reference_pollutograph(hydro, loads_kg[::-1])


def series_variant(draw, values) -> list:
    """`values` again, one ulp up at one entry, with its zeros negated, or
    a fresh draw: a second series equal, nearly equal or unrelated."""
    kind = draw(st.sampled_from(["same", "ulp", "negative zero", "fresh"]))
    values = list(values)
    if kind == "ulp" and values:
        i = draw(st.integers(0, len(values) - 1))
        values[i] = math.nextafter(values[i], math.inf)
    elif kind == "negative zero":
        values = [-v if v == 0.0 else v for v in values]
    elif kind == "fresh":
        values = draw(series_values)
    return values


@st.composite
def series_pairs(draw) -> list:
    """Two runs' series at one outfall under one storm, each (flows,
    [loads per pollutant], step_s); the second is derived from the first."""
    flows = draw(series_values)
    loads = draw(st.lists(series_values, max_size=2))
    step_s = draw(st.sampled_from(STEPS))
    second = (series_variant(draw, flows),
              [series_variant(draw, series) for series in loads],
              draw(st.sampled_from([step_s, step_s, *STEPS])))
    return [(flows, loads, step_s), second]


class TestSeriesCache:
    """`_persist_runs` formats the series of one (storm, outfall) once per
    distinct bytes; series that differ in any byte stay separate files."""

    @settings(max_examples=200, deadline=None)
    @given(pair=series_pairs())
    @example(pair=[([1.0, 2.0], [[1e-3, 2e-3]], 60.0),                # one ulp
                   ([1.0, math.nextafter(2.0, math.inf)], [[1e-3, 2e-3]], 60.0)])
    @example(pair=[([0.0, 1.0], [[0.0, 1e-3]], 60.0),                 # signed zero
                   ([-0.0, 1.0], [[-0.0, 1e-3]], 60.0)])
    @example(pair=[([1.0, 2.0], [[1e-3]], 60),                        # 60 == 60.0
                   ([1.0, 2.0], [[1e-3]], 60.0)])
    @example(pair=[([1.0, 2.0], [[1e-3]], 60.0),                      # other step
                   ([1.0, 2.0], [[1e-3]], 90.0)])
    @example(pair=[([1.0, 2.0], [[1e-3, 2e-3]], 60.0),                # equal loads,
                   ([2.0, 1.0], [[1e-3, 2e-3]], 60.0)])               # other flows
    @example(pair=[([1.0, 2.0], [], 60.0), ([1.0, 2.0], [], 60.0)])   # no pollutants
    def test_distinct_series_never_merged(self, tmp_path_factory, pair):
        runs = {}
        for i, (flows, loads, step_s) in enumerate(pair):
            hydro = Hydrograph(site="o", step_s=step_s,
                               flows_lps=np.array(flows, dtype=float))
            by_pollutant = {f"p{j}": np.array(series, dtype=float)
                            for j, series in enumerate(loads)}
            runs[f"run{i}"] = [StormRun("s", {"o": hydro},
                                        {"o": by_pollutant} if loads else {},
                                        {}, None)]
        out = tmp_path_factory.mktemp("group")
        _persist_runs(_Writer(out), runs)
        for label, [run] in runs.items():
            hydro = run.outfall_hydrographs["o"]
            base = out / "results" / label / "s"
            assert (base / "hydro_o.csv").read_bytes() == reference_hydrograph(hydro)
            for pollutant, series in run.outfall_load_series.get("o", {}).items():
                assert ((base / f"quality_o_{pollutant}.csv").read_bytes()
                        == reference_pollutograph(hydro, series))


def assert_same_run(a, b):
    """Two StormRuns with bit-identical series, loads and balances."""
    assert list(a.outfall_hydrographs) == list(b.outfall_hydrographs)
    for outfall, hydro in a.outfall_hydrographs.items():
        assert hydro.flows_lps.tobytes() == b.outfall_hydrographs[outfall].flows_lps.tobytes()
    assert list(a.outfall_load_series) == list(b.outfall_load_series)
    for outfall, by_pollutant in a.outfall_load_series.items():
        assert list(by_pollutant) == list(b.outfall_load_series[outfall])
        for pollutant, series in by_pollutant.items():
            assert series.tobytes() == b.outfall_load_series[outfall][pollutant].tobytes()
    assert a.balances == b.balances
    assert a.summary == b.summary


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
