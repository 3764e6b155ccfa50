"""Tests for the command-line surface: subcommands, outputs, exit codes."""

import builtins
import csv
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
import yaml
from click.testing import CliRunner

from conftest import INPUT_FILES, edit_project
from lidscore import config, kernels, pipeline
from lidscore.cli import main
from reference import (derived_concentration, digests, read_file, read_tree,
                       reference_pollutograph)


@pytest.fixture()
def runner():
    return CliRunner()


class TestValidate:
    def test_valid_project(self, runner, sample_dir):
        result = runner.invoke(main, ["validate", "--config",
                                      str(sample_dir / "sports_center.yaml")])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_subnormal_surface_ranks(self, runner, sample_dir, tmp_path):
        """Subcatchment D shrunk to 1 m2 with impervious fraction 4e-323
        ranks: its impervious surface is too small for area * manning n to
        be a normal float. Earlier versions divided by zero."""
        path = edit_project(tmp_path, {("catchment", "subcatchments", 3): {
            "id": "D", "area_ha": 1e-4, "impervious_fraction": 4e-323, "width_m": 390,
            "slope": 0.011, "outlet": "JD"}})
        result = runner.invoke(main, ["rank", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exception is None
        assert result.exit_code == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_subnormal_placement_ranks(self, runner, sample_dir, tmp_path):
        """A placement of 5e-324 ha is too small for its run-on to be a
        finite depth: it passes its inflow on and the project ranks, with
        nothing on stderr. Earlier versions printed NumPy's overflow warning
        and failed with a `nan` water-balance closure."""
        path = edit_project(tmp_path, {("scenarios", 1, "placements", 1, "area_ha"): 5e-324})
        result = runner.invoke(main, ["rank", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exception is None
        assert result.exit_code == 0
        assert result.stderr == ""
        assert (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("name", ["T/P", "a\\b"])
    def test_pollutant_name_need_not_be_a_file_name(self, runner, sample_dir,
                                                    tmp_path, name):
        """A pollutant name only heads result columns, which `csv.writer`
        quotes, so a name with a path separator validates and ranks, and its
        header cell reads back unchanged."""
        indicator = f"{name.lower()}_reduction"
        path = edit_project(tmp_path, {("pollutants", 3, "name"): name, (
            "hierarchy", "children", 0, "children", 1, "children", 3, "name"): indicator})
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        result = runner.invoke(main, ["rank", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        tree = read_tree(out)
        tables = [file for path, file in tree.items() if "/outfall_" in path]
        assert len(tables) == 3 * 6
        runs = ["baseline"] + [f"scenario_{i}" for i in range(1, 6)]
        for table in tables:
            assert table.parsed[0] == ["t_s"] + [
                f"{run}/{column}" for run in runs
                for column in ["flow_Lps", "TSS_load_kg", "COD_load_kg",
                               "TN_load_kg", f"{name}_load_kg"]]
        assert indicator in tree["indicators/normalized.csv"].parsed[0]

    def test_pipe_in_markdown_cell_escaped(self, runner, sample_dir, tmp_path):
        """A pollutant named `T|P` heads the markdown column `t\\|p_reduction`:
        every row of the rendered table has as many cells as separators."""
        path = edit_project(tmp_path, {("pollutants", 3, "name"): "T|P", (
            "hierarchy", "children", 0, "children", 1, "children", 3, "name"): "t|p_reduction"})
        out = tmp_path / "out"
        result = runner.invoke(main, ["report", "--config", str(path), "--out",
                                      str(out), "--format", "markdown"])
        assert result.exit_code == 0, result.output
        header, separator, *rows = (
            out / "tables" / "environmental_indicators.md").read_text().splitlines()
        assert header.endswith(" | t\\|p_reduction |")
        columns = separator.count("---")
        for line in [header, *rows]:
            assert len(re.split(r"(?<!\\)\|", line)) == columns + 2, line


class TestStorm:
    def test_writes_suite(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "storm", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        for name in ("storm_16mm.csv", "storm_26mm.csv", "storm_36mm.csv"):
            assert (tmp_path / "storms" / name).exists()


class TestAtrcr:
    def test_curve_and_inversion(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "atrcr", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "26.0" in result.output
        assert (tmp_path / "atrcr_curve.csv").exists()


class TestWeights:
    def test_writes_weights(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "weights", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert (tmp_path / "weights.json").exists()


class TestSimulateEvaluateRank:
    def test_simulate_prints_balances(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "baseline / 16mm" in result.output
        assert (tmp_path / "results" / "26mm" / "water_balance.csv").exists()

    def test_simulate_writes_rank_results(self, runner, sample_dir, tmp_path):
        """`simulate` and `rank` write the same results/ tree, byte for byte."""
        trees = []
        for command in ("simulate", "rank"):
            out = tmp_path / command
            result = runner.invoke(main, [
                command, "--config", str(sample_dir / "sports_center.yaml"),
                "--out", str(out)])
            assert result.exit_code == 0, result.output
            trees.append({path: file.sha256 for path, file in read_tree(out).items()
                          if path.startswith("results/")})
        assert len(trees[0]) == 3 * 7
        assert trees[0] == trees[1]

    def test_evaluate_writes_indicators(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "evaluate", "--config", str(sample_dir / "published_tables.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "indicators" / "normalized.csv").exists()

    def test_evaluate_without_scenarios_simulates_nothing(self, runner, sample_dir,
                                                         tmp_path):
        """`evaluate` has nothing to evaluate without scenarios: it fails in
        indicator assembly before any simulation."""
        path = edit_project(tmp_path, {("scenarios",): []})
        with mock.patch.object(pipeline, "simulate_all",
                               side_effect=AssertionError("simulated")):
            result = runner.invoke(main, ["evaluate", "--config", str(path),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert ("error: [stage: indicator assembly] indicator table needs at "
                "least one scenario\n") in result.output
        assert not (tmp_path / "out").exists()

    def test_rank_prints_published_order(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "rank", "--config", str(sample_dir / "published_tables.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert ("scenario_4 > scenario_1 > scenario_2 > scenario_3 > "
                "scenario_5") in result.output
        assert (tmp_path / "ranking.csv").exists()

    def test_rank_with_sensitivity(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "rank", "--config", str(sample_dir / "published_tables.yaml"),
            "--out", str(tmp_path), "--sensitivity", "environmental",
            "--delta", "0.05"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "sensitivity.json").exists()

    def test_rank_sensitivity_around_a_whole_weight(self, runner, sample_dir, tmp_path):
        """`water_reuse` holding all of `social`'s weight leaves its siblings
        nothing to rescale; a zero delta still ranks and writes the
        sensitivity report."""
        social = ("hierarchy", "children", 2, "children")
        path = edit_project(tmp_path, {(*social, 0, "weight"): 1.0, (*social, 1, "weight"): 0.0,
                                       (*social, 2, "weight"): 0.0}, "published_tables.yaml")
        result = runner.invoke(main, ["rank", "--config", str(path), "--out",
                                      str(tmp_path / "out"), "--sensitivity",
                                      "water_reuse", "--delta", "0"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "sensitivity.json").exists()

    def test_tied_ranking_is_reported(self, runner, sample_dir, tmp_path):
        """Two scenarios with equal indicator rows tie on the comprehensive
        score; rank and report say so, and manifest.json does not change
        shape."""
        path = edit_project(tmp_path, name="published_tables.yaml")
        result = runner.invoke(main, ["rank", "--config", str(path),
                                      "--out", str(tmp_path / "untied")])
        assert result.exit_code == 0, result.output
        assert "tied" not in result.output

        raw = yaml.safe_load(path.read_text())
        for entry in raw["direct_tables"]:
            # a copied row would break the column sums of a normalized table
            entry["normalized"] = False
            table = tmp_path / entry["file"]
            header, *lines = table.read_text().splitlines()
            rows = dict(line.split(",", 1) for line in lines)
            rows["scenario_2"] = rows["scenario_1"]
            table.write_text("\n".join([header] + [f"{k},{v}" for k, v in rows.items()])
                             + "\n")
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        for command in ("rank", "report"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert "warning: ranking has tied comprehensive scores" in result.output
            assert "scenario_1 > scenario_2" in result.output
            tree = read_tree(out)
            assert "tied" not in tree["manifest.json"].parsed
            assert tree["benefit_report.json"].parsed["tied"]

    def test_out_under_a_regular_file_exits_3(self, runner, sample_dir, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        result = runner.invoke(main, [
            "rank", "--config", str(sample_dir / "published_tables.yaml"),
            "--out", str(blocker / "out")])
        assert result.exit_code == 3
        assert f"error: cannot write {blocker / 'out'}" in result.output

    def test_subnormal_storm_depth_closes(self, runner, sample_dir, tmp_path):
        """A storm of subnormal depth loses no water: its closure is not
        float rounding measured against a rain volume with few bits."""
        path = edit_project(tmp_path, {("storms", "depths_mm"): [1e-321]})
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output

    def test_substep_limit_exits_3(self, runner, sample_dir, tmp_path,
                                   monkeypatch):
        """A step past the runoff kernel's substep limit (reached here by
        shrinking the kernel's tolerance to an absolute 1e-7 mm) stops the
        run with its location."""
        monkeypatch.setattr(kernels, "TOL_REL", 0.0)
        monkeypatch.setattr(kernels, "TOL_ABS_MM", 1e-7)
        result = runner.invoke(main, [
            "simulate", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "error: [stage: simulation] subcatchment " in result.output
        assert "surface: step " in result.output
        assert "more than 3600" in result.output

    @pytest.mark.parametrize("command,options,tol_abs_mm,message", [
        ("rank", [], 1e-7, "[stage: simulation] subcatchment "),
        ("simulate", [], 1e-7, "[stage: simulation] subcatchment "),
        ("rank", ["--sensitivity", "nosuch"], None,
         "[stage: sensitivity] no node named 'nosuch'"),
        ("rank", ["--sensitivity", "comprehensive"], None,
         "[stage: sensitivity] perturbed weight 1.0500 for 'comprehensive' "
         "outside [0, 1]"),
        ("rank", ["--sensitivity", "environmental", "--delta", "0.9"], None,
         "[stage: sensitivity] perturbed weight 1.5080 for 'environmental' "
         "outside [0, 1]"),
    ])
    def test_failing_stage_is_named(self, runner, sample_dir, tmp_path,
                                    monkeypatch, command, options, tol_abs_mm,
                                    message):
        """A runtime failure inside `rank` or `simulate` names the stage it
        stopped in and leaves `--out` unwritten: a step past the substep
        limit (the kernel's tolerance shrunk to an absolute `tol_abs_mm`)
        in simulation; an unknown node, the root or a weight pushed past 1
        in sensitivity. A sensitivity request is checked before the first
        stage, so those runs simulate nothing."""
        if tol_abs_mm is not None:
            monkeypatch.setattr(kernels, "TOL_REL", 0.0)
            monkeypatch.setattr(kernels, "TOL_ABS_MM", tol_abs_mm)
        with mock.patch.object(pipeline, "simulate_all",
                               wraps=pipeline.simulate_all) as simulate_all:
            result = runner.invoke(main, [
                command, "--config", str(sample_dir / "sports_center.yaml"),
                "--out", str(tmp_path / "out"), *options])
        assert result.exit_code == 3
        assert f"error: {message}" in result.output
        assert not (tmp_path / "out").exists()
        assert simulate_all.called == (tol_abs_mm is not None)


class TestWarnings:
    def test_other_warnings_pass_through(self, runner, sample_dir, monkeypatch):
        """Only UserWarning is printed so: any other warning keeps its
        filters and display, so `error::RuntimeWarning` still raises."""
        load_config = config.load_config

        def warning_load(path):
            warnings.warn("numeric trouble", RuntimeWarning)
            return load_config(path)

        monkeypatch.setattr("lidscore.cli.load_config", warning_load)
        args = ["validate", "--config", str(sample_dir / "sports_center.yaml")]
        result = runner.invoke(main, args)
        assert isinstance(result.exception, RuntimeWarning)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert [str(w.message) for w in caught] == ["numeric trouble"]
        assert result.stderr == ""


class TestReport:
    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_report_formats(self, runner, sample_dir, tmp_path, fmt):
        result = runner.invoke(main, [
            "report", "--config", str(sample_dir / "published_tables.yaml"),
            "--out", str(tmp_path / fmt), "--format", fmt])
        assert result.exit_code == 0, result.output
        assert (tmp_path / fmt / "tables").is_dir()
        assert "ranking:" in result.output


class TestPublishedRollupBytes:
    """The published-tables project runs no simulation and has no AHP
    matrix, so its roll-up files depend only on the loader, the
    normalization and the weighted sums."""

    DIGESTS = {
        "benefit_report.json":
            "8e3708f718d0db61f017a871dda2864de521115cc6c09aa47ca5214eddb4305a",
        "benefits.csv":
            "98ffb7adcd87d58d8d61b769b980f4bebf731d7950a1acd39442e418f0568684",
        "indicators/normalized.csv":
            "4a743a8331d95a8e709b8228746adac5dea5db217cc7bfc53adca834460c075d",
        "ranking.csv":
            "9e0cf5359b3739728d90591848f57dffa6c0a35cfedfb78f4fa0e7a8569d2ce7",
        "weights.json":
            "3955604eb7e43c429b61e34fad76e2dc0d3df98270780fed3e4f10e00abb64a7",
    }

    def test_rank_writes_pinned_bytes(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "rank", "--config", str(sample_dir / "published_tables.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        tree = read_tree(tmp_path)
        assert {name: tree[name].sha256 for name in self.DIGESTS} == self.DIGESTS
        # the pre-normalized direct columns are used verbatim
        with open(sample_dir / "econ_social_indicators.csv", newline="") as f:
            direct = {row.pop("scenario"): row for row in csv.DictReader(f)}
        header, *rows = tree["indicators/normalized.csv"].parsed
        used = [dict(zip(header, row)) for row in rows]
        assert {row["scenario"] for row in used} == set(direct)
        for row in used:
            for indicator, cell in direct[row["scenario"]].items():
                assert float(row[indicator]) == float(cell), (row["scenario"], indicator)


@pytest.fixture(scope="module")
def sports_rank(sample_dir, tmp_path_factory):
    """Output directory of `rank --sensitivity` on the bundled project, the
    number of times it ran simulate_all and the widths of the blocks of
    outfall table cells it formatted."""
    out = tmp_path_factory.mktemp("rank")
    with mock.patch.object(pipeline, "simulate_all",
                           wraps=pipeline.simulate_all) as simulate_all, \
            mock.patch.object(pipeline, "_repr_rows",
                              wraps=pipeline._repr_rows) as repr_rows:
        result = CliRunner().invoke(main, [
            "rank", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(out), "--sensitivity", "environmental",
            "--delta", "0.05"])
    assert result.exit_code == 0, result.output
    return out, simulate_all.call_count, [call.args[0].shape[1]
                                          for call in repr_rows.call_args_list]


@pytest.fixture(scope="module")
def wide_output_report(sample_dir, tmp_path_factory):
    """Output directory of `report --format markdown` on the benchmark's
    `wide_output` project generated at seed 1 (by `perfbench/projects.py`),
    where about a quarter of the outfall cells lie outside
    1e-4 <= |x| < 1e16."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_projects", sample_dir.parent / "perfbench" / "projects.py")
    projects = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(projects)
    work = tmp_path_factory.mktemp("wide_output")
    path = projects.generate(projects.WIDE_OUTPUT, 1, work / "project", "wide_output")
    result = CliRunner().invoke(main, ["report", "--config", str(path), "--out",
                                       str(work / "out"), "--format", "markdown"])
    assert result.exit_code == 0, result.output
    return work / "out"


class TestSingleWriter:
    def test_rank_sensitivity_simulates_once(self, sports_rank):
        assert sports_rank[1] == 1

    def test_rank_manifest_lists_every_file(self, sports_rank):
        out = sports_rank[0]
        manifest = read_tree(out)["manifest.json"].parsed
        assert "sensitivity.json" in manifest["files"]
        assert manifest["files"] == digests(out)

    def test_each_series_formatted_once(self, sports_rank, sports_config):
        """A run's columns of an outfall table repeat another run's (a
        scenario outfall fed only by placement-free subcatchments repeats
        the baseline's), but each distinct (storm, outfall, cells) is
        formatted once, as a block of 1 + 4 pollutant columns. The time
        column, one column wide, is formatted once per storm."""
        out, _, widths = sports_rank
        blocks = []
        for path, table in read_tree(out).items():
            for columns in (table.runs or {}).values():
                blocks.append((path, tuple(tuple(cells) for name, cells in columns.items()
                                           if name != "t_s")))
        assert len(blocks) == 3 * 6 * 6
        assert len(blocks) > len(set(blocks))   # there are repeats
        assert widths.count(5) == len(set(blocks))
        assert widths.count(1) == 3
        assert len(widths) == len(set(blocks)) + 3

    @pytest.mark.parametrize("output", ["sports_rank", "wide_output_report"])
    def test_every_float_cell_is_repr(self, request, output):
        """Every float cell of every result CSV, whichever file and writer
        it comes from, is the float's `repr`. Both outputs hold cells that
        orjson writes in another notation than `repr` (a nonzero |x| < 1e-4
        or |x| >= 1e16), which the outfall writer rebuilds."""
        out = request.getfixturevalue(output)
        out = out[0] if output == "sports_rank" else out
        differ, rebuilt = [], 0
        for path in sorted(out.rglob("*.csv")):
            with path.open(newline="") as f:
                for cell in (cell for row in csv.reader(f) for cell in row):
                    try:
                        x = float(cell)
                    except ValueError:
                        continue
                    if cell.lstrip("-").isdigit():   # an integer, e.g. a rank
                        continue
                    rebuilt += x != 0 and not 1e-4 <= abs(x) < 1e16
                    if cell != repr(x):
                        differ.append((path, cell))
        assert differ == []
        assert rebuilt

    def test_one_file_per_outfall(self, runner, sample_dir, tmp_path):
        """Outfall `OUT` with pollutant `A_TSS` and outfall `OUT_A` with
        pollutant `TSS` once gave two series the one path
        `quality_OUT_A_TSS.csv`, and the second overwrote the first. Each
        outfall now has its own file, holding every pollutant."""
        outfalls = ["OUT_A", "OUT", "OUT_C", "OUT_D", "OUT_E", "OUT_F"]
        path = edit_project(tmp_path, {
            ("catchment", "outfalls"): outfalls, ("catchment", "links", 1, "to"): "OUT",
            ("pollutants", 1, "name"): "A_TSS",
            ("hierarchy", "children", 0, "children", 1, "children", 1, "name"): "a_tss_reduction"})
        out = tmp_path / "out"
        result = runner.invoke(main, ["rank", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        expected = sorted([f"outfall_{o}.csv" for o in outfalls] + ["water_balance.csv"])
        storm_dirs = list((out / "results").iterdir())
        assert len(storm_dirs) == 3
        runs = ["baseline"] + [f"scenario_{i}" for i in range(1, 6)]
        tree = read_tree(out)
        for storm_dir in storm_dirs:
            assert sorted(p.name for p in storm_dir.iterdir()) == expected
            for outfall in ("OUT", "OUT_A"):
                table = tree[f"results/{storm_dir.name}/outfall_{outfall}.csv"]
                assert table.parsed[0] == ["t_s"] + [
                    f"{run}/{column}" for run in runs
                    for column in ["flow_Lps"] + [f"{p}_load_kg" for p in
                                                  ("TSS", "A_TSS", "TN", "TP")]]
        assert tree["manifest.json"].parsed["files"] == digests(out)

    def test_concentration_derives_from_cells(self, sports_rank, sports_config):
        """Each cell of the `<p>_conc_mg_L` column an earlier layout wrote
        (`reference_pollutograph` of the same series), blanks included,
        equals bit for bit the concentration derived from the outfall
        table's flow and load cells of that run and row, and its second
        row's t_s."""
        tree = read_tree(sports_rank[0])
        runs = pipeline.simulate_all(sports_config, pipeline.build_storms(sports_config))
        pollutants = [p.name for p in sports_config.pollutants]
        files = checked = 0
        seen = set()
        for label, storm_runs in runs.items():
            for run in storm_runs:
                for outfall, (flows, *loads) in run.outfalls.items():
                    path = f"results/{run.storm}/outfall_{outfall}.csv"
                    columns = tree[path].runs[label]
                    step_s = float(columns["t_s"][1])
                    assert step_s == sports_config.storms.step_s
                    for pollutant, series in zip(pollutants, loads, strict=True):
                        earlier = reference_pollutograph(step_s, flows, series)
                        conc = read_file("earlier.csv", earlier).columns["conc_mg_L"]
                        derived = derived_concentration(
                            columns["flow_Lps"], columns[f"{pollutant}_load_kg"], step_s)
                        assert derived == conc, (path, pollutant)
                        seen.update(cell == "" for cell in conc)
                        checked += 1
                    files += 1
        assert files == 6 * len([path for path in tree if "/outfall_" in path]) == 108
        assert checked == files * len(sports_config.pollutants)
        assert seen == {True, False}   # both blank and derived cells occur

    def test_report_manifest_lists_every_file(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "report", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path), "--format", "markdown"])
        assert result.exit_code == 0, result.output
        assert read_tree(tmp_path)["manifest.json"].parsed["files"] == digests(tmp_path)

    @pytest.mark.parametrize("command",
                             ["storm", "atrcr", "weights", "evaluate", "simulate"])
    def test_subcommand_files_equal_rank_files(self, command, sports_rank, runner,
                                               sample_dir, tmp_path):
        result = runner.invoke(main, [
            command, "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        written = digests(tmp_path)
        assert written
        ranked = digests(sports_rank[0])
        assert {path: ranked.get(path) for path in written} == written

    def test_atrcr_curve_of_a_depth_target_equals_ranks(self, runner, sample_dir,
                                                         tmp_path):
        """A `depth_mm` target with a rainfall record sizes at that depth, and
        `rank` writes the same `atrcr_curve.csv` as `lidscore atrcr`, which
        prints no ATRCR line for it. Both read the curve from
        `compute_sizing`."""
        path = edit_project(tmp_path, {("sizing", "target"): {"depth_mm": 26,
                                                              "rainfall_csv": "rainfall.csv"}})
        result = runner.invoke(main, ["atrcr", "--config", str(path),
                                      "--out", str(tmp_path / "atrcr")])
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote {tmp_path / 'atrcr' / 'atrcr_curve.csv'}\n"
        result = runner.invoke(main, ["rank", "--config", str(path),
                                      "--out", str(tmp_path / "rank")])
        assert result.exit_code == 0, result.output
        ranked = read_tree(tmp_path / "rank")
        assert ranked["atrcr_curve.csv"] == read_tree(tmp_path / "atrcr")["atrcr_curve.csv"]
        assert ranked["sizing.json"].parsed["target_depth_mm"] == 26.0

    def test_rank_reads_no_input_file_after_load(self, sports_rank, sample_dir,
                                                  tmp_path):
        """`load_config` reads every CSV input; a run of the loaded project
        writes the same files after they are deleted."""
        loaded = config.load_config(edit_project(tmp_path))
        for data in INPUT_FILES:
            (tmp_path / data).unlink()
        manifest = pipeline.run_pipeline(loaded, tmp_path / "out",
                                         sensitivity=("environmental", 0.05))
        assert manifest.files == digests(sports_rank[0])

    def test_second_rank_into_same_out_writes_same_files(self, sports_rank,
                                                         runner, sample_dir,
                                                         tmp_path):
        manifests = []
        for _ in range(2):
            result = runner.invoke(main, [
                "rank", "--config", str(sample_dir / "sports_center.yaml"),
                "--out", str(tmp_path), "--sensitivity", "environmental",
                "--delta", "0.05"])
            assert result.exit_code == 0, result.output
            manifests.append(read_tree(tmp_path)["manifest.json"].parsed)
        assert manifests[0]["files"] == manifests[1]["files"]
        assert manifests[1]["files"] == digests(tmp_path)
        assert digests(tmp_path) == digests(sports_rank[0])

    def test_reordered_yaml_keys_write_same_files(self, sports_rank, runner,
                                                  sample_dir, tmp_path):
        """Every mapping of the project in reverse key order changes only
        `manifest.json`, whose `config_hash` hashes the raw bytes."""
        def reverse_keys(node):
            if isinstance(node, dict):
                return {key: reverse_keys(node[key]) for key in reversed(node)}
            if isinstance(node, list):
                return [reverse_keys(item) for item in node]
            return node

        path = edit_project(tmp_path)
        raw = yaml.safe_load(path.read_text())
        path.write_text(yaml.safe_dump(reverse_keys(raw), sort_keys=False))
        assert list(yaml.safe_load(path.read_text())) == list(reversed(raw))
        result = runner.invoke(main, [
            "rank", "--config", str(path), "--out", str(tmp_path / "out"),
            "--sensitivity", "environmental", "--delta", "0.05"])
        assert result.exit_code == 0, result.output
        assert digests(tmp_path / "out") == digests(sports_rank[0])


def left_to_right_sum(values, start=0):
    """Builtin `sum()` as Python 3.10 and 3.11 add: one `+` after another."""
    total = start
    for value in values:
        total = total + value
    return total


def compensated_sum(values, start=0):
    """Builtin `sum()` as Python 3.12 and later add floats: a float added to
    a float total with Neumaier's compensation, which joins the total at
    the end or before any other item, such as a NumPy float. Not emulated:
    an int item of a float total, which lidscore never sums."""
    total, compensation = start, 0.0
    for value in values:
        if type(total) is float and type(value) is float:
            step = total + value
            if abs(total) >= abs(value):
                compensation += (total - step) + value
            else:
                compensation += (value - step) + total
            total = step
            continue
        if compensation and math.isfinite(compensation):
            total, compensation = total + compensation, 0.0
        total = total + value
    if compensation and math.isfinite(compensation):
        total = total + compensation
    return total


def test_result_bytes_do_not_depend_on_the_float_sum(runner, sample_dir, tmp_path,
                                                      monkeypatch):
    """The bundled rank with its sensitivity step writes the same files
    whether builtin `sum()` adds floats as Python 3.10 and 3.11 do or, with
    compensation, as 3.12 and later do; `sum([0.1] * 10)` tells the two
    apart, and this interpreter's `sum()` is one of them."""
    tenths = [0.1] * 10
    assert left_to_right_sum(tenths) != compensated_sum(tenths)
    assert sum(tenths) == (compensated_sum if sys.version_info >= (3, 12)
                           else left_to_right_sum)(tenths)
    trees = []
    for emulated in (left_to_right_sum, compensated_sum):
        out = tmp_path / emulated.__name__
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", emulated)
            result = runner.invoke(main, [
                "rank", "--config", str(sample_dir / "sports_center.yaml"),
                "--out", str(out), "--sensitivity", "environmental", "--delta", "0.05"])
        assert result.exit_code == 0, result.output
        trees.append(digests(out))
    first, second = trees
    assert sorted(path for path in first.keys() | second.keys()
                  if first.get(path) != second.get(path)) == []


# the loader `load_config` uses, and PyYAML's pure-Python one
LOADERS = [pytest.param(config._YAML_LOADER, id="default"),
           pytest.param(yaml.SafeLoader, id="pure-python")]


class TestYamlLoaders:
    """`load_config` parses with libyaml when PyYAML has it; the
    pure-Python loader must give the same project and the same files."""

    def test_pure_python_loader_loads_equal_config(self, monkeypatch, sample_dir,
                                                   sports_config):
        monkeypatch.setattr(config, "_YAML_LOADER", yaml.SafeLoader)
        assert config.load_config(sample_dir / "sports_center.yaml") == sports_config

    def test_pure_python_loader_ranks_equal_files(self, monkeypatch, runner,
                                                  sample_dir, sports_rank, tmp_path):
        monkeypatch.setattr(config, "_YAML_LOADER", yaml.SafeLoader)
        result = runner.invoke(main, [
            "rank", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path), "--sensitivity", "environmental",
            "--delta", "0.05"])
        assert result.exit_code == 0, result.output
        assert digests(tmp_path) == digests(sports_rank[0])

    @pytest.mark.parametrize("loader", LOADERS)
    def test_malformed_yaml_names_file_and_line(self, monkeypatch, runner,
                                                sample_dir, tmp_path, loader):
        """The error names the file and the line of the unclosed mapping;
        the rest is the parser's wording, which differs between loaders."""
        monkeypatch.setattr(config, "_YAML_LOADER", loader)
        text = (sample_dir / "sports_center.yaml").read_text()
        assert text.splitlines()[87].endswith("{id: LA, from: JA, to: OUT_A, lag_s: 120}")
        path = edit_project(tmp_path, files={"sports_center.yaml": text.replace(
            "{id: LA, from: JA, to: OUT_A, lag_s: 120}",
            "{id: LA, from: JA, to: OUT_A, lag_s: 120")})
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert f"error: {path}: not valid YAML" in result.output
        assert re.search(r"\bline 88\b", result.output)


def test_load_path_imports_neither_pipeline_nor_orjson(sample_dir):
    """Loading a project through the CLI's module (what `validate` and the
    start of every subcommand do) imports neither `lidscore.pipeline` nor
    its outfall formatter `orjson`, so a process that only validates does
    not pay for them. Run in a fresh interpreter: this one has imported
    both already."""
    code = ("import sys, lidscore.cli; lidscore.cli.load_config(sys.argv[1]); "
            "print(sorted({'orjson', 'lidscore.pipeline'} & set(sys.modules)))")
    src = str(Path(pipeline.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code,
                             str(sample_dir / "sports_center.yaml")],
                            capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n", result.stderr
