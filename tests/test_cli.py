"""Tests for the command-line surface: subcommands, outputs, exit codes."""

import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
import yaml
from click.testing import CliRunner

from lidscore import config, kernels, pipeline
from lidscore.cli import main
from reference import derived_concentration, reference_pollutograph

DATA_FILES = ("rainfall.csv", "environmental_indicators.csv",
              "econ_social_indicators.csv")


@pytest.fixture()
def runner():
    return CliRunner()


def copy_project(sample_dir, tmp_path, name):
    for data in DATA_FILES:
        shutil.copy(sample_dir / data, tmp_path / data)
    shutil.copy(sample_dir / name, tmp_path / name)
    return tmp_path / name


def social_matrix(raw):
    """The `social` node's matrix added to the project `raw`, with the
    weights of its children removed so that the node reads it."""
    for child in raw["hierarchy"]["children"][2]["children"]:
        del child["weight"]
    return raw.setdefault("matrices", {}).setdefault(
        "social", {"labels": ["water_reuse", "landscape", "ecological"],
                   "rows": [[1, 2, 3], [None, 1, 2], [None, None, 1]]})


def edited_project(sample_dir, tmp_path, keys, value, name="sports_center.yaml",
                   more=()):
    """A copy of a bundled project with the entry at the key path `keys`
    set to `value`, and likewise for each (keys, value) pair in `more`."""
    path = copy_project(sample_dir, tmp_path, name)
    raw = yaml.safe_load(path.read_text())
    for keys, value in ((keys, value), *more):
        owner = raw
        for key in keys[:-1]:
            owner = owner[key]
        owner[keys[-1]] = value
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


class TestValidate:
    def test_valid_project(self, runner, sample_dir):
        result = runner.invoke(main, ["validate", "--config",
                                      str(sample_dir / "sports_center.yaml")])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_broken_project_exits_2(self, runner, sample_dir, tmp_path):
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        raw["scenarios"][0]["placements"][0]["subcatchment"] = "ZZ"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "unknown subcatchment" in result.output

    def test_unbuilt_subcatchment_is_one_error(self, runner, sample_dir, tmp_path):
        """A subcatchment entry that fails to build is reported once; the
        placements it hosts are not each reported as naming an unknown
        subcatchment."""
        path = edited_project(sample_dir, tmp_path,
                              ("catchment", "subcatchments", 0, "width_m"), float("nan"))
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert [line for line in result.output.splitlines() if line.startswith("error:")] \
            == ["error: catchment.subcatchments[A].width_m: nan is not finite"]

    @pytest.mark.parametrize("keys,value,error", [
        (("catchment", "subcatchments", 0, "land_uses", 0, "runoff_coefficient"), 2,
         "catchment.subcatchments[A].land_uses[0]: runoff_coefficient must be in [0, 1], "
         "got 2.0"),
        (("catchment", "links", 0, "lag_s"), -5,
         "catchment.links[LA]: lag_s must be >= 0, got -5.0"),
        (("catchment", "links", 0, "capacity_lps"), 100,
         "catchment.links[LA].capacity_lps: unknown key"),
    ], ids=["land_use", "link", "capacity"])
    def test_failed_land_use_or_link_is_one_error(self, runner, sample_dir, tmp_path,
                                                  keys, value, error):
        """A land use that fails to build leaves its subcatchment unbuilt
        rather than short of area, and a link that fails to build skips the
        outlet check rather than cutting a path: either is reported once.
        A link's `capacity_lps`, which earlier versions accepted and ignored
        (links are pure lags), is one unknown key."""
        path = edited_project(sample_dir, tmp_path, keys, value)
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert [line for line in result.output.splitlines() if line.startswith("error:")] \
            == [f"error: {error}"]

    @pytest.mark.parametrize("command", ["validate", "rank"])
    def test_layers_key_is_unknown(self, runner, sample_dir, tmp_path, command):
        """A facility's storage is its `unit_capacity_m3_m2` alone: the
        layer geometry earlier versions read is an unknown key."""
        path = edited_project(sample_dir, tmp_path, ("lid_catalog",),
                              {"bio_retention": {"layers": {"berm_mm": 150}}})
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert [line for line in result.output.splitlines() if line.startswith("error:")] \
            == ["error: lid_catalog.bio_retention.layers: unknown key"]
        assert not (tmp_path / "out").exists()

    def test_subnormal_surface_ranks(self, runner, sample_dir, tmp_path):
        """Subcatchment D shrunk to 1 m2 with impervious fraction 4e-323
        ranks: its impervious surface is too small for area * manning n to
        be a normal float. Earlier versions divided by zero."""
        path = edited_project(sample_dir, tmp_path, ("catchment", "subcatchments", 3),
                              {"id": "D", "area_ha": 1e-4, "impervious_fraction": 4e-323,
                               "width_m": 390, "slope": 0.011, "outlet": "JD"})
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
        path = edited_project(sample_dir, tmp_path,
                              ("scenarios", 1, "placements", 1, "area_ha"), 5e-324)
        result = runner.invoke(main, ["rank", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exception is None
        assert result.exit_code == 0
        assert result.stderr == ""
        assert (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["validate", "rank"])
    @pytest.mark.parametrize("section,key,value,message", [
        ("sizing", "psi", 0, "sizing: psi must be in (0, 1], got 0.0"),
        ("sizing", "area_ha", 0, "sizing: area_ha must be > 0, got 0.0"),
        ("storms", "step_s", 420, "storms: step 420.0 s does not divide"),
        (("scenarios", 0, "placements", 0), "area_ha", 0,
         "scenarios[scenario_1].placements[0]: area_ha must be > 0, got 0.0"),
        # names that become result paths
        (("scenarios", 0), "name", "baseline",
         "scenarios[baseline]: 'baseline' is reserved for the run without LID"),
        (("scenarios", 0), "name", "../../escape_dir",
         "scenarios[0].name: '../../escape_dir' must be a plain file name"),
        (("scenarios", 0), "name", "..", "scenarios[0].name: '..' must be"),
        (("scenarios", 0), "name", "", "scenarios[0].name: missing or empty"),
        (("pollutants", 0), "name", "", "pollutants[0].name: missing or empty"),
        (("pollutants", 0), "name", None, "pollutants[0].name: missing or empty"),
        (("catchment", "subcatchments", 0), "outlet", ".",
         "catchment.subcatchments[A].outlet: '.' must be"),
        (("catchment", "links", 0), "to", "up/OUT_A",
         "catchment.links[LA].to: 'up/OUT_A' must be"),
        # pairwise matrices: a judgment that is not a number, a matrix file
        # that does not exist, a blank upper-triangle judgment
        ((), "matrices", {"comprehensive": {
            "labels": ["environmental", "economic", "social"],
            "rows": [["one", 1.0, 2.0], [None, 1, 2], [None, None, 1]]}},
         "matrices.comprehensive: row 1 (environmental), column 1 "
         "(environmental): 'one' is not a number or a fraction"),
        ((), "matrices", {"comprehensive": {"csv": "nope.csv"}},
         "matrices.comprehensive: <dir>/nope.csv: cannot read: "
         "No such file or directory"),
        # a file name that YAML reads as a number names a file too
        (("direct_tables", 0), "file", 5,
         "direct_tables[0]: <dir>/5: cannot read: No such file or directory"),
        ((), "matrices", {"comprehensive": {
            "labels": ["environmental", "economic", "social"],
            "rows": [[1, 3], [None, 1, 2], [None, None, 1]]}},
         "matrices.comprehensive: row 1 (environmental), column 3 (social): "
         "missing value"),
        # a lower-triangle judgment that contradicts its mirror
        ((), "matrices", {"comprehensive": {
            "labels": ["environmental", "economic", "social"],
            "rows": [[1, 3, 5], [0.5, 1, 2], [None, None, 1]]}},
         "matrices.comprehensive: row 2 (economic), column 1 (environmental): "
         "0.5 is not the reciprocal of 3 in row 1 (environmental), column 2 "
         "(economic)"),
        # hierarchy leaves that their source cannot fill: a simulated
        # indicator the simulation does not produce, a direct one no table
        # provides, a facility-derived one without favorability scores
        (("hierarchy", "children", 0, "children", 1, "children", 0),
         "indicator", "zn_reduction",
         "hierarchy: leaf 'tss_reduction': the simulation does not produce "
         "'zn_reduction' (it produces runoff_reduction, peak_reduction, "
         "peak_delay, tss_reduction, cod_reduction, tn_reduction, tp_reduction)"),
        (("hierarchy", "children", 2, "children", 2), "indicator", "biodiversity",
         "hierarchy: leaf 'ecological': no direct table provides 'biodiversity'"),
        (("hierarchy", "children", 2, "children"), 2,
         {"name": "ecological", "weight": 0.230, "source": "facility_derived",
          "indicator": "shade"},
         "hierarchy: leaf 'ecological': bio_retention: no favorability score "
         "for 'shade'"),
        # a sizing target the rainfall record cannot reach, a benefit leaf
        # with the cost-only reciprocal transform
        (("sizing", "target"), "atrcr", 1.5,
         "sizing.target: atrcr must be in (0, 1), got 1.5"),
        ("sizing", "min_event_mm", 100000,
         "sizing.min_event_mm: the rainfall record has no event deeper than "
         "100000 mm"),
        (("hierarchy", "children", 2, "children", 1), "transform", "reciprocal",
         "hierarchy.children[2].children[1]: leaf landscape: the reciprocal "
         "transform applies only to cost leaves"),
        # a YAML key with no value names nothing
        (("scenarios", 0), "name", None, "scenarios[0].name: missing or empty"),
        # a pollutant whose indicator column is a built-in one
        (("pollutants", 3), "name", "Runoff",
         "pollutants[Runoff]: pollutant 'Runoff' gives the indicator "
         "'runoff_reduction', which is built in"),
        # storm depths that would share one storm name (a result directory)
        ("storms", "depths_mm", [16, 26, 26],
         "storms.depths_mm: depths 26.0 and 26.0 both give the storm label '26mm'"),
        ("storms", "depths_mm", [16, 26, 26.0000001],
         "storms.depths_mm: depths 26.0 and 26.0000001 both give the storm "
         "label '26mm'"),
        # a nan weight used to rank every scenario `nan`, in name order
        (("hierarchy", "children", 2, "children", 1), "weight", float("nan"),
         "hierarchy.children[2].children[1].weight: nan is not finite"),
        # non-finite or non-numeric values that used to crash the run
        (("catchment", "links", 0), "lag_s", float("nan"),
         "catchment.links[LA].lag_s: nan is not finite"),
        ((), "antecedent_dry_days", float("inf"),
         "antecedent_dry_days: inf is not finite"),
        (("pollutants", 0, "surface_class_factors"), "roads", "abc",
         "pollutants[TSS].surface_class_factors.roads: expected a number, "
         "got 'abc'"),
        # a required field that is absent or null
        (("catchment", "subcatchments", 0), "width_m", None,
         "catchment.subcatchments[A].width_m: missing"),
        # pollutant maps: a removal key that is no LID kind, a negative factor
        (("pollutants", 0, "lid_removal"), "bioretention", 0.8,
         "pollutants[TSS]: unknown LID kind 'bioretention'; expected one of "
         "['bio_retention', "),
        (("pollutants", 0, "surface_class_factors"), "roads", -1,
         "pollutants[TSS]: surface_class_factors.roads must be >= 0, got -1.0"),
        # a misspelled class used to leave every `roofs` land use at factor 1
        (("pollutants", 0), "surface_class_factors",
         {"roads": 1.0, "roof": 0.6, "green": 0.2},
         "pollutants[TSS].surface_class_factors.roof: no land use has surface "
         "class 'roof'"),
        # a quoted "false" is a string, which used to mark the table normalized
        (("direct_tables", 0), "normalized", "false",
         "direct_tables[0].normalized: expected true or false, got 'false'"),
        # a matrix that no node reads: a misspelled node, and a node whose
        # children all give weights, which used to ignore it silently
        ((), "matrices", {"enviromental": {
            "labels": ["water_quantity", "water_quality"], "rows": [[1, 1], [None, 1]]}},
         "matrices.enviromental: no node reads this matrix"),
        ((), "matrices", {"social": {
            "labels": ["water_reuse", "landscape", "ecological"],
            "rows": [[1, 2, 3], [None, 1, 2], [None, None, 1]]}},
         "matrices.social: no node reads this matrix"),
        # a node where some children give a weight and some do not
        (("hierarchy", "children", 0, "children", 1), "weight", None,
         "hierarchy.children[0]: node environmental: 1 of its 2 children give "
         "a weight; give every child a weight, or none and a pairwise matrix "
         "matrices.environmental\n"),
        # a dry tail that is negative, overflows or is not whole steps (the
        # simulation rounded 1.5 and 2.5 steps both to 2)
        ("storms", "tail_min", -5,
         "storms: tail_min -5.0 must be >= 0 and a whole number of 60.0 s steps"),
        ("storms", "tail_min", 1e308,
         "storms: tail_min 1e+308 must be >= 0 and a whole number of 60.0 s steps"),
        ("storms", "tail_min", 1.5,
         "storms: tail_min 1.5 must be >= 0 and a whole number of 60.0 s steps"),
        ("storms", "tail_min", 2.5,
         "storms: tail_min 2.5 must be >= 0 and a whole number of 60.0 s steps"),
        # two nodes of one name: scores, consistency reports and
        # --sensitivity key nodes by name, and used to keep one of the two
        (("hierarchy", "children", 1, "children", 2), "name", "water_quantity",
         "hierarchy.children[1].children[2]: node name 'water_quantity' is also "
         "used at hierarchy.children[0].children[0]"),
    ])
    def test_values_rank_cannot_use_exit_2(self, runner, sample_dir, tmp_path,
                                           command, section, key, value, message):
        """Inputs that used to pass validation and then crash, fail or write
        outside `--out` inside `rank` are rejected at load time by both
        commands. `section` is a top-level key or a path of keys; `<dir>`
        in `message` is the project's directory."""
        keys = (*(section if isinstance(section, tuple) else (section,)), key)
        path = edited_project(sample_dir, tmp_path, keys, value)
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"error: {message.replace('<dir>', str(tmp_path))}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "rank"])
    def test_matrix_overriding_a_child_weight_exit_2(self, runner, sample_dir,
                                                     tmp_path, command):
        """A child weight that the node's matrix would replace is an error:
        with `water_quality`'s weight removed and a matrix of ones for
        `environmental`, `water_quantity`'s `weight: 0.7` used to be
        silently dropped for 0.5."""
        path = edited_project(
            sample_dir, tmp_path, ("hierarchy", "children", 0, "children", 1, "weight"),
            None, more=[(("matrices",), {"environmental": {
                "labels": ["water_quantity", "water_quality"],
                "rows": [[1, 1], [None, 1]]}})])
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert [line for line in result.output.splitlines()
                if line.startswith("error:")] == [
            "error: hierarchy.children[0]: node environmental: 1 of its 2 children "
            "give a weight; give every child a weight, or none and a pairwise matrix "
            "matrices.environmental"]
        assert not (tmp_path / "out").exists()

    def test_every_problem_listed_by_path(self, runner, sample_dir, tmp_path):
        """One `validate` lists the hierarchy's problems with every other
        section's, each named by its path. Earlier versions read the
        hierarchy only once every other section was clean, and stopped at
        its first problem."""
        leaves = ("hierarchy", "children", 0, "children", 0, "children")
        path = edited_project(sample_dir, tmp_path, (*leaves, 0, "polarity"), "bogus", more=[
            ((*leaves, 1, "source"), "bogus"),
            (("hierarchy", "children", 1, "children", 2, "weight"), 1.368),
            (("catchment", "subcatchments", 0, "land_uses", 0, "name"), ["roof", "x"]),
            (("matrices",), {"enviromental": {"labels": ["water_quantity", "water_quality"],
                                              "rows": [[1, 1], [None, 1]]}}),
            (("storms", "tail_min"), -5),
        ])
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        # the land use that fails to read also leaves its subcatchment out,
        # which the area check and the scenarios then report as well
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert set(errors) >= {
            "error: catchment.subcatchments[A].land_uses[0].name: expected a scalar, "
            "got ['roof', 'x']",
            "error: storms: tail_min -5.0 must be >= 0 and a whole number of 60.0 s steps",
            "error: hierarchy.children[0].children[0].children[0]: leaf runoff_reduction: "
            "bad polarity bogus",
            "error: hierarchy.children[0].children[0].children[1]: leaf peak_reduction: "
            "bad source bogus",
            "error: hierarchy.children[1]: node economic: child weights sum to 1.713, not 1",
            "error: matrices.enviromental: no node reads this matrix: a node reads the "
            "matrix of its name when it has two or more children and none gives a weight",
        }

    @pytest.mark.parametrize("command", ["validate", "rank"])
    @pytest.mark.parametrize("edits,messages", [
        # an entry whose name fails to read is not built and joins no name
        # check: it used to be built as `''`, a duplicate of the next such
        # entry and a phantom scenario of the direct table
        ({("scenarios", 1, "name"): {"x": 1}, ("scenarios", 2, "name"): None},
         ["scenarios[1].name: expected a scalar, got {'x': 1}",
          "scenarios[2].name: missing or empty"]),
        ({("pollutants", 1, "name"): None, ("pollutants", 2, "name"): [1]},
         ["pollutants[1].name: missing or empty",
          "pollutants[2].name: expected a scalar, got [1]"]),
        # values that used to bypass the scalar rule: a mapping output_dir
        # made `storm` write into a directory named `{'x': 1}`
        ({("output_dir",): {"x": 1}}, ["output_dir: expected a scalar, got {'x': 1}"]),
        ({("name",): [1, 2]}, ["name: expected a scalar, got [1, 2]"]),
        ({("sizing", "existing_facilities", 1, "label"): [1]},
         ["sizing.existing_facilities[1].label: expected a scalar, got [1]"]),
        # an outfall that fails to read used to show only as the outlet that
        # drains to the outfall it should have declared
        ({("catchment", "outfalls", 0): {"x": 1}},
         ["catchment.outfalls[0]: expected a scalar, got {'x': 1}"]),
        # the per-surface maps have two keys; a misspelled third loaded silently
        ({("catchment", "subcatchments", 0, "depression_storage_mm"):
          {"impervious": 1.5, "pervious": 2.5, "imprevious": 9}},
         ["catchment.subcatchments[A].depression_storage_mm.imprevious: unknown key"]),
        ({("catchment", "subcatchments", 0, "manning_n"):
          {"impervious": 0.012, "pervious": 0.15, "Pervious": 0.2}},
         ["catchment.subcatchments[A].manning_n.Pervious: unknown key"]),
        # a sizing target gives exactly one design depth: `rank` used to size
        # at depth_mm while `atrcr` printed the depth of the atrcr target
        ({("sizing", "target", "depth_mm"): 40},
         ["sizing.target: give one of depth_mm and atrcr, not both"]),
        ({("sizing", "target", "atrcr"): None}, ["sizing.target: need either depth_mm or atrcr"]),
        # problems of four sections are listed in one batch
        ({("storms", "tail_minutes"): 0,
          ("hierarchy", "children", 2, "children", 1, "weight"): float("nan"),
          ("hierarchy", "children", 0, "children", 0, "children", 0, "polarity"): "bogus",
          ("matrices",): {"enviromental": {"labels": ["water_quantity", "water_quality"],
                                           "rows": [[1, 1], [None, 1]]}}},
         ["storms.tail_minutes: unknown key",
          "hierarchy.children[0].children[0].children[0]: leaf runoff_reduction: "
          "bad polarity bogus",
          "hierarchy.children[2].children[1].weight: nan is not finite",
          "matrices.enviromental: no node reads this matrix: a node reads the matrix "
          "of its name when it has two or more children and none gives a weight"]),
    ], ids=["scenario_names", "pollutant_names", "output_dir", "name", "facility_label",
            "outfall", "depression_storage_key", "manning_key", "both_targets",
            "no_target", "four_sections"])
    def test_entry_problems_listed_alone(self, runner, sample_dir, tmp_path, command,
                                         edits, messages):
        """Each problem is listed once, by its path, with no error that
        follows from it; nothing is written, also where no `--out` is
        given."""
        (keys, value), *more = edits.items()
        path = edited_project(sample_dir, tmp_path, keys, value, more=more)
        before = sorted(tmp_path.iterdir())
        result = runner.invoke(main, [command, "--config", str(path)])
        assert result.exit_code == 2
        assert [line for line in result.output.splitlines()
                if line.startswith("error:")] == [f"error: {m}" for m in messages]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["validate", "rank"])
    @pytest.mark.parametrize("edit,message", [
        # a range where there was none: rank sized at -5 mm and exited 3
        (lambda raw: raw["sizing"].update(target={"depth_mm": -5}),
         "sizing.target: depth_mm must be > 0, got -5.0"),
        # a YAML boolean is not a number: `yes` loaded as 1.0, and a `true`
        # depth as a 1 mm storm that gave no outfall volume
        (lambda raw: raw.update(antecedent_dry_days=True),
         "antecedent_dry_days: expected a number, got True"),
        (lambda raw: raw["storms"].update(depths_mm=[16, 26, True]),
         "storms.depths_mm: expected a number, got True"),
        # the rule quality.buildup applies inside the run
        (lambda raw: raw.update(antecedent_dry_days=-1),
         "antecedent_dry_days: must be >= 0, got -1.0"),
        # storm grids that could not be built: OverflowError, ValueError
        (lambda raw: raw["storms"].update(step_s=5e-324),
         "storms: duration_min + tail_min exceed 1000000 steps of 5e-324 s"),
        (lambda raw: raw["storms"].update(duration_min=1e300),
         "storms: duration_min + tail_min exceed 1000000 steps of 60.0 s"),
        (lambda raw: raw["storms"].update(tail_min=1e300),
         "storms: duration_min + tail_min exceed 1000000 steps of 60.0 s"),
        # a storm of nan rain, and with it NumPy's invalid-value warning
        (lambda raw: raw["storms"].update(duration_min=2, peak_ratio=0.25,
                                          idf={"a": 20, "b_min": 0, "n": 0.75}),
         "storms: storm intensities are not all finite (with b_min 0, a step midpoint "
         "on the peak divides 0 by 0)"),
        # a psi that is not given is the composite, resolved and checked at load
        (lambda raw: [use.update(runoff_coefficient=0)
                      for sub in raw["catchment"]["subcatchments"] for use in sub["land_uses"]],
         "sizing: psi must be in (0, 1], got 0.0 (the land-use composite)"),
        # a baseline-only run simulates, and used to fail with no outfall series
        (lambda raw: [raw.pop("catchment"), raw.pop("scenarios"),
                      [p.pop("surface_class_factors") for p in raw["pollutants"]],
                      raw["sizing"].update(psi=0.5, area_ha=60)],
         "catchment: no subcatchment to simulate: a project simulates when a hierarchy "
         "leaf is simulated or it has no scenarios"),
        # a matrix row that is not a list used to fail with a TypeError or
        # KeyError text, or be read one character per cell
        (lambda raw: social_matrix(raw).update(rows=[5, [None, 1, 2], [None, None, 1]]),
         "matrices.social.rows[0]: expected a list, got 5"),
        (lambda raw: social_matrix(raw).update(rows=[{0: 1}, [None, 1, 2], [None, None, 1]]),
         "matrices.social.rows[0]: expected a list, got {0: 1}"),
        (lambda raw: social_matrix(raw).update(rows=["xyz", [None, 1, 2], [None, None, 1]]),
         "matrices.social.rows[0]: expected a list, got 'xyz'"),
    ], ids=["depth_mm", "dry_days_bool", "depth_bool", "dry_days_negative", "tiny_step",
            "long_storm", "long_tail", "non_finite_storm", "zero_composite_psi",
            "no_subcatchment", "int_row", "mapping_row", "string_row"])
    def test_load_rule_exit_2(self, runner, sample_dir, tmp_path, command, edit, message):
        """Each of these projects passed `validate` and failed `rank` inside
        the run, or failed both with a traceback, with the text of a Python
        error or with a Python warning; both now print exactly its one error
        line and nothing else, and write nothing."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        edit(raw)
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "rank"])
    @pytest.mark.parametrize("data,line,column,value,message", [
        ("econ_social_indicators.csv", 3, 3, "n/a",
         "line 3, column 3 (maintenance_cost): 'n/a' is not a number"),
        ("econ_social_indicators.csv", 3, 3, None,
         "line 3, column 3 (maintenance_cost): missing value"),
        ("econ_social_indicators.csv", 3, 10, "0.2",
         "line 3, column 10: more cells than the header has columns"),
        ("econ_social_indicators.csv", 3, 3, "nan",
         "line 3, column 3 (maintenance_cost): 'nan' is not finite"),
        ("econ_social_indicators.csv", 5, 9, "inf",
         "line 5, column 9 (ecological): 'inf' is not finite"),
        ("rainfall.csv", 4, 2, "nan", "line 4, column 2 (depth_mm): 'nan' is not finite"),
        ("matrix.csv", 2, 3, "", "line 2, column 3 (social): missing value"),
    ])
    def test_bad_input_file_cell_exits_2(self, runner, sample_dir, tmp_path,
                                         command, data, line, column, value,
                                         message):
        """A cell of a project input file that is not a finite number, is
        blank where a value is required, or lies beyond the header (column 10
        of an 8-indicator table) is named by file, line and column at load
        time. `value` None cuts the row before `column`. The matrix file is a
        consistent comparison of the bundled project's top-level weights."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        for child in raw["hierarchy"]["children"]:
            child.pop("weight")
        raw["matrices"] = {"comprehensive": {"csv": "matrix.csv"}}
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        (tmp_path / "matrix.csv").write_text(
            "environmental,economic,social\n"
            "1,0.608/0.272,0.608/0.120\n,1,0.272/0.120\n,,1\n")
        table = tmp_path / data
        lines = table.read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[column - 1:] = [] if value is None else [value, *cells[column:]]
        lines[line - 1] = ",".join(cells)
        table.write_text("\n".join(lines) + "\n")
        section = {"rainfall.csv": "sizing.target.rainfall_csv",
                   "matrix.csv": "matrices.comprehensive"}.get(data, "direct_tables[0]")
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"error: {section}: {table}: {message}\n" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "rank"])
    @pytest.mark.parametrize("keys,more,message", [
        (("catchment", "subcatchments", 0, "land_uses"), (),
         "sizing: needs land uses or an explicit sizing.psi"),
        (("catchment", "subcatchments"),
         ((("scenarios",), []), (("sizing", "psi"), 0.5)),
         "sizing: needs subcatchments or an explicit sizing.area_ha"),
    ])
    def test_sizing_without_its_inputs_exits_2(self, runner, sample_dir, tmp_path,
                                               command, keys, more, message):
        """The published project's sizing step, left without the land uses
        or subcatchments (`keys` set to []) that its runoff coefficient or
        area would come from, fails at load time."""
        path = edited_project(sample_dir, tmp_path, keys, [],
                              "published_tables.yaml", more)
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"error: {message}\n" in result.output
        assert not (tmp_path / "out").exists()

    def test_depth_target_reads_its_rainfall_csv(self, runner, sample_dir, tmp_path):
        """A `rainfall_csv` set next to a `depth_mm` target is read at load
        too (`lidscore atrcr` uses it), so a missing file fails `validate`;
        removing the key loads the project again."""
        target = {"depth_mm": 26, "rainfall_csv": "gone.csv"}
        path = edited_project(sample_dir, tmp_path, ("sizing", "target"), target)
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert (f"error: sizing.target.rainfall_csv: {tmp_path / 'gone.csv'}: "
                "cannot read: No such file or directory\n") in result.output
        edited_project(sample_dir, tmp_path, ("sizing", "target"), {"depth_mm": 26})
        assert runner.invoke(main, ["validate", "--config", str(path)]).exit_code == 0

    @pytest.mark.parametrize("command", ["validate", "rank"])
    def test_duplicate_pollutant_name_exit_2(self, runner, sample_dir, tmp_path,
                                             command):
        """A second pollutant named like the first is rejected, as a second
        scenario of the same name is."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        raw["pollutants"].append(dict(raw["pollutants"][0], washoff_coeff=0.01))
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "error: pollutants[TSS]: duplicate pollutant name\n" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "rank"])
    def test_pollutant_names_equal_in_lower_case_exit_2(self, runner, sample_dir,
                                                        tmp_path, command):
        """`TSS` and `tss` would both head the indicator column
        `tss_reduction`, and a leaf would read only the first of the two."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        raw["pollutants"].append(dict(raw["pollutants"][0], name="tss"))
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert ("error: pollutants[tss]: pollutants 'TSS' and 'tss' both give "
                "the indicator 'tss_reduction'\n") in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["T/P", "a\\b"])
    def test_pollutant_name_need_not_be_a_file_name(self, runner, sample_dir,
                                                    tmp_path, name):
        """A pollutant name only heads result columns, which `csv.writer`
        quotes, so a name with a path separator validates and ranks, and its
        header cell reads back unchanged."""
        indicator = f"{name.lower()}_reduction"
        path = edited_project(sample_dir, tmp_path, ("pollutants", 3, "name"), name,
                              more=[(("hierarchy", "children", 0, "children", 1,
                                      "children", 3, "name"), indicator)])
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        result = runner.invoke(main, ["rank", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        files = list((out / "results").glob("*/outfall_*.csv"))
        assert len(files) == 3 * 6
        runs = ["baseline"] + [f"scenario_{i}" for i in range(1, 6)]
        for file in files:
            with file.open(newline="") as f:
                header = next(csv.reader(f))
            assert header == ["t_s"] + [
                f"{run}/{column}" for run in runs
                for column in ["flow_Lps", "TSS_load_kg", "COD_load_kg",
                               "TN_load_kg", f"{name}_load_kg"]]
        normalized = (out / "indicators" / "normalized.csv").read_text()
        assert indicator in normalized.splitlines()[0]

    def test_pipe_in_markdown_cell_escaped(self, runner, sample_dir, tmp_path):
        """A pollutant named `T|P` heads the markdown column `t\\|p_reduction`:
        every row of the rendered table has as many cells as separators."""
        path = edited_project(sample_dir, tmp_path, ("pollutants", 3, "name"), "T|P",
                              more=[(("hierarchy", "children", 0, "children", 1,
                                      "children", 3, "name"), "t|p_reduction")])
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

    def test_missing_outlet_and_to_named(self, runner, sample_dir, tmp_path):
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        del raw["catchment"]["subcatchments"][0]["outlet"]
        del raw["catchment"]["links"][0]["to"]
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "error: catchment.subcatchments[A].outlet: missing or empty\n" \
            in result.output
        assert "error: catchment.links[LA].to: missing or empty\n" in result.output

    def test_non_numeric_values_exit_2(self, runner, sample_dir, tmp_path):
        """Every value that is not a number is listed in one batch."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        raw["sizing"]["psi"] = "abc"
        raw["storms"]["duration_min"] = "ninety"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "error: sizing.psi: expected a number, got 'abc'" in result.output
        assert ("error: storms.duration_min: expected a number, got 'ninety'"
                in result.output)

    @pytest.mark.parametrize("keys,value,message", [
        (("storms", "depths_mm"), 26, "storms.depths_mm: expected a list, got 26"),
        (("catchment", "subcatchments"), 5,
         "catchment.subcatchments: expected a list, got 5"),
        (("catchment", "outfalls"), "OUT_A",
         "catchment.outfalls: expected a list, got 'OUT_A'"),
        (("scenarios",), "oops", "scenarios: expected a list, got 'oops'"),
        (("scenarios", 0, "placements"), 3,
         "scenarios[scenario_1].placements: expected a list, got 3"),
        (("pollutants", 0), "TSS", "pollutants[0]: expected a mapping, got 'TSS'"),
        (("storms",), [1], "storms: expected a mapping, got [1]"),
        (("storms", "idf"), [1], "storms.idf: expected a mapping, got [1]"),
        (("hierarchy",), [1], "hierarchy: expected a mapping, got [1]"),
        (("sizing", "existing_facilities"), 5,
         "sizing.existing_facilities: expected a list, got 5"),
        (("hierarchy", "children", 0), 5,
         "hierarchy.children[0]: expected a mapping, got 5"),
        (("hierarchy", "children", 0, "children"), 7,
         "hierarchy.children[0].children: expected a list, got 7"),
        (("hierarchy", "children", 0, "children", 0, "children", 0, "weight"),
         "abc", "hierarchy.children[0].children[0].children[0].weight: "
                "expected a number, got 'abc'"),
        (("hierarchy", "children", 0, "children", 0, "children", 0, "name"),
         [1], "hierarchy.children[0].children[0].children[0].name: "
              "expected a scalar, got [1]"),
        (("hierarchy", "children", 0, "children", 0, "children", 0, "indicator"),
         {"a": 1}, "hierarchy.children[0].children[0].children[0].indicator: "
                   "expected a scalar, got {'a': 1}"),
        # every string field and name takes a scalar, not only a node's
        (("catchment", "subcatchments", 0, "land_uses", 0, "name"), ["roof", "x"],
         "catchment.subcatchments[A].land_uses[0].name: expected a scalar, "
         "got ['roof', 'x']"),
        (("catchment", "subcatchments", 0, "land_uses", 0, "surface_class"), {"a": 1},
         "catchment.subcatchments[A].land_uses[0].surface_class: expected a scalar, "
         "got {'a': 1}"),
        # an entry whose id or name is no scalar is labelled by its index
        (("catchment", "links", 0, "id"), {"x": 1},
         "catchment.links[0].id: expected a scalar, got {'x': 1}"),
        (("catchment", "subcatchments", 0, "id"), None,
         "catchment.subcatchments[0].id: missing"),
        (("pollutants", 0, "name"), ["a"],
         "pollutants[0].name: expected a scalar, got ['a']"),
        (("scenarios", 1), {"name": {"x": 1}, "placements": [
            {"subcatchment": "NOPE", "kind": "bio_retention"}]},
         "scenarios[1].placements[0]: unknown subcatchment 'NOPE'"),
        # a file name is a scalar too, not a path built from its repr
        (("sizing", "target", "rainfall_csv"), {"x": 1},
         "sizing.target.rainfall_csv: expected a scalar, got {'x': 1}"),
        (("direct_tables", 0, "file"), {"x": 1},
         "direct_tables[0].file: expected a scalar, got {'x': 1}"),
        (("matrices",), {"environmental": {"csv": {"x": 1}}},
         "matrices.environmental.csv: expected a scalar, got {'x': 1}"),
    ])
    def test_misshapen_sections_exit_2(self, runner, sample_dir, tmp_path,
                                       keys, value, message):
        """A section or list entry of the wrong shape is a listed error,
        not a traceback."""
        path = edited_project(sample_dir, tmp_path, keys, value)
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert f"error: {message}\n" in result.output

    @pytest.mark.parametrize("command", ["validate", "rank"])
    @pytest.mark.parametrize("owner,section", [
        (lambda raw: raw, ""),
        (lambda raw: raw["catchment"], "catchment"),
        (lambda raw: raw["catchment"]["subcatchments"][0],
         "catchment.subcatchments[A]"),
        (lambda raw: raw["catchment"]["subcatchments"][0]["land_uses"][0],
         "catchment.subcatchments[A].land_uses[0]"),
        (lambda raw: raw["catchment"]["subcatchments"][0].setdefault("horton", {}),
         "catchment.subcatchments[A].horton"),
        (lambda raw: raw["catchment"]["links"][0], "catchment.links[LA]"),
        (lambda raw: raw["pollutants"][0], "pollutants[TSS]"),
        (lambda raw: raw.setdefault("lid_catalog", {}).setdefault("bio_retention", {}),
         "lid_catalog.bio_retention"),
        (lambda raw: raw.setdefault("lid_catalog", {}).setdefault(
            "storage_tank", {"exfiltration_mm_hr": 5}), "lid_catalog.storage_tank"),
        (lambda raw: raw["scenarios"][0], "scenarios[scenario_1]"),
        (lambda raw: raw["scenarios"][0]["placements"][0],
         "scenarios[scenario_1].placements[0]"),
        (lambda raw: raw["storms"], "storms"),
        (lambda raw: raw["storms"]["idf"], "storms.idf"),
        (lambda raw: raw["sizing"], "sizing"),
        (lambda raw: raw["sizing"]["target"], "sizing.target"),
        (lambda raw: raw["sizing"]["existing_facilities"][0],
         "sizing.existing_facilities[0]"),
        (lambda raw: raw["hierarchy"], "hierarchy"),
        (lambda raw: raw["hierarchy"]["children"][0]["children"][0]["children"][0],
         "hierarchy.children[0].children[0].children[0]"),
        (lambda raw: social_matrix(raw), "matrices.social"),
        (lambda raw: raw["direct_tables"][0], "direct_tables[0]"),
    ], ids=lambda v: (v or "top") if isinstance(v, str) else "zz_typo")
    def test_unknown_key_exit_2(self, runner, sample_dir, tmp_path, command,
                                owner, section):
        """A key that names no field, here `zz_typo` in one section of each
        kind, is one batch entry named by its path. It does not drop its
        section, so nothing else is reported. Earlier versions ignored it,
        so a misspelled key silently took the default."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        owner(raw)["zz_typo"] = 1
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        key = f"{section}.zz_typo" if section else "zz_typo"
        assert [line for line in result.output.splitlines()
                if line.startswith("error:")] == [f"error: {key}: unknown key"]
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", "--config",
                                      str(tmp_path / "none.yaml")])
        assert result.exit_code == 2


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

    def test_without_rainfall_exits_2(self, runner, sample_dir, tmp_path):
        path = copy_project(sample_dir, tmp_path, "published_tables.yaml")
        result = runner.invoke(main, ["atrcr", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2


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
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in (out / "results").rglob("*") if p.is_file()})
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
        path = edited_project(sample_dir, tmp_path, ("scenarios",), [])
        with mock.patch.object(pipeline, "simulate_all",
                               side_effect=AssertionError("simulated")):
            result = runner.invoke(main, ["evaluate", "--config", str(path),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert ("error: [stage: indicator assembly] indicator table needs at "
                "least one scenario\n") in result.output
        assert not (tmp_path / "out").exists()

    def test_simulate_without_subcatchments_exits_2(self, runner, sample_dir, tmp_path):
        """The published project without `catchment` and placements loads,
        as none of its leaves is simulated, and ranks; `simulate` has nothing
        to simulate. Earlier versions failed it with exit 3, `[stage:
        simulation] no outfall series`."""
        path = copy_project(sample_dir, tmp_path, "published_tables.yaml")
        raw = yaml.safe_load(path.read_text())
        del raw["catchment"]
        for scenario in raw["scenarios"]:
            del scenario["placements"]
        raw["sizing"].update(psi=0.6, area_ha=64.6)
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == "error: catchment: no subcatchment to simulate\n"
        assert not (tmp_path / "out").exists()
        result = runner.invoke(main, ["rank", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert ("ranking: scenario_4 > scenario_1 > scenario_2 > scenario_3 > "
                "scenario_5\n") in result.output

    @pytest.mark.parametrize("keys,value,message", [
        (("storms", "depths_mm"), [16, 26, 1], "storm 1mm: zero baseline volume"),
        (("antecedent_dry_days",), 5e-324, "storm 16mm: zero baseline load for COD"),
    ], ids=["storm_without_runoff", "no_buildup"])
    def test_storm_only_the_run_rejects_exits_3(self, runner, sample_dir, tmp_path,
                                                keys, value, message):
        """A storm that sends no water to an outfall, or a dry period that
        builds up no load, has no baseline to reduce. `validate` cannot see
        this without simulating, so it passes, and `rank` fails in
        indicator assembly and writes nothing."""
        path = edited_project(sample_dir, tmp_path, keys, value)
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["rank", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert result.output == f"error: [stage: indicator assembly] {message}\n"
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
        path = edited_project(sample_dir, tmp_path, (*social, 0, "weight"), 1.0,
                              "published_tables.yaml",
                              more=[((*social, 1, "weight"), 0.0),
                                    ((*social, 2, "weight"), 0.0)])
        result = runner.invoke(main, ["rank", "--config", str(path), "--out",
                                      str(tmp_path / "out"), "--sensitivity",
                                      "water_reuse", "--delta", "0"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "sensitivity.json").exists()

    def test_rank_sensitivity_unknown_node_exits_3(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "rank", "--config", str(sample_dir / "published_tables.yaml"),
            "--out", str(tmp_path), "--sensitivity", "nonexistent"])
        assert result.exit_code == 3
        assert "no node" in result.output

    def test_tied_ranking_is_reported(self, runner, sample_dir, tmp_path):
        """Two scenarios with equal indicator rows tie on the comprehensive
        score; rank and report say so, and manifest.json does not change
        shape."""
        path = copy_project(sample_dir, tmp_path, "published_tables.yaml")
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
            assert "tied" not in json.loads((out / "manifest.json").read_text())
            assert json.loads((out / "benefit_report.json").read_text())["tied"]

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
        path = edited_project(sample_dir, tmp_path, ("storms", "depths_mm"), [1e-321])
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

    @pytest.mark.parametrize("command", ["validate", "rank"])
    def test_bad_rain_record_row_exits_2(self, runner, sample_dir, tmp_path,
                                         command):
        """A rain-record row without a depth fails at load time with the
        file, line and column, before `rank` writes anything."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        rain = tmp_path / "rainfall.csv"
        lines = rain.read_text().splitlines()
        lines[3] = lines[3].split(",")[0]
        rain.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"error: sizing.target.rainfall_csv: {rain}: line 4, column 2 "
                "(depth_mm): missing value\n") in result.output
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["validate", "rank"])
    @pytest.mark.parametrize("normalized,scale,extra,message", [
        (False, 0.0, None, "indicator 'ecological' sums to zero"),
        (True, 0.0, None, "normalized column 'ecological' sums to 0.0000"),
        (True, 1.05, None, "normalized column 'ecological' sums to 1.0500"),
        (True, 1.0, "extra.csv", "more than one direct table provides "
                                 "'ecological': <dir>/econ_social_indicators.csv, "
                                 "<dir>/extra.csv"),
    ])
    def test_leaf_column_errors_exit_2(self, runner, sample_dir, tmp_path,
                                       command, normalized, scale, extra,
                                       message):
        """The bundled direct table, with its `normalized` flag set and its
        `ecological` column scaled by `scale`, fails at load time when the
        column cannot fill its leaf: raw zeros, a pre-normalized column
        of zeros or summing to 1.05, or a second table (`extra`) providing the same
        indicator. `<dir>` in `message` is the project's directory."""
        tables = [{"file": "econ_social_indicators.csv", "normalized": normalized}]
        if extra is not None:
            (tmp_path / extra).write_text(
                "scenario,ecological\n" + "".join(f"scenario_{k},{k}\n"
                                                  for k in range(1, 6)))
            tables.append({"file": extra})
        path = edited_project(sample_dir, tmp_path, ("direct_tables",), tables)
        table = tmp_path / "econ_social_indicators.csv"
        rows = [line.split(",") for line in table.read_text().splitlines()]
        j = rows[0].index("ecological")
        for row in rows[1:]:
            row[j] = repr(float(row[j]) * scale)
        table.write_text("".join(",".join(row) + "\n" for row in rows))
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"error: hierarchy: leaf 'ecological': "
                f"{message.replace('<dir>', str(tmp_path))}\n") in result.output
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["validate", "rank"])
    def test_repeated_table_header_exits_2(self, runner, sample_dir, tmp_path,
                                           command):
        """A direct table whose header repeats an indicator is rejected at
        load, naming the repeated cell."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        table = tmp_path / "econ_social_indicators.csv"
        lines = table.read_text().splitlines()
        lines = [lines[0] + ",ecological"] + [line + ",0.2" for line in lines[1:]]
        table.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"error: direct_tables[0]: {table}: line 1, column 10: indicator "
                f"'ecological' already heads column 9\n") in result.output
        assert not (tmp_path / "out").exists()


class TestWarnings:
    @pytest.fixture()
    def zero_peak_delay(self, sample_dir, tmp_path):
        """A copy of the bundled published-tables project whose direct
        `peak_delay` column is 0 in every row."""
        shutil.copytree(sample_dir, tmp_path / "sample")
        table = tmp_path / "sample" / "environmental_indicators.csv"
        with table.open(newline="") as f:
            header, *rows = csv.reader(f)
        column = header.index("peak_delay")
        with table.open("w", newline="") as f:
            csv.writer(f).writerows([header] + [row[:column] + ["0"] + row[column + 1:]
                                                for row in rows])
        return tmp_path / "sample" / "published_tables.yaml"

    @pytest.mark.parametrize("command", ["validate", "rank"])
    def test_user_warning_prints_one_line(self, runner, zero_peak_delay, tmp_path,
                                          command):
        """A UserWarning reaches stderr as one `warning:` line, not as a
        Python warning naming library internals and a source line."""
        result = runner.invoke(main, [command, "--config", str(zero_peak_delay),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert result.stderr == ("warning: indicator 'peak_delay' is zero "
                                 "everywhere; using uniform shares\n")

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


def hashes_on_disk(out_dir):
    """{relative path: SHA-256} of every file under out_dir but the manifest."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out_dir.rglob("*")
        if p.is_file() and p != out_dir / "manifest.json"
    }


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
        hashes = hashes_on_disk(tmp_path)
        assert {name: hashes.get(name) for name in self.DIGESTS} == self.DIGESTS
        # the pre-normalized direct columns are used verbatim
        with open(sample_dir / "econ_social_indicators.csv", newline="") as f:
            direct = {row.pop("scenario"): row for row in csv.DictReader(f)}
        with open(tmp_path / "indicators" / "normalized.csv", newline="") as f:
            used = list(csv.DictReader(f))
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
        manifest = json.loads((out / "manifest.json").read_text())
        assert "sensitivity.json" in manifest["files"]
        assert manifest["files"] == hashes_on_disk(out)

    def test_each_series_formatted_once(self, sports_rank, sports_config):
        """A run's columns of an outfall table repeat another run's (a
        scenario outfall fed only by placement-free subcatchments repeats
        the baseline's), but each distinct (storm, outfall, cells) is
        formatted once, as a block of 1 + 4 pollutant columns. The time
        column, one column wide, is formatted once per storm."""
        out, _, widths = sports_rank
        blocks = []
        for path in (out / "results").glob("*/outfall_*.csv"):
            with path.open(newline="") as f:
                header, *rows = csv.reader(f)
            runs = dict.fromkeys(cell.partition("/")[0] for cell in header[1:])
            for run in runs:
                cells = [j for j, cell in enumerate(header) if cell.startswith(f"{run}/")]
                blocks.append((path, tuple(tuple(row[j] for j in cells) for row in rows)))
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
        path = edited_project(sample_dir, tmp_path, ("catchment", "outfalls"), outfalls,
                              more=[(("catchment", "links", 1, "to"), "OUT"),
                                    (("pollutants", 1, "name"), "A_TSS"),
                                    (("hierarchy", "children", 0, "children", 1,
                                      "children", 1, "name"), "a_tss_reduction")])
        out = tmp_path / "out"
        result = runner.invoke(main, ["rank", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        expected = sorted([f"outfall_{o}.csv" for o in outfalls] + ["water_balance.csv"])
        storm_dirs = list((out / "results").iterdir())
        assert len(storm_dirs) == 3
        runs = ["baseline"] + [f"scenario_{i}" for i in range(1, 6)]
        for storm_dir in storm_dirs:
            assert sorted(p.name for p in storm_dir.iterdir()) == expected
            for outfall in ("OUT", "OUT_A"):
                header = (storm_dir / f"outfall_{outfall}.csv").read_text().splitlines()[0]
                assert header == "t_s" + "".join(
                    f",{run}/{column}" for run in runs
                    for column in ["flow_Lps"] + [f"{p}_load_kg" for p in
                                                  ("TSS", "A_TSS", "TN", "TP")])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == hashes_on_disk(out)

    def test_concentration_derives_from_cells(self, sports_rank, sports_config):
        """Each cell of the `<p>_conc_mg_L` column an earlier layout wrote
        (`reference_pollutograph` of the same series), blanks included,
        equals bit for bit the concentration derived from the outfall
        table's flow and load cells of that run and row, and its second
        row's t_s."""
        out = sports_rank[0]
        runs = pipeline.simulate_all(sports_config, pipeline.build_storms(sports_config))
        pollutants = [p.name for p in sports_config.pollutants]
        files = checked = 0
        seen = set()
        for label, storm_runs in runs.items():
            for run in storm_runs:
                for outfall, (flows, *loads) in run.outfalls.items():
                    path = out / "results" / run.storm / f"outfall_{outfall}.csv"
                    with path.open(newline="") as f:
                        header, *rows = csv.reader(f)
                    columns = dict(zip(header, map(list, zip(*rows))))
                    step_s = float(columns["t_s"][1])
                    assert step_s == sports_config.storms.step_s
                    for pollutant, series in zip(pollutants, loads, strict=True):
                        earlier = reference_pollutograph(step_s, flows, series)
                        conc = [row[2] for row in list(csv.reader(
                            io.StringIO(earlier.decode("utf-8"), newline="")))[1:]]
                        derived = derived_concentration(
                            columns[f"{label}/flow_Lps"],
                            columns[f"{label}/{pollutant}_load_kg"], step_s)
                        assert derived == conc, (path, pollutant)
                        seen.update(cell == "" for cell in conc)
                        checked += 1
                    files += 1
        assert files == 6 * len(list(out.glob("results/*/outfall_*.csv"))) == 108
        assert checked == files * len(sports_config.pollutants)
        assert seen == {True, False}   # both blank and derived cells occur

    def test_report_manifest_lists_every_file(self, runner, sample_dir, tmp_path):
        result = runner.invoke(main, [
            "report", "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path), "--format", "markdown"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == hashes_on_disk(tmp_path)

    @pytest.mark.parametrize("command",
                             ["storm", "atrcr", "weights", "evaluate", "simulate"])
    def test_subcommand_files_equal_rank_files(self, command, sports_rank, runner,
                                               sample_dir, tmp_path):
        result = runner.invoke(main, [
            command, "--config", str(sample_dir / "sports_center.yaml"),
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        written = hashes_on_disk(tmp_path)
        assert written
        ranked = hashes_on_disk(sports_rank[0])
        assert {path: ranked.get(path) for path in written} == written

    def test_atrcr_curve_of_a_depth_target_equals_ranks(self, runner, sample_dir,
                                                         tmp_path):
        """A `depth_mm` target with a rainfall record sizes at that depth, and
        `rank` writes the same `atrcr_curve.csv` as `lidscore atrcr`, which
        prints no ATRCR line for it. Both read the curve from
        `compute_sizing`."""
        path = edited_project(sample_dir, tmp_path, ("sizing", "target"),
                              {"depth_mm": 26, "rainfall_csv": "rainfall.csv"})
        result = runner.invoke(main, ["atrcr", "--config", str(path),
                                      "--out", str(tmp_path / "atrcr")])
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote {tmp_path / 'atrcr' / 'atrcr_curve.csv'}\n"
        result = runner.invoke(main, ["rank", "--config", str(path),
                                      "--out", str(tmp_path / "rank")])
        assert result.exit_code == 0, result.output
        curve = (tmp_path / "atrcr" / "atrcr_curve.csv").read_bytes()
        assert (tmp_path / "rank" / "atrcr_curve.csv").read_bytes() == curve
        sizing = json.loads((tmp_path / "rank" / "sizing.json").read_text())
        assert sizing["target_depth_mm"] == 26.0

    def test_rank_reads_no_input_file_after_load(self, sports_rank, sample_dir,
                                                  tmp_path):
        """`load_config` reads every CSV input; a run of the loaded project
        writes the same files after they are deleted."""
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        loaded = config.load_config(path)
        for data in DATA_FILES:
            (tmp_path / data).unlink()
        manifest = pipeline.run_pipeline(loaded, tmp_path / "out",
                                         sensitivity=("environmental", 0.05))
        assert manifest.files == hashes_on_disk(sports_rank[0])

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
            manifests.append(json.loads((tmp_path / "manifest.json").read_text()))
        assert manifests[0]["files"] == manifests[1]["files"]
        assert manifests[1]["files"] == hashes_on_disk(tmp_path)
        assert hashes_on_disk(tmp_path) == hashes_on_disk(sports_rank[0])

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

        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        raw = yaml.safe_load(path.read_text())
        path.write_text(yaml.safe_dump(reverse_keys(raw), sort_keys=False))
        assert list(yaml.safe_load(path.read_text())) == list(reversed(raw))
        result = runner.invoke(main, [
            "rank", "--config", str(path), "--out", str(tmp_path / "out"),
            "--sensitivity", "environmental", "--delta", "0.05"])
        assert result.exit_code == 0, result.output
        assert hashes_on_disk(tmp_path / "out") == hashes_on_disk(sports_rank[0])


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
        assert hashes_on_disk(tmp_path) == hashes_on_disk(sports_rank[0])

    @pytest.mark.parametrize("loader", LOADERS)
    def test_malformed_yaml_names_file_and_line(self, monkeypatch, runner,
                                                sample_dir, tmp_path, loader):
        """The error names the file and the line of the unclosed mapping;
        the rest is the parser's wording, which differs between loaders."""
        monkeypatch.setattr(config, "_YAML_LOADER", loader)
        path = copy_project(sample_dir, tmp_path, "sports_center.yaml")
        text = path.read_text()
        assert text.splitlines()[87].endswith("{id: LA, from: JA, to: OUT_A, lag_s: 120}")
        path.write_text(text.replace("{id: LA, from: JA, to: OUT_A, lag_s: 120}",
                                     "{id: LA, from: JA, to: OUT_A, lag_s: 120"))
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
