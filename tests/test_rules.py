"""Every load and run rule of the command line as one row of a table.

A row edits a copy of a bundled project (its YAML tree and its input
files, see `conftest.edit_project`), runs each of its commands on the copy
and pins what each prints: the exit code and the exact, ordered lines of
stdout and stderr together, `<dir>` standing for the project's directory.
Every line on stderr is an `error:` or `warning:` line, and a command that
exits nonzero leaves the project's directory as it was, so it writes
neither `--out` nor the project's `output_dir`.

A load rule exits 2 in `validate` and in `rank` alike: README promises
that a project that passes `validate` does not fail on a load rule later.
A new rule gets a row here. `test_docs_quote_printed_lines` checks that
every `error:` or `warning:` line that README.md or docs/config.md quotes is
some row's line, `<dir>` read as `sample`.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import DELETE, edit_project
from lidscore.cli import main

SPORTS, PUBLISHED = "sports_center.yaml", "published_tables.yaml"
ECON = "econ_social_indicators.csv"
LOAD = ("validate", "rank")
OK = "<dir>/sports_center.yaml: OK (6 subcatchments, 5 scenarios)"
RANKING = "ranking: scenario_4 > scenario_1 > scenario_2 > scenario_3 > scenario_5"

# the paths of hierarchy nodes of the bundled projects
ENV, ECONOMIC, SOCIAL = (("hierarchy", "children", i) for i in range(3))
QUANTITY = (*ENV, "children", 0)
QUALITY = (*ENV, "children", 1)
RUNOFF_LEAF = (*QUANTITY, "children", 0)
LANDSCAPE = (*SOCIAL, "children", 1)
A = ("catchment", "subcatchments", 0)
LA = ("catchment", "links", 0)
TSS = ("pollutants", 0)
SCENARIO_1 = ("scenarios", 0)
PLACEMENT = (*SCENARIO_1, "placements", 0)
TOP_LABELS = ["environmental", "economic", "social"]
# `social`'s children give no weight and read a consistent matrix instead
SOCIAL_MATRIX = {**{(*SOCIAL, "children", i, "weight"): DELETE for i in range(3)},
                 ("matrices", "social"): {
                     "labels": ["water_reuse", "landscape", "ecological"],
                     "rows": [[1, 2, 3], [None, 1, 2], [None, None, 1]]}}
ENVIROMENTAL = {("matrices", "enviromental"): {
    "labels": ["water_quantity", "water_quality"], "rows": [[1, 1], [None, 1]]}}
NO_SUBCATCHMENT = ("error: catchment: no subcatchment to simulate: a project simulates "
                   "when a hierarchy leaf is simulated or it has no scenarios")
TABLE = ("error: direct_tables[0]: <dir>/econ_social_indicators.csv: scenarios ['scenario_1', "
         "'scenario_2', 'scenario_3', 'scenario_4', 'scenario_5'] do not match config "
         "scenarios")
UNIFORM_SHARES = ("warning: indicator 'peak_delay' is zero everywhere; using uniform "
                  "shares")
# `rank` and `report` print these two warnings on stdout, in their summary
SUMMARY_WARNING = re.compile(r"warning: (ranking has tied comprehensive scores"
                             r"|\S+ does not meet the required control volume)$")


def unread(node: str) -> str:
    return (f"error: matrices.{node}: no node reads this matrix: a node reads the matrix of "
            f"its name when it has two or more children and none gives a weight")


def cell(line: int, column: int, value):
    """A CSV edit: the cell at `line`, `column` set to `value`, or the row cut
    before it for None."""
    def edit(text):
        lines = text.splitlines()
        cells = lines[line - 1].split(",")
        cells[column - 1:] = [] if value is None else [value, *cells[column:]]
        lines[line - 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def scaled(column: str, factor: float):
    """A CSV edit: every cell of `column` times `factor`, written as its repr."""
    def edit(text):
        rows = [line.split(",") for line in text.splitlines()]
        j = rows[0].index(column)
        for row in rows[1:]:
            row[j] = repr(float(row[j]) * factor)
        return "".join(",".join(row) + "\n" for row in rows)
    return edit


def copied_row(source: str, target: str):
    """A CSV edit: the row of scenario `target` replaced by `source`'s cells."""
    def edit(text):
        header, *lines = text.splitlines()
        rows = dict(line.split(",", 1) for line in lines)
        rows[target] = rows[source]
        return "\n".join([header] + [f"{k},{v}" for k, v in rows.items()]) + "\n"
    return edit


@dataclass(frozen=True)
class Rule:
    id: str
    edits: dict     # see conftest.edit_project
    runs: dict      # command and its options -> (exit code, output lines)
    project: str = SPORTS
    files: dict = field(default_factory=dict)   # see conftest.edit_project
    out: bool = True   # run with `--out <dir>/out`, else into `output_dir`


def rule(id, edits, *lines, commands=LOAD, exit=2, **kwargs) -> Rule:
    """A Rule whose `commands` each exit `exit` and print `lines`."""
    return Rule(id, edits, {command: (exit, lines) for command in commands}, **kwargs)


def short_of_volume(*scenarios) -> list:
    return [f"warning: scenario_{i} does not meet the required control volume"
            for i in scenarios]


def unknown_key(section: str, keys: tuple, extra=None) -> Rule:
    """`zz_typo: 1` at `keys`: a key that names no field is one entry, named
    by its path, and does not drop its section, so nothing else is listed.
    Earlier versions ignored it, so a misspelled key took the default."""
    key = f"{section}.zz_typo" if section else "zz_typo"
    return rule(f"unknown_key_{section or 'top'}", {**(extra or {}), (*keys, "zz_typo"): 1},
                f"error: {key}: unknown key")


RULES = [
    # --- the file itself ---------------------------------------------------
    rule("missing_file", {}, "error: config file not found: <dir>/sports_center.yaml",
         files={SPORTS: None}),
    rule("schema_version", {("schema_version",): 99}, "error: schema_version: expected 1, got 99"),

    # --- unknown keys, one section of each kind ------------------------------
    unknown_key("", ()),
    unknown_key("catchment", ("catchment",)),
    unknown_key("catchment.subcatchments[A]", A),
    unknown_key("catchment.subcatchments[A].land_uses[0]", (*A, "land_uses", 0)),
    unknown_key("catchment.subcatchments[A].horton", (*A, "horton")),
    unknown_key("catchment.links[LA]", LA),
    unknown_key("pollutants[TSS]", TSS),
    unknown_key("lid_catalog.bio_retention", ("lid_catalog", "bio_retention")),
    unknown_key("lid_catalog.storage_tank", ("lid_catalog", "storage_tank"),
                {("lid_catalog", "storage_tank", "exfiltration_mm_hr"): 5}),
    unknown_key("scenarios[scenario_1]", SCENARIO_1),
    unknown_key("scenarios[scenario_1].placements[0]", PLACEMENT),
    unknown_key("storms", ("storms",)),
    unknown_key("storms.idf", ("storms", "idf")),
    unknown_key("sizing", ("sizing",)),
    unknown_key("sizing.target", ("sizing", "target")),
    unknown_key("sizing.existing_facilities[0]", ("sizing", "existing_facilities", 0)),
    unknown_key("hierarchy", ("hierarchy",)),
    unknown_key("hierarchy.children[0].children[0].children[0]", RUNOFF_LEAF),
    unknown_key("matrices.social", ("matrices", "social"), SOCIAL_MATRIX),
    unknown_key("direct_tables[0]", ("direct_tables", 0)),
    rule("unknown_key_misspelled_field", {(*PLACEMENT, "treated_fracton"): 0.2},
         "error: scenarios[scenario_1].placements[0].treated_fracton: unknown key"),
    # retired keys: a facility's storage is its `unit_capacity_m3_m2` alone,
    # and links are pure lags (a null value is listed too)
    rule("layers_key", {("lid_catalog", "bio_retention", "layers"): {"berm_mm": 150}},
         "error: lid_catalog.bio_retention.layers: unknown key"),
    rule("link_capacity", {(*LA, "capacity_lps"): 100,
                           ("catchment", "links", 1, "capacity_lps"): None},
         "error: catchment.links[LA].capacity_lps: unknown key",
         "error: catchment.links[LB].capacity_lps: unknown key"),

    # --- numbers: a number, finite, not a boolean ----------------------------
    rule("non_numeric", {("sizing", "psi"): "abc", ("storms", "duration_min"): "ninety"},
         "error: storms.duration_min: expected a number, got 'ninety'",
         "error: sizing.psi: expected a number, got 'abc'"),
    rule("class_factor_not_a_number", {(*TSS, "surface_class_factors", "roads"): "abc"},
         "error: pollutants[TSS].surface_class_factors.roads: expected a number, got 'abc'"),
    # a YAML boolean is not a number: `yes` loaded as 1.0, and a `true` depth
    # as a 1 mm storm that gave no outfall volume
    rule("dry_days_bool", {("antecedent_dry_days",): True},
         "error: antecedent_dry_days: expected a number, got True"),
    rule("depth_bool", {("storms", "depths_mm"): [16, 26, True]},
         "error: storms.depths_mm: expected a number, got True"),
    # a nan weight used to rank every scenario `nan`, in name order
    rule("leaf_weight_nan", {(*LANDSCAPE, "weight"): float("nan")},
         "error: hierarchy.children[2].children[1].weight: nan is not finite"),
    rule("node_weight_nan", {(*SOCIAL, "weight"): float("nan")},
         "error: hierarchy.children[2].weight: nan is not finite"),
    # non-finite values that used to crash the run
    rule("lag_nan", {(*LA, "lag_s"): float("nan")},
         "error: catchment.links[LA].lag_s: nan is not finite"),
    rule("dry_days_inf", {("antecedent_dry_days",): float("inf")},
         "error: antecedent_dry_days: inf is not finite"),
    # a subcatchment that fails to build is listed once: the placements it
    # hosts do not each name an unknown subcatchment
    rule("unbuilt_subcatchment", {(*A, "width_m"): float("nan")},
         "error: catchment.subcatchments[A].width_m: nan is not finite"),

    # --- missing fields and names ---------------------------------------------
    rule("width_missing", {(*A, "width_m"): None},
         "error: catchment.subcatchments[A].width_m: missing"),
    # earlier versions filled in a sentinel and reported what it broke, such
    # as `D: area, width and slope must be positive`; D hosts no LID, so
    # nothing else needs it or its link
    rule("required_fields_missing", {
        ("catchment", "subcatchments", 3, "slope"): DELETE,
        ("catchment", "links", 3, "from"): DELETE, (*TSS, "washoff_coeff"): DELETE,
        ("storms", "idf", "n"): DELETE},
         "error: catchment.subcatchments[D].slope: missing",
         "error: catchment.links[LD].from: missing",
         "error: pollutants[TSS].washoff_coeff: missing",
         "error: storms.idf.n: missing"),
    rule("idf_missing", {("storms", "idf"): DELETE},
         "error: storms.idf: IDF constants are required (a, b_min, n)"),
    rule("outlet_and_to_missing", {(*A, "outlet"): DELETE, (*LA, "to"): DELETE},
         "error: catchment.subcatchments[A].outlet: missing or empty",
         "error: catchment.links[LA].to: missing or empty"),
    rule("scenario_name_empty", {(*SCENARIO_1, "name"): ""},
         "error: scenarios[0].name: missing or empty"),
    # a YAML key with no value names nothing
    rule("scenario_name_null", {(*SCENARIO_1, "name"): None},
         "error: scenarios[0].name: missing or empty"),
    rule("pollutant_name_empty", {(*TSS, "name"): ""},
         "error: pollutants[0].name: missing or empty"),
    rule("pollutant_name_null", {(*TSS, "name"): None},
         "error: pollutants[0].name: missing or empty"),

    # --- ranges ------------------------------------------------------------------
    rule("slope_zero", {(*A, "slope"): 0},
         "error: catchment.subcatchments[A]: slope must be > 0, got 0.0"),
    rule("manning_negative", {(*A, "manning_n"): {"impervious": 0.012, "pervious": -0.1}},
         "error: catchment.subcatchments[A]: manning_n.pervious must be > 0, got -0.1"),
    # a land use that fails to build leaves its subcatchment unbuilt rather
    # than short of area, and a link that fails skips the outlet check
    # rather than cutting a path: either is listed once
    rule("land_use_out_of_range", {(*A, "land_uses", 0, "runoff_coefficient"): 2},
         "error: catchment.subcatchments[A].land_uses[0]: runoff_coefficient must be in "
         "[0, 1], got 2.0"),
    rule("link_lag_negative", {(*LA, "lag_s"): -5},
         "error: catchment.links[LA]: lag_s must be >= 0, got -5.0"),
    rule("placement_area_zero", {(*PLACEMENT, "area_ha"): 0},
         "error: scenarios[scenario_1].placements[0]: area_ha must be > 0, got 0.0"),
    rule("class_factor_negative", {(*TSS, "surface_class_factors", "roads"): -1},
         "error: pollutants[TSS]: surface_class_factors.roads must be >= 0, got -1.0"),
    # the rule quality.buildup applies inside the run
    rule("dry_days_negative", {("antecedent_dry_days",): -1},
         "error: antecedent_dry_days: must be >= 0, got -1.0"),
    rule("facility_volume_negative", {("sizing", "existing_facilities", 0, "volume_m3"): -1},
         "error: sizing.existing_facilities[storage_tanks]: must be >= 0, got -1.0"),
    rule("sizing_psi_zero", {("sizing", "psi"): 0},
         "error: sizing: psi must be in (0, 1], got 0.0"),
    rule("sizing_overrides", {("sizing", "psi"): 1.7, ("sizing", "area_ha"): 0},
         "error: sizing: psi must be in (0, 1], got 1.7",
         "error: sizing: area_ha must be > 0, got 0.0"),
    # a psi that is not given is the composite, resolved and checked at load
    rule("zero_composite_psi", {("catchment", "subcatchments"): lambda raw: [
        {**sub, "land_uses": [{**use, "runoff_coefficient": 0} for use in sub["land_uses"]]}
        for sub in raw["catchment"]["subcatchments"]]},
         "error: sizing: psi must be in (0, 1], got 0.0 (the land-use composite)"),
    rule("atrcr_out_of_range", {("sizing", "target", "atrcr"): 1.5},
         "error: sizing.target: atrcr must be in (0, 1), got 1.5"),
    # rank sized at -5 mm and exited 3
    rule("depth_target_negative", {("sizing", "target"): {"depth_mm": -5}},
         "error: sizing.target: depth_mm must be > 0, got -5.0"),

    # --- names that become result paths or headers ------------------------------
    rule("scenario_named_baseline", {(*SCENARIO_1, "name"): "baseline"},
         "error: scenarios[baseline]: 'baseline' is reserved for the run without LID",
         f"{TABLE} ['baseline', 'scenario_2', 'scenario_3', 'scenario_4', 'scenario_5']"),
    rule("scenario_name_escapes", {(*SCENARIO_1, "name"): "../../escape_dir"},
         "error: scenarios[0].name: '../../escape_dir' must be a plain file name (no '/' "
         "or '\\', not '.' or '..')"),
    rule("scenario_name_dots", {(*SCENARIO_1, "name"): ".."},
         "error: scenarios[0].name: '..' must be a plain file name (no '/' or '\\', not "
         "'.' or '..')"),
    rule("outlet_dot", {(*A, "outlet"): "."},
         "error: catchment.subcatchments[A].outlet: '.' must be a plain file name (no '/' "
         "or '\\', not '.' or '..')"),
    rule("link_to_path", {(*LA, "to"): "up/OUT_A"},
         "error: catchment.links[LA].to: 'up/OUT_A' must be a plain file name (no '/' or "
         "'\\', not '.' or '..')"),
    rule("duplicate_scenario", {("scenarios", 1, "name"): "scenario_1"},
         "error: scenarios[scenario_1]: duplicate scenario name",
         f"{TABLE} ['scenario_1', 'scenario_1', 'scenario_3', 'scenario_4', 'scenario_5']"),
    # a second pollutant named like the first, as a second scenario
    rule("duplicate_pollutant", {("pollutants", 4): lambda raw: dict(
        raw["pollutants"][0], washoff_coeff=0.01)},
         "error: pollutants[TSS]: duplicate pollutant name"),
    # `TSS` and `tss` would both head `tss_reduction`, read by one leaf
    rule("pollutants_equal_in_lower_case", {("pollutants", 4): lambda raw: dict(
        raw["pollutants"][0], name="tss")},
         "error: pollutants[tss]: pollutants 'TSS' and 'tss' both give the indicator "
         "'tss_reduction'"),
    rule("pollutant_named_built_in", {("pollutants", 3, "name"): "Runoff"},
         "error: pollutants[Runoff]: pollutant 'Runoff' gives the indicator "
         "'runoff_reduction', which is built in"),
    # storm depths that would share one storm name, a result directory
    rule("depths_equal", {("storms", "depths_mm"): [16, 26, 26]},
         "error: storms.depths_mm: depths 26.0 and 26.0 both give the storm label '26mm'"),
    rule("depths_sharing_a_label", {("storms", "depths_mm"): [16, 26, 26.0000001, 16.0, 36]},
         "error: storms.depths_mm: depths 26.0 and 26.0000001 both give the storm label "
         "'26mm'",
         "error: storms.depths_mm: depths 16.0 and 16.0 both give the storm label '16mm'"),
    # results and --sensitivity key nodes by name, and kept one of the two
    rule("duplicate_node_name", {(*ECONOMIC, "children", 2, "name"): "water_quantity"},
         "error: hierarchy.children[1].children[2]: node name 'water_quantity' is also used "
         "at hierarchy.children[0].children[0]"),

    # --- sections and entries of the wrong shape -----------------------------------
    rule("depths_not_a_list", {("storms", "depths_mm"): 26},
         "error: storms.depths_mm: expected a list, got 26",
         "error: storms.depths_mm: at least one storm depth required"),
    rule("subcatchments_not_a_list", {("catchment", "subcatchments"): 5},
         "error: catchment.subcatchments: expected a list, got 5",
         *(f"error: pollutants[{pollutant}].surface_class_factors.{group}: no land use has "
           f"surface class '{group}'" for pollutant in ("TSS", "COD", "TN", "TP")
           for group in ("roads", "roofs", "green")),
         *(f"error: scenarios[scenario_{i}].placements[{j}]: unknown subcatchment '{host}'"
           for i in range(1, 6) for j, host in enumerate("AEBFC")),
         "error: sizing: needs land uses or an explicit sizing.psi",
         "error: sizing: needs subcatchments or an explicit sizing.area_ha"),
    rule("outfalls_not_a_list", {("catchment", "outfalls"): "OUT_A"},
         "error: catchment.outfalls: expected a list, got 'OUT_A'"),
    rule("scenarios_not_a_list", {("scenarios",): "oops"},
         "error: scenarios: expected a list, got 'oops'"),
    rule("placements_not_a_list", {(*SCENARIO_1, "placements"): 3},
         "error: scenarios[scenario_1].placements: expected a list, got 3"),
    rule("pollutant_not_a_mapping", {TSS: "TSS"},
         "error: pollutants[0]: expected a mapping, got 'TSS'"),
    rule("storms_not_a_mapping", {("storms",): [1]},
         "error: storms: expected a mapping, got [1]"),
    rule("idf_not_a_mapping", {("storms", "idf"): [1]},
         "error: storms.idf: expected a mapping, got [1]"),
    rule("hierarchy_not_a_mapping", {("hierarchy",): [1]},
         "error: hierarchy: expected a mapping, got [1]"),
    rule("facilities_not_a_list", {("sizing", "existing_facilities"): 5},
         "error: sizing.existing_facilities: expected a list, got 5"),
    rule("node_not_a_mapping", {ENV: 5},
         "error: hierarchy.children[0]: expected a mapping, got 5"),
    rule("children_not_a_list", {(*ENV, "children"): 7},
         "error: hierarchy.children[0].children: expected a list, got 7"),
    rule("leaf_weight_not_a_number", {(*RUNOFF_LEAF, "weight"): "abc"},
         "error: hierarchy.children[0].children[0].children[0].weight: expected a number, "
         "got 'abc'"),
    # every string field and name takes a scalar, not only a node's
    rule("leaf_name_not_a_scalar", {(*RUNOFF_LEAF, "name"): [1]},
         "error: hierarchy.children[0].children[0].children[0].name: expected a scalar, "
         "got [1]"),
    rule("indicator_not_a_scalar", {(*RUNOFF_LEAF, "indicator"): {"a": 1}},
         "error: hierarchy.children[0].children[0].children[0].indicator: expected a "
         "scalar, got {'a': 1}"),
    rule("land_use_name_not_a_scalar", {(*A, "land_uses", 0, "name"): ["roof", "x"]},
         "error: catchment.subcatchments[A].land_uses[0].name: expected a scalar, got "
         "['roof', 'x']"),
    rule("surface_class_not_a_scalar", {(*A, "land_uses", 0, "surface_class"): {"a": 1}},
         "error: catchment.subcatchments[A].land_uses[0].surface_class: expected a scalar, "
         "got {'a': 1}"),
    # an entry whose id or name is no scalar is labelled by its index
    rule("link_id_not_a_scalar", {(*LA, "id"): {"x": 1}},
         "error: catchment.links[0].id: expected a scalar, got {'x': 1}"),
    rule("subcatchment_id_null", {(*A, "id"): None},
         "error: catchment.subcatchments[0].id: missing",
         *(f"error: scenarios[scenario_{i}].placements[0]: unknown subcatchment 'A'"
           for i in range(1, 6))),
    rule("pollutant_name_not_a_scalar", {(*TSS, "name"): ["a"]},
         "error: pollutants[0].name: expected a scalar, got ['a']"),
    rule("unknown_placement_host", {("scenarios", 1): {"name": {"x": 1}, "placements": [
        {"subcatchment": "NOPE", "kind": "bio_retention"}]}},
         "error: scenarios[1].name: expected a scalar, got {'x': 1}",
         "error: scenarios[1].placements[0]: unknown subcatchment 'NOPE'"),
    # a file name is a scalar too, not a path built from its repr
    rule("rainfall_csv_not_a_scalar", {("sizing", "target", "rainfall_csv"): {"x": 1}},
         "error: sizing.target.rainfall_csv: expected a scalar, got {'x': 1}"),
    rule("table_file_not_a_scalar", {("direct_tables", 0, "file"): {"x": 1}},
         "error: direct_tables[0].file: expected a scalar, got {'x': 1}"),
    rule("matrix_csv_not_a_scalar", {("matrices", "environmental", "csv"): {"x": 1}},
         "error: matrices.environmental.csv: expected a scalar, got {'x': 1}",
         unread("environmental")),
    # a matrix row that is not a list used to fail with a TypeError or
    # KeyError text, or be read one character per cell
    rule("matrix_int_row", {**SOCIAL_MATRIX, ("matrices", "social", "rows", 0): 5},
         "error: matrices.social.rows[0]: expected a list, got 5"),
    rule("matrix_mapping_row", {**SOCIAL_MATRIX, ("matrices", "social", "rows", 0): {0: 1}},
         "error: matrices.social.rows[0]: expected a list, got {0: 1}"),
    rule("matrix_string_row", {**SOCIAL_MATRIX, ("matrices", "social", "rows", 0): "xyz"},
         "error: matrices.social.rows[0]: expected a list, got 'xyz'"),
    # the per-surface maps have two keys; a misspelled third loaded silently
    rule("depression_storage_key", {(*A, "depression_storage_mm"): {
        "impervious": 1.5, "pervious": 2.5, "imprevious": 9}},
         "error: catchment.subcatchments[A].depression_storage_mm.imprevious: unknown key",
         out=False),
    rule("manning_key", {(*A, "manning_n"): {
        "impervious": 0.012, "pervious": 0.15, "Pervious": 0.2}},
         "error: catchment.subcatchments[A].manning_n.Pervious: unknown key", out=False),

    # --- each problem listed once, with no error that follows from it; these
    # --- run without --out, so nothing is written into output_dir either
    # an entry whose name fails to read is not built and joins no name check:
    # it used to be built as `''`, a duplicate and a phantom table scenario
    rule("scenario_names", {("scenarios", 1, "name"): {"x": 1}, ("scenarios", 2, "name"): None},
         "error: scenarios[1].name: expected a scalar, got {'x': 1}",
         "error: scenarios[2].name: missing or empty", out=False),
    rule("pollutant_names", {("pollutants", 1, "name"): None, ("pollutants", 2, "name"): [1]},
         "error: pollutants[1].name: missing or empty",
         "error: pollutants[2].name: expected a scalar, got [1]", out=False),
    # a mapping output_dir made `storm` write into a directory `{'x': 1}`
    rule("output_dir", {("output_dir",): {"x": 1}},
         "error: output_dir: expected a scalar, got {'x': 1}", out=False),
    rule("name", {("name",): [1, 2]}, "error: name: expected a scalar, got [1, 2]", out=False),
    rule("facility_label", {("sizing", "existing_facilities", 1, "label"): [1]},
         "error: sizing.existing_facilities[1].label: expected a scalar, got [1]", out=False),
    # an outfall that fails to read used to show only as the outlet that
    # drains to the outfall it should have declared
    rule("outfall", {("catchment", "outfalls", 0): {"x": 1}},
         "error: catchment.outfalls[0]: expected a scalar, got {'x': 1}", out=False),
    # a target gives one design depth: `rank` used to size at depth_mm while
    # `atrcr` printed the depth of the atrcr target
    rule("both_targets", {("sizing", "target", "depth_mm"): 40},
         "error: sizing.target: give one of depth_mm and atrcr, not both", out=False),
    rule("no_target", {("sizing", "target", "atrcr"): None},
         "error: sizing.target: need either depth_mm or atrcr", out=False),
    rule("four_sections", {("storms", "tail_minutes"): 0,
                           (*LANDSCAPE, "weight"): float("nan"),
                           (*RUNOFF_LEAF, "polarity"): "bogus", **ENVIROMENTAL},
         "error: storms.tail_minutes: unknown key",
         "error: hierarchy.children[0].children[0].children[0]: leaf runoff_reduction: bad "
         "polarity bogus",
         "error: hierarchy.children[2].children[1].weight: nan is not finite",
         unread("enviromental"), out=False),
    # the hierarchy's problems are listed with every other section's, each by
    # its path; earlier versions read the hierarchy only once every other
    # section was clean, and stopped at its first problem
    rule("every_problem_by_path", {
        (*RUNOFF_LEAF, "polarity"): "bogus", (*QUANTITY, "children", 1, "source"): "bogus",
        (*ECONOMIC, "children", 2, "weight"): 1.368,
        (*A, "land_uses", 0, "name"): ["roof", "x"], **ENVIROMENTAL,
        ("storms", "tail_min"): -5},
         "error: catchment.subcatchments[A].land_uses[0].name: expected a scalar, got "
         "['roof', 'x']",
         "error: storms: tail_min -5.0 must be >= 0 and a whole number of 60.0 s steps",
         "error: hierarchy.children[0].children[0].children[0]: leaf runoff_reduction: bad "
         "polarity bogus",
         "error: hierarchy.children[0].children[0].children[1]: leaf peak_reduction: bad "
         "source bogus",
         "error: hierarchy.children[1]: node economic: child weights sum to 1.713, not 1",
         unread("enviromental")),
    rule("errors_batched", {(*PLACEMENT, "subcatchment"): "Z",
                            ("scenarios", 1, "name"): "scenario_3",
                            ("storms", "idf"): DELETE},
         "error: scenarios[scenario_1].placements[0]: unknown subcatchment 'Z'",
         "error: scenarios[scenario_3]: duplicate scenario name",
         "error: storms.idf: IDF constants are required (a, b_min, n)",
         f"{TABLE} ['scenario_1', 'scenario_3', 'scenario_3', 'scenario_4', 'scenario_5']"),

    # --- the catchment network and placements -----------------------------------
    rule("unknown_subcatchment", {(*PLACEMENT, "subcatchment"): "ZZ"},
         "error: scenarios[scenario_1].placements[0]: unknown subcatchment 'ZZ'"),
    rule("lid_area_exceeding_host", {(*PLACEMENT, "area_ha"): 99.0},
         "error: scenarios[scenario_1]: LID area 99.000 ha exceeds subcatchment A area 12.2 ha"),
    rule("treated_fractions", {key: value for i in range(5) for key, value in (
        ((*SCENARIO_1, "placements", i, "subcatchment"), "A"),
        ((*SCENARIO_1, "placements", i, "treated_fraction"), 0.5))},
         "error: scenarios[scenario_1]: treated fractions in A sum to 2.500 (> 1)"),
    rule("link_cycle", {("catchment", "links", 6): {"id": "back", "from": "OUT_A", "to": "JA",
                                                    "lag_s": 0}},
         "error: catchment.links: link network contains a cycle: JA -> OUT_A -> JA"),
    rule("outlet_undeclared", {("catchment", "outfalls"): ["OUT_B"]},
         *(f"error: catchment.subcatchments[{sub}]: outlet 'J{sub}' drains to 'OUT_{sub}', "
           "which is not a declared outfall" for sub in "ACDEF")),
    # a lag that routing shifts past the grid: NumPy refused the allocation
    # (606 TiB at 1e15 s, a dimension too large at 1e300 s) with exit 1
    rule("link_lag_huge", {(*LA, "lag_s"): 1e15},
         "error: catchment.subcatchments[A]: duration_min + tail_min + the 1e+15 s lag from "
         "outlet 'JA' to 'OUT_A' exceed 1000000 steps of 60.0 s"),

    # --- storms -----------------------------------------------------------------
    rule("storm_step_not_dividing", {("storms", "step_s"): 420},
         "error: storms: step 420.0 s does not divide duration 90.0 min"),
    rule("peak_ratio", {("storms", "peak_ratio"): 1.0},
         "error: storms: peak ratio must be in (0, 1)"),
    rule("depth_zero", {("storms", "depths_mm"): [16, 0]},
         "error: storms: storm depth must be positive"),
    # a dry tail that is negative, overflows or is not whole steps (the
    # simulation rounded 1.5 and 2.5 steps both to 2)
    *(rule(f"tail_{tail:g}", {("storms", "tail_min"): tail},
           f"error: storms: tail_min {tail!r} must be >= 0 and a whole number of 60.0 s steps")
      for tail in (-5.0, 1e308, 1.5, 2.5)),
    # storm grids that could not be built: OverflowError, ValueError
    rule("tiny_step", {("storms", "step_s"): 5e-324},
         "error: storms: duration_min + tail_min exceed 1000000 steps of 5e-324 s"),
    rule("long_storm", {("storms", "duration_min"): 1e300},
         "error: storms: duration_min + tail_min exceed 1000000 steps of 60.0 s"),
    rule("long_tail", {("storms", "tail_min"): 1e300},
         "error: storms: duration_min + tail_min exceed 1000000 steps of 60.0 s"),
    # a storm of nan rain, and with it NumPy's invalid-value warning
    rule("non_finite_storm", {("storms", "duration_min"): 2, ("storms", "peak_ratio"): 0.25,
                              ("storms", "idf"): {"a": 20, "b_min": 0, "n": 0.75}},
         "error: storms: storm intensities are not all finite (with b_min 0, a step midpoint "
         "on the peak divides 0 by 0)"),

    # --- pollutants -------------------------------------------------------------
    rule("lid_removal_kind", {(*TSS, "lid_removal", "bioretention"): 0.8},
         "error: pollutants[TSS]: unknown LID kind 'bioretention'; expected one of "
         "['bio_retention', 'grassed_swale', 'sunken_green', 'permeable_pavement', "
         "'storage_tank']"),
    # a misspelled class used to leave every `roofs` land use at factor 1
    rule("class_factor_unused", {(*TSS, "surface_class_factors"): {
        "roads": 1.0, "roof": 0.6, "green": 0.2}},
         "error: pollutants[TSS].surface_class_factors.roof: no land use has surface class "
         "'roof'"),

    # --- sizing -----------------------------------------------------------------
    rule("atrcr_needs_rainfall", {("sizing", "target", "rainfall_csv"): DELETE},
         "error: sizing.target: atrcr target needs rainfall_csv"),
    rule("no_deep_event", {("sizing", "min_event_mm"): 100000},
         "error: sizing.min_event_mm: the rainfall record has no event deeper than 100000 mm"),
    # a `rainfall_csv` next to a `depth_mm` target is read at load too
    # (`lidscore atrcr` uses it); without the key the project loads
    rule("depth_target_reads_its_rainfall_csv",
         {("sizing", "target"): {"depth_mm": 26, "rainfall_csv": "gone.csv"}},
         "error: sizing.target.rainfall_csv: <dir>/gone.csv: cannot read: No such file or "
         "directory"),
    rule("depth_target_without_rainfall_csv", {("sizing", "target"): {"depth_mm": 26}},
         OK, commands=("validate",), exit=0),
    # the published project's sizing, without the land uses or subcatchments
    # that its runoff coefficient or area would come from
    rule("sizing_without_land_uses", {("catchment", "subcatchments", 0, "land_uses"): []},
         "error: sizing: needs land uses or an explicit sizing.psi", project=PUBLISHED),
    rule("sizing_without_subcatchments", {("catchment", "subcatchments"): [],
                                          ("scenarios",): [], ("sizing", "psi"): 0.5},
         "error: sizing: needs subcatchments or an explicit sizing.area_ha",
         NO_SUBCATCHMENT, project=PUBLISHED),
    Rule("atrcr_without_rainfall", {}, {"atrcr": (2, (
        "error: config has no sizing.target.rainfall_csv",))}, project=PUBLISHED),

    # --- the hierarchy and its matrices -------------------------------------------
    rule("matrix_judgment_not_a_number", {("matrices", "comprehensive"): {
        "labels": TOP_LABELS, "rows": [["one", 1.0, 2.0], [None, 1, 2], [None, None, 1]]}},
         "error: matrices.comprehensive: row 1 (environmental), column 1 (environmental): "
         "'one' is not a number or a fraction",
         unread("comprehensive")),
    rule("matrix_file_missing", {("matrices", "comprehensive"): {"csv": "nope.csv"}},
         "error: matrices.comprehensive: <dir>/nope.csv: cannot read: No such file or "
         "directory",
         unread("comprehensive")),
    rule("matrix_judgment_missing", {("matrices", "comprehensive"): {
        "labels": TOP_LABELS, "rows": [[1, 3], [None, 1, 2], [None, None, 1]]}},
         "error: matrices.comprehensive: row 1 (environmental), column 3 (social): missing "
         "value",
         unread("comprehensive")),
    # a lower-triangle judgment that contradicts its mirror
    rule("matrix_not_reciprocal", {("matrices", "comprehensive"): {
        "labels": TOP_LABELS, "rows": [[1, 3, 5], [0.5, 1, 2], [None, None, 1]]}},
         "error: matrices.comprehensive: row 2 (economic), column 1 (environmental): 0.5 is "
         "not the reciprocal of 3 in row 1 (environmental), column 2 (economic)",
         unread("comprehensive")),
    rule("matrix_inconsistent", {
        **{(*node, "weight"): DELETE for node in (ENV, ECONOMIC, SOCIAL)},
        ("matrices", "comprehensive"): {
            "labels": TOP_LABELS, "rows": [[1, 9, "1/9"], [None, 1, 9], [None, None, 1]]}},
         "error: matrices.comprehensive: node 'comprehensive' rejected: CR = 6.1303 >= 0.1"),
    # a matrix that no node reads: a misspelled node, and a node whose
    # children all give weights, which used to be ignored silently
    rule("matrix_misspelled_node", ENVIROMENTAL, unread("enviromental")),
    rule("matrix_of_weighted_node", {("matrices", "social"): SOCIAL_MATRIX[
        ("matrices", "social")]}, unread("social")),
    # a node where some children give a weight and some do not, also where
    # its matrix would replace the weight given: `water_quantity`'s 0.7 used
    # to be dropped silently for 0.5
    rule("weights_mixed", {(*QUALITY, "weight"): None},
         "error: hierarchy.children[0]: node environmental: 1 of its 2 children give a "
         "weight; give every child a weight, or none and a pairwise matrix "
         "matrices.environmental"),
    rule("matrix_overriding_a_child_weight", {
        (*QUALITY, "weight"): None, ("matrices", "environmental"): ENVIROMENTAL[
            ("matrices", "enviromental")]},
         "error: hierarchy.children[0]: node environmental: 1 of its 2 children give a "
         "weight; give every child a weight, or none and a pairwise matrix "
         "matrices.environmental"),
    rule("weights_not_summing", {(*ENV, "weight"): 0.9},
         "error: hierarchy: node comprehensive: child weights sum to 1.2920000000000003, not 1"),
    rule("reciprocal_benefit_leaf", {(*LANDSCAPE, "transform"): "reciprocal"},
         "error: hierarchy.children[2].children[1]: leaf landscape: the reciprocal transform "
         "applies only to cost leaves"),
    # hierarchy leaves that their source cannot fill: a simulated indicator
    # the simulation does not produce, a direct one no table provides, a
    # facility-derived one without favorability scores
    rule("simulated_leaf_unproduced", {(*QUALITY, "children", 0, "indicator"): "zn_reduction"},
         "error: hierarchy: leaf 'tss_reduction': the simulation does not produce "
         "'zn_reduction' (it produces runoff_reduction, peak_reduction, peak_delay, "
         "tss_reduction, cod_reduction, tn_reduction, tp_reduction)"),
    rule("direct_leaf_unprovided", {(*SOCIAL, "children", 2, "indicator"): "biodiversity"},
         "error: hierarchy: leaf 'ecological': no direct table provides 'biodiversity'"),
    rule("facility_leaf_unscored", {(*SOCIAL, "children", 2): {
        "name": "ecological", "weight": 0.230, "source": "facility_derived",
        "indicator": "shade"}},
         "error: hierarchy: leaf 'ecological': bio_retention: no favorability score for "
         "'shade'"),

    # --- input files: named by file, line and column ------------------------------
    rule("cell_not_a_number", {}, "error: direct_tables[0]: <dir>/econ_social_indicators.csv: "
         "line 3, column 3 (maintenance_cost): 'n/a' is not a number",
         files={ECON: cell(3, 3, "n/a")}),
    rule("cell_missing", {}, "error: direct_tables[0]: <dir>/econ_social_indicators.csv: "
         "line 3, column 3 (maintenance_cost): missing value", files={ECON: cell(3, 3, None)}),
    # column 10 of an 8-indicator table
    rule("cell_beyond_header", {}, "error: direct_tables[0]: "
         "<dir>/econ_social_indicators.csv: line 3, column 10: more cells than the header "
         "has columns", files={ECON: cell(3, 10, "0.2")}),
    rule("cell_nan", {}, "error: direct_tables[0]: <dir>/econ_social_indicators.csv: line 3, "
         "column 3 (maintenance_cost): 'nan' is not finite", files={ECON: cell(3, 3, "nan")}),
    rule("cell_inf", {}, "error: direct_tables[0]: <dir>/econ_social_indicators.csv: line 5, "
         "column 9 (ecological): 'inf' is not finite", files={ECON: cell(5, 9, "inf")}),
    rule("rain_depth_nan", {}, "error: sizing.target.rainfall_csv: <dir>/rainfall.csv: line 4, "
         "column 2 (depth_mm): 'nan' is not finite", files={"rainfall.csv": cell(4, 2, "nan")}),
    # a rain-record row without a depth
    rule("rain_row_cut", {}, "error: sizing.target.rainfall_csv: <dir>/rainfall.csv: line 4, "
         "column 2 (depth_mm): missing value", files={"rainfall.csv": cell(4, 2, None)}),
    # a consistent comparison of the top-level weights, with one judgment blank
    rule("matrix_file_cell_missing", {
        **{(*node, "weight"): DELETE for node in (ENV, ECONOMIC, SOCIAL)},
        ("matrices", "comprehensive"): {"csv": "matrix.csv"}},
         "error: matrices.comprehensive: <dir>/matrix.csv: line 2, column 3 (social): "
         "missing value",
         files={"matrix.csv": "environmental,economic,social\n1,0.608/0.272,\n"
                              ",1,0.272/0.120\n,,1\n"}),
    rule("table_file_missing", {("direct_tables", 0, "file"): "nope.csv"},
         "error: direct_tables[0]: <dir>/nope.csv: cannot read: No such file or directory"),
    # a file name that YAML reads as a number names a file too
    rule("table_file_number", {("direct_tables", 0, "file"): 5},
         "error: direct_tables[0]: <dir>/5: cannot read: No such file or directory"),
    rule("table_repeats_a_header", {}, "error: direct_tables[0]: "
         "<dir>/econ_social_indicators.csv: line 1, column 10: indicator 'ecological' "
         "already heads column 9",
         files={ECON: lambda text: "".join(line + (",0.2\n" if i else ",ecological\n")
                                           for i, line in enumerate(text.splitlines()))}),
    rule("table_scenarios", {(*SCENARIO_1, "name"): "renamed"},
         "error: direct_tables[0]: <dir>/econ_social_indicators.csv: scenarios ['scenario_1', "
         "'scenario_2', 'scenario_3', 'scenario_4', 'scenario_5'] do not match config "
         "scenarios ['renamed', 'scenario_2', 'scenario_3', 'scenario_4', 'scenario_5']"),
    # a quoted "false" is a string, which used to mark the table normalized
    rule("normalized_quoted", {("direct_tables", 0, "normalized"): "false"},
         "error: direct_tables[0].normalized: expected true or false, got 'false'"),
    # the bundled direct table, `normalized` set and its `ecological` column
    # scaled, when the column cannot fill its leaf: raw zeros, a normalized
    # column of zeros or summing to 1.05, or a second table providing it
    *(rule(id, {("direct_tables",): [{"file": ECON, "normalized": normalized}, *extra]},
           f"error: hierarchy: leaf 'ecological': {message}",
           files={ECON: scaled("ecological", scale), **files})
      for id, normalized, scale, extra, files, message in [
          ("raw_column_zero", False, 0.0, [], {}, "indicator 'ecological' sums to zero"),
          ("normalized_column_zero", True, 0.0, [], {},
           "normalized column 'ecological' sums to 0.0000"),
          ("normalized_column_off", True, 1.05, [], {},
           "normalized column 'ecological' sums to 1.0500"),
          ("two_tables_provide", True, 1.0, [{"file": "extra.csv"}],
           {"extra.csv": "scenario,ecological\n" + "".join(f"scenario_{k},{k}\n"
                                                           for k in range(1, 6))},
           "more than one direct table provides 'ecological': "
           "<dir>/econ_social_indicators.csv, <dir>/extra.csv")]),

    # --- warnings: one line each, and the run goes on -------------------------------
    # a UserWarning prints as one `warning:` line, not as a Python warning
    # naming library internals and a source line
    Rule("zero_peak_delay", {}, {
        "validate": (0, (UNIFORM_SHARES,
                         "<dir>/published_tables.yaml: OK (1 subcatchments, 5 scenarios)")),
        "rank": (0, (UNIFORM_SHARES, RANKING, *short_of_volume(4, 5)))},
         project=PUBLISHED,
         files={"environmental_indicators.csv": scaled("peak_delay", 0.0)}),
    # two scenarios with equal indicator rows tie; raw tables, as a copied
    # row would break the column sums of a normalized one
    Rule("tied_ranking", {("direct_tables",): [
        {"file": "environmental_indicators.csv", "normalized": False},
        {"file": ECON, "normalized": False}]}, {"rank": (0, (
            RANKING, "warning: ranking has tied comprehensive scores", *short_of_volume(4, 5)))},
         project=PUBLISHED,
         files={name: copied_row("scenario_1", "scenario_2")
                for name in ("environmental_indicators.csv", ECON)}),

    # --- what only a run can see: `validate` passes and the run exits 3 -----------
    # a storm that sends no water to an outfall, a dry period that builds up
    # no load: no baseline to reduce
    Rule("storm_without_runoff", {("storms", "depths_mm"): [16, 26, 1]}, {
        "validate": (0, (OK,)),
        "rank": (3, ("error: [stage: indicator assembly] storm 1mm: zero baseline volume",))}),
    Rule("no_buildup", {("antecedent_dry_days",): 5e-324}, {
        "validate": (0, (OK,)),
        "rank": (3, ("error: [stage: indicator assembly] storm 16mm: zero baseline load for "
                     "COD",))}),
    # a storm so deep that a surface's outflow overflows a float: the
    # runoff kernel's `**` raised OverflowError (exit 1)
    Rule("storm_overflowing_outflow", {("storms", "depths_mm"): [16, 26, 1e300]}, {
        "validate": (0, (OK,)),
        "rank": (3, ("error: [stage: simulation] subcatchment A, impervious surface: step 0 "
                     "(t = 0 s): the outflow of its ponded depth overflows a float",))}),
    # an infinite washoff rate washes off the remaining mass in its step;
    # the power used to print NumPy's overflow warning
    Rule("washoff_exponent_huge", {(*TSS, "washoff_exponent"): 1e15}, {
        "validate": (0, (OK,)),
        "rank": (0, ("ranking: scenario_2 > scenario_4 > scenario_5 > scenario_3 > scenario_1",
                     *short_of_volume(4, 5)))}),
    Rule("evaluate_without_scenarios", {("scenarios",): []}, {
        "evaluate": (3, ("error: [stage: indicator assembly] indicator table needs at least "
                         "one scenario",))}),
    Rule("sensitivity_unknown_node", {}, {"rank --sensitivity nonexistent": (3, (
        "error: [stage: sensitivity] no node named 'nonexistent'",))}, project=PUBLISHED),

    # --- a project without subcatchments ---------------------------------------------
    # a baseline-only run simulates, and used to fail with no outfall series
    rule("no_subcatchment", {("catchment",): DELETE, ("scenarios",): DELETE,
                             **{("pollutants", i, "surface_class_factors"): DELETE
                                for i in range(4)},
                             ("sizing", "psi"): 0.5, ("sizing", "area_ha"): 60},
         NO_SUBCATCHMENT),
    # the published project without `catchment` and placements loads, as no
    # leaf is simulated, and ranks; `simulate` used to exit 3, `[stage:
    # simulation] no outfall series`
    Rule("simulate_without_subcatchments", {
        ("catchment",): DELETE, **{("scenarios", i, "placements"): DELETE for i in range(5)},
        ("sizing", "psi"): 0.6, ("sizing", "area_ha"): 64.6}, {
        "simulate": (2, ("error: catchment: no subcatchment to simulate",)),
        "rank": (0, (RANKING, *short_of_volume(1, 2, 3, 4, 5)))}, project=PUBLISHED),
]

CASES = [pytest.param(rule, command, id=f"{rule.id}-{command}")
         for rule in RULES for command in rule.runs]


@pytest.mark.parametrize("rule,command", CASES)
def test_rule(tmp_path, rule, command):
    path = edit_project(tmp_path, rule.edits, rule.project, rule.files)
    before = sorted(tmp_path.rglob("*"))
    out = ["--out", str(tmp_path / "out")] if rule.out else []
    result = CliRunner().invoke(main, [*command.split(), "--config", str(path), *out])
    if not isinstance(result.exception, (SystemExit, type(None))):
        raise result.exception
    code, lines = rule.runs[command]
    lines = [line.replace("<dir>", str(tmp_path)) for line in lines]
    assert (result.exit_code, result.output.splitlines()) == (code, lines)
    assert result.stderr.splitlines() == [
        line for line in lines
        if line.startswith(("error:", "warning:")) and not SUMMARY_WARNING.match(line)]
    if code:
        assert sorted(tmp_path.rglob("*")) == before


DOCS = [Path(__file__).parent.parent / name for name in ("README.md", "docs/config.md")]
# a printed line quoted in backticks, with the line wraps inside it
QUOTED = re.compile(r"`((?:error|warning):\s[^`]*)`")


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_docs_quote_printed_lines(doc):
    """Every `error:` or `warning:` line that the document quotes, its line
    wraps collapsed, is the line a row pins, run on a project in `sample/`.
    A quote with a `<placeholder>` stands for many lines and is skipped."""
    printed = {line.replace("<dir>", "sample") for rule in RULES
               for _, lines in rule.runs.values() for line in lines}
    quoted = [" ".join(span.split()) for span in QUOTED.findall(doc.read_text())]
    assert quoted
    assert [line for line in quoted
            if line not in printed and not re.search(r"<\w+>", line)] == []
