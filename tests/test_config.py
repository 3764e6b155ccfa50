"""Tests for project-file loading and batched validation."""

import dataclasses
import json
import re
import shutil
from collections import Counter

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from lidscore import ahp
from lidscore.cli import main
from lidscore.config import ProjectConfig, load_config
from lidscore.errors import ConfigError
from lidscore.hydrology import HortonParams
from lidscore.lid import (LidKind, LidPlacement, Scenario, control_capacity,
                          simulate_lid_unit)


# a number in value position of a bundled project: after `key: `, `[` or `, `
NUMBER = re.compile(r"(?<=[:\[,] )-?\d+(?:\.\d+)?(?=[,\]}\n])|(?<=\[)-?\d+(?:\.\d+)?(?=[,\]])")


def numeric_leaves(node) -> int:
    if isinstance(node, dict):
        return sum(numeric_leaves(v) for v in node.values())
    if isinstance(node, list):
        return sum(numeric_leaves(v) for v in node)
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def rewrite(sample_dir, tmp_path, mutate, name="sports_center.yaml"):
    """Copy a sample project (and its data files) applying `mutate` to the
    parsed YAML."""
    raw = yaml.safe_load((sample_dir / name).read_text())
    mutate(raw)
    for data in ("rainfall.csv", "environmental_indicators.csv",
                 "econ_social_indicators.csv"):
        shutil.copy(sample_dir / data, tmp_path / data)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


class TestValidProjects:
    def test_sports_center_loads(self, sports_config):
        assert len(sports_config.subcatchments) == 6
        assert len(sports_config.scenarios) == 5
        assert len(sports_config.pollutants) == 4
        assert sports_config.storms.depths_mm == (16.0, 26.0, 36.0)

    def test_published_tables_loads(self, published_config):
        assert [s.name for s in published_config.scenarios] == [
            f"scenario_{i}" for i in range(1, 6)]
        assert published_config.sizing.target.depth_mm == 26

    def test_weight_tree_resolves(self, sports_config):
        tree, reports = sports_config.tree, sports_config.consistency
        assert tree.find("environmental").weight == pytest.approx(0.608)
        assert reports == {}  # explicit weights, no matrices involved
        leaves = [l.indicator for l in tree.leaves()]
        assert len(leaves) == 15

    def test_loaded_project_is_frozen(self, sports_config):
        """`load_config` builds the project in one constructor call, after
        which no field can be set."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            sports_config.tree = None

    def test_config_hash_tracks_bytes(self, sample_dir, tmp_path):
        original = load_config(sample_dir / "sports_center.yaml")
        path = rewrite(sample_dir, tmp_path, lambda raw: None)
        copy = load_config(path)
        # semantically equal but different bytes -> different hash
        assert copy.config_hash != original.config_hash


class TestValidationFailures:
    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/project.yaml")

    def test_unknown_subcatchment_named(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["scenarios"][0]["placements"][0]["subcatchment"] = "Z"

        with pytest.raises(ConfigError, match="unknown subcatchment 'Z'"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_lid_area_exceeding_subcatchment(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["scenarios"][0]["placements"][0]["area_ha"] = 99.0

        with pytest.raises(ConfigError, match="exceeds subcatchment"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_treated_fraction_sum(self, sample_dir, tmp_path):
        def mutate(raw):
            for p in raw["scenarios"][0]["placements"]:
                p["subcatchment"] = "A"
                p["treated_fraction"] = 0.5

        with pytest.raises(ConfigError, match="treated fractions"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_missing_idf(self, sample_dir, tmp_path):
        def mutate(raw):
            del raw["storms"]["idf"]

        with pytest.raises(ConfigError, match="IDF"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_wrong_schema_version(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["schema_version"] = 99

        with pytest.raises(ConfigError, match="schema_version"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_duplicate_scenario_name(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["scenarios"][1]["name"] = raw["scenarios"][0]["name"]

        with pytest.raises(ConfigError, match="duplicate scenario"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_weights_must_sum_to_one(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["hierarchy"]["children"][0]["weight"] = 0.9

        with pytest.raises(ConfigError, match="sum"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_cycle_in_links(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["catchment"]["links"].append(
                {"id": "back", "from": "OUT_A", "to": "JA", "lag_s": 0})

        with pytest.raises(ConfigError, match="cycle"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_outlet_must_reach_declared_outfall(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["catchment"]["outfalls"] = ["OUT_B"]

        with pytest.raises(ConfigError, match="not a declared outfall"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_errors_are_batched(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["scenarios"][0]["placements"][0]["subcatchment"] = "Z"
            raw["scenarios"][1]["name"] = raw["scenarios"][2]["name"]
            del raw["storms"]["idf"]

        with pytest.raises(ConfigError) as err:
            load_config(rewrite(sample_dir, tmp_path, mutate))
        assert len(err.value.errors) >= 3

    def test_missing_direct_table_file(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["direct_tables"][0]["file"] = "nope.csv"

        with pytest.raises(ConfigError, match="nope.csv"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_direct_table_scenarios_checked_at_load(self, sample_dir, tmp_path):
        path = rewrite(sample_dir, tmp_path,
                       lambda raw: raw["scenarios"][0].update(name="renamed"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.errors == [
            f"direct_tables[0]: {tmp_path / 'econ_social_indicators.csv'}: "
            f"scenarios {['scenario_' + str(i) for i in range(1, 6)]} do not "
            f"match config scenarios "
            f"{['renamed'] + ['scenario_' + str(i) for i in range(2, 6)]}"]

    def test_atrcr_target_needs_rainfall(self, sample_dir, tmp_path):
        def mutate(raw):
            del raw["sizing"]["target"]["rainfall_csv"]

        with pytest.raises(ConfigError, match="rainfall_csv"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_sizing_overrides_out_of_range(self, sample_dir, tmp_path):
        """psi must be in (0, 1] and area_ha positive; both are reported
        in one batch."""
        def mutate(raw):
            raw["sizing"]["psi"] = 1.7
            raw["sizing"]["area_ha"] = 0

        with pytest.raises(ConfigError) as err:
            load_config(rewrite(sample_dir, tmp_path, mutate))
        assert err.value.errors == ["sizing: psi must be in (0, 1], got 1.7",
                                    "sizing: area_ha must be > 0, got 0.0"]

    @pytest.mark.parametrize("key,value,message", [
        ("step_s", 420, "step 420.0 s does not divide duration 90.0 min"),
        ("peak_ratio", 1.0, "peak ratio must be in (0, 1)"),
        ("depths_mm", [16, 0], "storm depth must be positive"),
    ])
    def test_storm_generator_rules_checked_at_load(self, sample_dir, tmp_path,
                                                   key, value, message):
        def mutate(raw):
            raw["storms"][key] = value

        with pytest.raises(ConfigError) as err:
            load_config(rewrite(sample_dir, tmp_path, mutate))
        assert err.value.errors == [f"storms: {message}"]

    def test_storm_depths_sharing_a_label(self, sample_dir, tmp_path):
        """Each storm is named by its depth (`f"{depth:g}mm"`), and that
        name keys the storm and heads a result directory: depths with one
        name are each reported, naming both depths, in one batch."""
        def mutate(raw):
            raw["storms"]["depths_mm"] = [16, 26, 26.0000001, 16.0, 36]

        with pytest.raises(ConfigError) as err:
            load_config(rewrite(sample_dir, tmp_path, mutate))
        assert err.value.errors == [
            "storms.depths_mm: depths 26.0 and 26.0000001 both give the storm "
            "label '26mm'",
            "storms.depths_mm: depths 16.0 and 16.0 both give the storm label '16mm'"]

    def test_link_capacity_is_unknown_key(self, sample_dir, tmp_path):
        """Links are pure lags: `capacity_lps`, which earlier versions
        accepted and ignored, is an unknown key like any other."""
        def mutate(raw):
            raw["catchment"]["links"][0]["capacity_lps"] = None

        with pytest.raises(ConfigError) as err:
            load_config(rewrite(sample_dir, tmp_path, mutate))
        assert err.value.errors == ["catchment.links[LA].capacity_lps: unknown key"]

    def test_non_finite_storm_rejected_at_load(self, sample_dir, tmp_path):
        """With b_min 0 and a step midpoint on the peak, the Chicago curve
        divides 0 by 0 there: the storm is a load error, with no NumPy
        warning on the way."""
        def mutate(raw):
            raw["storms"].update(duration_min=2, peak_ratio=0.25,
                                 idf={"a": 20, "b_min": 0, "n": 0.75})

        with pytest.raises(ConfigError) as err:
            load_config(rewrite(sample_dir, tmp_path, mutate))
        assert err.value.errors == ["storms: storm intensities are not all finite "
                                    "(with b_min 0, a step midpoint on the peak "
                                    "divides 0 by 0)"]


class TestLoadRules:
    """Every section is read by one reader: a value must be a finite
    number where a number belongs, a key must name a field, and an absent
    or null entry takes the field's default or is `missing`."""

    @pytest.mark.parametrize("name", ["sports_center.yaml", "published_tables.yaml"])
    def test_no_numeric_leaf_may_be_non_finite(self, sample_dir, tmp_path, name):
        """Each numeric leaf of a bundled project, set to `.nan` and then to
        `.inf`, fails to load. Earlier versions loaded 181 of the 468 such
        projects made from sports_center.yaml and 57 of 212 from
        published_tables.yaml, and some then crashed or ranked `nan`."""
        for data in sample_dir.glob("*.csv"):
            shutil.copy(data, tmp_path / data.name)
        text = (sample_dir / name).read_text()
        spans = [m.span() for m in NUMBER.finditer(text)]
        assert len(spans) == numeric_leaves(yaml.safe_load(text))
        path = tmp_path / name
        accepted = []
        for start, end in spans:
            for bad in (".nan", ".inf"):
                path.write_text(text[:start] + bad + text[end:])
                try:
                    load_config(path)
                except ConfigError:
                    continue
                accepted.append(f"line {text.count(chr(10), 0, start) + 1}: {bad}")
        assert accepted == []

    def test_number_written_as_exponent_reads(self, sample_dir, tmp_path):
        """PyYAML reads `1e3` as a string; it is the number 1000."""
        def mutate(raw):
            raw["catchment"]["subcatchments"][0]["width_m"] = "1e3"

        config = load_config(rewrite(sample_dir, tmp_path, mutate))
        assert config.subcatchments["A"].width_m == 1000.0

    def test_absent_and_null_take_the_default(self, sample_dir, tmp_path):
        """An absent or null entry takes its field's default, such as
        Horton's constants, `tail_min`, `min_event_mm` and a placement's
        treated fraction (its host's impervious fraction)."""
        def mutate(raw):
            raw["storms"]["tail_min"] = None
            del raw["sizing"]["min_event_mm"]
            raw["scenarios"][0]["placements"][0]["treated_fraction"] = None
            raw["catchment"]["subcatchments"][0]["horton"] = None

        config = load_config(rewrite(sample_dir, tmp_path, mutate))
        assert config.storms.tail_min == 60.0
        assert config.sizing.min_event_mm == 2.0
        assert config.scenarios[0].placements[0].treated_fraction == 0.53
        assert config.subcatchments["A"].horton == HortonParams(76.2, 3.81, 4.14)

    def test_missing_required_fields_batched(self, sample_dir, tmp_path):
        """Each absent required field is named by its path; earlier versions
        filled in a sentinel and reported what it broke, such as `D: area,
        width and slope must be positive`."""
        def mutate(raw):
            # D hosts no LID, so nothing else needs it or its link
            del raw["catchment"]["subcatchments"][3]["slope"]
            del raw["catchment"]["links"][3]["from"]
            del raw["pollutants"][0]["washoff_coeff"]
            del raw["storms"]["idf"]["n"]

        with pytest.raises(ConfigError) as err:
            load_config(rewrite(sample_dir, tmp_path, mutate))
        assert err.value.errors == [
            "catchment.subcatchments[D].slope: missing",
            "catchment.links[LD].from: missing",
            "pollutants[TSS].washoff_coeff: missing",
            "storms.idf.n: missing"]


class TestOneCapacity:
    @settings(max_examples=20, deadline=None)
    @given(capacity=st.floats(0.001, 3.0))
    def test_full_unit_holds_the_control_capacity(self, sample_dir, tmp_path_factory,
                                                  capacity):
        """`unit_capacity_m3_m2` is the one storage number of a facility: a
        unit with no exfiltration or underdrain, fed more than it holds,
        stores exactly its area times that capacity, which is the control
        capacity sizing counts. Earlier versions stored the depth of a
        separate layer geometry, whatever the override."""
        def mutate(raw):
            raw["lid_catalog"] = {"bio_retention": {"unit_capacity_m3_m2": capacity,
                                                    "exfiltration_mm_hr": 0}}

        config = load_config(rewrite(sample_dir, tmp_path_factory.mktemp("capacity"),
                                     mutate))
        spec = config.catalog[LidKind.BIO_RETENTION]
        placement = LidPlacement("A", LidKind.BIO_RETENTION, 0.1, 0.5)   # 1000 m2
        held = placement.area_m2 * capacity
        unit = simulate_lid_unit(spec, placement.area_m2, np.full(10, held / 5),
                                 np.zeros(10), 60.0)
        assert float(unit.overflow_m3.sum()) > 0.0
        assert unit.storage_final_m3 == held
        assert held == control_capacity(Scenario("one", (placement,)), config.catalog)


class TestMatrixDrivenHierarchy:
    def test_matrices_replace_missing_weights(self, sample_dir, tmp_path):
        def mutate(raw):
            for child in raw["hierarchy"]["children"]:
                child.pop("weight")
            raw["matrices"] = {
                "comprehensive": {
                    "labels": ["environmental", "economic", "social"],
                    "rows": [[1, "0.608/0.272", "0.608/0.120"],
                             [None, 1, "0.272/0.120"],
                             [None, None, 1]],
                }
            }

        config = load_config(rewrite(sample_dir, tmp_path, mutate))
        tree, reports = config.tree, config.consistency
        assert tree.find("environmental").weight == pytest.approx(0.608, abs=1e-6)
        assert reports["comprehensive"].cr == pytest.approx(0.0, abs=1e-9)

    def test_inconsistent_matrix_rejected(self, sample_dir, tmp_path):
        def mutate(raw):
            for child in raw["hierarchy"]["children"]:
                child.pop("weight")
            raw["matrices"] = {
                "comprehensive": {
                    "labels": ["environmental", "economic", "social"],
                    "rows": [[1, 9, "1/9"], [None, 1, 9], [None, None, 1]],
                }
            }

        with pytest.raises(ConfigError, match="CR"):
            load_config(rewrite(sample_dir, tmp_path, mutate))

    def test_rank_resolves_the_hierarchy_once(self, sample_dir, tmp_path,
                                              monkeypatch):
        """One `rank` of a project with three matrices resolves the
        hierarchy once and solves each matrix's eigenproblem once. The
        weights and consistency reports it writes equal those of separate
        `derive_weights` and `consistency` calls, bit for bit."""
        matrices = {
            "comprehensive": [[1, 2, 5], [None, 1, 3], [None, None, 1]],
            "environmental": [[1, "7/3"], [None, 1]],
            "water_quality": [[1, 2, 3, 5], [None, 1, 2, 3], [None, None, 1, 2],
                              [None, None, None, 1]],
        }

        def mutate(raw):
            raw["matrices"] = {}
            nodes = [raw["hierarchy"], *raw["hierarchy"]["children"],
                     *raw["hierarchy"]["children"][0]["children"]]
            for node in nodes:
                if node["name"] in matrices:
                    for child in node["children"]:
                        child.pop("weight")
                    raw["matrices"][node["name"]] = {
                        "labels": [c["name"] for c in node["children"]],
                        "rows": matrices[node["name"]]}

        path = rewrite(sample_dir, tmp_path, mutate)
        calls = Counter()
        for owner, name in ((ProjectConfig, "weight_tree"),
                            (ahp, "derive_weights"),
                            (ahp, "_principal_eigenvector")):
            def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        result = CliRunner().invoke(main, ["rank", "--config", str(path),
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert calls == {"weight_tree": 1, "derive_weights": 3,
                         "_principal_eigenvector": 3}

        monkeypatch.undo()
        config = load_config(path)
        written = json.loads((tmp_path / "out" / "weights.json").read_text())
        for node, entry in yaml.safe_load(path.read_text())["matrices"].items():
            matrix = ahp.PairwiseMatrix.from_rows(tuple(entry["labels"]), entry["rows"])
            report = ahp.consistency(matrix)
            assert written["consistency"][node] == {
                "lambda_max": report.lambda_max, "ci": report.ci,
                "ri": report.ri, "cr": report.cr, "passed": report.passed}
            children = config.tree.find(node).children
            assert [c.weight for c in children] \
                == ahp.derive_weights(matrix).weights.tolist()
        assert written["tree"] == config.tree.to_dict()
