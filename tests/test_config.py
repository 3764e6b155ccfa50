"""Tests for project-file loading and batched validation."""

import json
import shutil
from collections import Counter

import pytest
import yaml
from click.testing import CliRunner

from lidscore import ahp
from lidscore.cli import main
from lidscore.config import ProjectConfig, load_config
from lidscore.errors import ConfigError


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
        assert err.value.errors == ["sizing.psi: must be in (0, 1], got 1.7",
                                    "sizing.area_ha: must be positive, got 0"]

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

    def test_unread_link_capacity_still_loads(self, sample_dir, tmp_path):
        def mutate(raw):
            raw["catchment"]["links"][0]["capacity_lps"] = None

        config = load_config(rewrite(sample_dir, tmp_path, mutate))
        assert config.links[0].lag_s == 120


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
        for node, matrix in config.matrices.items():
            report = ahp.consistency(matrix)
            assert written["consistency"][node] == {
                "lambda_max": report.lambda_max, "ci": report.ci,
                "ri": report.ri, "cr": report.cr, "passed": report.passed}
            children = config.tree.find(node).children
            assert [c.weight for c in children] \
                == ahp.derive_weights(matrix).weights.tolist()
        assert written["tree"] == config.tree.to_dict()
