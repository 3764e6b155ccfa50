"""Tests for project-file loading and batched validation."""

import dataclasses
import re
import shutil
from collections import Counter

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import DELETE, edit_project
from lidscore import ahp
from lidscore.cli import main
from lidscore.config import ProjectConfig, load_config
from lidscore.errors import ConfigError
from lidscore.hydrology import HortonParams
from lidscore.lid import (LidKind, LidPlacement, Scenario, control_capacity,
                          simulate_lid_unit)
from reference import read_tree


# a number in value position of a bundled project: after `key: `, `[` or `, `
NUMBER = re.compile(r"(?<=[:\[,] )-?\d+(?:\.\d+)?(?=[,\]}\n])|(?<=\[)-?\d+(?:\.\d+)?(?=[,\]])")


def numeric_leaves(node) -> int:
    if isinstance(node, dict):
        return sum(numeric_leaves(v) for v in node.values())
    if isinstance(node, list):
        return sum(numeric_leaves(v) for v in node)
    return isinstance(node, (int, float)) and not isinstance(node, bool)


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
        copy = load_config(edit_project(tmp_path))
        # semantically equal but different bytes -> different hash
        assert copy.config_hash != original.config_hash


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
        config = load_config(edit_project(
            tmp_path, {("catchment", "subcatchments", 0, "width_m"): "1e3"}))
        assert config.subcatchments["A"].width_m == 1000.0

    def test_absent_and_null_take_the_default(self, sample_dir, tmp_path):
        """An absent or null entry takes its field's default, such as
        Horton's constants, `tail_min`, `min_event_mm` and a placement's
        treated fraction (its host's impervious fraction)."""
        config = load_config(edit_project(tmp_path, {
            ("storms", "tail_min"): None, ("sizing", "min_event_mm"): DELETE,
            ("scenarios", 0, "placements", 0, "treated_fraction"): None,
            ("catchment", "subcatchments", 0, "horton"): None}))
        assert config.storms.tail_min == 60.0
        assert config.sizing.min_event_mm == 2.0
        assert config.scenarios[0].placements[0].treated_fraction == 0.53
        assert config.subcatchments["A"].horton == HortonParams(76.2, 3.81, 4.14)


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
        config = load_config(edit_project(tmp_path_factory.mktemp("capacity"), {
            ("lid_catalog", "bio_retention"): {"unit_capacity_m3_m2": capacity,
                                               "exfiltration_mm_hr": 0}}))
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
        config = load_config(edit_project(tmp_path, {
            **{("hierarchy", "children", i, "weight"): DELETE for i in range(3)},
            ("matrices", "comprehensive"): {
                "labels": ["environmental", "economic", "social"],
                "rows": [[1, "0.608/0.272", "0.608/0.120"], [None, 1, "0.272/0.120"],
                         [None, None, 1]]}}))
        tree, reports = config.tree, config.consistency
        assert tree.find("environmental").weight == pytest.approx(0.608, abs=1e-6)
        assert reports["comprehensive"].cr == pytest.approx(0.0, abs=1e-9)

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

        def read_from_matrices(raw):
            """The `matrices` section, after the weights of the children of
            each node it holds are removed."""
            nodes = [raw["hierarchy"], *raw["hierarchy"]["children"],
                     *raw["hierarchy"]["children"][0]["children"]]
            for node in nodes:
                for child in node["children"] if node["name"] in matrices else ():
                    child.pop("weight")
            return {node["name"]: {"labels": [c["name"] for c in node["children"]],
                                   "rows": matrices[node["name"]]}
                    for node in nodes if node["name"] in matrices}

        path = edit_project(tmp_path, {("matrices",): read_from_matrices})
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
        written = read_tree(tmp_path / "out")["weights.json"].parsed
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
