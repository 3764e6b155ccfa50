"""Tests for normalization, hierarchical roll-up and ranking.

The headline regression: rebuilding the case-study benefit table from the
published raw indicators and weights, every cell within +/-0.001 and the
ranking 4 > 1 > 2 > 3 > 5.
"""

import json

import numpy as np
import pytest

import reference
from lidscore.errors import ValidationError
from lidscore.evaluator import (IndicatorTable, StormSummary, TreeNode,
                                evaluate_environmental, facility_scores,
                                normalize, rank_scenarios, rollup)
from lidscore.lid import LidKind, LidPlacement, LidSpec, Scenario
from lidscore.pipeline import _persist_table, _Writer


def reference_tree():
    return reference.weight_tree(reference.hierarchy_spec())[0]


def reference_tables():
    env = IndicatorTable(
        reference.SCENARIOS,
        list(reference.ENVIRONMENTAL_RAW),
        np.array(list(reference.ENVIRONMENTAL_RAW.values())).T,
    )
    econ = IndicatorTable(
        reference.SCENARIOS,
        list(reference.ECON_SOCIAL_NORMALIZED),
        np.array(list(reference.ECON_SOCIAL_NORMALIZED.values())).T,
    )
    return env, econ


def leaf(indicator, **spec):
    return TreeNode(name=indicator, weight=1.0, indicator=indicator, **spec)


def normalize_table(table):
    """`normalize` applied to every column of `table`, as a table."""
    return IndicatorTable(table.scenarios, table.indicators, np.column_stack(
        [normalize(leaf(i), table.column(i), table.scenarios)
         for i in table.indicators]))


def full_normalized_table():
    tree = reference_tree()
    env, econ = reference_tables()
    columns = [normalize(l, env.column(l.indicator), env.scenarios)
               if l.indicator in env.indicators else econ.column(l.indicator)
               for l in tree.leaves()]
    order = [l.indicator for l in tree.leaves()]
    return tree, IndicatorTable(reference.SCENARIOS, order, np.column_stack(columns))


class TestNormalize:
    def test_simple_column(self):
        out = normalize(leaf("x"), [2.0, 3.0, 5.0], ["a", "b", "c"])
        np.testing.assert_allclose(out, [0.2, 0.3, 0.5])

    def test_published_runoff_column(self):
        env, _ = reference_tables()
        out = normalize(leaf("runoff_reduction"), env.column("runoff_reduction"),
                        env.scenarios)
        np.testing.assert_allclose(
            out, [0.2119, 0.1877, 0.1954, 0.2151, 0.1899], atol=1e-4)

    def test_uniform_column(self):
        out = normalize(leaf("x"), np.full(5, 7.0), reference.SCENARIOS)
        np.testing.assert_allclose(out, 0.2)

    def test_columns_sum_to_one(self):
        env, _ = reference_tables()
        out = normalize_table(env)
        np.testing.assert_allclose(out.values.sum(axis=0), 1.0, atol=1e-9)

    def test_idempotent(self):
        """A second pass only re-rounds: the column already sums to 1
        within a few ulps."""
        env, _ = reference_tables()
        once = normalize_table(env)
        twice = normalize_table(once)
        np.testing.assert_allclose(once.values, twice.values, rtol=1e-15, atol=0)

    def test_zero_column_errors_with_name(self):
        with pytest.raises(ValidationError, match="'dead' sums to zero$"):
            normalize(leaf("dead"), np.zeros(2), ["a", "b"])

    def test_zero_column_uniform_policy(self):
        with pytest.warns(UserWarning, match="uniform"):
            out = normalize(leaf("peak_delay"), np.zeros(2), ["a", "b"])
        np.testing.assert_allclose(out, 0.5)

    def test_mixed_signs_summing_to_zero_are_not_uniform(self):
        """Only a column of zeros gets uniform shares: delays that cancel
        out are an error naming the scenarios with negative entries."""
        with pytest.raises(ValidationError,
                           match=r"^indicator 'peak_delay' sums to zero "
                                 r"\(negative in s1\)$"):
            normalize(leaf("peak_delay"), [-1.0, 1.0, 0.0], ["s1", "s2", "s3"])

    def test_negative_column_sum_names_scenarios(self):
        """Peaks that LID makes earlier give negative delays; the error
        names every scenario with a negative entry."""
        with pytest.raises(ValidationError,
                           match=r"'peak_delay' has a negative column sum "
                                 r"\(negative in s1, s3\)"):
            normalize(leaf("peak_delay"), [-3.0, 1.0, -0.5], ["s1", "s2", "s3"])

    def test_reciprocal_cost_transform(self):
        """Raw direct cost columns flip to 1/x before Eq-3 normalization."""
        cost = leaf("cost", polarity="cost", transform="reciprocal", source="direct")
        out = normalize(cost, [2.0, 4.0], ["a", "b"])
        np.testing.assert_allclose(out, [2 / 3, 1 / 3])

    def test_scale_invariance_of_ranking_inputs(self):
        """Scaling one raw column leaves normalized values unchanged."""
        env, _ = reference_tables()
        scaled = IndicatorTable(env.scenarios, env.indicators,
                                env.values * [3.7] + 0.0)
        np.testing.assert_allclose(normalize_table(env).values,
                                   normalize_table(scaled).values, atol=1e-12)


class TestRollup:
    def test_published_environmental_scores(self):
        tree, table = full_normalized_table()
        report = rollup(tree, table)
        np.testing.assert_allclose(
            report.node_scores["environmental"],
            reference.EXPECTED_BENEFITS["environmental"], atol=1e-3)

    def test_published_economic_scores(self):
        tree, table = full_normalized_table()
        report = rollup(tree, table)
        assert report.score("economic", "scenario_4") == pytest.approx(
            0.210, abs=1e-3)

    def test_all_twenty_cells(self):
        tree, table = full_normalized_table()
        report = rollup(tree, table)
        for node, expected in reference.EXPECTED_BENEFITS.items():
            np.testing.assert_allclose(report.node_scores[node], expected,
                                       atol=1e-3, err_msg=node)

    def test_single_leaf_tree_is_identity(self):
        tree = reference.weight_tree({
            "name": "goal", "children": [
                {"name": "x", "weight": 1.0, "indicator": "x",
                 "source": "direct"}]})[0]
        t = IndicatorTable(["a", "b"], ["x"], np.array([[0.25], [0.75]]))
        report = rollup(tree, t)
        np.testing.assert_allclose(report.node_scores["goal"], [0.25, 0.75])

    def test_missing_column_names_leaf(self):
        tree, table = full_normalized_table()
        smaller = IndicatorTable(table.scenarios, table.indicators[:-1],
                                 table.values[:, :-1])
        with pytest.raises(ValidationError, match="ecological"):
            rollup(tree, smaller)

    def test_requires_normalized_table(self):
        tree = reference_tree()
        env, _ = reference_tables()
        with pytest.raises(ValidationError, match="normalized"):
            rollup(tree, env)

    def test_scores_sum_to_one_across_scenarios(self):
        """With Eq-style normalized leaves every node's scores sum to 1."""
        tree, table = full_normalized_table()
        # replace the verbatim direct columns with re-normalized ones so
        # every column sums to exactly 1
        exact = IndicatorTable(table.scenarios, table.indicators,
                               table.values / table.values.sum(axis=0))
        report = rollup(tree, exact)
        for node, scores in report.node_scores.items():
            assert float(np.sum(scores)) == pytest.approx(1.0, abs=1e-9), node

    def test_rollup_linearity(self):
        tree = reference.weight_tree({
            "name": "goal", "children": [
                {"name": "x", "weight": 0.6, "indicator": "x", "source": "direct"},
                {"name": "y", "weight": 0.4, "indicator": "y", "source": "direct"}]})[0]
        a = np.array([[0.3, 0.6], [0.7, 0.4]])
        b = np.array([[0.5, 0.2], [0.5, 0.8]])
        ta = IndicatorTable(["s1", "s2"], ["x", "y"], a)
        tb = IndicatorTable(["s1", "s2"], ["x", "y"], b)
        tmix = IndicatorTable(["s1", "s2"], ["x", "y"], 0.5 * a + 0.5 * b)
        mix = rollup(tree, tmix).node_scores["goal"]
        parts = 0.5 * rollup(tree, ta).node_scores["goal"] \
            + 0.5 * rollup(tree, tb).node_scores["goal"]
        np.testing.assert_allclose(mix, parts, atol=1e-12)


def flat_tree(weights):
    """A root over leaves x, y, z with the given weights."""
    return reference.weight_tree({"name": "goal", "children": [
        {"name": n, "weight": w, "indicator": n, "source": "direct"}
        for n, w in zip("xyz", weights)]})[0]


class TestReweighted:
    def test_siblings_keep_their_proportions(self):
        got = flat_tree((0.5, 0.3, 0.2)).reweighted("x", 0.6)
        assert [c.weight for c in got.root.children] == pytest.approx([0.6, 0.24, 0.16])

    def test_node_without_sibling_weight(self):
        """A node holding all of its parent's weight keeps it at 1 with its
        siblings at 0, and cannot move off 1 with nothing to rescale."""
        tree = flat_tree((1.0, 0.0, 0.0))
        assert [c.weight for c in tree.reweighted("x", 1.0).root.children] == [1.0, 0.0, 0.0]
        with pytest.raises(ValidationError, match="no sibling weight"):
            tree.reweighted("x", 0.9)


class TestComprehensive:
    def test_published_ranking(self):
        tree, table = full_normalized_table()
        report = rollup(tree, table)
        assert report.ranking == reference.EXPECTED_RANKING
        assert not report.tied
        for name, expected in zip(reference.SCENARIOS,
                                  reference.EXPECTED_BENEFITS["comprehensive"]):
            assert report.score(tree.root.name, name) == pytest.approx(
                expected, abs=1e-3)

    def test_identical_scenarios_tie(self):
        names = ["a", "b", "c"]
        ranking, tied = rank_scenarios(names, np.array([0.2, 0.2, 0.2]))
        assert ranking == ["a", "b", "c"]
        assert tied

    def test_ranking_is_descending(self):
        ranking, tied = rank_scenarios(["a", "b", "c"], np.array([0.1, 0.5, 0.3]))
        assert ranking == ["b", "c", "a"]
        assert not tied


class TestFacilityScores:
    def catalog(self):
        return {
            LidKind.BIO_RETENTION: LidSpec(
                LidKind.BIO_RETENTION, 0.3,
                favorability={"landscape": 5.0}, unit_cost_weight=2.0),
            LidKind.STORAGE_TANK: LidSpec(
                LidKind.STORAGE_TANK, 1.0,
                favorability={"landscape": 1.0}, unit_cost_weight=1.0),
        }

    def leaf(self, **kw):
        spec = {"name": "landscape", "weight": 1.0, "indicator": "landscape",
                "source": "facility_derived"}
        spec.update(kw)
        return TreeNode(**spec)

    def test_mode_a_linear_in_area(self):
        scenarios = [
            Scenario("small", (LidPlacement("s", LidKind.BIO_RETENTION, 1.0, 0.1),)),
            Scenario("large", (LidPlacement("s", LidKind.BIO_RETENTION, 3.0, 0.1),)),
        ]
        column = facility_scores(scenarios, self.catalog(), self.leaf())
        assert column[1] == pytest.approx(3 * column[0])

    def test_mode_b_reciprocal_cost(self):
        """Unit costs 1 with areas 2 and 4 ha: cost bases 2 and 4, whose
        reciprocals normalize to 2/3 and 1/3."""
        catalog = self.catalog()
        scenarios = [
            Scenario("cheap", (LidPlacement("s", LidKind.STORAGE_TANK, 2.0, 0.1),)),
            Scenario("dear", (LidPlacement("s", LidKind.STORAGE_TANK, 4.0, 0.1),)),
        ]
        leaf = self.leaf(name="construction_cost", indicator="construction_cost",
                         polarity="cost", transform="reciprocal")
        column = facility_scores(scenarios, catalog, leaf)
        np.testing.assert_allclose(column, [2.0, 4.0])
        # the reciprocal applies once, in normalize
        np.testing.assert_allclose(normalize(leaf, column, ["cheap", "dear"]),
                                   [2 / 3, 1 / 3])
        # a scenario without facilities has no cost basis to invert
        scenarios.append(Scenario("none", ()))
        column = facility_scores(scenarios, catalog, leaf)
        with pytest.raises(ValidationError, match=r"not positive in none\)"):
            normalize(leaf, column, [s.name for s in scenarios])

    def test_missing_favorability_errors(self):
        scenarios = [Scenario("s", (LidPlacement("s", LidKind.BIO_RETENTION,
                                                 1.0, 0.1),))]
        leaf = self.leaf(name="ecological", indicator="ecological")
        with pytest.raises(ValidationError, match="ecological"):
            facility_scores(scenarios, self.catalog(), leaf)

    def test_direct_injection_column_sums(self):
        """The published economic/social table keeps its near-1 column
        sums when injected verbatim."""
        _, econ = reference_tables()
        sums = econ.values.sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=2e-3)


class TestEvaluateEnvironmental:
    def summary(self, storm, volume, peak, peak_time, loads=None):
        return StormSummary(storm=storm, volume_m3=volume, peak_lps=peak,
                            peak_time_s=peak_time, loads_kg=loads or {"TSS": 1.0})

    def test_identical_runs_give_zeros(self):
        base = [self.summary("26mm", 100.0, 50.0, 1800.0)]
        table = evaluate_environmental(base, {"s1": list(base)}, ["TSS"])
        np.testing.assert_allclose(table.values, 0.0, atol=1e-12)

    def test_hand_reduction(self):
        """Volumes (100, 200) vs (80, 160) over two storms -> 20%, and vs
        (110, 220) -> -10%."""
        base = [self.summary("a", 100.0, 40.0, 600.0),
                self.summary("b", 200.0, 90.0, 600.0)]
        scen = [self.summary("a", 80.0, 30.0, 720.0),
                self.summary("b", 160.0, 72.0, 840.0)]
        worse = [self.summary("a", 110.0, 40.0, 600.0),
                 self.summary("b", 220.0, 90.0, 600.0)]
        table = evaluate_environmental(base, {"s1": scen, "s2": worse}, ["TSS"])
        assert table.column("runoff_reduction")[0] == pytest.approx(20.0)
        assert table.column("peak_reduction")[0] == pytest.approx(22.5)
        # delays of 2 and 4 minutes average to 3
        assert table.column("peak_delay")[0] == pytest.approx(3.0)
        # a scenario that adds runoff has a negative reduction
        assert table.column("runoff_reduction")[1] == pytest.approx(-10.0)

    def test_zero_baseline_volume_errors(self):
        base = [self.summary("a", 0.0, 10.0, 0.0)]
        with pytest.raises(ValidationError, match="zero baseline"):
            evaluate_environmental(base, {"s1": list(base)}, ["TSS"])

    def test_storm_suite_mismatch(self):
        base = [self.summary("a", 10.0, 10.0, 0.0)]
        with pytest.raises(ValidationError, match="mismatch"):
            evaluate_environmental(base, {"s1": []}, ["TSS"])


class TestStormSummaryFromOutfalls:
    def test_peak_on_summed_flows(self):
        """Outfalls peaking at different steps: the system peak is the
        largest summed flow (9 L/s at 120 s), not either outfall's own."""
        outfalls = {"o1": np.array([[0.0, 6.0, 5.0, 0.0], [0.1, 0.2, 0.3, 0.0]]),
                    "o2": np.array([[1.0, 2.0, 4.0, 7.0], [0.0, 0.0, 0.5, 0.5]])}
        summary = StormSummary.from_outfalls("a", 60, outfalls, ["TSS"])
        assert (summary.peak_lps, summary.peak_time_s) == (9.0, 120.0)

    def test_volume_and_loads_sum_over_outfalls(self):
        """Flows that sum to 36 L/s over 60 s steps are 2.16 m3; each load
        row sums over steps and outfalls."""
        outfalls = {"o1": np.array([[10.0, 20.0], [1.0, 2.0], [0.5, 0.0]]),
                    "o2": np.array([[6.0, 0.0], [0.25, 0.0], [0.0, 4.0]])}
        summary = StormSummary.from_outfalls("a", 60, outfalls, ["TSS", "TN"])
        assert summary.volume_m3 == pytest.approx(2.16)
        assert summary.loads_kg == {"TSS": 3.25, "TN": 4.5}

    def test_no_outfalls_rejected(self):
        with pytest.raises(ValidationError, match="no outfall series"):
            StormSummary.from_outfalls("a", 60, {}, ["TSS"])


class TestBenefitReportSerialization:
    def test_json_round_trip(self, tmp_path):
        tree, table = full_normalized_table()
        report = rollup(tree, table)
        writer = _Writer(tmp_path)
        path = writer.write_json(report.to_dict(), "report.json")
        loaded = json.loads(path.read_text())
        assert loaded["ranking"] == report.ranking
        np.testing.assert_allclose(
            loaded["scores"]["comprehensive"],
            report.node_scores["comprehensive"], atol=1e-12)
        # serialize -> parse -> serialize is byte-stable
        path2 = writer.write_json(loaded, "again.json")
        assert path.read_bytes() == path2.read_bytes()


class TestIndicatorTableCsv:
    def test_round_trip(self, tmp_path):
        table = IndicatorTable(["s1", "s2"], ["a", "b"],
                               np.array([[1.5, 2.0], [0.25, 4.0]]))
        path = _persist_table(_Writer(tmp_path), table, "table.csv")
        loaded = IndicatorTable.from_csv(path)
        assert loaded.scenarios == table.scenarios
        assert loaded.indicators == table.indicators
        np.testing.assert_array_equal(loaded.values, table.values)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,a\ns1,1\n")
        with pytest.raises(ValidationError, match="scenario"):
            IndicatorTable.from_csv(path)

    def test_repeated_indicator_named(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("scenario,a,b,a\ns1,1,2,3\n")
        with pytest.raises(ValidationError) as err:
            IndicatorTable.from_csv(path)
        assert str(err.value) == (f"{path}: line 1, column 4: indicator 'a' "
                                  f"already heads column 2")

    @pytest.mark.parametrize("row,message", [
        ("s2,2,x", "line 3, column 3 (b): 'x' is not a number"),
        ("s2,2", "line 3, column 3 (b): missing value"),
        ("s2,2,NaN", "line 3, column 3 (b): 'NaN' is not finite"),
        ("s2,2,3,4", "line 3, column 4: more cells than the header has columns"),
        (",2,3", "line 3, column 1 (scenario): missing value"),
    ])
    def test_bad_cell_named(self, tmp_path, row, message):
        path = tmp_path / "table.csv"
        path.write_text(f"scenario,a,b\ns1,1,2\n{row}\n")
        with pytest.raises(ValidationError) as err:
            IndicatorTable.from_csv(path)
        assert str(err.value) == f"{path}: {message}"
