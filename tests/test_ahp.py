"""Tests for pairwise-comparison weighting and consistency screening."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from lidscore.ahp import (CR_LIMIT, PairwiseMatrix, RANDOM_INDEX,
                          aggregate_matrices, consistency, derive_weights)
from lidscore.errors import ConfigError, ValidationError
from reference import weight_tree

SAATY_VALUES = [1/9, 1/7, 1/5, 1/3, 1/2, 1, 2, 3, 5, 7, 9]


def matrix_from_weights(weights, labels=None):
    w = np.asarray(weights, float)
    labels = tuple(labels or (f"c{i}" for i in range(w.size)))
    return PairwiseMatrix(labels, w[:, None] / w[None, :])


def random_reciprocal(entries):
    """Build an n x n reciprocal matrix from upper-triangle entries."""
    n = 1
    while n * (n - 1) // 2 < len(entries):
        n += 1
    n = max(2, n)
    needed = n * (n - 1) // 2
    entries = (entries * (needed // len(entries) + 1))[:needed]
    m = np.ones((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = entries[k]
            m[j, i] = 1.0 / entries[k]
            k += 1
    return PairwiseMatrix(tuple(f"c{i}" for i in range(n)), m)


class TestDeriveWeights:
    def test_all_ones_is_uniform(self):
        m = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        np.testing.assert_allclose(derive_weights(m).weights, 1 / 3, atol=1e-12)

    def test_two_by_two_closed_form(self):
        """[[1,4],[1/4,1]] -> (0.8, 0.2)."""
        m = PairwiseMatrix(("a", "b"), np.array([[1.0, 4.0], [0.25, 1.0]]))
        np.testing.assert_allclose(derive_weights(m).weights, [0.8, 0.2],
                                   atol=1e-12)

    @pytest.mark.parametrize("group,weights", sorted(
        reference.HIERARCHY_WEIGHTS.items()))
    def test_consistent_recovery_per_group(self, group, weights):
        """A consistent matrix built from any published weight group
        recovers those weights and reports CR = 0."""
        m = matrix_from_weights(list(weights.values()), list(weights))
        got = derive_weights(m)
        np.testing.assert_allclose(got.weights, list(weights.values()),
                                   atol=1e-6)
        assert consistency(m).cr == pytest.approx(0.0, abs=1e-9)

    def test_geometric_method_agrees_on_consistent(self):
        """On a consistent matrix the eigenvector equals the normalized
        row geometric means."""
        m = matrix_from_weights([0.5, 0.3, 0.2])
        g = np.exp(np.log(m.values).mean(axis=1))
        np.testing.assert_allclose(derive_weights(m).weights, g / g.sum(),
                                   atol=1e-9)

    def test_scale_invariance_of_construction(self):
        w = np.array([0.55, 0.25, 0.2])
        a = derive_weights(matrix_from_weights(w)).weights
        b = derive_weights(matrix_from_weights(10.0 * w)).weights
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_transpose_reciprocity(self):
        """For consistent M, weights of M^T are the normalized reciprocals."""
        w = np.array([0.608, 0.272, 0.120])
        m = matrix_from_weights(w)
        mt = PairwiseMatrix(m.labels, m.values.T)
        got = derive_weights(mt).weights
        expected = (1.0 / w) / (1.0 / w).sum()
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestMatrixValidation:
    def test_non_reciprocal_rejected(self):
        values = np.array([[1.0, 2.0], [0.4, 1.0]])
        with pytest.raises(ValidationError, match="reciprocal"):
            PairwiseMatrix(("a", "b"), values)

    def test_non_positive_rejected(self):
        values = np.array([[1.0, 0.0], [np.inf, 1.0]])
        with pytest.raises(ValidationError, match="positive"):
            PairwiseMatrix(("a", "b"), values)

    def test_bad_diagonal(self):
        values = np.array([[2.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="diagonal"):
            PairwiseMatrix(("a", "b"), values)

    def test_outside_saaty_scale_warns(self):
        values = np.array([[1.0, 12.0], [1 / 12.0, 1.0]])
        with pytest.warns(UserWarning, match=(
                r"^pairwise matrix \(a, b\): row 1 \(a\), column 2 \(b\) is 12, "
                r"outside the 1/9\.\.9 scale$")):
            PairwiseMatrix(("a", "b"), values)

    def test_scale_warning_names_first_entry_below_scale(self):
        """Entries are searched row by row, so a 1/12 above the diagonal is
        named before the 12 below it."""
        values = np.array([[1.0, 2.0, 1 / 12.0], [0.5, 1.0, 3.0],
                           [12.0, 1 / 3.0, 1.0]])
        with pytest.warns(UserWarning, match=(
                r"^pairwise matrix \(x, y, z\): row 1 \(x\), column 3 \(z\) is "
                r"0\.0833333, outside the 1/9\.\.9 scale$")):
            PairwiseMatrix(("x", "y", "z"), values)

    def test_from_rows_fills_lower_triangle(self):
        m = PairwiseMatrix.from_rows(("a", "b", "c"),
                                     [[1, 2, 6], [None, 1, 4], [None, None, 1]])
        assert m.values[1, 0] == pytest.approx(0.5)
        assert m.values[2, 0] == pytest.approx(1 / 6)

    def test_from_rows_rejects_contradictory_lower_entry(self):
        """An explicit lower-triangle judgment must be the reciprocal of its
        mirror within 1e-3; a rounded one is stored as the exact reciprocal."""
        with pytest.raises(ValidationError) as err:
            PairwiseMatrix.from_rows(("a", "b"), [[1, 3], [5, 1]])
        assert str(err.value) == ("row 2 (b), column 1 (a): 5 is not the "
                                  "reciprocal of 3 in row 1 (a), column 2 (b)")
        m = PairwiseMatrix.from_rows(("a", "b"), [[1, 3], [0.3333, 1]])
        assert m.values[1, 0] == 1 / 3

    def test_from_rows_requires_upper_triangle(self):
        """A missing or blank upper-triangle judgment is an error naming its
        row and column; it never reads as 1."""
        for rows in ([[1, 3], [None, 1, 2], [None, None, 1]],
                     [[1, 3, " "], [None, 1, 2], [None, None, 1]]):
            with pytest.raises(ValidationError) as err:
                PairwiseMatrix.from_rows(("a", "b", "c"), rows)
            assert str(err.value) == "row 1 (a), column 3 (c): missing value"

    @pytest.mark.parametrize("entry", ["one", "1/0", "1/x", [1]])
    def test_entry_not_a_number_raises(self, entry):
        with pytest.raises(ValidationError, match="is not a number or a fraction"):
            PairwiseMatrix.from_rows(("a", "b"), [[1, entry], [None, 1]])

    def test_from_csv_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2,6\n,1,\n,,1\n")
        with pytest.raises(ValidationError) as err:
            PairwiseMatrix.from_csv(path)
        assert str(err.value) == f"{path}: line 3, column 3 (c): missing value"
        with pytest.raises(ValidationError, match="cannot read"):
            PairwiseMatrix.from_csv(tmp_path / "missing.csv")

    def test_from_csv_with_fractions(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2,6\n,1,4\n,,1\n")
        m = PairwiseMatrix.from_csv(path)
        assert m.labels == ("a", "b", "c")
        assert m.values[2, 1] == pytest.approx(0.25)
        path2 = tmp_path / "frac.csv"
        path2.write_text("a,b\n1,1/3\n3,1\n")
        m2 = PairwiseMatrix.from_csv(path2)
        assert m2.values[0, 1] == pytest.approx(1 / 3)


class TestConsistency:
    def test_consistent_matrix_is_exact(self):
        rep = consistency(matrix_from_weights([0.5, 0.3, 0.2]))
        assert rep.lambda_max == pytest.approx(3.0, abs=1e-9)
        assert rep.ci == pytest.approx(0.0, abs=1e-9)
        assert rep.cr == pytest.approx(0.0, abs=1e-9)
        assert rep.passed

    def test_derived_three_by_three(self):
        """[[1,2,6],[1/2,1,4],[1/6,1/4,1]]: lambda ~3.0092, CR ~0.0079,
        checked against a dense eigenvalue solve."""
        values = np.array([[1, 2, 6], [0.5, 1, 4], [1 / 6, 0.25, 1]])
        m = PairwiseMatrix(("a", "b", "c"), values)
        rep = consistency(m)
        oracle = float(np.max(np.linalg.eigvals(values).real))
        assert rep.lambda_max == pytest.approx(oracle, abs=1e-4)
        assert rep.lambda_max == pytest.approx(3.0092, abs=1e-3)
        assert rep.ci == pytest.approx(0.0046, abs=1e-3)
        assert rep.cr == pytest.approx(0.0079, abs=1e-3)

    def test_order_two_always_consistent(self):
        rep = consistency(PairwiseMatrix(("a", "b"), np.array([[1.0, 7.0],
                                                               [1 / 7.0, 1.0]])))
        assert rep.cr == 0.0

    def test_random_index_table(self):
        assert RANDOM_INDEX == {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
                                6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45}

    @given(st.lists(st.sampled_from(SAATY_VALUES), min_size=3, max_size=36))
    def test_lambda_max_at_least_n(self, entries):
        m = random_reciprocal(entries)
        rep = consistency(m)
        assert rep.lambda_max >= m.order - 1e-9


class TestAggregation:
    def test_identical_matrices_unchanged(self):
        m = matrix_from_weights([0.6, 0.4])
        agg = aggregate_matrices([m, m, m])
        np.testing.assert_allclose(agg.values, m.values, atol=1e-12)

    def test_geometric_mean_of_two(self):
        a = PairwiseMatrix(("x", "y"), np.array([[1.0, 4.0], [0.25, 1.0]]))
        b = PairwiseMatrix(("x", "y"), np.array([[1.0, 1.0], [1.0, 1.0]]))
        agg = aggregate_matrices([a, b])
        assert agg.values[0, 1] == pytest.approx(2.0)

    def test_label_mismatch(self):
        a = matrix_from_weights([0.6, 0.4], ("x", "y"))
        b = matrix_from_weights([0.6, 0.4], ("p", "q"))
        with pytest.raises(ValidationError, match="labels"):
            aggregate_matrices([a, b])


class TestWeightTree:
    def hierarchy(self):
        return {
            "name": "goal",
            "children": [
                {"name": "env", "children": [
                    {"name": "runoff", "indicator": "runoff", "source": "direct"},
                    {"name": "peak", "indicator": "peak", "source": "direct"},
                ]},
                {"name": "cost", "indicator": "cost", "source": "direct"},
            ],
        }

    def test_matrices_fill_weights(self):
        matrices = {
            "goal": matrix_from_weights([0.75, 0.25], ("env", "cost")),
            "env": matrix_from_weights([0.6, 0.4], ("runoff", "peak")),
        }
        tree, reports = weight_tree(self.hierarchy(), matrices)
        assert tree.find("env").weight == pytest.approx(0.75, abs=1e-9)
        assert tree.find("runoff").weight == pytest.approx(0.6, abs=1e-9)
        assert set(reports) == {"goal", "env"}

    def test_single_child_weight_is_one(self):
        hierarchy = {"name": "goal", "children": [
            {"name": "only", "indicator": "only", "source": "direct"}]}
        tree, _ = weight_tree(hierarchy)
        assert tree.find("only").weight == 1.0

    def test_full_reference_tree(self):
        """Consistent matrices for every published weight group rebuild the
        whole weighting system within 1e-3."""
        hierarchy = reference.hierarchy_spec()

        def strip(node):
            node.pop("weight", None)
            for child in node.get("children", []):
                strip(child)

        strip(hierarchy)
        matrices = {
            group: matrix_from_weights(list(w.values()), list(w))
            for group, w in reference.HIERARCHY_WEIGHTS.items()
        }
        tree, reports = weight_tree(hierarchy, matrices)
        for group, expected in reference.HIERARCHY_WEIGHTS.items():
            for child, weight in expected.items():
                assert tree.find(child).weight == pytest.approx(weight, abs=1e-3)
        assert all(r.passed for r in reports.values())

    def test_inconsistent_node_rejected_by_name(self):
        values = np.array([[1.0, 9.0, 1 / 9.0],
                           [1 / 9.0, 1.0, 9.0],
                           [9.0, 1 / 9.0, 1.0]])
        bad = PairwiseMatrix(("runoff", "peak", "x"), values)
        hierarchy = {"name": "goal", "children": [
            {"name": "runoff", "indicator": "runoff", "source": "direct"},
            {"name": "peak", "indicator": "peak", "source": "direct"},
            {"name": "x", "indicator": "x", "source": "direct"},
        ]}
        rep = consistency(bad)
        assert rep.cr >= CR_LIMIT
        with pytest.raises(ConfigError, match="'goal'.*rejected|rejected.*'goal'"):
            weight_tree(hierarchy, {"goal": bad})

    def test_missing_matrix(self):
        with pytest.raises(ConfigError, match="or none and a pairwise matrix matrices.goal"):
            weight_tree(self.hierarchy())
