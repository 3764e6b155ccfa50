"""Pairwise-comparison weighting (analytic hierarchy process machinery).

Weights come from the principal eigenvector of a positive reciprocal
matrix (power iteration); judgment consistency is screened with the usual
CR = CI / RI rule, rejecting matrices at CR >= 0.1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from lidscore.errors import ValidationError
from lidscore.inputs import read_cell, read_rows

# Random consistency index by matrix order (Saaty's constants).
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24,
                7: 1.32, 8: 1.41, 9: 1.45}

CR_LIMIT = 0.1

# An explicit lower-triangle judgment a_ji is accepted when a_ij * a_ji is 1
# within this; it is then stored as 1 / a_ij. Rounded reciprocals such as
# 0.3333 against 3 are off by 1e-4.
RECIPROCAL_TOL = 1e-3


@dataclass(frozen=True)
class PairwiseMatrix:
    labels: tuple
    values: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", m)
        n = len(self.labels)
        if m.shape != (n, n):
            raise ValidationError(f"matrix shape {m.shape} does not match {n} labels")
        if np.any(m <= 0) or not np.all(np.isfinite(m)):
            raise ValidationError("pairwise entries must be positive and finite")
        if np.any(np.abs(np.diag(m) - 1.0) > 1e-9):
            raise ValidationError("pairwise diagonal must be 1")
        if np.any(np.abs(m * m.T - 1.0) > 1e-9):
            raise ValidationError("matrix is not reciprocal (a_ij * a_ji != 1)")
        if np.any(m > 9.0 + 1e-9) or np.any(m < 1.0 / 9.0 - 1e-12):
            warnings.warn("pairwise entries outside the 1/9..9 scale", stacklevel=3)

    @property
    def order(self) -> int:
        return len(self.labels)

    @classmethod
    def from_rows(cls, labels, rows, where=None) -> "PairwiseMatrix":
        """Build from row lists of numbers or fractions ("1/3"). Upper-triangle
        entries are required; a blank diagonal entry reads 1 and a blank lower
        one the reciprocal. An explicit lower entry a_ji must be the
        reciprocal of a_ij within RECIPROCAL_TOL and is stored as 1 / a_ij.
        `where[i]` names row i in errors."""
        n = len(labels)
        where = where or [f"row {i + 1} ({label})" for i, label in enumerate(labels)]
        m = np.ones((n, n))
        for i in range(n):
            row = rows[i] if i < len(rows) else ()
            for j in range(n):
                # NaN marks a blank lower entry, which no cell can parse to
                blank = None if j > i else 1.0 if j == i else math.nan
                m[i, j] = read_cell(where[i], row, j, labels[j], _parse_entry,
                                    "a number or a fraction", blank=blank)
                if j < i:
                    if abs(m[i, j] * m[j, i] - 1.0) > RECIPROCAL_TOL:   # False for NaN
                        raise ValidationError(
                            f"{where[i]}, column {j + 1} ({labels[j]}): {m[i, j]:g} is not "
                            f"the reciprocal of {m[j, i]:g} in {where[j]}, column {i + 1} "
                            f"({labels[i]})")
                    m[i, j] = 1.0 / m[j, i]
        return cls(tuple(labels), m)

    @classmethod
    def from_csv(cls, path) -> "PairwiseMatrix":
        """Read a matrix file through `inputs.read_rows`: a header of
        labels, then one row per label (see `from_rows`)."""
        (_, header), *rows = list(read_rows(path)) or [(0, ())]
        labels = [c.strip() for c in header if c.strip()]
        if not labels or len(rows) != len(labels):
            raise ValidationError(f"{path}: expected a header of labels and one row "
                                  f"per label, got {len(labels)} labels, {len(rows)} rows")
        return cls.from_rows(labels, [row for _, row in rows],
                             [f"{path}: line {line}" for line, _ in rows])


def _parse_entry(entry) -> float:
    if isinstance(entry, str) and "/" in entry:
        num, den = entry.split("/", 1)
        return float(num) / float(den)
    return float(entry)


@dataclass(frozen=True)
class WeightVector:
    labels: tuple
    weights: np.ndarray
    lambda_max: float | None = None   # of the matrix the weights come from

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError("weights must sum to 1")
        if np.any(w < 0):
            raise ValidationError("weights must be non-negative")


@dataclass(frozen=True)
class ConsistencyReport:
    lambda_max: float
    ci: float
    ri: float
    cr: float

    @property
    def passed(self) -> bool:
        return self.cr < CR_LIMIT


def _principal_eigenvector(m: np.ndarray):
    """Power iteration to a residual below 1e-12, at most 10,000 steps."""
    n = m.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(10_000):
        mv = m @ v
        lam = float(mv.sum())
        residual = float(np.max(np.abs(mv - lam * v)))
        v = mv / lam
        if residual < 1e-12:
            return v, lam
    raise ValidationError(
        f"power iteration did not converge in 10000 iterations "
        f"(residual {residual:.3e})"
    )


def derive_weights(matrix: PairwiseMatrix) -> WeightVector:
    """Priority weights of a pairwise matrix: its normalized principal
    eigenvector, with the principal eigenvalue it was solved with."""
    w, lam = _principal_eigenvector(matrix.values)
    return WeightVector(matrix.labels, w, lam)


def consistency(matrix: PairwiseMatrix) -> ConsistencyReport:
    """Consistency screen: lambda_max, CI = (lambda_max - n)/(n - 1), CR = CI/RI."""
    if matrix.order < 2:
        return ConsistencyReport(1.0, 0.0, 0.0, 0.0)
    return _screen(matrix.order, _principal_eigenvector(matrix.values)[1])


def _screen(n: int, lam: float) -> ConsistencyReport:
    """`consistency` of an order-n (n >= 2) matrix whose principal
    eigenvalue is `lam`."""
    ci = (lam - n) / (n - 1)
    if n == 2:
        # 2x2 reciprocal matrices cannot be inconsistent
        return ConsistencyReport(lam, ci, 0.0, 0.0)
    if n not in RANDOM_INDEX:
        raise ValidationError(f"no random index for order {n}")
    ri = RANDOM_INDEX[n]
    return ConsistencyReport(lam, ci, ri, ci / ri)


def aggregate_matrices(matrices) -> PairwiseMatrix:
    """Combine several experts' matrices by elementwise geometric mean."""
    matrices = list(matrices)
    if not matrices:
        raise ValidationError("no matrices to aggregate")
    labels = matrices[0].labels
    for m in matrices[1:]:
        if m.labels != labels:
            raise ValidationError("matrices disagree on labels")
    stack = np.stack([m.values for m in matrices])
    return PairwiseMatrix(labels, np.exp(np.log(stack).mean(axis=0)))


def weight_tree(hierarchy: dict, matrices: dict):
    """Build the weighted indicator tree from the nested node mapping of a
    project's `hierarchy` section.

    Each node is a mapping with `name` and either `children` or leaf keys
    (see evaluator.TreeNode.leaf_from_dict). Explicit child weights win
    when every child of a node has one; otherwise the node needs an entry
    in `matrices` (a single child gets weight 1). Any node with CR >= 0.1
    rejects the tree. Returns (WeightTree, {node: ConsistencyReport}).
    """
    from lidscore.evaluator import TreeNode, WeightTree

    reports: dict = {}

    def build(spec: dict, weight: float) -> TreeNode:
        name = spec["name"]
        children_spec = spec.get("children") or []
        if not children_spec:
            return TreeNode.leaf_from_dict(spec, weight)
        if all("weight" in c for c in children_spec):
            weights = [float(c["weight"]) for c in children_spec]
        elif len(children_spec) == 1:
            weights = [1.0]
        else:
            matrix = matrices.get(name)
            if matrix is None:
                raise ValidationError(f"no pairwise matrix for node '{name}'")
            expected = tuple(c["name"] for c in children_spec)
            if matrix.labels != expected:
                raise ValidationError(
                    f"matrix labels for '{name}' do not match children {expected}"
                )
            vector = derive_weights(matrix)   # one eigen-solve per matrix
            report = reports[name] = _screen(matrix.order, vector.lambda_max)
            if not report.passed:
                raise ValidationError(
                    f"node '{name}' rejected: CR = {report.cr:.4f} >= {CR_LIMIT}"
                )
            weights = vector.weights
        children = tuple(
            build(child, float(w)) for child, w in zip(children_spec, weights)
        )
        return TreeNode(name=name, weight=weight, children=children)

    return WeightTree(build(hierarchy, 1.0)), reports
