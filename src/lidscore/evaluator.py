"""Indicator normalization, hierarchical benefit roll-up and ranking.

Raw indicator values are made dimensionless column by column
(I_km = X_km / sum_m X_km, so each column sums to 1 across scenarios),
then weighted up the indicator hierarchy; the root score is the
comprehensive benefit used for ranking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from lidscore.errors import Ranged, ValidationError
from lidscore.inputs import read_cell, read_rows
from lidscore.metrics import peak_stats

POLARITIES = ("benefit", "cost")
SOURCES = ("simulated", "facility_derived", "direct")
TRANSFORMS = ("encoded", "reciprocal")

# Indicators whose all-zero column normalizes to uniform shares (1/M each,
# with a warning) instead of failing: a zero peak delay across every
# scenario is a legitimate result, not a configuration error.
UNIFORM_IF_ZERO = frozenset({"peak_delay"})


@dataclass(frozen=True)
class TreeNode(Ranged):
    name: str
    weight: float = field(metadata={"range": ">= 0"})
    children: tuple = ()
    indicator: str | None = None
    polarity: str = "benefit"
    source: str = "simulated"
    transform: str = "encoded"

    def __post_init__(self):
        super().__post_init__()
        if self.children and self.indicator:
            raise ValidationError(f"node {self.name}: both children and indicator")
        if not self.children:
            if not self.indicator:
                raise ValidationError(f"leaf {self.name}: missing indicator binding")
            if self.polarity not in POLARITIES:
                raise ValidationError(f"leaf {self.name}: bad polarity {self.polarity}")
            if self.source not in SOURCES:
                raise ValidationError(f"leaf {self.name}: bad source {self.source}")
            if self.transform not in TRANSFORMS:
                raise ValidationError(f"leaf {self.name}: bad transform {self.transform}")
            if self.transform == "reciprocal" and self.polarity != "cost":
                raise ValidationError(f"leaf {self.name}: the reciprocal transform "
                                      f"applies only to cost leaves")
        else:
            child_sum = sum(c.weight for c in self.children)
            if abs(child_sum - 1.0) > 1e-6:
                raise ValidationError(
                    f"node {self.name}: child weights sum to {child_sum}, not 1"
                )

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class WeightTree:
    root: TreeNode

    def __post_init__(self):
        if abs(self.root.weight - 1.0) > 1e-9:
            raise ValidationError("root weight must be 1")
        seen = set()
        for leaf in self.leaves():
            if leaf.indicator in seen:
                raise ValidationError(f"duplicate leaf indicator {leaf.indicator!r}")
            seen.add(leaf.indicator)

    def leaves(self):
        return (node for node in self.nodes() if node.is_leaf)

    def nodes(self):
        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        yield from walk(self.root)

    def find(self, name: str) -> TreeNode:
        for node in self.nodes():
            if node.name == name:
                return node
        raise ValidationError(f"no node named {name!r}")

    def reweighted(self, name: str, new_weight: float) -> "WeightTree":
        """Copy of the tree with one node's weight changed and its siblings
        rescaled so they still sum to 1."""
        if not 0.0 <= new_weight <= 1.0:
            raise ValidationError(
                f"perturbed weight {new_weight:.4f} for {name!r} outside [0, 1]")

        def walk(node: TreeNode) -> TreeNode:
            if any(c.name == name for c in node.children):
                others = sum(c.weight for c in node.children if c.name != name)
                if others == 0 and new_weight != 1.0:
                    raise ValidationError(
                        f"cannot rebalance around {name!r}: no sibling weight"
                    )
                scale = (1.0 - new_weight) / others if others else 0.0
                return replace(node, children=tuple(
                    replace(c, weight=new_weight if c.name == name else c.weight * scale)
                    for c in node.children))
            return replace(node, children=tuple(walk(c) for c in node.children))

        if name == self.root.name:
            raise ValidationError("cannot perturb the root weight")
        self.find(name)  # raises if absent
        return WeightTree(walk(self.root))

    def to_dict(self) -> dict:
        def dump(node: TreeNode) -> dict:
            out = {"name": node.name, "weight": node.weight}
            if node.is_leaf:
                out.update(indicator=node.indicator, polarity=node.polarity,
                           source=node.source, transform=node.transform)
            else:
                out["children"] = [dump(c) for c in node.children]
            return out

        return dump(self.root)


@dataclass
class IndicatorTable:
    """Scenario-by-indicator value matrix (scenarios are rows)."""

    scenarios: list
    indicators: list
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not self.scenarios:
            raise ValidationError("indicator table needs at least one scenario")
        if self.values.shape != (len(self.scenarios), len(self.indicators)):
            raise ValidationError(
                f"value matrix {self.values.shape} does not match "
                f"{len(self.scenarios)} scenarios x {len(self.indicators)} indicators"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("indicator values must be finite")

    def column(self, indicator: str) -> np.ndarray:
        try:
            j = self.indicators.index(indicator)
        except ValueError:
            raise ValidationError(f"no indicator column {indicator!r}") from None
        return self.values[:, j]

    def __eq__(self, other):
        return (isinstance(other, IndicatorTable) and np.array_equal(self.values, other.values)
                and (self.scenarios, self.indicators) == (other.scenarios, other.indicators))

    @classmethod
    def from_csv(cls, path) -> "IndicatorTable":
        """Read a `scenario,<indicator>,...` header and a row per scenario
        through `inputs.read_cell`; every value must be a finite number and
        no indicator may head two columns."""
        rows = read_rows(path)
        header_line, header = next(rows, (0, [""]))
        if header[0] != "scenario":
            raise ValidationError(f"{path}: expected a 'scenario' header column")
        for j, name in enumerate(header[1:], 1):
            if name in header[1:j]:
                raise ValidationError(
                    f"{path}: line {header_line}, column {j + 1}: indicator "
                    f"{name!r} already heads column {header.index(name, 1) + 1}")
        scenarios, values = [], []
        for line, row in rows:
            where = f"{path}: line {line}"
            if len(row) > len(header):
                raise ValidationError(f"{where}, column {len(header) + 1}: "
                                      f"more cells than the header has columns")
            scenarios.append(read_cell(where, row, 0, "scenario", str))
            values.append([read_cell(where, row, j, name)
                           for j, name in enumerate(header[1:], 1)])
        return cls(scenarios, header[1:],
                   np.array(values).reshape(len(values), len(header) - 1))


def check_normalized(indicator: str, column: np.ndarray) -> np.ndarray:
    """Return `column` if it sums to 1 within 5e-3, the rounding of a
    published normalized table; raise ValidationError naming `indicator`
    otherwise."""
    total = float(column.sum())
    if abs(total - 1.0) > 5e-3:
        raise ValidationError(f"normalized column {indicator!r} sums to {total:.4f}")
    return column


def normalize(leaf: TreeNode, column, scenarios) -> np.ndarray:
    """Linear normalization I = X / sum(X) of `leaf`'s raw column, one
    value per scenario of `scenarios`.

    A `reciprocal` leaf's column is inverted first (favorability-encoded
    columns are used as-is); a non-positive entry there is an error naming
    its scenarios. A column of zeros is an error unless its indicator is in
    UNIFORM_IF_ZERO, in which case every scenario gets 1/M with a warning.
    Any other column whose sum is zero or negative is an error naming the
    scenarios with negative entries.
    """
    indicator = leaf.indicator
    column = np.asarray(column, dtype=float)
    if leaf.transform == "reciprocal":
        if np.any(column <= 0):
            bad = [name for name, v in zip(scenarios, column) if v <= 0]
            raise ValidationError(
                f"indicator {indicator!r}: reciprocal transform needs positive "
                f"values (not positive in {', '.join(bad)})"
            )
        column = 1.0 / column
    total = column.sum()
    if not column.any() and indicator in UNIFORM_IF_ZERO:
        warnings.warn(
            f"indicator {indicator!r} is zero everywhere; using uniform shares",
            stacklevel=2,
        )
        return np.full(len(column), 1.0 / len(column))
    if total <= 0.0:
        negative = [name for name, v in zip(scenarios, column) if v < 0]
        problem = "sums to zero" if total == 0.0 else "has a negative column sum"
        where = f" (negative in {', '.join(negative)})" if negative else ""
        raise ValidationError(f"indicator {indicator!r} {problem}{where}")
    if np.any(column < 0):
        warnings.warn(f"indicator {indicator!r} has negative entries", stacklevel=2)
    return column / total


@dataclass
class BenefitReport:
    """Node scores per scenario, the normalized leaves and the ranking, as
    `rollup` computes them."""

    scenarios: list
    node_scores: dict            # node name -> np.ndarray over scenarios
    leaf_values: IndicatorTable  # normalized leaf columns actually used
    ranking: list
    tied: bool

    def score(self, node: str, scenario: str) -> float:
        return float(self.node_scores[node][self.scenarios.index(scenario)])

    def to_dict(self) -> dict:
        return {
            "scenarios": list(self.scenarios),
            "scores": {name: [float(v) for v in vals]
                       for name, vals in sorted(self.node_scores.items())},
            "ranking": list(self.ranking),
            "tied": self.tied,
            "leaf_values": {
                indicator: [float(v) for v in self.leaf_values.column(indicator)]
                for indicator in self.leaf_values.indicators
            },
        }


def rank_scenarios(scenarios, scores):
    """Names ordered by descending score; ties (scores within 1e-12) keep
    name order and set the tie flag."""
    order = sorted(range(len(scenarios)), key=lambda i: (-scores[i], scenarios[i]))
    tied = any(
        abs(scores[order[i]] - scores[order[i + 1]]) <= 1e-12
        for i in range(len(order) - 1)
    )
    return [scenarios[i] for i in order], tied


def rollup(tree: WeightTree, table: IndicatorTable) -> BenefitReport:
    """Weighted summation up the hierarchy: each node's score is the
    weighted sum of its children; a leaf reads its column of `table`,
    which must pass `check_normalized`."""
    scores: dict = {}

    def evaluate(node: TreeNode) -> np.ndarray:
        if node.is_leaf:
            value = check_normalized(node.indicator, table.column(node.indicator))
        else:
            value = np.zeros(len(table.scenarios))
            for child in node.children:
                value = value + child.weight * evaluate(child)
        scores[node.name] = value
        return value

    evaluate(tree.root)
    used = [leaf.indicator for leaf in tree.leaves()]
    leaf_values = IndicatorTable(list(table.scenarios), used,
                                 np.column_stack([table.column(i) for i in used]))
    ranking, tied = rank_scenarios(table.scenarios, scores[tree.root.name])
    return BenefitReport(scenarios=list(table.scenarios), node_scores=scores,
                         leaf_values=leaf_values, ranking=ranking, tied=tied)


def facility_scores(scenarios, catalog: dict, leaf: TreeNode) -> np.ndarray:
    """Raw value of an economic/social `leaf` per scenario, derived from
    facility areas.

    A benefit leaf (mode A) scores sum(area_f * favorability_f(indicator));
    a cost leaf with the reciprocal transform (mode B) scores its cost
    basis sum(area_f * unit_cost_weight_f), which `normalize` inverts, so
    cheaper scenarios score higher after normalization.
    """
    values = []
    for scenario in scenarios:
        areas = scenario.area_by_kind()
        if leaf.transform == "reciprocal":
            values.append(sum(area * catalog[kind].unit_cost_weight
                              for kind, area in areas.items()))
            continue
        total = 0.0
        for kind, area in areas.items():
            spec = catalog[kind]
            if leaf.indicator not in spec.favorability:
                raise ValidationError(
                    f"{kind.value}: no favorability score for {leaf.indicator!r}"
                )
            total += area * spec.favorability[leaf.indicator]
        values.append(total)
    return np.array(values, dtype=float)


@dataclass
class StormSummary:
    """System-level result of one simulated storm."""

    storm: str
    volume_m3: float
    peak_lps: float
    peak_time_s: float
    loads_kg: dict

    @classmethod
    def from_outfalls(cls, storm: str, step_s, outfalls: dict,
                      pollutants) -> "StormSummary":
        """Collapse one run's outfall matrices of equal length, load rows in
        `pollutants` order: volumes and loads sum over the outfalls; the
        peak is taken on the summed outfall flows."""
        if not outfalls:
            raise ValidationError("no outfall series")
        peak, peak_time = peak_stats(sum(m[0] for m in outfalls.values()), step_s)
        volume = sum(float(m[0].sum() * step_s / 1000.0) for m in outfalls.values())
        loads_kg = {p: sum(float(m[i].sum()) for m in outfalls.values())
                    for i, p in enumerate(pollutants, 1)}
        return cls(storm=storm, volume_m3=volume, peak_lps=peak,
                   peak_time_s=peak_time, loads_kg=loads_kg)


def environmental_indicators(pollutants) -> list:
    """The columns of `evaluate_environmental` for these pollutant names."""
    return (["runoff_reduction", "peak_reduction", "peak_delay"]
            + [f"{p.lower()}_reduction" for p in pollutants])


def evaluate_environmental(baseline, by_scenario: dict, pollutants) -> IndicatorTable:
    """Environmental indicators per scenario, averaged over the storm suite.

    `baseline` and each scenario entry are sequences of StormSummary in the
    same storm order. Reductions are percentages relative to the baseline;
    the peak delay is in minutes (kept fractional here, rounded only in
    reports).
    """
    baseline = list(baseline)
    if not baseline:
        raise ValidationError("no baseline storm results")
    indicators = environmental_indicators(pollutants)
    names = list(by_scenario)
    values = np.zeros((len(names), len(indicators)))
    for i, name in enumerate(names):
        runs = list(by_scenario[name])
        if len(runs) != len(baseline):
            raise ValidationError(f"scenario {name!r}: storm suite mismatch")
        rows = []
        for base, scen in zip(baseline, runs):
            if base.volume_m3 <= 0:
                raise ValidationError(f"storm {base.storm}: zero baseline volume")
            row = [
                (base.volume_m3 - scen.volume_m3) / base.volume_m3 * 100.0,
                (base.peak_lps - scen.peak_lps) / base.peak_lps * 100.0,
                (scen.peak_time_s - base.peak_time_s) / 60.0,
            ]
            for pollutant in pollutants:
                b = base.loads_kg.get(pollutant, 0.0)
                s = scen.loads_kg.get(pollutant, 0.0)
                if b <= 0:
                    raise ValidationError(
                        f"storm {base.storm}: zero baseline load for {pollutant}"
                    )
                row.append((b - s) / b * 100.0)
            rows.append(row)
        values[i, :] = np.mean(rows, axis=0)
    return IndicatorTable(names, indicators, values)
