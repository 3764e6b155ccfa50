"""Project configuration: a single YAML file describing the catchment,
pollutants, LID catalog, scenarios, storm settings, sizing inputs and the
indicator hierarchy. See docs/config.md for the schema.

Validation is eager and batched: every problem found is reported with its
section path in one ConfigError. One reader, `_Collector.build`, reads
every dataclass section, so the same load rules hold in all of them. The
indicator hierarchy is read here too, node by node (`_tree_node`), with
each node's child weights taken from the file or from its pairwise matrix;
`ahp` only does the matrix maths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from lidscore import ahp
from lidscore.errors import ConfigError, ValidationError
from lidscore.evaluator import (IndicatorTable, TreeNode, WeightTree,
                                check_normalized, environmental_indicators,
                                facility_scores, normalize)
from lidscore.hydrology import (HortonParams, LandUse, Link, Subcatchment,
                                _downstream_paths)
from lidscore.lid import (LidKind, LidLayers, LidPlacement, LidSpec, Scenario,
                          default_catalog, placement_problems)
from lidscore.quality import DEFAULT_ANTECEDENT_DRY_DAYS, PollutantSpec
from lidscore.storms import (DEFAULT_MIN_EVENT_MM, IdfParams, RainRecord,
                             design_storm_suite, storm_label)

SCHEMA_VERSION = 1

# the keys of the top level, which no dataclass reads
_TOP_KEYS = ("schema_version", "name", "output_dir", "catchment", "pollutants",
             "antecedent_dry_days", "lid_catalog", "scenarios", "storms",
             "sizing", "hierarchy", "matrices", "direct_tables")

# PyYAML's libyaml binding parses a project several times faster than the
# pure-Python parser. Both loaders share PyYAML's resolver and constructor,
# so they build equal trees; only the wording of syntax errors differs.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


@dataclass(frozen=True)
class StormSettings:
    depths_mm: tuple
    idf: IdfParams
    duration_min: float = 90.0
    peak_ratio: float = 0.5
    step_s: float = 60.0
    tail_min: float = 60.0

    def __post_init__(self):
        # building the suite applies the storm generator's own checks
        # (depth, peak ratio, step) when the settings are made
        design_storm_suite(self.depths_mm, self.duration_min, self.peak_ratio,
                           self.idf, self.step_s)
        # the simulation appends round(tail_min * 60 / step_s) dry steps
        steps = self.tail_min * 60.0 / self.step_s if self.step_s > 0 else 0.0
        if not (steps >= 0 and math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ValidationError(f"tail_min {self.tail_min} must be >= 0 and a whole "
                                  f"number of {self.step_s} s steps")


@dataclass(frozen=True)
class SizingTarget:
    depth_mm: float | None = None
    atrcr: float | None = None
    rainfall_csv: Path | None = None
    record: RainRecord | None = None    # read from rainfall_csv at load


@dataclass(frozen=True)
class SizingSettings:
    existing_facilities: tuple
    target: SizingTarget
    min_event_mm: float = DEFAULT_MIN_EVENT_MM
    psi: float | None = None        # overrides the land-use composite
    area_ha: float | None = None    # overrides the summed subcatchment area


@dataclass
class ProjectConfig:
    path: Path
    config_hash: str
    name: str
    output_dir: Path
    subcatchments: dict
    links: list
    outfalls: list
    pollutants: list
    antecedent_dry_days: float
    catalog: dict
    scenarios: list
    storms: StormSettings
    sizing: SizingSettings | None
    hierarchy_spec: dict
    matrices: dict = field(default_factory=dict)
    tree: WeightTree | None = None   # these three are built once, by load_config
    consistency: dict = field(default_factory=dict)   # node -> ConsistencyReport
    fixed_columns: IndicatorTable | None = None   # see _fixed_columns

    def weight_tree(self, errors: _Collector):
        """(WeightTree, {node: ConsistencyReport}) read from `hierarchy_spec`
        and `matrices` (see `_tree_node`), the tree None after recording a
        batch entry for each problem, also for each matrix no node reads."""
        reports, read = {}, set()
        root = _tree_node(errors, "hierarchy", self.hierarchy_spec, 1.0,
                          self.matrices, reports, read, {})
        for node in self.matrices:
            if node not in read:
                errors.add(f"matrices.{node}", "no node reads this matrix: a node reads "
                                               "the matrix of its name when it has two or "
                                               "more children and none gives a weight")
        return root and errors.guard("hierarchy", WeightTree, root), reports


class _Collector:
    def __init__(self):
        self.errors = []

    def add(self, section: str, message) -> None:
        self.errors.append(f"{section}: {message}")

    def guard(self, section: str, fn, *args, **kwargs):
        """Run a constructor, converting its ValidationError into a batch
        entry; returns None on failure."""
        try:
            return fn(*args, **kwargs)
        except (ValidationError, ConfigError, KeyError, TypeError) as exc:
            self.add(section, exc)
            return None

    def number(self, section: str, value):
        """`float(value)`, or None after recording a batch entry when the
        value is not a number or not finite."""
        try:
            number = float(value)
        except (TypeError, ValueError):
            self.add(section, f"expected a number, got {value!r}")
            return None
        if math.isfinite(number):
            return number
        self.add(section, f"{number!r} is not finite")
        return None

    def name(self, section: str, value) -> str:
        """`str(value)`, after recording a batch entry when it is empty,
        None (a YAML key with no value), or not a scalar (see `value`)."""
        if value is None or value == "":
            self.add(section, "missing or empty")
            return ""
        return self.value(section, "str", value) or ""

    def path_name(self, section: str, value) -> str:
        """`str(value)` for a name that becomes part of a result path,
        after recording a batch entry when it is not one plain, non-empty
        path component."""
        name = self.name(section, value)
        if name in (".", "..") or "/" in name or "\\" in name:
            self.add(section, f"{name!r} must be a plain file name "
                              f"(no '/' or '\\', not '.' or '..')")
        return name

    def sequence(self, section: str, value) -> list:
        """The entries of a list-valued section: [] when it is absent or
        empty, and [] after recording a batch entry when it is not a list."""
        if not value:
            return []
        if isinstance(value, list):
            return value
        self.add(section, f"expected a list, got {value!r}")
        return []

    def mapping(self, section: str, value) -> dict | None:
        """A mapping-valued section or list entry: {} when it is absent or
        empty, and None after recording a batch entry when it is not a
        mapping."""
        if not value:
            return {}
        if isinstance(value, dict):
            return value
        self.add(section, f"expected a mapping, got {value!r}")
        return None

    def entries(self, section: str, value):
        """(index, mapping) for each entry of a list-valued section,
        recording a batch entry for the section or any entry of the wrong
        shape (see `sequence` and `mapping`)."""
        for i, entry in enumerate(self.sequence(section, value)):
            if (entry := self.mapping(f"{section}[{i}]", entry)) is not None:
                yield i, entry

    def known(self, section: str, mapping: dict, keys) -> dict:
        """The entries of `mapping` that are not null, after recording
        `<section>.<key>: unknown key` for each key that is not in `keys`."""
        for key in mapping:
            if key not in keys:
                self.add(f"{section}.{key}" if section else str(key), "unknown key")
        return {key: value for key, value in mapping.items() if value is not None}

    def build(self, section: str, cls, raw, defaults=None, keys=None, **values):
        """The dataclass `cls` read from the mapping `raw`, or None after
        recording a batch entry for each problem (an unknown key is one but
        does not stop the build). `values` gives the fields the caller reads
        itself, a None there marking one its reader rejected unless the field
        defaults to None. Every other field reads the entry under its name,
        or under `keys[name]`, through `value`; an absent or null entry takes
        `defaults[name]` or the field's default, and is otherwise `missing`."""
        raw = self.mapping(section, raw)
        if raw is None:
            return None
        defaults, keys = defaults or {}, keys or {}
        fields = dataclasses.fields(cls)
        raw = self.known(section, raw, {keys.get(f.name, f.name) for f in fields} - {None})
        kwargs = dict(values)
        ok = all(values[f.name] is not None or f.default is None
                 for f in fields if f.name in values)
        for f in (f for f in fields if f.name not in values):
            key = keys.get(f.name, f.name)
            if key in raw:
                kwargs[f.name] = self.value(f"{section}.{key}", f.type, raw[key])
                ok &= kwargs[f.name] is not None
            elif f.name in defaults:
                kwargs[f.name] = defaults[f.name]
            elif f.default is f.default_factory is dataclasses.MISSING:
                self.add(f"{section}.{key}", "missing")
                ok = False
        return self.guard(section, cls, **kwargs) if ok else None

    def value(self, section: str, annotation: str, value):
        """`value` read for a field annotated `annotation`: a float through
        `number`, a str through `str` unless it is a list or a mapping, and a
        dict (every other field) as a mapping of numbers; None after
        recording a batch entry."""
        if annotation.startswith("float"):
            return self.number(section, value)
        if annotation.startswith("str"):
            if not isinstance(value, (list, dict)):
                return str(value)
            self.add(section, f"expected a scalar, got {value!r}")
            return None
        if (mapping := self.mapping(section, value)) is None:
            return None
        numbers = {str(k): self.number(f"{section}.{k}", v) for k, v in mapping.items()}
        return None if None in numbers.values() else numbers


def _label(value, index: int):
    """The label of a list entry in messages: its `id` or `name` `value`
    when that is a non-empty str, int or float, else its `index`."""
    return value if isinstance(value, (str, int, float)) and value != "" else index


def _tree_node(errors: _Collector, section: str, raw, weight: float,
               matrices: dict, reports: dict, read: set, paths: dict) -> TreeNode | None:
    """The hierarchy node `raw` at `section`, with its subtree, built through
    `errors.build` with weight `weight`; None after recording a batch entry
    for each problem at or below it. A leaf's indicator defaults to its name.
    Results and reports key nodes by name, so a name that `paths` (name ->
    section, of every node read before) holds already is an error.
    The children's weights are theirs when every child gives one, 1 for a
    single child, and otherwise come from `matrices[name]` (`read` collects
    each such name). The children are read even when their weights fail,
    so that their own problems are listed too."""
    raw = errors.mapping(section, raw)
    if raw is None:
        return None
    name = errors.name(section + ".name", raw.get("name")) or None
    if name in paths:
        errors.add(section, f"node name {name!r} is also used at {paths[name]}")
    elif name is not None:
        paths[name] = section
    entries = errors.sequence(section + ".children", raw.get("children"))
    given = [entry.get("weight") for entry in entries if isinstance(entry, dict)]
    weights = None   # a child that is not a mapping is recorded by its reader
    if len(given) == len(entries) and None not in given:
        weights = [errors.number(f"{section}.children[{i}].weight", w)
                   for i, w in enumerate(given)]
    elif len(entries) == 1:
        weights = [1.0]
    elif len(given) == len(entries) and name is not None:
        read.add(name)
        weights = _matrix_weights(errors, section, name, entries, matrices, reports)
    weighted = weights is not None and None not in weights
    children = tuple(_tree_node(errors, f"{section}.children[{i}]", entry,
                                weights[i] if weighted else 0.0, matrices, reports, read,
                                paths)
                     for i, entry in enumerate(entries))
    return errors.build(section, TreeNode, raw,
                        defaults={} if entries else {"indicator": name}, name=name,
                        weight=weight,
                        children=children if weighted and None not in children else None)


def _matrix_weights(errors: _Collector, section: str, name: str, entries: list,
                    matrices: dict, reports: dict) -> list | None:
    """The weights of the children `entries` of the node `name` at `section`
    from its matrix, with the matrix's CR screen put in `reports[name]`; None
    after recording a batch entry, also when a child gives a weight."""
    given = sum(entry.get("weight") is not None for entry in entries)
    if given or name not in matrices:
        errors.add(section, f"node {name}: {given} of its {len(entries)} children give "
                            f"a weight; give every child a weight, or none and a "
                            f"pairwise matrix matrices.{name}")
        return None
    if (matrix := matrices[name]) is None:   # its reader recorded why
        return None
    section = f"matrices.{name}"
    labels = tuple(str(entry.get("name")) for entry in entries)
    if tuple(map(str, matrix.labels)) != labels:
        errors.add(section, f"labels {matrix.labels} do not match the children "
                            f"{labels} of node {name}")
        return None
    vector = errors.guard(section, ahp.derive_weights, matrix)   # one eigen-solve
    report = vector and errors.guard(section, ahp.screen, matrix.order, vector.lambda_max)
    if report is None:
        return None
    reports[name] = report
    if report.passed:
        return vector.weights.tolist()
    errors.add(section, f"node {name!r} rejected: CR = {report.cr:.4f} >= {ahp.CR_LIMIT}")
    return None


def load_config(path) -> ProjectConfig:
    """Parse and fully validate a project file. Raises ConfigError listing
    every problem found."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw_bytes = path.read_bytes()
    try:
        raw = yaml.load(raw_bytes, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    errors = _Collector()
    base_dir = path.parent
    raw = errors.known("", raw, _TOP_KEYS)

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.add("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    name = raw.get("name", path.stem)
    output_dir = base_dir / str(raw.get("output_dir", "results"))

    # --- catchment ------------------------------------------------------
    subcatchments: dict = {}
    links: list = []
    surface_classes = set()   # of every land-use entry, built or not
    catchment = errors.mapping("catchment", raw.get("catchment")) or {}
    catchment = errors.known("catchment", catchment, ("subcatchments", "links", "outfalls"))
    for i, sub in errors.entries("catchment.subcatchments",
                                 catchment.get("subcatchments")):
        section = f"catchment.subcatchments[{_label(sub.get('id'), i)}]"
        land_uses = []
        for j, lu in errors.entries(section + ".land_uses", sub.get("land_uses")):
            surface_class = lu.get("surface_class")
            surface_classes.add(LandUse.surface_class if surface_class is None
                                else str(surface_class))
            if land_use := errors.build(f"{section}.land_uses[{j}]", LandUse, lu):
                land_uses.append(land_use)
        sc = errors.build(
            section, Subcatchment, sub,
            horton=errors.build(section + ".horton", HortonParams, sub.get("horton")),
            land_uses=tuple(land_uses),
            outlet=errors.path_name(section + ".outlet", sub.get("outlet")),
        )
        if sc:
            if sc.id in subcatchments:
                errors.add(section, f"duplicate subcatchment id {sc.id!r}")
            subcatchments[sc.id] = sc
    for i, ln in errors.entries("catchment.links", catchment.get("links")):
        section = f"catchment.links[{_label(ln.get('id'), i)}]"
        ln.pop("capacity_lps", None)   # a retired key, accepted and ignored
        link = errors.build(section, Link, ln,
                            keys={"from_node": "from", "to_node": "to"},
                            to_node=errors.path_name(section + ".to", ln.get("to")))
        if link:
            links.append(link)
    outfalls = [str(o) for o in errors.sequence("catchment.outfalls",
                                                 catchment.get("outfalls"))]

    # network integrity: outlets reach declared outfalls, no cycles
    if subcatchments:
        try:
            paths = _downstream_paths(links)
            for sc in subcatchments.values():
                if not sc.outlet:   # recorded by path_name
                    continue
                terminal, _ = paths.get(sc.outlet, (sc.outlet, 0.0))
                if outfalls and terminal not in outfalls:
                    errors.add(
                        f"catchment.subcatchments[{sc.id}]",
                        f"outlet {sc.outlet!r} drains to {terminal!r}, "
                        f"which is not a declared outfall",
                    )
        except ValidationError as exc:
            errors.add("catchment.links", exc)

    # --- pollutants ------------------------------------------------------
    pollutants = []
    for i, p in errors.entries("pollutants", raw.get("pollutants")):
        section = f"pollutants[{_label(p.get('name'), i)}]"
        # a pollutant name only heads result columns, which csv quotes
        p_name = errors.name(section + ".name", p.get("name"))
        # names equal in lower case would head one `<name>_reduction` column;
        # a built-in column must not be headed twice either
        indicator = environmental_indicators([p_name])[-1]
        clash = [s.name for s in pollutants if s.name.lower() == p_name.lower()]
        if p_name in clash:
            errors.add(section, "duplicate pollutant name")
        elif clash:
            errors.add(section, f"pollutants {clash[0]!r} and {p_name!r} both give "
                                f"the indicator '{indicator}'")
        elif indicator in environmental_indicators([]):
            errors.add(section, f"pollutant {p_name!r} gives the indicator "
                                f"'{indicator}', which is built in")
        spec = errors.build(section, PollutantSpec, p, name=p_name)
        if spec:
            pollutants.append(spec)
            # a factor no land use reads is most likely a misspelled class,
            # which would leave that class at factor 1
            for key in spec.surface_class_factors:
                if key not in surface_classes:
                    errors.add(f"{section}.surface_class_factors.{key}",
                               f"no land use has surface class {key!r}")
    antecedent = errors.number(
        "antecedent_dry_days",
        raw.get("antecedent_dry_days", DEFAULT_ANTECEDENT_DRY_DAYS))

    # --- LID catalog ------------------------------------------------------
    catalog = default_catalog()
    catalog_raw = errors.mapping("lid_catalog", raw.get("lid_catalog")) or {}
    for key, entry in catalog_raw.items():
        section = f"lid_catalog.{key}"
        kind = errors.guard(section, LidKind.parse, key)
        if kind is None or (entry := errors.mapping(section, entry)) is None:
            continue
        layers = entry.get("layers")
        spec = errors.build(
            section, LidSpec, entry, defaults=vars(catalog[kind]), keys={"kind": None},
            kind=kind,
            layers=catalog[kind].layers if layers is None
            else errors.build(section + ".layers", LidLayers, layers),
        )
        if spec:
            catalog[kind] = spec

    # --- scenarios ------------------------------------------------------
    scenarios = []
    seen_names = set()
    for i, sc_raw in errors.entries("scenarios", raw.get("scenarios")):
        sc_name = errors.path_name(f"scenarios[{i}].name", sc_raw.get("name"))
        section = f"scenarios[{_label(sc_name, i)}]"
        if sc_name == "baseline":
            errors.add(section, "'baseline' is reserved for the run without LID")
        if sc_name in seen_names:
            errors.add(section, "duplicate scenario name")
        seen_names.add(sc_name)
        placements = []
        for j, pl in errors.entries(section + ".placements",
                                    sc_raw.get("placements")):
            psec = f"{section}.placements[{j}]"
            kind = errors.guard(psec, LidKind.parse, pl.get("kind"))
            if kind is None:
                continue
            host_id = str(pl.get("subcatchment", ""))
            host = subcatchments.get(host_id)
            if host is None:
                errors.add(psec, f"unknown subcatchment {host_id!r}")
                continue
            placement = errors.build(
                psec, LidPlacement, pl,
                defaults={"treated_fraction": host.impervious_fraction},
                subcatchment=host_id, kind=kind,
            )
            if placement:
                placements.append(placement)
        scenarios.append(errors.build(section, Scenario, sc_raw, name=sc_name,
                                      placements=tuple(placements)))
        for host_id in dict.fromkeys(p.subcatchment for p in placements):
            hosted = [p for p in placements if p.subcatchment == host_id]
            for problem in placement_problems(subcatchments[host_id], hosted):
                errors.add(section, problem)

    # --- storms ------------------------------------------------------
    storms = None
    if (storms_raw := errors.mapping("storms", raw.get("storms"))) is not None:
        idf_raw = storms_raw.get("idf")
        if idf_raw is None:
            errors.add("storms.idf", "IDF constants are required (a, b_min, n)")
        depths = tuple(errors.number("storms.depths_mm", d)
                       for d in errors.sequence("storms.depths_mm",
                                                storms_raw.get("depths_mm")))
        if not depths:
            errors.add("storms.depths_mm", "at least one storm depth required")
        labels: dict = {}   # storm label -> index of its first depth
        for i, depth in enumerate(depths):
            label = None if depth is None else storm_label(depth)
            if label is not None and (first := labels.setdefault(label, i)) != i:
                errors.add("storms.depths_mm",
                           f"depths {depths[first]!r} and {depth!r} both give "
                           f"the storm label {label!r}")
        storms = errors.build(
            "storms", StormSettings, storms_raw,
            depths_mm=None if None in depths else depths,
            idf=None if idf_raw is None else errors.build("storms.idf", IdfParams, idf_raw),
        )

    # --- sizing ------------------------------------------------------
    sizing = None
    sizing_raw = errors.mapping("sizing", raw.get("sizing"))
    if sizing_raw:
        facilities = []
        for i, f in errors.entries("sizing.existing_facilities",
                                   sizing_raw.get("existing_facilities")):
            f = errors.known(f"sizing.existing_facilities[{i}]", f, ("label", "volume_m3"))
            label = str(f.get("label", f"facility{i}"))
            volume = errors.number(f"sizing.existing_facilities[{label}]",
                                   f.get("volume_m3", 0))
            facilities.append((label, volume))
            if volume is not None and volume < 0:
                errors.add("sizing.existing_facilities",
                           f"{label}: negative volume")
        target_raw = errors.mapping("sizing.target", sizing_raw.get("target")) or {}
        csv_name = target_raw.get("rainfall_csv")
        csv_path = base_dir / str(csv_name) if csv_name else None
        target = errors.build(
            "sizing.target", SizingTarget, target_raw, keys={"record": None},
            rainfall_csv=csv_path,
            record=csv_path and errors.guard("sizing.target.rainfall_csv",
                                             RainRecord.from_csv, csv_path),
        )
        sizing = errors.build("sizing", SizingSettings, sizing_raw,
                              existing_facilities=tuple(facilities), target=target)
    if sizing:
        target = sizing.target
        if target.depth_mm is None and target.atrcr is None:
            errors.add("sizing.target", "need either depth_mm or atrcr")
        if target.atrcr is not None and target.rainfall_csv is None:
            errors.add("sizing.target", "atrcr target needs rainfall_csv")
        if target.atrcr is not None and not 0.0 < target.atrcr < 1.0:
            errors.add("sizing.target.atrcr", f"must be in (0, 1), got {target_raw['atrcr']}")
        min_event = sizing.min_event_mm
        if target.record and not target.record.depths(min_event).size:
            errors.add("sizing.min_event_mm",
                       f"the rainfall record has no event deeper than {min_event:g} mm")
        if sizing.psi is not None and not 0.0 < sizing.psi <= 1.0:
            errors.add("sizing.psi", f"must be in (0, 1], got {sizing_raw['psi']}")
        if sizing.area_ha is not None and not sizing.area_ha > 0.0:
            errors.add("sizing.area_ha", f"must be positive, got {sizing_raw['area_ha']}")
        if sizing.psi is None and not any(sc.land_uses for sc in subcatchments.values()):
            errors.add("sizing", "needs land uses or an explicit sizing.psi")
        if sizing.area_ha is None and not subcatchments:
            errors.add("sizing", "needs subcatchments or an explicit sizing.area_ha")

    # --- matrices (the hierarchy is read with them, by weight_tree) --------
    matrices: dict = {}   # node -> PairwiseMatrix, or None when it failed to read
    for node, m_raw in (errors.mapping("matrices", raw.get("matrices")) or {}).items():
        section = f"matrices.{node}"
        matrices[node] = None
        if (m_raw := errors.mapping(section, m_raw)) is None:
            continue
        errors.known(section, m_raw, ("csv", "labels", "rows"))
        if "csv" in m_raw:
            matrices[node] = errors.guard(
                section, ahp.PairwiseMatrix.from_csv, base_dir / str(m_raw["csv"])
            )
        else:
            matrices[node] = errors.guard(
                section, ahp.PairwiseMatrix.from_rows,
                tuple(errors.sequence(section + ".labels", m_raw.get("labels"))),
                errors.sequence(section + ".rows", m_raw.get("rows")),
            )

    provided: dict = {}   # indicator -> [(path, table, normalized)] in file order
    names = [sc.name for sc in scenarios]
    for i, entry in errors.entries("direct_tables", raw.get("direct_tables")):
        section = f"direct_tables[{i}]"
        entry = errors.known(section, entry, ("file", "normalized"))
        normalized = entry.get("normalized")
        if normalized is not None and not isinstance(normalized, bool):
            errors.add(section + ".normalized",
                       f"expected true or false, got {normalized!r}")
        file_name = entry.get("file")
        if not file_name:
            errors.add(section, "missing file")
            continue
        table_path = base_dir / str(file_name)
        table = errors.guard(section, IndicatorTable.from_csv, table_path)
        if table is None:
            continue
        # a project without scenarios ranks nothing, so no table row is used
        if names and sorted(table.scenarios) != sorted(names):
            errors.add(section, f"{table_path}: scenarios {table.scenarios} do "
                                f"not match config scenarios {names}")
        for indicator in table.indicators:
            provided.setdefault(indicator, []).append(
                (table_path, table, normalized is True))

    config = ProjectConfig(
        path=path,
        config_hash=hashlib.sha256(raw_bytes).hexdigest(),
        name=str(name),
        output_dir=output_dir,
        subcatchments=subcatchments,
        links=links,
        outfalls=outfalls,
        pollutants=pollutants,
        antecedent_dry_days=antecedent,
        catalog=catalog,
        scenarios=scenarios,
        storms=storms,
        sizing=sizing,
        hierarchy_spec=raw.get("hierarchy"),
        matrices=matrices,
    )
    # reading the tree applies the weight, matrix and CR rules
    config.tree, config.consistency = config.weight_tree(errors)
    if errors.errors:
        raise ConfigError(errors.errors)
    # a project without scenarios ranks nothing, so its leaves need no source
    if scenarios:
        config.fixed_columns = _fixed_columns(errors, config, provided)
    if errors.errors:
        raise ConfigError(errors.errors)
    return config


def _fixed_columns(errors: _Collector, config: ProjectConfig,
                   provided: dict) -> IndicatorTable:
    """The normalized column, in scenario order, of each leaf of `config.tree`
    that the simulation does not fill: `evaluator.normalize` of its facility
    scores or of the one raw direct column of its indicator, or, from a
    table marked `normalized`, that column after `check_normalized`.
    Records a batch entry for every leaf that its source cannot fill."""
    names = [sc.name for sc in config.scenarios]
    simulated = environmental_indicators([p.name for p in config.pollutants])
    columns = {}
    for leaf in config.tree.leaves():
        section = f"hierarchy: leaf {leaf.name!r}"
        sources = provided.get(leaf.indicator, [])
        if leaf.source == "simulated":
            if leaf.indicator not in simulated:
                errors.add(section, f"the simulation does not produce {leaf.indicator!r} "
                                    f"(it produces {', '.join(simulated)})")
            continue
        if leaf.source == "facility_derived":
            raw = errors.guard(section, facility_scores, config.scenarios,
                               config.catalog, leaf)
            normalized = False
        elif len(sources) == 1:
            _, direct, normalized = sources[0]
            raw = direct.column(leaf.indicator)[[direct.scenarios.index(name)
                                                 for name in names]]
        else:
            errors.add(section, f"more than one direct table provides {leaf.indicator!r}: "
                                f"{', '.join(str(path) for path, _, _ in sources)}"
                       if sources else f"no direct table provides {leaf.indicator!r}")
            continue
        if raw is None:
            continue
        column = (errors.guard(section, check_normalized, leaf.indicator, raw) if normalized
                  else errors.guard(section, normalize, leaf, raw, names))
        if column is not None:
            columns[leaf.indicator] = column
    values = np.reshape(list(columns.values()), (len(columns), len(names))).T
    return IndicatorTable(names, list(columns), values)
