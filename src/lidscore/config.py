"""Project configuration: a single YAML file describing the catchment,
pollutants, LID catalog, scenarios, storm settings, sizing inputs and the
indicator hierarchy. See docs/config.md for the schema.

Validation is eager and batched: every problem found is reported with its
section path in one ConfigError. One reader, `_Collector.build`, reads
every dataclass section, so the same load rules hold in all of them. The
indicator hierarchy is read here too, node by node (`_tree_node`), with
each node's child weights taken from the file or from its pairwise matrix;
`ahp` only does the matrix maths. `load_config` builds the frozen
`ProjectConfig` once, from every value it read, after the last check.
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
from lidscore.errors import RANGES, ConfigError, RangeError, Ranged, ValidationError
from lidscore.evaluator import (IndicatorTable, TreeNode, WeightTree,
                                check_normalized, environmental_indicators,
                                facility_scores, normalize)
from lidscore.hydrology import (HortonParams, LandUse, Link, Subcatchment,
                                _downstream_paths, composite_runoff_coefficient)
from lidscore.kernels import ordered_sum
from lidscore.lid import (LidKind, LidPlacement, LidSpec, Scenario, default_catalog,
                          placement_problems)
from lidscore.quality import DEFAULT_ANTECEDENT_DRY_DAYS, PollutantSpec
from lidscore.storms import (DEFAULT_MIN_EVENT_MM, IdfParams, RainRecord,
                             design_storm_suite, storm_label)

SCHEMA_VERSION = 1
MAX_STEPS = 1_000_000   # of a storm and its dry tail together

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
    # {storm label: Hyetograph} of depths_mm, built from the fields above
    suite: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # building the suite, on a grid checked first so that it can be built,
        # applies the storm generator's own checks (depth, peak ratio, step)
        self._check_grid(self.duration_min)
        suite = design_storm_suite(self.depths_mm, self.duration_min, self.peak_ratio,
                                   self.idf, self.step_s)
        object.__setattr__(self, "suite", {storm_label(d): storm
                                           for d, storm in zip(self.depths_mm, suite)})
        # the simulation appends round(tail_min * 60 / step_s) dry steps
        steps = self.tail_min * 60.0 / self.step_s if self.step_s > 0 else 0.0
        if not (steps >= 0 and math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ValidationError(f"tail_min {self.tail_min} must be >= 0 and a whole "
                                  f"number of {self.step_s} s steps")
        self._check_grid(self.duration_min + self.tail_min)

    def _check_grid(self, minutes: float) -> None:
        if self.step_s > 0 and not minutes * 60.0 / self.step_s <= MAX_STEPS:
            raise ValidationError(f"duration_min + tail_min exceed {MAX_STEPS} steps "
                                  f"of {self.step_s} s")


@dataclass(frozen=True)
class SizingTarget(Ranged):
    depth_mm: float | None = field(default=None, metadata={"range": "> 0"})
    atrcr: float | None = field(default=None, metadata={"range": "in (0, 1)"})
    rainfall_csv: Path | None = None
    record: RainRecord | None = None    # read from rainfall_csv at load


@dataclass(frozen=True)
class SizingSettings(Ranged):
    existing_facilities: tuple
    target: SizingTarget
    min_event_mm: float = DEFAULT_MIN_EVENT_MM
    # given, or else the land-use composite and the summed subcatchment area
    psi: float | None = field(default=None, metadata={"range": "in (0, 1]"})
    area_ha: float | None = field(default=None, metadata={"range": "> 0"})


@dataclass(frozen=True)
class ProjectConfig:
    path: Path
    config_hash: str
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
    tree: WeightTree
    consistency: dict   # node -> ConsistencyReport
    fixed_columns: IndicatorTable | None   # see _fixed_columns; None without scenarios

    @staticmethod
    def weight_tree(errors: _Collector, hierarchy, matrices: dict):
        """(WeightTree, {node: ConsistencyReport}) read from `hierarchy` and
        the read `matrices` (see `_tree_node`), the tree None after recording
        a batch entry for each problem, also for each matrix no node reads."""
        reports, read = {}, set()
        root = _tree_node(errors, "hierarchy", hierarchy, 1.0, matrices, reports, read, {})
        for node in matrices:
            if node not in read:
                errors.add(f"matrices.{node}", "no node reads this matrix: a node reads "
                                               "the matrix of its name when it has two or "
                                               "more children and none gives a weight")
        return root and errors.guard("hierarchy", WeightTree, root), reports

    @staticmethod
    def simulating(scenarios: list, tree: WeightTree) -> bool:
        """Whether a run simulates: a leaf is simulated, or no scenario is ranked."""
        return not scenarios or any(leaf.source == "simulated" for leaf in tree.leaves())


class _Collector:
    def __init__(self):
        self.errors = []

    def add(self, section: str, message) -> None:
        self.errors.append(f"{section}: {message}")

    def guard(self, section: str, fn, *args, sources=(), **kwargs):
        """Run a constructor, converting its ValidationError into a batch
        entry, one per field of a RangeError (ending `(sources[field])` for
        a field that `sources` names); returns None on failure."""
        try:
            return fn(*args, **kwargs)
        except RangeError as exc:
            for name, message in exc.problems.items():
                self.add(section, f"{message} ({sources[name]})" if name in sources else message)
        except (ValidationError, ConfigError, KeyError, TypeError) as exc:
            self.add(section, exc)
        return None

    def number(self, section: str, value, bound: str | None = None):
        """`float(value)`, or None after recording a batch entry when the
        value is not a number (a boolean is not one), not finite, or
        outside the range `bound` (a key of `errors.RANGES`)."""
        try:
            number = None if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            number = None
        if number is None:
            self.add(section, f"expected a number, got {value!r}")
        elif not math.isfinite(number):
            self.add(section, f"{number!r} is not finite")
        elif bound and not RANGES[bound](number):
            self.add(section, f"must be {bound}, got {number}")
        else:
            return number
        return None

    def name(self, section: str, value) -> str | None:
        """`str(value)`, or None after recording a batch entry when it is
        empty, None (a YAML key with no value), or not a scalar (see
        `value`)."""
        if value is None or value == "":
            self.add(section, "missing or empty")
            return None
        return self.value(section, "str", value)

    def path_name(self, section: str, value) -> str | None:
        """`str(value)` for a name that becomes part of a result path, or
        None after recording a batch entry when it is not one plain,
        non-empty path component."""
        name = self.name(section, value)
        if name in (".", "..") or name is not None and ("/" in name or "\\" in name):
            self.add(section, f"{name!r} must be a plain file name "
                              f"(no '/' or '\\', not '.' or '..')")
            return None
        return name

    def file(self, section: str, base_dir: Path, value) -> Path | None:
        """`base_dir / name` for a file name read through `name`, or None
        after recording a batch entry when it is not one."""
        name = self.name(section, value)
        return None if name is None else base_dir / name

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

    def build(self, section: str, cls, raw, defaults=None, keys=None, sources=None, **values):
        """The dataclass `cls` read from the mapping `raw`, or None after
        recording a batch entry for each problem (an unknown key is one but
        does not stop the build; each field outside its declared range is
        one). `values` gives the fields the caller reads itself, a None
        there marking one its reader rejected unless the field defaults to
        None. Every other field reads the entry under its name, or under
        `keys[name]`, through `value`; an absent or null entry takes
        `defaults[name]` or the field's default, and is otherwise `missing`.
        `sources[name]` says where `defaults[name]` comes from (see `guard`)."""
        raw = self.mapping(section, raw)
        if raw is None:
            return None
        defaults, keys = defaults or {}, keys or {}
        fields = [f for f in dataclasses.fields(cls) if f.init]   # not those built from them
        raw = self.known(section, raw, {keys.get(f.name, f.name) for f in fields} - {None})
        kwargs = dict(values)
        ok = all(values[f.name] is not None or f.default is None
                 for f in fields if f.name in values)
        for f in (f for f in fields if f.name not in values):
            key = keys.get(f.name, f.name)
            if key in raw:
                kwargs[f.name] = self.value(f"{section}.{key}", f.type, raw[key],
                                            f.metadata.get("keys"))
                ok &= kwargs[f.name] is not None
            elif f.name in defaults:
                kwargs[f.name] = defaults[f.name]
            elif f.default is f.default_factory is dataclasses.MISSING:
                self.add(f"{section}.{key}", "missing")
                ok = False
        sources = {name: note for name, note in (sources or {}).items()
                   if keys.get(name, name) not in raw}
        return self.guard(section, cls, sources=sources, **kwargs) if ok else None

    def value(self, section: str, annotation: str, value, keys=None):
        """`value` read for a field annotated `annotation`: a float through
        `number`, a str through `str` unless it is a list or a mapping, and a
        dict (every other field) as a mapping of numbers, each of its keys
        not in `keys` (when given) an unknown key; None after recording a
        batch entry."""
        if annotation.startswith("float"):
            return self.number(section, value)
        if annotation.startswith("str"):
            if not isinstance(value, (list, dict)):
                return str(value)
            self.add(section, f"expected a scalar, got {value!r}")
            return None
        if (mapping := self.mapping(section, value)) is None:
            return None
        if keys is not None:
            self.known(section, mapping, keys)
        numbers = {str(k): self.number(f"{section}.{k}", v) for k, v in mapping.items()}
        return None if None in numbers.values() else numbers


def _label(value, index: int):
    """The label of a list entry in messages: its `id` or `name` `value`
    when that is a non-empty str, int or float, else its `index`."""
    return value if isinstance(value, (str, int, float)) and value != "" else index


def _all_read(built: list, raw) -> bool:
    """Whether `built` holds an entry for each entry of the list `raw`."""
    return isinstance(raw, list) and len(built) == len(raw)


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
    name = errors.name(section + ".name", raw.get("name"))
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

    errors.value("name", "str", raw.get("name", path.stem))   # read for its checks only
    output_dir = errors.value("output_dir", "str", raw.get("output_dir", "results"))

    # --- catchment ------------------------------------------------------
    subcatchments: dict = {}
    links: list = []
    surface_classes = set()   # of every land-use entry, built or not
    unbuilt = set()   # ids of subcatchment entries that failed to build, listed already
    catchment = errors.mapping("catchment", raw.get("catchment")) or {}
    catchment = errors.known("catchment", catchment, ("subcatchments", "links", "outfalls"))
    for i, sub in errors.entries("catchment.subcatchments",
                                 catchment.get("subcatchments")):
        section = f"catchment.subcatchments[{_label(sub.get('id'), i)}]"
        land_uses, raw_uses = [], sub.get("land_uses") or []
        for j, lu in errors.entries(section + ".land_uses", raw_uses):
            surface_class = lu.get("surface_class")
            surface_classes.add(LandUse.surface_class if surface_class is None
                                else str(surface_class))
            if land_use := errors.build(f"{section}.land_uses[{j}]", LandUse, lu):
                land_uses.append(land_use)
        sc = errors.build(
            section, Subcatchment, sub,
            horton=errors.build(section + ".horton", HortonParams, sub.get("horton")),
            # a partial list would fail the area check as well
            land_uses=tuple(land_uses) if _all_read(land_uses, raw_uses) else None,
            outlet=errors.path_name(section + ".outlet", sub.get("outlet")) or "",
        )
        if sc:
            if sc.id in subcatchments:
                errors.add(section, f"duplicate subcatchment id {sc.id!r}")
            subcatchments[sc.id] = sc
        elif sub.get("id") is not None:
            unbuilt.add(str(sub["id"]))
    raw_links = catchment.get("links") or []
    for i, ln in errors.entries("catchment.links", raw_links):
        section = f"catchment.links[{_label(ln.get('id'), i)}]"
        link = errors.build(section, Link, ln,
                            keys={"from_node": "from", "to_node": "to"},
                            to_node=errors.path_name(section + ".to", ln.get("to")))
        if link:
            links.append(link)
    outfalls = [errors.value(f"catchment.outfalls[{i}]", "str", o) for i, o in
                enumerate(errors.sequence("catchment.outfalls", catchment.get("outfalls")))]

    # network integrity: outlets reach declared outfalls (if all links and
    # outfalls read), no cycles; `paths` is None unless every check could run
    paths = None
    if subcatchments and _all_read(links, raw_links) and None not in outfalls:
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
        # a built-in column must not be headed twice either; a name that fails
        # to read joins no check, and its entry is not built
        if p_name is not None:
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
        raw.get("antecedent_dry_days", DEFAULT_ANTECEDENT_DRY_DAYS), ">= 0")

    # --- LID catalog ------------------------------------------------------
    catalog = default_catalog()
    catalog_raw = errors.mapping("lid_catalog", raw.get("lid_catalog")) or {}
    for key, entry in catalog_raw.items():
        section = f"lid_catalog.{key}"
        kind = errors.guard(section, LidKind.parse, key)
        if kind is None or (entry := errors.mapping(section, entry)) is None:
            continue
        spec = errors.build(section, LidSpec, entry, defaults=vars(catalog[kind]),
                            keys={"kind": None}, kind=kind)
        if spec:
            catalog[kind] = spec

    # --- scenarios ------------------------------------------------------
    scenarios = []
    seen_names = set()
    scenario_entries = errors.sequence("scenarios", raw.get("scenarios"))
    for i, sc_raw in errors.entries("scenarios", scenario_entries):
        # an entry whose name fails to read is not built and joins no name check
        sc_name = errors.path_name(f"scenarios[{i}].name", sc_raw.get("name"))
        section = f"scenarios[{_label(sc_name, i)}]"
        if sc_name == "baseline":
            errors.add(section, "'baseline' is reserved for the run without LID")
        if sc_name in seen_names:
            errors.add(section, "duplicate scenario name")
        elif sc_name is not None:
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
                if host_id not in unbuilt:
                    errors.add(psec, f"unknown subcatchment {host_id!r}")
                continue
            placement = errors.build(
                psec, LidPlacement, pl,
                defaults={"treated_fraction": host.impervious_fraction},
                subcatchment=host_id, kind=kind,
            )
            if placement:
                placements.append(placement)
        if scenario := errors.build(section, Scenario, sc_raw, name=sc_name,
                                    placements=tuple(placements)):
            scenarios.append(scenario)
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
    if storms and paths is not None:
        # routing shifts each outlet's series by its path lag, rounded to steps
        # as route_series rounds it: the storm, its tail and that shift together
        # must fit the grid too
        dt = storms.step_s
        steps = round(storms.duration_min * 60.0 / dt) + round(storms.tail_min * 60.0 / dt)
        for sc in subcatchments.values():
            terminal, lag = paths.get(sc.outlet, (sc.outlet, 0.0))
            if not (lag / dt <= MAX_STEPS and steps + round(lag / dt) <= MAX_STEPS):
                errors.add(f"catchment.subcatchments[{sc.id}]",
                           f"duration_min + tail_min + the {lag:g} s lag from outlet "
                           f"{sc.outlet!r} to {terminal!r} exceed {MAX_STEPS} steps of {dt} s")

    # --- sizing ------------------------------------------------------
    sizing = None
    sizing_raw = errors.mapping("sizing", raw.get("sizing"))
    if sizing_raw:
        facilities = []
        for i, f in errors.entries("sizing.existing_facilities",
                                   sizing_raw.get("existing_facilities")):
            section = f"sizing.existing_facilities[{i}]"
            f = errors.known(section, f, ("label", "volume_m3"))
            label = errors.value(section + ".label", "str", f.get("label", f"facility{i}"))
            facilities.append((label, errors.number(
                f"sizing.existing_facilities[{_label(label, i)}]", f.get("volume_m3", 0), ">= 0")))
        target_raw = errors.mapping("sizing.target", sizing_raw.get("target")) or {}
        csv_name = target_raw.get("rainfall_csv")
        csv_path = (errors.file("sizing.target.rainfall_csv", base_dir, csv_name)
                    if csv_name else None)
        target = errors.build(
            "sizing.target", SizingTarget, target_raw, keys={"record": None},
            rainfall_csv=csv_path,
            record=csv_path and errors.guard("sizing.target.rainfall_csv",
                                             RainRecord.from_csv, csv_path),
        )
        land_uses = [lu for sc in subcatchments.values() for lu in sc.land_uses]
        sizing = errors.build("sizing", SizingSettings, sizing_raw, defaults={  # the catchment's
            "psi": composite_runoff_coefficient(land_uses) if land_uses else None,
            "area_ha": ordered_sum(sc.area_ha for sc in subcatchments.values()) or None},
            sources={"psi": "the land-use composite"}, existing_facilities=tuple(facilities),
            target=target)
    if sizing:
        target = sizing.target
        if (target.depth_mm is None) == (target.atrcr is None):
            errors.add("sizing.target", "need either depth_mm or atrcr" if target.atrcr is None
                       else "give one of depth_mm and atrcr, not both")
        if target.atrcr is not None and not target_raw.get("rainfall_csv"):
            errors.add("sizing.target", "atrcr target needs rainfall_csv")
        min_event = sizing.min_event_mm
        if target.record and not target.record.depths(min_event).size:
            errors.add("sizing.min_event_mm",
                       f"the rainfall record has no event deeper than {min_event:g} mm")
        if sizing.psi is None:
            errors.add("sizing", "needs land uses or an explicit sizing.psi")
        if sizing.area_ha is None:
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
            csv_path = errors.file(section + ".csv", base_dir, m_raw["csv"])
            matrices[node] = csv_path and errors.guard(
                section, ahp.PairwiseMatrix.from_csv, csv_path)
        else:
            before = len(errors.errors)
            labels = tuple(errors.sequence(section + ".labels", m_raw.get("labels")))
            rows = [errors.sequence(f"{section}.rows[{i}]", row) for i, row
                    in enumerate(errors.sequence(section + ".rows", m_raw.get("rows")))]
            if len(errors.errors) == before:
                matrices[node] = errors.guard(section, ahp.PairwiseMatrix.from_rows,
                                              labels, rows)

    provided: dict = {}   # indicator -> [(path, table, normalized)] in file order
    # a scenario entry that was not built is listed already: check no table against the rest
    names = [sc.name for sc in scenarios] if len(scenarios) == len(scenario_entries) else []
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
        if (table_path := errors.file(section + ".file", base_dir, file_name)) is None:
            continue
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

    # reading the tree applies the weight, matrix and CR rules
    tree, consistency = ProjectConfig.weight_tree(errors, raw.get("hierarchy"), matrices)
    if tree and not catchment.get("subcatchments") and ProjectConfig.simulating(scenarios, tree):
        errors.add("catchment", "no subcatchment to simulate: a project simulates when a "
                                "hierarchy leaf is simulated or it has no scenarios")
    if errors.errors:
        raise ConfigError(errors.errors)
    # a project without scenarios ranks nothing, so its leaves need no source
    fixed_columns = (_fixed_columns(errors, tree, scenarios, catalog, pollutants, provided)
                     if scenarios else None)
    if errors.errors:
        raise ConfigError(errors.errors)
    return ProjectConfig(
        path=path,
        config_hash=hashlib.sha256(raw_bytes).hexdigest(),
        output_dir=base_dir / output_dir,
        subcatchments=subcatchments,
        links=links,
        outfalls=outfalls,
        pollutants=pollutants,
        antecedent_dry_days=antecedent,
        catalog=catalog,
        scenarios=scenarios,
        storms=storms,
        sizing=sizing,
        tree=tree,
        consistency=consistency,
        fixed_columns=fixed_columns,
    )


def _fixed_columns(errors: _Collector, tree: WeightTree, scenarios: list, catalog: dict,
                   pollutants: list, provided: dict) -> IndicatorTable:
    """The normalized column, in scenario order, of each leaf of `tree` that
    the simulation does not fill: `evaluator.normalize` of its facility
    scores or of the one raw direct column of its indicator, or, from a
    table marked `normalized`, that column after `check_normalized`.
    Records a batch entry for every leaf that its source cannot fill."""
    names = [sc.name for sc in scenarios]
    simulated = environmental_indicators([p.name for p in pollutants])
    columns = {}
    for leaf in tree.leaves():
        section = f"hierarchy: leaf {leaf.name!r}"
        sources = provided.get(leaf.indicator, [])
        if leaf.source == "simulated":
            if leaf.indicator not in simulated:
                errors.add(section, f"the simulation does not produce {leaf.indicator!r} "
                                    f"(it produces {', '.join(simulated)})")
            continue
        if leaf.source == "facility_derived":
            raw = errors.guard(section, facility_scores, scenarios, catalog, leaf)
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
