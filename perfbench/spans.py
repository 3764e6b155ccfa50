"""Per-layer spans timed from outside the program.

The tracer wraps public lidscore functions at the names their callers look
up (module attributes and class attributes), records one span per call
while a traced rank runs and restores the originals afterwards. Nothing in
lidscore knows it is being traced.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


def _run_key(args, kwargs):
    """Identity of one subcatchment run: (subcatchment, storm, placements).
    Storms are compared by content because each simulate_all call builds
    its own storm objects."""
    sc, storm = args[0], args[1]
    placements = args[2] if len(args) > 2 else kwargs.get("placements", ())
    return (sc.id, float(storm.step_s), storm.intensities_mm_hr.tobytes(),
            tuple(placements))


def _steps(args, kwargs):
    """Steps a kernel call integrates: the length of its first series."""
    return len(args[0])


# (span name, module, attribute path, what the span records besides time)
# The attribute path is where the caller looks the function up, so the
# wrapper is what the caller runs.
SPANS = (
    ("config.load_config", "lidscore.cli", "load_config", None),
    ("ahp.weight_tree", "lidscore.config", "ProjectConfig.weight_tree", None),
    ("ahp.derive_weights", "lidscore.ahp", "derive_weights", None),
    ("storms.build_storms", "lidscore.pipeline", "build_storms", None),
    ("storms.rain_record_read", "lidscore.storms", "RainRecord.from_csv", None),
    ("storms.invert_atrcr", "lidscore.pipeline", "invert_atrcr", None),
    ("storms.atrcr_curve", "lidscore.pipeline", "atrcr_curve", None),
    ("kernels.step_subarea", "lidscore.kernels", "step_subarea", _steps),
    ("kernels.step_lid_unit", "lidscore.kernels", "step_lid_unit", _steps),
    ("hydrology.simulate_subcatchment", "lidscore.pipeline",
     "simulate_subcatchment", _run_key),
    ("hydrology.route", "lidscore.pipeline", "route", None),
    ("hydrology.route_series", "lidscore.pipeline", "route_series", None),
    ("lid.simulate_lid_unit", "lidscore.hydrology", "simulate_lid_unit", None),
    ("quality.simulate_quality", "lidscore.pipeline", "simulate_quality", None),
    ("evaluator.assemble_indicators", "lidscore.pipeline", "assemble_indicators", None),
    ("evaluator.rollup", "lidscore.pipeline", "rollup", None),
    ("pipeline.run_pipeline", "lidscore.pipeline", "run_pipeline", None),
    ("pipeline.weight_sensitivity", "lidscore.pipeline", "weight_sensitivity", None),
    ("pipeline.simulate_all", "lidscore.pipeline", "simulate_all", None),
    ("pipeline.simulate_run", "lidscore.pipeline", "simulate_run", None),
    ("pipeline.persist_runs", "lidscore.pipeline", "_persist_runs", None),
    ("pipeline.write_rows", "lidscore.pipeline", "_Writer.write_rows", None),
    ("pipeline.write_json", "lidscore.pipeline", "_Writer.write_json", None),
    ("pipeline.record", "lidscore.pipeline", "_Writer.record", None),
    ("report.render_tables", "lidscore.report", "render_tables", None),
)

# Spans that write result files; their outermost occurrences make up the
# persistence share of a rank.
PERSIST_SPANS = frozenset({"pipeline.persist_runs", "pipeline.write_rows",
                           "pipeline.write_json", "pipeline.record"})

ROOT = "rank"


class Tracer:
    """Records spans (name, parent, start, end, meta) for one rank at a time."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.missing: list = []

    # -- recording ------------------------------------------------------
    def _wrap(self, name, fn, meta_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0,
                      meta_fn(args, kwargs) if meta_fn else None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()

        return wrapper

    def run(self, fn):
        """Call `fn()` under a root span; returns its result."""
        return self._wrap(ROOT, fn, None)()

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        self.missing = []
        for name, module_name, attr_path, meta in SPANS:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            try:
                for part in owners:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                # the layer was renamed or removed: its metrics read 0
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, meta))
            else:
                wrapped = self._wrap(name, raw, meta)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def summarize(spans: list) -> dict:
    """Per-span-name totals of one rank: calls, s, self_s, steps, plus the
    run-repeat and persistence shares."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    child: defaultdict = defaultdict(float)   # by span index
    steps: Counter = Counter()
    for name, parent, start, end, meta in spans:
        duration = end - start
        calls[name] += 1
        total[name] += duration
        if parent >= 0:
            child[parent] += duration
        if isinstance(meta, int):
            steps[name] += meta
    self_s: defaultdict = defaultdict(float)
    for i, (name, _, start, end, _) in enumerate(spans):
        self_s[name] += (end - start) - child[i]

    seen: set = set()
    repeats = 0
    runs = 0
    persist_s = 0.0
    for name, parent, start, end, meta in spans:
        if name == "hydrology.simulate_subcatchment":
            runs += 1
            repeats += meta in seen
            seen.add(meta)
        elif name in PERSIST_SPANS and not _has_ancestor(spans, parent, PERSIST_SPANS):
            persist_s += end - start
    rank_s = total[ROOT]
    return {
        "calls": dict(calls), "s": dict(total), "self_s": dict(self_s),
        "steps": dict(steps),
        "repeat_frac": repeats / runs if runs else 0.0,
        "persist_frac": persist_s / rank_s if rank_s else 0.0,
        "rank_s": rank_s,
    }


def _has_ancestor(spans, index, names) -> bool:
    while index >= 0:
        if spans[index][0] in names:
            return True
        index = spans[index][1]
    return False


def layer_of(name: str) -> str:
    """Layer a span's self time is charged to: persistence spans form their
    own layer, everything else goes by the module prefix."""
    if name in PERSIST_SPANS:
        return "persistence"
    if name == ROOT:
        return "cli"
    return name.split(".", 1)[0]
