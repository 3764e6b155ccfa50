#!/usr/bin/env python3
"""lidscore benchmark: wall time of one `rank`, end to end and per layer.

    python3 perfbench/run.py --workload sports_center --seed 1 --seconds 30 --trace 0

One rank is what the CLI subcommand does, run in-process through the
click entry point: load_config -> run_pipeline -> the subcommand's extra
step. Load is a closed loop with one client: ranks run back to back in one
warm process, one thread. Workloads (see projects.py):

  sports_center  the bundled case, `rank --sensitivity environmental`:
                 simulation and persistence cost about the same, and the
                 sensitivity step repeats earlier subcatchment runs.
  scale_sim      seeded synthetic project bound by the runoff kernel.
  wide_output    seeded synthetic project bound by persistence, run as
                 `report --format markdown`.

--trace 0 times ranks untraced and reports the end-to-end metrics.
--trace 1 alternates untraced and traced ranks and reports the per-layer
metrics; spans come from wrappers around lidscore functions (spans.py).
Reported rank and setup times are wall times scaled by a fixed reference
loop timed next to the calls (see REFERENCE_S); the unscaled medians are
printed too.

Every rank is checked: the manifest's result-file SHA-256 set must equal
the first rank's, and the ranking must be a permutation of the configured
scenarios. Once per invocation sample/published_tables.yaml must
reproduce the published benefit table and ranking. Human-readable lines
go to stdout first; the last line is one JSON object. A detailed record
(environment, input size, result digests, every sample) is written to
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import projects
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

SETUP_REPEATS = 9
MIN_RANKS = 3
P90_MIN_SAMPLES = 100   # p90 needs at least ten samples beyond it

# Contention from other tenants of a shared host slows every process on it
# by a factor that drifts over tens of seconds to minutes (1.5x-2x was seen
# on a 2-vCPU VM). A fixed loop of the float arithmetic the kernels do,
# timed right before and after each timed call, is slowed too, so reported
# times are wall times scaled by REFERENCE_S / (loop time measured around
# them): the time the call takes where the loop takes REFERENCE_S, about
# its time on a lightly loaded 2.1 GHz Xeon vCPU with CPython 3.11. The
# correction is partial, as contention can slow a rank more than the
# loop, but on a fluctuating host it cut the spread of run medians across
# five seeds from 0.13-0.20 to 0.04. (A mix that also wrote and hashed a
# file, formatted rows and ran NumPy passes was noisier.) Raw wall times
# are printed and kept in the result record.
REFERENCE_S = 0.040

# end-to-end metrics (--trace 0); BENCHMARK.json lists the same names
END_TO_END = (
    ("rank_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_files", "count"),
    ("output_bytes", "bytes"),
)

# per-layer metrics (--trace 1). "<span>.calls|s|self_s|steps|ns_per_step"
# are read from the span summary; the rest are derived in layer_metrics().
PER_LAYER = (
    ("config.load_config.s", "s"),
    ("ahp.weight_tree.calls", "count"),
    ("ahp.weight_tree.s", "s"),
    ("ahp.matrices", "count"),
    ("storms.build_storms.s", "s"),
    ("storms.rain_record_read.s", "s"),
    ("storms.invert_atrcr.s", "s"),
    ("storms.atrcr_curve.s", "s"),
    ("kernels.step_subarea.calls", "count"),
    ("kernels.step_subarea.steps", "count"),
    ("kernels.step_subarea.s", "s"),
    ("kernels.step_subarea.ns_per_step", "ns"),
    ("kernels.step_lid_unit.calls", "count"),
    ("kernels.step_lid_unit.steps", "count"),
    ("kernels.step_lid_unit.s", "s"),
    ("kernels.step_lid_unit.ns_per_step", "ns"),
    ("hydrology.simulate_subcatchment.calls", "count"),
    ("hydrology.simulate_subcatchment.self_s", "s"),
    ("hydrology.simulate_subcatchment.repeat_frac", "ratio"),
    ("hydrology.route.s", "s"),
    ("hydrology.route_series.s", "s"),
    ("hydrology.closure_max", "ratio"),
    ("lid.simulate_lid_unit.calls", "count"),
    ("lid.simulate_lid_unit.self_s", "s"),
    ("quality.simulate_quality.calls", "count"),
    ("quality.simulate_quality.s", "s"),
    ("evaluator.assemble_indicators.s", "s"),
    ("evaluator.rollup.calls", "count"),
    ("evaluator.rollup.s", "s"),
    ("pipeline.simulate_all.calls", "count"),
    ("pipeline.simulate_all.s", "s"),
    ("pipeline.simulate_run.self_s", "s"),
    ("pipeline.persist_runs.s", "s"),
    ("pipeline.write_rows.calls", "count"),
    ("pipeline.write_rows.self_s", "s"),
    ("pipeline.record.s", "s"),
    ("pipeline.persist_frac", "ratio"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("report.render_tables.s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# The paper's benefit table for sample/published_tables.yaml (scenarios 1-5)
# and its ranking; the roll-up must match within PUBLISHED_TOLERANCE.
PUBLISHED_BENEFITS = {
    "environmental": [0.222, 0.186, 0.187, 0.220, 0.185],
    "economic": [0.185, 0.212, 0.201, 0.210, 0.192],
    "social": [0.184, 0.215, 0.188, 0.229, 0.185],
    "comprehensive": [0.208, 0.196, 0.191, 0.218, 0.187],
}
PUBLISHED_RANKING = ["scenario_4", "scenario_1", "scenario_2", "scenario_3",
                     "scenario_5"]
PUBLISHED_TOLERANCE = 1e-3


class Bench:
    """Runs ranks of one workload into one output directory and checks
    each result."""

    def __init__(self, workload: projects.Workload, scenarios: list, out_dir: Path):
        from lidscore import cli

        self.cli = cli
        self.out_dir = out_dir
        self.argv = [workload.command, "--config", str(workload.config_path),
                     "--out", str(out_dir), *workload.options]
        self.scenarios = sorted(scenarios)
        self.reference_files = None     # manifest "files" of the first rank
        self.output = (0, 0)            # (files, bytes) of the last rank
        self.attempted = 0
        self.failures: list = []

    def _cli(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main.main(self.argv, standalone_mode=False)

    def rank(self, call=lambda fn: fn()):
        """One rank; returns its wall time, or None if it failed. `call`
        runs the rank (the tracer passes its root span here)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            call(self._cli)
        except (Exception, SystemExit) as exc:  # the CLI exits 2/3 on errors
            self.failures.append(f"rank {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        try:
            problem = self._check()
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable results: {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"rank {self.attempted}: {problem}")
            return None
        return elapsed

    def _check(self) -> str | None:
        manifest = json.loads((self.out_dir / "manifest.json").read_text())
        files = manifest["files"]
        if self.reference_files is None:
            self.reference_files = files
        elif files != self.reference_files:
            changed = sorted(k for k in files.keys() | self.reference_files.keys()
                             if files.get(k) != self.reference_files.get(k))
            return f"result files differ from the first rank: {changed[:5]}"
        if sorted(manifest["ranking"]) != self.scenarios:
            return f"ranking {manifest['ranking']} is not a permutation of {self.scenarios}"
        count = size = 0
        for dirpath, _, names in os.walk(self.out_dir):
            for name in names:
                count += 1
                size += os.path.getsize(os.path.join(dirpath, name))
        self.output = (count, size)
        return None

    def closure_max(self) -> float:
        worst = 0.0
        for path in self.out_dir.rglob("water_balance.csv"):
            rows = path.read_text().splitlines()[1:]
            worst = max([worst] + [float(r.rsplit(",", 1)[1]) for r in rows])
        return worst


def check_published(out_dir: Path) -> str | None:
    """Roll up the all-direct published project; None if it matches."""
    from lidscore.config import load_config
    from lidscore.pipeline import run_pipeline

    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        manifest = run_pipeline(load_config(ROOT / "sample" / "published_tables.yaml"),
                                out_dir)
        scores = json.loads((out_dir / "benefit_report.json").read_text())["scores"]
    except Exception as exc:  # reported as a failed check, not a crash
        return f"published tables: {type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for node, expected in PUBLISHED_BENEFITS.items():
        for i, (got, want) in enumerate(zip(scores[node], expected)):
            if abs(got - want) > PUBLISHED_TOLERANCE:
                return f"published tables: {node}[{i}] = {got:.4f}, paper {want}"
    if manifest.ranking != PUBLISHED_RANKING:
        return f"published tables: ranking {manifest.ranking}, paper {PUBLISHED_RANKING}"
    return None


def reference_loop() -> float:
    """Wall time of a fixed loop of the float arithmetic the kernels do."""
    start = time.perf_counter()
    depth = 0.0
    for _ in range(300_000):
        excess = depth - 1.5
        outflow = 0.001 * excess ** (5.0 / 3.0) if excess > 0.0 else 0.0
        depth += (0.01 - outflow) * 0.5
    return time.perf_counter() - start


class Scaler:
    """Scales wall times to the reference speed (see REFERENCE_S).
    Call scale() right after each timed call."""

    def __init__(self):
        self.before = reference_loop()
        self.loops = [self.before]

    def scale(self, wall: float | None) -> float | None:
        after = reference_loop()
        self.loops.append(after)
        factor = 2.0 * REFERENCE_S / (self.before + after)
        self.before = after
        return None if wall is None else wall * factor


def time_setup(config_path: Path, repeats: int) -> list:
    """Wall times of fresh interpreters that import lidscore.cli and load
    the project, as every CLI invocation does."""
    code = ("import lidscore.cli\n"
            "from lidscore.config import load_config\n"
            f"load_config({str(config_path)!r})\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", code]
    run = dict(env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
    subprocess.run(cmd, **run)   # untimed: writes the bytecode caches
    wall = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, **run)
        wall.append(time.perf_counter() - start)
    return wall


def environment(seed: int, nproc: int) -> dict:
    import numpy
    from lidscore import kernels

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lidscore").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def files_digest(files: dict | None) -> str | None:
    if files is None:
        return None
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def layer_metrics(summary: dict) -> dict:
    """Per-layer values of one traced rank (all but closure and overhead)."""
    derived = {
        "ahp.matrices": summary["calls"].get("ahp.derive_weights", 0),
        "hydrology.simulate_subcatchment.repeat_frac": summary["repeat_frac"],
        "pipeline.persist_frac": summary["persist_frac"],
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
            continue
        span, field = name.rsplit(".", 1)
        if field == "ns_per_step":
            steps = summary["steps"].get(span, 0)
            out[name] = summary["s"].get(span, 0.0) / steps * 1e9 if steps else 0.0
        elif field in ("calls", "s", "self_s", "steps"):
            out[name] = summary[field].get(span, 0)
    return out


def measure(bench: Bench, seconds: float, traced: bool) -> dict:
    """Closed loop until `seconds` have passed. Untraced: every rank is
    timed. Traced: untraced and traced ranks alternate. Rank times are
    scaled (see Scaler); "wall_s" keeps the untraced wall times."""
    wall_s, untraced_s, traced_s, per_rank, layers = [], [], [], [], []
    closure = 0.0
    tracer = spans.Tracer()
    scaler = Scaler()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or bench.attempted <= MIN_RANKS:
        elapsed = bench.rank()
        scaled = scaler.scale(elapsed)
        if elapsed is not None:
            wall_s.append(elapsed)
            untraced_s.append(scaled)
        if not traced:
            continue
        tracer.reset()
        tracer.install()
        try:
            elapsed = bench.rank(tracer.run)
        finally:
            tracer.uninstall()
        scaled = scaler.scale(elapsed)
        if elapsed is not None:
            traced_s.append(scaled)
            summary = spans.summarize(tracer.spans)
            per_rank.append(layer_metrics(summary))
            by_layer: dict = {}
            for name, value in summary["self_s"].items():
                layer = spans.layer_of(name)
                by_layer[layer] = by_layer.get(layer, 0.0) + value
            layers.append(by_layer)
            closure = max(closure, bench.closure_max())
    return {"wall_s": wall_s, "untraced_s": untraced_s, "traced_s": traced_s,
            "per_rank": per_rank, "layers": layers, "closure_max": closure,
            "missing": tracer.missing, "reference_loop_s": scaler.loops}


def p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def median_of(rows: list, key) -> float:
    return p50(r.get(key, 0.0) for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=projects.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lidscore" / "__init__.py").is_file():
        print(f"perfbench: no lidscore sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from lidscore.config import load_config

    # one CPU for the ranks, the reference loop and the setup interpreters,
    # so the loop sees the contention the timed work sees
    nproc = len(os.sched_getaffinity(0))
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    WORK.mkdir(parents=True, exist_ok=True)
    project_dir = WORK / f"{args.workload}-seed{args.seed}"
    out_dir = WORK / "out"
    shutil.rmtree(project_dir, ignore_errors=True)
    workload = projects.build(args.workload, args.seed, ROOT, project_dir)
    config = load_config(workload.config_path)
    sizes = projects.input_size(config)
    env = environment(args.seed, nproc)

    published_problem = check_published(WORK / "published")
    bench = Bench(workload, [s.name for s in config.scenarios], out_dir)
    bench.rank()    # warm-up, untimed: fills caches and fixes the reference files

    setup_wall = [] if args.trace else time_setup(workload.config_path, SETUP_REPEATS)
    run = measure(bench, args.seconds, traced=bool(args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)

    failures = list(bench.failures)
    attempted = bench.attempted + 1
    failed = len(bench.failures) + (published_problem is not None)
    if published_problem:
        failures.append(published_problem)
    times = run["untraced_s"]
    files, size = bench.output

    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"),
        "input " + " ".join(f"{k}={v}" for k, v in sizes.items()),
        f"result files {len(bench.reference_files or {})}, "
        f"sha256 set digest {files_digest(bench.reference_files)}",
    ]
    samples: dict = {}
    if args.trace == 0:
        values = {
            "rank_s_p50": p50(times),
            # scaled by the loops of the rank phase: a loop run right after
            # a child process exits is slowed by it
            "setup_s": p50(setup_wall) * REFERENCE_S / p50(run["reference_loop_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "output_files": files,
            "output_bytes": size,
        }
        samples = {"rank_s_p50": len(times), "setup_s": len(setup_wall),
                   "peak_rss_mb": 1, "output_files": len(times), "output_bytes": len(times)}
        units = dict(END_TO_END)
        for name, value in values.items():
            lines.append(f"{name:<14} {value:>14.6g} {units[name]:<6} n={samples[name]}")
        lines.append(f"{'':<14} unscaled wall p50: rank {p50(run['wall_s']):.6g} s, "
                     f"setup {p50(setup_wall):.6g} s; reference loop p50 "
                     f"{p50(run['reference_loop_s']):.6g} s "
                     f"(nominal {REFERENCE_S} s)")
        if len(times) >= P90_MIN_SAMPLES:
            lines.append(f"{'rank_s_p90':<14} {statistics.quantiles(times, n=10)[-1]:>14.6g} s "
                         f"     n={len(times)}")
        else:
            lines.append(f"{'rank_s_p90':<14} not reported: {len(times)} samples, "
                         f"needs {P90_MIN_SAMPLES}")
    else:
        values = {name: median_of(run["per_rank"], name) for name, _ in PER_LAYER}
        values["hydrology.closure_max"] = run["closure_max"]
        traced_p50, untraced_p50 = p50(run["traced_s"]), p50(times)
        values["trace.overhead_frac"] = ((traced_p50 - untraced_p50) / untraced_p50
                                         if untraced_p50 else 0.0)
        samples = {name: len(run["per_rank"]) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        for name, _ in PER_LAYER:
            lines.append(f"{name:<44} {values[name]:>12.6g} {units[name]:<5} "
                         f"n={samples[name]}")
        layer_self = {layer: median_of(run["layers"], layer)
                      for layer in sorted({k for r in run["layers"] for k in r})}
        ranked = sorted(layer_self.items(), key=lambda kv: -kv[1])
        lines.append("self time by layer (median per traced rank): "
                     + ", ".join(f"{k} {v:.4f} s" for k, v in ranked))
        if run["missing"]:
            lines.append("spans not found, reported as 0: " + ", ".join(run["missing"]))
    lines.append(f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} attempted)")
    lines.extend(f"failure: {f}" for f in failures[:10])

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "input_size": sizes, "argv": bench.argv,
        "result_files": bench.reference_files,
        "result_files_digest": files_digest(bench.reference_files),
        "metrics": values, "samples": samples,
        "rank_s": times, "traced_rank_s": run["traced_s"],
        "rank_wall_s": run["wall_s"], "setup_wall_s": setup_wall,
        "reference_loop_s": run["reference_loop_s"],
        "attempted": attempted, "failed": failed, "failures": failures,
    }
    if args.trace:
        record["layer_self_s"] = layer_self
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("\n".join(lines))
    metric_units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
