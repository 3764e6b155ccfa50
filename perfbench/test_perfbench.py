"""Self-tests of the benchmark: seeded generators, the span tracer and the
metric list. Run with

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import projects  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from lidscore.config import load_config  # noqa: E402

SYNTHETIC = {"scale_sim": projects.SCALE_SIM, "wide_output": projects.WIDE_OUTPUT}


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_same_seed_same_bytes_other_seed_differs(name, tmp_path):
    a = projects.build(name, 7, ROOT, tmp_path / "a")
    b = projects.build(name, 7, ROOT, tmp_path / "b")
    c = projects.build(name, 8, ROOT, tmp_path / "c")
    assert _files(a.config_path.parent) == _files(b.config_path.parent)
    other = _files(c.config_path.parent)
    assert other.keys() == _files(a.config_path.parent).keys()
    assert all(other[k] != v for k, v in _files(a.config_path.parent).items())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_generated_project_loads_with_fixed_sizes(name, seed, tmp_path):
    config = load_config(projects.build(name, seed, ROOT, tmp_path).config_path)
    sizes = projects.input_size(config)
    knobs = SYNTHETIC[name]
    assert sizes["subcatchments"] == knobs.subcatchments
    assert sizes["outfalls"] == knobs.outfalls
    assert sizes["pollutants"] == knobs.pollutants
    assert sizes["scenarios"] == knobs.scenarios
    assert sizes["storms"] == len(knobs.storm_depths_mm)
    depths = config.storms.depths_mm
    assert sum(depths) == pytest.approx(knobs.storm_total_mm)
    assert all(lo <= d <= hi for d, (lo, hi) in zip(depths, knobs.storm_depths_mm))
    assert sizes["steps_per_series"] == knobs.duration_min + knobs.tail_min
    assert (sizes["rain_record_events"] > 0) == bool(knobs.rain_record_years)


def test_sports_center_is_the_bundled_project(tmp_path):
    workload = projects.build("sports_center", 1, ROOT, tmp_path)
    assert workload.config_path == ROOT / "sample" / "sports_center.yaml"
    assert not any(tmp_path.iterdir())


def test_tracer_restores_every_patched_name():
    import importlib

    def current():
        out = []
        for _, module, path, _ in spans.SPANS:
            owner = importlib.import_module(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            out.append(owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
        return out

    before = current()
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.missing == []
    assert all(a is not b for a, b in zip(before, current()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, current()))


def test_summarize_self_time_and_shares():
    # rank [0, 10] > run_pipeline [1, 9] > persist_runs [2, 6] > write_rows [3, 5]
    #                                     > simulate_subcatchment x2, same key
    recorded = [
        ["rank", -1, 0.0, 10.0, None],
        ["pipeline.run_pipeline", 0, 1.0, 9.0, None],
        ["pipeline.persist_runs", 1, 2.0, 6.0, None],
        ["pipeline.write_rows", 2, 3.0, 5.0, None],
        ["hydrology.simulate_subcatchment", 1, 6.0, 7.0, ("A",)],
        ["hydrology.simulate_subcatchment", 1, 7.0, 8.0, ("A",)],
    ]
    summary = spans.summarize(recorded)
    assert summary["self_s"]["pipeline.run_pipeline"] == pytest.approx(2.0)
    assert summary["self_s"]["pipeline.persist_runs"] == pytest.approx(2.0)
    assert summary["calls"]["hydrology.simulate_subcatchment"] == 2
    assert summary["repeat_frac"] == pytest.approx(0.5)
    assert summary["persist_frac"] == pytest.approx(0.4)   # outermost span only


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(projects.WORKLOADS)
