"""Acceptance suite: the binding exit criteria for this package.

Each test prints one PASS line when its criterion holds (run with
`pytest -s tests/test_acceptance.py` to see them); any assertion failure
prints the corresponding FAIL line.
"""

import dataclasses
import filecmp
import json
import math
import time

import numpy as np
import pytest

import reference
from lidscore import kernels
from lidscore.ahp import PairwiseMatrix, consistency, derive_weights
from lidscore.errors import ConfigError
from lidscore.hydrology import (HortonParams, Subcatchment,
                                composite_runoff_coefficient, horton_rate,
                                runoff_volume, simulate_subcatchment)
from lidscore.lid import (LidKind, LidPlacement, Scenario, area_proportions,
                          control_capacity, default_catalog, existing_capacity,
                          required_volume, simulate_lid_unit)
from lidscore.hydrology import LandUse
from lidscore.metrics import nse
from lidscore.pipeline import build_storms, run_pipeline, simulate_all
from lidscore.storms import (Hyetograph, IdfParams, RainRecord, atrcr_curve,
                             chicago_hyetograph, invert_atrcr)

CATALOG = default_catalog()
KIND_ORDER = [LidKind.BIO_RETENTION, LidKind.GRASSED_SWALE, LidKind.SUNKEN_GREEN,
              LidKind.PERMEABLE_PAVEMENT, LidKind.STORAGE_TANK]


class _Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.title}")
        return False


def test_criterion_1_volume_arithmetic():
    with _Criterion(1, "runoff-volume arithmetic and composite coefficient"):
        assert runoff_volume(0.5945, 26, 64.61) == pytest.approx(9987, abs=2)
        expected_rows = (2938, 5236, 647, 81, 164, 62, 55, 803)
        for (name, psi, area, _), expected in zip(reference.LAND_USES,
                                                  expected_rows):
            assert runoff_volume(psi, 26, area) == pytest.approx(
                expected, abs=2), name
        uses = [LandUse(n, psi, a) for n, psi, a, _ in reference.LAND_USES]
        psi_c = composite_runoff_coefficient(uses)
        assert psi_c == pytest.approx(0.5945, abs=2e-4)
        assert f"{psi_c:.2f}" == "0.59"


def test_criterion_2_sizing_chain():
    with _Criterion(2, "capacity sizing chain and area proportions"):
        total, depth = existing_capacity(reference.EXISTING_FACILITIES,
                                         0.5945, 64.61)
        assert total == pytest.approx(1729)
        assert depth == pytest.approx(4.50, abs=0.05)
        assert required_volume(26, 0.5945, 64.61, total) == pytest.approx(
            8258, abs=2)
        for name, areas in reference.SCENARIO_AREAS.items():
            sc = Scenario(name, tuple(
                LidPlacement("site", kind, area, 0.1)
                for kind, area in zip(KIND_ORDER, areas)))
            capacity = control_capacity(sc, CATALOG)
            assert 8248 <= capacity <= 8268, (name, capacity)
        props = area_proportions(Scenario("scenario_4", tuple(
            LidPlacement("site", kind, area, 0.1)
            for kind, area in zip(KIND_ORDER,
                                  reference.SCENARIO_AREAS["scenario_4"]))))
        assert props[LidKind.BIO_RETENTION] == pytest.approx(0.345, abs=0.002)
        assert props[LidKind.SUNKEN_GREEN] == pytest.approx(0.460, abs=0.002)


def test_criterion_3_benefit_table_reconstruction(published_config, tmp_path):
    with _Criterion(3, "benefit-table reconstruction within 0.001 and ranking"):
        start = time.perf_counter()
        manifest = run_pipeline(published_config, tmp_path / "reconstruction")
        elapsed = time.perf_counter() - start
        with open(tmp_path / "reconstruction" / "benefit_report.json") as fh:
            report = json.load(fh)
        cells = 0
        for node, expected in reference.EXPECTED_BENEFITS.items():
            for got, want in zip(report["scores"][node], expected):
                assert abs(got - want) <= 1e-3, (node, got, want)
                cells += 1
        assert cells == 20
        assert manifest.ranking == reference.EXPECTED_RANKING
        assert elapsed < 1.0


def test_criterion_4_ahp():
    with _Criterion(4, "AHP weighting and consistency screening"):
        ones = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        np.testing.assert_allclose(derive_weights(ones).weights, 1 / 3,
                                   atol=1e-12)
        for group, weights in reference.HIERARCHY_WEIGHTS.items():
            w = np.array(list(weights.values()))
            m = PairwiseMatrix(tuple(weights), w[:, None] / w[None, :])
            np.testing.assert_allclose(derive_weights(m).weights, w, atol=1e-6,
                                       err_msg=group)
            assert consistency(m).cr == pytest.approx(0.0, abs=1e-9)
        values = np.array([[1, 2, 6], [0.5, 1, 4], [1 / 6, 0.25, 1]])
        rep = consistency(PairwiseMatrix(("a", "b", "c"), values))
        oracle = float(np.max(np.linalg.eigvals(values).real))
        assert rep.lambda_max == pytest.approx(oracle, abs=1e-4)
        bad = PairwiseMatrix(
            ("x", "y", "z"),
            np.array([[1.0, 9.0, 1 / 9.0], [1 / 9.0, 1.0, 9.0],
                      [9.0, 1 / 9.0, 1.0]]))
        hierarchy = {"name": "goal", "children": [
            {"name": "x", "indicator": "x", "source": "direct"},
            {"name": "y", "indicator": "y", "source": "direct"},
            {"name": "z", "indicator": "z", "source": "direct"}]}
        with pytest.raises(ConfigError, match="rejected"):
            reference.weight_tree(hierarchy, {"goal": bad})


def test_criterion_5_design_storms():
    with _Criterion(5, "design-storm mass, peak position and scaling"):
        idf = IdfParams(20, 10, 0.75)
        storms = {d: chicago_hyetograph(d, 90, 0.5, idf, 60)
                  for d in (16, 26, 36)}
        for depth, storm in storms.items():
            assert abs(storm.depth_mm() - depth) / depth <= 1e-3
            peak_minute = (np.argmax(storm.intensities_mm_hr) + 0.5)
            assert abs(peak_minute - 45.0) <= 1.0
        doubled = chicago_hyetograph(32, 90, 0.5, idf, 60)
        np.testing.assert_allclose(doubled.intensities_mm_hr,
                                   2.0 * storms[16].intensities_mm_hr,
                                   rtol=1e-12)


def test_criterion_6_hydrology_properties(sports_config):
    with _Criterion(6, "mass balance, oracle agreement and indicator band"):
        # Horton closed form at t = 0.5 h
        horton = HortonParams(76.2, 3.81, 4.14)
        expected = 3.81 + 72.39 * math.exp(-4.14 * 0.5)
        assert horton_rate(horton, 0.5) == pytest.approx(expected, abs=0.01)

        # subcatchment hand case vs independent 1 s explicit Euler
        sc = Subcatchment(id="hand", area_ha=1.0, impervious_fraction=0.0,
                          width_m=100, slope=0.01,
                          horton=HortonParams(12.0, 12.0, 1.0),
                          depression_storage_mm={"impervious": 0.0,
                                                 "pervious": 0.0})
        storm = Hyetograph(step_s=60,
                           intensities_mm_hr=np.array([60.0] * 5 + [0.0] * 55),
                           total_depth_mm=5.0)
        _, balance, _ = simulate_subcatchment(sc, storm)
        coef = (100 * math.sqrt(0.01) / (10_000 * 0.15)) * 1000 ** (-2 / 3)
        d = run_mm = 0.0
        for k in range(3600):
            i = 60 / 3600 if k < 300 else 0.0
            f = min(12 / 3600, i + d)
            q = coef * d ** (5 / 3) if d > 0 else 0.0
            take = min(q, d + i - f)
            d += i - f - take
            run_mm += take
        assert balance.runoff_m3 == pytest.approx(run_mm * 10, rel=0.01)

        # LID unit vs the same 1 s refinement
        spec = CATALOG[LidKind.BIO_RETENTION]
        inflow = np.array([4.0] * 10 + [0.5] * 20)
        coarse = simulate_lid_unit(spec, 200.0, inflow, np.zeros(30), 60.0)
        fine = simulate_lid_unit(spec, 200.0, np.repeat(inflow / 60, 60),
                                 np.zeros(1800), 1.0)
        assert float(coarse.outflow_m3.sum()) == pytest.approx(
            float(fine.outflow_m3.sum()), rel=0.01)

        # example project: closure, load ordering, reduction band
        runs = simulate_all(sports_config, build_storms(sports_config))
        for storm_runs in runs.values():
            for run in storm_runs:
                for balance in run.balances.values():
                    assert balance.closure_error() <= 0.005
        base = {r.storm: r.summary for r in runs["baseline"]}
        for name, storm_runs in runs.items():
            if name == "baseline":
                continue
            for run in storm_runs:
                b = base[run.storm]
                for pollutant, load in run.summary.loads_kg.items():
                    assert load <= b.loads_kg[pollutant] + 1e-9
                red = (b.volume_m3 - run.summary.volume_m3) / b.volume_m3 * 100
                assert 10.0 <= red <= 30.0, (name, run.storm, red)


def test_criterion_7_metrics(sample_dir):
    with _Criterion(7, "fit metrics and capture-depth statistics"):
        obs = np.array([1.0, 2.0, 3.0])
        assert nse(obs, obs).nse == 1.0
        assert nse(obs, np.full(3, 2.0)).nse == pytest.approx(0.0, abs=1e-12)
        assert nse(obs, np.array([1.0, 2.0, 4.0])).nse == pytest.approx(0.5)
        record = RainRecord.from_depths([10, 20, 30])
        assert atrcr_curve(record, [20.0])[20.0] == pytest.approx(
            0.8333, abs=1e-4)
        target = atrcr_curve(record, [15.0])[15.0]
        assert invert_atrcr(record, target) == pytest.approx(15.0, abs=0.0101)
        fixture = RainRecord.from_csv(sample_dir / "rainfall.csv")
        assert invert_atrcr(fixture, 0.75) == pytest.approx(26.0, abs=0.5)


def test_criterion_8_determinism_and_speed(sports_config, tmp_path):
    with _Criterion(8, "byte-identical reruns and end-to-end runtime"):
        out1, out2 = tmp_path / "first", tmp_path / "second"
        start = time.perf_counter()
        m1 = run_pipeline(sports_config, out1)
        elapsed = time.perf_counter() - start
        m2 = run_pipeline(sports_config, out2)
        assert elapsed < 10.0, f"pipeline took {elapsed:.1f} s"
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            if rel.name == "manifest.json":   # carries the run timestamp
                continue
            assert filecmp.cmp(out1 / rel, out2 / rel, shallow=False), rel
        assert m1.files == m2.files
        print(f"  (backend: {kernels.BACKEND}, "
              f"{len(files1)} files, {elapsed:.2f} s)")
