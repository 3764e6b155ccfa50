"""Tests for infiltration, runoff generation and translation routing.

Reference values: the case-study land-use table (composite coefficient
0.5945, 9,987 m3 of runoff at 26 mm) and closed-form Horton arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from lidscore import kernels
from lidscore.errors import ValidationError
from lidscore.hydrology import (HortonParams, LandUse, Link, Subcatchment,
                                composite_runoff_coefficient, horton_rate,
                                WaterBalance, _manning_coefficient, route_series,
                                runoff_volume, simulate_subcatchment)
from lidscore.lid import LidKind, LidPlacement, default_catalog
from lidscore.storms import Hyetograph, IdfParams, chicago_hyetograph

HORTON = HortonParams(f0_mm_hr=76.2, fc_mm_hr=3.81, decay_per_hr=4.14)


def make_subcatchment(**overrides):
    base = dict(
        id="test", area_ha=1.0, impervious_fraction=0.5, width_m=100,
        slope=0.01, horton=HORTON,
    )
    base.update(overrides)
    return Subcatchment(**base)


def flat_storm(mm_hr, wet_steps, total_steps, step_s=60):
    series = np.array([mm_hr] * wet_steps + [0.0] * (total_steps - wet_steps))
    return Hyetograph(step_s=step_s, intensities_mm_hr=series,
                      total_depth_mm=mm_hr * wet_steps * step_s / 3600.0)


class TestHorton:
    def test_initial_rate(self):
        assert horton_rate(HORTON, 0.0) == pytest.approx(76.2)

    def test_asymptote(self):
        assert horton_rate(HORTON, 100.0) - 3.81 < 1e-6

    def test_closed_form_half_hour(self):
        """f(0.5 h) = 3.81 + 72.39 exp(-2.07) = 12.94 mm/hr."""
        expected = 3.81 + 72.39 * math.exp(-4.14 * 0.5)
        got = horton_rate(HORTON, 0.5)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(12.95, abs=0.01)

    def test_strictly_decreasing(self):
        times = np.linspace(0, 2, 50)
        rates = [horton_rate(HORTON, t) for t in times]
        assert np.all(np.diff(rates) < 0)

    def test_negative_time_raises(self):
        with pytest.raises(ValidationError):
            horton_rate(HORTON, -0.1)

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            HortonParams(f0_mm_hr=1.0, fc_mm_hr=2.0, decay_per_hr=4.0)
        with pytest.raises(ValidationError):
            HortonParams(f0_mm_hr=10.0, fc_mm_hr=1.0, decay_per_hr=0.0)


class TestCompositeCoefficient:
    def test_case_study_table(self):
        """Eight land uses -> 0.5945 (reports print 0.59)."""
        uses = [LandUse(n, psi, area) for n, psi, area, _ in reference.LAND_USES]
        psi_c = composite_runoff_coefficient(uses)
        assert psi_c == pytest.approx(reference.COMPOSITE_PSI, abs=2e-4)
        assert f"{psi_c:.2f}" == "0.59"

    def test_single_use(self):
        assert composite_runoff_coefficient([LandUse("x", 0.4, 2.0)]) == 0.4

    def test_equal_area_mean(self):
        uses = [LandUse("a", 0.2, 1.0), LandUse("b", 0.4, 1.0)]
        assert composite_runoff_coefficient(uses) == pytest.approx(0.3)

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            composite_runoff_coefficient([])

    def test_bounded_by_extremes(self):
        uses = [LandUse("a", 0.15, 3.0), LandUse("b", 0.9, 1.0)]
        psi_c = composite_runoff_coefficient(uses)
        assert 0.15 <= psi_c <= 0.9


class TestRunoffVolume:
    def test_case_study_total(self):
        got = runoff_volume(0.5945, 26, 64.61)
        assert round(got) == pytest.approx(reference.TOTAL_RUNOFF_M3, abs=2)

    def test_per_land_use_rows(self):
        for name, psi, area, expected in reference.LAND_USES:
            got = runoff_volume(psi, 26, area)
            assert got == pytest.approx(expected, abs=2), name

    def test_zero_depth(self):
        assert runoff_volume(0.9, 0.0, 10.0) == 0.0

    def test_linearity(self):
        assert runoff_volume(0.6, 10, 3) * 2 == runoff_volume(0.6, 20, 3)

    def test_negative_raises(self):
        with pytest.raises(ValidationError):
            runoff_volume(-0.1, 10, 5)


class TestSimulateSubcatchment:
    def test_zero_rain(self):
        sc = make_subcatchment()
        flows, balance, _ = simulate_subcatchment(sc, flat_storm(0.0, 0, 30))
        assert np.all(flows == 0.0)
        assert balance.runoff_m3 == 0.0
        assert balance.infiltration_m3 == 0.0

    def test_fully_impervious_conserves_rain(self):
        """No storage, no infiltration: all rain leaves given a long tail."""
        sc = make_subcatchment(impervious_fraction=1.0,
                               depression_storage_mm={"impervious": 0.0,
                                                      "pervious": 2.5})
        storm = chicago_hyetograph(26, 90, 0.5, IdfParams(20, 10, 0.75), 60)
        _, balance, _ = simulate_subcatchment(sc, storm, tail_min=240)
        assert balance.runoff_m3 == pytest.approx(balance.rainfall_m3, rel=5e-3)

    def test_hand_case_against_fine_euler_oracle(self):
        """1 ha, 60 mm/hr for 5 min then dry, constant 12 mm/hr
        infiltration, no depression storage; the 60 s run must match an
        independent 1 s explicit-Euler integration within 1%."""
        sc = make_subcatchment(
            impervious_fraction=0.0,
            horton=HortonParams(12.0, 12.0, 1.0),
            depression_storage_mm={"impervious": 0.0, "pervious": 0.0},
        )
        _, balance, _ = simulate_subcatchment(sc, flat_storm(60.0, 5, 60))

        coef = (sc.width_m * math.sqrt(sc.slope)
                / (sc.area_m2 * sc.manning_n["pervious"]) * 1000 ** (-2 / 3))
        d = 0.0
        runoff_mm = 0.0
        for k in range(3600):
            i = 60.0 / 3600.0 if k < 300 else 0.0
            f = min(12.0 / 3600.0, i + d)
            q = coef * d ** (5 / 3) if d > 0 else 0.0
            take = min(q, d + i - f)
            d = d + i - f - take
            runoff_mm += take
        oracle_m3 = runoff_mm * sc.area_m2 / 1000.0
        assert balance.runoff_m3 == pytest.approx(oracle_m3, rel=0.01)

    def test_mass_balance_closure(self):
        sc = make_subcatchment(impervious_fraction=0.6)
        storm = chicago_hyetograph(26, 90, 0.5, IdfParams(20, 10, 0.75), 60)
        _, balance, _ = simulate_subcatchment(sc, storm, tail_min=60)
        assert balance.closure_error() <= 0.005

    def test_closure_of_subnormal_rain(self):
        """A rain volume below the smallest normal float has too few
        significant bits for a relative closure, so it is measured against
        that float: 4e-321 m3 unaccounted for is no model error."""
        assert WaterBalance(1e-320, 0, 0, 0.6e-320, 0).closure_error() < 1e-12
        assert WaterBalance(2.0, 1.0, 0, 0.9, 0).closure_error() == pytest.approx(0.05)
        assert WaterBalance(0.0, 0, 0, 0, 0).closure_error() == 0.0

    def test_subnormal_surface_drains_within_the_step(self):
        """A 1 m2 subcatchment with impervious fraction 4e-323 has an
        impervious surface so small that area * manning n underflows to 0.
        That surface drains its excess within the step, with an infinite
        outflow coefficient, instead of dividing by zero."""
        sc = make_subcatchment(area_ha=1e-4, impervious_fraction=4e-323)
        assert _manning_coefficient(sc, sc.area_m2 * 4e-323, "impervious") == math.inf
        storm = chicago_hyetograph(26, 90, 0.5, IdfParams(20, 10, 0.75), 60)
        flows, balance, _ = simulate_subcatchment(sc, storm, tail_min=60)
        assert np.all(np.isfinite(flows))
        assert balance.closure_error() <= 1e-12

    def test_mass_balance_with_lids(self):
        sc = make_subcatchment(impervious_fraction=0.6)
        storm = chicago_hyetograph(26, 90, 0.5, IdfParams(20, 10, 0.75), 60)
        placements = [LidPlacement("test", LidKind.BIO_RETENTION, 0.05, 0.4),
                      LidPlacement("test", LidKind.STORAGE_TANK, 0.01, 0.3)]
        _, balance, _ = simulate_subcatchment(
            sc, storm, placements, default_catalog(), tail_min=60)
        assert balance.closure_error() <= 0.005
        assert balance.lid_captured_m3 > 0
        # both units capture: the second adds to what the first holds alone
        _, first_only, _ = simulate_subcatchment(
            sc, storm, placements[:1], default_catalog(), tail_min=60)
        assert balance.lid_captured_m3 > first_only.lid_captured_m3

    def test_more_imperviousness_never_reduces_runoff(self):
        storm = chicago_hyetograph(26, 90, 0.5, IdfParams(20, 10, 0.75), 60)
        volumes = []
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            sc = make_subcatchment(impervious_fraction=frac)
            _, balance, _ = simulate_subcatchment(sc, storm, tail_min=120)
            volumes.append(balance.runoff_m3)
        assert np.all(np.diff(volumes) >= -1e-9)

    def test_cumulative_infiltration_bounded_by_horton_integral(self):
        sc = make_subcatchment(impervious_fraction=0.0)
        storm = chicago_hyetograph(36, 90, 0.5, IdfParams(20, 10, 0.75), 60)
        _, balance, _ = simulate_subcatchment(sc, storm, tail_min=60)
        hours = 150 / 60.0
        analytic_mm = (HORTON.fc_mm_hr * hours
                       + (HORTON.f0_mm_hr - HORTON.fc_mm_hr)
                       / HORTON.decay_per_hr
                       * (1 - math.exp(-HORTON.decay_per_hr * hours)))
        assert balance.infiltration_m3 <= analytic_mm / 1000.0 * sc.area_m2 + 1e-9

    def test_lid_area_exceeding_subcatchment(self):
        sc = make_subcatchment()
        storm = flat_storm(10.0, 5, 10)
        placements = [LidPlacement("test", LidKind.SUNKEN_GREEN, 1.5, 0.2)]
        with pytest.raises(ValidationError, match="exceeds subcatchment test"):
            simulate_subcatchment(sc, storm, placements, default_catalog())

    def test_placements_without_catalog(self):
        placements = [LidPlacement("test", LidKind.SUNKEN_GREEN, 0.1, 0.2)]
        with pytest.raises(ValidationError, match="test: placements given without"):
            simulate_subcatchment(make_subcatchment(), flat_storm(10.0, 5, 10),
                                  placements)

    def test_land_use_area_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="land-use areas"):
            make_subcatchment(land_uses=(LandUse("a", 0.5, 0.4),))

    @pytest.mark.parametrize("step_s", [30, 60, 300])
    def test_capacity_series_is_horton_rate(self, monkeypatch, step_s):
        """The pervious capacity series the kernel gets, built in one NumPy
        expression, is `horton_rate` at every step's midpoint (in mm/s)
        within a relative 1e-15; the impervious surface gets zeros."""
        calls = []
        step = kernels.step_subarea

        def record(*call):
            calls.append(call)
            return step(*call)

        monkeypatch.setattr(kernels, "step_subarea", record)
        storm = flat_storm(20.0, 30 * 60 // step_s, 240 * 60 // step_s,
                           step_s=step_s)
        simulate_subcatchment(make_subcatchment(), storm, tail_min=60)
        (impervious, pervious) = [call[1] for call in calls]
        expected = np.array([horton_rate(HORTON, (k + 0.5) * step_s / 3600.0)
                             for k in range(pervious.size)]) / 3600.0
        assert pervious.size == 300 * 60 // step_s
        np.testing.assert_allclose(pervious, expected, rtol=1e-15, atol=0.0)
        assert not impervious.any()

    def test_step_beyond_substep_limit_is_named(self, monkeypatch):
        """With the kernel's tolerance shrunk to an absolute 2**-10 mm, 10
        mm in one 600 s step asks for 4,131 substeps, more than the kernel
        allows; the error says where. The trial's half-step depth is
        300 s * 1/60 mm/s = 5 mm, 3.5 mm above depression storage, so its
        Euler and midpoint end depths differ by
        600 s * 3.5**(5/3) / 1200 mm/s = 4.034 mm, 4,130.8 tolerances."""
        monkeypatch.setattr(kernels, "TOL_REL", 0.0)
        monkeypatch.setattr(kernels, "TOL_ABS_MM", 2.0**-10)
        sc = make_subcatchment(impervious_fraction=1.0)
        storm = flat_storm(60.0, 1, 2, step_s=600)
        with pytest.raises(ValidationError, match=(
                r"^subcatchment test, impervious surface: "
                r"step 0 \(t = 0 s\) needs 4131 substeps, more than 3600$")):
            simulate_subcatchment(sc, storm)

    def test_flows_carry_the_outlet_volume(self):
        """The flows are one L/s value per storm and tail step, and their
        volume is the balance's runoff, with or without LID."""
        sc = make_subcatchment()
        storm = flat_storm(40.0, 10, 20)
        bio = LidPlacement("test", LidKind.BIO_RETENTION, 0.05, 0.3)
        for placements in ((), (bio,)):
            flows, balance, _ = simulate_subcatchment(
                sc, storm, placements, default_catalog(), tail_min=15)
            assert flows.shape == (35,) and flows.dtype == np.float64
            assert flows.sum() * 60 / 1000.0 == pytest.approx(
                balance.runoff_m3, rel=1e-12)

    def test_overflowing_substep_count_is_named(self):
        """A subnormal impervious fraction makes the impervious surface so
        stiff that its substep count overflows to infinity; that is named
        like any other count over the limit, not an OverflowError."""
        sc = make_subcatchment(impervious_fraction=2.225073858507203e-309,
                               width_m=154.0, slope=0.0625,
                               depression_storage_mm={"impervious": 0.0,
                                                      "pervious": 2.5})
        with pytest.raises(ValidationError, match=(
                r"^subcatchment test, impervious surface: "
                r"step 0 \(t = 0 s\) needs inf substeps, more than 3600$")):
            simulate_subcatchment(sc, flat_storm(72.0, 1, 1, step_s=120))

    @pytest.mark.parametrize("value, problem", [(-1.0, "negative"),
                                                (math.nan, "non-finite")])
    def test_bad_flow_named(self, monkeypatch, value, problem):
        """A flow the kernel gets wrong stops the run, naming the
        subcatchment."""
        step = kernels.step_subarea

        def broken(*call):
            runoff_mm, *rest = step(*call)
            runoff_mm = runoff_mm.copy()
            runoff_mm[-1] = value
            return (runoff_mm, *rest)

        monkeypatch.setattr(kernels, "step_subarea", broken)
        with pytest.raises(ValidationError, match=rf"^test: {problem} flow$"):
            simulate_subcatchment(make_subcatchment(), flat_storm(10.0, 5, 10))


class TestRoute:
    def test_zero_lag_identity(self):
        links = [Link("l1", "a", "out", lag_s=0)]
        out = route_series({"a": np.array([1.0, 2.0, 3.0])}, links, 60)
        np.testing.assert_array_equal(out["out"], [1.0, 2.0, 3.0])

    def test_lag_shifts_peak(self):
        """180 s lag on a 60 s step moves the peak by 3 steps."""
        links = [Link("l1", "a", "out", lag_s=180)]
        out = route_series({"a": np.array([0.0, 5.0, 1.0, 0.0])}, links, 60)
        np.testing.assert_array_equal(out["out"], [0, 0, 0, 0, 5.0, 1.0, 0.0])

    def test_merge_is_hand_sum(self):
        links = [Link("l1", "a", "out", lag_s=60), Link("l2", "b", "out", lag_s=0)]
        out = route_series({"a": np.array([1.0, 2, 3, 0, 0]),
                            "b": np.array([5.0, 4, 3, 2, 1])}, links, 60)
        np.testing.assert_allclose(out["out"], [5.0, 5.0, 5.0, 5.0, 1.0, 0.0])

    def test_volume_conserved(self):
        links = [Link("l1", "a", "m", lag_s=120), Link("l2", "m", "out", lag_s=300)]
        inflow = np.arange(10.0)
        out = route_series({"a": inflow}, links, 60)
        assert list(out) == ["out"]
        assert out["out"].sum() == pytest.approx(inflow.sum(), rel=1e-12)

    def test_linearity(self):
        links = [Link("l1", "a", "out", lag_s=120)]
        fa = np.array([1.0, 4.0, 2.0])
        fb = np.array([0.5, 0.0, 3.0])
        out_sum = route_series({"a": fa + fb}, links, 60)["out"]
        out_parts = (route_series({"a": fa}, links, 60)["out"]
                     + route_series({"a": fb}, links, 60)["out"])
        np.testing.assert_allclose(out_sum, out_parts)

    def test_chained_lags_add(self):
        """Lags of 120 s and 300 s on a 60 s step shift by 7 steps."""
        links = [Link("l1", "a", "m", lag_s=120), Link("l2", "m", "out", lag_s=300)]
        out = route_series({"a": np.array([3.0, 1.0])}, links, 60)
        np.testing.assert_array_equal(out["out"], [0.0] * 7 + [3.0, 1.0])

    def test_lag_rounds_to_nearest_step(self):
        """100 s on a 60 s step is 1.67 steps and shifts by 2; 80 s by 1."""
        links = [Link("l1", "a", "out", lag_s=100), Link("l2", "b", "out2", lag_s=80)]
        out = route_series({"a": np.array([1.0]), "b": np.array([1.0])}, links, 60)
        np.testing.assert_array_equal(out["out"], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(out["out2"], [0.0, 1.0, 0.0])

    def test_cycle_detected_and_named(self):
        links = [Link("l1", "a", "b", lag_s=0), Link("l2", "b", "a", lag_s=0)]
        with pytest.raises(ValidationError, match="cycle.*a -> b -> a"):
            route_series({"a": np.array([1.0])}, links, 60)

    def test_split_outflow_rejected(self):
        links = [Link("l1", "a", "b", lag_s=0), Link("l2", "a", "c", lag_s=0)]
        with pytest.raises(ValidationError, match="more than one outgoing"):
            route_series({"a": np.array([1.0])}, links, 60)

    def test_matrix_rows_route_alone(self):
        """A matrix whose last axis is time routes as each of its rows
        alone, byte for byte."""
        links = [Link("l1", "a", "out", lag_s=180), Link("l2", "b", "out", lag_s=60)]
        inflows = {
            "a": np.array([[0.0, 5.0, 1.0, 0.0], [1e-3, 0.1, 1 / 3, 5e-324],
                           [0.0, 0.0, 2.5, 1e16]]),
            "b": np.array([[2.0, 0.0, 0.0, 1.0], [0.3, 0.1, 0.2, 0.0], [1 / 7, 0, 0, 0]]),
            "c": np.array([[1.0, 2.0, 3.0, 4.0], [0.0] * 4, [5e-324] * 4]),
        }
        routed = route_series(inflows, links, 60)
        assert list(routed) == ["c", "out"]
        for i in range(3):
            alone = route_series({node: m[i] for node, m in inflows.items()}, links, 60)
            for outfall, matrix in routed.items():
                assert matrix.shape == (3, 7)
                assert matrix[i].tobytes() == alone[outfall].tobytes()


class TestHydrographExport:
    def test_csv_format(self, tmp_path):
        from lidscore.pipeline import _Writer
        from test_pipeline import write_outfall_table

        path = write_outfall_table(_Writer(tmp_path), 60, (), {
            "baseline": np.array([[0.0, 12.5, 3.0]]), "s1": np.array([[0.0, 6.0, 1.5]])})
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,baseline/flow_Lps,s1/flow_Lps"
        assert lines[1] == "0,0.0,0.0"
        assert lines[2] == "60,12.5,6.0"


class TestSubcatchmentSurfaceDicts:
    def test_missing_depression_storage_key(self):
        with pytest.raises(ValidationError, match="pervious"):
            make_subcatchment(depression_storage_mm={"impervious": 1.0})

    def test_nonpositive_manning(self):
        with pytest.raises(ValidationError, match="manning_n"):
            make_subcatchment(manning_n={"impervious": 0.0, "pervious": 0.15})


@st.composite
def link_networks(draw) -> tuple:
    """(links, inflows, step_s): an acyclic network in which a node drains
    by at most one link, to a later node, with lags of whole and
    fractional steps; and a (rows, step) matrix at each of several inflow
    nodes, every matrix of the same 1 to 4 rows and of any length."""
    step_s = draw(st.sampled_from([60, 60.0, 90.0, 300.0]))
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 7)))]
    lags = st.one_of(st.integers(0, 5).map(float), st.floats(0.0, 5.0))
    links = [Link(f"l{i}", node, nodes[draw(st.integers(i + 1, len(nodes) - 1))],
                  lag_s=draw(lags) * step_s)
             for i, node in enumerate(nodes[:-1]) if draw(st.booleans())]
    rows = draw(st.integers(1, 4))
    values = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
    inflows = {}
    for node in draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True)):
        n = draw(st.integers(0, 12))
        inflows[node] = np.array(draw(st.lists(values, min_size=rows * n,
                                               max_size=rows * n))).reshape(rows, n)
    return links, inflows, step_s


class TestRoutingProperties:
    @settings(max_examples=300, deadline=None)
    @given(network=link_networks())
    def test_route_series_routes_rows_alone(self, network):
        """Each row keeps its total and is routed byte for byte as it would
        be alone."""
        links, inflows, step_s = network
        routed = route_series(inflows, links, step_s)
        rows = next(iter(inflows.values())).shape[0]
        for i in range(rows):
            alone = route_series({node: m[i] for node, m in inflows.items()},
                                 links, step_s)
            assert list(alone) == list(routed)
            for outfall, matrix in routed.items():
                assert matrix.shape[0] == rows
                assert matrix[i].tobytes() == alone[outfall].tobytes()
            total = sum(float(m[i].sum()) for m in inflows.values())
            assert sum(float(m[i].sum()) for m in routed.values()) == pytest.approx(
                total, rel=1e-12, abs=0.0)

    @given(
        flows=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=40),
        lag_steps=st.integers(0, 10),
    )
    def test_translation_conserves_volume(self, flows, lag_steps):
        links = [Link("l", "a", "out", lag_s=lag_steps * 60.0)]
        inflow = np.array(flows)
        out = route_series({"a": inflow}, links, 60.0)["out"]
        assert out.sum() == pytest.approx(inflow.sum(), rel=1e-9, abs=1e-9)
        if max(flows) > 0.0:   # an all-zero series has no peak to shift
            assert int(np.argmax(out)) == int(np.argmax(inflow)) + lag_steps

    def test_inflow_directly_at_outfall(self):
        # a node with no outgoing link is its own outfall
        out = route_series({"solo": np.array([1.0, 2.0])}, [], 60)
        np.testing.assert_array_equal(out["solo"], [1.0, 2.0])
