"""Tests for LID sizing arithmetic and the facility water balance."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from lidscore.errors import ValidationError
from lidscore.lid import (LidKind, LidPlacement, LidSpec, Scenario, area_proportions,
                          control_capacity, default_catalog, existing_capacity,
                          required_volume, simulate_lid_unit)

CATALOG = default_catalog()
KIND_ORDER = [LidKind.BIO_RETENTION, LidKind.GRASSED_SWALE, LidKind.SUNKEN_GREEN,
              LidKind.PERMEABLE_PAVEMENT, LidKind.STORAGE_TANK]


def scenario_from_reference(name):
    areas = reference.SCENARIO_AREAS[name]
    placements = tuple(
        LidPlacement("site", kind, area, 0.1)
        for kind, area in zip(KIND_ORDER, areas)
    )
    return Scenario(name=name, placements=placements)


class TestCatalog:
    def test_default_rates(self):
        """Exfiltration rates of the built-in kinds, in mm/hr; none has an
        underdrain."""
        assert {kind.value: spec.exfiltration_mm_hr for kind, spec in CATALOG.items()} == {
            "bio_retention": 30, "grassed_swale": 20, "sunken_green": 25,
            "permeable_pavement": 40, "storage_tank": 0}
        assert all(spec.underdrain_mm_hr == 0 for spec in CATALOG.values())

    def test_published_unit_capacities(self):
        for kind, expected in reference.UNIT_CAPACITY.items():
            assert CATALOG[LidKind(kind)].unit_capacity_m3_m2 == expected

    def test_tank_never_infiltrates(self):
        assert CATALOG[LidKind.STORAGE_TANK].exfiltration_mm_hr == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown LID kind"):
            LidKind.parse("green_roof")

    def test_rate_validation(self):
        with pytest.raises(ValidationError, match="exfiltration_mm_hr must be >= 0, got -1"):
            LidSpec(LidKind.BIO_RETENTION, 0.3, exfiltration_mm_hr=-1)
        with pytest.raises(ValidationError, match="underdrain_mm_hr must be >= 0, got -10"):
            LidSpec(LidKind.BIO_RETENTION, 0.3, underdrain_mm_hr=-10)


class TestControlCapacity:
    def test_scenario_1_hand_product(self):
        """2271 + 643.5 + 2117.5 + 71 + 3160 = 8263 m3."""
        got = control_capacity(scenario_from_reference("scenario_1"), CATALOG)
        assert got == pytest.approx(8263.0, abs=0.5)
        assert got == pytest.approx(reference.REQUIRED_M3, abs=10)

    def test_scenario_4_hand_product(self):
        got = control_capacity(scenario_from_reference("scenario_4"), CATALOG)
        assert got == pytest.approx(8255.0, abs=0.5)

    def test_all_scenarios_in_band(self):
        lo, hi = reference.CAPACITY_BAND_M3
        for name in reference.SCENARIO_AREAS:
            got = control_capacity(scenario_from_reference(name), CATALOG)
            assert lo <= got <= hi, name

    def test_empty_scenario(self):
        assert control_capacity(Scenario("none", ()), CATALOG) == 0.0

    def test_linearity(self):
        sc = scenario_from_reference("scenario_2")
        doubled = Scenario("x2", tuple(
            LidPlacement(p.subcatchment, p.kind, 2 * p.area_ha, p.treated_fraction)
            for p in sc.placements))
        assert control_capacity(doubled, CATALOG) == pytest.approx(
            2 * control_capacity(sc, CATALOG), rel=1e-12)


class TestExistingCapacity:
    def test_case_study_facilities(self):
        """1108 + 571 + 50 = 1729 m3, i.e. a 4.50 mm capture depth."""
        total, depth = existing_capacity(
            reference.EXISTING_FACILITIES, reference.COMPOSITE_PSI,
            reference.CATCHMENT_AREA_HA)
        assert total == pytest.approx(reference.EXISTING_TOTAL_M3)
        assert depth == pytest.approx(reference.EXISTING_DEPTH_MM, abs=0.05)

    def test_empty(self):
        assert existing_capacity([], 0.59, 64.61) == (0.0, 0.0)

    def test_negative_volume(self):
        with pytest.raises(ValidationError):
            existing_capacity([("x", -5.0)], 0.59, 64.61)

    def test_zero_psi_rejected(self):
        """An all-zero land-use composite leaves no depth to invert."""
        with pytest.raises(ValidationError, match="positive psi"):
            existing_capacity([("x", 5.0)], 0.0, 64.61)


class TestRequiredVolume:
    def test_case_study_requirement(self):
        got = required_volume(26, reference.COMPOSITE_PSI,
                              reference.CATCHMENT_AREA_HA, 1729)
        assert got == pytest.approx(reference.REQUIRED_M3, abs=2)

    def test_clamped_at_zero(self):
        assert required_volume(5, 0.59, 64.61, 1e6) == 0.0

    def test_no_existing_capacity(self):
        got = required_volume(26, reference.COMPOSITE_PSI,
                              reference.CATCHMENT_AREA_HA, 0)
        assert got == pytest.approx(reference.TOTAL_RUNOFF_M3, abs=2)


class TestAreaProportions:
    def test_scenario_4_headline_shares(self):
        """Bio-retention 34.5% and sunken green 46.0% of the total area."""
        props = area_proportions(scenario_from_reference("scenario_4"))
        assert props[LidKind.BIO_RETENTION] == pytest.approx(0.345, abs=0.002)
        assert props[LidKind.SUNKEN_GREEN] == pytest.approx(0.460, abs=0.002)

    def test_scenario_1_bio_share(self):
        props = area_proportions(scenario_from_reference("scenario_1"))
        assert props[LidKind.BIO_RETENTION] == pytest.approx(0.304, abs=0.002)

    def test_shares_sum_to_one(self):
        for name in reference.SCENARIO_AREAS:
            props = area_proportions(scenario_from_reference(name))
            assert sum(props.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_facility(self):
        sc = Scenario("solo", (LidPlacement("site", LidKind.STORAGE_TANK, 0.5, 0.1),))
        assert area_proportions(sc) == {LidKind.STORAGE_TANK: 1.0}

    def test_empty_scenario_raises(self):
        with pytest.raises(ValidationError):
            area_proportions(Scenario("none", ()))


class TestSimulateLidUnit:
    def test_half_capacity_no_overflow(self):
        spec = CATALOG[LidKind.BIO_RETENTION]       # 300 mm static capacity
        area = 100.0
        inflow = np.full(10, 1.5)                   # 15 m3 = 150 mm, half
        result = simulate_lid_unit(spec, area, inflow, np.zeros(10), 60.0)
        assert float(result.overflow_m3.sum()) == 0.0

    def test_tank_bucket_arithmetic(self):
        """100 m2 tank of 1 m depth fed 150 m3: 100 stored, 50 spilled."""
        spec = CATALOG[LidKind.STORAGE_TANK]
        inflow = np.full(15, 10.0)
        result = simulate_lid_unit(spec, 100.0, inflow, np.zeros(15), 60.0)
        assert result.storage_final_m3 == pytest.approx(100.0)
        assert float(result.overflow_m3.sum()) == pytest.approx(50.0)
        assert float(result.infiltration_m3.sum()) == 0.0

    def test_against_fine_step_oracle(self):
        """Two-interval inflow at 60 s vs the same run at 1 s resolution."""
        spec = CATALOG[LidKind.BIO_RETENTION]
        area = 200.0
        inflow_60 = np.array([4.0] * 10 + [0.5] * 20)       # m3 per minute
        rain = np.zeros(30)
        coarse = simulate_lid_unit(spec, area, inflow_60, rain, 60.0)
        inflow_1 = np.repeat(inflow_60 / 60.0, 60)
        fine = simulate_lid_unit(spec, area, inflow_1, np.zeros(30 * 60), 1.0)
        assert float(coarse.outflow_m3.sum()) == pytest.approx(
            float(fine.outflow_m3.sum()), rel=0.01)
        assert coarse.storage_final_m3 == pytest.approx(
            fine.storage_final_m3, rel=1e-9)

    def test_water_balance_and_nonnegativity(self):
        for kind, spec in CATALOG.items():
            inflow = np.array([2.0, 8.0, 1.0, 0.0, 0.0])
            result = simulate_lid_unit(spec, 50.0, inflow, np.full(5, 30.0), 60.0)
            assert result.balance_error() <= 0.005, kind
            assert np.all(result.outflow_m3 >= 0.0)
            assert np.all(result.infiltration_m3 >= 0.0)

    def test_underdrain_becomes_outflow(self):
        spec = LidSpec(LidKind.BIO_RETENTION, 0.2, exfiltration_mm_hr=10,
                       underdrain_mm_hr=20)
        inflow = np.array([5.0, 0.0, 0.0, 0.0])
        result = simulate_lid_unit(spec, 100.0, inflow, np.zeros(4), 600.0)
        assert float(result.drained_m3.sum()) > 0.0
        np.testing.assert_allclose(result.outflow_m3,
                                   result.overflow_m3 + result.drained_m3)

    @pytest.mark.parametrize("area_m2", [5e-320, 1e-308])
    def test_unit_too_small_for_a_depth_passes_its_inflow(self, area_m2):
        """A unit on whose area the run-on is no finite depth (5 m3 on
        1e-308 m2 is 5e311 mm) holds nothing and passes every inflow on,
        with no NumPy overflow warning."""
        inflow = np.array([0.0, 5.0, 2.0])
        result = simulate_lid_unit(CATALOG[LidKind.BIO_RETENTION], area_m2, inflow,
                                   np.full(3, 30.0), 60.0)
        np.testing.assert_array_equal(result.outflow_m3, result.inflow_m3)
        # the rain on the unit itself adds about 1e-311 m3 per step
        np.testing.assert_allclose(result.inflow_m3, inflow, rtol=0, atol=1e-300)
        assert result.captured_m3 == 0.0
        assert result.balance_error() == 0.0

    def test_rejects_bad_series(self):
        spec = CATALOG[LidKind.STORAGE_TANK]
        with pytest.raises(ValidationError):
            simulate_lid_unit(spec, 100.0, np.zeros(3), np.zeros(4), 60.0)
        with pytest.raises(ValidationError):
            simulate_lid_unit(spec, 0.0, np.zeros(3), np.zeros(3), 60.0)


class TestScenarioTableExport:
    def test_columns_mirror_catalog_kinds(self, published_config, tmp_path):
        from lidscore.pipeline import run_pipeline

        run_pipeline(published_config, tmp_path, render="csv")
        header, first, *_ = reference.read_tree(tmp_path)["tables/scenario_areas.csv"].parsed
        assert header == ["scenario", "bio_retention_ha", "grassed_swale_ha",
                          "sunken_green_ha", "permeable_pavement_ha",
                          "storage_tank_ha", "total_ha"]
        assert first[0] == "scenario_1"
        assert float(first[1]) == pytest.approx(0.757)
        assert float(first[-1]) == pytest.approx(2.491)


class TestLidProperties:
    @given(st.floats(0.1, 10.0))
    def test_capacity_scales_linearly(self, alpha):
        sc = scenario_from_reference("scenario_3")
        scaled = Scenario("scaled", tuple(
            LidPlacement(p.subcatchment, p.kind, alpha * p.area_ha,
                         p.treated_fraction)
            for p in sc.placements))
        assert control_capacity(scaled, CATALOG) == pytest.approx(
            alpha * control_capacity(sc, CATALOG), rel=1e-12)

    @given(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=60))
    def test_unit_balance_closes_for_any_inflow(self, inflow):
        spec = CATALOG[LidKind.SUNKEN_GREEN]
        result = simulate_lid_unit(spec, 120.0, np.asarray(inflow),
                                   np.zeros(len(inflow)), 60.0)
        assert result.balance_error() <= 0.005
        assert np.all(result.outflow_m3 >= 0.0)
