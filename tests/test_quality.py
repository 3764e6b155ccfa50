"""Tests for pollutant buildup, washoff and LID removal."""

import math

import numpy as np
import pytest

from lidscore.errors import ValidationError
from lidscore.hydrology import HortonParams, Subcatchment, LandUse
from lidscore.lid import LidKind, LidPlacement
from lidscore import quality
from lidscore.quality import (PollutantSpec, buildup, initial_buildup_kg,
                              simulate_quality, washoff_series)
from reference import washoff_step

TSS = PollutantSpec(
    name="TSS", buildup_max_kg_ha=50.0, half_saturation_days=10.0,
    washoff_coeff=0.01, washoff_exponent=1.5,
    lid_removal={"bio_retention": 0.8, "storage_tank": 0.2},
)


class TestBuildup:
    def test_zero_time(self):
        assert buildup(TSS, 0.0) == 0.0

    def test_half_saturation_identity(self):
        assert buildup(TSS, 10.0) == pytest.approx(25.0)

    def test_thirty_days(self):
        """C1=50, C2=10, t=30 -> 50*30/40 = 37.5 kg/ha."""
        assert buildup(TSS, 30.0) == pytest.approx(37.5)

    def test_bounded_and_monotone(self):
        times = np.linspace(0, 200, 50)
        values = [buildup(TSS, t) for t in times]
        assert np.all(np.diff(values) > 0)
        assert values[-1] < TSS.buildup_max_kg_ha

    def test_negative_time_raises(self):
        with pytest.raises(ValidationError):
            buildup(TSS, -1.0)


class TestWashoff:
    def test_zero_runoff_removes_nothing(self):
        assert washoff_step(TSS, 0.0, 10.0, 3600) == 0.0

    def test_never_exceeds_available(self):
        removed = washoff_step(TSS, 500.0, 10.0, 3600 * 100)
        assert removed <= 10.0

    def test_closed_form_hour(self):
        """C3=0.01, C4=1.5, q=10, B=10, dt=1h -> 10(1-exp(-0.3162))."""
        expected = 10.0 * (1.0 - math.exp(-0.01 * 10 ** 1.5))
        got = washoff_step(TSS, 10.0, 10.0, 3600.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(2.713, abs=0.01)

    def test_series_conserves_mass(self):
        """Washed-off plus residual equals the initial buildup."""
        q = np.array([0.0, 5.0, 12.0, 8.0, 2.0, 0.0])
        loads = washoff_series(TSS, q, 10.0, 60.0)
        rates = TSS.washoff_coeff * q ** TSS.washoff_exponent * 60.0 / 3600.0
        residual = 10.0 * math.exp(-rates.sum())
        assert loads.sum() + residual == pytest.approx(10.0, rel=1e-6)

    def test_series_matches_stepwise(self):
        q = np.array([3.0, 7.0, 1.0])
        loads = washoff_series(TSS, q, 5.0, 120.0)
        b = 5.0
        for k, qk in enumerate(q):
            removed = washoff_step(TSS, qk, b, 120.0)
            assert loads[k] == pytest.approx(removed, rel=1e-12)
            b -= removed

    def test_negative_inputs_raise(self):
        with pytest.raises(ValidationError):
            washoff_step(TSS, -1.0, 5.0, 60)


class TestLidRemoval:
    """`simulate_quality` reduces each pollutant's washoff on every
    placement's treated share: out = in * (1 - treated_fraction * removal)."""

    SITE = Subcatchment(id="s", area_ha=1.0, impervious_fraction=0.5, width_m=100,
                        slope=0.01, horton=HortonParams(76.2, 3.81, 4.14))

    def loads(self, monkeypatch, washoff, removals, placements):
        """The load matrix when the washoff of every pollutant is `washoff`:
        one pollutant per entry of `removals` (its bio-retention removal)."""
        monkeypatch.setattr(quality, "washoff_series",
                            lambda *args: np.array(washoff, dtype=float))
        specs = [PollutantSpec(f"P{j}", 50.0, 10.0, 0.01, 1.5,
                               lid_removal={"bio_retention": removal})
                 for j, removal in enumerate(removals)]
        return simulate_quality(self.SITE, np.ones(len(washoff)), specs, 60.0,
                                placements=placements)

    def placement(self, treated_fraction):
        return LidPlacement("s", LidKind.BIO_RETENTION, 0.1, treated_fraction)

    def test_zero_removal_is_identity(self, monkeypatch):
        out = self.loads(monkeypatch, [1.0, 2.0], [0.0], [self.placement(0.7)])
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_full_treatment_half_removal(self, monkeypatch):
        out = self.loads(monkeypatch, [2.0, 4.0], [0.5], [self.placement(1.0)])
        np.testing.assert_allclose(out, [[1.0, 2.0]])

    def test_partial_treatment(self, monkeypatch):
        """treated 0.6, removal 0.5 on 10 kg -> 7 kg."""
        out = self.loads(monkeypatch, [10.0], [0.5], [self.placement(0.6)])
        assert out[0, 0] == pytest.approx(7.0)

    def test_each_row_its_removal_each_placement_in_turn(self, monkeypatch):
        """Each row takes its own pollutant's removal, and the placements
        multiply one after the other."""
        out = self.loads(monkeypatch, [10.0, 20.0], [0.5, 0.0, 1.0],
                         [self.placement(0.6), self.placement(0.5)])
        expected = [[v * (1 - 0.6 * r) * (1 - 0.5 * r) for v in (10.0, 20.0)]
                    for r in (0.5, 0.0, 1.0)]
        assert out.tolist() == expected

    def test_bad_load_series_raises(self, monkeypatch):
        with pytest.raises(ValidationError, match="s: bad load series"):
            self.loads(monkeypatch, [1.0, math.nan], [0.5], [])
        with pytest.raises(ValidationError, match="s: bad load series"):
            self.loads(monkeypatch, [1.0, -1.0], [0.5], [])

    def test_fraction_validation(self):
        with pytest.raises(ValidationError):
            self.placement(1.2)
        with pytest.raises(ValidationError,
                           match=r"lid_removal\.bio_retention must be in \[0, 1\], got 1\.2"):
            PollutantSpec("TSS", 50.0, 10.0, 0.01, 1.5,
                          lid_removal={"bio_retention": 1.2})

    def test_removal_key_must_be_a_lid_kind(self):
        """A misspelled kind would leave its facility removing nothing."""
        with pytest.raises(ValidationError,
                           match="unknown LID kind 'bioretention'"):
            PollutantSpec("TSS", 50.0, 10.0, 0.01, 1.5,
                          lid_removal={"bioretention": 0.8})
        PollutantSpec("TSS", 50.0, 10.0, 0.01, 1.5,
                      lid_removal={LidKind.BIO_RETENTION: 0.8})

    @pytest.mark.parametrize("factor", [-0.1, math.nan])
    def test_class_factor_must_not_be_negative(self, factor):
        """A negative factor used to pass and then fail the run with `bad
        load series`."""
        with pytest.raises(ValidationError,
                           match="surface_class_factors.roads must be >= 0, got"):
            PollutantSpec("TSS", 50.0, 10.0, 0.01, 1.5,
                          surface_class_factors={"roads": factor})


class TestSubcatchmentQuality:
    def make_sc(self):
        return Subcatchment(
            id="q", area_ha=2.0, impervious_fraction=0.5, width_m=100,
            slope=0.01, horton=HortonParams(76.2, 3.81, 4.14),
            land_uses=(LandUse("road", 0.9, 1.2, "roads"),
                       LandUse("lawn", 0.15, 0.8, "green")),
        )

    def test_class_factors_weight_buildup(self):
        spec = PollutantSpec(
            name="TSS", buildup_max_kg_ha=50.0, half_saturation_days=10.0,
            washoff_coeff=0.01, washoff_exponent=1.5,
            surface_class_factors={"roads": 1.0, "green": 0.25},
        )
        got = initial_buildup_kg(self.make_sc(), spec, 10.0)
        # 25 kg/ha * (1.0*1.2 + 0.25*0.8)
        assert got == pytest.approx(25.0 * 1.4)

    def test_lid_area_reduces_buildup(self):
        sc = self.make_sc()
        full = initial_buildup_kg(sc, TSS, 10.0)
        less = initial_buildup_kg(sc, TSS, 10.0, lid_area_ha=0.5)
        assert less == pytest.approx(full * 0.75)

    def test_scenario_load_never_exceeds_baseline(self):
        sc = self.make_sc()
        runoff = np.array([0.0, 5.0, 20.0, 12.0, 3.0, 0.0])  # m3 per step
        base = simulate_quality(sc, runoff, [TSS], 60.0)
        placements = [LidPlacement("q", LidKind.BIO_RETENTION, 0.2, 0.5)]
        scen = simulate_quality(sc, runoff * 0.8, [TSS], 60.0,
                                placements=placements)
        base_kg, scen_kg = base.sum(), scen.sum()
        assert scen_kg <= base_kg
        reduction_pct = (base_kg - scen_kg) / base_kg * 100
        assert 0.0 <= reduction_pct <= 100.0

    def test_rows_equal_single_pollutant_runs(self):
        """A pollutant's row is the matrix one call for it alone gives, byte
        for byte; a placement covering the whole area washes nothing off."""
        sc = self.make_sc()
        runoff = np.array([0.0, 5.0, 20.0, 12.0, 3.0, 0.0])
        cod = PollutantSpec(name="COD", buildup_max_kg_ha=80.0,
                            half_saturation_days=5.0, washoff_coeff=0.02,
                            washoff_exponent=1.2, lid_removal={"bio_retention": 0.4})
        placements = [LidPlacement("q", LidKind.BIO_RETENTION, 0.2, 0.5)]
        both = simulate_quality(sc, runoff, [TSS, cod], 60.0, 7.0, placements)
        assert both.shape == (2, runoff.size)
        for row, spec in zip(both, [TSS, cod]):
            alone = simulate_quality(sc, runoff, [spec], 60.0, 7.0, placements)
            assert row.tobytes() == alone[0].tobytes()
        covered = [LidPlacement("q", LidKind.BIO_RETENTION, 2.0, 0.5)]
        assert not simulate_quality(sc, runoff, [TSS, cod], 60.0,
                                    placements=covered).any()
        assert simulate_quality(sc, runoff, [], 60.0).shape == (0, runoff.size)


class TestPollutographExport:
    def test_csv_with_concentrations(self, tmp_path):
        """The file holds flows and loads; the concentration is derived
        from a row's cells and is blank without flow."""
        from lidscore.pipeline import _Writer
        from reference import derived_concentration
        from test_pipeline import write_outfall_table

        flows = np.array([0.0, 500.0, 250.0, 0.0])
        loads = np.array([0.0, 0.03, 0.015, 0.01])
        path = write_outfall_table(_Writer(tmp_path), 60, ["TSS"],
                                   {"baseline": np.array([flows, loads])})
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,baseline/flow_Lps,baseline/TSS_load_kg"
        assert lines[1] == "0,0.0,0.0"
        assert lines[2] == "60,500.0,0.03"
        assert lines[4] == "180,0.0,0.01"
        rows = [line.split(",") for line in lines[1:]]
        # 0.03 kg over 500 L/s * 60 s = 1 mg/L; no flow, no concentration
        assert derived_concentration([r[1] for r in rows], [r[2] for r in rows],
                                     float(rows[1][0])) == ["", "1.0", "1.0", ""]
