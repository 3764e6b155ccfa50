"""Tests for capture-depth statistics and Chicago design storms."""

import csv
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lidscore.errors import ValidationError
from lidscore.storms import (Hyetograph, IdfParams, RainRecord, atrcr_curve,
                             chicago_hyetograph, design_storm_suite,
                             invert_atrcr)
from reference import read_tree

IDF = IdfParams(a=20.0, b_min=10.0, n=0.75)


def record(*depths):
    return RainRecord.from_depths(depths)


class TestAtrcr:
    def test_three_event_hand_case(self):
        """Events 10/20/30 mm, capture 20 mm -> (10+20+20)/60 = 0.8333."""
        curve = atrcr_curve(record(10, 20, 30), [20.0])
        assert curve[20.0] == pytest.approx(0.83333, abs=1e-4)

    def test_boundaries(self):
        curve = atrcr_curve(record(10, 20, 30), [0.0, 30.0, 50.0])
        assert curve[0.0] == 0.0
        assert curve[30.0] == 1.0
        assert curve[50.0] == 1.0

    def test_small_events_excluded_by_default(self):
        with_small = record(1.0, 2.0, 10, 20, 30)
        assert atrcr_curve(with_small, [20.0])[20.0] == pytest.approx(
            0.83333, abs=1e-4)
        # disabling the filter changes the statistic
        assert atrcr_curve(with_small, [20.0], min_event_mm=0)[20.0] != pytest.approx(
            0.83333, abs=1e-4)

    def test_empty_record_raises(self):
        with pytest.raises(ValidationError, match="no rainfall events"):
            atrcr_curve(RainRecord(()), [10.0])

    def test_negative_depth_raises(self):
        with pytest.raises(ValidationError):
            atrcr_curve(record(10, 20), [-1.0])

    def test_synthetic_fixture_anchor(self, sample_dir):
        """The bundled record is tuned so 75% capture maps to 26 mm."""
        rec = RainRecord.from_csv(sample_dir / "rainfall.csv")
        assert atrcr_curve(rec, [26.0])[26.0] == pytest.approx(0.75, abs=1e-6)
        assert invert_atrcr(rec, 0.75) == pytest.approx(26.0, abs=0.5)

    @given(st.lists(st.floats(2.1, 120.0), min_size=1, max_size=30))
    def test_monotone_and_concave(self, depths):
        rec = record(*depths)
        grid = np.linspace(0.0, max(depths) * 1.2, 25)
        values = [atrcr_curve(rec, [h])[float(h)] for h in grid]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
        # concavity: increments never grow
        assert np.all(np.diff(diffs) <= 1e-12)
        assert 0.0 <= min(values) and max(values) <= 1.0 + 1e-12


class TestInvertAtrcr:
    def test_hand_inverse(self):
        assert invert_atrcr(record(10, 20, 30), 0.8333) == pytest.approx(20.0, abs=0.02)

    def test_tiny_target(self):
        assert invert_atrcr(record(10, 20, 30), 1e-6) < 0.02

    def test_round_trip(self):
        rec = record(10, 20, 30)
        target = atrcr_curve(rec, [15.0])[15.0]
        assert invert_atrcr(rec, target) == pytest.approx(15.0, abs=0.011)

    @pytest.mark.parametrize("target", [1.0, 1.5, 0.0, -0.2])
    def test_unreachable_target_raises(self, target):
        with pytest.raises(ValidationError):
            invert_atrcr(record(10, 20, 30), target)


class TestRainRecord:
    def test_dates_must_increase(self):
        d = dt.date(2023, 5, 1)
        with pytest.raises(ValidationError, match="strictly increasing"):
            RainRecord(((d, 5.0), (d, 7.0)))

    def test_negative_depth(self):
        with pytest.raises(ValidationError, match="negative"):
            RainRecord(((dt.date(2023, 5, 1), -2.0),))

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("date,depth_mm\n2023-01-02,5.5\n2023-02-03,12.0\n")
        rec = RainRecord.from_csv(path)
        assert rec.events == ((dt.date(2023, 1, 2), 5.5), (dt.date(2023, 2, 3), 12.0))

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,mm\n2023-01-02,5.5\n")
        with pytest.raises(ValidationError, match="header"):
            RainRecord.from_csv(path)


def dict_reader_events(path) -> tuple:
    """The events of a rain record read row by row with `csv.DictReader`."""
    with open(path, newline="") as fh:
        return tuple((dt.date.fromisoformat(row["date"].strip()),
                      float(row["depth_mm"])) for row in csv.DictReader(fh))


class TestRainRecordCsv:
    """`RainRecord.from_csv` reads what a row-by-row `csv.DictReader` reads."""

    def test_bundled_record(self, sample_dir):
        path = sample_dir / "rainfall.csv"
        events = RainRecord.from_csv(path).events
        assert len(events) == 56
        assert events == dict_reader_events(path)

    @pytest.mark.parametrize("text", [
        # reordered columns
        "depth_mm,date\r\n5.5,2023-01-02\r\n12.0,2023-02-03\r\n",
        # extra columns, quoted fields and a blank line
        'station,date,note,depth_mm\nS1,2023-01-02,"wet, cold",5.5\n\n'
        'S1,2023-02-03,,12.0\n',
        # dates and depths with surrounding spaces
        "date,depth_mm\n 2023-01-02 ,5.5\n\t2023-02-03, 12.0 \n",
        # a repeated column name reads its last column
        "date,depth_mm,depth_mm\n2023-01-02,1.0,5.5\n2023-02-03,2.0,12.0\n",
        # header only
        "date,depth_mm\n",
    ])
    def test_layouts_match_dict_reader(self, tmp_path, text):
        path = tmp_path / "rain.csv"
        path.write_bytes(text.encode())
        events = RainRecord.from_csv(path).events
        assert events == dict_reader_events(path)
        if events:
            assert events == ((dt.date(2023, 1, 2), 5.5),
                              (dt.date(2023, 2, 3), 12.0))

    @pytest.mark.parametrize("row,message", [
        ("2023-02-03", "line 4, column 3 (depth_mm): missing value"),
        ("2023-02-03,S1,n/a", "line 4, column 3 (depth_mm): 'n/a' is not "
                              "a number"),
        ("2023-13-03,S1,12.0", "line 4, column 1 (date): '2023-13-03' is not "
                               "an ISO-8601 date"),
        ("2023-02-03,S1,nan", "line 4, column 3 (depth_mm): 'nan' is not finite"),
        ("2023-02-03,S1,-inf", "line 4, column 3 (depth_mm): '-inf' is not "
                               "finite"),
    ])
    def test_bad_row_named(self, tmp_path, row, message):
        """A row without a depth, with a depth that is not a finite number
        or with an invalid date is named by file, line and column (the blank
        line counts as a line)."""
        path = tmp_path / "rain.csv"
        path.write_text(f"date,station,depth_mm\n2023-01-02,S1,5.5\n\n{row}\n"
                        "2023-03-04,S1,1.0\n")
        with pytest.raises(ValidationError) as err:
            RainRecord.from_csv(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["", "date\n2023-01-02\n",
                                      "\ndate,depth_mm\n2023-01-02,5.5\n"])
    def test_missing_header_message(self, tmp_path, text):
        path = tmp_path / "rain.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            RainRecord.from_csv(path)
        assert str(err.value) == f"{path}: expected header 'date,depth_mm'"


class TestChicagoHyetograph:
    def test_design_anchor(self):
        """26 mm over 90 min, r = 0.5: exact mass, peak at minute 45."""
        h = chicago_hyetograph(26, 90, 0.5, IDF, 60)
        assert h.depth_mm() == pytest.approx(26.0, abs=0.03)
        peak_minute = (np.argmax(h.intensities_mm_hr) + 0.5) * 60 / 60.0
        assert abs(peak_minute - 45.0) <= 1.0

    @pytest.mark.parametrize("step", [30, 60, 300])
    def test_mass_closure_by_step(self, step):
        h = chicago_hyetograph(26, 90, 0.5, IDF, step)
        assert abs(h.depth_mm() - 26.0) / 26.0 <= 1e-3

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_peak_position(self, r):
        h = chicago_hyetograph(26, 90, r, IDF, 60)
        peak_step = int(np.argmax(h.intensities_mm_hr))
        expected_step = int(r * 90 * 60 // 60)
        assert abs(peak_step - expected_step) <= 1

    def test_ordinates_decrease_away_from_peak(self):
        h = chicago_hyetograph(26, 90, 0.5, IDF, 60)
        k = int(np.argmax(h.intensities_mm_hr))
        before = h.intensities_mm_hr[: k + 1]
        after = h.intensities_mm_hr[k:]
        assert np.all(np.diff(before) >= -1e-12)
        assert np.all(np.diff(after) <= 1e-12)

    def test_depth_doubling_scales_ordinates(self):
        h1 = chicago_hyetograph(26, 90, 0.5, IDF, 60)
        h2 = chicago_hyetograph(52, 90, 0.5, IDF, 60)
        np.testing.assert_allclose(h2.intensities_mm_hr,
                                   2.0 * h1.intensities_mm_hr, rtol=1e-12)

    def test_zero_exponent_gives_flat_storm(self):
        """n = 0 collapses the shape to a constant: depth/duration."""
        h = chicago_hyetograph(26, 90, 0.5, IdfParams(20, 10, 0.0), 60)
        expected = 26.0 / 90.0 * 60.0
        np.testing.assert_allclose(h.intensities_mm_hr, expected, rtol=1e-9)

    def test_divergent_exponent_raises(self):
        with pytest.raises(ValidationError, match=r"n must be in \[0, 1\), got 1"):
            IdfParams(20, 10, 1.0)

    def test_step_must_divide_duration(self):
        with pytest.raises(ValidationError, match="does not divide"):
            chicago_hyetograph(26, 90, 0.5, IDF, 70)

    def test_bad_peak_ratio(self):
        with pytest.raises(ValidationError):
            chicago_hyetograph(26, 90, 1.0, IDF, 60)

    def test_csv_export(self, tmp_path):
        from lidscore.pipeline import _persist_storms, _Writer

        h = chicago_hyetograph(26, 90, 0.5, IDF, 60)
        _persist_storms(_Writer(tmp_path), {"26mm": h})
        [(path, table)] = read_tree(tmp_path).items()
        assert path == "storms/storm_26mm.csv"
        assert table.parsed[0] == ["t_min", "intensity_mm_per_hr"]
        assert len(table.parsed) == 91


class TestDesignStormSuite:
    def test_three_depths(self):
        suite = design_storm_suite([16, 26, 36], 90, 0.5, IDF, 60)
        assert [round(h.depth_mm(), 6) for h in suite] == [16.0, 26.0, 36.0]

    def test_single_depth(self):
        suite = design_storm_suite([26], 90, 0.5, IDF, 60)
        assert len(suite) == 1

    def test_depth_ratio(self):
        suite = design_storm_suite([16, 36], 90, 0.5, IDF, 60)
        assert suite[1].depth_mm() / suite[0].depth_mm() == pytest.approx(2.25, rel=1e-9)


class TestHyetographInvariants:
    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="integrate"):
            Hyetograph(step_s=60, intensities_mm_hr=np.array([10.0, 10.0]),
                       total_depth_mm=5.0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            Hyetograph(step_s=60, intensities_mm_hr=np.array([-1.0]),
                       total_depth_mm=0.0)
