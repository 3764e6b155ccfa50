"""Design-storm generation and capture-depth statistics.

Two independent jobs live here: the event-statistics side (annual total
runoff control rate, ATRCR, as a function of capture depth) and the
synthetic-storm side (Chicago-method hyetographs shaped by an IDF relation
and rescaled to an exact event depth).
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field

import numpy as np

from lidscore.errors import Ranged, ValidationError
from lidscore.inputs import read_cell, read_rows

# Events at or below this depth are excluded from ATRCR statistics unless
# the caller overrides the filter (small events are usually not counted in
# capture-rate statistics).
DEFAULT_MIN_EVENT_MM = 2.0


@dataclass(frozen=True)
class RainRecord:
    """Discrete rainfall events as (date, depth_mm) pairs."""

    events: tuple

    def __post_init__(self):
        prev = None
        for date, depth in self.events:
            if depth < 0:
                raise ValidationError(f"negative event depth {depth} on {date}")
            if prev is not None and date <= prev:
                raise ValidationError(f"event dates not strictly increasing at {date}")
            prev = date

    def depths(self, min_event_mm: float = DEFAULT_MIN_EVENT_MM) -> np.ndarray:
        values = np.array([d for _, d in self.events], dtype=float)
        if min_event_mm:
            values = values[values > min_event_mm]
        return values

    @classmethod
    def from_depths(cls, depths, start=_dt.date(2000, 1, 1)) -> "RainRecord":
        """Build a record from bare depths, one synthetic day apart."""
        events = tuple(
            (start + _dt.timedelta(days=i), float(d)) for i, d in enumerate(depths)
        )
        return cls(events)

    @classmethod
    def from_csv(cls, path) -> "RainRecord":
        """`date,depth_mm` rows streamed from `inputs.read_rows`: a header on
        line 1, ISO-8601 dates, finite depths; other columns are ignored."""
        rows = read_rows(path)
        line, header = next(rows, (0, ()))
        if line != 1 or "date" not in header or "depth_mm" not in header:
            raise ValidationError(f"{path}: expected header 'date,depth_mm'")
        # a repeated column name reads its last column, as csv.DictReader does
        index = {name: i for i, name in enumerate(header)}
        date, depth = index["date"], index["depth_mm"]
        fromisoformat = _dt.date.fromisoformat
        events = []
        for line, row in rows:
            try:    # the common case; read_cell names what a row gets wrong
                event = (fromisoformat(row[date].strip()), float(row[depth]))
            except (IndexError, ValueError):
                event = (None, math.nan)
            if not math.isfinite(event[1]):
                where = f"{path}: line {line}"
                event = (read_cell(where, row, date, "date", fromisoformat,
                                   "an ISO-8601 date"),
                         read_cell(where, row, depth, "depth_mm"))
            events.append(event)
        return cls(tuple(events))


def _capture_rate(record: RainRecord, min_event_mm: float):
    """(largest event depth, ATRCR function) over the record's events
    deeper than `min_event_mm`.

    ATRCR(h) = sum(min(P_i, h)) / sum(P_i): the fraction of total rainfall
    volume captured when every event is retained up to depth h. Monotone
    non-decreasing and concave in h.
    """
    event_depths = record.depths(min_event_mm)
    if event_depths.size == 0:
        raise ValidationError("no rainfall events")
    total = float(event_depths.sum())
    return (float(event_depths.max()),
            lambda h: float(np.minimum(event_depths, h).sum() / total))


def atrcr_curve(record: RainRecord, depths, min_event_mm: float = DEFAULT_MIN_EVENT_MM) -> dict:
    """Annual-total-runoff-control-rate at each capture depth."""
    _, rate = _capture_rate(record, min_event_mm)
    queried = np.asarray(depths, dtype=float)
    if np.any(queried < 0):
        raise ValidationError("capture depths must be non-negative")
    return {float(h): rate(h) for h in queried}


def invert_atrcr(record: RainRecord, target: float,
                 min_event_mm: float = DEFAULT_MIN_EVENT_MM) -> float:
    """Smallest capture depth whose ATRCR reaches `target`, bisected to
    within 0.01 mm."""
    if not 0.0 < target < 1.0:
        raise ValidationError(f"target ATRCR must be in (0, 1), got {target}")
    hi, rate = _capture_rate(record, min_event_mm)
    lo = 0.0
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if rate(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class IdfParams(Ranged):
    """Intensity-duration-frequency constants i = a / (t + b)^n.

    These shape the Chicago hyetograph only; the event depth is imposed
    afterwards by rescaling, so `a` cancels out.
    """

    a: float = field(metadata={"range": "> 0"})
    b_min: float = field(metadata={"range": ">= 0"})
    n: float = field(metadata={"range": "in [0, 1)"})   # n >= 1 diverges


@dataclass
class Hyetograph:
    """Uniform-step storm intensities (mm/hr)."""

    step_s: float
    intensities_mm_hr: np.ndarray
    total_depth_mm: float

    def __post_init__(self):
        self.intensities_mm_hr = np.asarray(self.intensities_mm_hr, dtype=float)
        if np.any(self.intensities_mm_hr < 0):
            raise ValidationError("negative storm intensity")
        depth = self.depth_mm()
        if self.total_depth_mm > 0 and abs(depth - self.total_depth_mm) > 1e-3 * self.total_depth_mm:
            raise ValidationError(
                f"intensities integrate to {depth:.4f} mm, not {self.total_depth_mm} mm"
            )

    def depth_mm(self) -> float:
        return float(self.intensities_mm_hr.sum() * self.step_s / 3600.0)


def _chicago_ordinate(t_min: float, peak_min: float, peak_ratio: float, idf: IdfParams) -> float:
    # Instantaneous Chicago intensity: both branches share
    # g(x) = a * ((1 - n) * x + b) / (x + b)^(1 + n)
    # with x the peak distance stretched by r (before) or 1 - r (after).
    if t_min < peak_min:
        x = (peak_min - t_min) / peak_ratio
    else:
        x = (t_min - peak_min) / (1.0 - peak_ratio)
    return idf.a * ((1.0 - idf.n) * x + idf.b_min) / (x + idf.b_min) ** (1.0 + idf.n)


def chicago_hyetograph(depth_mm: float, duration_min: float, peak_ratio: float,
                       idf: IdfParams, step_s: float) -> Hyetograph:
    """Chicago-method design storm rescaled to an exact event depth.

    Ordinates are evaluated at step midpoints from the instantaneous
    Chicago intensity curve, then scaled so the integral equals `depth_mm`
    exactly; the IDF constants control only the shape.
    """
    if depth_mm <= 0:
        raise ValidationError("storm depth must be positive")
    if not 0.0 < peak_ratio < 1.0:
        raise ValidationError("peak ratio must be in (0, 1)")
    if step_s <= 0:
        raise ValidationError("step must be positive")
    n_steps = duration_min * 60.0 / step_s
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise ValidationError(
            f"step {step_s} s does not divide duration {duration_min} min"
        )
    n_steps = int(round(n_steps))
    peak_min = peak_ratio * duration_min
    mids = (np.arange(n_steps) + 0.5) * step_s / 60.0
    with np.errstate(all="ignore"):   # a 0/0 at the peak (b = 0) is caught below
        shape = np.array([_chicago_ordinate(t, peak_min, peak_ratio, idf) for t in mids])
        raw_depth = shape.sum() * step_s / 3600.0
        intensities = shape * (depth_mm / raw_depth)
    if not np.all(np.isfinite(intensities)):
        raise ValidationError("storm intensities are not all finite (with b_min 0, a "
                              "step midpoint on the peak divides 0 by 0)")
    return Hyetograph(
        step_s=float(step_s),
        intensities_mm_hr=intensities,
        total_depth_mm=float(depth_mm),
    )


def storm_label(depth_mm: float) -> str:
    """The name of the storm of `depth_mm` in result paths and the manifest."""
    return f"{depth_mm:g}mm"


def design_storm_suite(depths_mm, duration_min: float, peak_ratio: float,
                       idf: IdfParams, step_s: float) -> list:
    """One Chicago storm per requested depth, in the given order."""
    return [
        chicago_hyetograph(d, duration_min, peak_ratio, idf, step_s) for d in depths_mm
    ]
