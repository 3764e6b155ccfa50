"""The one range rule: each numeric dataclass field that declares a range
(`metadata={"range": ...}`) is checked against it by `errors.Ranged`
whenever its object is built."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from lidscore import config, evaluator, hydrology, lid, quality, storms
from lidscore.errors import RANGES, RangeError, ValidationError

TINY = 5e-324   # the smallest positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)

# range -> (low, high, low excluded, high excluded) of the values drawn
# inside it, and the values just outside it
BOUNDS = {
    "> 0": ((0.0, 1e6, True, False), (0.0, -TINY)),
    ">= 0": ((0.0, 1e6, False, False), (-TINY,)),
    "in [0, 1]": ((0.0, 1.0, False, False), (-TINY, ABOVE_ONE)),
    "in [0, 1)": ((0.0, 1.0, False, True), (-TINY, 1.0)),
    "in (0, 1]": ((0.0, 1.0, True, False), (0.0, ABOVE_ONE)),
    "in (0, 1)": ((0.0, 1.0, True, True), (0.0, 1.0)),
}

# one valid object of each class with a ranged field; every mapping field
# holds an entry, and no other rule of a class fails for a value drawn
# inside a range (f0 stays above any drawn fc)
BASES = {
    hydrology.HortonParams: hydrology.HortonParams(f0_mm_hr=1e9),
    hydrology.LandUse: hydrology.LandUse("roof", 0.9, 1.0),
    hydrology.Subcatchment: hydrology.Subcatchment("A", 1.0, 0.5, 100.0, 0.01),
    hydrology.Link: hydrology.Link("L", "J", "OUT", 60.0),
    lid.LidSpec: lid.LidSpec(lid.LidKind.BIO_RETENTION, 0.3,
                             favorability={"landscape": 4.0}),
    lid.LidPlacement: lid.LidPlacement("A", lid.LidKind.BIO_RETENTION, 0.1, 0.5),
    quality.PollutantSpec: quality.PollutantSpec(
        "TSS", 100.0, 5.0, 0.008, 1.2, lid_removal={"bio_retention": 0.8},
        surface_class_factors={"roads": 1.0}),
    storms.IdfParams: storms.IdfParams(20.0, 10.0, 0.75),
    evaluator.TreeNode: evaluator.TreeNode("leaf", 0.5, indicator="x"),
    config.SizingTarget: config.SizingTarget(depth_mm=26.0, atrcr=0.75),
    config.SizingSettings: config.SizingSettings((), config.SizingTarget(depth_mm=26.0),
                                                 psi=0.5, area_ha=10.0),
}


def ranged_fields() -> list:
    """(class, field) for every dataclass field of the package that
    declares a range."""
    classes = {obj for module in (config, evaluator, hydrology, lid, quality, storms)
               for obj in vars(module).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    return sorted(((cls, f) for cls in classes for f in dataclasses.fields(cls)
                   if "range" in f.metadata),
                  key=lambda pair: (pair[0].__name__, pair[1].name))


FIELDS = ranged_fields()


def with_value(cls, name: str, x):
    """The base object of `cls` with the field `name` (the first entry of
    a mapping field) set to `x` and built again, and the label a range
    message gives it."""
    base = BASES[cls]
    current = getattr(base, name)
    if isinstance(current, dict):
        key = next(iter(current))
        return (lambda: dataclasses.replace(base, **{name: {**current, key: x}}),
                f"{name}.{key}")
    return lambda: dataclasses.replace(base, **{name: x}), name


def test_every_range_and_class_is_covered():
    assert set(BOUNDS) == set(RANGES)
    assert {cls for cls, _ in FIELDS} == set(BASES)


@pytest.mark.parametrize("cls,f", FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in FIELDS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_declared_range_is_applied(cls, f, data):
    """NaN and each value just outside the range raise a ValidationError
    naming the field (and the key of a mapping); a value inside passes."""
    bound = f.metadata["range"]
    (low, high, exclude_low, exclude_high), outside = BOUNDS[bound]
    for x in (math.nan, *outside):
        build, label = with_value(cls, f.name, x)
        with pytest.raises(ValidationError) as err:
            build()
        assert isinstance(err.value, RangeError)
        assert err.value.problems == {f.name: f"{label} must be {bound}, got {x}"}
    x = data.draw(st.floats(low, high, exclude_min=exclude_low, exclude_max=exclude_high))
    build, _ = with_value(cls, f.name, x)
    build()


def test_every_field_out_of_range_is_listed():
    """One build lists each field outside its range, in field order."""
    with pytest.raises(RangeError) as err:
        hydrology.Subcatchment("A", 0.0, 1.5, -1.0, math.nan)
    assert list(err.value.problems.values()) == [
        "area_ha must be > 0, got 0.0", "impervious_fraction must be in [0, 1], got 1.5",
        "width_m must be > 0, got -1.0", "slope must be > 0, got nan"]


def test_none_is_not_checked():
    assert config.SizingTarget().depth_mm is None
