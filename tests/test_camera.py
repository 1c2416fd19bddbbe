"""Distance estimation, checked against the projection h = f * H / Z."""
import math

import pytest
from hypothesis import given, strategies as st

from streetwatch.camera import (
    CameraIntrinsics,
    HeightTable,
    estimate_distance,
    focal_px_from_mm,
)

from conftest import make_det


def test_known_distance_value(intrinsics, heights):
    # f = 1000, H = 140, h = 100  =>  D = 1000 * 140 / 100 = 1400
    det = make_det("car", h=100.0)
    assert estimate_distance(intrinsics, heights, det) == 1400.0


def test_tall_box_means_close(intrinsics, heights):
    det = make_det("car", h=1000.0)
    assert estimate_distance(intrinsics, heights, det) == 140.0


def test_unknown_category_has_no_distance(intrinsics, heights):
    assert estimate_distance(intrinsics, heights, make_det("dog")) is None


def test_height_table_rejects_bad_entries():
    with pytest.raises(ValueError):
        HeightTable({"car": 0.0})
    with pytest.raises(ValueError):
        HeightTable({"car": -10.0})
    with pytest.raises(ValueError):
        HeightTable({"": 100.0})
    with pytest.raises(ValueError):
        HeightTable({"car": math.inf})


def test_height_table_copies_its_input():
    source = {"car": 140.0}
    table = HeightTable(source)
    source["car"] = 1.0
    assert table.entries["car"] == 140.0


@pytest.mark.parametrize("depth", [120.0, 300.0, 600.0, 2000.0, 4999.0])
def test_round_trip_distance(intrinsics, heights, depth):
    # the projection h = f * H / Z
    h = intrinsics.focal_px * 140.0 / depth
    est = estimate_distance(intrinsics, heights, make_det("car", h=h))
    assert abs(est - depth) / depth <= 1e-12


@given(
    f=st.floats(min_value=100.0, max_value=5000.0, allow_nan=False),
    real_h=st.floats(min_value=30.0, max_value=500.0, allow_nan=False),
    depth=st.floats(min_value=100.0, max_value=5000.0, allow_nan=False),
)
def test_round_trip_property(f, real_h, depth):
    intr = CameraIntrinsics(focal_px=f, image_w=640.0, image_h=480.0)
    table = HeightTable({"car": real_h})
    h = f * real_h / depth
    est = estimate_distance(intr, table, make_det("car", h=h))
    assert abs(est - depth) / depth <= 1e-12


@given(
    h1=st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
    h2=st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
)
def test_larger_box_never_farther(h1, h2):
    intr = CameraIntrinsics(focal_px=1000.0, image_w=640.0, image_h=480.0)
    table = HeightTable({"car": 140.0})
    d1 = estimate_distance(intr, table, make_det("car", h=h1))
    d2 = estimate_distance(intr, table, make_det("car", h=h2))
    if h1 < h2:
        assert d1 > d2
    elif h1 > h2:
        assert d1 < d2


def test_focal_px_from_mm():
    # h_sensor = 4.8 mm over 480 px  =>  100 px per mm
    assert focal_px_from_mm(4.0, 4.8, 480.0) == pytest.approx(400.0)
    with pytest.raises(ValueError):
        focal_px_from_mm(0.0, 4.8, 480.0)
    with pytest.raises(ValueError):
        focal_px_from_mm(4.0, -1.0, 480.0)
    for bad in (math.nan, math.inf, True):
        for pos in range(3):
            args = [4.0, 4.8, 480.0]
            args[pos] = bad
            with pytest.raises(ValueError):
                focal_px_from_mm(*args)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_px=0.0, image_w=640.0, image_h=480.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_px=1000.0, image_w=-640.0, image_h=480.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_px=math.nan, image_w=640.0, image_h=480.0)
