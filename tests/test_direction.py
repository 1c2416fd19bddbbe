"""Direction classification: dead zone edges, symmetry, config."""
import pytest
from hypothesis import given, strategies as st

from streetwatch.direction import (
    DirectionConfig,
    DirectionLabel,
    classify_direction,
    default_dead_zone_px,
)

CFG = DirectionConfig(gap=2, dead_zone_px=8.0)


def test_still_object_reads_forward():
    assert classify_direction(320.0, 320.0, CFG) is DirectionLabel.FORWARD


def test_clear_motion():
    assert classify_direction(370.0, 320.0, CFG) is DirectionLabel.RIGHT
    assert classify_direction(270.0, 320.0, CFG) is DirectionLabel.LEFT


def test_dead_zone_is_closed():
    assert classify_direction(328.0, 320.0, CFG) is DirectionLabel.FORWARD
    assert classify_direction(312.0, 320.0, CFG) is DirectionLabel.FORWARD
    assert classify_direction(328.001, 320.0, CFG) is DirectionLabel.RIGHT
    assert classify_direction(311.999, 320.0, CFG) is DirectionLabel.LEFT


@given(
    xc=st.integers(min_value=-2000, max_value=2000),
    xr=st.integers(min_value=-2000, max_value=2000),
)
def test_mirror_antisymmetry(xc, xr):
    swap = {
        DirectionLabel.LEFT: DirectionLabel.RIGHT,
        DirectionLabel.RIGHT: DirectionLabel.LEFT,
        DirectionLabel.FORWARD: DirectionLabel.FORWARD,
    }
    label = classify_direction(float(xc), float(xr), CFG)
    mirrored = classify_direction(float(-xc), float(-xr), CFG)
    assert mirrored is swap[label]


def test_config_validation():
    with pytest.raises(ValueError):
        DirectionConfig(gap=0)
    with pytest.raises(ValueError):
        DirectionConfig(gap=2, dead_zone_px=0.0)
    with pytest.raises(ValueError):
        DirectionConfig(gap=1.5)  # type: ignore[arg-type]


def test_default_dead_zone_scales_with_width():
    assert default_dead_zone_px(640.0) == 8.0
    assert default_dead_zone_px(1280.0) == 16.0
    assert default_dead_zone_px(320.0) == 4.0
    with pytest.raises(ValueError):
        default_dead_zone_px(0.0)


def test_labels_serialize_to_their_names():
    assert DirectionLabel.LEFT.value == "left"
    assert DirectionLabel.RIGHT.value == "right"
    assert DirectionLabel.FORWARD.value == "forward"
