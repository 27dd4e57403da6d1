import math

import pytest
from hypothesis import given, strategies as st

from vrueval.errors import ConversionError
from vrueval.geometry import ImageDims, check_normalized, corner_iou, denormalize, normalize


def box(*coords):
    return tuple(map(float, coords))


def iou_of(a, b):
    return corner_iou(*a, *b)


def area(b):
    x_min, y_min, x_max, y_max = b
    return (x_max - x_min) * (y_max - y_min)


# boxes on a coarse grid keep IoU comparisons exact enough for identity checks
grid = st.integers(min_value=0, max_value=200).map(lambda v: v / 2.0)


@st.composite
def boxes(draw):
    x0, x1 = sorted((draw(grid), draw(grid)))
    y0, y1 = sorted((draw(grid), draw(grid)))
    return (x0, y0, x1, y1)


class TestIou:
    def test_identical_boxes(self):
        assert iou_of(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint_boxes(self):
        assert iou_of(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert iou_of(box(0, 0, 2, 2), box(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_two_zero_area_boxes(self):
        assert iou_of(box(3, 3, 3, 3), box(3, 3, 3, 3)) == 0.0

    def test_zero_area_inside_positive(self):
        assert iou_of(box(5, 5, 5, 5), box(0, 0, 10, 10)) == 0.0

    def test_touching_edges(self):
        assert iou_of(box(0, 0, 1, 1), box(1, 0, 2, 1)) == 0.0

    @given(a=boxes(), b=boxes())
    def test_symmetric_and_bounded(self, a, b):
        ab = iou_of(a, b)
        assert ab == iou_of(b, a)
        assert 0.0 <= ab <= 1.0

    @given(a=boxes(), b=boxes())
    def test_one_iff_identical_positive_area(self, a, b):
        assert (iou_of(a, b) == 1.0) == (a == b and area(a) > 0)

    def test_shrinking_inner_box_never_increases_iou(self):
        outer = box(0, 0, 100, 100)
        inner = box(10, 10, 90, 90)
        smaller = box(20, 20, 80, 80)
        smallest = box(40, 40, 60, 60)
        values = [iou_of(outer, b) for b in (inner, smaller, smallest)]
        assert values == sorted(values, reverse=True)
        assert values[0] > values[1] > values[2]


def reference_iou(a, b):
    """``corner_iou``'s arithmetic with the intersection edges from builtin max/min."""
    ax_min, ay_min, ax_max, ay_max = a
    bx_min, by_min, bx_max, by_max = b
    iw = min(ax_max, bx_max) - max(ax_min, bx_min)
    ih = min(ay_max, by_max) - max(ay_min, by_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax_max - ax_min) * (ay_max - ay_min) + (bx_max - bx_min) * (by_max - by_min) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# pairs where an edge of the intersection is a tie, or where the larger or
# smaller operand is a full-precision float whose choice sets the value
OPERAND_CASES = {
    "shared-left-edge": ((0.0, 0.0, 10.0, 10.0), (0.0, 2.0, 7.0, 9.0)),
    "shared-right-and-top-edges": ((0.0, 0.0, 10.0, 10.0), (3.0, 0.0, 10.0, 4.0)),
    "touching-corners": ((0.0, 0.0, 5.0, 5.0), (5.0, 5.0, 9.0, 9.0)),
    "touching-edge": ((0.0, 0.0, 5.0, 5.0), (5.0, 1.0, 9.0, 4.0)),
    "nested": ((0.0, 0.0, 100.0, 100.0), (10.25, 20.5, 30.75, 99.5)),
    "identical": ((1.5, 2.5, 3.5, 4.5), (1.5, 2.5, 3.5, 4.5)),
    "equal-x-coordinates": ((2.0, 0.0, 8.0, 6.0), (2.0, 3.0, 8.0, 11.0)),
    "equal-y-coordinates": ((0.0, 2.0, 6.0, 8.0), (3.0, 2.0, 11.0, 8.0)),
    "negative-zero-against-zero": ((-0.0, -0.0, 4.0, 4.0), (0.0, 0.0, 2.0, 3.0)),
    "zero-against-negative-zero": ((0.0, -0.0, 4.0, 4.0), (-0.0, 0.0, 4.0, 2.0)),
    "negative-zero-width": ((-0.0, 0.0, 0.0, 5.0), (0.0, 0.0, -0.0, 5.0)),
    "full-precision": (
        (0.1 + 0.2, 1.0 / 3.0, 2.0 ** 0.5 * 7.0, 10.0 / 7.0 + 5.0),
        (0.3, 0.3333333333333333, 9.899494936611665, 6.428571428571429),
    ),
    "full-precision-one-ulp-apart": (
        (1919.9999999999998, 12.000000000000002, 1920.9999999999998, 40.1),
        (1920.0, 12.0, 1921.0, 40.099999999999994),
    ),
    "denormalized-detection": (
        denormalize(0.3786, 0.6123, 0.0513, 0.0971, ImageDims(1360, 765)),
        denormalize(0.3791, 0.6118, 0.0507, 0.0969, ImageDims(1360, 765)),
    ),
}


class TestIouOperandChoice:
    @pytest.mark.parametrize("a, b", OPERAND_CASES.values(), ids=OPERAND_CASES.keys())
    def test_equals_max_min_reference(self, a, b):
        for first, second in ((a, b), (b, a)):
            got = iou_of(first, second)
            want = reference_iou(first, second)
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ((math.nan, 0.0, 4.0, 4.0), (5.0, 0.0, 6.0, 4.0), "nan"),
            ((5.0, 0.0, 6.0, 4.0), (math.nan, 0.0, 4.0, 4.0), "0x0.0p+0"),
            ((0.0, 0.0, math.nan, 4.0), (-2.0, 0.0, -1.0, 4.0), "nan"),
            ((-2.0, 0.0, -1.0, 4.0), (0.0, 0.0, math.nan, 4.0), "0x0.0p+0"),
        ],
        ids=["nan-first-max", "nan-second-max", "nan-first-min", "nan-second-min"],
    )
    def test_nan_edge_picks_the_builtins_operand(self, a, b, expected):
        # A NaN corner is the one input where the operand choice shows in the
        # value: max() and min() keep their first operand whenever one side is
        # NaN, so a NaN edge either reaches the result or a disjoint edge
        # returns 0.0 first.
        assert iou_of(a, b).hex() == reference_iou(a, b).hex() == expected


class TestNormalization:
    def test_full_image_box(self):
        assert normalize(*box(0, 0, 100, 100), ImageDims(100, 100)) == (0.5, 0.5, 1.0, 1.0)

    def test_centered_half_box(self):
        assert normalize(*box(25, 25, 75, 75), ImageDims(100, 100)) == (0.5, 0.5, 0.5, 0.5)

    def test_rectangular_image(self):
        n = normalize(*box(0, 0, 30, 60), ImageDims(120, 240))
        assert n == (0.125, 0.125, 0.25, 0.25)

    def test_denormalize_full(self):
        assert denormalize(0.5, 0.5, 1.0, 1.0, ImageDims(100, 100)) == box(0, 0, 100, 100)

    def test_denormalize_half(self):
        assert denormalize(0.5, 0.5, 0.5, 0.5, ImageDims(100, 100)) == box(25, 25, 75, 75)

    def test_round_trip_specific(self):
        dims = ImageDims(640, 480)
        original = box(7.3, 2.1, 55.9, 88.8)
        back = denormalize(*normalize(*original, dims), dims)
        for a, b in zip(original, back):
            assert math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)

    def test_out_of_range_reports_component(self):
        dims = ImageDims(100, 100)
        for corners, component in [
            ((90, 0, 120, 10), "cx=1.05"),
            ((0, 0, 10, 200), "h=2"),
            ((10, 10, 510, 30), "cx=2.6"),
        ]:
            with pytest.raises(ConversionError) as info:
                normalize(*box(*corners), dims)
            shown = ", ".join(str(float(c)) for c in corners)
            assert str(info.value) == (
                f"normalized {component} outside [0, 1] for box ({shown}) in 100x100 image"
            )

    def test_denormalized_may_exceed_image(self):
        # legal: a wide box centered near the left edge reaches past x=0
        x_min, _, _, _ = denormalize(0.1, 0.5, 0.5, 0.2, ImageDims(100, 100))
        assert x_min < 0

    @given(
        data=st.data(),
        width=st.integers(min_value=1, max_value=4000),
        height=st.integers(min_value=1, max_value=4000),
    )
    def test_round_trip_property(self, data, width, height):
        dims = ImageDims(width, height)
        x0 = data.draw(st.floats(0, width, allow_nan=False))
        x1 = data.draw(st.floats(x0, width, allow_nan=False))
        y0 = data.draw(st.floats(0, height, allow_nan=False))
        y1 = data.draw(st.floats(y0, height, allow_nan=False))
        back = denormalize(*normalize(x0, y0, x1, y1, dims), dims)
        scale = max(width, height)
        for a, b in zip((x0, y0, x1, y1), back):
            assert math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9 * scale)


def test_image_dims_must_be_positive():
    with pytest.raises(ValueError):
        ImageDims(0, 10)
    with pytest.raises(ValueError):
        ImageDims(10, -1)


def test_normalized_range_check():
    with pytest.raises(ValueError, match="cx=1.2"):
        check_normalized(1.2, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError, match="w=-0.1"):
        check_normalized(0.5, 0.5, -0.1, 0.1)
