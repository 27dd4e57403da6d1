"""Bounding-box geometry on plain numbers: corners, normalized center boxes, and IoU.

Coordinates are continuous reals with open-convention areas
(``(x_max - x_min) * (y_max - y_min)``, no +1 pixel correction), so results
are consistent with normalized center/size label formats.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .errors import CheckedRecord, ConversionError

__all__ = [
    "ImageDims",
    "corner_iou",
    "check_normalized",
    "normalize",
    "denormalize",
]


class _ImageDims(NamedTuple):
    width: int
    height: int


class ImageDims(CheckedRecord, _ImageDims):
    """Pixel dimensions of one image: positive integers, never bools."""

    __slots__ = ()

    def __new__(cls, width: int, height: int):
        for value in (width, height):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"image dims must be integers, got {width!r}x{height!r}")
        if width <= 0 or height <= 0:
            raise ValueError(f"image dims must be positive, got {width}x{height}")
        if width > sys.float_info.max or height > sys.float_info.max:  # no float holds them
            raise ValueError("image dims must be within the float range")
        return super().__new__(cls, width, height)


def check_normalized(cx: float, cy: float, w: float, h: float) -> None:
    """Raise ValueError naming the first of cx, cy, w, h outside [0, 1].

    NaN fails every comparison and so is rejected as out of range.
    """
    if 0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0 and 0.0 <= w <= 1.0 and 0.0 <= h <= 1.0:
        return
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"normalized component {name}={value} outside [0, 1]")


def corner_iou(
    ax_min: float,
    ay_min: float,
    ax_max: float,
    ay_max: float,
    bx_min: float,
    by_min: float,
    bx_max: float,
    by_max: float,
) -> float:
    """IoU of two boxes given as corners: the one IoU arithmetic.

    Each area is ``(x_max - x_min) * (y_max - y_min)``, and the union is
    ``a_area + b_area - inter``; 0.0 when the boxes do not overlap or the
    union is empty.

    This is the hot pair test of matching, so the intersection edges are
    conditional expressions rather than builtin ``max``/``min`` calls. Each
    picks the operand the two-argument builtin picks (``max(a, b)`` is
    ``b if b > a else a``, ``min(a, b)`` is ``b if b < a else a``), so ties
    and signed zeros give the same bits.
    """
    iw = (bx_max if bx_max < ax_max else ax_max) - (bx_min if bx_min > ax_min else ax_min)
    ih = (by_max if by_max < ay_max else ay_max) - (by_min if by_min > ay_min else ay_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax_max - ax_min) * (ay_max - ay_min) + (bx_max - bx_min) * (by_max - by_min) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def denormalize(cx: float, cy: float, w: float, h: float, dims: ImageDims) -> tuple:
    """``(x_min, y_min, x_max, y_max)`` of range-checked normalized center/size values."""
    half_w = w * dims.width / 2.0
    half_h = h * dims.height / 2.0
    cx = cx * dims.width
    cy = cy * dims.height
    return (cx - half_w, cy - half_h, cx + half_w, cy + half_h)


def normalize(x_min: float, y_min: float, x_max: float, y_max: float, dims: ImageDims) -> tuple:
    """``(cx, cy, w, h)`` of a corner box: the inverse of ``denormalize``.

    Raises ConversionError naming the first component outside [0, 1] (a box
    outside or larger than the image).
    """
    cx = (x_min + x_max) / (2.0 * dims.width)
    cy = (y_min + y_max) / (2.0 * dims.height)
    w = (x_max - x_min) / dims.width
    h = (y_max - y_min) / dims.height
    if 0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0 and 0.0 <= w <= 1.0 and 0.0 <= h <= 1.0:
        return (cx, cy, w, h)
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
        if not 0.0 <= value <= 1.0:
            raise ConversionError(
                f"normalized {name}={value:.6g} outside [0, 1] for box "
                f"({x_min}, {y_min}, {x_max}, {y_max}) in {dims.width}x{dims.height} image"
            )
