"""Bounding-box geometry: corner boxes, normalized center boxes, and IoU.

Coordinates are continuous reals with open-convention areas
(``(x_max - x_min) * (y_max - y_min)``, no +1 pixel correction), so results
are consistent with normalized center/size label formats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConversionError

__all__ = [
    "ImageDims",
    "BoundingBox",
    "NormalizedBox",
    "iou",
    "check_normalized",
    "to_normalized",
    "from_normalized",
    "denormalize",
]


@dataclass(frozen=True)
class ImageDims:
    """Pixel dimensions of one image."""

    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image dims must be positive, got {self.width}x{self.height}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in absolute pixel corner coordinates.

    Zero-area boxes are allowed; negative extent is not.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(
                f"negative box extent: ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass(frozen=True)
class NormalizedBox:
    """Center/size box as fractions of image dimensions, all in [0, 1].

    Denormalizing may legally produce corners outside the image (e.g. a
    centered box wider than half the image); clamping is a parser policy,
    never applied here.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        check_normalized(self.cx, self.cy, self.w, self.h)


def check_normalized(cx: float, cy: float, w: float, h: float) -> None:
    """Raise ValueError naming the first of cx, cy, w, h outside [0, 1].

    NaN fails every comparison and so is rejected as out of range.
    """
    if 0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0 and 0.0 <= w <= 1.0 and 0.0 <= h <= 1.0:
        return
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"normalized component {name}={value} outside [0, 1]")


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty."""
    ix_min = max(a.x_min, b.x_min)
    iy_min = max(a.y_min, b.y_min)
    ix_max = min(a.x_max, b.x_max)
    iy_max = min(a.y_max, b.y_max)
    iw = ix_max - ix_min
    ih = iy_max - iy_min
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def to_normalized(box: BoundingBox, dims: ImageDims) -> NormalizedBox:
    """Convert a corner box to a normalized center/size box.

    Raises ConversionError naming the offending component when the result
    falls outside [0, 1] (box outside or larger than the image).
    """
    cx = (box.x_min + box.x_max) / (2.0 * dims.width)
    cy = (box.y_min + box.y_max) / (2.0 * dims.height)
    w = (box.x_max - box.x_min) / dims.width
    h = (box.y_max - box.y_min) / dims.height
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
        if not 0.0 <= value <= 1.0:
            raise ConversionError(
                f"normalized {name}={value:.6g} outside [0, 1] for box "
                f"({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
                f"in {dims.width}x{dims.height} image"
            )
    return NormalizedBox(cx, cy, w, h)


def from_normalized(norm: NormalizedBox, dims: ImageDims) -> BoundingBox:
    """Inverse of to_normalized, up to floating-point round-trip error."""
    return denormalize(norm.cx, norm.cy, norm.w, norm.h, dims)


def denormalize(cx: float, cy: float, w: float, h: float, dims: ImageDims) -> BoundingBox:
    """Corner box of already range-checked normalized center/size values."""
    half_w = w * dims.width / 2.0
    half_h = h * dims.height / 2.0
    cx = cx * dims.width
    cy = cy * dims.height
    return BoundingBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h)
