"""Annotation records, category remapping, and line-oriented parsers.

Supported text formats (one object per line):

- source annotation line (drone-survey convention):
  ``left,top,width,height,score,category,truncation,occlusion`` -- 8
  comma-separated integers, trailing comma tolerated.
- label line: ``class cx cy w h`` -- class id plus 4 normalized decimals.
- detection line: ``class confidence cx cy w h``.
- ignore-region sidecar line: ``cx cy w h`` (no class; regions are
  class-agnostic and excluded from scoring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import yaml

from .errors import ParseError, SchemaError
from .geometry import BoundingBox, ImageDims, check_normalized, denormalize

__all__ = [
    "IGNORE_CLASS_ID",
    "ClassMap",
    "GroundTruthRecord",
    "DetectionRecord",
    "parse_visdrone_line",
    "parse_visdrone_file",
    "parse_yolo_labels",
    "parse_detections",
    "parse_ignore_regions",
]

# Class id carried by ignore-region records; they match detections of any class.
IGNORE_CLASS_ID = -1

# Published category ids of the drone-survey source annotations.
_VISDRONE_NAMES = {
    0: "ignored-regions",
    1: "pedestrian",
    2: "people",
    3: "bicycle",
    4: "car",
    5: "van",
    6: "truck",
    7: "tricycle",
    8: "awning-tricycle",
    9: "bus",
    10: "motor",
    11: "others",
}


@dataclass(frozen=True)
class ClassMap:
    """Source-category remapping onto contiguous target classes.

    ``mapping`` sends source category ids to target class ids 0..K-1;
    ``drop`` lists categories to discard entirely; ``ignore`` lists
    categories that become scoring-exempt ignore regions. The three sets
    of source ids must be disjoint.
    """

    mapping: Mapping[int, int]
    names: tuple[str, ...]
    drop: frozenset[int] = frozenset()
    ignore: frozenset[int] = frozenset()

    def __post_init__(self):
        k = len(self.names)
        if k == 0:
            raise SchemaError("class map must define at least one target class")
        if len(set(self.names)) != k:
            raise SchemaError(f"duplicate target class names: {self.names}")
        targets = set(self.mapping.values())
        if targets != set(range(k)):
            raise SchemaError(
                f"target class ids must be contiguous 0..{k - 1}, got {sorted(targets)}"
            )
        sources = list(self.mapping) + list(self.drop) + list(self.ignore)
        if len(sources) != len(set(sources)):
            raise SchemaError("a source category may appear in only one of map/drop/ignore")

    @property
    def num_classes(self) -> int:
        return len(self.names)

    @classmethod
    def visdrone_default(cls) -> "ClassMap":
        """The four-VRU-class remap: pedestrian, people, bicycle, tricycle.

        Vehicle categories are dropped; category 0 (ignored regions) is kept
        as scoring-exempt.
        """
        return cls(
            mapping={1: 0, 2: 1, 3: 2, 7: 3},
            names=("pedestrian", "people", "bicycle", "tricycle"),
            drop=frozenset({4, 5, 6, 8, 9, 10, 11}),
            ignore=frozenset({0}),
        )

    @classmethod
    def identity(cls, names: Iterable[str]) -> "ClassMap":
        """Map class i -> i for already-converted label files."""
        names = tuple(names)
        return cls(mapping={i: i for i in range(len(names))}, names=names)

    @classmethod
    def from_file(cls, path: str) -> "ClassMap":
        """Load a map from a YAML/JSON document.

        Expected keys: ``names`` (ordered list), ``map`` (source -> target),
        and optional ``drop`` / ``ignore`` source-id lists.
        """
        with open(path, encoding="utf-8") as fh:
            try:
                doc = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise SchemaError(f"{path}: invalid class map: {exc}") from exc
        if not isinstance(doc, dict) or "names" not in doc or "map" not in doc:
            raise SchemaError(f"{path}: class map needs 'names' and 'map' keys")
        try:
            mapping = {int(src): int(dst) for src, dst in doc["map"].items()}
            return cls(
                mapping=mapping,
                names=tuple(str(n) for n in doc["names"]),
                drop=frozenset(int(c) for c in doc.get("drop", [])),
                ignore=frozenset(int(c) for c in doc.get("ignore", [])),
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"{path}: invalid class map: {exc}") from exc


@dataclass(frozen=True)
class GroundTruthRecord:
    """One annotated object. ``ignore=True`` marks a scoring-exempt region."""

    image_id: str
    class_id: int
    box: BoundingBox
    ignore: bool = False


@dataclass(frozen=True)
class DetectionRecord:
    """One scored model prediction."""

    image_id: str
    class_id: int
    confidence: float
    box: BoundingBox

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


def parse_visdrone_line(
    line: str,
    class_map: ClassMap,
    image_id: str = "",
    path: str | None = None,
    lineno: int | None = None,
) -> GroundTruthRecord | None:
    """Parse one source annotation line; None when the category is dropped.

    The box is (left, top, left+width, top+height). Categories in the
    ignore set yield ignore records with the class-agnostic sentinel id.
    """
    fields = line.strip().rstrip(",").split(",")
    if len(fields) != 8:
        raise ParseError(f"expected 8 comma-separated fields, got {len(fields)}", path, lineno)
    try:
        left, top, width, height, _score, category, _trunc, _occl = (int(f) for f in fields)
    except ValueError:
        raise ParseError(f"non-numeric field in annotation line: {line.strip()!r}", path, lineno)
    if width <= 0 or height <= 0:
        raise ParseError(f"degenerate box: width={width} height={height}", path, lineno)
    box = BoundingBox(float(left), float(top), float(left + width), float(top + height))
    if category in class_map.drop:
        return None
    if category in class_map.ignore:
        return GroundTruthRecord(image_id, IGNORE_CLASS_ID, box, ignore=True)
    if category not in class_map.mapping:
        known = _VISDRONE_NAMES.get(category, "unknown")
        raise ParseError(f"unmapped source category {category} ({known})", path, lineno)
    return GroundTruthRecord(image_id, class_map.mapping[category], box)


def parse_visdrone_file(
    text: str, class_map: ClassMap, image_id: str = "", path: str | None = None
) -> list[GroundTruthRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        record = parse_visdrone_line(line, class_map, image_id, path, lineno)
        if record is not None:
            records.append(record)
    return records


def _parse_box(parts: list[str], dims: ImageDims, path: str | None, lineno: int) -> BoundingBox:
    """Corner box of the four ``cx cy w h`` tokens of one line."""
    try:
        cx, cy, w, h = map(float, parts)
    except ValueError:
        raise ParseError(f"non-numeric normalized field in {parts}", path, lineno)
    try:
        check_normalized(cx, cy, w, h)
    except ValueError as exc:
        raise ParseError(str(exc), path, lineno)
    return denormalize(cx, cy, w, h, dims)


def _parse_class_id(token: str, num_classes: int | None, path: str | None, lineno: int) -> int:
    try:
        class_id = int(token)
    except ValueError:
        raise ParseError(f"non-integer class id {token!r}", path, lineno)
    if class_id < 0:
        raise ParseError(f"negative class id {class_id}", path, lineno)
    if num_classes is not None and class_id >= num_classes:
        raise ParseError(
            f"class id {class_id} out of range for {num_classes} configured classes",
            path,
            lineno,
        )
    return class_id


def parse_yolo_labels(
    text: str,
    dims: ImageDims,
    num_classes: int | None = None,
    image_id: str = "",
    path: str | None = None,
) -> list[GroundTruthRecord]:
    """Parse a per-image label file (``class cx cy w h`` lines)."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise ParseError(f"expected 5 fields, got {len(parts)}", path, lineno)
        class_id = _parse_class_id(parts[0], num_classes, path, lineno)
        box = _parse_box(parts[1:], dims, path, lineno)
        records.append(GroundTruthRecord(image_id, class_id, box))
    return records


def parse_detections(
    text: str,
    dims: ImageDims,
    num_classes: int | None = None,
    image_id: str = "",
    path: str | None = None,
) -> list[DetectionRecord]:
    """Parse a per-image detection file (``class confidence cx cy w h`` lines)."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}", path, lineno)
        class_id = _parse_class_id(parts[0], num_classes, path, lineno)
        try:
            confidence = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric confidence {parts[1]!r}", path, lineno)
        box = _parse_box(parts[2:], dims, path, lineno)
        try:
            records.append(DetectionRecord(image_id, class_id, confidence, box))
        except ValueError as exc:  # the record owns the confidence range check
            raise ParseError(str(exc), path, lineno)
    return records


def parse_ignore_regions(
    text: str, dims: ImageDims, image_id: str = "", path: str | None = None
) -> list[GroundTruthRecord]:
    """Parse an ignore-region sidecar (``cx cy w h`` lines)."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", path, lineno)
        box = _parse_box(parts, dims, path, lineno)
        records.append(GroundTruthRecord(image_id, IGNORE_CLASS_ID, box, ignore=True))
    return records
