"""Category remapping and line-oriented parsers into rows.

Supported text formats (one object per line):

- source annotation line (drone-survey convention):
  ``left,top,width,height,score,category,truncation,occlusion`` -- 8
  comma-separated integers, trailing comma tolerated.
- label line: ``class cx cy w h`` -- class id plus 4 normalized decimals.
- detection line: ``class confidence cx cy w h``.
- ignore-region sidecar line: ``cx cy w h`` (no class; regions are
  class-agnostic and excluded from scoring).

Every number is spelled in ASCII without ``_``: Python's ``int`` and
``float`` also read digit-group underscores and non-ASCII digits (``1_0``
as 10, an Arabic-Indic one as 1), which no annotation format writes.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from .errors import CheckedRecord, ParseError, SchemaError, read_yaml
from .geometry import ImageDims, check_normalized, denormalize

__all__ = [
    "IGNORE_CLASS_ID",
    "ClassMap",
    "parse_visdrone_file",
    "parse_box_rows",
    "parse_label_file",
    "parse_detection_rows",
    "plain_number",
]

# Class id carried by ignore-region rows; they match detections of any class.
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


_DECIMAL = re.compile(r"[-+]?(0|[1-9][0-9]*)")


def _class_id(text) -> int:
    """A class-map id: the text of a plain decimal integer (YAML 1.1 would also
    read ``0x4``, ``010`` (octal), ``1_0``, ``1:30`` (base 60) and ``true``)."""
    if not isinstance(text, str) or not _DECIMAL.fullmatch(text):
        raise ValueError(f"class ids must be plain decimal integers, got {text!r}")
    return int(text)


class _ClassMap(NamedTuple):
    mapping: Mapping[int, int]
    names: tuple[str, ...]
    drop: frozenset[int]
    ignore: frozenset[int]


class ClassMap(CheckedRecord, _ClassMap):
    """Source-category remapping onto contiguous target classes.

    ``mapping`` sends source category ids to target class ids 0..K-1;
    ``drop`` lists categories to discard entirely; ``ignore`` lists
    categories that become scoring-exempt ignore regions. The three sets
    of source ids must be disjoint.
    """

    __slots__ = ()

    def __new__(
        cls,
        mapping: Mapping[int, int],
        names: tuple[str, ...],
        drop: frozenset[int] = frozenset(),
        ignore: frozenset[int] = frozenset(),
    ):
        k = len(names)
        if k == 0:
            raise SchemaError("class map must define at least one target class")
        if len(set(names)) != k:
            raise SchemaError(f"duplicate target class names: {names}")
        for name in names:
            cls._one_line("class name", name)
        targets = set(mapping.values())
        if targets != set(range(k)):
            raise SchemaError(
                f"target class ids must be contiguous 0..{k - 1}, got {sorted(targets)}"
            )
        sources = list(mapping) + list(drop) + list(ignore)
        if len(sources) != len(set(sources)):
            raise SchemaError("a source category may appear in only one of map/drop/ignore")
        return super().__new__(cls, mapping, names, drop, ignore)

    @property
    def num_classes(self) -> int:
        return len(self.names)

    @property
    def targets(self) -> dict[int, int | None]:
        """Each source id's target class id: ``IGNORE_CLASS_ID`` for an ``ignore``
        category, None for a ``drop`` one; a category in none of the three sets
        is not a key."""
        return {
            **self.mapping,
            **dict.fromkeys(self.ignore, IGNORE_CLASS_ID),
            **dict.fromkeys(self.drop),
        }

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
        and optional ``drop`` / ``ignore`` source-id lists. PyYAML's base
        loader keeps every value as the text it is written as, so names are
        kept verbatim and ids are read by ``_class_id``.
        """
        doc = read_yaml(path, "class map", typed=False)
        if not isinstance(doc, dict) or "names" not in doc or "map" not in doc:
            raise SchemaError(f"{path}: class map needs 'names' and 'map' keys")
        try:
            for key in ("names", "drop", "ignore"):
                if not isinstance(doc.get(key, []), list):
                    raise TypeError(f"{key} must be a list, got {doc[key]!r}")
            if not isinstance(doc["map"], dict):
                raise TypeError(f"map must be a mapping, got {doc['map']!r}")
            names = doc["names"]
            if not all(isinstance(name, str) for name in names):
                raise TypeError(f"names must be a list of strings, got {names!r}")
            mapping = {}
            for src, dst in doc["map"].items():
                source = _class_id(src)
                if source in mapping:
                    raise ValueError(f"map gives source id {source} twice, the second as {src!r}")
                mapping[source] = _class_id(dst)
            return cls(
                mapping=mapping,
                names=tuple(names),
                drop=frozenset(map(_class_id, doc.get("drop", []))),
                ignore=frozenset(map(_class_id, doc.get("ignore", []))),
            )
        except (TypeError, ValueError, SchemaError) as exc:
            raise SchemaError(f"{path}: invalid class map: {exc}") from exc


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII without ``_`` (see the module docstring)."""
    return "_" not in text and text.isascii()


def plain_number(convert, field: str):
    """``convert(field)`` (``int`` or ``float``) of a field spelled in ASCII without ``_``."""
    if not _plain(field):
        raise ValueError(f"not a plain decimal number: {field!r}")
    return convert(field)


def _visdrone_row(
    line: str, targets: Mapping[int, int | None], path: str | None, lineno: int
) -> tuple | None:
    """``(class_id, x_min, y_min, x_max, y_max)`` of one source annotation line.

    The box is (left, top, left+width, top+height); an ignore category gets
    ``IGNORE_CLASS_ID`` and a dropped one None.
    """
    fields = line.strip().rstrip(",").split(",")
    if len(fields) != 8:
        raise ParseError(f"expected 8 comma-separated fields, got {len(fields)}", path, lineno)
    try:
        if not _plain(line):
            raise ValueError(line)
        left, top, width, height, _score, category, _trunc, _occl = (int(f) for f in fields)
    except ValueError:
        raise ParseError(f"non-numeric field in annotation line: {line.strip()!r}", path, lineno)
    if width <= 0 or height <= 0:
        raise ParseError(f"degenerate box: width={width} height={height}", path, lineno)
    try:
        target = targets[category]
    except KeyError:
        known = _VISDRONE_NAMES.get(category, "unknown")
        raise ParseError(f"unmapped source category {category} ({known})", path, lineno)
    if target is None:
        return None
    try:
        return (target, float(left), float(top), float(left + width), float(top + height))
    except OverflowError:
        raise ParseError("box coordinate out of the float range", path, lineno)


def parse_visdrone_file(text: str, class_map: ClassMap, path: str | None = None) -> list[tuple]:
    """Rows ``(class_id, x_min, y_min, x_max, y_max)`` of the kept lines of a source
    annotation file, in file order; ignore regions under ``IGNORE_CLASS_ID``.

    A line that fails the fast path below goes through ``_visdrone_row``, which
    names its first fault, or returns its row (a trailing comma, or any line of a
    file that is not all plain).
    """
    targets = class_map.targets
    plain = _plain(text)
    rows = []
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                left, top, width, height, _score, category, _trunc, _occl = map(
                    int, line.split(",")
                )
                target = targets[category]
                valid = plain and width > 0 and height > 0
            except (ValueError, KeyError):
                valid = False
            if valid:
                if target is not None:
                    right, bottom = left + width, top + height
                    rows.append((target, float(left), float(top), float(right), float(bottom)))
            elif line.strip():
                row = _visdrone_row(line, targets, path, lineno)
                if row is not None:
                    rows.append(row)
    except OverflowError:  # a kept box past the float range: the row checker names its line
        _visdrone_row(line, targets, path, lineno)
        raise
    return rows


def _box_row(
    line: str, lead: int, dims: ImageDims, num_classes: int | None,
    path: str | None, lineno: int,
) -> tuple:
    """The ``lead`` values of one line's fields, then the corners ``denormalize`` computes.

    ``lead`` counts the fields before ``cx cy w h``: 0 for an ignore region, 1
    for a label (class), 2 for a detection (class, confidence). The checks run
    in the order field count, field separators, class id, non-numeric
    confidence, box, confidence range, and the first fault raises ParseError.
    """
    parts = line.split()
    if len(parts) != lead + 4:
        raise ParseError(f"expected {lead + 4} fields, got {len(parts)}", path, lineno)
    if _plain(line):
        to_int, to_float = int, float
    elif _plain("".join(parts)):  # str.split also splits at non-ASCII whitespace
        space = next(char for char in line if not char.isascii())
        raise ParseError(f"non-ASCII whitespace {space!r} in the line", path, lineno)
    else:  # check each field, so the first bad one is named
        to_int, to_float = partial(plain_number, int), partial(plain_number, float)
    head = ()
    if lead:
        try:
            class_id = to_int(parts[0])
        except ValueError:
            raise ParseError(f"non-integer class id {parts[0]!r}", path, lineno)
        if class_id < 0:
            raise ParseError(f"negative class id {class_id}", path, lineno)
        if num_classes is not None and class_id >= num_classes:
            fault = f"class id {class_id} out of range for {num_classes} configured classes"
            raise ParseError(fault, path, lineno)
        head = (class_id,)
    if lead == 2:
        try:
            head = (class_id, to_float(parts[1]))
        except ValueError:
            raise ParseError(f"non-numeric confidence {parts[1]!r}", path, lineno)
    box = parts[lead:]
    try:
        cx, cy, w, h = map(to_float, box)
    except ValueError:
        raise ParseError(f"non-numeric normalized field in {box}", path, lineno)
    try:
        check_normalized(cx, cy, w, h)
    except ValueError as exc:
        raise ParseError(str(exc), path, lineno)
    if lead == 2 and not 0.0 <= head[1] <= 1.0:
        raise ParseError(f"confidence {head[1]} outside [0, 1]", path, lineno)
    return head + denormalize(cx, cy, w, h, dims)


def parse_box_rows(
    text: str, lead: int, dims: ImageDims, num_classes: int | None = None, path: str | None = None
) -> list[tuple]:
    """Rows of a detection (``lead`` 2), label (``lead`` 1) or ignore-region
    (``lead`` 0) file, in file order: the ``lead`` values (class id, then a
    detection's confidence), then the corners ``denormalize`` computes.

    A line that fails the fast path below goes through ``_box_row``, which names
    its first fault, or returns its row (a plain line in a file with a line that
    is not plain).
    """
    width = dims.width
    height = dims.height
    class_limit = float("inf") if num_classes is None else num_classes
    plain = _plain(text)
    class_id = 0  # what the checks below see for a lead the lines do not carry
    confidence = 0.0
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if lead == 2:
                token, confidence, cx, cy, w, h = parts
                class_id = int(token)
                confidence = float(confidence)
            elif lead:
                token, cx, cy, w, h = parts
                class_id = int(token)
            else:
                cx, cy, w, h = parts
            cx = float(cx)
            cy = float(cy)
            w = float(w)
            h = float(h)
            valid = (
                plain
                and 0 <= class_id < class_limit
                and 0.0 <= confidence <= 1.0
                and 0.0 <= cx <= 1.0
                and 0.0 <= cy <= 1.0
                and 0.0 <= w <= 1.0
                and 0.0 <= h <= 1.0
            )
        except ValueError:
            valid = False
        if not valid:
            rows.append(_box_row(line, lead, dims, num_classes, path, lineno))
            continue
        # denormalize's arithmetic, without a call per line
        half_w = w * width / 2.0
        half_h = h * height / 2.0
        cx = cx * width
        cy = cy * height
        if lead == 2:
            rows.append((class_id, confidence, cx - half_w, cy - half_h, cx + half_w, cy + half_h))
        elif lead:
            rows.append((class_id, cx - half_w, cy - half_h, cx + half_w, cy + half_h))
        else:
            rows.append((cx - half_w, cy - half_h, cx + half_w, cy + half_h))
    return rows


def parse_label_file(
    text: str, class_map: ClassMap, dims: ImageDims, path: str | None = None
) -> list[tuple]:
    """Rows ``(class_id, x_min, y_min, x_max, y_max)`` of the kept lines of a label-layout
    source, remapped through ``class_map``, in file order; ignore regions under
    ``IGNORE_CLASS_ID``.

    Every line is read by ``parse_box_rows`` before any is remapped, so a
    malformed line is named before an unmapped class id on an earlier line.
    """
    targets = class_map.targets
    rows = []
    for index, (class_id, *corners) in enumerate(parse_box_rows(text, 1, dims, None, path)):
        try:
            target = targets[class_id]
        except KeyError:  # name the line: the index-th that is not blank
            lineno = [n for n, line in enumerate(text.splitlines(), start=1) if line.split()][index]
            raise ParseError(f"unmapped class id {class_id}", path, lineno)
        if target is not None:
            rows.append((target, *corners))
    return rows


def parse_detection_rows(
    text: str, dims: ImageDims, num_classes: int | None = None, path: str | None = None
) -> list[tuple[int, float, float, float, float, float]]:
    """Parse a per-image detection file (``class confidence cx cy w h`` lines).

    Returns one ``(class_id, confidence, x_min, y_min, x_max, y_max)`` row
    per line, in file order, with the corners ``denormalize`` computes.
    """
    return parse_box_rows(text, 2, dims, num_classes, path)
