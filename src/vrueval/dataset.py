"""Dataset conversion, manifests, and statistics.

A convertible source root holds either source annotations
(``annotations/*.txt``) or already-converted label files (``labels/*.txt``,
optionally under a split subdirectory), plus a required dimension index
``dimensions.txt`` with one ``image_id width height`` line per image.
Image pixels are never decoded.

Converted output layout::

    out/
      dataset.yaml            # class names + split label paths
      dimensions.txt          # re-emitted, sorted by image id
      manifest.json           # split bookkeeping consumed by eval/stats
      labels/<split>/*.txt    # one label file per image
      labels/<split>/*.ignore # sidecar, only for images with ignore regions

Label files store normalized values with 6 decimal digits; conversion is
deterministic, so re-running it (or re-converting its own output with the
identity map) reproduces identical bytes.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .annotations import (
    IGNORE_CLASS_ID,
    ClassMap,
    parse_box_rows,
    parse_label_file,
    parse_visdrone_file,
    plain_number,
)
from .errors import CheckedRecord, ConversionError, ParseError, SchemaError, read_input
from .geometry import ImageDims, normalize

__all__ = [
    "ManifestImage",
    "DatasetManifest",
    "DatasetStats",
    "ClassStats",
    "read_dimension_index",
    "convert_dataset",
    "dataset_stats",
    "ground_truth_rows",
    "load_manifest",
]

DIMENSION_INDEX = "dimensions.txt"
DESCRIPTOR = "dataset.yaml"
MANIFEST = "manifest.json"


class _ManifestImage(NamedTuple):
    image_id: str
    dims: ImageDims
    label_path: str  # a file under the manifest's directory, relative to it


def _openable(text: str) -> bool:
    """Whether ``open()`` takes ``text`` as a path: it holds no NUL and encodes as a
    file name (``os.fsencode``, so surrogate-escaped bytes stay valid)."""
    if "\0" in text:
        return False
    try:
        os.fsencode(text)
    except UnicodeEncodeError:
        return False
    return True


class ManifestImage(CheckedRecord, _ManifestImage):
    __slots__ = ()

    def __new__(cls, image_id: str, dims: ImageDims, label_path: str):
        if not isinstance(image_id, str):  # 7 and "7" would read one label file
            raise TypeError(f"image_id must be a string, got {image_id!r}")
        if "/" in image_id:  # eval lists only the top level of the detection directory
            raise ValueError(f"image_id {image_id!r} must not contain '/'")
        if not isinstance(label_path, str):
            raise TypeError(f"image {image_id!r}: label_path must be a string, got {label_path!r}")
        for what, text in (("image_id", image_id), ("label_path", label_path)):
            if not _openable(text):
                raise ValueError(
                    f"image {image_id!r}: {what} {text!r} cannot name a file "
                    "(it holds NUL, or a character the file system cannot encode)"
                )
        parts = label_path.split("/")
        if label_path.startswith("/") or ".." in parts:
            raise ValueError(
                f"image {image_id!r}: label_path {label_path!r} "
                "must be relative and stay under the manifest directory"
            )
        if parts[-1] in ("", "."):
            raise ValueError(f"image {image_id!r}: label_path {label_path!r} names a directory")
        return super().__new__(cls, image_id, dims, label_path)


class _DatasetManifest(NamedTuple):
    split: str
    class_names: tuple[str, ...]
    images: tuple[ManifestImage, ...]
    root: Path  # directory the label paths are relative to


class DatasetManifest(CheckedRecord, _DatasetManifest):
    __slots__ = ()

    def __new__(
        cls, split: str, class_names: tuple[str, ...], images: tuple[ManifestImage, ...], root: Path
    ):
        if not isinstance(split, str):
            raise SchemaError(f"split must be a string, got {split!r}")
        if len(class_names) != len(set(class_names)):
            raise SchemaError(f"duplicate class names: {class_names}")
        for name in class_names:
            cls._one_line("class name", name)
        seen = set()
        for image in images:
            if image.image_id in seen:
                raise SchemaError(
                    f"duplicate image ids in split {split!r}: {image.image_id!r} repeats"
                )
            seen.add(image.image_id)
        return super().__new__(cls, split, class_names, images, root)

    def label_file(self, image: ManifestImage) -> Path:
        return self.root / image.label_path

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "class_names": list(self.class_names),
            "images": [
                {
                    "image_id": img.image_id,
                    "width": img.dims.width,
                    "height": img.dims.height,
                    "label_path": img.label_path,
                }
                for img in self.images
            ],
        }

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key written twice is an error."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for i, k in enumerate(keys) if k in keys[:i])!r} repeats")
    return doc


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    try:
        doc = json.loads(read_input(path), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad JSON, a repeat, huge int, deep nesting
        raise SchemaError(f"{path}: invalid manifest JSON: {exc}") from exc
    try:
        names = doc["class_names"]
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise TypeError(f"class_names must be a list of strings, got {names!r}")
        images = tuple(
            ManifestImage(
                image_id=entry["image_id"],
                dims=ImageDims(entry["width"], entry["height"]),
                label_path=entry["label_path"],
            )
            for entry in doc["images"]
        )
        return DatasetManifest(
            split=doc["split"],
            class_names=tuple(doc["class_names"]),
            images=images,
            root=path.parent,
        )
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"{path}: invalid manifest: {exc}") from exc


class ClassStats(NamedTuple):
    images: int
    instances: int


class DatasetStats(NamedTuple):
    split: str
    class_names: tuple[str, ...]
    per_class: tuple[ClassStats, ...]
    total_images: int

    @property
    def total_instances(self) -> int:
        return sum(c.instances for c in self.per_class)

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "classes": [
                {"name": name, "images": cs.images, "instances": cs.instances}
                for name, cs in zip(self.class_names, self.per_class)
            ],
            "all": {"images": self.total_images, "instances": self.total_instances},
        }

    def to_tables(self) -> list[tuple[list[str], list[list[str]]]]:
        rows = [
            [name, str(cs.images), str(cs.instances)]
            for name, cs in zip(self.class_names, self.per_class)
        ]
        rows.append(["all", str(self.total_images), str(self.total_instances)])
        return [(["Class", "Images", "Instances"], rows)]


def read_dimension_index(path: Path) -> dict[str, ImageDims]:
    """Parse ``image_id width height`` lines into a lookup table."""
    if not path.is_file():
        raise ConversionError(f"dimension index not found: {path}")
    dims = {}
    for lineno, line in enumerate(read_input(path).splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"expected 'image_id width height', got {line!r}", str(path), lineno)
        # str.split also splits at non-ASCII whitespace, which separates no fields here
        space = next((char for char in line if char.isspace() and not char.isascii()), None)
        if space:
            raise ParseError(f"non-ASCII whitespace {space!r} in the line", str(path), lineno)
        image_id, w, h = parts
        try:
            entry = ImageDims(plain_number(int, w), plain_number(int, h))
        except ValueError as exc:
            raise ParseError(str(exc), str(path), lineno)
        if image_id in dims:
            raise ParseError(f"duplicate dimension entry for {image_id!r}", str(path), lineno)
        dims[image_id] = entry
    return dims


def _label_lines(rows: list[tuple], regions: list[tuple], dims: ImageDims) -> tuple[str, str]:
    """(label text, ignore sidecar text) of ``(class_id, x_min, y_min, x_max, y_max)``
    rows; the sidecar holds the corner ``regions``, then the rows under ``IGNORE_CLASS_ID``."""
    label_lines = []
    ignore_lines = ["%.6f %.6f %.6f %.6f\n" % normalize(*corners, dims) for corners in regions]
    for class_id, x_min, y_min, x_max, y_max in rows:
        coords = "%.6f %.6f %.6f %.6f\n" % normalize(x_min, y_min, x_max, y_max, dims)
        if class_id == IGNORE_CLASS_ID:
            ignore_lines.append(coords)
        else:
            label_lines.append(f"{class_id} {coords}")
    return "".join(label_lines), "".join(ignore_lines)


# what a YAML 1.1 plain scalar reads as a bool or null, in any case
_YAML_WORDS = frozenset(("yes", "no", "on", "off", "true", "false", "null"))


def _descriptor_yaml(descriptor: dict) -> str:
    """``yaml.safe_dump(descriptor, sort_keys=False)``, without PyYAML for plain words.

    A plain word is ASCII, starts with a letter, holds only letters, digits and
    ``_./-``, is shorter than 128 characters (the longest simple key) and is not
    in ``_YAML_WORDS``: ``safe_dump`` writes it as it is, and ``''`` for an empty
    value. Keys must be plain words and values plain words, empty, or non-empty
    lists of those; any other descriptor goes to ``safe_dump``.
    """
    import re

    def plain(text) -> bool:
        return (
            isinstance(text, str)
            and re.fullmatch(r"[A-Za-z][\w./-]{0,126}", text, re.ASCII) is not None
            and text.lower() not in _YAML_WORDS
        )

    lines = []
    for key, value in descriptor.items():
        items = value if isinstance(value, list) else [value]
        if not (plain(key) and items and all(item == "" or plain(item) for item in items)):
            import yaml

            return yaml.safe_dump(descriptor, sort_keys=False)
        texts = [item or "''" for item in items]
        if isinstance(value, list):
            lines += [f"{key}:", *(f"- {text}" for text in texts)]
        else:
            lines.append(f"{key}: {texts[0]}")
    return "".join(line + "\n" for line in lines)


def _detect_source_format(src: Path) -> str:
    if (src / "annotations").is_dir():
        return "visdrone"
    if (src / "labels").is_dir():
        return "yolo"
    raise ConversionError(f"{src}: no annotations/ or labels/ directory found")


def _list_sources(src: Path, source_format: str, split: str) -> tuple[dict[str, Path], Path]:
    """Each image id's source file, in id order, plus the directory of their
    ``<image_id>.txt`` annotations. The source file is ``images/<name>`` in the
    visdrone layout and the label file in the label layout."""
    if source_format == "visdrone":
        images_dir = src / "images"
        if not images_dir.is_dir():
            raise ConversionError(f"{src}: missing images/ directory")
        files: dict[str, Path] = {}
        for path in images_dir.iterdir():
            if path.is_file() and files.setdefault(path.stem, path) is not path:
                first, second = sorted((files[path.stem].name, path.name))
                raise ConversionError(
                    f"{images_dir}: {first} and {second} share the image id {path.stem!r}"
                )
        return dict(sorted(files.items())), src / "annotations"
    label_dir = src / "labels" / split
    if not label_dir.is_dir():
        label_dir = src / "labels"
    return dict(sorted((p.stem, p) for p in label_dir.glob("*.txt"))), label_dir


def convert_dataset(
    src: str | Path,
    class_map: ClassMap,
    out: str | Path,
    split: str = "train",
    source_format: str = "auto",
    workers: int = 1,
    warn=None,
) -> DatasetManifest:
    """Convert a dataset root to label-file layout and write its manifest.

    Runs in two phases: every image is read, remapped and rendered first,
    and only then are the label files, sidecars, dimension index,
    descriptor and manifest written, so a convert that raises writes
    nothing. ``warn`` receives human-readable warning strings (missing
    annotation files become warnings plus empty label files); those of
    the read phase are held until it has succeeded, so a convert that
    raises emits none. ``workers`` is deprecated and has no effect.
    """
    src = Path(src)
    out = Path(out)
    if warn is None:
        warn = lambda message: None
    if workers != 1:
        warn("workers is deprecated and has no effect; conversion runs in one thread")
    if split in ("", ".", "..") or Path(split).name != split:
        raise ConversionError(f"split must be a single path component, got {split!r}")
    if split == "names":  # dataset.yaml keeps the class names under that key
        raise ConversionError("split 'names' would overwrite the class names in dataset.yaml")
    if src.is_dir() and not any(src.iterdir()):
        raise ConversionError("no images found")
    if source_format == "auto":
        source_format = _detect_source_format(src)
    if source_format not in ("visdrone", "yolo"):
        raise ConversionError(f"unknown source format {source_format!r}")
    dim_index = read_dimension_index(src / DIMENSION_INDEX)
    sources, ann_dir = _list_sources(src, source_format, split)
    if not sources:
        raise ConversionError("no images found")

    # phase 1: read, remap and render every image; nothing is written yet
    rendered = []
    held = []  # warnings of phase 1, emitted once it has succeeded
    if source_format == "yolo":
        orphans = sorted(p.name for p in ann_dir.glob("*.ignore") if p.stem not in sources)
        if orphans:
            held.append(
                f"{len(orphans)} ignore sidecars in {ann_dir} have no label file "
                f"(first: {orphans[0]}); not converted"
            )
    for image_id, source in sources.items():
        if image_id not in dim_index:
            raise ConversionError(
                f"{source}: no dimension entry for image {image_id!r} in {src / DIMENSION_INDEX}"
            )
        dims = dim_index[image_id]
        ann_path = ann_dir / f"{image_id}.txt"
        rows, regions = [], []
        if source_format == "yolo":
            rows = parse_label_file(read_input(ann_path), class_map, dims, str(ann_path))
            regions = _sidecar_regions(str(ann_path.with_suffix(".ignore")), dims)
        elif ann_path.is_file():
            rows = parse_visdrone_file(read_input(ann_path), class_map, str(ann_path))
        else:
            held.append(f"missing annotation for {image_id!r}; writing empty label file")
        try:
            label_text, ignore_text = _label_lines(rows, regions, dims)
        except ConversionError as exc:
            raise ConversionError(f"{ann_path}: {exc}") from None
        rendered.append((image_id, dims, label_text, ignore_text))
    manifest = DatasetManifest(
        split=split,
        class_names=class_map.names,
        images=tuple(
            ManifestImage(image_id, dims, f"labels/{split}/{image_id}.txt")
            for image_id, dims, _, _ in rendered
        ),
        root=out,
    )
    for message in held:
        warn(message)

    # phase 2: label files and sidecars, then index, descriptor, manifest
    label_dir = out / "labels" / split
    label_dir.mkdir(parents=True, exist_ok=True)
    for image_id, _, label_text, ignore_text in rendered:
        (label_dir / f"{image_id}.txt").write_text(label_text, encoding="utf-8", newline="\n")
        ignore_path = label_dir / f"{image_id}.ignore"
        if ignore_text:
            ignore_path.write_text(ignore_text, encoding="utf-8", newline="\n")
        elif ignore_path.exists():
            ignore_path.unlink()
    dim_lines = "".join(
        f"{image_id} {dims.width} {dims.height}\n" for image_id, dims, _, _ in rendered
    )
    (out / DIMENSION_INDEX).write_text(dim_lines, encoding="utf-8", newline="\n")
    descriptor = {"names": list(class_map.names), "train": "", "val": "", "test": ""}
    descriptor[split] = f"labels/{split}"
    (out / DESCRIPTOR).write_text(_descriptor_yaml(descriptor), encoding="utf-8", newline="\n")
    manifest.save(out / MANIFEST)
    stale = sorted(
        path.name
        for path in label_dir.iterdir()
        if path.suffix in (".txt", ".ignore") and path.stem not in sources
    )
    if stale:
        warn(
            f"{len(stale)} label files in {label_dir} belong to no converted image "
            f"(first: {stale[0]}); left in place"
        )
    return manifest


# what open() raises for a path that is missing, a directory, or under a file
_NO_FILE = (FileNotFoundError, IsADirectoryError, NotADirectoryError)


def _sidecar_regions(path: str, dims: ImageDims) -> list[tuple]:
    """Corner rows of an ignore-region sidecar; none when it is absent."""
    try:
        text = read_input(path)
    except _NO_FILE:
        return []
    return parse_box_rows(text, 0, dims, None, path)


@functools.lru_cache(maxsize=16)
def _dir_prefix(directory: Path, sub: str) -> str:
    """``str(directory / sub)`` ready to take a file name: ``""`` for ``.``, else
    ending in ``/``. A manifest's images share a few directories, so each is
    normalized by ``Path`` once."""
    path = str(directory / sub)
    return "" if path == "." else path if path.endswith("/") else path + "/"


def _label_and_sidecar(manifest: DatasetManifest, image: ManifestImage) -> tuple[str, str]:
    """An image's label path under the manifest's directory, and its sidecar's: the file
    name's suffix (as ``PurePath.suffix`` finds it) replaced by ``.ignore``."""
    sub, _, name = image.label_path.rpartition("/")
    prefix = _dir_prefix(manifest.root, sub)
    i = name.rfind(".")
    stem = name[:i] if 0 < i < len(name) - 1 else name
    return prefix + name, prefix + stem + ".ignore"


def ground_truth_rows(manifest: DatasetManifest, image: ManifestImage) -> tuple[list, list]:
    """``(labels, regions)`` of one manifest image: its ``(class_id, x_min, y_min,
    x_max, y_max)`` label rows and its ignore-sidecar corner rows, in file order."""
    label_path, sidecar_path = _label_and_sidecar(manifest, image)
    try:
        text = read_input(label_path)
    except _NO_FILE:
        raise ParseError("label file not found", label_path) from None
    labels = parse_box_rows(text, 1, image.dims, len(manifest.class_names), label_path)
    return labels, _sidecar_regions(sidecar_path, image.dims)


def dataset_stats(manifest: DatasetManifest) -> DatasetStats:
    """Per-class image/instance counts; ignore regions are not counted."""
    k = len(manifest.class_names)
    instances = [0] * k
    images = [0] * k
    for image in manifest.images:
        labels, _ = ground_truth_rows(manifest, image)
        for class_id, count in Counter([row[0] for row in labels]).items():
            instances[class_id] += count
            images[class_id] += 1
    return DatasetStats(
        split=manifest.split,
        class_names=manifest.class_names,
        per_class=tuple(map(ClassStats, images, instances)),
        total_images=len(manifest.images),
    )
