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

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import yaml

from .annotations import (
    IGNORE_CLASS_ID,
    ClassMap,
    GroundTruthRecord,
    parse_visdrone_file,
    parse_yolo_labels,
    parse_ignore_regions,
)
from .errors import ConversionError, ParseError, SchemaError
from .geometry import ImageDims, to_normalized

__all__ = [
    "ManifestImage",
    "DatasetManifest",
    "DatasetStats",
    "ClassStats",
    "read_dimension_index",
    "convert_dataset",
    "dataset_stats",
    "load_manifest",
]

DIMENSION_INDEX = "dimensions.txt"
DESCRIPTOR = "dataset.yaml"
MANIFEST = "manifest.json"


@dataclass(frozen=True)
class ManifestImage:
    image_id: str
    dims: ImageDims
    label_path: str  # relative to the manifest's directory


@dataclass(frozen=True)
class DatasetManifest:
    split: str
    class_names: tuple[str, ...]
    images: tuple[ManifestImage, ...]
    root: Path  # directory the label paths are relative to

    def __post_init__(self):
        ids = [img.image_id for img in self.images]
        if len(ids) != len(set(ids)):
            raise SchemaError(f"duplicate image ids in split {self.split!r}")

    def label_file(self, image: ManifestImage) -> Path:
        return self.root / image.label_path

    def ignore_file(self, image: ManifestImage) -> Path:
        return self.label_file(image).with_suffix(".ignore")

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


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid manifest JSON: {exc}") from exc
    try:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: invalid manifest: {exc}") from exc


@dataclass(frozen=True)
class ClassStats:
    images: int
    instances: int


@dataclass(frozen=True)
class DatasetStats:
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
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"expected 'image_id width height', got {line!r}", str(path), lineno)
        image_id, w, h = parts
        try:
            entry = ImageDims(int(w), int(h))
        except ValueError as exc:
            raise ParseError(str(exc), str(path), lineno)
        if image_id in dims:
            raise ParseError(f"duplicate dimension entry for {image_id!r}", str(path), lineno)
        dims[image_id] = entry
    return dims


def _format_norm(value: float) -> str:
    return f"{value:.6f}"


def _label_lines(records: list[GroundTruthRecord], dims: ImageDims) -> tuple[str, str]:
    """Render kept records to (label text, ignore sidecar text)."""
    label_lines = []
    ignore_lines = []
    for rec in records:
        norm = to_normalized(rec.box, dims)
        coords = " ".join(_format_norm(v) for v in (norm.cx, norm.cy, norm.w, norm.h))
        if rec.ignore:
            ignore_lines.append(coords + "\n")
        else:
            label_lines.append(f"{rec.class_id} {coords}\n")
    return "".join(label_lines), "".join(ignore_lines)


def _detect_source_format(src: Path) -> str:
    if (src / "annotations").is_dir():
        return "visdrone"
    if (src / "labels").is_dir():
        return "yolo"
    raise ConversionError(f"{src}: no annotations/ or labels/ directory found")


def _list_image_ids(src: Path, source_format: str, split: str) -> tuple[list[str], Path | None]:
    """Image ids (sorted) plus the label directory for yolo-format sources."""
    if source_format == "visdrone":
        images_dir = src / "images"
        if not images_dir.is_dir():
            raise ConversionError(f"{src}: missing images/ directory")
        return sorted(p.stem for p in images_dir.iterdir() if p.is_file()), None
    label_dir = src / "labels" / split
    if not label_dir.is_dir():
        label_dir = src / "labels"
    return sorted(p.stem for p in label_dir.glob("*.txt")), label_dir


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

    Per-image work may run in ``workers`` threads; the descriptor, dimension
    index, and manifest are written once afterwards, so output bytes do not
    depend on scheduling. ``warn`` receives human-readable warning strings
    (missing annotation files become warnings plus empty label files).
    """
    src = Path(src)
    out = Path(out)
    if source_format == "auto":
        source_format = _detect_source_format(src)
    if source_format not in ("visdrone", "yolo"):
        raise ConversionError(f"unknown source format {source_format!r}")
    dim_index = read_dimension_index(src / DIMENSION_INDEX)
    image_ids, src_label_dir = _list_image_ids(src, source_format, split)

    label_dir = out / "labels" / split
    label_dir.mkdir(parents=True, exist_ok=True)

    def convert_one(image_id: str) -> tuple[str, ImageDims, str | None]:
        warning = None
        if image_id not in dim_index:
            raise ConversionError(f"no dimension entry for image {image_id!r}")
        dims = dim_index[image_id]
        if source_format == "visdrone":
            ann_path = src / "annotations" / f"{image_id}.txt"
            if not ann_path.is_file():
                warning = f"missing annotation for {image_id!r}; writing empty label file"
                records = []
            else:
                records = parse_visdrone_file(
                    ann_path.read_text(encoding="utf-8"), class_map, image_id, str(ann_path)
                )
        else:
            lbl_path = src_label_dir / f"{image_id}.txt"
            raw = parse_yolo_labels(
                lbl_path.read_text(encoding="utf-8"), dims, None, image_id, str(lbl_path)
            )
            records = []
            for rec in raw:
                if rec.class_id in class_map.drop:
                    continue
                if rec.class_id in class_map.ignore:
                    records.append(
                        GroundTruthRecord(image_id, IGNORE_CLASS_ID, rec.box, ignore=True)
                    )
                    continue
                if rec.class_id not in class_map.mapping:
                    raise ParseError(
                        f"unmapped class id {rec.class_id}", str(lbl_path), None
                    )
                records.append(
                    GroundTruthRecord(image_id, class_map.mapping[rec.class_id], rec.box)
                )
        label_text, ignore_text = _label_lines(records, dims)
        (label_dir / f"{image_id}.txt").write_text(label_text, encoding="utf-8", newline="\n")
        ignore_path = label_dir / f"{image_id}.ignore"
        if source_format == "yolo":
            # carry existing sidecars through verbatim so re-conversion is a no-op
            src_ignore = src_label_dir / f"{image_id}.ignore"
            if src_ignore.is_file():
                carried = src_ignore.read_bytes().decode("utf-8")
                if carried and ignore_text and not carried.endswith("\n"):
                    carried += "\n"
                ignore_text = carried + ignore_text
        if ignore_text:
            ignore_path.write_text(ignore_text, encoding="utf-8", newline="\n")
        elif ignore_path.exists():
            ignore_path.unlink()
        return image_id, dims, warning

    if workers > 1 and len(image_ids) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(convert_one, image_ids))
    else:
        results = [convert_one(image_id) for image_id in image_ids]
    # warnings surface after the parallel phase, in image order
    if warn is not None:
        for _, _, warning in results:
            if warning is not None:
                warn(warning)
    converted = [(image_id, dims) for image_id, dims, _ in results]

    # single-writer phase: index, descriptor, manifest
    dim_lines = "".join(
        f"{image_id} {dims.width} {dims.height}\n" for image_id, dims in converted
    )
    (out / DIMENSION_INDEX).write_text(dim_lines, encoding="utf-8", newline="\n")
    descriptor = {"names": list(class_map.names)}
    for name in ("train", "val", "test"):
        descriptor[name] = f"labels/{split}" if name == split else ""
    if split not in ("train", "val", "test"):
        descriptor[split] = f"labels/{split}"
    (out / DESCRIPTOR).write_text(
        yaml.safe_dump(descriptor, sort_keys=False), encoding="utf-8", newline="\n"
    )
    manifest = DatasetManifest(
        split=split,
        class_names=class_map.names,
        images=tuple(
            ManifestImage(image_id, dims, f"labels/{split}/{image_id}.txt")
            for image_id, dims in converted
        ),
        root=out,
    )
    manifest.save(out / MANIFEST)
    return manifest


def load_ground_truth(manifest: DatasetManifest, image: ManifestImage) -> list[GroundTruthRecord]:
    """Labels plus ignore-sidecar records for one manifest image."""
    label_path = manifest.label_file(image)
    if not label_path.is_file():
        raise ParseError("label file not found", str(label_path))
    records = parse_yolo_labels(
        label_path.read_text(encoding="utf-8"),
        image.dims,
        len(manifest.class_names),
        image.image_id,
        str(label_path),
    )
    ignore_path = manifest.ignore_file(image)
    if ignore_path.is_file():
        records.extend(
            parse_ignore_regions(
                ignore_path.read_text(encoding="utf-8"),
                image.dims,
                image.image_id,
                str(ignore_path),
            )
        )
    return records


def dataset_stats(manifest: DatasetManifest) -> DatasetStats:
    """Per-class image/instance counts; ignore records are not counted."""
    k = len(manifest.class_names)
    instances = [0] * k
    image_sets = [set() for _ in range(k)]
    for image in manifest.images:
        for rec in load_ground_truth(manifest, image):
            if rec.ignore:
                continue
            instances[rec.class_id] += 1
            image_sets[rec.class_id].add(image.image_id)
    return DatasetStats(
        split=manifest.split,
        class_names=manifest.class_names,
        per_class=tuple(
            ClassStats(images=len(image_sets[i]), instances=instances[i]) for i in range(k)
        ),
        total_images=len(manifest.images),
    )
