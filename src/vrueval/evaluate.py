"""Dataset evaluation: per-class and pooled metric reports.

Produces one row per class (precision/recall/F1 at the confidence
threshold, AP at the IoU threshold, image and instance counts) plus an
"all" row whose point metrics pool TP/FP/FN across classes and whose AP
column is the mean of the defined per-class APs.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .annotations import parse_detection_rows
from .dataset import DatasetManifest, _dir_prefix, ground_truth_rows
from .errors import VruEvalError, read_input
from .metrics import (
    ConfusionCounts,
    average_precision,
    f1,
    mean_ap,
    precision,
    recall,
    sweep_images,
)

__all__ = ["ClassEval", "EvalReport", "evaluate"]

DEFAULT_IOU_THRESH = 0.5
DEFAULT_CONF_THRESH = 0.2


class ClassEval(NamedTuple):
    """One report row; the pooled row uses class_id None and ap as mean AP."""

    class_id: int | None
    name: str
    images: int
    instances: int
    precision: float
    recall: float
    f1: float
    ap: float | None


class EvalReport(NamedTuple):
    classes: tuple[ClassEval, ...]
    all_row: ClassEval
    iou_thresh: float
    conf_thresh: float
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        def row(ce: ClassEval) -> dict:
            return {
                "class_id": ce.class_id,
                "name": ce.name,
                "images": ce.images,
                "instances": ce.instances,
                "precision": round(ce.precision, 6),
                "recall": round(ce.recall, 6),
                "f1": round(ce.f1, 6),
                "ap50": None if ce.ap is None else round(ce.ap, 6),
            }

        return {
            "config": {"iou_thresh": self.iou_thresh, "conf_thresh": self.conf_thresh},
            "classes": [row(ce) for ce in self.classes],
            "all": row(self.all_row),
            "warnings": list(self.warnings),
        }

    def to_tables(self) -> list[tuple[list[str], list[list[str]]]]:
        headers = ["Class", "Images", "Instances", "Precision", "Recall", "F1", "AP50"]
        rows = []
        for ce in (*self.classes, self.all_row):
            rows.append(
                [
                    ce.name,
                    str(ce.images),
                    str(ce.instances),
                    f"{ce.precision:.4f}",
                    f"{ce.recall:.4f}",
                    f"{ce.f1:.4f}",
                    "n/a" if ce.ap is None else f"{ce.ap:.4f}",
                ]
            )
        return [(headers, rows)]


def _row(
    class_id: int | None, name: str, images: int, c: ConfusionCounts, ap: float | None
) -> ClassEval:
    """One report row: precision, recall and F1 of ``c``, its instances TP + FN."""
    p = precision(c)
    r = recall(c)
    return ClassEval(class_id, name, images, c.tp + c.fn, p, r, f1(p, r), ap)


def _listed_files(directory: Path) -> set[str]:
    """Names of the regular files in ``directory``; none when it is absent."""
    try:
        with os.scandir(directory) as entries:
            return {entry.name for entry in entries if entry.is_file()}
    except (FileNotFoundError, NotADirectoryError):
        return set()


def evaluate(
    manifest: DatasetManifest,
    detections_dir: str | Path,
    iou_thresh: float = DEFAULT_IOU_THRESH,
    conf_thresh: float = DEFAULT_CONF_THRESH,
) -> EvalReport:
    """Evaluate a detection directory against a converted dataset.

    Every manifest image must have a detection file ``<image_id>.txt``
    (possibly empty) under ``detections_dir``; other ``*.txt`` files there
    are reported in one warning and not evaluated. Ground truths and
    detections are read as rows, and each image is matched as soon as
    its files are read: across images only each detection's confidence
    and fate are kept, per class.
    """
    detections_dir = Path(detections_dir)
    listed = _listed_files(detections_dir)
    wanted = {f"{img.image_id}.txt" for img in manifest.images}
    missing = [img.image_id for img in manifest.images if f"{img.image_id}.txt" not in listed]
    if missing:
        raise VruEvalError(
            "missing detection files for image ids: " + ", ".join(sorted(missing))
        )
    stray = sorted(name for name in listed - wanted if name.endswith(".txt"))
    k = len(manifest.class_names)
    prefix = _dir_prefix(detections_dir, "")  # each image's path is prefix + "<image_id>.txt"

    def images():
        for img in manifest.images:
            labels, regions = ground_truth_rows(manifest, img)  # read before the detections
            path = prefix + img.image_id + ".txt"
            yield labels, regions, parse_detection_rows(read_input(path), img.dims, k, path)

    curves = sweep_images(images(), k, iou_thresh)
    aps: dict[int, float | None] = {}
    counts = []
    class_rows = []
    for curve, name in zip(curves, manifest.class_names):
        ap = aps[curve.class_id] = average_precision(curve)
        c = curve.counts_at(conf_thresh)
        counts.append(c)
        class_rows.append(_row(curve.class_id, name, curve.n_images, c, ap))
    map50, excluded = mean_ap(aps)
    warnings = [
        f"class {manifest.class_names[c]!r} has no ground-truth instances; excluded from mAP"
        for c in excluded
    ]
    if stray:
        warnings.append(
            f"{len(stray)} detection files in {detections_dir} belong to no manifest image "
            f"(first: {stray[0]}); not evaluated"
        )
    pooled = sum(counts, ConfusionCounts(0, 0, 0))
    return EvalReport(
        classes=tuple(class_rows),
        all_row=_row(None, "all", len(manifest.images), pooled, map50),
        iou_thresh=iou_thresh,
        conf_thresh=conf_thresh,
        warnings=tuple(warnings),
    )
