"""Dataset evaluation: per-class and pooled metric reports.

Produces one row per class (precision/recall/F1 at the confidence
threshold, AP at the IoU threshold, image and instance counts) plus an
"all" row whose point metrics pool TP/FP/FN across classes and whose AP
column is the mean of the defined per-class APs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .annotations import DetectionRecord, GroundTruthRecord, parse_detections
from .dataset import DatasetManifest, load_ground_truth
from .errors import VruEvalError
from .metrics import (
    ConfusionCounts,
    average_precision,
    f1,
    mean_ap,
    pr_curve,
    precision,
    recall,
)

__all__ = ["ClassEval", "EvalReport", "evaluate", "evaluate_records"]

DEFAULT_IOU_THRESH = 0.5
DEFAULT_CONF_THRESH = 0.2


@dataclass(frozen=True)
class ClassEval:
    """One report row; the pooled row uses class_id None and ap as mean AP."""

    class_id: int | None
    name: str
    images: int
    instances: int
    precision: float
    recall: float
    f1: float
    ap: float | None


@dataclass(frozen=True)
class EvalReport:
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


def evaluate_records(
    gts: list[GroundTruthRecord],
    dets: list[DetectionRecord],
    class_names: tuple[str, ...],
    total_images: int,
    iou_thresh: float = DEFAULT_IOU_THRESH,
    conf_thresh: float = DEFAULT_CONF_THRESH,
) -> EvalReport:
    """Evaluate already-loaded records (the core of ``evaluate``)."""
    aps: dict[int, float | None] = {}
    counts = []
    class_rows = []
    for class_id, name in enumerate(class_names):
        curve = pr_curve(gts, dets, class_id, iou_thresh)
        aps[class_id] = average_precision(curve)
        c = curve.counts_at(conf_thresh)
        counts.append(c)
        p = precision(c)
        r = recall(c)
        class_rows.append(
            ClassEval(
                class_id=class_id,
                name=name,
                images=curve.n_images,
                instances=c.tp + c.fn,
                precision=p,
                recall=r,
                f1=f1(p, r),
                ap=aps[class_id],
            )
        )
    map50, excluded = mean_ap(aps)
    warnings = tuple(
        f"class {class_names[c]!r} has no ground-truth instances; excluded from mAP"
        for c in excluded
    )
    pooled = sum(counts, ConfusionCounts(0, 0, 0))
    pooled_p = precision(pooled)
    pooled_r = recall(pooled)
    all_row = ClassEval(
        class_id=None,
        name="all",
        images=total_images,
        instances=pooled.tp + pooled.fn,
        precision=pooled_p,
        recall=pooled_r,
        f1=f1(pooled_p, pooled_r),
        ap=map50,
    )
    return EvalReport(
        classes=tuple(class_rows),
        all_row=all_row,
        iou_thresh=iou_thresh,
        conf_thresh=conf_thresh,
        warnings=warnings,
    )


def evaluate(
    manifest: DatasetManifest,
    detections_dir: str | Path,
    iou_thresh: float = DEFAULT_IOU_THRESH,
    conf_thresh: float = DEFAULT_CONF_THRESH,
) -> EvalReport:
    """Evaluate a detection directory against a converted dataset.

    Every manifest image must have a detection file ``<image_id>.txt``
    (possibly empty) under ``detections_dir``.
    """
    detections_dir = Path(detections_dir)
    missing = [
        img.image_id
        for img in manifest.images
        if not (detections_dir / f"{img.image_id}.txt").is_file()
    ]
    if missing:
        raise VruEvalError(
            "missing detection files for image ids: " + ", ".join(sorted(missing))
        )
    gts: list[GroundTruthRecord] = []
    dets: list[DetectionRecord] = []
    for img in manifest.images:
        gts.extend(load_ground_truth(manifest, img))
        det_path = detections_dir / f"{img.image_id}.txt"
        dets.extend(
            parse_detections(
                det_path.read_text(encoding="utf-8"),
                img.dims,
                len(manifest.class_names),
                img.image_id,
                str(det_path),
            )
        )
    return evaluate_records(
        gts, dets, manifest.class_names, len(manifest.images), iou_thresh, conf_thresh
    )
