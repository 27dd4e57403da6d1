"""Precision, recall, F1, PR curves, and (mean) average precision.

Both reporting regimes read the fates of one ranked sweep per class. AP
consumes every fate; point metrics (precision/recall/F1) count the fates
of the detections at or above a confidence cut. Greedy matching is online
in rank order, so that equals matching the cut detections alone. AP uses
all-point interpolation: the area under the running-maximum precision
envelope, accumulated over distinct recall steps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import neg

from .annotations import DetectionRecord, GroundTruthRecord
from .errors import VruEvalError
from .matching import FP, IGNORED, TP, greedy_sweep

__all__ = [
    "ConfusionCounts",
    "PRCurve",
    "precision",
    "recall",
    "f1",
    "confusion_at_threshold",
    "pr_curve",
    "average_precision",
    "mean_ap",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError(f"negative confusion count: {self}")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def precision(counts: ConfusionCounts) -> float:
    """tp / (tp + fp); 0.0 by convention when nothing was predicted."""
    denom = counts.tp + counts.fp
    return counts.tp / denom if denom else 0.0


def recall(counts: ConfusionCounts) -> float:
    """tp / (tp + fn); 0.0 by convention when there are no positives."""
    denom = counts.tp + counts.fn
    return counts.tp / denom if denom else 0.0


def f1(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0.0 when both are 0."""
    return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class PRCurve:
    """Each detection's fate (TP, FP or IGNORED) and confidence, in rank order.

    ``confidences`` is therefore non-increasing; ``n_images`` counts the
    images with a scorable ground truth of the class.
    """

    class_id: int
    fates: tuple[str, ...]
    n_positives: int
    confidences: tuple[float, ...]
    n_images: int

    def counts_at(self, conf_thresh: float) -> ConfusionCounts:
        """TP/FP/FN of the sweep's detections with confidence >= conf_thresh."""
        # confidences descend; bisect needs an ascending key
        head = self.fates[: bisect_right(self.confidences, -conf_thresh, key=neg)]
        tp = head.count(TP)
        return ConfusionCounts(tp, head.count(FP), self.n_positives - tp)


def pr_curve(
    gts: list[GroundTruthRecord],
    dets: list[DetectionRecord],
    class_id: int,
    iou_thresh: float,
) -> PRCurve:
    """Sweep the dataset-wide confidence ranking for one class.

    Detections are ranked across all images (ties keep input order); each
    gets one fate. Ignore records are class-agnostic.
    """
    truths: dict[str, tuple[list, list]] = {}
    for gt in gts:
        if gt.ignore or gt.class_id == class_id:
            b = gt.box
            corners = (b.x_min, b.y_min, b.x_max, b.y_max)
            truths.setdefault(gt.image_id, ([], []))[gt.ignore].append(corners)
    rows = [
        (d.image_id, d.confidence, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)
        for d in dets
        if d.class_id == class_id
    ]
    return PRCurve(class_id, *greedy_sweep(rows, truths, iou_thresh))


def confusion_at_threshold(
    gts: list[GroundTruthRecord],
    dets: list[DetectionRecord],
    num_classes: int,
    iou_thresh: float,
    conf_thresh: float,
) -> dict[int, ConfusionCounts]:
    """Per-class TP/FP/FN of the detections at or above the confidence cut."""
    return {
        class_id: pr_curve(gts, dets, class_id, iou_thresh).counts_at(conf_thresh)
        for class_id in range(num_classes)
    }


def average_precision(curve: PRCurve) -> float | None:
    """All-point interpolated AP; None when the class has no positives.

    AP = sum over distinct recall steps of (r_i - r_{i-1}) times the
    maximum precision at recall >= r_i. Recall steps only at a TP, and
    precision falls at every FP, so its maximum over any suffix of the
    ranking is reached at a TP: the sum runs over the TPs alone.
    """
    if curve.n_positives == 0:
        return None
    scored = [fate for fate in curve.fates if fate != IGNORED]  # an ignored one adds no point
    tp_ranks = [rank for rank, fate in enumerate(scored, start=1) if fate == TP]
    # precision at each TP, then its running maximum from the last TP back
    envelope = [tp / rank for tp, rank in enumerate(tp_ranks, start=1)]
    running = 0.0
    for i in range(len(envelope) - 1, -1, -1):
        running = envelope[i] = max(running, envelope[i])
    ap = 0.0
    prev_recall = 0.0
    for tp, env in enumerate(envelope, start=1):
        r = tp / curve.n_positives
        ap += (r - prev_recall) * env
        prev_recall = r
    return ap


def mean_ap(aps: dict[int, float | None]) -> tuple[float, list[int]]:
    """Mean over classes with a defined AP, plus the excluded class ids.

    Classes without ground-truth instances have no AP and do not count
    toward N; if every class is undefined there is nothing to average.
    """
    defined = {c: ap for c, ap in aps.items() if ap is not None}
    excluded = sorted(c for c, ap in aps.items() if ap is None)
    if not defined:
        raise VruEvalError("no scorable classes")
    return sum(defined.values()) / len(defined), excluded
