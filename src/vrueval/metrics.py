"""Precision, recall, F1, PR curves, and (mean) average precision.

Both reporting regimes read one ranked sweep per class. PR curves and AP
consume every detection; point metrics (precision/recall/F1) count the
sweep's detections at or above a confidence cut. Greedy matching is online
in rank order, so that equals matching the cut detections alone. AP uses
all-point interpolation: the area under the running-maximum precision
envelope, accumulated over distinct recall steps.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import neg

from .annotations import DetectionRecord, GroundTruthRecord
from .errors import VruEvalError
from .matching import GreedyMatcher

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
    """Cumulative (recall, precision) points along the ranked sweep.

    ``confidences`` holds each point's detection confidence, so it is
    non-increasing; ``n_images`` counts the images with a scorable ground
    truth of the class.
    """

    class_id: int
    points: tuple[tuple[float, float], ...]
    n_positives: int
    confidences: tuple[float, ...]
    n_images: int

    def counts_at(self, conf_thresh: float) -> ConfusionCounts:
        """TP/FP/FN of the sweep's detections with confidence >= conf_thresh."""
        # confidences descend; bisect needs an ascending key
        scored = bisect_right(self.confidences, -conf_thresh, key=neg)
        # precision * scored is within an ulp of the integer TP count
        tp = round(self.points[scored - 1][1] * scored) if scored else 0
        return ConfusionCounts(tp, scored - tp, self.n_positives - tp)


def pr_curve(
    gts: list[GroundTruthRecord],
    dets: list[DetectionRecord],
    class_id: int,
    iou_thresh: float,
) -> PRCurve:
    """Sweep the dataset-wide confidence ranking for one class.

    Detections are ranked across all images (ties keep input order); each
    contributes one cumulative point unless it is suppressed by an ignore
    region. Ignore records are class-agnostic.
    """
    gts_by_image = defaultdict(list)
    for gt in gts:
        if gt.ignore or gt.class_id == class_id:
            gts_by_image[gt.image_id].append(gt)
    matchers = {
        image_id: GreedyMatcher(image_gts, iou_thresh)
        for image_id, image_gts in gts_by_image.items()
    }
    n_positives = sum(len(m.scorable) for m in matchers.values())
    n_images = sum(1 for m in matchers.values() if m.scorable)
    ranked = sorted((d for d in dets if d.class_id == class_id), key=lambda d: -d.confidence)
    points = []
    confidences = []
    tp = fp = 0
    for det in ranked:
        matcher = matchers.get(det.image_id)
        if matcher is None:
            matcher = matchers[det.image_id] = GreedyMatcher([], iou_thresh)
        outcome = matcher.feed(det)
        if outcome.suppressed:
            continue
        if outcome.is_tp:
            tp += 1
        else:
            fp += 1
        r = tp / n_positives if n_positives else 0.0
        p = tp / (tp + fp)
        points.append((r, p))
        confidences.append(det.confidence)
    return PRCurve(class_id, tuple(points), n_positives, tuple(confidences), n_images)


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
    maximum precision at recall >= r_i.
    """
    if curve.n_positives == 0:
        return None
    if not curve.points:
        return 0.0
    envelope = [0.0] * len(curve.points)
    running = 0.0
    for i in range(len(curve.points) - 1, -1, -1):
        running = max(running, curve.points[i][1])
        envelope[i] = running
    ap = 0.0
    prev_recall = 0.0
    for (r, _), env in zip(curve.points, envelope):
        if r > prev_recall:
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
