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
from collections.abc import Iterable
from operator import itemgetter, neg
from typing import NamedTuple

from .errors import CheckedRecord, ContractError, VruEvalError
from .matching import FP, IGNORED, TP, check_iou_thresh, match_image, rank

__all__ = [
    "ConfusionCounts",
    "PRCurve",
    "precision",
    "recall",
    "f1",
    "sweep_images",
    "average_precision",
    "mean_ap",
]


class _ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    fn: int


class ConfusionCounts(CheckedRecord, _ConfusionCounts):
    __slots__ = ()

    def __new__(cls, tp: int, fp: int, fn: int):
        self = super().__new__(cls, tp, fp, fn)
        if min(tp, fp, fn) < 0:
            raise ValueError(f"negative confusion count: {self}")
        return self

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


class PRCurve(NamedTuple):
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


def sweep_images(images: Iterable, num_classes: int, iou_thresh: float) -> list[PRCurve]:
    """One ``PRCurve`` per class id below ``num_classes``; each image is matched as it comes.

    ``images`` yields ``(truths, regions, detections)`` per image: ground-truth
    rows ``(class_id, x_min, y_min, x_max, y_max)``, ignore regions ``(x_min,
    y_min, x_max, y_max)``, and detection rows ``(class_id, confidence, x_min,
    y_min, x_max, y_max)``. Across images only each detection's confidence and
    fate are kept. Tied confidences rank in feed order, image after image. A
    class id outside ``[0, num_classes)`` raises ``ContractError`` naming the id
    of the first such row: ground truths in row order, then detections in rank
    order.
    """
    check_iou_thresh(iou_thresh)
    classes = range(num_classes)
    confidences: list[list[float]] = [[] for _ in classes]
    fates: list[list[str]] = [[] for _ in classes]
    n_positives = [0] * num_classes
    n_images = [0] * num_classes
    for position, (truths, regions, detections) in enumerate(images):
        scorable: dict[int, list] = {c: [] for c in classes}
        ranked: dict[int, list] = {c: [] for c in classes}
        kind = "ground-truth"
        try:
            for row in truths:
                scorable[row[0]].append(row)
            kind = "detection"
            # a stable sort: confidence ties keep row order
            for row in sorted(detections, key=itemgetter(1), reverse=True):
                ranked[row[0]].append(row)
        except KeyError as exc:
            fault = f"{kind} class id {exc.args[0]} is not in [0, {num_classes})"
            raise ContractError(f"image {position} of the feed: {fault}") from None
        for class_id, candidates in scorable.items():
            if candidates:
                n_positives[class_id] += len(candidates)
                n_images[class_id] += 1
            confidences[class_id] += map(itemgetter(1), ranked[class_id])
            fates[class_id] += match_image(ranked[class_id], candidates, regions, iou_thresh)
    merged = [rank(confidences[c], fates[c]) for c in classes]
    return [PRCurve(c, f, n_positives[c], conf, n_images[c]) for c, (f, conf) in enumerate(merged)]


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
