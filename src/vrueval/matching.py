"""Greedy detection-to-ground-truth matching, one image at a time.

Protocol: a class's detections are ranked across all images in strictly
descending confidence (ties broken by feed order: image after image, rows
in file order within an image) and matched in that order. Each detection
claims the still-unmatched ground truth of its image and class with the
highest IoU, provided that IoU meets the threshold; IoU ties go to the
lowest ground-truth index. A detection that cannot claim a ground truth
but overlaps an ignore region of its image at or above the threshold is
suppressed -- neither TP nor FP. Everything else is a false positive, and
unmatched ground truths are false negatives.

A detection's fate depends only on the detections ranked above it in its
own image, so each image is matched on its own (``match_image``), in the
image's own stable confidence order, which is the dataset ranking
restricted to that image. The class's fates are then merged into the
dataset ranking by one stable sort on confidence (``rank``).
``metrics.sweep_images`` is the one caller of both.

Before the exact IoU, a ground truth or ignore region whose box is
disjoint from the detection's or only touches it along an edge or corner
is skipped. Such a pair has IoU 0.0, so skipping it changes nothing: a
best match needs an IoU strictly above 0.0, and the IoU threshold, which
also gates suppression, lies in (0, 1]. Every outcome, IoU value and
tie-break is the same as when every pair is computed.
"""

from __future__ import annotations

from .errors import ContractError
from .geometry import corner_iou

__all__ = ["FP", "IGNORED", "TP", "check_iou_thresh", "match_image", "rank"]

TP, FP, IGNORED = "tp", "fp", "ignored"  # a detection's fate; IGNORED: suppressed

Corners = tuple[float, float, float, float]
# a detection row: (class id, confidence, x_min, y_min, x_max, y_max)
Row = tuple[int, float, float, float, float, float]


def check_iou_thresh(iou_thresh: float) -> None:
    """Raise ContractError unless the IoU threshold lies in (0, 1]."""
    if not 0.0 < iou_thresh <= 1.0:
        raise ContractError(f"iou threshold {iou_thresh} outside (0, 1]")


def match_image(
    ranked: list[Row], candidates: list[tuple], regions: list[Corners], iou_thresh: float
) -> list[str]:
    """Fates of one image's detections of one class, given in rank order.

    Only the corners of the ``ranked`` and ``candidates`` rows are read.
    ``candidates`` are the image's ground-truth rows ``(class_id, x_min, y_min,
    x_max, y_max)`` of the class in index order; each one a detection claims is
    removed from the list. ``regions`` are the image's ignore-region corners.
    """
    fates = []
    for _, _, x_min, y_min, x_max, y_max in ranked:
        best_iou = 0.0
        best = -1
        for pos, (_, gx_min, gy_min, gx_max, gy_max) in enumerate(candidates):
            if gx_min >= x_max or gx_max <= x_min or gy_min >= y_max or gy_max <= y_min:
                continue  # disjoint or touching: IoU 0.0
            overlap = corner_iou(x_min, y_min, x_max, y_max, gx_min, gy_min, gx_max, gy_max)
            if overlap > best_iou:  # strict: IoU ties keep the lowest index
                best_iou = overlap
                best = pos
        if best >= 0 and best_iou >= iou_thresh:
            del candidates[best]
            fates.append(TP)
        elif regions and _reaches(x_min, y_min, x_max, y_max, regions, iou_thresh):
            fates.append(IGNORED)
        else:
            fates.append(FP)
    return fates


def rank(confidences: list[float], fates: list[str]) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """One class's fates and confidences in rank order: descending confidence.

    ``confidences[i]`` and ``fates[i]`` belong to one detection. Detections
    of equal confidence keep their given order, which the stable sort keeps,
    so images given one after another may each come in their own rank order.
    """
    order = sorted(range(len(fates)), key=confidences.__getitem__, reverse=True)
    return tuple(map(fates.__getitem__, order)), tuple(map(confidences.__getitem__, order))


def _reaches(x_min, y_min, x_max, y_max, regions: list[Corners], iou_thresh: float) -> bool:
    """Whether the box has an IoU of at least ``iou_thresh`` with any region."""
    for gx_min, gy_min, gx_max, gy_max in regions:
        if gx_min >= x_max or gx_max <= x_min or gy_min >= y_max or gy_max <= y_min:
            continue  # disjoint or touching: IoU 0.0
        if corner_iou(x_min, y_min, x_max, y_max, gx_min, gy_min, gx_max, gy_max) >= iou_thresh:
            return True
    return False
