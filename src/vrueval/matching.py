"""Greedy detection-to-ground-truth matching: one ranked sweep per class.

Protocol: a class's detections are ranked across all images in strictly
descending confidence (ties broken by ascending input order) and matched
in that order. Each detection claims the still-unmatched ground truth of
its image and class with the highest IoU, provided that IoU meets the
threshold; IoU ties go to the lowest ground-truth index. A detection that
cannot claim a ground truth but overlaps an ignore region of its image at
or above the threshold is suppressed -- neither TP nor FP. Everything else
is a false positive, and unmatched ground truths are false negatives.

Before the exact IoU, a ground truth or ignore region whose box is
disjoint from the detection's or only touches it along an edge or corner
is skipped. Such a pair has IoU 0.0, so skipping it changes nothing: a
best match needs an IoU strictly above 0.0, and the IoU threshold, which
also gates suppression, lies in (0, 1]. Every outcome, IoU value and
tie-break is the same as when every pair is computed.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from operator import itemgetter

from .errors import ContractError
from .geometry import corner_iou

__all__ = ["FP", "IGNORED", "TP", "greedy_sweep"]

TP, FP, IGNORED = "tp", "fp", "ignored"  # a detection's fate; IGNORED: suppressed

Corners = tuple[float, float, float, float]
# (image key, confidence, x_min, y_min, x_max, y_max)
Row = tuple[Hashable, float, float, float, float, float]


def greedy_sweep(
    rows: list[Row],
    truths: Mapping[Hashable, tuple[list[Corners], list[Corners]]],
    iou_thresh: float,
) -> tuple[tuple[str, ...], int, tuple[float, ...], int]:
    """Match one class's detection rows, given in input order.

    ``truths[image]`` holds the ``(x_min, y_min, x_max, y_max)`` corners of
    that image's scorable ground truths of the class and of its ignore
    regions; an image without an entry has neither. Returns the fields of
    ``PRCurve`` after the class id: the fate of each detection in rank
    order, the number of positives, each ranked detection's confidence,
    and the number of images with a positive.
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise ContractError(f"iou threshold {iou_thresh} outside (0, 1]")
    # per image: its unmatched ground truths in index order, and its ignore regions
    state = {image: (list(scorable), regions) for image, (scorable, regions) in truths.items()}
    n_positives = sum(len(scorable) for scorable, _ in state.values())
    n_images = sum(1 for scorable, _ in state.values() if scorable)
    nothing = ((), ())
    # a stable sort: confidence ties keep input order
    ranked = sorted(rows, key=itemgetter(1), reverse=True)
    fates = []
    for image, _, x_min, y_min, x_max, y_max in ranked:
        candidates, regions = state.get(image, nothing)
        best_iou = 0.0
        best = -1
        for pos, (gx_min, gy_min, gx_max, gy_max) in enumerate(candidates):
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
    return tuple(fates), n_positives, tuple([row[1] for row in ranked]), n_images


def _reaches(x_min, y_min, x_max, y_max, regions: list[Corners], iou_thresh: float) -> bool:
    """Whether the box has an IoU of at least ``iou_thresh`` with any region."""
    for gx_min, gy_min, gx_max, gy_max in regions:
        if gx_min >= x_max or gx_max <= x_min or gy_min >= y_max or gy_max <= y_min:
            continue  # disjoint or touching: IoU 0.0
        if corner_iou(x_min, y_min, x_max, y_max, gx_min, gy_min, gx_max, gy_max) >= iou_thresh:
            return True
    return False
