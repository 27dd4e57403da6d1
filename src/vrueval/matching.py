"""Greedy detection-to-ground-truth matching for one image and class.

Protocol: detections are processed in strictly descending confidence
(ties broken by ascending input order). Each detection claims the
still-unmatched, non-ignored ground truth with the highest IoU, provided
that IoU meets the threshold; IoU ties go to the lowest ground-truth
index. A detection that cannot claim a ground truth but overlaps an
ignore region at or above the threshold is suppressed -- neither TP nor
FP. Everything else is a false positive, and unmatched non-ignored
ground truths are false negatives.

Before the exact IoU, a ground truth or ignore region whose box is
disjoint from the detection's or only touches it along an edge or corner
is skipped. Such a pair has IoU 0.0, so skipping it changes nothing: a
best match needs an IoU strictly above 0.0, and the IoU threshold, which
also gates suppression, lies in (0, 1]. Every outcome, IoU value and
tie-break is the same as when every pair is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annotations import DetectionRecord, GroundTruthRecord
from .errors import ContractError
from .geometry import iou

__all__ = ["MatchOutcome", "GreedyMatcher"]


@dataclass(frozen=True)
class MatchOutcome:
    """Fate of one detection. ``suppressed`` marks ignore-region overlap."""

    detection: DetectionRecord
    matched: GroundTruthRecord | None
    iou: float
    suppressed: bool = False

    @property
    def is_tp(self) -> bool:
        return self.matched is not None

    @property
    def is_fp(self) -> bool:
        return self.matched is None and not self.suppressed


class GreedyMatcher:
    """Incremental matcher holding the consumed-ground-truth state.

    Feed one image's detections of one class in descending confidence;
    each ``feed`` call returns that detection's MatchOutcome. ``pr_curve``
    holds one matcher per image and feeds it in the dataset-wide ranking.
    """

    def __init__(self, gts: list[GroundTruthRecord], iou_thresh: float):
        if not 0.0 < iou_thresh <= 1.0:
            raise ContractError(f"iou threshold {iou_thresh} outside (0, 1]")
        self.scorable = [g for g in gts if not g.ignore]
        self.ignored = [g for g in gts if g.ignore]
        self.iou_thresh = iou_thresh
        self._taken = [False] * len(self.scorable)

    def feed(self, det: DetectionRecord) -> MatchOutcome:
        box = det.box
        x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
        best_iou = 0.0
        best_idx = -1
        for idx, gt in enumerate(self.scorable):
            if self._taken[idx]:
                continue
            g = gt.box
            if g.x_min >= x_max or g.x_max <= x_min or g.y_min >= y_max or g.y_max <= y_min:
                continue  # disjoint or touching: IoU 0.0
            overlap = iou(box, g)
            if overlap > best_iou:  # strict: IoU ties keep the lowest index
                best_iou = overlap
                best_idx = idx
        if best_idx >= 0 and best_iou >= self.iou_thresh:
            self._taken[best_idx] = True
            return MatchOutcome(det, self.scorable[best_idx], best_iou)
        ignore_iou = 0.0
        for region in self.ignored:
            g = region.box
            if g.x_min >= x_max or g.x_max <= x_min or g.y_min >= y_max or g.y_max <= y_min:
                continue
            overlap = iou(box, g)
            if overlap > ignore_iou:
                ignore_iou = overlap
        if ignore_iou >= self.iou_thresh:
            return MatchOutcome(det, None, ignore_iou, suppressed=True)
        return MatchOutcome(det, None, best_iou)
