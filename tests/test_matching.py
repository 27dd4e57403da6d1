import random
from dataclasses import replace

import pytest

import vrueval.matching
from helpers import (
    det,
    grid_box,
    gt,
    random_box,
    random_instance,
    to_oracle_det,
    to_oracle_gt,
)
from oracle import greedy_match_image, rank
from vrueval.errors import ContractError
from vrueval.geometry import BoundingBox, iou
from vrueval.matching import FP, IGNORED, TP
from vrueval.metrics import pr_curve


def corners(box):
    return (box.x_min, box.y_min, box.x_max, box.y_max)


def fates(gts, ranked_dets, iou_thresh=0.5):
    """Fate of each class-0 detection, given in rank order: 'tp', 'fp' or 'ignored'."""
    return list(pr_curve(gts, ranked_dets, 0, iou_thresh).fates)


@pytest.fixture
def iou_calls(monkeypatch):
    """(corner arguments, IoU) of every IoU the sweep computes."""
    real_iou = vrueval.matching.corner_iou
    calls = []

    def recording_iou(*args):
        value = real_iou(*args)
        calls.append((args, value))
        return value

    monkeypatch.setattr(vrueval.matching, "corner_iou", recording_iou)
    return calls


class TestProtocol:
    def test_perfect_detection(self, iou_calls):
        assert fates([gt()], [det()]) == ["tp"]
        assert iou_calls == [((0.0, 0.0, 10.0, 10.0) * 2, 1.0)]

    def test_higher_confidence_consumes_ground_truth(self, iou_calls):
        # A at IoU 0.6 outranks B at IoU 0.55; the single GT goes to A
        ground = gt(box=(0, 0, 10, 10))
        a = det(confidence=0.9, box=(0, 0, 10, 6))
        b = det(confidence=0.8, box=(0, 0, 10, 5.5))
        assert pr_curve([ground], [b, a], 0, 0.5).fates == (TP, FP)  # the sweep ranks them
        assert [value for _, value in iou_calls] == [pytest.approx(0.6)]

    def test_highest_iou_selected(self):
        gt1 = gt(box=(0, 0, 10, 7))     # IoU 0.7 with the first detection
        gt2 = gt(box=(0, 4, 10, 10))    # IoU 0.6
        # the followers are exact copies of gt2 and gt1 (IoU 0.3 with the other)
        dets = [det(box=(0, 0, 10, 10)), det(box=(0, 4, 10, 10)), det(box=(0, 0, 10, 7))]
        assert fates([gt1, gt2], dets) == ["tp", "tp", "fp"]

    def test_iou_tie_takes_lowest_index(self):
        gt1 = gt(box=(0, 0, 10, 5))
        gt2 = gt(box=(0, 5, 10, 10))
        # IoU 0.5 with both; the followers are exact copies of gt2 and gt1
        dets = [det(box=(0, 0, 10, 10)), det(box=(0, 5, 10, 10)), det(box=(0, 0, 10, 5))]
        assert fates([gt1, gt2], dets) == ["tp", "tp", "fp"]

    def test_confidence_tie_keeps_input_order(self):
        # the sweep owns the ranking: of two tied detections the first in input
        # order takes the GT. A second `loose` is suppressed by the region; a
        # second `exact` is a false positive.
        region = gt(class_id=-1, box=(5, 0, 15, 10), ignore=True)
        ground = gt(box=(0, 0, 10, 10))
        exact = det(confidence=0.8, box=(0, 0, 10, 10))   # IoU 1.0 GT, 1/3 region
        loose = det(confidence=0.8, box=(2, 0, 12, 10))   # IoU 2/3 GT, 7/13 region
        assert pr_curve([region, ground], [exact, loose], 0, 0.5).fates == (TP, IGNORED)
        assert pr_curve([region, ground], [loose, exact], 0, 0.5).fates == (TP, FP)

    def test_duplicates_yield_single_tp(self):
        ground = gt(box=(0, 0, 10, 10))
        dups = [det(confidence=0.9 - i * 0.1, box=(0, 0, 10, 10)) for i in range(4)]
        assert fates([ground], dups) == ["tp", "fp", "fp", "fp"]

    def test_below_threshold_is_fp(self):
        assert fates([gt(box=(0, 0, 10, 10))], [det(box=(0, 0, 10, 4))]) == ["fp"]

    def test_ignore_region_suppresses(self):
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        assert fates([region], [det(box=(1, 1, 9, 9))]) == ["ignored"]

    def test_real_match_preferred_over_ignore(self):
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        real = gt(box=(0, 0, 10, 8))
        assert fates([region, real], [det(box=(0, 0, 10, 10))]) == ["tp"]

    def test_consumed_gt_then_ignore_overlap(self):
        # second duplicate cannot take the consumed GT but overlaps the ignore region
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        real = gt(box=(0, 0, 10, 10))
        d1 = det(confidence=0.9)
        d2 = det(confidence=0.8)
        assert fates([region, real], [d1, d2]) == ["tp", "ignored"]

    def test_low_ignore_overlap_is_fp(self):
        region = gt(class_id=-1, box=(0, 0, 10, 4), ignore=True)
        assert fates([region], [det(box=(0, 0, 10, 10))]) == ["fp"]

    def test_ground_truths_stay_in_their_image(self):
        dets = [det("a", box=(0, 0, 10, 10)), det("b", box=(0, 0, 10, 10))]
        assert fates([gt("a")], dets) == ["tp", "fp"]


class TestContracts:
    def test_ignore_records_exempt_from_class_check(self):
        # ignore records are class-agnostic: a class-1 sweep honours them
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        gts = [region, gt(class_id=1, box=(50, 50, 60, 60))]
        curve = pr_curve(gts, [det(class_id=1, box=(1, 1, 9, 9))], 1, 0.5)
        assert curve.fates == (IGNORED,)
        assert curve.n_positives == 1

    def test_threshold_range(self):
        with pytest.raises(ContractError):
            pr_curve([], [], 0, 0.0)
        with pytest.raises(ContractError):
            pr_curve([], [], 0, 1.5)


def test_iou_runs_only_for_overlapping_pairs(iou_calls):
    ground = gt(box=(10, 10, 20, 20))
    region = gt(class_id=-1, box=(40, 10, 50, 20), ignore=True)
    boxes = [
        (25, 30, 35, 35),  # disjoint from both
        (20, 10, 30, 20),  # shares the ground truth's right edge
        (0, 0, 10, 10),    # shares the ground truth's top-left corner
        (50, 12, 60, 18),  # shares the region's right edge
        (30, 0, 40, 10),   # shares the region's top-left corner
        (10, 10, 20, 19),  # overlaps the ground truth: IoU 0.9
        (41, 11, 49, 19),  # overlaps the region: IoU 0.64
    ]
    dets = [det(confidence=0.9 - i * 0.1, box=b) for i, b in enumerate(boxes)]
    # five false positives, a true positive, and a suppressed detection
    assert pr_curve([ground, region], dets, 0, 0.5).fates == (FP,) * 5 + (TP, IGNORED)
    assert iou_calls == [
        (corners(dets[5].box) + corners(ground.box), pytest.approx(0.9)),
        (corners(dets[6].box) + corners(region.box), pytest.approx(0.64)),
    ]


def test_matches_oracle_on_random_instances():
    for box in (random_box, grid_box):
        rng = random.Random(1412)
        for _ in range(300):
            gts, dets = random_instance(rng, n_images=1, with_ignores=True, box=box)
            odets = [to_oracle_det(d) for d in dets]
            order = rank(odets)
            for d in odets:
                d["_thresh"] = 0.5
            expected = greedy_match_image(
                [to_oracle_gt(g) for g in gts], [odets[i] for i in order]
            )
            assert fates(gts, [dets[i] for i in order]) == expected


def test_tied_confidences_across_images_keep_input_order():
    # the images interleave in the input and confidences tie across them: the
    # merged ranking must put tied detections in input order, not image by image
    rng = random.Random(2718)
    for box in (random_box, grid_box):
        for _ in range(300):
            gts, dets = random_instance(rng, n_images=3, with_ignores=True, box=box)
            dets = [replace(d, confidence=rng.choice((0.3, 0.6, 0.9))) for d in dets]
            ogts = [to_oracle_gt(g) for g in gts]
            odets = [dict(to_oracle_det(d), _thresh=0.5) for d in dets]
            order = rank(odets)
            expected = {}
            for image in {d["image_id"] for d in odets}:
                ranked = [i for i in order if odets[i]["image_id"] == image]
                image_gts = [g for g in ogts if g["image_id"] == image]
                expected.update(
                    zip(ranked, greedy_match_image(image_gts, [odets[i] for i in ranked]))
                )
            curve = pr_curve(gts, dets, 0, 0.5)
            assert list(curve.fates) == [expected[i] for i in order]
            assert list(curve.confidences) == [odets[i]["confidence"] for i in order]


def reference_iou(a: BoundingBox, b: BoundingBox) -> float:
    """IoU in the operation order the matcher has always used."""
    ix_min = max(a.x_min, b.x_min)
    iy_min = max(a.y_min, b.y_min)
    ix_max = min(a.x_max, b.x_max)
    iy_max = min(a.y_max, b.y_max)
    iw = ix_max - ix_min
    ih = iy_max - iy_min
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def float_box(rng: random.Random) -> tuple:
    """Boxes with full-precision coordinates, where rounding shows."""
    x0 = rng.uniform(0.0, 50.0)
    y0 = rng.uniform(0.0, 50.0)
    return (x0, y0, x0 + rng.uniform(0.0, 20.0), y0 + rng.uniform(0.0, 20.0))


def test_sweep_iou_equals_geometry_iou(iou_calls):
    seen = 0
    for box in (random_box, grid_box, float_box):
        rng = random.Random(77)
        for _ in range(300):
            gts, dets = random_instance(rng, n_images=2, with_ignores=True, box=box)
            pr_curve(gts, dets, 0, 0.5)
            for args, value in iou_calls:
                a, b = BoundingBox(*args[:4]), BoundingBox(*args[4:])
                assert value == iou(a, b) == reference_iou(a, b)
            seen += len(iou_calls)
            iou_calls.clear()
            a, b = BoundingBox(*map(float, box(rng))), BoundingBox(*map(float, box(rng)))
            assert iou(a, b) == reference_iou(a, b)
    assert seen > 1000
