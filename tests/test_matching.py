import random

import pytest

import vrueval.matching
from helpers import det, grid_box, gt, image_rows, random_box, random_instance
from oracle import greedy_match_image, rank
from vrueval.errors import ContractError
from vrueval.geometry import corner_iou
from vrueval.matching import FP, IGNORED, TP
from vrueval.metrics import sweep_images


def curve(gts, dets, iou_thresh=0.5, num_classes=1, class_id=0):
    """The ``PRCurve`` of one class, sweeping ``image_rows(gts, dets)``."""
    return sweep_images(image_rows(gts, dets), num_classes, iou_thresh)[class_id]


def fates(gts, ranked_dets, iou_thresh=0.5):
    """Fate of each class-0 detection, given in rank order: 'tp', 'fp' or 'ignored'."""
    return list(curve(gts, ranked_dets, iou_thresh).fates)


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
        assert curve([ground], [b, a]).fates == (TP, FP)  # the sweep ranks them
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
        assert curve([region, ground], [exact, loose]).fates == (TP, IGNORED)
        assert curve([region, ground], [loose, exact]).fates == (TP, FP)

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
        swept = curve(gts, [det(class_id=1, box=(1, 1, 9, 9))], num_classes=2, class_id=1)
        assert swept.fates == (IGNORED,)
        assert swept.n_positives == 1

    def test_threshold_range(self):
        with pytest.raises(ContractError):
            curve([], [], 0.0)
        with pytest.raises(ContractError):
            curve([], [], 1.5)


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
    assert curve([ground, region], dets).fates == (FP,) * 5 + (TP, IGNORED)
    assert iou_calls == [
        (dets[5]["box"] + ground["box"], pytest.approx(0.9)),
        (dets[6]["box"] + region["box"], pytest.approx(0.64)),
    ]


def test_matches_oracle_on_random_instances():
    for box in (random_box, grid_box):
        rng = random.Random(1412)
        for _ in range(300):
            gts, dets = random_instance(rng, n_images=1, with_ignores=True, box=box)
            order = rank(dets)
            expected = greedy_match_image(gts, [dict(dets[i], _thresh=0.5) for i in order])
            assert fates(gts, [dets[i] for i in order]) == expected


def test_tied_confidences_across_images_rank_in_feed_order():
    # confidences tie across three images whose detections come image by image,
    # as a detection directory gives them: tied detections rank in feed order,
    # which is the oracle's input order
    rng = random.Random(2718)
    for box in (random_box, grid_box):
        for _ in range(300):
            gts, dets = random_instance(rng, n_images=3, with_ignores=True, box=box)
            dets = [dict(d, confidence=rng.choice((0.3, 0.6, 0.9))) for d in dets]
            feed = list(dict.fromkeys(r["image_id"] for r in gts + dets))  # image_rows' order
            dets.sort(key=lambda d: feed.index(d["image_id"]))  # stable: grouped by image
            odets = [dict(d, _thresh=0.5) for d in dets]
            order = rank(odets)
            expected = {}
            for image in feed:
                ranked = [i for i in order if odets[i]["image_id"] == image]
                image_gts = [g for g in gts if g["image_id"] == image]
                expected.update(
                    zip(ranked, greedy_match_image(image_gts, [odets[i] for i in ranked]))
                )
            swept = curve(gts, dets)
            assert list(swept.fates) == [expected[i] for i in order]
            assert list(swept.confidences) == [odets[i]["confidence"] for i in order]


def reference_iou(a: tuple, b: tuple) -> float:
    """IoU of two corner boxes in the operation order the matcher has always used."""
    ax_min, ay_min, ax_max, ay_max = a
    bx_min, by_min, bx_max, by_max = b
    ix_min = max(ax_min, bx_min)
    iy_min = max(ay_min, by_min)
    ix_max = min(ax_max, bx_max)
    iy_max = min(ay_max, by_max)
    iw = ix_max - ix_min
    ih = iy_max - iy_min
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax_max - ax_min) * (ay_max - ay_min) + (bx_max - bx_min) * (by_max - by_min) - inter
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
            curve(gts, dets)
            for args, value in iou_calls:
                assert value == reference_iou(args[:4], args[4:])
            seen += len(iou_calls)
            iou_calls.clear()
            a, b = tuple(map(float, box(rng))), tuple(map(float, box(rng)))
            assert corner_iou(*a, *b) == reference_iou(a, b)
    assert seen > 1000
