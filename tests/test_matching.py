import random

import pytest

import vrueval.matching
from helpers import det, gt, random_box, random_instance, to_oracle_det, to_oracle_gt
from oracle import greedy_match_image, rank
from vrueval.errors import ContractError
from vrueval.matching import GreedyMatcher
from vrueval.metrics import pr_curve


def match_ranked(gts, ranked_dets, iou_thresh):
    """Feed one image's detections, already in rank order, to one matcher."""
    matcher = GreedyMatcher(gts, iou_thresh)
    return [matcher.feed(d) for d in ranked_dets]


class TestProtocol:
    def test_perfect_detection(self):
        outcomes = match_ranked([gt()], [det()], 0.5)
        assert len(outcomes) == 1
        assert outcomes[0].is_tp
        assert outcomes[0].iou == 1.0

    def test_higher_confidence_consumes_ground_truth(self):
        # A at IoU 0.6 outranks B at IoU 0.55; the single GT goes to A
        ground = gt(box=(0, 0, 10, 10))
        a = det(confidence=0.9, box=(0, 0, 10, 6))
        b = det(confidence=0.8, box=(0, 0, 10, 5.5))
        outcomes = match_ranked([ground], [a, b], 0.5)
        assert outcomes[0].detection is a and outcomes[0].is_tp
        assert outcomes[0].iou == pytest.approx(0.6)
        assert outcomes[1].detection is b and outcomes[1].is_fp

    def test_highest_iou_selected(self):
        gt1 = gt(box=(0, 0, 10, 7))     # IoU 0.7 with the detection
        gt2 = gt(box=(0, 4, 10, 10))    # IoU 0.6
        outcomes = match_ranked([gt1, gt2], [det(box=(0, 0, 10, 10))], 0.5)
        assert outcomes[0].matched is gt1

    def test_iou_tie_takes_lowest_index(self):
        gt1 = gt(box=(0, 0, 10, 5))
        gt2 = gt(box=(0, 5, 10, 10))
        outcomes = match_ranked([gt1, gt2], [det(box=(0, 0, 10, 10))], 0.5)
        assert outcomes[0].matched is gt1

    def test_confidence_tie_keeps_input_order(self):
        # pr_curve owns the ranking: of two tied detections the first in input
        # order takes the GT. A second `loose` is suppressed by the region and
        # adds no point; a second `exact` is a false positive.
        region = gt(class_id=-1, box=(5, 0, 15, 10), ignore=True)
        ground = gt(box=(0, 0, 10, 10))
        exact = det(confidence=0.8, box=(0, 0, 10, 10))   # IoU 1.0 GT, 1/3 region
        loose = det(confidence=0.8, box=(2, 0, 12, 10))   # IoU 2/3 GT, 7/13 region
        assert pr_curve([region, ground], [exact, loose], 0, 0.5).points == ((1.0, 1.0),)
        assert pr_curve([region, ground], [loose, exact], 0, 0.5).points == (
            (1.0, 1.0),
            (1.0, 0.5),
        )

    def test_duplicates_yield_single_tp(self):
        ground = gt(box=(0, 0, 10, 10))
        dups = [det(confidence=0.9 - i * 0.1, box=(0, 0, 10, 10)) for i in range(4)]
        outcomes = match_ranked([ground], dups, 0.5)
        assert sum(o.is_tp for o in outcomes) == 1
        assert sum(o.is_fp for o in outcomes) == 3

    def test_below_threshold_is_fp(self):
        outcomes = match_ranked([gt(box=(0, 0, 10, 10))], [det(box=(0, 0, 10, 4))], 0.5)
        assert outcomes[0].is_fp

    def test_ignore_region_suppresses(self):
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        outcomes = match_ranked([region], [det(box=(1, 1, 9, 9))], 0.5)
        assert outcomes[0].suppressed
        assert not outcomes[0].is_tp and not outcomes[0].is_fp

    def test_real_match_preferred_over_ignore(self):
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        real = gt(box=(0, 0, 10, 8))
        outcomes = match_ranked([region, real], [det(box=(0, 0, 10, 10))], 0.5)
        assert outcomes[0].matched is real

    def test_consumed_gt_then_ignore_overlap(self):
        # second duplicate cannot take the consumed GT but overlaps the ignore region
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        real = gt(box=(0, 0, 10, 10))
        d1 = det(confidence=0.9)
        d2 = det(confidence=0.8)
        outcomes = match_ranked([region, real], [d1, d2], 0.5)
        assert outcomes[0].is_tp
        assert outcomes[1].suppressed

    def test_low_ignore_overlap_is_fp(self):
        region = gt(class_id=-1, box=(0, 0, 10, 4), ignore=True)
        outcomes = match_ranked([region], [det(box=(0, 0, 10, 10))], 0.5)
        assert outcomes[0].is_fp


class TestContracts:
    def test_ignore_records_exempt_from_class_check(self):
        # ignore records are class-agnostic: a class-1 sweep honours them
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        gts = [region, gt(class_id=1, box=(50, 50, 60, 60))]
        curve = pr_curve(gts, [det(class_id=1, box=(1, 1, 9, 9))], 1, 0.5)
        assert curve.points == ()
        assert curve.n_positives == 1

    def test_threshold_range(self):
        with pytest.raises(ContractError):
            GreedyMatcher([], 0.0)
        with pytest.raises(ContractError):
            GreedyMatcher([], 1.5)


def fate(outcome):
    return "tp" if outcome.is_tp else ("ignored" if outcome.suppressed else "fp")


def test_iou_runs_only_for_overlapping_pairs(monkeypatch):
    real_iou = vrueval.matching.iou
    calls = []

    def counting_iou(a, b):
        calls.append((a, b))
        return real_iou(a, b)

    monkeypatch.setattr(vrueval.matching, "iou", counting_iou)
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
    outcomes = match_ranked([ground, region], dets, 0.5)
    assert [fate(o) for o in outcomes] == ["fp"] * 5 + ["tp", "ignored"]
    assert [o.iou for o in outcomes] == [0.0] * 5 + [pytest.approx(0.9), pytest.approx(0.64)]
    assert calls == [(dets[5].box, ground.box), (dets[6].box, region.box)]


def grid_box(rng: random.Random) -> tuple:
    """Integer boxes in a 6x6 arena, up to 2 units a side.

    Touching edges, shared corners, identical and zero-area boxes, and IoU
    exactly 0.5 are all frequent here.
    """
    x0 = rng.randrange(0, 5)
    y0 = rng.randrange(0, 5)
    return (x0, y0, x0 + rng.randrange(0, 3), y0 + rng.randrange(0, 3))


def test_matches_oracle_on_random_instances():
    for box in (random_box, grid_box):
        rng = random.Random(1412)
        for _ in range(300):
            gts, dets = random_instance(rng, n_images=1, with_ignores=True, box=box)
            odets = [to_oracle_det(d) for d in dets]
            order = rank(odets)
            outcomes = match_ranked(gts, [dets[i] for i in order], 0.5)
            for d in odets:
                d["_thresh"] = 0.5
            expected = greedy_match_image(
                [to_oracle_gt(g) for g in gts], [odets[i] for i in order]
            )
            assert [fate(o) for o in outcomes] == expected
