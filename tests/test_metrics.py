import random

import pytest

from helpers import det, gt, random_instance, to_oracle_det, to_oracle_gt
from oracle import ap_from_points, class_ap, class_confusion, class_pr_points
from vrueval.errors import VruEvalError
from vrueval.metrics import (
    ConfusionCounts,
    PRCurve,
    average_precision,
    confusion_at_threshold,
    f1,
    mean_ap,
    pr_curve,
    precision,
    recall,
)


class TestPointMetrics:
    def test_precision_direct(self):
        assert precision(ConfusionCounts(3, 1, 0)) == 0.75

    def test_precision_empty_denominator(self):
        assert precision(ConfusionCounts(0, 0, 5)) == 0.0

    def test_recall_direct(self):
        assert recall(ConfusionCounts(3, 0, 1)) == 0.75

    def test_recall_empty_denominator(self):
        assert recall(ConfusionCounts(0, 4, 0)) == 0.0

    def test_f1_equal_arguments(self):
        assert f1(0.5, 0.5) == 0.5

    def test_f1_zero_recall(self):
        assert f1(1.0, 0.0) == 0.0

    def test_f1_published_operating_point(self):
        # frozen from the formula itself: 2*0.763*0.485 / (0.763+0.485)
        assert f1(0.763, 0.485) == pytest.approx(0.593036858974359, abs=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0)


class TestConfusionAtThreshold:
    def test_threshold_precedes_matching(self):
        # the 0.15 detection would match the second GT but is cut first
        gts = [gt(box=(0, 0, 10, 10)), gt(box=(20, 20, 30, 30))]
        dets = [
            det(confidence=0.9, box=(0, 0, 10, 10)),
            det(confidence=0.15, box=(20, 20, 30, 30)),
        ]
        counts = confusion_at_threshold(gts, dets, 1, 0.5, 0.2)
        assert counts[0] == ConfusionCounts(1, 0, 1)

    def test_no_detections(self):
        counts = confusion_at_threshold([gt(), gt(box=(20, 20, 30, 30)), gt(box=(40, 40, 50, 50))], [], 1, 0.5, 0.2)
        assert counts[0] == ConfusionCounts(0, 0, 3)

    def test_no_ground_truth(self):
        counts = confusion_at_threshold([], [det(), det(box=(20, 20, 30, 30))], 1, 0.5, 0.2)
        assert counts[0] == ConfusionCounts(0, 2, 0)

    def test_exact_threshold_kept(self):
        counts = confusion_at_threshold([gt()], [det(confidence=0.2)], 1, 0.5, 0.2)
        assert counts[0].tp == 1

    def test_per_class_separation(self):
        gts = [gt(class_id=0), gt(class_id=1, box=(20, 20, 30, 30))]
        dets = [det(class_id=0), det(class_id=1, box=(100, 100, 110, 110))]
        counts = confusion_at_threshold(gts, dets, 2, 0.5, 0.2)
        assert counts[0] == ConfusionCounts(1, 0, 0)
        assert counts[1] == ConfusionCounts(0, 1, 1)

    def test_tp_plus_fn_is_scorable_count(self):
        rng = random.Random(7)
        for _ in range(50):
            gts, dets = random_instance(rng, with_ignores=True)
            scorable = sum(1 for g in gts if not g.ignore)
            counts = confusion_at_threshold(gts, dets, 1, 0.5, 0.2)
            assert counts[0].tp + counts[0].fn == scorable


class TestPRCurve:
    def test_tp_fp_tp_points(self):
        gts = [gt(box=(0, 0, 10, 10)), gt(box=(100, 100, 110, 110))]
        dets = [
            det(confidence=0.9, box=(0, 0, 10, 10)),
            det(confidence=0.8, box=(50, 50, 60, 60)),
            det(confidence=0.7, box=(100, 100, 110, 110)),
        ]
        curve = pr_curve(gts, dets, 0, 0.5)
        assert curve.n_positives == 2
        assert curve.points == ((0.5, 1.0), (0.5, 0.5), (1.0, pytest.approx(2 / 3)))

    def test_zero_detections(self):
        curve = pr_curve([gt()], [], 0, 0.5)
        assert curve.points == ()
        assert curve.n_positives == 1

    def test_all_tp_ends_at_one_one(self):
        gts = [gt(box=(i * 20, 0, i * 20 + 10, 10)) for i in range(3)]
        dets = [
            det(confidence=0.9 - 0.1 * i, box=(i * 20, 0, i * 20 + 10, 10)) for i in range(3)
        ]
        curve = pr_curve(gts, dets, 0, 0.5)
        assert curve.points[-1] == (1.0, 1.0)

    def test_recall_non_decreasing(self):
        rng = random.Random(99)
        for _ in range(100):
            gts, dets = random_instance(rng)
            curve = pr_curve(gts, dets, 0, 0.5)
            recalls = [r for r, _ in curve.points]
            assert recalls == sorted(recalls)

    def test_confidences_follow_points(self):
        gts = [gt(box=(0, 0, 10, 10))]
        dets = [det(confidence=0.3, box=(50, 50, 60, 60)), det(confidence=0.7)]
        curve = pr_curve(gts, dets, 0, 0.5)
        assert curve.confidences == (0.7, 0.3)
        assert curve.points == ((1.0, 1.0), (1.0, 0.5))

    def test_images_count_scorable_ground_truth_only(self):
        gts = [
            gt("a"),
            gt("a", box=(20, 20, 30, 30)),
            gt("b", class_id=1),
            gt("c", class_id=-1, ignore=True),
        ]
        assert pr_curve(gts, [det("d")], 0, 0.5).n_images == 1
        assert pr_curve(gts, [], 1, 0.5).n_images == 1
        assert pr_curve(gts, [], 2, 0.5).n_images == 0

    def test_suppressed_detections_emit_no_point(self):
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        dets = [det(confidence=0.9, box=(1, 1, 9, 9)), det(confidence=0.8, box=(50, 50, 60, 60))]
        curve = pr_curve([region, gt(box=(50, 50, 60, 60))], dets, 0, 0.5)
        assert len(curve.points) == 1  # only the scored detection


class TestAveragePrecision:
    def test_tp_fp_tp_integration(self):
        gts = [gt(box=(0, 0, 10, 10)), gt(box=(100, 100, 110, 110))]
        dets = [
            det(confidence=0.9, box=(0, 0, 10, 10)),
            det(confidence=0.8, box=(50, 50, 60, 60)),
            det(confidence=0.7, box=(100, 100, 110, 110)),
        ]
        ap = average_precision(pr_curve(gts, dets, 0, 0.5))
        # 0.5 * 1.0 + 0.5 * (2/3), hand-integrated envelope
        assert ap == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-12)

    def test_single_covering_tp(self):
        assert average_precision(pr_curve([gt()], [det()], 0, 0.5)) == 1.0

    def test_all_false_positives(self):
        dets = [det(confidence=0.9, box=(50, 50, 60, 60))]
        assert average_precision(pr_curve([gt()], dets, 0, 0.5)) == 0.0

    def test_empty_curve(self):
        assert average_precision(pr_curve([gt()], [], 0, 0.5)) == 0.0

    def test_no_positives_undefined(self):
        assert average_precision(pr_curve([], [det()], 0, 0.5)) is None
        assert average_precision(PRCurve(0, (), 0, (), 0)) is None

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(4242)
        for _ in range(200):
            gts, dets = random_instance(rng, with_ignores=True)
            got = average_precision(pr_curve(gts, dets, 0, 0.5))
            expected = class_ap(
                [to_oracle_gt(g) for g in gts], [to_oracle_det(d) for d in dets], 0, 0.5
            )
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-9)

    def test_points_match_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            gts, dets = random_instance(rng, with_ignores=True)
            curve = pr_curve(gts, dets, 0, 0.5)
            points, n_pos = class_pr_points(
                [to_oracle_gt(g) for g in gts], [to_oracle_det(d) for d in dets], 0, 0.5
            )
            assert curve.n_positives == n_pos
            assert len(curve.points) == len(points)
            for (gr, gp), (er, ep) in zip(curve.points, points):
                assert gr == pytest.approx(er, abs=1e-12)
                assert gp == pytest.approx(ep, abs=1e-12)


class TestMeanAp:
    def test_simple_mean(self):
        value, excluded = mean_ap({0: 1.0, 1: 0.5})
        assert value == 0.75 and excluded == []

    def test_published_class_values(self):
        value, _ = mean_ap({0: 0.556, 1: 0.556, 2: 0.362, 3: 0.155})
        assert value == pytest.approx(0.40725, abs=1e-12)

    def test_undefined_excluded_with_warning(self):
        value, excluded = mean_ap({0: 0.7, 1: None})
        assert value == 0.7 and excluded == [1]

    def test_all_undefined_is_error(self):
        with pytest.raises(VruEvalError, match="no scorable classes"):
            mean_ap({0: None, 1: None})


def test_oracle_self_check_envelope():
    # the oracle's integrator on a hand case: points (0.5, 1.0), (1.0, 0.5)
    assert ap_from_points([(0.5, 1.0), (1.0, 0.5)]) == pytest.approx(0.75)


@pytest.mark.parametrize(
    "cut", [0.0, 0.2, 0.5, 0.999, 1.0, pytest.param(None, id="at-a-detection")]
)
def test_confusion_matches_oracle(cut):
    # the oracle matches each image's cut detections from scratch; the library
    # reads the same counts off the full ranked sweep
    rng = random.Random(555)
    for _ in range(100):
        gts, dets = random_instance(rng, with_ignores=True)
        conf_thresh = cut
        if cut is None:
            conf_thresh = rng.choice(dets).confidence if dets else 0.5
        counts = confusion_at_threshold(gts, dets, 1, 0.5, conf_thresh)
        expected = class_confusion(
            [to_oracle_gt(g) for g in gts], [to_oracle_det(d) for d in dets], 0, 0.5, conf_thresh
        )
        assert (counts[0].tp, counts[0].fp, counts[0].fn) == expected
