import random

import pytest

from helpers import det, gt, image_rows, random_instance
from oracle import ap_from_points, class_ap, class_confusion, class_pr_points
from vrueval.errors import ContractError, VruEvalError
from vrueval.matching import FP, IGNORED, TP
from vrueval.metrics import (
    ConfusionCounts,
    PRCurve,
    average_precision,
    f1,
    mean_ap,
    precision,
    recall,
    sweep_images,
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
        counts = sweep_images(image_rows(gts, dets), 1, 0.5)[0].counts_at(0.2)
        assert counts == ConfusionCounts(1, 0, 1)

    def test_no_detections(self):
        gts = [gt(), gt(box=(20, 20, 30, 30)), gt(box=(40, 40, 50, 50))]
        counts = sweep_images(image_rows(gts, []), 1, 0.5)[0].counts_at(0.2)
        assert counts == ConfusionCounts(0, 0, 3)

    def test_no_ground_truth(self):
        dets = [det(), det(box=(20, 20, 30, 30))]
        counts = sweep_images(image_rows([], dets), 1, 0.5)[0].counts_at(0.2)
        assert counts == ConfusionCounts(0, 2, 0)

    def test_exact_threshold_kept(self):
        curve = sweep_images(image_rows([gt()], [det(confidence=0.2)]), 1, 0.5)[0]
        assert curve.counts_at(0.2).tp == 1

    def test_per_class_separation(self):
        gts = [gt(class_id=0), gt(class_id=1, box=(20, 20, 30, 30))]
        dets = [det(class_id=0), det(class_id=1, box=(100, 100, 110, 110))]
        counts = [c.counts_at(0.2) for c in sweep_images(image_rows(gts, dets), 2, 0.5)]
        assert counts[0] == ConfusionCounts(1, 0, 0)
        assert counts[1] == ConfusionCounts(0, 1, 1)

    def test_tp_plus_fn_is_scorable_count(self):
        rng = random.Random(7)
        for _ in range(50):
            gts, dets = random_instance(rng, with_ignores=True)
            scorable = sum(1 for g in gts if not g["ignore"])
            counts = sweep_images(image_rows(gts, dets), 1, 0.5)[0].counts_at(0.2)
            assert counts.tp + counts.fn == scorable

    def test_ignore_records_of_any_class_accepted(self):
        # an ignore record's class id is never read: its region, a row under
        # IGNORE_CLASS_ID, suppresses the detections of every class
        regions = [gt(class_id=c, box=(0, 0, 10, 10), ignore=True) for c in (-1, 0, 7)]
        dets = [
            det(confidence=0.9, box=(1, 1, 9, 9)),
            det(class_id=1, confidence=0.85, box=(1, 1, 9, 9)),
            det(confidence=0.8, box=(50, 50, 60, 60)),
        ]
        curves = sweep_images(image_rows([*regions, gt(box=(50, 50, 60, 60))], dets), 2, 0.5)
        assert [c.fates for c in curves] == [(IGNORED, TP), (IGNORED,)]
        assert [c.counts_at(0.2) for c in curves] == [
            ConfusionCounts(1, 0, 0),
            ConfusionCounts(0, 0, 0),
        ]


def cumulative(fates):
    """(TP, FP) after each fate that is not IGNORED."""
    counts = []
    tp = fp = 0
    for fate in fates:
        if fate != IGNORED:
            tp += fate == TP
            fp += fate == FP
            counts.append((tp, fp))
    return counts


class TestPRCurve:
    def test_tp_fp_tp_fates(self):
        gts = [gt(box=(0, 0, 10, 10)), gt(box=(100, 100, 110, 110))]
        dets = [
            det(confidence=0.9, box=(0, 0, 10, 10)),
            det(confidence=0.8, box=(50, 50, 60, 60)),
            det(confidence=0.7, box=(100, 100, 110, 110)),
        ]
        curve = sweep_images(image_rows(gts, dets), 1, 0.5)[0]
        assert curve.n_positives == 2
        assert curve.fates == (TP, FP, TP)

    def test_zero_detections(self):
        curve = sweep_images(image_rows([gt()], []), 1, 0.5)[0]
        assert curve.fates == ()
        assert curve.n_positives == 1

    def test_all_tp_ends_at_one_one(self):
        gts = [gt(box=(i * 20, 0, i * 20 + 10, 10)) for i in range(3)]
        dets = [
            det(confidence=0.9 - 0.1 * i, box=(i * 20, 0, i * 20 + 10, 10)) for i in range(3)
        ]
        curve = sweep_images(image_rows(gts, dets), 1, 0.5)[0]
        assert curve.fates == (TP,) * 3

    def test_recall_non_decreasing(self):
        rng = random.Random(99)
        for _ in range(100):
            gts, dets = random_instance(rng)
            curve = sweep_images(image_rows(gts, dets), 1, 0.5)[0]
            recalls = [tp / (curve.n_positives or 1) for tp, _ in cumulative(curve.fates)]
            assert recalls == sorted(recalls)

    def test_confidences_follow_fates(self):
        gts = [gt(box=(0, 0, 10, 10))]
        dets = [det(confidence=0.3, box=(50, 50, 60, 60)), det(confidence=0.7)]
        curve = sweep_images(image_rows(gts, dets), 1, 0.5)[0]
        assert curve.confidences == (0.7, 0.3)
        assert curve.fates == (TP, FP)

    def test_images_count_scorable_ground_truth_only(self):
        gts = [
            gt("a"),
            gt("a", box=(20, 20, 30, 30)),
            gt("b", class_id=1),
            gt("c", class_id=-1, ignore=True),
        ]
        assert sweep_images(image_rows(gts, [det("d")]), 3, 0.5)[0].n_images == 1
        assert [c.n_images for c in sweep_images(image_rows(gts, []), 3, 0.5)] == [1, 1, 0]

    def test_other_classes_left_out(self):
        gts = [gt(box=(0, 0, 10, 10)), gt(class_id=7, box=(50, 50, 60, 60))]
        dets = [det(class_id=7, confidence=0.95, box=(50, 50, 60, 60)), det(confidence=0.5)]
        curve = sweep_images(image_rows(gts, dets), 8, 0.5)[0]
        assert curve == sweep_images(image_rows(gts[:1], dets[1:]), 8, 0.5)[0]
        assert (curve.fates, curve.n_positives) == ((TP,), 1)

    def test_suppressed_detections_are_ignored(self):
        region = gt(class_id=-1, box=(0, 0, 10, 10), ignore=True)
        dets = [det(confidence=0.9, box=(1, 1, 9, 9)), det(confidence=0.8, box=(50, 50, 60, 60))]
        curve = sweep_images(image_rows([region, gt(box=(50, 50, 60, 60))], dets), 1, 0.5)[0]
        assert curve.fates == (IGNORED, TP)
        assert cumulative(curve.fates) == [(1, 0)]  # only the scored detection
        assert curve.counts_at(0.0) == ConfusionCounts(1, 0, 0)


class TestSweepClassIds:
    """A ground truth or a detection carries a class id in ``[0, k)``; ignore
    regions come in their own list and carry none."""

    BOX = (0.0, 0.0, 10.0, 10.0)

    @pytest.mark.parametrize(
        "truth_id, det_id, fault",
        [
            (-2, 0, "ground-truth class id -2 is not in [0, 2)"),
            (-1, 0, "ground-truth class id -1 is not in [0, 2)"),
            (2, 0, "ground-truth class id 2 is not in [0, 2)"),
            (0, 2, "detection class id 2 is not in [0, 2)"),
            (0, -1, "detection class id -1 is not in [0, 2)"),
        ],
        ids=[
            "truth-minus-two", "truth-ignore", "truth-num-classes", "detection-num-classes",
            "detection-ignore",
        ],
    )
    def test_out_of_range_class_id_is_a_contract_error(self, truth_id, det_id, fault):
        images = [
            ([(0, *self.BOX)], [], [(1, 0.5, *self.BOX)]),
            ([(truth_id, *self.BOX)], [], [(det_id, 0.9, *self.BOX)]),
        ]
        with pytest.raises(ContractError) as info:
            sweep_images(images, 2, 0.5)
        assert str(info.value) == f"image 1 of the feed: {fault}"

    def test_first_bad_row_is_named(self):
        truths = [(0, *self.BOX), (5, *self.BOX), (-3, *self.BOX)]
        with pytest.raises(ContractError, match="ground-truth class id 5 is not in"):
            sweep_images([(truths, [], [(7, 0.9, *self.BOX)])], 2, 0.5)

    def test_ignore_regions_and_every_class_accepted(self):
        images = [([(0, *self.BOX), (1, *self.BOX)], [self.BOX], [(1, 0.9, *self.BOX)])]
        assert [c.n_positives for c in sweep_images(images, 2, 0.5)] == [1, 1]


class TestAveragePrecision:
    def test_tp_fp_tp_integration(self):
        gts = [gt(box=(0, 0, 10, 10)), gt(box=(100, 100, 110, 110))]
        dets = [
            det(confidence=0.9, box=(0, 0, 10, 10)),
            det(confidence=0.8, box=(50, 50, 60, 60)),
            det(confidence=0.7, box=(100, 100, 110, 110)),
        ]
        ap = average_precision(sweep_images(image_rows(gts, dets), 1, 0.5)[0])
        # 0.5 * 1.0 + 0.5 * (2/3), hand-integrated envelope
        assert ap == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-12)

    def test_single_covering_tp(self):
        assert average_precision(sweep_images(image_rows([gt()], [det()]), 1, 0.5)[0]) == 1.0

    def test_all_false_positives(self):
        dets = [det(confidence=0.9, box=(50, 50, 60, 60))]
        assert average_precision(sweep_images(image_rows([gt()], dets), 1, 0.5)[0]) == 0.0

    def test_empty_curve(self):
        assert average_precision(sweep_images(image_rows([gt()], []), 1, 0.5)[0]) == 0.0

    def test_no_positives_undefined(self):
        assert average_precision(sweep_images(image_rows([], [det()]), 1, 0.5)[0]) is None
        assert average_precision(PRCurve(0, (), 0, (), 0)) is None

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(4242)
        for _ in range(200):
            gts, dets = random_instance(rng, with_ignores=True)
            got = average_precision(sweep_images(image_rows(gts, dets), 1, 0.5)[0])
            expected = class_ap(gts, dets, 0, 0.5)
            if expected is None:
                assert got is None
            else:
                assert got == expected

    def test_points_match_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            gts, dets = random_instance(rng, with_ignores=True)
            curve = sweep_images(image_rows(gts, dets), 1, 0.5)[0]
            points, n_pos = class_pr_points(gts, dets, 0, 0.5)
            assert curve.n_positives == n_pos
            assert points == [
                (tp / n_pos if n_pos else 0.0, tp / (tp + fp))
                for tp, fp in cumulative(curve.fates)
            ]


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
            conf_thresh = rng.choice(dets)["confidence"] if dets else 0.5
        counts = sweep_images(image_rows(gts, dets), 1, 0.5)[0].counts_at(conf_thresh)
        expected = class_confusion(gts, dets, 0, 0.5, conf_thresh)
        assert (counts.tp, counts.fp, counts.fn) == expected
