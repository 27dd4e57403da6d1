import json
import random
import re
import shutil
import types

import pytest

from helpers import det, fixtures_root, grid_box, gt, image_rows, random_box, read_records
from oracle import class_ap, class_confusion, evaluation_report
from vrueval.dataset import load_manifest
from vrueval.errors import ParseError, VruEvalError
from vrueval.evaluate import evaluate
from vrueval.metrics import average_precision, sweep_images

MICRO = fixtures_root() / "micro"

# Frozen from the committed brute-force oracle (tests/oracle.py) run on the
# micro fixture; see test_report_equals_oracle for the live recomputation.
MICRO_EXPECTED = {
    "config": {"iou_thresh": 0.5, "conf_thresh": 0.2},
    "classes": [
        {
            "class_id": 0,
            "name": "pedestrian",
            "images": 3,
            "instances": 4,
            "precision": 0.5,
            "recall": 0.5,
            "f1": 0.5,
            "ap50": 0.55,
        },
        {
            "class_id": 1,
            "name": "people",
            "images": 2,
            "instances": 3,
            "precision": 0.666667,
            "recall": 0.666667,
            "f1": 0.666667,
            "ap50": 0.666667,
        },
    ],
    "all": {
        "class_id": None,
        "name": "all",
        "images": 3,
        "instances": 7,
        "precision": 0.571429,
        "recall": 0.571429,
        "f1": 0.571429,
        "ap50": 0.608333,
    },
    "warnings": [],
}


@pytest.fixture(scope="module")
def micro_manifest():
    return load_manifest(MICRO / "manifest.json")


class TestMicroFixture:
    def test_report_equals_frozen_values(self, micro_manifest):
        report = evaluate(micro_manifest, MICRO / "detections")
        assert report.to_dict() == MICRO_EXPECTED

    def test_report_equals_oracle(self, micro_manifest):
        gts, dets = read_records(micro_manifest, MICRO / "detections")
        expected = evaluation_report(
            gts,
            dets,
            micro_manifest.class_names,
            len(micro_manifest.images),
            0.5,
            0.2,
        )
        report = evaluate(micro_manifest, MICRO / "detections")
        assert report.to_dict() == expected

    def test_deterministic_serialization(self, micro_manifest):
        a = json.dumps(evaluate(micro_manifest, MICRO / "detections").to_dict())
        b = json.dumps(evaluate(micro_manifest, MICRO / "detections").to_dict())
        assert a == b

    def test_ignore_region_suppresses_detection(self, micro_manifest, tmp_path):
        # without the ignore sidecar the suppressed detection becomes an FP
        root = tmp_path / "micro"
        shutil.copytree(MICRO, root)
        for path in (root / "labels").rglob("*.ignore"):
            path.unlink()
        assert any((MICRO / "labels").rglob("*.ignore"))
        with_ignore = evaluate(micro_manifest, MICRO / "detections")
        without = evaluate(load_manifest(root / "manifest.json"), root / "detections")
        assert with_ignore.classes[0].precision > without.classes[0].precision


class TestDegenerateDetectors:
    def test_perfect_detector(self, micro_manifest, tmp_path):
        # detections = every scorable ground truth at confidence 1.0
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        for img in micro_manifest.images:
            lines = []
            for line in micro_manifest.label_file(img).read_text().splitlines():
                parts = line.split()
                if parts:
                    lines.append(f"{parts[0]} 1.000000 {' '.join(parts[1:])}\n")
            (det_dir / f"{img.image_id}.txt").write_text("".join(lines))
        report = evaluate(micro_manifest, det_dir)
        for row in (*report.classes, report.all_row):
            assert row.precision == 1.0
            assert row.recall == 1.0
            assert row.f1 == 1.0
            assert row.ap == 1.0

    def test_empty_detections(self, micro_manifest, tmp_path):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        for img in micro_manifest.images:
            (det_dir / f"{img.image_id}.txt").write_text("")
        report = evaluate(micro_manifest, det_dir)
        assert report.all_row.precision == 0.0
        assert report.all_row.recall == 0.0
        assert report.all_row.ap == 0.0


class TestErrors:
    def test_missing_detection_file_lists_ids(self, micro_manifest, tmp_path):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        (det_dir / "img1.txt").write_text("")
        with pytest.raises(VruEvalError, match="img2, img3"):
            evaluate(micro_manifest, det_dir)

    def test_records_of_unknown_class_rejected(self, tmp_path):
        # class ids are checked as the files are read: a label or a detection of
        # class 7 against one class is a parse error naming its file and line
        (tmp_path / "labels").mkdir()
        label = tmp_path / "labels" / "a.txt"
        (tmp_path / "manifest.json").write_text(
            '{"split": "t", "class_names": ["pedestrian"], "images": ['
            '{"image_id": "a", "width": 100, "height": 100, "label_path": "labels/a.txt"}]}'
        )
        (tmp_path / "dets").mkdir()
        detections = tmp_path / "dets" / "a.txt"
        fault = "class id 7 out of range for 1 configured classes"
        label.write_text("0 0.5 0.5 0.2 0.2\n7 0.5 0.5 0.2 0.2\n")
        detections.write_text("0 0.9 0.5 0.5 0.2 0.2\n")
        manifest = load_manifest(tmp_path / "manifest.json")
        with pytest.raises(ParseError, match=re.escape(f"{label}:2: {fault}")):
            evaluate(manifest, tmp_path / "dets")
        label.write_text("0 0.5 0.5 0.2 0.2\n")
        detections.write_text("0 0.9 0.5 0.5 0.2 0.2\n7 0.95 0.5 0.5 0.2 0.2\n")
        with pytest.raises(ParseError, match=re.escape(f"{detections}:2: {fault}")):
            evaluate(manifest, tmp_path / "dets")

    def test_no_scorable_classes(self, tmp_path):
        (tmp_path / "labels").mkdir()
        (tmp_path / "labels" / "a.txt").write_text("")
        (tmp_path / "manifest.json").write_text(
            '{"split": "t", "class_names": ["c0"], "images": ['
            '{"image_id": "a", "width": 100, "height": 100, "label_path": "labels/a.txt"}]}'
        )
        (tmp_path / "dets").mkdir()
        (tmp_path / "dets" / "a.txt").write_text("")
        with pytest.raises(VruEvalError, match="no scorable classes"):
            evaluate(load_manifest(tmp_path / "manifest.json"), tmp_path / "dets")


def test_zero_instance_class_warned(tmp_path):
    (tmp_path / "labels").mkdir()
    (tmp_path / "labels" / "a.txt").write_text("0 0.5 0.5 0.2 0.2\n")
    (tmp_path / "manifest.json").write_text(
        '{"split": "t", "class_names": ["c0", "c1"], "images": ['
        '{"image_id": "a", "width": 100, "height": 100, "label_path": "labels/a.txt"}]}'
    )
    (tmp_path / "dets").mkdir()
    (tmp_path / "dets" / "a.txt").write_text("0 0.9 0.5 0.5 0.2 0.2\n")
    report = evaluate(load_manifest(tmp_path / "manifest.json"), tmp_path / "dets")
    assert report.all_row.ap == 1.0  # mean over the single defined class
    assert any("c1" in w for w in report.warnings)
    assert report.classes[1].ap is None


def write_random_dataset(rng, root, box, width, height):
    """A random two-class dataset on disk: manifest, labels, sidecars, detections.

    Confidences come from four values, so ties are frequent.
    """

    def norm(b):
        x0, y0, x1, y1 = b
        return f"{(x0 + x1) / (2 * width)!r} {(y0 + y1) / (2 * height)!r} " \
            f"{(x1 - x0) / width!r} {(y1 - y0) / height!r}"

    (root / "labels").mkdir(parents=True)
    (root / "dets").mkdir()
    images = []
    for i in range(rng.randint(1, 3)):
        image_id = f"im{i}"
        labels = [f"{rng.randint(0, 1)} {norm(box(rng))}\n" for _ in range(rng.randint(0, 6))]
        if i == 0:
            labels.append(f"0 {norm(box(rng))}\n")  # at least one scorable class
        (root / "labels" / f"{image_id}.txt").write_text("".join(labels))
        regions = [f"{norm(box(rng))}\n" for _ in range(rng.choice((0, 0, 1, 2)))]
        if regions:
            (root / "labels" / f"{image_id}.ignore").write_text("".join(regions))
        dets = [
            f"{rng.randint(0, 1)} {rng.choice((0.25, 0.5, 0.75, 1.0))} {norm(box(rng))}\n"
            for _ in range(rng.randint(0, 12))
        ]
        (root / "dets" / f"{image_id}.txt").write_text("".join(dets))
        images.append(
            {"image_id": image_id, "width": width, "height": height,
             "label_path": f"labels/{image_id}.txt"}
        )
    (root / "manifest.json").write_text(
        json.dumps({"split": "t", "class_names": ["c0", "c1"], "images": images})
    )
    return load_manifest(root / "manifest.json")


@pytest.mark.parametrize("box, width, height", [(random_box, 100, 100), (grid_box, 6, 6)])
def test_rows_path_equals_oracle(tmp_path, box, width, height):
    rng = random.Random(2024)
    for n in range(60):
        root = tmp_path / str(n)
        manifest = write_random_dataset(rng, root, box, width, height)
        gts, dets = read_records(manifest, root / "dets")
        conf_thresh = (0.0, 0.5, 0.75)[n % 3]
        report = evaluate(manifest, root / "dets", 0.5, conf_thresh)
        assert report.to_dict() == evaluation_report(
            gts, dets, manifest.class_names, len(manifest.images), 0.5, conf_thresh
        )


@pytest.mark.parametrize("box", [random_box, grid_box])
def test_records_interleaving_images_with_tied_confidences_equal_oracle(box):
    # records of three images interleave, with two classes, ignore regions and
    # confidences tied across images; the sweep takes them image by image, as
    # detection files give them, and every class's AP and confusion counts must
    # equal the oracle's on the records in that feed order
    rng = random.Random(3141)
    images = ("a", "b", "c")
    for n in range(150):
        gts = [
            gt(rng.choice(images), rng.randrange(2), box(rng)) for _ in range(rng.randint(1, 10))
        ]
        gts += [
            gt(rng.choice(images), -1, box(rng), ignore=True) for _ in range(rng.randint(0, 2))
        ]
        rng.shuffle(gts)
        dets = [
            det(rng.choice(images), rng.randrange(2), rng.choice((0.3, 0.6, 0.9)), box(rng))
            for _ in range(rng.randint(0, 20))
        ]
        feed = list(dict.fromkeys(r["image_id"] for r in gts + dets))  # image_rows' order
        dets.sort(key=lambda d: feed.index(d["image_id"]))  # stable: grouped by image
        conf_thresh = (0.2, 0.6)[n % 2]
        for curve in sweep_images(image_rows(gts, dets), 2, 0.5):
            assert average_precision(curve) == class_ap(gts, dets, curve.class_id, 0.5)
            counts = curve.counts_at(conf_thresh)
            expected = class_confusion(gts, dets, curve.class_id, 0.5, conf_thresh)
            assert (counts.tp, counts.fp, counts.fn) == expected


def test_stray_detection_files_warned(micro_manifest, tmp_path):
    det_dir = tmp_path / "dets"
    shutil.copytree(MICRO / "detections", det_dir)
    (det_dir / "zzz.txt").write_text("0 0.5 0.5 0.5 0.1 0.1\n")
    (det_dir / "aaa.txt").write_text("")
    (det_dir / "notes.md").write_text("")
    (det_dir / "sub.txt").mkdir()
    report = evaluate(micro_manifest, det_dir)
    assert report.warnings == (
        f"2 detection files in {det_dir} belong to no manifest image (first: aaa.txt); "
        "not evaluated",
    )
    assert report.classes == evaluate(micro_manifest, MICRO / "detections").classes


def test_package_attribute_is_the_evaluate_module():
    import vrueval
    import vrueval.evaluate as module

    assert isinstance(module, types.ModuleType)
    assert vrueval.evaluate is module
    assert module.evaluate is evaluate and callable(module.evaluate)
