"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criterion 2 carries one documented exception: the published
headline mAP improvement (+31.86%) is not reproducible from the stated
table values (the arithmetic gives +31.887%, 0.027 points away), so that
single assertion is a strict expected failure; the correct-arithmetic
value and the rest of criterion 2 are asserted normally.
"""

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import det, fixtures_root, gt, image_rows, read_records
from oracle import class_ap, evaluation_report
from vrueval.benchmark import (
    compare_models,
    computational_time,
    continual_scenario,
    f1_formula_note,
    load_run_file,
    map_mean_note,
)
from vrueval.cli import main
from vrueval.dataset import convert_dataset, load_manifest
from vrueval.annotations import ClassMap, parse_box_rows
from vrueval.metrics import average_precision, f1, mean_ap, precision, recall, sweep_images

DATA = Path(__file__).parents[1] / "data"
FIXTURES = fixtures_root()


def passed(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. Improvement reproduction (runtime < 1 s)
# ---------------------------------------------------------------------------


def test_criterion1_improvement_reproduction():
    start = time.perf_counter()
    records, _ = load_run_file(DATA / "model_benchmark.yaml")
    vs_v5x = compare_models(records, baseline="yolov5x").improvements["yolov8x"]
    vs_v7x = compare_models(records, baseline="yolov7x").improvements["yolov8x"]
    checks = [
        (vs_v5x["f1"].percent, 12.14),
        (vs_v5x["map50"].percent, 45.61),
        (vs_v7x["f1"].percent, 21.26),
        (vs_v7x["map50"].percent, 128.44),
    ]
    for got, published in checks:
        assert abs(got - published) <= 0.01, (got, published)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(1, f"four improvement figures within 0.01 points ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 2. Continual-learning reproduction (runtime < 1 s)
# ---------------------------------------------------------------------------


def test_criterion2_continual_reproduction():
    start = time.perf_counter()
    records, _ = load_run_file(DATA / "continual_runs.yaml")
    report = continual_scenario(records, epsilon=0.02)
    f1_cell = report.improvement("f1", "sequential-adam", "sequential-sgd")
    assert abs(f1_cell.percent - 21.08) <= 0.01
    flags = {flag.run: flag.flagged for flag in report.flags}
    assert flags["sequential-adam"] is True
    # the mAP cell follows its stated inputs exactly: 100 * 0.147 / 0.461
    map_cell = report.improvement("map50", "sequential-adam", "sequential-sgd")
    assert map_cell.percent == pytest.approx(100.0 * 0.147 / 0.461, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(
        2,
        "f1 +21.08 within 0.01 points; forgetting flag raised at eps=0.02; "
        f"mAP cell computed as +{map_cell.percent:.2f} from stated inputs "
        f"({elapsed:.3f}s) -- published +31.86 tracked as a strict xfail",
    )


@pytest.mark.xfail(
    strict=True,
    reason="published figure not derivable from its stated inputs: "
    "100*(0.608-0.461)/0.461 = +31.887%, which is 0.027 points from the "
    "published +31.86% (tolerance 0.01); every other published improvement "
    "figure reproduces within tolerance",
)
def test_criterion2_published_map_figure():
    records, _ = load_run_file(DATA / "continual_runs.yaml")
    report = continual_scenario(records)
    map_cell = report.improvement("map50", "sequential-adam", "sequential-sgd")
    assert abs(map_cell.percent - 31.86) <= 0.01


# ---------------------------------------------------------------------------
# 3. Throughput model (runtime < 1 s)
# ---------------------------------------------------------------------------


def test_criterion3_throughput_model():
    start = time.perf_counter()
    cells = [
        (4.55, 6.59),
        (175, 0.17),
        (24, 1.25),
        (290, 0.10),
        (46, 0.65),
        (625, 0.048),
        (101, 0.297),
    ]
    for fps, published in cells:
        assert abs(computational_time(fps) - published) <= 0.005, (fps, published)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(3, f"seven computational-time cells within 0.005 s ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 4. AP oracle equivalence on >= 1000 random instances (runtime < 30 s)
# ---------------------------------------------------------------------------


def _random_instance(rng: random.Random):
    images = [f"im{i}" for i in range(rng.randint(1, 2))]

    def box():
        x0 = rng.randrange(0, 80) / 2.0
        y0 = rng.randrange(0, 80) / 2.0
        return (x0, y0, x0 + rng.randrange(2, 40) / 2.0, y0 + rng.randrange(2, 40) / 2.0)

    gts = [gt(rng.choice(images), 0, box()) for _ in range(rng.randint(0, 8))]
    for _ in range(rng.randint(0, 2)):
        gts.append(gt(rng.choice(images), -1, box(), ignore=True))
    confs = rng.sample(range(1, 1000), rng.randint(0, 15))
    dets = [det(rng.choice(images), 0, c / 1000.0, box()) for c in confs]
    return gts, dets


def test_criterion4_ap_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20250810)
    n_instances = 1200
    thresholds = (0.3, 0.5, 0.7)
    for i in range(n_instances):
        gts, dets = _random_instance(rng)
        thresh = thresholds[i % len(thresholds)]
        got = average_precision(sweep_images(image_rows(gts, dets), 1, thresh)[0])
        expected = class_ap(gts, dets, 0, thresh)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) <= 1e-9, (i, got, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(4, f"{n_instances} random instances match the brute-force AP oracle ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 5. Metric property suite, >= 500 cases per property (runtime < 60 s total)
# ---------------------------------------------------------------------------

_CRITERION5_TIMES: list[float] = []
_PROPERTY_SETTINGS = settings(max_examples=500, deadline=None)

coord = st.integers(0, 80).map(lambda v: v / 2.0)
extent = st.integers(2, 40).map(lambda v: v / 2.0)


@st.composite
def instances(draw, with_ignores=True):
    n_images = draw(st.integers(1, 2))
    images = [f"im{i}" for i in range(n_images)]

    def draw_box():
        x0, y0 = draw(coord), draw(coord)
        return (x0, y0, x0 + draw(extent), y0 + draw(extent))

    gts = [
        gt(images[draw(st.integers(0, n_images - 1))], 0, draw_box())
        for _ in range(draw(st.integers(0, 8)))
    ]
    if with_ignores:
        for _ in range(draw(st.integers(0, 2))):
            gts.append(gt(images[0], -1, draw_box(), ignore=True))
    confs = draw(st.lists(st.integers(1, 999), max_size=15, unique=True))
    dets = [
        det(images[draw(st.integers(0, n_images - 1))], 0, c / 1000.0, draw_box())
        for c in confs
    ]
    return gts, dets


def _timed(fn):
    start = time.perf_counter()
    fn()
    _CRITERION5_TIMES.append(time.perf_counter() - start)


def test_criterion5_bounds():
    @_PROPERTY_SETTINGS
    @given(instance=instances())
    def prop(instance):
        gts, dets = instance
        counts = sweep_images(image_rows(gts, dets), 1, 0.5)[0].counts_at(0.2)
        p, r = precision(counts), recall(counts)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
        assert 0.0 <= f1(p, r) <= 1.0
        ap = average_precision(sweep_images(image_rows(gts, dets), 1, 0.5)[0])
        if ap is not None:
            assert 0.0 <= ap <= 1.0
            value, _ = mean_ap({0: ap})
            assert 0.0 <= value <= 1.0

    _timed(prop)


def test_criterion5_tp_plus_fn_identity():
    @_PROPERTY_SETTINGS
    @given(instance=instances())
    def prop(instance):
        gts, dets = instance
        scorable = sum(1 for g in gts if not g["ignore"])
        counts = sweep_images(image_rows(gts, dets), 1, 0.5)[0].counts_at(0.2)
        assert counts.tp + counts.fn == scorable

    _timed(prop)


def test_criterion5_f1_harmonic_bound():
    @_PROPERTY_SETTINGS
    @given(instance=instances())
    def prop(instance):
        gts, dets = instance
        counts = sweep_images(image_rows(gts, dets), 1, 0.5)[0].counts_at(0.2)
        p, r = precision(counts), recall(counts)
        assert f1(p, r) <= (p + r) / 2 + 1e-12

    _timed(prop)


def test_criterion5_ap_rank_invariance():
    @_PROPERTY_SETTINGS
    @given(instance=instances())
    def prop(instance):
        gts, dets = instance
        base = average_precision(sweep_images(image_rows(gts, dets), 1, 0.5)[0])
        # strictly monotone rescalings that preserve distinctness exactly:
        # halving (power of two) and squaring on the 1/1000 confidence grid
        for rescale in (lambda c: c / 2.0, lambda c: c * c):
            rescaled = [
                det(d["image_id"], d["class_id"], rescale(d["confidence"]), d["box"])
                for d in dets
            ]
            assert average_precision(sweep_images(image_rows(gts, rescaled), 1, 0.5)[0]) == base

    _timed(prop)


def test_criterion5_ap_monotone_in_iou_threshold():
    @_PROPERTY_SETTINGS
    @given(instance=instances(with_ignores=False), pair=st.tuples(st.integers(2, 9), st.integers(2, 9)))
    def prop(instance, pair):
        gts, dets = instance
        lo, hi = sorted(pair)
        if lo == hi:
            hi = lo + 1 if lo < 9 else 9
            lo = hi - 1
        ap_lo = average_precision(sweep_images(image_rows(gts, dets), 1, lo / 10.0)[0])
        ap_hi = average_precision(sweep_images(image_rows(gts, dets), 1, hi / 10.0)[0])
        if ap_lo is None:
            assert ap_hi is None
        else:
            assert ap_lo >= ap_hi - 1e-12

    _timed(prop)


def test_criterion5_runtime_budget():
    total = sum(_CRITERION5_TIMES)
    assert len(_CRITERION5_TIMES) == 5
    assert total < 60.0
    passed(5, f"five randomized property suites, 500 cases each ({total:.2f}s total)")


# ---------------------------------------------------------------------------
# 6. Conversion round-trip (runtime < 5 s)
# ---------------------------------------------------------------------------


def test_criterion6_conversion_round_trip(tmp_path):
    start = time.perf_counter()
    vru = ClassMap.visdrone_default()
    src = FIXTURES / "visdrone_mini"

    def tree(out):
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(Path(out).rglob("*"))
            if p.is_file()
        }

    manifest = convert_dataset(src, vru, tmp_path / "w1", split="val", workers=1)
    trees = [tree(tmp_path / "w1")]
    for label, workers in (("w1b", 1), ("w4", 4), ("w8", 8)):
        convert_dataset(src, vru, tmp_path / label, split="val", workers=workers)
        trees.append(tree(tmp_path / label))
    assert all(t == trees[0] for t in trees[1:])

    # every kept source box recovered within 1e-4 px
    expected_boxes = {
        "0000001": [(684, 8, 784, 108), (10, 10, 70, 90), (400, 100, 430, 160)],
        "0000002": [(20, 30, 120, 150)],
        "0000003": [],
    }
    for img in manifest.images:
        rows = parse_box_rows(
            manifest.label_file(img).read_text(), 1, img.dims, len(manifest.class_names)
        )
        expected = expected_boxes[img.image_id]
        assert len(rows) == len(expected)
        for (_, *got), corners in zip(rows, expected):
            for g, e in zip(got, corners):
                assert abs(g - e) <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passed(
        6,
        "round-trip within 1e-4 px; byte-identical across reruns and "
        f"thread counts 1/4/8 ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 7. End-to-end micro-dataset vs committed oracle (runtime < 1 s)
# ---------------------------------------------------------------------------


def test_criterion7_end_to_end_micro_dataset(capsys, tmp_path):
    start = time.perf_counter()
    micro = FIXTURES / "micro"
    code = main(
        [
            "--format",
            "structured",
            "eval",
            str(micro / "manifest.json"),
            str(micro / "detections"),
        ]
    )
    cli_report = json.loads(capsys.readouterr().out)
    assert code == 0

    # independent brute-force recomputation from the fixture files
    manifest = load_manifest(micro / "manifest.json")
    gts, dets = read_records(manifest, micro / "detections")
    oracle_report = evaluation_report(
        gts, dets, manifest.class_names, len(manifest.images), 0.5, 0.2
    )
    assert cli_report == oracle_report
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(7, f"cmd_eval report equals the brute-forced report exactly ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 8. Documented-inconsistency guards
# ---------------------------------------------------------------------------


def test_criterion8_inconsistency_guards():
    records, _ = load_run_file(DATA / "model_benchmark.yaml")
    v8x = next(r for r in records if r.name == "yolov8x")
    note = f1_formula_note(v8x)
    assert note is not None, "stated F1 0.462 vs formula value must be flagged"
    assert "0.4620" in note and "0.5930" in note

    import yaml

    flagged = []
    for name in ("classwise_visdrone.yaml", "classwise_caltech.yaml"):
        doc = yaml.safe_load((DATA / name).read_text())
        class_aps = {row["name"]: row["map50"] for row in doc["classes"]}
        note = map_mean_note(class_aps, doc["overall_map50"], doc["dataset"])
        assert note is not None, f"{name}: stated overall mAP vs class mean must be flagged"
        flagged.append(note)
    assert "0.40725" in flagged[0]
    assert "0.44525" in flagged[1]
    passed(8, "stated-F1 and overall-mAP inconsistencies flagged, not reconciled")
