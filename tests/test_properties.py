"""Cross-cutting invariants at default example counts.

The high-volume (500+ case) randomized suites required by the acceptance
gate live in test_acceptance.py; these are the remaining structural
invariants, kept cheap for day-to-day runs.
"""

import math

from hypothesis import given, strategies as st

from helpers import det, gt
from vrueval.annotations import IGNORE_CLASS_ID, ClassMap, parse_box_rows, parse_visdrone_file
from vrueval.dataset import convert_dataset
from vrueval.geometry import ImageDims, denormalize, normalize
from vrueval.metrics import ConfusionCounts, f1, precision, recall

counts = st.integers(min_value=0, max_value=50)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(tp=counts, fp=counts, fn=counts)
def test_point_metrics_bounded(tp, fp, fn):
    c = ConfusionCounts(tp, fp, fn)
    p, r = precision(c), recall(c)
    assert 0.0 <= p <= 1.0
    assert 0.0 <= r <= 1.0
    assert 0.0 <= f1(p, r) <= 1.0


# p and r are always ratios of confusion counts here, so draw them as such
# (arbitrary tiny floats can underflow 2*p*r, which this domain never produces)
ratio = st.tuples(counts, st.integers(1, 50)).map(lambda t: min(t[0], t[1]) / t[1])


@given(p=ratio, r=ratio)
def test_f1_zero_iff_either_zero(p, r):
    assert (f1(p, r) == 0.0) == (p == 0.0 or r == 0.0)


@given(p=unit, r=unit)
def test_f1_harmonic_below_arithmetic(p, r):
    assert f1(p, r) <= (p + r) / 2 + 1e-12


@given(
    seed=st.integers(0, 10_000),
    width=st.integers(50, 2000),
    height=st.integers(50, 2000),
)
def test_label_storage_round_trip_bound(seed, width, height):
    """Six-decimal storage keeps corners within 0.75e-6 of a dimension.

    (The fixture-based 1e-4 bound in the acceptance suite relies on
    dimension choices that make the stored fractions exact.)
    """
    import random

    rng = random.Random(seed)
    dims = ImageDims(width, height)
    x0 = rng.uniform(0, width * 0.8)
    y0 = rng.uniform(0, height * 0.8)
    box = (x0, y0, x0 + rng.uniform(0, width - x0), y0 + rng.uniform(0, height - y0))
    norm = normalize(*box, dims)
    stored = [float(f"{v:.6f}") for v in norm]
    back = denormalize(*stored, dims)
    tol = 0.75e-6 * max(width, height) + 1e-9
    for a, b in zip(box, back):
        assert abs(a - b) <= tol


def test_label_files_never_contain_out_of_range_class(tmp_path):
    """Conversion output re-parses cleanly against the map's class count."""
    vru = ClassMap.visdrone_default()
    src = tmp_path / "src"
    (src / "images").mkdir(parents=True)
    (src / "annotations").mkdir()
    lines = []
    for i, cat in enumerate([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]):
        lines.append(f"{10 + i * 20},10,10,10,0,{cat},0,0\n")
    (src / "images" / "a.jpg").write_bytes(b"")
    (src / "annotations" / "a.txt").write_text("".join(lines))
    (src / "dimensions.txt").write_text("a 400 250\n")
    manifest = convert_dataset(src, vru, tmp_path / "out", split="val")
    img = manifest.images[0]
    rows = parse_box_rows(
        manifest.label_file(img).read_text(), 1, img.dims, num_classes=vru.num_classes
    )
    assert {class_id for class_id, *_ in rows} == {0, 1, 2, 3}


@given(cat=st.integers(0, 11), left=st.integers(0, 100), top=st.integers(0, 100))
def test_visdrone_remap_partitions_categories(cat, left, top):
    vru = ClassMap.visdrone_default()
    line = f"{left},{top},10,10,0,{cat},0,0"
    rows = parse_visdrone_file(line, vru)
    if cat in vru.drop:
        assert rows == []
    elif cat in vru.ignore:
        assert rows[0][0] == IGNORE_CLASS_ID
    else:
        assert 0 <= rows[0][0] < vru.num_classes


def test_harmonic_mean_concrete():
    # spot anchor for the hypothesis bound above
    assert math.isclose(f1(0.2, 0.8), 0.32)
    assert f1(0.2, 0.8) <= 0.5


def test_records_helpers_shapes():
    assert gt()["image_id"] == "img"
    assert det()["confidence"] == 0.9
