from pathlib import Path

import pytest

from helpers import fixtures_root
from vrueval.annotations import ClassMap, parse_yolo_labels
from vrueval.dataset import (
    convert_dataset,
    dataset_stats,
    load_manifest,
    read_dimension_index,
)
from vrueval.errors import ConversionError, ParseError, SchemaError
from vrueval.geometry import ImageDims

FIXTURE = fixtures_root() / "visdrone_mini"
VRU_MAP = ClassMap.visdrone_default()

# Hand-derived expected output for the fixture (exact: every fixture
# coordinate normalizes to a terminating 6-decimal fraction).
EXPECTED_LABELS = {
    "0000001.txt": (
        "0 0.917500 0.116000 0.125000 0.200000\n"
        "1 0.050000 0.100000 0.075000 0.160000\n"
        "2 0.518750 0.260000 0.037500 0.120000\n"
    ),
    "0000002.txt": "3 0.175000 0.360000 0.250000 0.480000\n",
    "0000003.txt": "",
}
EXPECTED_IGNORE = {"0000001.ignore": "0.450000 0.680000 0.150000 0.160000\n"}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def convert_fixture(out, **kwargs):
    warnings = []
    manifest = convert_dataset(
        FIXTURE, VRU_MAP, out, split="val", warn=warnings.append, **kwargs
    )
    return manifest, warnings


class TestConvert:
    def test_label_files_exact(self, tmp_path):
        manifest, warnings = convert_fixture(tmp_path)
        label_dir = tmp_path / "labels" / "val"
        for name, expected in EXPECTED_LABELS.items():
            assert (label_dir / name).read_text() == expected
        for name, expected in EXPECTED_IGNORE.items():
            assert (label_dir / name).read_text() == expected
        # no sidecar for images without ignore regions
        assert not (label_dir / "0000002.ignore").exists()
        assert len(manifest.images) == 3
        assert warnings == ["missing annotation for '0000003'; writing empty label file"]

    def test_descriptor_and_index(self, tmp_path):
        convert_fixture(tmp_path)
        descriptor = (tmp_path / "dataset.yaml").read_text()
        assert "pedestrian" in descriptor and "val: labels/val" in descriptor
        for key in ("train:", "val:", "test:"):
            assert key in descriptor
        index = read_dimension_index(tmp_path / "dimensions.txt")
        assert index["0000002"] == ImageDims(400, 250)

    def test_rerun_is_byte_identical(self, tmp_path):
        convert_fixture(tmp_path / "a")
        convert_fixture(tmp_path / "b")
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_parallel_schedule_independent(self, tmp_path):
        convert_fixture(tmp_path / "serial", workers=1)
        convert_fixture(tmp_path / "threaded", workers=4)
        assert tree_bytes(tmp_path / "serial") == tree_bytes(tmp_path / "threaded")

    def test_round_trip_recovers_boxes(self, tmp_path):
        manifest, _ = convert_fixture(tmp_path)
        by_id = {img.image_id: img for img in manifest.images}
        img = by_id["0000001"]
        recs = parse_yolo_labels(
            manifest.label_file(img).read_text(), img.dims, len(manifest.class_names)
        )
        # source boxes: cat1 (684,8)+(100,100), cat2 (10,10)+(60,80), cat3 (400,100)+(30,60)
        expected = [
            (0, (684.0, 8.0, 784.0, 108.0)),
            (1, (10.0, 10.0, 70.0, 90.0)),
            (2, (400.0, 100.0, 430.0, 160.0)),
        ]
        assert len(recs) == len(expected)
        for rec, (cls, corners) in zip(recs, expected):
            assert rec.class_id == cls
            got = (rec.box.x_min, rec.box.y_min, rec.box.x_max, rec.box.y_max)
            for g, e in zip(got, corners):
                assert abs(g - e) < 1e-4

    def test_identity_reconversion_changes_nothing(self, tmp_path):
        convert_fixture(tmp_path / "first")
        identity = ClassMap.identity(VRU_MAP.names)
        convert_dataset(
            tmp_path / "first", identity, tmp_path / "second", split="val",
            source_format="yolo",
        )
        assert tree_bytes(tmp_path / "first") == tree_bytes(tmp_path / "second")

    def yolo_source(self, tmp_path, sidecar=None):
        labels = tmp_path / "src" / "labels" / "val"
        labels.mkdir(parents=True)
        (labels / "img1.txt").write_text(
            "0 0.500000 0.500000 0.200000 0.200000\n2 0.250000 0.250000 0.100000 0.100000\n"
        )
        if sidecar is not None:
            (labels / "img1.ignore").write_bytes(sidecar)
        (tmp_path / "src" / "dimensions.txt").write_text("img1 400 200\n")
        class_map = ClassMap(mapping={0: 0}, names=("pedestrian",), ignore=frozenset({2}))
        convert_dataset(tmp_path / "src", class_map, tmp_path / "out", split="val")
        return tmp_path / "out" / "labels" / "val"

    def test_yolo_class_map_ignore_writes_sidecar(self, tmp_path):
        label_dir = self.yolo_source(tmp_path)
        assert (label_dir / "img1.txt").read_text() == "0 0.500000 0.500000 0.200000 0.200000\n"
        assert (label_dir / "img1.ignore").read_text() == "0.250000 0.250000 0.100000 0.100000\n"

    def test_yolo_sidecar_kept_verbatim_before_class_map_ignores(self, tmp_path):
        label_dir = self.yolo_source(tmp_path, sidecar=b"0.9 0.9 0.1 0.1\r\n0.8 0.8 0.1 0.1")
        assert (label_dir / "img1.ignore").read_bytes() == (
            b"0.9 0.9 0.1 0.1\r\n0.8 0.8 0.1 0.1\n0.250000 0.250000 0.100000 0.100000\n"
        )

    def test_pedestrian_and_car_keeps_one_line(self, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        (src / "images" / "only.jpg").write_bytes(b"")
        (src / "annotations" / "only.txt").write_text(
            "10,10,50,50,0,1,0,0\n20,20,80,40,0,4,0,0\n"
        )
        (src / "dimensions.txt").write_text("only 400 250\n")
        manifest = convert_dataset(src, VRU_MAP, tmp_path / "out", split="train")
        lines = manifest.label_file(manifest.images[0]).read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("0 ")

    def test_empty_source(self, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        (src / "dimensions.txt").write_text("")
        manifest = convert_dataset(src, VRU_MAP, tmp_path / "out", split="train")
        assert manifest.images == ()
        assert (tmp_path / "out" / "dataset.yaml").is_file()

    def test_missing_dimension_entry(self, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        (src / "images" / "x.jpg").write_bytes(b"")
        (src / "dimensions.txt").write_text("")
        with pytest.raises(ConversionError, match="dimension"):
            convert_dataset(src, VRU_MAP, tmp_path / "out")

    def test_missing_dimension_index(self, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        with pytest.raises(ConversionError, match="dimension index"):
            convert_dataset(src, VRU_MAP, tmp_path / "out")

    def test_corrupt_annotation_is_hard_error(self, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        (src / "images" / "x.jpg").write_bytes(b"")
        (src / "annotations" / "x.txt").write_text("1,2,3\n")
        (src / "dimensions.txt").write_text("x 100 100\n")
        with pytest.raises(ParseError, match="x.txt:1"):
            convert_dataset(src, VRU_MAP, tmp_path / "out")


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest, _ = convert_fixture(tmp_path)
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.split == manifest.split
        assert loaded.class_names == manifest.class_names
        assert loaded.images == manifest.images

    def test_duplicate_image_ids_rejected(self, tmp_path):
        manifest, _ = convert_fixture(tmp_path)
        doc = (tmp_path / "manifest.json").read_text()
        doc = doc.replace("0000002", "0000001", 1)
        (tmp_path / "manifest.json").write_text(doc)
        with pytest.raises(SchemaError, match="duplicate"):
            load_manifest(tmp_path / "manifest.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_manifest(path)


class TestStats:
    def test_fixture_counts(self, tmp_path):
        manifest, _ = convert_fixture(tmp_path)
        stats = dataset_stats(manifest)
        # pedestrian, people, bicycle each once in image 1; tricycle once in image 2
        assert [
            (c.images, c.instances) for c in stats.per_class
        ] == [(1, 1), (1, 1), (1, 1), (1, 1)]
        assert stats.total_images == 3
        assert stats.total_instances == 4

    def test_hand_counted_example(self, tmp_path):
        # image A: classes {0, 0, 1}; image B: {1}
        (tmp_path / "labels").mkdir()
        (tmp_path / "labels" / "a.txt").write_text(
            "0 0.25 0.25 0.1 0.1\n0 0.75 0.75 0.1 0.1\n1 0.5 0.5 0.1 0.1\n"
        )
        (tmp_path / "labels" / "b.txt").write_text("1 0.5 0.5 0.1 0.1\n")
        (tmp_path / "manifest.json").write_text(
            '{"split": "t", "class_names": ["c0", "c1"], "images": ['
            '{"image_id": "a", "width": 100, "height": 100, "label_path": "labels/a.txt"},'
            '{"image_id": "b", "width": 100, "height": 100, "label_path": "labels/b.txt"}]}'
        )
        stats = dataset_stats(load_manifest(tmp_path / "manifest.json"))
        assert (stats.per_class[0].images, stats.per_class[0].instances) == (1, 2)
        assert (stats.per_class[1].images, stats.per_class[1].instances) == (2, 2)
        assert stats.total_instances == 4

    def test_totals_are_sums(self, tmp_path):
        manifest, _ = convert_fixture(tmp_path)
        stats = dataset_stats(manifest)
        assert stats.total_instances == sum(c.instances for c in stats.per_class)

    def test_empty_dataset(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"split": "t", "class_names": ["c0"], "images": []}'
        )
        stats = dataset_stats(load_manifest(tmp_path / "manifest.json"))
        assert stats.total_images == 0
        assert stats.total_instances == 0

    def test_ignore_records_not_counted(self, tmp_path):
        manifest, _ = convert_fixture(tmp_path)
        stats = dataset_stats(manifest)
        # fixture image 1 has an ignore region; it must not appear anywhere
        assert stats.total_instances == 4

    def test_parse_error_carries_file_context(self, tmp_path):
        manifest, _ = convert_fixture(tmp_path)
        bad = tmp_path / "labels" / "val" / "0000002.txt"
        bad.write_text("3 0.5 0.5 junk 0.1\n")
        with pytest.raises(ParseError, match="0000002.txt:1"):
            dataset_stats(manifest)


def test_dimension_index_rejects_duplicates(tmp_path):
    path = tmp_path / "dimensions.txt"
    path.write_text("a 10 10\na 20 20\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_dimension_index(path)
