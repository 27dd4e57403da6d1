import itertools
import json
import shutil
from pathlib import Path, PurePosixPath

import pytest

from helpers import fixtures_root
from vrueval.annotations import ClassMap, parse_box_rows
from vrueval.cli import main
from vrueval.dataset import (
    DatasetManifest,
    ManifestImage,
    _dir_prefix,
    _label_and_sidecar,
    convert_dataset,
    dataset_stats,
    ground_truth_rows,
    load_manifest,
    read_dimension_index,
)
from vrueval.errors import ConversionError, ParseError, SchemaError
from vrueval.geometry import ImageDims

FIXTURE = fixtures_root() / "visdrone_mini"
VRU_MAP = ClassMap.visdrone_default()
WORKERS_DEPRECATED = "workers is deprecated and has no effect; conversion runs in one thread"

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

    def test_workers_is_deprecated_no_op(self, tmp_path):
        _, serial = convert_fixture(tmp_path / "serial", workers=1)
        _, four = convert_fixture(tmp_path / "four", workers=4)
        assert tree_bytes(tmp_path / "serial") == tree_bytes(tmp_path / "four")
        assert four == [WORKERS_DEPRECATED] + serial
        assert WORKERS_DEPRECATED not in serial

    def test_round_trip_recovers_boxes(self, tmp_path):
        manifest, _ = convert_fixture(tmp_path)
        by_id = {img.image_id: img for img in manifest.images}
        img = by_id["0000001"]
        rows = parse_box_rows(
            manifest.label_file(img).read_text(), 1, img.dims, len(manifest.class_names)
        )
        # source boxes: cat1 (684,8)+(100,100), cat2 (10,10)+(60,80), cat3 (400,100)+(30,60)
        expected = [
            (0, (684.0, 8.0, 784.0, 108.0)),
            (1, (10.0, 10.0, 70.0, 90.0)),
            (2, (400.0, 100.0, 430.0, 160.0)),
        ]
        assert len(rows) == len(expected)
        for (class_id, *got), (cls, corners) in zip(rows, expected):
            assert class_id == cls
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

    def test_yolo_sidecar_rewritten_before_class_map_ignores(self, tmp_path):
        label_dir = self.yolo_source(tmp_path, sidecar=b"0.9 0.9 0.1 0.1\r\n0.8 0.8 0.1 0.1")
        assert (label_dir / "img1.ignore").read_bytes() == (
            b"0.900000 0.900000 0.100000 0.100000\n"
            b"0.800000 0.800000 0.100000 0.100000\n"
            b"0.250000 0.250000 0.100000 0.100000\n"
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
        with pytest.raises(ConversionError, match="no images found"):
            convert_dataset(src, VRU_MAP, tmp_path / "out", split="train")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source_format", ["auto", "visdrone", "yolo"])
    def test_empty_source_root(self, tmp_path, source_format):
        (tmp_path / "src").mkdir()
        with pytest.raises(ConversionError, match="no images found"):
            convert_dataset(
                tmp_path / "src", VRU_MAP, tmp_path / "out", source_format=source_format
            )
        assert not (tmp_path / "out").exists()

    def test_failed_convert_keeps_earlier_tree(self, tmp_path):
        out = tmp_path / "out"
        convert_fixture(out)
        before = tree_bytes(out)
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        (src / "dimensions.txt").write_text("")
        with pytest.raises(ConversionError, match="no images found"):
            convert_dataset(src, VRU_MAP, out, split="val")
        assert tree_bytes(out) == before

    def test_missing_dimension_entry_writes_nothing(self, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        for image_id in ("a", "b"):
            (src / "images" / f"{image_id}.jpg").write_bytes(b"")
            (src / "annotations" / f"{image_id}.txt").write_text("10,10,50,50,0,1,0,0\n")
        (src / "dimensions.txt").write_text("a 400 250\n")
        with pytest.raises(ConversionError) as info:
            convert_dataset(src, VRU_MAP, tmp_path / "out")
        assert str(info.value) == (
            f"{src / 'images' / 'b.jpg'}: no dimension entry for image 'b' "
            f"in {src / 'dimensions.txt'}"
        )
        assert not (tmp_path / "out").exists()

    def test_missing_dimension_entry_names_label_file(self, tmp_path):
        labels = tmp_path / "src" / "labels" / "val"
        labels.mkdir(parents=True)
        for image_id in ("a", "b"):
            (labels / f"{image_id}.txt").write_text("0 0.500000 0.500000 0.200000 0.200000\n")
        (tmp_path / "src" / "dimensions.txt").write_text("a 400 200\n")
        with pytest.raises(ConversionError) as info:
            convert_dataset(tmp_path / "src", VRU_MAP, tmp_path / "out", split="val")
        assert str(info.value) == (
            f"{labels / 'b.txt'}: no dimension entry for image 'b' "
            f"in {tmp_path / 'src' / 'dimensions.txt'}"
        )
        assert not (tmp_path / "out").exists()

    def test_failed_reconvert_keeps_class_map(self, tmp_path):
        out = tmp_path / "out"
        convert_fixture(out)
        before = tree_bytes(out)
        src = tmp_path / "src"
        shutil.copytree(FIXTURE, src)
        (src / "annotations" / "0000002.txt").write_text("20,30,100,120,0,1,0\n")
        one_class = ClassMap(
            mapping={1: 0}, names=("pedestrian",),
            drop=frozenset(range(2, 12)), ignore=frozenset({0}),
        )
        with pytest.raises(ParseError, match="0000002.txt:1"):
            convert_dataset(src, one_class, out, split="val")
        assert tree_bytes(out) == before

    def test_duplicate_image_id_writes_nothing(self, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        (src / "images" / "a.jpg").write_bytes(b"")
        (src / "images" / "a.png").write_bytes(b"")
        (src / "dimensions.txt").write_text("a 400 250\n")
        with pytest.raises(
            ConversionError, match=r"images: a\.jpg and a\.png share the image id 'a'$"
        ):
            convert_dataset(src, VRU_MAP, tmp_path / "out", warn=lambda msg: None)
        assert not (tmp_path / "out").exists()

    def test_duplicate_image_id_is_caught_before_any_parse(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(FIXTURE, src)
        (src / "images" / "0000001.png").write_bytes(b"")
        (src / "annotations" / "0000001.txt").write_text("not an annotation\n")
        with pytest.raises(ConversionError, match="0000001.jpg and 0000001.png share"):
            convert_dataset(src, VRU_MAP, tmp_path / "out", warn=lambda msg: None)
        assert not (tmp_path / "out").exists()

    def test_failed_convert_emits_no_warning(self, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        (src / "images" / "a.jpg").write_bytes(b"")  # no annotation: a held warning
        (src / "images" / "b.jpg").write_bytes(b"")
        (src / "annotations" / "b.txt").write_text("not an annotation\n")
        (src / "dimensions.txt").write_text("a 400 250\nb 400 250\n")
        warnings = []
        with pytest.raises(ParseError, match="b.txt:1"):
            convert_dataset(src, VRU_MAP, tmp_path / "out", warn=warnings.append)
        assert warnings == []
        assert not (tmp_path / "out").exists()

    def test_duplicate_manifest_image_id_names_the_first_repeat(self):
        image = ManifestImage("b", ImageDims(4, 4), "labels/val/b.txt")
        images = (image, ManifestImage("a", ImageDims(4, 4), "labels/val/a.txt"))
        with pytest.raises(SchemaError, match=r"^duplicate image ids in split 'val': 'b' repeats$"):
            DatasetManifest("val", ("person",), images + images, Path("."))

    def test_yolo_unmapped_class_id(self, tmp_path):
        labels = tmp_path / "src" / "labels"
        labels.mkdir(parents=True)
        (tmp_path / "src" / "dimensions.txt").write_text("img1 400 200\n")
        class_map = ClassMap(mapping={0: 0}, names=("pedestrian",), drop=frozenset({2}))
        for text, lineno in [
            ("0 0.5 0.5 0.2 0.2\n3 0.25 0.25 0.1 0.1\n", 2),
            ("\n0 0.5 0.5 0.2 0.2\n  \n3 0.25 0.25 0.1 0.1\n", 4),  # blank lines count
        ]:
            (labels / "img1.txt").write_text(text)
            with pytest.raises(ParseError, match=f"img1.txt:{lineno}: unmapped class id 3$"):
                convert_dataset(tmp_path / "src", class_map, tmp_path / "out")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split", ["../../escaped", "a/b", "{tmp}/abs", "..", "."])
    def test_split_must_be_one_path_component(self, tmp_path, split):
        split = split.format(tmp=tmp_path)  # an absolute split stays inside tmp_path
        with pytest.raises(ConversionError, match="single path component"):
            convert_dataset(FIXTURE, VRU_MAP, tmp_path / "a" / "out", split=split)
        assert list(tmp_path.iterdir()) == []

    def test_stale_labels_reported_and_kept(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(FIXTURE, src)
        out = tmp_path / "out"
        convert_dataset(src, VRU_MAP, out, split="val", warn=lambda msg: None)
        (src / "images" / "0000001.jpg").unlink()
        warnings = []
        manifest = convert_dataset(src, VRU_MAP, out, split="val", warn=warnings.append)
        assert [img.image_id for img in manifest.images] == ["0000002", "0000003"]
        stale = [w for w in warnings if "no converted image" in w]
        assert stale == [
            f"2 label files in {out / 'labels' / 'val'} belong to no converted image "
            "(first: 0000001.ignore); left in place"
        ]
        assert (out / "labels" / "val" / "0000001.txt").is_file()

    def test_orphan_sidecars_reported_not_converted(self, tmp_path):
        labels = tmp_path / "src" / "labels"
        labels.mkdir(parents=True)
        (labels / "a.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        for image_id in ("c", "b"):
            (labels / f"{image_id}.ignore").write_text("0.5 0.5 0.2 0.2\n")
        (tmp_path / "src" / "dimensions.txt").write_text("a 100 100\nb 100 100\nc 100 100\n")
        identity = ClassMap.identity(["pedestrian"])
        warnings = []
        manifest = convert_dataset(tmp_path / "src", identity, tmp_path / "out", warn=warnings.append)
        assert warnings == [
            f"2 ignore sidecars in {labels} have no label file (first: b.ignore); not converted"
        ]
        assert [img.image_id for img in manifest.images] == ["a"]
        assert sorted(tree_bytes(tmp_path / "out" / "labels")) == ["train/a.txt"]
        # held with the read phase's warnings: a convert that raises emits none
        (labels / "a.txt").write_text("0 0.5 0.5 0.2\n")
        warnings.clear()
        with pytest.raises(ParseError, match="a.txt:1: expected 5 fields"):
            convert_dataset(tmp_path / "src", identity, tmp_path / "again", warn=warnings.append)
        assert warnings == []

    def test_reconvert_removes_stale_sidecar(self, tmp_path):
        out = tmp_path / "out"
        convert_fixture(out)
        sidecar = out / "labels" / "val" / "0000001.ignore"
        assert sidecar.is_file()
        src = tmp_path / "src"
        shutil.copytree(FIXTURE, src)
        annotations = src / "annotations" / "0000001.txt"
        kept = [line for line in annotations.read_text().splitlines() if line.split(",")[5] != "0"]
        annotations.write_text("\n".join(kept) + "\n")
        convert_dataset(src, VRU_MAP, out, split="val", warn=lambda msg: None)
        assert not sidecar.exists()
        label = out / "labels" / "val" / "0000001.txt"
        assert label.read_text() == EXPECTED_LABELS["0000001.txt"]

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

    @pytest.mark.parametrize(
        "label_path", ["/tmp/0000001.txt", "../0000001.txt", "labels/../../0000001.txt"]
    )
    def test_label_path_must_stay_under_root(self, tmp_path, label_path):
        convert_fixture(tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(path.read_text().replace("labels/val/0000001.txt", label_path))
        with pytest.raises(SchemaError, match="'0000001'.*under the manifest") as exc_info:
            load_manifest(path)
        assert str(path) in str(exc_info.value)

    @pytest.mark.parametrize("label_path", ["labels/", "labels/.", "x.txt/", ".", ""])
    def test_label_path_must_name_a_file(self, tmp_path, capsys, label_path):
        (tmp_path / "x.txt").write_text("0 0.5 0.5 0.2 0.2\n")  # what "x.txt/" would read
        (tmp_path / "detections").mkdir()
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "split": "t", "class_names": ["c0"],
            "images": [{"image_id": "x", "width": 9, "height": 9, "label_path": label_path}],
        }))
        expected = (
            f"error: {path}: invalid manifest: image 'x': label_path {label_path!r} "
            "names a directory\n"
        )
        for args in (["stats", path], ["eval", path, tmp_path / "detections"]):
            assert main([str(arg) for arg in args]) == 2
            assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("field", ["image_id", "label_path"])
    @pytest.mark.parametrize("char", ["\0", "\ud800"], ids=["nul", "lone-surrogate"])
    def test_image_id_and_label_path_must_name_files(self, tmp_path, capsys, field, char):
        """``open()`` takes neither a NUL nor a string the file system cannot encode."""
        entry = {"image_id": "x", "width": 9, "height": 9, "label_path": "x.txt"}
        entry[field] = entry[field] + char
        (tmp_path / "detections").mkdir()
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"split": "t", "class_names": ["c0"], "images": [entry]}))
        expected = (
            f"error: {path}: invalid manifest: image {entry['image_id']!r}: "
            f"{field} {entry[field]!r} cannot name a file "
            "(it holds NUL, or a character the file system cannot encode)\n"
        )
        for args in (["stats", path], ["eval", path, tmp_path / "detections"]):
            assert main([str(arg) for arg in args]) == 2
            assert capsys.readouterr().err == expected

    def test_a_file_name_that_is_not_utf8_stays_valid(self, tmp_path, capsys):
        """Python reads the byte 0xff of a file name as the character ``\\udcff``."""
        (tmp_path / "a\udcff.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        entry = {"image_id": "a\udcff", "width": 9, "height": 9, "label_path": "a\udcff.txt"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"split": "t", "class_names": ["c0"], "images": [entry]}))
        assert main(["--format", "csv", "stats", str(path)]) == 0
        assert capsys.readouterr().out == "Class,Images,Instances\nc0,1,1\nall,1,1\n"

    def test_label_path_rule_is_the_old_path_rule_for_files(self):
        """Every label path of up to four parts, with and without a leading ``/``, is
        accepted exactly when ``Path`` finds it relative with no ``..`` part and it
        does not end in ``/`` or ``/.`` (or is ``.`` or empty)."""
        parts = ["a", "b.txt", ".", "..", "", ".x", "x."]
        paths = [
            lead + "/".join(combo)
            for n in range(1, 5)
            for combo in itertools.product(parts, repeat=n)
            for lead in ("", "/")
        ]
        assert len(paths) == 5600
        wrong = []
        for label_path in paths:
            pure = PurePosixPath(label_path)
            names_file = label_path not in ("", ".") and not label_path.endswith(("/", "/."))
            expected = not pure.is_absolute() and ".." not in pure.parts and names_file
            try:
                ManifestImage("a", ImageDims(1, 1), label_path)
                accepted = True
            except ValueError:
                accepted = False
            if accepted != expected:
                wrong.append(label_path)
        assert wrong == []

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


class TestGroundTruthFiles:
    """Where ``ground_truth_rows`` looks for an image's label file and sidecar."""

    def manifest(self, root: Path, label_path: str) -> Path:
        path = root / "manifest.json"
        path.write_text(
            '{"split": "t", "class_names": ["c0"], "images": [{"image_id": "a", '
            f'"width": 100, "height": 100, "label_path": "{label_path}"}}]}}'
        )
        return path

    @pytest.mark.parametrize("label_path", ["labels/t/a.txt", "./labels//t/a.txt"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "under-a-file"])
    def test_no_label_file_exits_2_naming_the_normalized_path(
        self, tmp_path, capsys, label_path, kind
    ):
        (tmp_path / "labels").mkdir()
        if kind == "under-a-file":
            (tmp_path / "labels" / "t").write_text("")
        else:
            (tmp_path / "labels" / "t").mkdir()
        if kind == "directory":
            (tmp_path / "labels" / "t" / "a.txt").mkdir()
        (tmp_path / "detections").mkdir()
        (tmp_path / "detections" / "a.txt").write_text("")
        manifest = str(self.manifest(tmp_path, label_path))
        expected = f"error: {tmp_path / 'labels' / 't' / 'a.txt'}: label file not found\n"
        for args in (["stats", manifest], ["eval", manifest, str(tmp_path / "detections")]):
            assert main(args) == 2
            assert capsys.readouterr().err == expected

    def test_sidecar_is_the_label_path_with_suffix_ignore(self, tmp_path):
        (tmp_path / "a.lbl").write_text("0 0.5 0.5 0.2 0.2\n")
        (tmp_path / "a.ignore").write_text("0.25 0.25 0.1 0.1\n")
        (tmp_path / "a.lbl.ignore").write_text("not read\n")
        manifest = load_manifest(self.manifest(tmp_path, "a.lbl"))
        assert ground_truth_rows(manifest, manifest.images[0]) == (
            [(0, 40.0, 40.0, 60.0, 60.0)],
            [(20.0, 20.0, 30.0, 30.0)],
        )

    def test_directory_at_the_sidecar_path_adds_no_regions(self, tmp_path):
        (tmp_path / "a.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        (tmp_path / "a.ignore").mkdir()
        manifest = load_manifest(self.manifest(tmp_path, "a.txt"))
        labels, regions = ground_truth_rows(manifest, manifest.images[0])
        assert (labels, regions) == ([(0, 40.0, 40.0, 60.0, 60.0)], [])

    @pytest.mark.parametrize("root", [".", "", "/", "m", "/a/b", "a/./b"])
    @pytest.mark.parametrize(
        "label_path",
        [
            "x.txt", "./x.txt", "labels//x.txt", "labels/./x.txt",
            "x", ".x", "x.", "x..txt", "a.b.txt", "d.d/x",
        ],
    )
    def test_paths_built_from_strings_equal_the_path_methods(self, root, label_path):
        """``ground_truth_rows`` and ``evaluate`` build their paths from strings,
        which must name what ``label_file``, its ``with_suffix(".ignore")`` and
        ``/`` name."""
        manifest = DatasetManifest(
            "t", ("c0",), (ManifestImage("a", ImageDims(1, 1), label_path),), Path(root)
        )
        image = manifest.images[0]
        assert _label_and_sidecar(manifest, image) == (
            str(manifest.label_file(image)),
            str(manifest.label_file(image).with_suffix(".ignore")),
        )
        assert _dir_prefix(Path(root), "") + "a.txt" == str(Path(root) / "a.txt")


def test_dimension_index_rejects_duplicates(tmp_path):
    path = tmp_path / "dimensions.txt"
    path.write_text("a 10 10\na 20 20\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_dimension_index(path)


@pytest.mark.parametrize("size", ["8_00", "٨٠٠"])
def test_dimension_index_reads_plain_decimals_only(tmp_path, size):
    # int() reads both as 800; an image id may still hold '_' or non-ASCII
    path = tmp_path / "dimensions.txt"
    path.write_text(f"frame_é 400 250\nb {size} 500\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_dimension_index(path)
    assert str(info.value) == f"{path}:2: not a plain decimal number: {size!r}"
    path.write_text("frame_é +400 250\n", encoding="utf-8")
    assert read_dimension_index(path) == {"frame_é": ImageDims(400, 250)}


@pytest.mark.parametrize("space", ["\u3000", "\u00a0", "\u2003"])
def test_dimension_index_rejects_non_ascii_whitespace(tmp_path, space):
    # str.split splits at these, so the line would read as 'img', 1920, 1080
    path = tmp_path / "dimensions.txt"
    path.write_text(f"frame_é 400 250\nimg{space}1920 1080\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_dimension_index(path)
    assert str(info.value) == f"{path}:2: non-ASCII whitespace {space!r} in the line"
