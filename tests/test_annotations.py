import pytest

from vrueval.annotations import (
    IGNORE_CLASS_ID,
    ClassMap,
    parse_detections,
    parse_ignore_regions,
    parse_visdrone_line,
    parse_yolo_labels,
)
from vrueval.errors import ParseError, SchemaError
from vrueval.geometry import BoundingBox, ImageDims

VRU_MAP = ClassMap.visdrone_default()


class TestClassMap:
    def test_default_map_shape(self):
        assert VRU_MAP.names == ("pedestrian", "people", "bicycle", "tricycle")
        assert VRU_MAP.mapping == {1: 0, 2: 1, 3: 2, 7: 3}
        assert VRU_MAP.drop == frozenset({4, 5, 6, 8, 9, 10, 11})
        assert VRU_MAP.ignore == frozenset({0})

    def test_identity(self):
        m = ClassMap.identity(["a", "b"])
        assert m.mapping == {0: 0, 1: 1}
        assert not m.drop and not m.ignore

    def test_targets_must_be_contiguous(self):
        with pytest.raises(SchemaError):
            ClassMap(mapping={1: 0, 2: 2}, names=("a", "b", "c"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            ClassMap(mapping={1: 0, 2: 1}, names=("a", "a"))

    def test_source_category_in_one_bucket_only(self):
        with pytest.raises(SchemaError):
            ClassMap(mapping={1: 0}, names=("a",), drop=frozenset({1}))

    def test_from_file(self, tmp_path):
        path = tmp_path / "map.yaml"
        path.write_text(
            "names: [pedestrian, people]\nmap: {1: 0, 2: 1}\ndrop: [4]\nignore: [0]\n"
        )
        m = ClassMap.from_file(str(path))
        assert m.names == ("pedestrian", "people")
        assert m.mapping == {1: 0, 2: 1}
        assert m.drop == frozenset({4})
        assert m.ignore == frozenset({0})

    def test_from_file_missing_keys(self, tmp_path):
        path = tmp_path / "map.yaml"
        path.write_text("names: [a]\n")
        with pytest.raises(SchemaError):
            ClassMap.from_file(str(path))


class TestVisdroneLine:
    def test_pedestrian_line(self):
        rec = parse_visdrone_line("684,8,273,116,0,1,0,0", VRU_MAP, "img")
        assert rec.class_id == 0
        assert rec.box == BoundingBox(684, 8, 957, 124)
        assert not rec.ignore

    def test_dropped_category(self):
        assert parse_visdrone_line("10,10,20,20,1,4,0,0", VRU_MAP) is None

    def test_zero_width_rejected(self):
        with pytest.raises(ParseError):
            parse_visdrone_line("10,10,0,20,1,1,0,0", VRU_MAP)

    def test_negative_height_rejected(self):
        with pytest.raises(ParseError):
            parse_visdrone_line("10,10,20,-5,1,1,0,0", VRU_MAP)

    def test_trailing_comma_tolerated(self):
        rec = parse_visdrone_line("684,8,273,116,0,1,0,0,", VRU_MAP)
        assert rec.class_id == 0

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="8"):
            parse_visdrone_line("1,2,3,4,5,6,7", VRU_MAP)

    def test_non_numeric_field(self):
        with pytest.raises(ParseError):
            parse_visdrone_line("a,8,273,116,0,1,0,0", VRU_MAP)

    def test_ignored_region(self):
        rec = parse_visdrone_line("5,5,10,10,0,0,0,0", VRU_MAP)
        assert rec.ignore
        assert rec.class_id == IGNORE_CLASS_ID

    def test_unmapped_category_is_error(self):
        with pytest.raises(ParseError, match="category 12"):
            parse_visdrone_line("5,5,10,10,0,12,0,0", VRU_MAP)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="ann.txt:3"):
            parse_visdrone_line("bad", VRU_MAP, path="ann.txt", lineno=3)


class TestYoloLabels:
    dims = ImageDims(100, 100)

    def test_full_image_box(self):
        recs = parse_yolo_labels("0 0.5 0.5 1.0 1.0", self.dims)
        assert len(recs) == 1
        assert recs[0].class_id == 0
        assert recs[0].box == BoundingBox(0, 0, 100, 100)
        assert not recs[0].ignore

    def test_empty_file(self):
        assert parse_yolo_labels("", self.dims) == []

    def test_blank_lines_skipped(self):
        assert len(parse_yolo_labels("\n0 0.5 0.5 0.2 0.2\n\n", self.dims)) == 1

    def test_out_of_range_component(self):
        with pytest.raises(ParseError, match="h"):
            parse_yolo_labels("2 0.5 0.5 0.5 1.5", self.dims)

    def test_field_count(self):
        with pytest.raises(ParseError, match="5 fields"):
            parse_yolo_labels("0 0.5 0.5 0.5", self.dims)

    def test_class_out_of_range(self):
        with pytest.raises(ParseError, match="class id 3"):
            parse_yolo_labels("3 0.5 0.5 0.2 0.2", self.dims, num_classes=3)

    def test_negative_class(self):
        with pytest.raises(ParseError):
            parse_yolo_labels("-1 0.5 0.5 0.2 0.2", self.dims)


class TestDetections:
    dims = ImageDims(100, 100)

    def test_basic_line(self):
        recs = parse_detections("0 0.90 0.5 0.5 0.2 0.2", self.dims)
        assert len(recs) == 1
        d = recs[0]
        assert d.class_id == 0
        assert d.confidence == 0.90
        assert d.box == BoundingBox(40, 40, 60, 60)

    def test_confidence_above_one(self):
        with pytest.raises(ParseError, match="confidence"):
            parse_detections("1 1.50 0.5 0.5 0.2 0.2", self.dims)

    def test_empty_file(self):
        assert parse_detections("", self.dims) == []

    def test_field_count(self):
        with pytest.raises(ParseError, match="6 fields"):
            parse_detections("1 0.5 0.5 0.5 0.2", self.dims)


def test_ignore_region_sidecar():
    recs = parse_ignore_regions("0.5 0.5 0.2 0.2\n", ImageDims(100, 100))
    assert len(recs) == 1
    assert recs[0].ignore
    assert recs[0].box == BoundingBox(40, 40, 60, 60)
    with pytest.raises(ParseError):
        parse_ignore_regions("0.5 0.5 0.2", ImageDims(100, 100))


LINE_PARSERS = {
    "detection": (parse_detections, "0 0.9 "),
    "label": (parse_yolo_labels, "0 "),
    "ignore": (parse_ignore_regions, ""),
}
BOX_ERRORS = [
    ("1.5 0.5 0.2 0.2", "normalized component cx=1.5 outside [0, 1]"),
    ("0.5 -0.1 0.2 0.2", "normalized component cy=-0.1 outside [0, 1]"),
    ("0.5 0.5 2 0.2", "normalized component w=2.0 outside [0, 1]"),
    ("0.5 0.5 0.2 1.5", "normalized component h=1.5 outside [0, 1]"),
    ("nan 0.5 0.2 0.2", "normalized component cx=nan outside [0, 1]"),
    ("0.5 0.5 inf 0.2", "normalized component w=inf outside [0, 1]"),
    ("0.5 abc 0.2 0.2", "non-numeric normalized field in ['0.5', 'abc', '0.2', '0.2']"),
]


@pytest.mark.parametrize("kind", sorted(LINE_PARSERS))
@pytest.mark.parametrize("box, message", BOX_ERRORS)
def test_bad_box_fields_name_file_and_line(kind, box, message):
    parse, prefix = LINE_PARSERS[kind]
    text = f"{prefix}0.5 0.5 0.2 0.2\n{prefix}{box}\n"
    with pytest.raises(ParseError) as info:
        parse(text, ImageDims(100, 100), path="f.txt")
    assert str(info.value) == f"f.txt:2: {message}"


def test_nan_confidence_rejected():
    with pytest.raises(ParseError) as info:
        parse_detections("0 nan 0.5 0.5 0.2 0.2\n", ImageDims(100, 100), path="f.txt")
    assert str(info.value) == "f.txt:1: confidence nan outside [0, 1]"
