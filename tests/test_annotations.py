import random

import pytest

from vrueval.annotations import (
    IGNORE_CLASS_ID,
    ClassMap,
    parse_box_rows,
    parse_detection_rows,
    parse_label_file,
    parse_visdrone_file,
)
from vrueval.errors import ParseError, SchemaError
from vrueval.geometry import ImageDims, denormalize

VRU_MAP = ClassMap.visdrone_default()


def visdrone_row(line, path=None, lineno=1):
    """The row of a source annotation line read as line ``lineno`` of a file; None if dropped."""
    rows = parse_visdrone_file("\n" * (lineno - 1) + line, VRU_MAP, path)
    return rows[0] if rows else None


def label_rows(text, dims, num_classes=None, path=None):
    return parse_box_rows(text, 1, dims, num_classes, path)


def region_rows(text, dims, path=None):
    return parse_box_rows(text, 0, dims, None, path)


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

    @pytest.mark.parametrize(
        "category, expected", [(1, 0), (7, 3), (4, None), (11, None), (0, IGNORE_CLASS_ID)]
    )
    def test_target(self, category, expected):
        assert VRU_MAP.targets[category] == expected

    @pytest.mark.parametrize("category", [12, -1])
    def test_target_of_unmapped_category(self, category):
        with pytest.raises(KeyError):
            VRU_MAP.targets[category]

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
        assert visdrone_row("684,8,273,116,0,1,0,0") == (0, 684.0, 8.0, 957.0, 124.0)

    def test_dropped_category(self):
        assert visdrone_row("10,10,20,20,1,4,0,0") is None

    def test_zero_width_rejected(self):
        with pytest.raises(ParseError):
            visdrone_row("10,10,0,20,1,1,0,0")

    def test_negative_height_rejected(self):
        with pytest.raises(ParseError):
            visdrone_row("10,10,20,-5,1,1,0,0")

    def test_trailing_comma_tolerated(self):
        assert visdrone_row("684,8,273,116,0,1,0,0,")[0] == 0

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="8"):
            visdrone_row("1,2,3,4,5,6,7")

    def test_non_numeric_field(self):
        with pytest.raises(ParseError):
            visdrone_row("a,8,273,116,0,1,0,0")

    def test_ignored_region(self):
        assert visdrone_row("5,5,10,10,0,0,0,0")[0] == IGNORE_CLASS_ID

    def test_unmapped_category_is_error(self):
        with pytest.raises(ParseError, match="category 12"):
            visdrone_row("5,5,10,10,0,12,0,0")

    @pytest.mark.parametrize(
        "line", ["1_0,8,27,11,0,1,0,0", "10,8,27,11,0,\u0661,0,0", "10,8,2\u06f7,11,0,1,0,0"]
    )
    def test_number_spellings_beyond_decimals_rejected(self, line):
        # int() reads these as 10, category 1 and width 27
        with pytest.raises(ParseError) as info:
            visdrone_row(line, path="ann.txt", lineno=2)
        assert str(info.value) == f"ann.txt:2: non-numeric field in annotation line: {line!r}"

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="ann.txt:3"):
            visdrone_row("bad", path="ann.txt", lineno=3)


class TestYoloLabels:
    dims = ImageDims(100, 100)

    def test_full_image_box(self):
        assert label_rows("0 0.5 0.5 1.0 1.0", self.dims) == [(0, 0.0, 0.0, 100.0, 100.0)]

    def test_empty_file(self):
        assert label_rows("", self.dims) == []

    def test_blank_lines_skipped(self):
        assert len(label_rows("\n0 0.5 0.5 0.2 0.2\n\n", self.dims)) == 1

    def test_out_of_range_component(self):
        with pytest.raises(ParseError, match="h"):
            label_rows("2 0.5 0.5 0.5 1.5", self.dims)

    def test_field_count(self):
        with pytest.raises(ParseError, match="5 fields"):
            label_rows("0 0.5 0.5 0.5", self.dims)

    def test_class_out_of_range(self):
        with pytest.raises(ParseError, match="class id 3"):
            label_rows("3 0.5 0.5 0.2 0.2", self.dims, num_classes=3)

    def test_negative_class(self):
        with pytest.raises(ParseError):
            label_rows("-1 0.5 0.5 0.2 0.2", self.dims)


class TestDetections:
    dims = ImageDims(100, 100)

    def test_basic_line(self):
        rows = parse_detection_rows("0 0.90 0.5 0.5 0.2 0.2", self.dims)
        assert rows == [(0, 0.90, 40.0, 40.0, 60.0, 60.0)]

    def test_confidence_above_one(self):
        with pytest.raises(ParseError, match="confidence"):
            parse_detection_rows("1 1.50 0.5 0.5 0.2 0.2", self.dims)

    def test_empty_file(self):
        assert parse_detection_rows("", self.dims) == []

    def test_field_count(self):
        with pytest.raises(ParseError, match="6 fields"):
            parse_detection_rows("1 0.5 0.5 0.5 0.2", self.dims)


class TestLabelLayoutSource:
    CLASS_MAP = ClassMap.identity(["pedestrian"])
    DIMS = ImageDims(400, 200)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("\n  \n\t\n0 0.5 0.5 0.2 0.2\n\n3 0.5 0.5 0.2 0.2\n", 6),
            # a non-ASCII blank line: every line goes through the row checker
            ("0 0.5 0.5 0.2 0.2\n\u3000\n3 0.5 0.5 0.2 0.2\n", 3),
        ],
    )
    def test_unmapped_class_id_names_its_line_after_blank_lines(self, text, lineno):
        with pytest.raises(ParseError, match=f"^a.txt:{lineno}: unmapped class id 3$"):
            parse_label_file(text, self.CLASS_MAP, self.DIMS, "a.txt")

    def test_malformed_line_is_named_before_an_earlier_unmapped_class_id(self):
        text = "3 0.5 0.5 0.2 0.2\n0 0.5 0.5 0.2\n"
        with pytest.raises(ParseError, match="^a.txt:2: expected 5 fields, got 4$"):
            parse_label_file(text, self.CLASS_MAP, self.DIMS, "a.txt")


def test_ignore_region_sidecar():
    assert region_rows("0.5 0.5 0.2 0.2\n", ImageDims(100, 100)) == [(40.0, 40.0, 60.0, 60.0)]
    with pytest.raises(ParseError):
        region_rows("0.5 0.5 0.2", ImageDims(100, 100))


LINE_PARSERS = {
    "detection": (parse_detection_rows, "0 0.9 "),
    "label": (label_rows, "0 "),
    "ignore": (region_rows, ""),
}
BOX_ERRORS = [
    ("1.5 0.5 0.2 0.2", "normalized component cx=1.5 outside [0, 1]"),
    ("0.5 -0.1 0.2 0.2", "normalized component cy=-0.1 outside [0, 1]"),
    ("0.5 0.5 2 0.2", "normalized component w=2.0 outside [0, 1]"),
    ("0.5 0.5 0.2 1.5", "normalized component h=1.5 outside [0, 1]"),
    ("nan 0.5 0.2 0.2", "normalized component cx=nan outside [0, 1]"),
    ("0.5 0.5 inf 0.2", "normalized component w=inf outside [0, 1]"),
    ("0.5 abc 0.2 0.2", "non-numeric normalized field in ['0.5', 'abc', '0.2', '0.2']"),
    # int() and float() read these as 0.5 and 0.5; no annotation format writes them
    ("0.5_0 0.5 0.2 0.2", "non-numeric normalized field in ['0.5_0', '0.5', '0.2', '0.2']"),
    ("0.5 0.\u0665 0.2 0.2", "non-numeric normalized field in ['0.5', '0.\u0665', '0.2', '0.2']"),
    # str.split() splits at these too; no annotation format writes them
    ("0.5\u30000.5 0.2 0.2", "non-ASCII whitespace '\\u3000' in the line"),
    ("0.5 0.5\xa00.2 0.2", "non-ASCII whitespace '\\xa0' in the line"),
    ("0.5 0.5 0.2 0.2\u2003", "non-ASCII whitespace '\\u2003' in the line"),
]


@pytest.mark.parametrize("kind", sorted(LINE_PARSERS))
@pytest.mark.parametrize("box, message", BOX_ERRORS)
def test_bad_box_fields_name_file_and_line(kind, box, message):
    parse, prefix = LINE_PARSERS[kind]
    text = f"{prefix}0.5 0.5 0.2 0.2\n{prefix}{box}\n"
    with pytest.raises(ParseError) as info:
        parse(text, ImageDims(100, 100), path="f.txt")
    assert str(info.value) == f"f.txt:2: {message}"


BOX = "0.5 0.5 0.2 0.2"
# (kind, line, exact message) of every fault outside the box, and the order
# of the checks: field count, class id, non-numeric confidence, box, confidence range
FIELD_ERRORS = [
    ("ignore", "0.5 0.5 0.2", "expected 4 fields, got 3"),
    ("ignore", f"0 {BOX}", "expected 4 fields, got 5"),
    ("label", "0 0.5 0.5 0.2", "expected 5 fields, got 4"),
    ("label", f"0 0.9 {BOX}", "expected 5 fields, got 6"),
    ("label", f"a {BOX}", "non-integer class id 'a'"),
    ("label", f"1.0 {BOX}", "non-integer class id '1.0'"),
    ("label", f"-1 {BOX}", "negative class id -1"),
    ("label", f"3 {BOX}", "class id 3 out of range for 3 configured classes"),
    ("label", "a 1.5 0.5 0.2 0.2", "non-integer class id 'a'"),
    ("label", f"1_0 {BOX}", "non-integer class id '1_0'"),
    ("label", f"\u0661 {BOX}", "non-integer class id '\u0661'"),
    ("detection", "0 0.9 0.5 0.5 0.2", "expected 6 fields, got 5"),
    ("detection", f"0 0.9 {BOX} 1", "expected 6 fields, got 7"),
    ("detection", f"a 0.9 {BOX}", "non-integer class id 'a'"),
    ("detection", f"-1 0.9 {BOX}", "negative class id -1"),
    ("detection", f"3 0.9 {BOX}", "class id 3 out of range for 3 configured classes"),
    ("detection", f"0 high {BOX}", "non-numeric confidence 'high'"),
    ("detection", f"\u0661 0.9 {BOX}", "non-integer class id '\u0661'"),
    ("detection", f"0 0.9_5 {BOX}", "non-numeric confidence '0.9_5'"),
    ("detection", f"0 \uff10.9 {BOX}", "non-numeric confidence '\uff10.9'"),
    ("detection", f"1_0 0.9_5 {BOX}", "non-integer class id '1_0'"),
    ("detection", f"0 1.5 {BOX}", "confidence 1.5 outside [0, 1]"),
    ("detection", f"0 -0.1 {BOX}", "confidence -0.1 outside [0, 1]"),
    ("detection", "3 high 1.5 0.5 0.2 0.2", "class id 3 out of range for 3 configured classes"),
    ("detection", "0 high 1.5 0.5 0.2 0.2", "non-numeric confidence 'high'"),
    ("detection", "0 1.5 1.5 0.5 0.2 0.2", "normalized component cx=1.5 outside [0, 1]"),
    ("ignore", f"\u3000{BOX}", "non-ASCII whitespace '\\u3000' in the line"),
    ("label", f"1\u3000{BOX}", "non-ASCII whitespace '\\u3000' in the line"),
    ("label", "1\u30000.5 0.5 0.2", "expected 5 fields, got 4"),
    ("label", f"1\xa0{BOX} 1_0", "expected 5 fields, got 6"),
    ("label", f"9\xa0{BOX}", "non-ASCII whitespace '\\xa0' in the line"),
    ("detection", f"0 0.9\xa0{BOX}", "non-ASCII whitespace '\\xa0' in the line"),
    ("detection", f"3\u2003high {BOX}", "non-ASCII whitespace '\\u2003' in the line"),
    ("detection", f"0\u2003\u0661.9 {BOX}", "non-numeric confidence '\u0661.9'"),
]


@pytest.mark.parametrize("kind, line, message", FIELD_ERRORS)
def test_field_faults_name_file_and_line(kind, line, message):
    parse = {
        "detection": lambda text: parse_detection_rows(text, ImageDims(100, 100), 3, "f.txt"),
        "label": lambda text: label_rows(text, ImageDims(100, 100), 3, "f.txt"),
        "ignore": lambda text: region_rows(text, ImageDims(100, 100), "f.txt"),
    }[kind]
    with pytest.raises(ParseError) as info:
        parse(f"{LINE_PARSERS[kind][1]}{BOX}\n{line}\n")
    assert str(info.value) == f"f.txt:2: {message}"


def test_signs_and_exponents_are_numbers():
    text = "+0 5e-01 +0.5 0.5 2e-1 0.2\n"
    assert parse_detection_rows(text, ImageDims(100, 100), 3) == [(0, 0.5, 40.0, 40.0, 60.0, 60.0)]
    assert label_rows("+1 0.5 5E-1 0.2 0.2\n", ImageDims(100, 100), 3)[0][0] == 1
    assert visdrone_row("+684,8,273,116,0,+1,0,0") == (0, 684.0, 8.0, 957.0, 124.0)


def test_nan_confidence_rejected():
    with pytest.raises(ParseError) as info:
        parse_detection_rows("0 nan 0.5 0.5 0.2 0.2\n", ImageDims(100, 100), path="f.txt")
    assert str(info.value) == "f.txt:1: confidence nan outside [0, 1]"


def test_detection_rows_use_denormalize_arithmetic():
    rng = random.Random(5)
    for _ in range(500):
        dims = ImageDims(rng.randint(1, 4000), rng.randint(1, 4000))
        cx, cy, w, h = (rng.random() for _ in range(4))
        confidence = rng.random()
        [row] = parse_detection_rows(f"3 {confidence!r} {cx!r} {cy!r} {w!r} {h!r}\n", dims, 4)
        assert row == (3, confidence, *denormalize(cx, cy, w, h, dims))
