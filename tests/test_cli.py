import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml

from helpers import fixtures_root
from test_annotations import BOX_ERRORS, LINE_PARSERS
from vrueval.annotations import ClassMap, parse_box_rows, parse_detection_rows
from vrueval.cli import OUTPUT_FORMATS, main
from vrueval.dataset import convert_dataset, load_manifest
from vrueval.errors import ParseError

FIXTURES = fixtures_root()
DATA = Path(__file__).parents[1] / "data"
MICRO = FIXTURES / "micro"
GOLDEN = Path(__file__).parent / "fixtures" / "golden_reports.json"


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_runs(converted_manifest: Path) -> dict[str, tuple]:
    """Report commands pinned by the golden file, by run id (format excluded)."""
    return {
        "stats-micro": ("stats", MICRO / "manifest.json"),
        "stats-visdrone-mini": ("stats", converted_manifest),
        "eval-micro-conf0.2": ("eval", MICRO / "manifest.json", MICRO / "detections"),
        "eval-micro-conf0.5": (
            "eval", MICRO / "manifest.json", MICRO / "detections", "--conf-thresh", "0.5",
        ),
        "compare-yolov5x": ("compare", DATA / "model_benchmark.yaml", "--baseline", "yolov5x"),
        "scenario-continual": ("compare", DATA / "continual_runs.yaml", "--scenario"),
        "scenario-forgetting": ("compare", FIXTURES / "forgetting_runs.yaml", "--scenario"),
    }


def convert_visdrone_mini(out: Path) -> Path:
    convert_dataset(
        FIXTURES / "visdrone_mini", ClassMap.visdrone_default(), out,
        split="val", warn=lambda msg: None,
    )
    return out / "manifest.json"


def report_stdout(fmt: str, args: tuple) -> str:
    """Stdout of one successful CLI run in the given output format."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--format", fmt, *map(str, args)])
    assert code == 0, (fmt, args)
    return out.getvalue()


def golden_reports(converted_manifest: Path) -> dict[str, str]:
    return {
        f"{run_id}/{fmt}": report_stdout(fmt, args)
        for run_id, args in golden_runs(converted_manifest).items()
        for fmt in OUTPUT_FORMATS
    }


class TestConvertCommand:
    def test_fixture_conversion(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, stdout, stderr = run(
            capsys, "convert", FIXTURES / "visdrone_mini", out, "--split", "val"
        )
        assert code == 0
        assert "converted 3 images" in stdout
        assert "missing annotation" in stderr
        labels = sorted(p.name for p in (out / "labels" / "val").glob("*.txt"))
        assert labels == ["0000001.txt", "0000002.txt", "0000003.txt"]
        assert (out / "dataset.yaml").is_file()
        assert (out / "manifest.json").is_file()

    def test_empty_source(self, capsys, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        code, _, stderr = run(capsys, "convert", src, tmp_path / "out")
        assert code == 2
        assert "no images found" in stderr

    def test_workers_option_warns_deprecated(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out", "--workers", "2"
        )
        assert code == 0
        assert "warning: workers is deprecated and has no effect" in stderr

    @pytest.mark.parametrize(
        "layout, fault",
        [
            (["annotations/"], "dimensions.txt"),
            (["dimensions.txt"], "src: no annotations/ or labels/ directory found"),
            (["annotations/", "dimensions.txt"], "src: missing images/ directory"),
        ],
        ids=["no-dimension-index", "no-annotation-dir", "no-images-dir"],
    )
    def test_failed_convert_leaves_no_output(self, capsys, tmp_path, layout, fault):
        src = tmp_path / "src"
        src.mkdir()
        for name in layout:
            if name.endswith("/"):
                (src / name).mkdir()
            else:
                (src / name).write_text("")
        code, _, stderr = run(capsys, "convert", src, tmp_path / "out")
        assert code == 2
        assert fault in stderr
        assert not (tmp_path / "out").exists()

    def test_two_image_files_sharing_an_id(self, capsys, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(FIXTURES / "visdrone_mini", src)
        (src / "images" / "0000001.png").write_bytes(b"")
        code, stdout, stderr = run(capsys, "convert", src, tmp_path / "out")
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: {src / 'images'}: 0000001.jpg and 0000001.png share the image id '0000001'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_stray_image_file_names_file_and_dimension_index(self, capsys, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(FIXTURES / "visdrone_mini", src)
        (src / "images" / ".DS_Store").write_bytes(b"")
        code, stdout, stderr = run(capsys, "convert", src, tmp_path / "out")
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: {src / 'images' / '.DS_Store'}: no dimension entry for image "
            f"'.DS_Store' in {src / 'dimensions.txt'}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sidecar, fault",
        [
            ("not a region\n", "1: expected 4 fields, got 3"),
            ("0.9 0.9 0.1 0.1\n0.5 0.5 3.0 0.2\n", "2: normalized component w=3.0 outside [0, 1]"),
        ],
    )
    def test_malformed_yolo_sidecar_fails(self, capsys, tmp_path, sidecar, fault):
        labels = tmp_path / "src" / "labels"
        labels.mkdir(parents=True)
        (labels / "img1.txt").write_text("1 0.5 0.5 0.2 0.2\n")
        (labels / "img1.ignore").write_text(sidecar)
        (tmp_path / "src" / "dimensions.txt").write_text("img1 400 200\n")
        code, stdout, stderr = run(capsys, "convert", tmp_path / "src", tmp_path / "out")
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {labels / 'img1.ignore'}:{fault}\n"
        assert not (tmp_path / "out").exists()

    def test_dimension_index_with_non_ascii_whitespace_fails(self, capsys, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(FIXTURES / "visdrone_mini", src)
        (src / "dimensions.txt").write_text(
            "0000001\u30001920 1080\n0000002 400 250\n0000003 1000 500\n", encoding="utf-8"
        )
        code, stdout, stderr = run(capsys, "convert", src, tmp_path / "out")
        assert (code, stdout) == (2, "")
        path = src / "dimensions.txt"
        assert stderr == f"error: {path}:1: non-ASCII whitespace '\\u3000' in the line\n"
        assert not (tmp_path / "out").exists()

    def test_split_names_is_rejected(self, capsys, tmp_path):
        # dataset.yaml keeps the class names under the key ``names``
        code, stdout, stderr = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out", "--split", "names"
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: split 'names' would overwrite the class names in dataset.yaml\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "9" * 400 + ",10,5,5,0,1,0,0",  # the fast loop, at left
            "1,1," + "9" * 400 + ",5,0,1,0,0",  # the fast loop, at left + width
            "9" * 400 + ",10,5,5,0,1,0,0,",  # a trailing comma: the row checker
        ],
        ids=["left", "right", "row-checker"],
    )
    def test_box_past_the_float_range_names_its_line(self, capsys, tmp_path, line):
        src = tmp_path / "src"
        shutil.copytree(FIXTURES / "visdrone_mini", src)
        annotations = src / "annotations" / "0000001.txt"
        text = annotations.read_text()
        annotations.write_text(text + line + "\n")
        code, stdout, stderr = run(capsys, "convert", src, tmp_path / "out")
        assert (code, stdout) == (2, "")
        lineno = len(text.splitlines()) + 1
        assert stderr == f"error: {annotations}:{lineno}: box coordinate out of the float range\n"
        assert not (tmp_path / "out").exists()

    def test_box_outside_image_names_its_file(self, capsys, tmp_path):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "annotations").mkdir()
        (src / "images" / "a.jpg").write_bytes(b"")
        (src / "annotations" / "a.txt").write_text("10,10,500,20,0,1,0,0\n")
        (src / "dimensions.txt").write_text("a 100 100\n")
        code, stdout, stderr = run(capsys, "convert", src, tmp_path / "out")
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: {src / 'annotations' / 'a.txt'}: normalized cx=2.6 outside [0, 1] "
            "for box (10.0, 10.0, 510.0, 30.0) in 100x100 image\n"
        )
        assert not (tmp_path / "out").exists()

    def test_rerun_identical_bytes(self, capsys, tmp_path):
        out = tmp_path / "out"

        def convert_once():
            code, stdout, _ = run(
                capsys, "convert", FIXTURES / "visdrone_mini", out, "--split", "val"
            )
            assert code == 0
            return stdout, {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }

        out1, tree1 = convert_once()
        out2, tree2 = convert_once()
        assert out1 == out2
        assert tree1 == tree2

    def test_quiet_suppresses_warnings(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "--quiet", "convert", FIXTURES / "visdrone_mini", tmp_path / "out",
        )
        assert code == 0
        assert stderr == ""

    @pytest.mark.parametrize(
        "line, key, shown",
        [
            ("names: abcd", "names", "'abcd'"),
            ("drop: '45'", "drop", "'45'"),
            ("ignore: 0", "ignore", "'0'"),
        ],
    )
    def test_classmap_lists_must_be_lists(self, capsys, tmp_path, line, key, shown):
        cm = tmp_path / "map.yaml"
        names = "" if key == "names" else "names: [pedestrian]\n"  # a key is given once
        cm.write_text(f"{names}map: {{1: 0}}\n{line}\n")
        code, stdout, stderr = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out", "--classmap", cm
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {cm}: invalid class map: {key} must be a list, got {shown}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body, shown",
        [
            # YAML 1.1 reads each of these as a number; a class map takes none of them
            ("map: {1_0: 0}", "'1_0'"),
            ("map: {1: 0}\ndrop: [0x4]", "'0x4'"),
            ("map: {1: 0}\ndrop: [010]", "'010'"),
            ("map: {1: 0}\ndrop: [1:30]", "'1:30'"),
            ("map: {1: 0}\nignore: [true]", "'true'"),
            ("map: {1: 0}\ndrop: [4.7]", "'4.7'"),
            ("map: {1: 0x0}", "'0x0'"),
        ],
    )
    def test_classmap_ids_must_be_plain_decimals(self, capsys, tmp_path, body, shown):
        cm = tmp_path / "map.yaml"
        cm.write_text(f"names: [pedestrian]\n{body}\n")
        code, stdout, stderr = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out", "--classmap", cm
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: {cm}: invalid class map: class ids must be plain decimal integers, "
            f"got {shown}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body, fault",
        [
            ("names: [a, a]\nmap: {1: 0, 2: 1}", "duplicate target class names: ('a', 'a')"),
            ("names: []\nmap: {}", "class map must define at least one target class"),
            (
                "names: [a]\nmap: {1: 0}\ndrop: [1]",
                "a source category may appear in only one of map/drop/ignore",
            ),
            (
                "names: [a, b]\nmap: {1: 0, 2: 2}",
                "target class ids must be contiguous 0..1, got [0, 2]",
            ),
            (
                "names: [a, [b]]\nmap: {1: 0, 2: 1}",
                "names must be a list of strings, got ['a', ['b']]",
            ),
            ("names: [a, b]\nmap: {1: 0, 2: 1, 3: 1, 2: 0}", "key '2' repeats on line 2"),
            (
                "names: [a, b]\nmap: {1: 0, 2: 1, 3: 1, +3: 0}",
                "map gives source id 3 twice, the second as '+3'",
            ),
            ("names: [a, b]\nmap: {1: 0, 2: 1}\nnames: [b, a]", "key 'names' repeats on line 3"),
            ("names: [a]\nmap: [1, 2]", "map must be a mapping, got ['1', '2']"),
            ("names: [a]\nmap:", "map must be a mapping, got ''"),
        ],
        ids=[
            "duplicate-names", "no-names", "map-and-drop", "non-contiguous", "nested-name",
            "repeated-map-key", "two-spellings", "repeated-names", "map-list", "map-empty",
        ],
    )
    def test_classmap_schema_fault_names_the_map(self, capsys, tmp_path, body, fault):
        cm = tmp_path / "map.yaml"
        cm.write_text(f"{body}\n")
        code, stdout, stderr = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out", "--classmap", cm
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {cm}: invalid class map: {fault}\n"
        assert not (tmp_path / "out").exists()

    def test_classmap_names_are_kept_as_written(self, capsys, tmp_path):
        cm = tmp_path / "map.yaml"
        cm.write_text(
            "names: [pedestrian, 'no', off, 1.50, null]\nmap: {1: 0, 2: 1, 3: 2, 7: 3, 0: 4}\n"
            "drop: [4, 5, 6, 8, 9, 10, 11]\n"
        )
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "convert", FIXTURES / "visdrone_mini", out, "--classmap", cm)
        assert code == 0
        assert "classes: pedestrian, no, off, 1.50, null" in stdout
        names = ["pedestrian", "no", "off", "1.50", "null"]
        assert yaml.safe_load((out / "dataset.yaml").read_text())["names"] == names
        assert json.loads((out / "manifest.json").read_text())["class_names"] == names

    def test_classmap_ids_may_be_decimal_strings(self, capsys, tmp_path):
        # JSON object keys are strings: a quoted decimal is an id too
        cm = tmp_path / "map.json"
        cm.write_text(
            '{"names": ["pedestrian"], "map": {"1": 0}, '
            '"drop": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11], "ignore": [0]}'
        )
        code, stdout, _ = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out", "--classmap", cm
        )
        assert code == 0
        assert "classes: pedestrian" in stdout

    def test_classmap_tags_are_read_as_text(self, capsys, tmp_path):
        # the base loader keeps every scalar as written; run files reject such keys
        cm = tmp_path / "map.yaml"
        cm.write_text(
            "names: [pedestrian]\nmap: {!!int 1: 0}\ndrop: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]\n"
            "ignore: [0]\n"
        )
        code, stdout, _ = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out", "--classmap", cm
        )
        assert (code, stdout.count("classes: pedestrian")) == (0, 1)

    @pytest.mark.parametrize(
        "name, fault",
        [
            ("ped\nestrian", "is not one line"),
            ("pedestrian\n", "is not one line"),
            ("ped\r\nestrian", "is not one line"),
            ("ped\x85", "is not one line"),
            ("ped\u2028", "is not one line"),
            ("ped\ud800", "is not UTF-8 text"),  # a lone surrogate, from a "\ud800" escape
        ],
        ids=["lf", "trailing-lf", "crlf", "nel", "line-separator", "lone-surrogate"],
    )
    def test_classmap_name_must_be_one_line(self, capsys, tmp_path, name, fault):
        cm = tmp_path / "map.json"
        names = [name, "people", "bicycle", "tricycle"]
        cm.write_text(json.dumps({"names": names, **VISDRONE_MAP}))
        code, stdout, stderr = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out", "--classmap", cm
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {cm}: invalid class map: class name {name!r} {fault}\n"
        assert not (tmp_path / "out").exists()

    def test_custom_classmap(self, capsys, tmp_path):
        cm = tmp_path / "map.yaml"
        cm.write_text(
            "names: [pedestrian]\nmap: {1: 0}\ndrop: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]\nignore: [0]\n"
        )
        code, stdout, _ = run(
            capsys, "convert", FIXTURES / "visdrone_mini", tmp_path / "out",
            "--classmap", cm,
        )
        assert code == 0
        assert "classes: pedestrian" in stdout


# the default remap of ``ClassMap.visdrone_default``, as class-map keys
VISDRONE_MAP = {"map": {1: 0, 2: 1, 3: 2, 7: 3}, "drop": [4, 5, 6, 8, 9, 10, 11], "ignore": [0]}


def markdown_cells(text: str) -> list[int]:
    """The number of cells on each line of a markdown table; an escaped ``|`` is text."""
    return [len(re.split(r"(?<!\\)\|", line)) - 2 for line in text.splitlines() if line]


class TestStatsCommand:
    @pytest.fixture()
    def converted(self, capsys, tmp_path):
        out = tmp_path / "ds"
        assert run(capsys, "convert", FIXTURES / "visdrone_mini", out, "--split", "val")[0] == 0
        return out / "manifest.json"

    def test_aligned_table(self, capsys, converted):
        code, stdout, _ = run(capsys, "stats", converted)
        assert code == 0
        assert "pedestrian" in stdout and "all" in stdout

    def test_structured(self, capsys, converted):
        code, stdout, _ = run(capsys, "--format", "structured", "stats", converted)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["all"] == {"images": 3, "instances": 4}
        assert doc["classes"][0] == {"name": "pedestrian", "images": 1, "instances": 1}

    def test_corrupt_label_line(self, capsys, converted):
        bad = converted.parent / "labels" / "val" / "0000002.txt"
        bad.write_text("3 0.5 oops 0.1 0.1\n")
        code, _, stderr = run(capsys, "stats", converted)
        assert code == 2
        assert "0000002.txt:1" in stderr

    def test_markdown_escapes_a_bar_in_a_class_name(self, capsys, tmp_path):
        cm = tmp_path / "map.json"
        names = ["ped|estrian", "people", "bicycle", "tricycle"]
        cm.write_text(json.dumps({"names": names, **VISDRONE_MAP}))
        out = tmp_path / "ds"
        assert run(capsys, "convert", FIXTURES / "visdrone_mini", out, "--classmap", cm)[0] == 0
        code, stdout, _ = run(capsys, "--format", "markdown", "stats", out / "manifest.json")
        assert code == 0
        assert "| ped\\|estrian | 1 | 1 |\n" in stdout
        assert markdown_cells(stdout) == [3] * 7
        # the other formats keep the name as it is
        assert run(capsys, "stats", out / "manifest.json")[1].count("ped|estrian  ") == 1
        csv_out = run(capsys, "--format", "csv", "stats", out / "manifest.json")[1]
        assert "ped|estrian,1,1\n" in csv_out

    @pytest.mark.parametrize(
        "name, fault",
        [
            ("c0\nc1", "is not one line"),
            ("c0\r", "is not one line"),
            ("c0\u2029c1", "is not one line"),
            ("c0\ud800", "is not UTF-8 text"),
        ],
        ids=["lf", "trailing-cr", "paragraph-separator", "lone-surrogate"],
    )
    def test_manifest_class_name_must_be_one_line(self, capsys, tmp_path, name, fault):
        mf = tmp_path / "manifest.json"
        mf.write_text(json.dumps({"split": "t", "class_names": [name], "images": []}))
        code, stdout, stderr = run(capsys, "stats", mf)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {mf}: invalid manifest: class name {name!r} {fault}\n"

    def test_empty_manifest(self, capsys, tmp_path):
        mf = tmp_path / "manifest.json"
        mf.write_text('{"split": "t", "class_names": ["c0"], "images": []}')
        code, stdout, _ = run(capsys, "stats", mf)
        assert code == 0
        assert "0" in stdout


class TestEvalCommand:
    def test_structured_report(self, capsys):
        code, stdout, _ = run(
            capsys, "--format", "structured", "eval",
            MICRO / "manifest.json", MICRO / "detections",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["all"]["ap50"] == 0.608333
        assert doc["config"] == {"iou_thresh": 0.5, "conf_thresh": 0.2}

    def test_aligned_report(self, capsys):
        code, stdout, _ = run(capsys, "eval", MICRO / "manifest.json", MICRO / "detections")
        assert code == 0
        assert "pedestrian" in stdout and "0.5500" in stdout

    def test_missing_detection_file(self, capsys, tmp_path):
        dets = tmp_path / "dets"
        dets.mkdir()
        (dets / "img1.txt").write_text("")
        code, _, stderr = run(capsys, "eval", MICRO / "manifest.json", dets)
        assert code == 2
        assert "img2" in stderr and "img3" in stderr

    def test_report_file_written(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", MICRO / "manifest.json", MICRO / "detections", "--out", out
        )
        assert code == 0
        assert json.loads(out.read_text())["all"]["ap50"] == 0.608333

    def test_unwritable_report_file(self, capsys, tmp_path):
        out = tmp_path / "missing" / "r.json"
        code, stdout, stderr = run(
            capsys, "eval", MICRO / "manifest.json", MICRO / "detections", "--out", out
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_report_file_is_structured_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "--format", "structured", "eval",
            MICRO / "manifest.json", MICRO / "detections", "--out", out,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == stdout

    def test_stray_detection_file_warned(self, capsys, tmp_path):
        dets = tmp_path / "dets"
        shutil.copytree(MICRO / "detections", dets)
        (dets / "zzz.txt").write_text("0 0.9 0.5 0.5 0.2 0.2\n")
        code, stdout, stderr = run(
            capsys, "--format", "structured", "eval", MICRO / "manifest.json", dets
        )
        message = f"1 detection files in {dets} belong to no manifest image (first: zzz.txt); " \
            "not evaluated"
        assert code == 0
        assert json.loads(stdout)["warnings"] == [message]
        assert stderr == f"warning: {message}\n"

    @pytest.mark.parametrize(
        "bad, named",
        [
            # an image's labels are read before its detections
            (("labels/val/img1.txt", "detections/img1.txt"), "labels/val/img1.txt:4"),
            # and an image is read only after the one before it is matched
            (("detections/img1.txt", "labels/val/img2.txt"), "detections/img1.txt:6"),
        ],
        ids=["labels-before-detections", "image-before-next-image"],
    )
    def test_first_malformed_file_in_read_order_is_named(
        self, capsys, tmp_path, monkeypatch, bad, named
    ):
        shutil.copytree(MICRO, tmp_path / "micro")
        for name in bad:
            with open(tmp_path / "micro" / name, "a", encoding="utf-8") as f:
                f.write("junk\n")
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, "eval", "micro/manifest.json", "micro/detections")
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: micro/{named}: expected ")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize(
        "kind, line",
        [
            (kind, LINE_PARSERS[kind][1] + box)
            for kind in sorted(LINE_PARSERS)
            for box, _ in BOX_ERRORS
        ]
        + [
            ("detection", "0 0.9 0.5 0.5 0.2"),
            ("detection", "2 0.9 0.5 0.5 0.2 0.2"),
            ("detection", "a 0.9 0.5 0.5 0.2 0.2"),
            ("detection", "0 1.5 0.5 0.5 0.2 0.2"),
            ("detection", "0 high 0.5 0.5 0.2 0.2"),
            ("detection", "0 0.9_5 0.125 0.2 0.12 0.192"),
            ("detection", "\u0661 0.9 0.125 0.2 0.12 0.192"),
            ("label", "1_0 0.125 0.2 0.12 0.192"),
        ],
    )
    def test_bad_line_fails_as_its_parser_reports(self, capsys, tmp_path, kind, line):
        root = tmp_path / "micro"
        shutil.copytree(MICRO, root)
        manifest = load_manifest(root / "manifest.json")
        img = manifest.images[0]  # it has labels, ignore regions and detections
        path, parse = {
            "detection": (
                root / "detections" / f"{img.image_id}.txt",
                lambda text, path: parse_detection_rows(text, img.dims, 2, path),
            ),
            "label": (
                manifest.label_file(img),
                lambda text, path: parse_box_rows(text, 1, img.dims, 2, path),
            ),
            "ignore": (
                manifest.label_file(img).with_suffix(".ignore"),
                lambda text, path: parse_box_rows(text, 0, img.dims, None, path),
            ),
        }[kind]
        text = path.read_text() + line + "\n"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            parse(text, str(path))
        code, stdout, stderr = run(capsys, "eval", root / "manifest.json", root / "detections")
        assert (code, stdout, stderr) == (2, "", f"error: {info.value}\n")
        if kind != "detection":  # stats reads the same ground truth
            assert run(capsys, "stats", root / "manifest.json") == (2, "", f"error: {info.value}\n")

    @pytest.mark.parametrize("command", ["eval", "stats"])
    @pytest.mark.parametrize(
        "old, new, fault",
        [
            ('"width": 800', f'"width": {width}', f"image dims must be integers, got {shown}x500")
            for width, shown in [
                ("NaN", "nan"),
                ("1e400", "inf"),
                ("800.5", "800.5"),
                ("true", "True"),
                ('"800"', "'800'"),
            ]
        ]
        + [
            ('["pedestrian", "people"]', new, f"class_names must be a list of strings, got {shown}")
            for new, shown in [('"ab"', "'ab'"), ("[1, 2]", "[1, 2]")]
        ]
        + [
            (
                '["pedestrian", "people"]',
                '["pedestrian", "pedestrian"]',
                "duplicate class names: ('pedestrian', 'pedestrian')",
            ),
            (
                '"image_id": "img2"',
                '"image_id": "img1"',
                "duplicate image ids in split 'val': 'img1' repeats",
            ),
            # 7 and "7" would pass the duplicate check and read one label file
            ('"image_id": "img2"', '"image_id": 7', "image_id must be a string, got 7"),
            # eval lists only the top level of the detection directory
            (
                '"image_id": "img2"',
                '"image_id": "sub/img2"',
                "image_id 'sub/img2' must not contain '/'",
            ),
            ('"split": "val"', '"split": [1, 2]', "split must be a string, got [1, 2]"),
        ],
    )
    def test_bad_manifest_value_names_the_manifest(
        self, capsys, tmp_path, command, old, new, fault
    ):
        root = tmp_path / "micro"
        shutil.copytree(MICRO, root)
        manifest = root / "manifest.json"
        text = json.dumps(json.loads(manifest.read_text()))  # one line: "class_names": [...]
        manifest.write_text(text.replace(old, new, 1))
        args = [root / "detections"] if command == "eval" else []
        code, stdout, stderr = run(capsys, command, manifest, *args)
        assert (code, stdout, stderr) == (2, "", f"error: {manifest}: invalid manifest: {fault}\n")

    def test_threshold_validation(self, capsys):
        code, _, stderr = run(
            capsys, "eval", MICRO / "manifest.json", MICRO / "detections",
            "--iou-thresh", "1.5",
        )
        assert code == 1
        assert "--iou-thresh" in stderr

    def test_determinism(self, capsys):
        args = ("--format", "structured", "eval", MICRO / "manifest.json", MICRO / "detections")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second


class TestCompareCommand:
    def test_baseline_comparison(self, capsys):
        code, stdout, stderr = run(
            capsys, "compare", DATA / "model_benchmark.yaml", "--baseline", "yolov5x"
        )
        assert code == 0
        assert "+12.14" in stdout and "+45.61" in stdout
        assert "yolov8x" in stderr  # stated-F1 discrepancy note

    def test_structured_comparison(self, capsys):
        code, stdout, _ = run(
            capsys, "--format", "structured", "compare",
            DATA / "model_benchmark.yaml", "--baseline", "yolov7x",
        )
        doc = json.loads(stdout)
        v8x = next(r for r in doc["runs"] if r["name"] == "yolov8x")
        assert abs(v8x["improvement_vs_baseline"]["f1"] - 21.26) <= 0.01
        assert abs(v8x["improvement_vs_baseline"]["map50"] - 128.44) <= 0.01
        assert abs(v8x["computational_time_s"] - 0.297) <= 0.005

    def test_scenario_mode(self, capsys):
        code, stdout, stderr = run(
            capsys, "compare", DATA / "continual_runs.yaml", "--scenario"
        )
        assert code == 0
        assert "+21.09" in stdout  # f1 d-vs-c at display precision
        assert "+31.89" in stdout  # map50 d-vs-c from the stated table values
        assert "catastrophic forgetting suspected" in stdout
        assert "sequential-adam" in stdout

    def test_scenario_structured(self, capsys):
        code, stdout, _ = run(
            capsys, "--format", "structured", "compare",
            DATA / "continual_runs.yaml", "--scenario",
        )
        doc = json.loads(stdout)
        flags = {f["run"]: f["flagged"] for f in doc["forgetting_flags"]}
        assert flags == {"sequential-adam": True, "sequential-sgd": False}

    def test_single_record(self, capsys, tmp_path):
        path = tmp_path / "one.yaml"
        path.write_text("runs:\n  - name: only\n    map50: 0.5\n")
        code, _, _ = run(capsys, "compare", path, "--baseline", "only")
        assert code == 2

    def test_multiple_run_files_merged(self, capsys, tmp_path):
        first = tmp_path / "first.yaml"
        second = tmp_path / "second.yaml"
        first.write_text("runs:\n  - name: a\n    map50: 0.4\n")
        second.write_text("runs:\n  - name: b\n    map50: 0.5\n")
        code, stdout, _ = run(capsys, "compare", first, second, "--baseline", "a")
        assert code == 0
        assert "+25.00" in stdout

    @pytest.mark.parametrize(
        "mode", [("--baseline", "c"), ("--scenario",)], ids=["baseline", "scenario"]
    )
    def test_markdown_escapes_a_bar_in_a_run_name(self, capsys, tmp_path, mode):
        path = tmp_path / "runs.yaml"
        path.write_text("runs:\n  - name: a|b\n    map50: 0.4\n  - name: c\n    map50: 0.5\n")
        code, stdout, _ = run(capsys, "--format", "markdown", "compare", path, *mode)
        assert code == 0
        assert "| a\\|b | " in stdout and "| a|b" not in stdout
        for table in stdout.split("\n\n"):
            cells = markdown_cells(table)
            assert cells == [cells[0]] * len(cells), table

    @pytest.mark.parametrize(
        "name, fault",
        [
            ("a\nb", "is not one line"),
            ("a\n", "is not one line"),
            ("a\x0cb", "is not one line"),
            ("a\u2028b", "is not one line"),
            ("a\ud800", "is not UTF-8 text"),
        ],
        ids=["lf", "trailing-lf", "form-feed", "line-separator", "lone-surrogate"],
    )
    def test_run_name_must_be_one_line(self, capsys, tmp_path, name, fault):
        path = tmp_path / "runs.yaml"
        path.write_text(json.dumps({"runs": [{"name": name, "map50": 0.4}, {"name": "c"}]}))
        code, stdout, stderr = run(capsys, "compare", path, "--baseline", "c")
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {path}: run name {name!r} {fault}\n"

    @pytest.mark.parametrize(
        "field, fault",
        [
            ("eval_dataset", "run 'a': eval_dataset 'val\\nset' is not one line"),
            (
                "task",
                "invalid forgetting entry {'task': 'val\\nset', 'metric': 'map50', 'before': "
                "0.5, 'after': 0.4}: task 'val\\nset' is not one line",
            ),
            (
                "metric",
                "invalid forgetting entry {'task': 'day', 'metric': 'val\\nset', 'before': "
                "0.5, 'after': 0.4}: metric 'val\\nset' is not one line",
            ),
        ],
        ids=["eval_dataset", "task", "metric"],
    )
    def test_table_text_must_be_one_line(self, capsys, tmp_path, field, fault):
        """A run's ``eval_dataset`` and a forgetting entry's ``task`` and ``metric``
        fill table cells, so a line break in one would split its row."""
        entry = {"task": "day", "metric": "map50", "before": 0.5, "after": 0.4}
        run_a = {"name": "a", "map50": 0.4}
        (run_a if field == "eval_dataset" else entry)[field] = "val\nset"
        path = tmp_path / "runs.yaml"
        path.write_text(json.dumps({"runs": [run_a, {"name": "b"}], "forgetting": [entry]}))
        code, stdout, stderr = run(capsys, "compare", path, "--scenario")
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {path}: {fault}\n"

    def test_duplicate_names_across_files(self, capsys, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text("runs:\n  - name: a\n    map50: 0.4\n  - name: b\n    map50: 0.5\n")
        code, _, stderr = run(capsys, "compare", path, path, "--baseline", "a")
        assert code == 2
        assert "duplicate" in stderr

    @pytest.mark.parametrize(
        "field, fault",
        [
            ("eval_dataset: 5", "eval_dataset=5 is not a string"),
            ("note: [x]", "note=['x'] is not a string"),
            ("date: 2024-01-01", "date=datetime.date(2024, 1, 1) is not a JSON value"),
            ("gain: .nan", "gain=nan is not a JSON value"),
            # an int too large for a float (the table writes fps with {:g})
            (f"fps: {10**400}", f"fps={10**400} must be finite and positive"),
            (f"training_hours: {10**400}", f"training_hours={10**400} must be finite"),
        ],
        ids=["eval-dataset-int", "note-list", "extra-date", "extra-nan", "fps-int", "hours-int"],
    )
    @pytest.mark.parametrize("mode", [("--baseline", "b"), ("--scenario",)])
    @pytest.mark.parametrize("fmt", ["aligned", "structured"])
    def test_value_a_report_cannot_render_is_rejected(
        self, capsys, tmp_path, field, fault, mode, fmt
    ):
        path = tmp_path / "runs.yaml"
        path.write_text(f"runs:\n  - name: a\n    {field}\n  - name: b\n")
        code, stdout, stderr = run(capsys, "--format", fmt, "compare", path, *mode)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {path}: run 'a': {fault}\n"

    def test_forgetting_entry_text_must_be_a_string(self, capsys, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text(
            "runs:\n  - name: a\n  - name: b\n"
            "forgetting:\n  - {task: on, metric: map50, before: 0.5, after: 0.4}\n"
        )
        code, stdout, stderr = run(capsys, "compare", path, "--scenario")
        assert (code, stdout) == (2, "")
        entry = {"task": True, "metric": "map50", "before": 0.5, "after": 0.4}
        assert stderr == (
            f"error: {path}: invalid forgetting entry {entry!r}: task=True is not a string\n"
        )

    @pytest.mark.parametrize("option", ["--frames", "--epsilon"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("mode", [("--baseline", "yolov5x"), ("--scenario",)])
    def test_non_finite_option_is_usage_error(self, capsys, option, value, mode):
        code, stdout, stderr = run(
            capsys, "--format", "structured", "compare",
            DATA / "model_benchmark.yaml", *mode, option, value,
        )
        assert code == 1
        assert stdout == ""
        assert option in stderr and "finite" in stderr

    def test_baseline_required_without_scenario(self, capsys):
        code, _, stderr = run(capsys, "compare", DATA / "model_benchmark.yaml")
        assert code == 1
        assert "--baseline" in stderr

    def test_markdown_format(self, capsys):
        code, stdout, _ = run(
            capsys, "--format", "markdown", "compare",
            DATA / "model_benchmark.yaml", "--baseline", "yolov5x",
        )
        assert code == 0
        assert stdout.startswith("| Run |")

    def test_defaults_are_the_benchmark_constants(self):
        from vrueval import benchmark
        from vrueval.cli import build_parser

        args = build_parser().parse_args(["compare", str(DATA / "model_benchmark.yaml")])
        assert args.frames == benchmark.DEFAULT_FRAMES
        assert args.epsilon == benchmark.DEFAULT_EPSILON
        (sort_by,) = (action for action in args.parser._actions if action.dest == "sort_by")
        assert tuple(sort_by.choices) == tuple(benchmark.METRIC_FIELDS)

    def test_csv_format(self, capsys):
        code, stdout, _ = run(
            capsys, "--format", "csv", "compare",
            DATA / "model_benchmark.yaml", "--baseline", "yolov5x",
        )
        assert code == 0
        assert stdout.splitlines()[0].startswith("Run,")


class TestCliContract:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "stats", "--bogus")
        assert code == 1

    @pytest.mark.parametrize(
        "args, error",
        [
            (("stats", "--bogus"), "unrecognized arguments: --bogus"),
            (("eval", "--bogus", MICRO / "manifest.json"), "unrecognized arguments: --bogus"),
            (("--bogus",), "unrecognized arguments: --bogus"),
            (("stats",), "the following arguments are required: MANIFEST"),
            (("eval", MICRO / "manifest.json"), "the following arguments are required: DETECTIONS"),
        ],
        ids=[
            "before-positional", "between-positionals", "before-command", "missing", "one-missing",
        ],
    )
    def test_unknown_option_is_named_before_a_missing_argument(self, capsys, args, error):
        code, stdout, stderr = run(capsys, *args)
        assert (code, stdout) == (1, "")
        assert stderr.splitlines()[-1] == f"Error: {error}"

    @pytest.mark.parametrize(
        "args, named",
        [
            (("frobnicate",), "frobnicate"),
            (("stats", MICRO / "manifest.json", "--bogus"), "--bogus"),
            (("eval", MICRO / "manifest.json", MICRO / "detections", "--iou", "0.5"), "--iou"),
            (("eval", MICRO / "manifest.json"), "DETECTIONS"),
            (("--format", "xml", "stats", MICRO / "manifest.json"), "--format"),
            (
                ("eval", MICRO / "manifest.json", MICRO / "detections", "--iou-thresh", "abc"),
                "--iou-thresh",
            ),
            (("stats", "{tmp}/missing.json"), "MANIFEST"),
            (("stats", MICRO), "MANIFEST"),
            (("eval", MICRO / "manifest.json", MICRO / "manifest.json"), "DETECTIONS"),
            (("convert", FIXTURES / "visdrone_mini", "{tmp}/file"), "OUT"),
            (("convert", FIXTURES / "visdrone_mini", "{tmp}/out", "--classmap", MICRO), "--classmap"),
        ],
        ids=[
            "unknown-command", "unknown-option", "abbreviated-option", "missing-argument",
            "bad-choice", "not-a-float", "missing-manifest", "manifest-is-directory",
            "detections-is-file", "out-is-file", "classmap-is-directory",
        ],
    )
    def test_usage_error_names_the_argument(self, capsys, tmp_path, args, named):
        (tmp_path / "file").write_text("")
        args = [str(arg).replace("{tmp}", str(tmp_path)) for arg in args]
        code, stdout, stderr = run(capsys, *args)
        assert (code, stdout) == (1, "")
        assert "Traceback" not in stderr
        lines = stderr.splitlines()
        assert lines[0].startswith("Usage: ")
        assert named in next(line for line in lines if line.startswith("Error: "))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize(
        "command, defaults",
        [
            ((), ["aligned"]),
            (("convert",), ["train", "auto"]),
            (("eval",), ["0.5", "0.2"]),
            (("compare",), ["map50", "30.0", "0.02"]),
        ],
    )
    def test_help_shows_defaults(self, capsys, command, defaults):
        code, stdout, _ = run(capsys, *command, "--help")
        assert code == 0
        for default in defaults:
            assert re.search(rf"default:\s+{re.escape(default)}\]", stdout), default

    @pytest.mark.parametrize(
        "args",
        [
            ("--help",),
            ("convert", "--help"),
            ("stats", "--help"),
            ("eval", "--help"),
            ("compare", "--help"),
        ],
    )
    def test_help_exits_zero(self, capsys, args):
        code, stdout, _ = run(capsys, *args)
        assert code == 0
        assert "Usage" in stdout

    def test_help_documents_formats(self, capsys):
        _, stdout, _ = run(capsys, "--help")
        for fmt in ("aligned", "csv", "markdown", "structured"):
            assert fmt in stdout

    @pytest.mark.parametrize(
        "name, text, args, fault",
        [
            (
                "runs.yaml",
                "runs:\n  - name: a\n    precision: 0.5\n    precision: 0.9\n  - name: b\n",
                ("compare", "--baseline", "b"),
                "invalid YAML: key 'precision' repeats on line 4",
            ),
            (
                "runs.yaml",
                "runs:\n  - name: a\n  - name: b\nruns:\n  - name: c\n",
                ("compare", "--baseline", "a"),
                "invalid YAML: key 'runs' repeats on line 4",
            ),
            (
                "runs.yaml",
                "runs:\n  - name: a\n  - name: b\n"
                "forgetting:\n"
                "  - {task: t1, metric: map50, before: 0.5, after: 0.4, after: 0.5}\n",
                ("compare", "--scenario"),
                "invalid YAML: key 'after' repeats on line 5",
            ),
            (
                "manifest.json",
                '{"split": "val", "split": "train", "class_names": ["a"], "images": []}',
                ("stats",),
                "invalid manifest JSON: key 'split' repeats",
            ),
        ],
        ids=["run-field", "runs-section", "forgetting-field", "manifest-split"],
    )
    def test_key_written_twice_names_its_file(self, capsys, tmp_path, name, text, args, fault):
        path = tmp_path / name
        path.write_text(text)
        code, stdout, stderr = run(capsys, args[0], path, *args[1:])
        assert (code, stdout, stderr) == (2, "", f"error: {path}: {fault}\n")

    @pytest.mark.parametrize(
        "run_text, fault",
        [
            ("{name: a, 1: x, 0x1: y}", "key '1' on line 2 reads as int"),
            ("{name: a, yes: x, true: y}", "key 'yes' on line 2 reads as bool"),
            ("{name: a, gpu: {1: a, 0x1: b}}", "key '1' on line 2 reads as int"),
        ],
        ids=["int-spellings", "bool-spellings", "nested"],
    )
    def test_run_file_key_must_read_as_a_string(self, capsys, tmp_path, run_text, fault):
        # 1 and 0x1, or yes and true, would build one key and keep the last value
        path = tmp_path / "runs.yaml"
        path.write_text(f"runs:\n  - {run_text}\n  - {{name: b}}\n")
        code, stdout, stderr = run(capsys, "compare", path, "--baseline", "b")
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {path}: invalid YAML: {fault}, not a string; quote it\n"

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    @pytest.mark.parametrize("mode", [("--baseline", "a"), ("--scenario",)])
    def test_overflowing_improvement_names_metric_and_runs(self, capsys, tmp_path, fmt, mode):
        path = tmp_path / "runs.yaml"
        path.write_text("runs:\n  - {name: a, map50: 1.0e-320}\n  - {name: b, map50: 0.5}\n")
        code, stdout, stderr = run(capsys, "--format", fmt, "compare", path, *mode)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: map50 of run 'b' against 'a': ")
        assert stderr.endswith(" overflows\n")

    def test_run_may_override_a_merged_key(self, capsys, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text(
            "defaults: &defaults\n  precision: 0.5\n  recall: 0.4\n"
            "runs:\n  - <<: *defaults\n    name: a\n    precision: 0.6\n"
            "  - <<: *defaults\n    name: b\n"
        )
        code, stdout, _ = run(capsys, "--format", "csv", "compare", path, "--baseline", "b")
        assert code == 0
        assert stdout.splitlines()[1:] == [
            "a,0.6000,0.4000,,,,,+20.00,+0.00,,",
            "b,0.5000,0.4000,,,,,+0.00,+0.00,,",
        ]

    def test_malformed_run_file_no_traceback(self, capsys, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text("runs: {not a list\n")
        code, _, stderr = run(capsys, "compare", path, "--baseline", "x")
        assert code == 2
        assert "Traceback" not in stderr

    @pytest.mark.parametrize(
        "bad, args",
        [
            ("micro/detections/img1.txt", ("eval", "micro/manifest.json", "micro/detections")),
            ("micro/labels/val/img1.txt", ("eval", "micro/manifest.json", "micro/detections")),
            ("micro/labels/val/img1.txt", ("stats", "micro/manifest.json")),
            ("micro/manifest.json", ("stats", "micro/manifest.json")),
            ("runs.yaml", ("compare", "runs.yaml", "--baseline", "yolov5x")),
            ("map.yaml", ("convert", "visdrone_mini", "out", "--classmap", "map.yaml")),
            ("visdrone_mini/annotations/0000001.txt", ("convert", "visdrone_mini", "out")),
            ("visdrone_mini/dimensions.txt", ("convert", "visdrone_mini", "out")),
        ],
        ids=[
            "detections-eval", "labels-eval", "labels-stats", "manifest", "run-file",
            "class-map", "source-annotations", "dimension-index",
        ],
    )
    def test_undecodable_input_names_its_file(self, capsys, tmp_path, monkeypatch, bad, args):
        shutil.copytree(MICRO, tmp_path / "micro")
        shutil.copytree(FIXTURES / "visdrone_mini", tmp_path / "visdrone_mini")
        shutil.copy(DATA / "model_benchmark.yaml", tmp_path / "runs.yaml")
        (tmp_path / "map.yaml").write_text("names: [pedestrian]\nmap: {1: 0}\n")
        text = (tmp_path / bad).read_bytes()
        (tmp_path / bad).write_bytes(text + b"\xff\xfe0 0.5\n")
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, *args)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {bad}: not UTF-8 text: byte {len(text)}: invalid start byte\n"

    @pytest.mark.parametrize(
        "bad, line, parse",
        [
            (
                "labels/val/img2.txt", "0 0.5 0.5 0.2",
                lambda text, dims, path: parse_box_rows(text, 1, dims, 2, path),
            ),
            (
                "labels/val/img1.ignore", "0.5 0.5 0.2 nan",
                lambda text, dims, path: parse_box_rows(text, 0, dims, None, path),
            ),
        ],
        ids=["label", "sidecar"],
    )
    def test_bare_manifest_in_the_working_directory_names_relative_paths(
        self, capsys, tmp_path, monkeypatch, bad, line, parse
    ):
        """A manifest read from the working directory has the root ``.``; ground-truth
        paths are named as the label paths give them, with no ``./`` in front."""
        shutil.copytree(MICRO, tmp_path / "micro")
        monkeypatch.chdir(tmp_path / "micro")
        text = Path(bad).read_text() + line + "\n"
        Path(bad).write_text(text)
        dims = load_manifest("manifest.json").images[0].dims  # img1 and img2 share them
        with pytest.raises(ParseError) as info:
            parse(text, dims, bad)
        expected = f"error: {info.value}\n"
        assert expected.startswith(f"error: {bad}:{len(text.splitlines())}: ")
        assert run(capsys, "stats", "manifest.json") == (2, "", expected)
        assert run(capsys, "eval", "manifest.json", "detections") == (2, "", expected)

    @pytest.mark.parametrize(
        "bad, old, new, args, fault",
        [
            # an image size no float holds (401 digits)
            (
                "visdrone_mini/dimensions.txt", "0000001 800", "0000001 " + "9" * 401,
                ("convert", "visdrone_mini", "out"),
                "visdrone_mini/dimensions.txt:1: image dims must be within the float range",
            ),
            (
                "micro/manifest.json", '"width": 800', '"width": ' + "9" * 401,
                ("eval", "micro/manifest.json", "micro/detections"),
                "micro/manifest.json: invalid manifest: image dims must be within the float range",
            ),
            (
                "micro/manifest.json", '"width": 800', '"width": ' + "9" * 401,
                ("stats", "micro/manifest.json"),
                "micro/manifest.json: invalid manifest: image dims must be within the float range",
            ),
            # an int past Python's digit limit for str -> int, and nesting past the recursion limit
            (
                "micro/manifest.json", '"width": 800', '"width": ' + "9" * 5000,
                ("stats", "micro/manifest.json"), "micro/manifest.json: invalid manifest JSON: ",
            ),
            (
                "micro/manifest.json", '"images": [', '"images": ' + "[" * 100_000,
                ("stats", "micro/manifest.json"), "micro/manifest.json: invalid manifest JSON: ",
            ),
            (
                "runs.yaml", "- name: yolov5x", "- name: yolov5x\n    note: " + "1" * 5000,
                ("compare", "runs.yaml", "--baseline", "yolov5x"), "runs.yaml: invalid YAML: ",
            ),
            (
                "map.yaml", "map:", "drop: " + "[" * 3000 + "]" * 3000 + "\nmap:",
                ("convert", "visdrone_mini", "out", "--classmap", "map.yaml"),
                "map.yaml: invalid class map: ",
            ),
        ],
        ids=[
            "dims-convert", "dims-eval", "dims-stats", "manifest-digits", "manifest-nesting",
            "run-file-digits", "class-map-nesting",
        ],
    )
    def test_value_python_cannot_hold_names_its_file(
        self, capsys, tmp_path, monkeypatch, bad, old, new, args, fault
    ):
        shutil.copytree(MICRO, tmp_path / "micro")
        shutil.copytree(FIXTURES / "visdrone_mini", tmp_path / "visdrone_mini")
        shutil.copy(DATA / "model_benchmark.yaml", tmp_path / "runs.yaml")
        (tmp_path / "map.yaml").write_text("names: [pedestrian]\nmap: {1: 0}\n")
        text = (tmp_path / bad).read_text()
        assert old in text
        (tmp_path / bad).write_text(text.replace(old, new, 1))
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, *args)
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: {fault}"), stderr[:200]
        assert stderr.endswith("\n") and stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestGoldenReports:
    """Every report, in every format, byte for byte as pinned in the golden file.

    Regenerate the file (only for an intended report change) with
    ``PYTHONPATH=src python tests/test_cli.py``.
    """

    @pytest.fixture(scope="class")
    def converted(self, tmp_path_factory):
        return convert_visdrone_mini(tmp_path_factory.mktemp("golden") / "ds")

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    @pytest.mark.parametrize("run_id", list(golden_runs(Path("manifest.json"))))
    def test_report_bytes(self, converted, run_id, fmt):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        args = golden_runs(converted)[run_id]
        assert report_stdout(fmt, args) == golden[f"{run_id}/{fmt}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = golden_reports(convert_visdrone_mini(Path(tmp) / "ds"))
    GOLDEN.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
