import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from helpers import fixtures_root
from vrueval.annotations import ClassMap
from vrueval.cli import OUTPUT_FORMATS, main
from vrueval.dataset import convert_dataset

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

    def test_failed_convert_leaves_no_output(self, capsys, tmp_path):
        src = tmp_path / "src"
        (src / "annotations").mkdir(parents=True)
        code, _, stderr = run(capsys, "convert", src, tmp_path / "out")
        assert code == 2
        assert "dimensions.txt" in stderr
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

    def test_report_file_is_structured_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "--format", "structured", "eval",
            MICRO / "manifest.json", MICRO / "detections", "--out", out,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == stdout

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

    def test_duplicate_names_across_files(self, capsys, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text("runs:\n  - name: a\n    map50: 0.4\n  - name: b\n    map50: 0.5\n")
        code, _, stderr = run(capsys, "compare", path, path, "--baseline", "a")
        assert code == 2
        assert "duplicate" in stderr

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

    def test_malformed_run_file_no_traceback(self, capsys, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text("runs: {not a list\n")
        code, _, stderr = run(capsys, "compare", path, "--baseline", "x")
        assert code == 2
        assert "Traceback" not in stderr


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
