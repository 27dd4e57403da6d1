import math
from pathlib import Path

import pytest
import yaml

from helpers import fixtures_root

from vrueval.benchmark import (
    ForgettingEntry,
    ModelRunRecord,
    compare_models,
    computational_time,
    consistency_notes,
    continual_scenario,
    f1_formula_note,
    forgetting,
    load_run_file,
    map_mean_note,
    record_from_report,
    relative_improvement,
    save_run_file,
)
from vrueval.errors import SchemaError, VruEvalError

DATA = Path(__file__).parents[1] / "data"

# (run, fps, published seconds per 30 frames)
PUBLISHED_TIMES = [
    ("faster-rcnn", 4.55, 6.59),
    ("yolov5s", 175, 0.17),
    ("yolov5x", 24, 1.25),
    ("yolov7s", 290, 0.10),
    ("yolov7x", 46, 0.65),
    ("yolov8s", 625, 0.048),
    ("yolov8x", 101, 0.297),
]


@pytest.fixture(scope="module")
def benchmark_runs():
    records, _ = load_run_file(DATA / "model_benchmark.yaml")
    return records


@pytest.fixture(scope="module")
def continual_runs():
    return load_run_file(DATA / "continual_runs.yaml")[0]


class TestComputationalTime:
    @pytest.mark.parametrize("name,fps,published", PUBLISHED_TIMES)
    def test_published_cells(self, name, fps, published):
        assert abs(computational_time(fps) - published) <= 0.005

    def test_real_time_definition(self):
        assert computational_time(30) == 1.0

    def test_custom_frame_budget(self):
        assert computational_time(10, frames=60) == 6.0

    def test_non_positive_fps(self):
        with pytest.raises(VruEvalError):
            computational_time(0)
        with pytest.raises(VruEvalError):
            computational_time(-5)

    def test_overflow_rejected(self):
        with pytest.raises(VruEvalError, match="overflows"):
            computational_time(1e-300, frames=1e10)

    def test_strictly_decreasing_and_product(self):
        values = [computational_time(fps) for _, fps, _ in sorted(PUBLISHED_TIMES, key=lambda t: t[1])]
        assert values == sorted(values, reverse=True)
        for _, fps, _ in PUBLISHED_TIMES:
            assert math.isclose(computational_time(fps) * fps, 30.0, rel_tol=1e-12)


class TestRelativeImprovement:
    @pytest.mark.parametrize(
        "new,base,published",
        [
            (0.462, 0.412, 12.14),   # F1, extra-large v8 vs extra-large v5
            (0.514, 0.353, 45.61),   # mAP, same pair
            (0.462, 0.381, 21.26),   # F1 vs extra-large v7
            (0.514, 0.225, 128.44),  # mAP vs extra-large v7
            (0.534, 0.441, 21.08),   # F1, sgd-sequential vs adam-sequential
        ],
    )
    def test_reproduces_published_figures(self, new, base, published):
        assert abs(relative_improvement(new, base) - published) <= 0.01

    def test_sequential_map_pair_exact_arithmetic(self):
        # the published headline (31.86) is NOT reproducible from these
        # stated values; the arithmetic gives 100 * 0.147 / 0.461
        assert relative_improvement(0.608, 0.461) == pytest.approx(
            100.0 * 0.147 / 0.461, abs=1e-9
        )

    def test_identity_and_antisymmetry(self):
        assert relative_improvement(0.5, 0.5) == 0.0
        a, b = 0.7, 0.3
        product = (1 + relative_improvement(a, b) / 100) * (1 + relative_improvement(b, a) / 100)
        assert math.isclose(product, 1.0, rel_tol=1e-9)

    def test_zero_baseline(self):
        with pytest.raises(VruEvalError, match="zero baseline"):
            relative_improvement(0.5, 0.0)


class TestForgetting:
    def test_no_change(self):
        assert forgetting(0.54, 0.54) == 0.0

    def test_drop(self):
        assert forgetting(0.54, 0.30) == pytest.approx(0.24)

    def test_backward_transfer_negative(self):
        assert forgetting(0.30, 0.54) == pytest.approx(-0.24)

    def test_range_check(self):
        with pytest.raises(VruEvalError):
            forgetting(1.2, 0.5)

    def test_linear_in_each_argument(self):
        assert forgetting(0.8, 0.2) == forgetting(0.8, 0.0) - 0.2
        assert forgetting(0.8, 0.2) == forgetting(0.0, 0.2) + 0.8

    def test_entry_drop(self):
        entry = ForgettingEntry("task1", "map50", 0.54, 0.30)
        assert entry.drop == pytest.approx(0.24)


class TestCompareModels:
    def test_golden_improvements_vs_v5x(self, benchmark_runs):
        table = compare_models(benchmark_runs, baseline="yolov5x")
        v8x = table.improvements["yolov8x"]
        assert abs(v8x["f1"].percent - 12.14) <= 0.01
        assert abs(v8x["map50"].percent - 45.61) <= 0.01

    def test_golden_improvements_vs_v7x(self, benchmark_runs):
        table = compare_models(benchmark_runs, baseline="yolov7x")
        v8x = table.improvements["yolov8x"]
        assert abs(v8x["f1"].percent - 21.26) <= 0.01
        assert abs(v8x["map50"].percent - 128.44) <= 0.01

    def test_computational_time_column(self, benchmark_runs):
        table = compare_models(benchmark_runs, baseline="yolov5x")
        times = table.computational_times()
        for name, fps, published in PUBLISHED_TIMES:
            assert abs(times[name] - published) <= 0.005

    def test_identical_records_zero_everywhere(self):
        a = ModelRunRecord("a", precision=0.5, recall=0.5, f1=0.5, map50=0.5)
        b = ModelRunRecord("b", precision=0.5, recall=0.5, f1=0.5, map50=0.5)
        table = compare_models([a, b], baseline="a")
        assert all(cell.percent == 0.0 for cell in table.improvements["b"].values())

    def test_ranking_by_sort_metric(self, benchmark_runs):
        table = compare_models(benchmark_runs, baseline="yolov5x", sort_metric="map50")
        ordered = [rec.map50 for rec in table.records]
        assert ordered == sorted(ordered, reverse=True)
        assert table.records[0].name == "faster-rcnn"

    def test_duplicate_names_rejected(self):
        a = ModelRunRecord("a", map50=0.5)
        with pytest.raises(SchemaError, match="duplicate"):
            compare_models([a, a], baseline="a")

    def test_missing_baseline(self, benchmark_runs):
        with pytest.raises(SchemaError, match="baseline"):
            compare_models(benchmark_runs, baseline="nope")

    def test_single_record_rejected(self):
        with pytest.raises(SchemaError, match="two"):
            compare_models([ModelRunRecord("a")], baseline="a")

    def test_table_render_shape(self, benchmark_runs):
        [(headers, rows)] = compare_models(benchmark_runs, baseline="yolov5x").to_tables()
        assert len(rows) == 7
        assert all(len(row) == len(headers) for row in rows)


class TestContinualScenario:
    def test_d_vs_c_improvements(self, continual_runs):
        report = continual_scenario(continual_runs)
        f1_cell = report.improvement("f1", "sequential-adam", "sequential-sgd")
        map_cell = report.improvement("map50", "sequential-adam", "sequential-sgd")
        assert abs(f1_cell.percent - 21.08) <= 0.01
        assert map_cell.percent == pytest.approx(100.0 * 0.147 / 0.461, abs=1e-9)

    def test_transfer_cells_present(self, continual_runs):
        report = continual_scenario(continual_runs)
        cell = report.improvement("map50", "caltech-scratch", "sequential-adam")
        assert cell.percent == pytest.approx(100.0 * (0.461 - 0.475) / 0.475, abs=1e-9)

    def test_forgetting_flag_on_adam_sequential(self, continual_runs):
        report = continual_scenario(continual_runs, epsilon=0.02)
        flags = {flag.run: flag for flag in report.flags}
        assert flags["sequential-adam"].flagged
        assert flags["sequential-adam"].reference == "caltech-scratch"
        assert not flags["sequential-sgd"].flagged

    def test_flag_epsilon_configurable(self, continual_runs):
        report = continual_scenario(continual_runs, epsilon=0.001)
        flags = {flag.run: flag for flag in report.flags}
        assert not flags["sequential-adam"].flagged

    def test_identical_records_no_flags_zero_improvements(self):
        a = ModelRunRecord("a", precision=0.6, recall=0.6, f1=0.6, map50=0.6)
        d = ModelRunRecord("d", precision=0.6, recall=0.6, f1=0.6, map50=0.6)
        report = continual_scenario([a, d])
        assert all(cell.percent == 0.0 for cell in report.improvements)
        assert report.flags == []  # fewer than three records: no scratch reference

    def test_fewer_than_two_rejected(self):
        with pytest.raises(SchemaError):
            continual_scenario([ModelRunRecord("only")])

    def test_forgetting_entries_carried(self, continual_runs):
        entries = [ForgettingEntry("drone-task", "map50", 0.5415, 0.30)]
        report = continual_scenario(continual_runs, forgetting_entries=entries)
        assert report.forgetting_entries[0].drop == pytest.approx(0.2415)
        assert len(report.to_tables()) == 4


class TestRunFileIO:
    def test_load_golden_files(self, benchmark_runs, continual_runs):
        assert [r.name for r in benchmark_runs] == [
            "faster-rcnn", "yolov5s", "yolov5x", "yolov7s", "yolov7x", "yolov8s", "yolov8x",
        ]
        assert [r.name for r in continual_runs] == [
            "visdrone-only", "caltech-scratch", "sequential-adam", "sequential-sgd",
        ]
        assert continual_runs[0].eval_dataset == "visdrone-val"

    def test_unknown_fields_preserved(self, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text(
            "runs:\n"
            "  - name: a\n    map50: 0.5\n    gpu: rtx3090\n    batch: 16\n"
            "  - name: b\n    map50: 0.6\n"
        )
        records, _ = load_run_file(path)
        assert records[0].extra == {"gpu": "rtx3090", "batch": 16}
        out = tmp_path / "out.yaml"
        save_run_file(out, records)
        reloaded, _ = load_run_file(out)
        assert reloaded[0].extra == {"gpu": "rtx3090", "batch": 16}
        assert reloaded[1].map50 == 0.6

    def test_forgetting_section_round_trip(self, tmp_path):
        path = tmp_path / "runs.yaml"
        save_run_file(
            path,
            [ModelRunRecord("a", map50=0.5), ModelRunRecord("b", map50=0.4)],
            [ForgettingEntry("t1", "map50", 0.5, 0.4)],
        )
        records, entries = load_run_file(path)
        assert entries == [ForgettingEntry("t1", "map50", 0.5, 0.4)]

    @pytest.mark.parametrize("before, after", [(".nan", "0.3"), ("0.5", ".inf")])
    def test_non_finite_forgetting_value_rejected(self, tmp_path, before, after):
        path = tmp_path / "runs.yaml"
        path.write_text(
            "runs:\n  - name: a\n"
            f"forgetting:\n  - {{task: t1, metric: map50, before: {before}, after: {after}}}\n"
        )
        with pytest.raises(SchemaError, match="finite"):
            load_run_file(path)

    @pytest.mark.parametrize(
        "body, reason",
        [
            pytest.param("runs:\n  - name: a\n    fps: .nan\n", "fps", id="fps-nan"),
            pytest.param("runs:\n  - name: a\n    fps: .inf\n", "fps", id="fps-inf"),
            pytest.param(
                "runs:\n  - name: a\n    inference_ms: .nan\n", "inference_ms",
                id="inference-ms-nan",
            ),
            pytest.param(
                "runs:\n  - name: a\n    training_hours: -.inf\n", "training_hours",
                id="training-hours-inf",
            ),
            pytest.param("runs:\n  - name: 7\n", "name", id="name-int"),
            pytest.param("runs:\n  - name: a\nforgetting:\n", "forgetting", id="forgetting-empty"),
            pytest.param("runs:\n  - name: a\nforgetting: 5\n", "forgetting", id="forgetting-scalar"),
        ],
    )
    def test_malformed_run_rejected_with_path(self, tmp_path, body, reason):
        path = tmp_path / "runs.yaml"
        path.write_text(body)
        with pytest.raises(SchemaError, match=reason) as exc_info:
            load_run_file(path)
        assert str(path) in str(exc_info.value)

    def test_metric_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text("runs:\n  - name: a\n    precision: 1.5\n")
        with pytest.raises(SchemaError, match="outside"):
            load_run_file(path)

    def test_non_positive_fps_rejected(self, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text("runs:\n  - name: a\n    fps: 0\n")
        with pytest.raises(SchemaError, match="fps"):
            load_run_file(path)

    def test_missing_runs_key(self, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text("records: []\n")
        with pytest.raises(SchemaError, match="runs"):
            load_run_file(path)

    def test_nameless_run(self, tmp_path):
        path = tmp_path / "runs.yaml"
        path.write_text("runs:\n  - map50: 0.5\n")
        with pytest.raises(SchemaError, match="name"):
            load_run_file(path)


class TestConsistencyChecks:
    def test_f1_formula_note_flags_v8x(self, benchmark_runs):
        v8x = next(r for r in benchmark_runs if r.name == "yolov8x")
        note = f1_formula_note(v8x)
        assert note is not None
        assert "0.4620" in note and "0.5930" in note

    def test_consistent_record_not_flagged(self):
        rec = ModelRunRecord("ok", precision=0.5, recall=0.5, f1=0.5)
        assert f1_formula_note(rec) is None

    def test_rounding_tolerance(self):
        # f1 stated at 3 decimals of the true harmonic mean must not flag
        rec = ModelRunRecord("ok", precision=0.664, recall=0.560, f1=0.608)
        assert f1_formula_note(rec) is None

    def test_map_mean_note_flags_stated_overall(self):
        doc = yaml.safe_load((DATA / "classwise_visdrone.yaml").read_text())
        class_aps = {row["name"]: row["map50"] for row in doc["classes"]}
        note = map_mean_note(class_aps, doc["overall_map50"], doc["dataset"])
        assert note is not None
        assert "0.40725" in note

    def test_map_mean_note_accepts_consistent(self):
        assert map_mean_note({"a": 0.5, "b": 0.7}, 0.6) is None

    def test_consistency_notes_collects_all(self, benchmark_runs):
        notes = consistency_notes(benchmark_runs)
        assert any("yolov8x" in n for n in notes)


def test_record_from_report(tmp_path):
    from vrueval.dataset import load_manifest
    from vrueval.evaluate import evaluate

    micro = fixtures_root() / "micro"
    report = evaluate(load_manifest(micro / "manifest.json"), micro / "detections")
    rec = record_from_report("micro-run", report, eval_dataset="micro-val")
    assert rec.map50 == report.all_row.ap
    assert rec.precision == report.all_row.precision
    assert f1_formula_note(rec) is None  # report F1 is computed, always consistent
