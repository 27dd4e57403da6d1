"""Tests of the benchmark's generator, checker and runner.

Run from the repository root: ``python3 -m pytest vrubench -q``. The
generator, checker and tracer tests need nothing from vrueval; the runner
tests run the benchmark itself, in smoke mode or against a stand-in
program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads
from workloads import norm_fields

HERE = Path(__file__).resolve().parent


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def write_converted(wl: workloads.Workload, out: Path) -> None:
    """The converted layout a correct ``convert`` writes, built from the plan."""
    split = out / "labels" / "val"
    split.mkdir(parents=True)
    for img in wl.images:
        lines = [f"{c} {norm_fields(b, img.width, img.height)}\n" for c, b in img.gts]
        (split / f"{img.image_id}.txt").write_text("".join(lines))
        if img.ignores:
            regions = [norm_fields(b, img.width, img.height) + "\n" for b in img.ignores]
            (split / f"{img.image_id}.ignore").write_text("".join(regions))
    entries = [
        {"image_id": img.image_id, "width": img.width, "height": img.height,
         "label_path": f"labels/val/{img.image_id}.txt"}
        for img in sorted(wl.images, key=lambda i: i.image_id)
    ]
    manifest = {"split": "val", "class_names": list(wl.class_names), "images": entries}
    (out / "manifest.json").write_text(json.dumps(manifest))


def aligned_stats(rows) -> str:
    lines = ["Class  Images  Instances", "-----  ------  ---------"]
    return "\n".join(lines + [f"{n}  {i}  {k}" for n, i, k in rows]) + "\n"


@pytest.fixture(params=workloads.WORKLOADS)
def smoke(request, tmp_path):
    wl = workloads.generate(request.param, 7, tmp_path / "wl", smoke=True)
    write_converted(wl, tmp_path / "out")
    return wl, tmp_path / "out"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_seeded(name, tmp_path):
    a = workloads.generate(name, 3, tmp_path / "a", smoke=True)
    b = workloads.generate(name, 3, tmp_path / "b", smoke=True)
    c = workloads.generate(name, 4, tmp_path / "c", smoke=True)
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "a") != tree(tmp_path / "c")
    assert [len(i.gts) for i in a.images] == [len(i.gts) for i in b.images]


def test_visdrone_workload_shape(tmp_path):
    wl = workloads.generate("visdrone-val", 5, tmp_path, smoke=True)
    for img in wl.images:
        assert len(img.gts) == 30 and len(img.dets) == 300
        assert len(img.ignores) == 2 and len(img.dropped) == 3
        lines = (wl.source / "annotations" / f"{img.image_id}.txt").read_text().splitlines()
        categories = [int(line.split(",")[5]) for line in lines]
        assert categories.count(0) == 2
        assert sum(c in workloads.VEHICLE_CATEGORIES for c in categories) == 3


def test_planted_roles_hold_geometrically(tmp_path):
    wl = workloads.generate("visdrone-val", 5, tmp_path, smoke=True)
    for img in wl.images:
        for d in img.dets:
            ious = [workloads.box_iou(d.box, b) for _, b in img.gts]
            ign = [workloads.box_iou(d.box, b) for b in img.ignores]
            if d.role == workloads.HIT:
                assert ious[d.target] >= 0.6 and img.gts[d.target][0] == d.class_id
            elif d.role == workloads.NEAR:
                assert 0.1 <= ious[d.target] <= 0.4
            elif d.role == workloads.IGNORE_HIT:
                assert max(ign) >= 0.6
            # nothing else overlaps a ground truth of its own class, and only
            # ignore-region roles touch an ignore region
            others = [v for j, v in enumerate(ious) if j != d.target and img.gts[j][0] == d.class_id]
            assert max(others, default=0.0) == 0.0
            if d.role not in (workloads.IGNORE_HIT, workloads.IGNORE_NEAR):
                assert max(ign) == 0.0


def test_planted_report_equals_reference_matcher(smoke):
    wl, out = smoke
    if wl.planted:
        planted = checks.planted_report(wl)
        assert checks.check_eval(json.dumps(planted), checks.reference_report(wl, out)) == []


def test_checkers_accept_correct_outputs(smoke):
    wl, out = smoke
    expected = checks.expected_report(wl, out)
    assert checks.check_eval(json.dumps(expected), expected) == []
    assert checks.check_convert(out, wl) == []
    assert checks.check_stats(aligned_stats(checks.expected_stats(wl)), wl) == []


def test_check_eval_rejects_changed_reports(smoke):
    wl, out = smoke
    expected = checks.expected_report(wl, out)
    for mutate in (
        lambda r: r["classes"][0].update(instances=r["classes"][0]["instances"] + 1),
        lambda r: r["all"].update(ap50=r["all"]["ap50"] + 1e-5),
        lambda r: r["warnings"].append("extra"),
        lambda r: r["config"].update(conf_thresh=0.25),
        lambda r: r["classes"].pop(),
    ):
        report = json.loads(json.dumps(expected))
        mutate(report)
        assert checks.check_eval(json.dumps(report), expected)
    assert checks.check_eval("not json", expected)


def test_check_stats_rejects_wrong_counts(smoke):
    wl, _ = smoke
    rows = checks.expected_stats(wl)
    rows[0] = (rows[0][0], rows[0][1], rows[0][2] + 1)
    assert checks.check_stats(aligned_stats(rows), wl)


def test_check_convert_rejects_broken_outputs(tmp_path):
    wl = workloads.generate("visdrone-val", 2, tmp_path / "wl", smoke=True)
    img = wl.images[0]
    for breakage in ("shift", "drop_sidecar", "extra_sidecar", "drop_line"):
        out = tmp_path / breakage
        write_converted(wl, out)
        label = out / "labels" / "val" / f"{img.image_id}.txt"
        if breakage == "shift":
            cls, cx, *rest = label.read_text().splitlines()[0].split()
            lines = label.read_text().splitlines()
            lines[0] = " ".join([cls, f"{float(cx) + 1e-4:.6f}", *rest])
            label.write_text("\n".join(lines) + "\n")
        elif breakage == "drop_sidecar":
            label.with_suffix(".ignore").unlink()
        elif breakage == "extra_sidecar":
            (out / "labels" / "val" / "stray.ignore").write_text("0.5 0.5 0.1 0.1\n")
        else:
            label.write_text("".join(label.read_text().splitlines(keepends=True)[1:]))
        assert checks.check_convert(out, wl), breakage


def test_match_image_follows_the_protocol():
    a, b = (0.0, 0.0, 10.0, 10.0), (20.0, 0.0, 30.0, 10.0)
    # equal confidence: the earlier detection claims the ground truth
    assert checks.match_image([a], [], [(0.5, a), (0.5, a)]) == ["tp", "fp"]
    # higher confidence claims first, whatever the input order
    assert checks.match_image([a], [], [(0.4, a), (0.9, a)]) == ["fp", "tp"]
    # an IoU tie between ground truths goes to the lowest index, so the
    # later exact copy of ground truth 0 finds it taken
    straddle = (5.0, 0.0, 15.0, 10.0)
    gts = [a, (10.0, 0.0, 20.0, 10.0)]
    assert checks.match_image(gts, [], [(0.9, straddle), (0.8, a)], thresh=0.3) == ["tp", "fp"]
    assert checks.match_image([a], [], [(0.9, (0.0, 0.0, 10.0, 19.0))]) == ["tp"]
    assert checks.match_image([a], [], [(0.9, (0.0, 0.0, 10.0, 21.0))]) == ["fp"]
    # no claim but an ignore overlap at the threshold: suppressed
    assert checks.match_image([a], [b], [(0.9, a), (0.8, a), (0.7, b)]) == ["tp", "fp", "ign"]


def test_average_precision_all_point():
    # tp fp tp over 2 positives: points (0.5, 1), (0.5, 0.5), (1, 2/3)
    assert checks.average_precision(["tp", "fp", "tp"], 2) == pytest.approx(0.5 + 0.5 * 2 / 3)
    assert checks.average_precision(["ign", "tp"], 1) == 1.0
    assert checks.average_precision([], 3) == 0.0
    assert checks.average_precision(["fp"], 0) is None


def test_smoke_run_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == 2 * len(workloads.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert all(m["value"] > 0 for m in result["metrics"].values()), result


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "vrubench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "vrubench/run.py", "--workload", "crowd-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_operation_still_prints_the_counts(tmp_path):
    shutil.copytree(HERE, tmp_path / "vrubench", ignore=shutil.ignore_patterns("__pycache__"))
    package = tmp_path / "src" / "vrueval"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("raise SystemExit(3)\n")
    proc = subprocess.run(
        [sys.executable, "vrubench/run.py", "--workload", "crowd-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"correct": True, "attempted": 1, "failed": 1, "metrics": {}}
    assert "exited 3" in proc.stderr


def test_each_time_is_scaled_by_the_probes_around_it(tmp_path):
    import run

    bench = run.Bench(None, tmp_path)
    bench.probe_s = [0.1, 0.2, 0.3, 0.4, 0.5]
    bench.timings["eval_s"] = [(1.0, 2), (2.0, 4)]  # (seconds, first probe after it)
    ref = run.REFERENCE_PROBE_S
    assert run.PROBE_WINDOW == 2
    # two probes before and two after; the last sample has only one after it
    assert bench.scaled("eval_s") == pytest.approx([1.0 * ref / 0.25, 2.0 * ref / 0.4])


def test_tracer_counts_distinct_files_opened_for_writing(tmp_path, monkeypatch):
    import builtins
    import io

    import tracer

    monkeypatch.setattr(io, "open", io.open)
    monkeypatch.setattr(builtins, "open", builtins.open)
    t = tracer.Tracer()
    t.count_writes()
    (tmp_path / "a.txt").write_text("1")
    (tmp_path / "a.txt").write_text("2")  # the same file again
    shutil.copyfile(tmp_path / "a.txt", tmp_path / "b.txt")
    with open(tmp_path / "c.txt", "a") as fh:
        fh.write("3")
    (tmp_path / "a.txt").read_text()
    assert t.written == {str(tmp_path / name) for name in ("a.txt", "b.txt", "c.txt")}
