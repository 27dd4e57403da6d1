"""Keeps the benchmark harness runnable: every workload at tiny scale, all checks.

No timing is asserted; the run takes about ten seconds. The traced runs
must see the layers the tracer wraps at their ``vrueval.cli`` names, so a
CLI that stops calling them through those names fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the layer metrics fed by the tracer's wraps of vrueval.cli names, and its import timing
CLI_LAYERS = (
    "cli.import_s",
    "dataset.load_manifest_s",
    "dataset.convert_dataset_s",
    "dataset.dataset_stats_s",
    "render.render_table_s",
    "evaluate.evaluate_s",
)


def test_smoke_run_passes_every_check():
    proc = subprocess.run(
        [sys.executable, "vrubench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert results, proc.stdout
    for result in results:
        assert result["correct"] is True, result
        assert result["failed"] == 0, result
    traced = [result for result in results if result["trace"]]
    assert traced, proc.stdout
    for result in traced:
        for name in CLI_LAYERS:
            assert result["metrics"][name]["value"] > 0, (result["workload"], name)
