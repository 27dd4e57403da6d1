"""Keeps the benchmark harness runnable: every workload at tiny scale, all checks.

No timing is asserted; the run takes about ten seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
