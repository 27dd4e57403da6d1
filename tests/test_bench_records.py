"""Every committed ``BENCH_*.json`` speaks the benchmark's own terms.

A record names only workloads and end-to-end metrics that ``BENCHMARK.json``
declares, gives each metric a numeric median for the parent and for the
change, and carries the report digest of each workload it measured.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_known_metrics_with_medians_and_digest(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    measured = record["workloads"]
    assert measured and set(measured) <= WORKLOADS
    for name, workload in measured.items():
        digest = workload["digest"]
        assert isinstance(digest, str) and digest, name
        metrics = workload["metrics"]
        assert metrics and set(metrics) <= END_TO_END, name
        for metric, sides in metrics.items():
            for side in ("parent", "change"):
                assert is_number(sides[side]["median"]), (name, metric, side)
