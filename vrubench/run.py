"""Seeded end-to-end and per-layer benchmark of the vrueval CLI.

Usage (from the repository root):

    python3 vrubench/run.py --workload visdrone-val --seed 1 --seconds 55 --trace 0
    python3 vrubench/run.py --workload crowd-dense --seed 1 --seconds 55 --trace 1
    python3 vrubench/run.py --smoke

A run generates the workload for its seed under ``.vrubench/``, converts it
once untimed (this also compiles the package's bytecode), then repeats whole
rounds of operations until the next round would overrun ``--seconds``.
Every operation is a fresh ``python -m vrueval.cli`` process run from the
checkout's ``src/``, and every output is checked against figures computed in
``checks.py``. Samples of each metric are spread over the whole run and
reported as medians.

``--trace 0`` round: convert into a fresh directory, setup, convert (a
rewrite of that directory), stats, eval, each followed by one run of the
speed probe (see ``PROBE_CODE``). Every time is scaled by the probes around
it. The fresh-directory converts are timed too and their median goes to
stderr, but it is not a metric.
``--trace 1`` round: convert, stats and eval under ``tracer.py``, then one
untraced eval whose report digest must equal the traced one. The spans of
the last traced round are kept in ``.vrubench/traces/<workload>-seed<n>/``.

A convert_s sample rewrites an output directory that a fresh-directory
convert created moments before, so every file it writes already exists and
is younger than the kernel's 30-second writeback age. Creating thousands of
new files swings between fast and 10-20 times slower windows on the VM this
was tuned on (kernel time 0.5 to 3.5 s for the same convert), and files
older than 30 s are written back under the next rewrite; neither is the
program's doing, so neither is inside the measurement.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable summary goes to stderr. A failed
operation ends the run: the result line still follows, with ``failed`` at
1, and the exit code is 1. ``correct`` speaks of the checks of the
operations that completed.
``--smoke`` runs every workload at a tiny scale, one round of each mode,
with all checks, and exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".vrubench"
PY = sys.executable

SETUP_CODE = (
    "import sys, vrueval.cli\n"
    "from vrueval.dataset import load_manifest\n"
    "load_manifest(sys.argv[1])\n"
)

# A fixed task of the benchmark's own, run as a fresh process after every
# timed command. The speed of the VM this was tuned on drifts by up to 1.7x
# in phases of 5-20 s, and every command moves with it. So each timed
# command is divided by the mean of the PROBE_WINDOW probes before it and
# the PROBE_WINDOW probes after it, and reported in seconds at
# REFERENCE_PROBE_S, the probe's time on a reference machine. The probe
# imports only the standard library, so no change to vrueval can move it.
PROBE_CODE = """\
import argparse, csv, json, re, shutil, statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
rows = []
for i in range(5000):
    line = f"{i % 4} 0.{i % 97:02d} {i % 1901 * 0.5:.6f} {i % 1013 * 0.25:.6f} {12.5 + i % 31} {30.25 + i % 17}"
    c, s, *box = line.split()
    rows.append((-float(s), int(c), tuple(map(float, box))))
rows.sort()
share = {}
for _, c, (x, y, w, h) in rows:
    a = max(0.0, min(x + w, 100.0) - max(x, 50.0)) * max(0.0, min(y + h, 80.0) - max(y, 40.0))
    share[c] = share.get(c, 0.0) + a / (w * h + 2500.0 - a)
json.dumps(share)
"""
REFERENCE_PROBE_S = 0.15
PROBE_WINDOW = 2

END_TO_END = {
    "setup_s": "s",
    "convert_s": "s",
    "stats_s": "s",
    "eval_s": "s",
    "eval_peak_rss_mb": "MB",
}
# per-layer time metric -> the tracer span whose total time it reports
TIMED_LAYERS = {
    "dataset.load_manifest_s": "dataset.load_manifest",
    "dataset.convert_dataset_s": "dataset.convert_dataset",
    "annotations.parse_source_s": "annotations.parse_source",
    "dataset.load_ground_truth_s": "dataset.load_ground_truth",
    "dataset.dataset_stats_s": "dataset.dataset_stats",
    "render.render_table_s": "render.render_table",
    "annotations.parse_detections_s": "annotations.parse_detections",
    "evaluate.evaluate_s": "evaluate.evaluate",
    "evaluate.evaluate_records_s": "evaluate.evaluate_records",
    "metrics.confusion_at_threshold_s": "metrics.confusion_at_threshold",
    "metrics.pr_curve_s": "metrics.pr_curve",
    "metrics.average_precision_s": "metrics.average_precision",
    "matching.feed_s": "matching.feed",
}
COUNTERS = (
    "dataset.files_written",  # distinct files convert opened for writing
    "dataset.gt_records",
    "annotations.detections",
    "metrics.pr_points",
    "matching.feed_calls",
    "matching.matchers_built",
    "geometry.iou_calls",
    "geometry.iou_nonzero",
)
# timed end-to-end metrics, plus the fresh-directory converts that precede
# each convert_s sample (logged on stderr, not a metric)
TIMED = ("setup_s", "convert_s", "stats_s", "eval_s", "fresh_convert_s")
LAYER_UNITS = {
    "cli.import_s": "s",
    **{name: "s" for name in TIMED_LAYERS},
    "evaluate.self_s": "s",
    **{name: "count" for name in COUNTERS},
    "geometry.iou_useful_ratio": "ratio",
}


class OperationFailed(Exception):
    pass


class Bench:
    """One workload's generated inputs, its checked reference outputs and its samples."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.wl = workload
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # metric -> (seconds, index of the first probe after the sample)
        self.timings: dict[str, list[tuple[float, int]]] = {name: [] for name in TIMED}
        self.probe_s: list[float] = []
        self.rss_mb: list[float] = []
        self.layer_rounds: list[dict] = []
        self.traced_eval_s: list[float] = []
        self.untraced_eval_s: list[float] = []
        self.manifest = work / "ref" / "manifest.json"
        self.expected = None
        self.digest = None

    # -- processes ---------------------------------------------------------

    def _spawn(self, argv):
        """Run one process to its end: (seconds, exit code, peak RSS in KB, stdout)."""
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss, out_path.read_text(encoding="utf-8")

    def _op(self, argv):
        self.attempted += 1
        seconds, code, rss_kb, stdout = self._spawn(argv)
        if code != 0:
            self.failed += 1
            err = (self.work / "stderr").read_text(encoding="utf-8", errors="replace").strip()
            raise OperationFailed(f"{' '.join(map(str, argv[1:4]))}... exited {code}: {err[-300:]}")
        return seconds, rss_kb, stdout

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            seconds, code, _, _ = self._spawn([PY, "-c", PROBE_CODE])
            if code != 0:
                raise RuntimeError(f"the speed probe exited {code}")
            self.probe_s.append(seconds)

    def timed(self, metric: str, seconds: float) -> None:
        self.timings[metric].append((seconds, len(self.probe_s)))
        self.probe()

    def scaled(self, metric: str) -> list[float]:
        """Samples of ``metric`` in seconds at REFERENCE_PROBE_S (see PROBE_CODE)."""
        out = []
        for seconds, after in self.timings[metric]:
            window = self.probe_s[max(after - PROBE_WINDOW, 0) : after + PROBE_WINDOW]
            out.append(seconds * REFERENCE_PROBE_S / statistics.fmean(window))
        return out

    def _cli(self, *args, trace: Path | None = None):
        if trace is None:
            return [PY, "-m", "vrueval.cli", *map(str, args)]
        return [PY, str(HERE / "tracer.py"), str(trace), "--", *map(str, args)]

    def _problem(self, where, problems):
        self.problems.extend(f"{self.wl.name} {where}: {p}" for p in problems)

    # -- operations ----------------------------------------------------------

    def prepare(self):
        """Untimed reference convert, its checks, and the expected eval report."""
        self.convert(self.work / "ref")
        self.expected = checks.expected_report(self.wl, self.work / "ref")

    def setup(self):
        return self._op([PY, "-c", SETUP_CODE, str(self.manifest)])[0]

    def convert(self, out: Path, trace=None):
        # Outputs stay until the run ends: deleting thousands of files
        # slows the file creation that follows.
        args = ("convert", self.wl.source, out, *self.wl.convert_args)
        seconds, _, _ = self._op(self._cli(*args, trace=trace))
        self._problem("convert", checks.check_convert(out, self.wl))
        return seconds

    def stats(self, trace=None):
        seconds, _, stdout = self._op(self._cli("stats", self.manifest, trace=trace))
        self._problem("stats", checks.check_stats(stdout, self.wl))
        return seconds

    def eval(self, trace=None):
        args = ("--format", "structured", "eval", self.manifest, self.wl.detections)
        seconds, rss_kb, stdout = self._op(self._cli(*args, trace=trace))
        self._problem("eval", checks.check_eval(stdout, self.expected))
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self._problem("eval", [f"report digest {digest[:12]} != {self.digest[:12]}"])
        return seconds, rss_kb

    # -- rounds ----------------------------------------------------------------

    def timed_round(self, k: int):
        out = self.work / f"conv{k}"
        self.timed("fresh_convert_s", self.convert(out))
        self.timed("setup_s", self.setup())
        self.timed("convert_s", self.convert(out))
        self.timed("stats_s", self.stats())
        seconds, rss_kb = self.eval()
        self.timed("eval_s", seconds)
        self.rss_mb.append(rss_kb / 1024)

    def traced_round(self, k: int):
        traces = [self.work / f"trace_{cmd}.json" for cmd in ("convert", "stats", "eval")]
        self.convert(self.work / f"conv{k}")
        self.convert(self.work / f"conv{k}", trace=traces[0])
        self.stats(trace=traces[1])
        seconds, _ = self.eval(trace=traces[2])
        self.traced_eval_s.append(seconds)
        self.untraced_eval_s.append(self.eval()[0])
        self.layer_rounds.append(layer_round([json.loads(t.read_text()) for t in traces]))


def layer_round(traces: list[dict]) -> dict:
    """Per-layer values of one traced round (convert + stats + eval processes)."""
    totals: dict[str, list[float]] = {}
    counters = {name: 0 for name in COUNTERS}
    import_s = 0.0
    for trace in traces:
        import_s += trace["import_s"]
        for name, (calls, seconds, child) in trace["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += seconds
            acc[2] += child
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    values = {"cli.import_s": import_s}
    for metric, span in TIMED_LAYERS.items():
        values[metric] = totals.get(span, [0, 0.0, 0.0])[1]
    evaluate = totals.get("evaluate.evaluate", [0, 0.0, 0.0])
    values["evaluate.self_s"] = evaluate[1] - evaluate[2]
    counters["matching.feed_calls"] = totals.get("matching.feed", [0])[0]
    values.update(counters)
    calls = counters["geometry.iou_calls"]
    values["geometry.iou_useful_ratio"] = counters["geometry.iou_nonzero"] / calls if calls else 0.0
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_rounds(bench: Bench, seconds: float, trace: bool) -> None:
    """Whole rounds until the next one would end after ``seconds``; at least one."""
    start = time.perf_counter()
    longest = 0.0
    if not trace:
        bench.probe(PROBE_WINDOW)
    while bench.rounds == 0 or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        (bench.traced_round if trace else bench.timed_round)(bench.rounds)
        longest = max(longest, time.perf_counter() - t0)
        bench.rounds += 1
    if not trace:
        bench.probe(PROBE_WINDOW - 1)  # the window of the last sample


def summarize(bench: Bench, trace: bool) -> dict:
    """The metrics that have samples; prints a readable summary to stderr."""

    def log(msg):
        print(msg, file=sys.stderr)

    log(f"{bench.wl.name} seed {bench.wl.seed}: {bench.rounds} rounds, "
        f"{bench.attempted} operations, {bench.failed} failed, eval digest {str(bench.digest)[:16]}")
    metrics = {}
    if not trace:
        for name in TIMED:
            values = bench.scaled(name)
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            if name in END_TO_END:
                metrics[name] = {"value": med, "unit": "s"}
            raw = [seconds for seconds, _ in bench.timings[name]]
            log(f"  {name:16s} median {med:8.4f} s q1 {q1:.4f} q3 {q3:.4f} n={len(values)}, "
                f"unscaled median {statistics.median(raw):.4f} s: " + " ".join(f"{v:.3f}" for v in raw))
        if bench.rss_mb:
            metrics["eval_peak_rss_mb"] = {"value": statistics.median(bench.rss_mb), "unit": "MB"}
            log(f"  eval_peak_rss_mb median {metrics['eval_peak_rss_mb']['value']:.4f} MB n={len(bench.rss_mb)}")
        if bench.probe_s:
            log(f"  probe median {statistics.median(bench.probe_s):.4f} s n={len(bench.probe_s)}: "
                + " ".join(f"{v:.3f}" for v in bench.probe_s))
        return metrics
    if not bench.layer_rounds:
        return metrics
    for name, unit in LAYER_UNITS.items():
        values = [r[name] for r in bench.layer_rounds]
        if unit in ("count", "ratio"):
            if len(set(values)) != 1:
                bench.problems.append(f"{bench.wl.name}: counter {name} differs between rounds: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        log(f"  {name:34s} {value:14.6f} {unit}" if unit != "count" else f"  {name:34s} {value:7d} {unit}")
    overhead = statistics.median(bench.traced_eval_s) - statistics.median(bench.untraced_eval_s)
    log(f"  tracing overhead on eval: {overhead:+.3f} s "
        f"(traced {statistics.median(bench.traced_eval_s):.3f} s, "
        f"untraced {statistics.median(bench.untraced_eval_s):.3f} s)")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One run; a failed operation ends it early, and ``failed`` says so."""
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    try:
        bench = Bench(workloads.generate(name, seed, work, smoke), work)
        try:
            bench.prepare()
            run_rounds(bench, seconds, trace)
        except OperationFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
        metrics = summarize(bench, trace)
        if trace and bench.layer_rounds:
            keep = WORK_ROOT / "traces" / f"{name}-seed{seed}"
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir(parents=True)
            for path in work.glob("trace_*.json"):
                shutil.move(path, keep / path.name)
            print(f"  spans of the last traced round: {keep}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        # the checks of the operations that completed; `failed` counts the others
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny scale, all checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vrueval" / "cli.py").is_file():
        print(f"error: no vrueval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = run(name, args.seed, 0, trace, smoke=True)
                ok &= result["correct"] and result["failed"] == 0
                print(json.dumps({"workload": name, "trace": int(trace), **result}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
