"""Run one vrueval CLI command with spans around its layers' public functions.

Usage: python tracer.py TRACE.json -- <vrueval arguments>

The wrappers are installed from outside the program, at the names through
which vrueval calls each function (``vrueval.cli.evaluate``,
``vrueval.evaluate.parse_detections``, ...). Modules are reached through
``importlib.import_module``, because ``vrueval.evaluate`` as an attribute
is the re-exported function, not the module. A name a later version no
longer has is skipped: it yields no span and raises no error.

TRACE.json receives the import time, every span (name, start, end, parent
span name) of the low-frequency layers, per-name totals of calls, time and
child time (self time = time - child time) for all layers, and counters.
Hot functions (``GreedyMatcher.feed``) are timed in totals only, and
``iou`` is counted, not timed. During ``convert``, every file opened for
writing is recorded, and ``dataset.files_written`` is the number of
distinct paths: a version that skips rewriting unchanged files writes fewer.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import io
import json
import sys
import threading
import time

perf = time.perf_counter

# (module, attribute, span name). The source parsers are wrapped for convert
# only, so the label parsing inside load_ground_truth is not counted as
# source parsing.
COMMON = [
    ("vrueval.cli", "load_manifest", "dataset.load_manifest"),
    ("vrueval.cli", "render_table", "render.render_table"),
]
PER_COMMAND = {
    "convert": [
        ("vrueval.cli", "convert_dataset", "dataset.convert_dataset"),
        ("vrueval.dataset", "parse_visdrone_file", "annotations.parse_source"),
        ("vrueval.dataset", "parse_yolo_labels", "annotations.parse_source"),
    ],
    "stats": [
        ("vrueval.cli", "dataset_stats", "dataset.dataset_stats"),
        ("vrueval.dataset", "load_ground_truth", "dataset.load_ground_truth"),
    ],
    "eval": [
        ("vrueval.cli", "evaluate", "evaluate.evaluate"),
        ("vrueval.evaluate", "load_ground_truth", "dataset.load_ground_truth"),
        ("vrueval.evaluate", "parse_detections", "annotations.parse_detections"),
        ("vrueval.evaluate", "evaluate_records", "evaluate.evaluate_records"),
        ("vrueval.evaluate", "confusion_at_threshold", "metrics.confusion_at_threshold"),
        ("vrueval.evaluate", "pr_curve", "metrics.pr_curve"),
        ("vrueval.evaluate", "average_precision", "metrics.average_precision"),
    ],
}
# counters taken from a traced function's result
RESULT_COUNTERS = {
    "annotations.parse_detections": ("annotations.detections", len),
    "dataset.load_ground_truth": ("dataset.gt_records", len),
    "metrics.pr_curve": ("metrics.pr_points", lambda curve: len(getattr(curve, "points", ()))),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = {}  # name -> [calls, seconds, child seconds]
        self.counters = {}
        self.written = set()  # paths convert opened for writing
        self._local = threading.local()
        self._lock = threading.Lock()  # convert parses sources in worker threads

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def timed(self, name, fn, keep_spans=True):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                with self._lock:
                    total = self.totals.setdefault(name, [0, 0.0, 0.0])
                    total[0] += 1
                    total[1] += duration
                    total[2] += frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_spans:
                    self.spans.append((name, start, end, stack[-1][0] if stack else None))
            if counter is not None:
                self.count(counter[0], counter[1](result))
            return result

        return wrapper

    def count_writes(self):
        """Record every path opened for writing (``Path.write_text`` and
        ``shutil.copyfile`` both open through ``io.open``)."""
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            if any(flag in mode for flag in "wax+"):
                self.written.add(str(file))
            return real_open(file, mode, *args, **kwargs)

        io.open = builtins.open = recording_open

    def install(self, command):
        for module_name, attr, name in COMMON + PER_COMMAND.get(command, []):
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.timed(name, fn))
        if command == "convert":
            self.count_writes()
        if command != "eval":
            return
        matching = importlib.import_module("vrueval.matching")
        matcher = getattr(matching, "GreedyMatcher", None)
        if matcher is not None:
            init = matcher.__init__

            def counted_init(obj, *args, **kwargs):
                self.count("matching.matchers_built")
                init(obj, *args, **kwargs)

            matcher.__init__ = counted_init
            if hasattr(matcher, "feed"):
                matcher.feed = self.timed("matching.feed", matcher.feed, keep_spans=False)
        iou = getattr(matching, "iou", None)
        if iou is not None:
            counters = self.counters

            def counted_iou(a, b):
                value = iou(a, b)
                counters["geometry.iou_calls"] = counters.get("geometry.iou_calls", 0) + 1
                if value:
                    counters["geometry.iou_nonzero"] = counters.get("geometry.iou_nonzero", 0) + 1
                return value

            matching.iou = counted_iou


def main(argv):
    trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json -- <vrueval arguments>")
    start = perf()
    cli = importlib.import_module("vrueval.cli")
    import_s = perf() - start
    command = next((a for a in cli_args if not a.startswith("-") and a in PER_COMMAND), None)
    tracer = Tracer()
    tracer.install(command)
    code = cli.main(cli_args)
    sys.stdout.flush()
    if command == "convert":
        tracer.counters["dataset.files_written"] = len(tracer.written)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "command": command,
                "import_s": import_s,
                "totals": tracer.totals,
                "counters": tracer.counters,
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
