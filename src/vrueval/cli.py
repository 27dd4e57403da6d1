"""Command-line interface: convert, stats, eval, compare.

Results go to stdout, diagnostics to stderr, so reports are pipeable.
Exit codes: 0 success (and ``--help``), 1 usage error, 2 data/contract
error. A usage error prints a ``Usage:`` line and an ``Error:`` line that
names the argument on stderr, and nothing on stdout. Defaults reproduce
the reference operating point: IoU threshold 0.5, confidence threshold
0.2, 30-frame throughput budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

from .annotations import ClassMap
from .dataset import convert_dataset, dataset_stats, load_manifest
from .errors import VruEvalError
from .evaluate import DEFAULT_CONF_THRESH, DEFAULT_IOU_THRESH, evaluate

TABLE_FORMATS = ("aligned", "csv", "markdown")
OUTPUT_FORMATS = TABLE_FORMATS + ("structured",)


class UsageError(Exception):
    """A command line that the parser rejects: exit code 1."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Formatter(argparse.RawDescriptionHelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """No abbreviated options, ``--help`` only, and errors raised as ``UsageError``.

    argparse reports missing arguments before it returns unknown ones, so
    ``vrueval stats --bogus`` would name ``MANIFEST``; the missing-argument
    error is held back while the line has unknown arguments, so that the
    top-level parser names them instead.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def parse_known_args(self, args=None, namespace=None):
        self._missing = None
        namespace, extras = super().parse_known_args(args, namespace)
        if self._missing and not extras:
            raise UsageError(self._missing, self.format_usage())
        return namespace, extras

    def error(self, message):
        if message.startswith("the following arguments are required"):
            self._missing = message  # argparse goes on to return the unknown arguments
            return
        raise UsageError(message, self.format_usage())


def _path(is_dir: bool, must_exist: bool):
    """An argument type: a path that is a directory (``is_dir``) or not, if it exists."""
    noun, other = ("Directory", "a file") if is_dir else ("File", "a directory")

    def check(text: str) -> str:
        if not os.path.exists(text):
            if must_exist:
                raise argparse.ArgumentTypeError(f"{noun} {text!r} does not exist.")
        elif os.path.isdir(text) != is_dir:
            raise argparse.ArgumentTypeError(f"{noun} {text!r} is {other}.")
        return text

    return check


def _number(requirement: str, holds):
    """An argument type: a float for which ``holds`` is true."""

    def check(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid float.") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    return check


_FILE = _path(is_dir=False, must_exist=True)
_DIRECTORY = _path(is_dir=True, must_exist=True)
_THRESHOLD = _number("in (0, 1]", lambda value: 0.0 < value <= 1.0)


def render_table(headers: list[str], rows: list[list[str]], fmt: str = "aligned") -> str:
    """A header and its rows as an aligned text, CSV or markdown table, each line ended."""
    if fmt == "aligned":
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:  # a | inside a cell would start a new cell
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")
    return "\n".join(lines) + "\n"


def _render(report, fmt: str) -> str:
    """The bytes of a report (``to_dict`` and ``to_tables``): JSON, or tables separated
    by a blank line."""
    if fmt == "structured":
        return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    return "\n".join(render_table(headers, rows, fmt) for headers, rows in report.to_tables())


def _warn(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(f"warning: {message}", file=sys.stderr)


def _convert(args: argparse.Namespace) -> None:
    class_map = ClassMap.from_file(args.classmap) if args.classmap else ClassMap.visdrone_default()
    manifest = convert_dataset(
        args.src,
        class_map,
        args.out,
        split=args.split,
        source_format=args.source_format,
        workers=args.workers,
        warn=lambda msg: _warn(args, msg),
    )
    print(
        f"converted {len(manifest.images)} images to {args.out} "
        f"(split {manifest.split!r}, classes: {', '.join(manifest.class_names)})"
    )


def _stats(args: argparse.Namespace) -> None:
    sys.stdout.write(_render(dataset_stats(load_manifest(args.manifest)), args.fmt))


def _eval(args: argparse.Namespace) -> None:
    mf = load_manifest(args.manifest)
    report = evaluate(mf, args.detections, args.iou_thresh, args.conf_thresh)
    for warning in report.warnings:
        _warn(args, warning)
    if args.out:
        Path(args.out).write_text(_render(report, "structured"), encoding="utf-8")
    sys.stdout.write(_render(report, args.fmt))


def _compare(args: argparse.Namespace) -> None:
    if args.baseline is None and not args.scenario:
        args.parser.error("--baseline is required unless --scenario is given")
    from .benchmark import compare_models, consistency_notes, continual_scenario, load_run_file

    records = []
    forgetting_entries = []
    for run_file in args.run_files:
        file_records, file_entries = load_run_file(run_file)
        records.extend(file_records)
        forgetting_entries.extend(file_entries)
    for note in consistency_notes(records):
        _warn(args, note)
    if args.scenario:
        report = continual_scenario(records, args.epsilon, forgetting_entries)
        for flag in report.flags:
            if flag.flagged:
                _warn(args, flag.describe())
    else:
        report = compare_models(records, args.baseline, args.frames, args.sort_by)
    sys.stdout.write(_render(report, args.fmt))


def build_parser() -> argparse.ArgumentParser:
    """The ``vrueval`` command line.

    A parsed command line holds the command's function as ``run`` and the
    command's parser as ``parser``.
    """
    parser = _Parser(
        prog="vrueval",
        description="Detection evaluation and benchmarking for vulnerable-road-user datasets.",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=OUTPUT_FORMATS, default="aligned",
        help="Output format: aligned text table, csv, markdown table, or structured JSON."
        " [default: %(default)s]",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="Suppress warnings and notes on stderr."
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, summary, details=""):
        sub = commands.add_parser(
            name, help=summary, description=f"{summary}\n\n{details}" if details else summary
        )
        sub.set_defaults(run=run, parser=sub)
        return sub

    convert = command(
        "convert", _convert, "Convert a dataset root SRC into label-file layout under OUT.",
        "SRC needs a dimensions.txt index (one 'image_id width height' line per\n"
        "image) next to its images/+annotations/ (or labels/) directories. OUT\n"
        "receives labels/<split>/, dataset.yaml, dimensions.txt, manifest.json.",
    )
    convert.add_argument("src", metavar="SRC", type=_DIRECTORY)
    convert.add_argument("out", metavar="OUT", type=_path(is_dir=True, must_exist=False))
    convert.add_argument(
        "--classmap", metavar="FILE", type=_FILE,
        help="YAML class map (keys: names, map, drop, ignore). Default: the "
        "four-VRU-class drone-survey remap.",
    )
    convert.add_argument(
        "--split", default="train", help="Split name for the output. [default: %(default)s]"
    )
    convert.add_argument(
        "--source-format", choices=["auto", "visdrone", "yolo"], default="auto",
        help="Source layout: annotations/ (visdrone) or labels/ (yolo). [default: %(default)s]",
    )
    convert.add_argument("--workers", type=int, default=1, help="Deprecated; has no effect.")

    stats = command("stats", _stats, "Per-class image and instance counts for a converted dataset.")
    stats.add_argument("manifest", metavar="MANIFEST", type=_FILE)

    eval_ = command(
        "eval", _eval, "Evaluate a detection directory against a converted dataset.",
        "DETECTIONS holds one '<image_id>.txt' file per manifest image, each\n"
        "line 'class confidence cx cy w h' with normalized coordinates.",
    )
    eval_.add_argument("manifest", metavar="MANIFEST", type=_FILE)
    eval_.add_argument("detections", metavar="DETECTIONS", type=_DIRECTORY)
    eval_.add_argument(
        "--iou-thresh", type=_THRESHOLD, default=DEFAULT_IOU_THRESH,
        help="IoU threshold for matching. [default: %(default)s]",
    )
    eval_.add_argument(
        "--conf-thresh", type=_THRESHOLD, default=DEFAULT_CONF_THRESH,
        help="Confidence cut for precision/recall/F1 (AP always uses all detections)."
        " [default: %(default)s]",
    )
    eval_.add_argument(
        "--out", metavar="FILE", type=_path(is_dir=False, must_exist=False),
        help="Also write the structured JSON report to this file.",
    )

    compare = command(
        "compare", _compare,
        "Compare model run records from RUN_FILES (YAML with a 'runs' list).",
        "Multiple files are merged in argument order. Improvements are relative\n"
        "percentages of the baseline value, 100*(new-base)/base. Stated-F1-vs-\n"
        "formula discrepancies are reported on stderr, never silently reconciled.",
    )
    compare.add_argument("run_files", metavar="RUN_FILES", nargs="+", type=_FILE)
    compare.add_argument("--baseline", help="Baseline run name (comparison mode).")
    compare.add_argument(
        "--scenario", action="store_true",
        help="Continual-learning mode: ordered runs, pairwise improvements, forgetting flags.",
    )
    compare.add_argument(
        "--sort-by", choices=["precision", "recall", "f1", "map50"], default="map50",
        help="Ranking metric (comparison mode). [default: %(default)s]",
    )
    # --frames and --epsilon spell benchmark.DEFAULT_FRAMES and DEFAULT_EPSILON, so
    # that only a compare run imports vrueval.benchmark; a test ties them together
    compare.add_argument(
        "--frames", default=30.0,
        type=_number("finite and positive", lambda value: math.isfinite(value) and value > 0),
        help="Frame budget for the computational-time column (seconds = frames/FPS)."
        " [default: %(default)s]",
    )
    compare.add_argument(
        "--epsilon", default=0.02,
        type=_number("finite and non-negative", lambda value: math.isfinite(value) and value >= 0),
        help="Forgetting-flag tolerance: flag a sequential run whose precision, "
        "recall, and mAP all sit within epsilon of the scratch run. [default: %(default)s]",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        args = build_parser().parse_args(argv)
        args.run(args)
        return 0
    except SystemExit as exc:  # --help
        return exc.code
    except UsageError as exc:
        sys.stderr.write(f"{exc.usage}Error: {exc}\n")
        return 1
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    except (VruEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed input must never escape as a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
