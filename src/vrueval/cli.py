"""Command-line interface: convert, stats, eval, compare.

Results go to stdout, diagnostics to stderr, so reports are pipeable.
Exit codes: 0 success, 1 usage error, 2 data/contract error. Defaults
reproduce the reference operating point: IoU threshold 0.5, confidence
threshold 0.2, 30-frame throughput budget.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from .annotations import ClassMap
from .dataset import convert_dataset, dataset_stats, load_manifest
from .errors import VruEvalError
from .evaluate import DEFAULT_CONF_THRESH, DEFAULT_IOU_THRESH, evaluate
from .render import TABLE_FORMATS, render_table

OUTPUT_FORMATS = TABLE_FORMATS + ("structured",)


def _echo_result(text: str) -> None:
    click.echo(text, nl=not text.endswith("\n"))


def _render(report, fmt: str) -> str:
    """A report (``to_dict`` and ``to_tables``) as JSON or as blank-line-separated tables."""
    if fmt == "structured":
        return json.dumps(report.to_dict(), indent=2, allow_nan=False)
    return "\n".join(render_table(headers, rows, fmt) for headers, rows in report.to_tables())


def _warn(ctx_obj: dict, message: str) -> None:
    if not ctx_obj.get("quiet"):
        click.echo(f"warning: {message}", err=True)


def _threshold(value: float, label: str) -> float:
    if not 0.0 < value <= 1.0:
        raise click.UsageError(f"{label} must be in (0, 1], got {value}")
    return value


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(OUTPUT_FORMATS),
    default="aligned",
    show_default=True,
    help="Output format: aligned text table, csv, markdown table, or structured JSON.",
)
@click.option("--quiet", is_flag=True, help="Suppress warnings and notes on stderr.")
@click.pass_context
def cli(ctx, fmt, quiet):
    """Detection evaluation and benchmarking for vulnerable-road-user datasets."""
    ctx.obj = {"format": fmt, "quiet": quiet}


@cli.command()
@click.argument("src", type=click.Path(exists=True, file_okay=False))
@click.argument("out", type=click.Path(file_okay=False))
@click.option(
    "--classmap",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="YAML class map (keys: names, map, drop, ignore). Default: the "
    "four-VRU-class drone-survey remap.",
)
@click.option("--split", default="train", show_default=True, help="Split name for the output.")
@click.option(
    "--source-format",
    type=click.Choice(["auto", "visdrone", "yolo"]),
    default="auto",
    show_default=True,
    help="Source layout: annotations/ (visdrone) or labels/ (yolo).",
)
@click.option("--workers", type=int, default=1, help="Deprecated; has no effect.")
@click.pass_context
def convert(ctx, src, out, classmap, split, source_format, workers):
    """Convert a dataset root SRC into label-file layout under OUT.

    SRC needs a dimensions.txt index (one 'image_id width height' line per
    image) next to its images/+annotations/ (or labels/) directories. OUT
    receives labels/<split>/, dataset.yaml, dimensions.txt, manifest.json.
    """
    class_map = ClassMap.from_file(classmap) if classmap else ClassMap.visdrone_default()
    manifest = convert_dataset(
        src,
        class_map,
        out,
        split=split,
        source_format=source_format,
        workers=workers,
        warn=lambda msg: _warn(ctx.obj, msg),
    )
    _echo_result(
        f"converted {len(manifest.images)} images to {out} "
        f"(split {manifest.split!r}, classes: {', '.join(manifest.class_names)})"
    )


@cli.command()
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def stats(ctx, manifest):
    """Per-class image and instance counts for a converted dataset."""
    _echo_result(_render(dataset_stats(load_manifest(manifest)), ctx.obj["format"]))


@cli.command("eval")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.argument("detections", type=click.Path(exists=True, file_okay=False))
@click.option(
    "--iou-thresh", type=float, default=DEFAULT_IOU_THRESH, show_default=True,
    help="IoU threshold for matching.",
)
@click.option(
    "--conf-thresh", type=float, default=DEFAULT_CONF_THRESH, show_default=True,
    help="Confidence cut for precision/recall/F1 (AP always uses all detections).",
)
@click.option(
    "--out", "out_path", type=click.Path(dir_okay=False), default=None,
    help="Also write the structured JSON report to this file.",
)
@click.pass_context
def eval_cmd(ctx, manifest, detections, iou_thresh, conf_thresh, out_path):
    """Evaluate a detection directory against a converted dataset.

    DETECTIONS holds one '<image_id>.txt' file per manifest image, each
    line 'class confidence cx cy w h' with normalized coordinates.
    """
    iou_thresh = _threshold(iou_thresh, "--iou-thresh")
    conf_thresh = _threshold(conf_thresh, "--conf-thresh")
    mf = load_manifest(manifest)
    report = evaluate(mf, detections, iou_thresh, conf_thresh)
    for warning in report.warnings:
        _warn(ctx.obj, warning)
    if out_path:
        Path(out_path).write_text(_render(report, "structured") + "\n", encoding="utf-8")
    _echo_result(_render(report, ctx.obj["format"]))


@cli.command()
@click.argument("run_files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--baseline", default=None, help="Baseline run name (comparison mode).")
@click.option(
    "--scenario", is_flag=True,
    help="Continual-learning mode: ordered runs, pairwise improvements, forgetting flags.",
)
@click.option(
    "--sort-by", type=click.Choice(["precision", "recall", "f1", "map50"]),
    default="map50", show_default=True, help="Ranking metric (comparison mode).",
)
# --frames and --epsilon spell benchmark.DEFAULT_FRAMES and DEFAULT_EPSILON, so
# that only a compare run imports vrueval.benchmark; a test ties them together
@click.option(
    "--frames", type=float, default=30.0, show_default=True,
    help="Frame budget for the computational-time column (seconds = frames/FPS).",
)
@click.option(
    "--epsilon", type=float, default=0.02, show_default=True,
    help="Forgetting-flag tolerance: flag a sequential run whose precision, "
    "recall, and mAP all sit within epsilon of the scratch run.",
)
@click.pass_context
def compare(ctx, run_files, baseline, scenario, sort_by, frames, epsilon):
    """Compare model run records from RUN_FILES (YAML with a 'runs' list).

    Multiple files are merged in argument order. Improvements are relative
    percentages of the baseline value, 100*(new-base)/base. Stated-F1-vs-
    formula discrepancies are reported on stderr, never silently reconciled.
    """
    from .benchmark import compare_models, consistency_notes, continual_scenario, load_run_file

    if not (math.isfinite(frames) and frames > 0):
        raise click.UsageError(f"--frames must be finite and positive, got {frames}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise click.UsageError(f"--epsilon must be finite and non-negative, got {epsilon}")
    records = []
    forgetting_entries = []
    for run_file in run_files:
        file_records, file_entries = load_run_file(run_file)
        records.extend(file_records)
        forgetting_entries.extend(file_entries)
    for note in consistency_notes(records):
        _warn(ctx.obj, note)
    if scenario:
        report = continual_scenario(records, epsilon, forgetting_entries)
        for flag in report.flags:
            if flag.flagged:
                _warn(ctx.obj, flag.describe())
    elif baseline is None:
        raise click.UsageError("--baseline is required unless --scenario is given")
    else:
        report = compare_models(records, baseline, frames, sort_by)
    _echo_result(_render(report, ctx.obj["format"]))


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (VruEvalError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except Exception as exc:  # malformed input must never escape as a traceback
        click.echo(f"internal error: {exc!r}", err=True)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
