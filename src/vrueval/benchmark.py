"""Cross-model comparison, throughput budgeting, and continual-learning analysis.

Run records are ingested from YAML files (or built from evaluation
reports) and compared with relative improvements: 100 * (new - base) /
base, a percentage of the baseline. Throughput is summarized as the time
to process a fixed frame budget (default 30 frames, i.e. one second of
30 FPS video). Scenario analysis orders runs, tabulates pairwise
improvements, and raises a catastrophic-forgetting flag when a
sequentially trained run's precision, recall, and mAP all sit within a
small epsilon of the from-scratch reference run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .errors import SchemaError, VruEvalError
from .evaluate import EvalReport
from .metrics import f1 as f1_score

__all__ = [
    "METRIC_FIELDS",
    "ModelRunRecord",
    "ForgettingEntry",
    "ImprovementCell",
    "ForgettingFlag",
    "ComparisonTable",
    "ScenarioReport",
    "computational_time",
    "relative_improvement",
    "forgetting",
    "compare_models",
    "continual_scenario",
    "load_run_file",
    "save_run_file",
    "record_from_report",
    "f1_formula_note",
    "map_mean_note",
    "consistency_notes",
]

METRIC_FIELDS = ("precision", "recall", "f1", "map50")

# Metrics compared for the forgetting flag. F1 is excluded: it is derived
# from precision and recall, so it adds no independent evidence.
FLAG_METRICS = ("precision", "recall", "map50")

DEFAULT_FRAMES = 30.0
DEFAULT_EPSILON = 0.02
# Stated metrics carry ~3 decimals, so recomputing F1 or a mean from them
# can drift by a few thousandths; gaps beyond this are real inconsistencies.
CONSISTENCY_TOL = 0.005

@dataclass
class ModelRunRecord:
    """Metric and timing row for one model configuration."""

    name: str
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    map50: float | None = None
    fps: float | None = None
    inference_ms: float | None = None
    training_hours: float | None = None
    eval_dataset: str | None = None
    note: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"run name must be a string, got {self.name!r}")
        for metric in METRIC_FIELDS:
            value = getattr(self, metric)
            if value is not None and not 0.0 <= value <= 1.0:
                raise SchemaError(f"run {self.name!r}: {metric}={value} outside [0, 1]")
        if self.fps is not None and not (math.isfinite(self.fps) and self.fps > 0):
            raise SchemaError(f"run {self.name!r}: fps={self.fps} must be finite and positive")
        for key in ("inference_ms", "training_hours"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise SchemaError(f"run {self.name!r}: {key}={value} must be finite")

    def metric(self, name: str) -> float | None:
        if name not in METRIC_FIELDS:
            raise SchemaError(f"unknown metric {name!r}; choose from {METRIC_FIELDS}")
        return getattr(self, name)

    def to_dict(self) -> dict:
        doc = {"name": self.name}
        for key in _KNOWN_FIELDS[1:]:
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        doc.update(self.extra)
        return doc


# Run-file keys with a field of their own, in JSON key order; the rest go to ``extra``.
_KNOWN_FIELDS = tuple(f.name for f in fields(ModelRunRecord) if f.name != "extra")


def _metric_cells(rec: ModelRunRecord) -> list[str]:
    """Table cells for a run's name and its metrics; a missing metric is blank."""
    return [rec.name] + [
        "" if (value := rec.metric(metric)) is None else f"{value:.4f}"
        for metric in METRIC_FIELDS
    ]


@dataclass(frozen=True)
class ForgettingEntry:
    """Metric drop on an earlier task after training on a later one."""

    task: str
    metric: str
    before: float
    after: float

    @property
    def drop(self) -> float:
        return self.before - self.after


def computational_time(fps: float, frames: float = DEFAULT_FRAMES) -> float:
    """Seconds needed to process ``frames`` frames at the given FPS."""
    if fps <= 0:
        raise VruEvalError(f"fps must be positive, got {fps}")
    seconds = frames / fps
    if not math.isfinite(seconds):
        raise VruEvalError(f"computational time of {frames:g} frames at {fps:g} FPS overflows")
    return seconds


def relative_improvement(new: float, base: float) -> float:
    """Percentage change of ``new`` relative to ``base``."""
    if base == 0:
        raise VruEvalError("relative improvement undefined for a zero baseline")
    return 100.0 * (new - base) / base


def forgetting(before: float, after: float) -> float:
    """Signed metric drop; negative values indicate backward transfer."""
    for label, value in (("before", before), ("after", after)):
        if not 0.0 <= value <= 1.0:
            raise VruEvalError(f"{label}={value} outside [0, 1]")
    return before - after


@dataclass(frozen=True)
class ImprovementCell:
    metric: str
    base_run: str
    new_run: str
    base: float
    new: float
    percent: float | None  # None when the baseline value is 0


def _improvement_cell(metric, base_rec, new_rec) -> ImprovementCell | None:
    base = base_rec.metric(metric)
    new = new_rec.metric(metric)
    if base is None or new is None:
        return None
    try:
        percent = relative_improvement(new, base)
    except VruEvalError:
        percent = None
    return ImprovementCell(metric, base_rec.name, new_rec.name, base, new, percent)


@dataclass
class ComparisonTable:
    """Per-run metrics with improvements relative to one baseline run."""

    baseline: str
    frames: float
    sort_metric: str
    records: list[ModelRunRecord]
    improvements: dict[str, dict[str, ImprovementCell]]  # run -> metric -> cell

    def computational_times(self) -> dict[str, float | None]:
        return {
            rec.name: None if rec.fps is None else computational_time(rec.fps, self.frames)
            for rec in self.records
        }

    def to_dict(self) -> dict:
        times = self.computational_times()
        rows = []
        for rec in self.records:
            row = rec.to_dict()
            ct = times[rec.name]
            row["computational_time_s"] = None if ct is None else round(ct, 6)
            row["improvement_vs_baseline"] = {
                metric: None if cell.percent is None else round(cell.percent, 6)
                for metric, cell in self.improvements[rec.name].items()
            }
            rows.append(row)
        return {
            "baseline": self.baseline,
            "frames": self.frames,
            "sort_metric": self.sort_metric,
            "runs": rows,
        }

    def to_tables(self) -> list[tuple[list[str], list[list[str]]]]:
        headers = [
            "Run",
            "Precision",
            "Recall",
            "F1",
            "mAP50",
            "FPS",
            f"Time/{self.frames:g}f (s)",
        ]
        headers += [f"d{m}%" for m in METRIC_FIELDS]
        times = self.computational_times()
        rows = []
        for rec in self.records:
            cells = _metric_cells(rec)
            cells.append("" if rec.fps is None else f"{rec.fps:g}")
            ct = times[rec.name]
            cells.append("" if ct is None else f"{ct:.3f}")
            for metric in METRIC_FIELDS:
                cell = self.improvements[rec.name].get(metric)
                if cell is None:
                    cells.append("")
                elif cell.percent is None:
                    cells.append("undefined")
                else:
                    cells.append(f"{cell.percent:+.2f}")
            rows.append(cells)
        return [(headers, rows)]


def compare_models(
    records: list[ModelRunRecord],
    baseline: str,
    frames: float = DEFAULT_FRAMES,
    sort_metric: str = "map50",
) -> ComparisonTable:
    """Build the cross-model comparison table against a named baseline."""
    if len(records) < 2:
        raise SchemaError("need at least two run records to compare")
    names = [rec.name for rec in records]
    if len(names) != len(set(names)):
        raise SchemaError(f"duplicate run names: {names}")
    by_name = {rec.name: rec for rec in records}
    if baseline not in by_name:
        raise SchemaError(f"baseline run {baseline!r} not found among {names}")
    if sort_metric not in METRIC_FIELDS:
        raise SchemaError(f"unknown sort metric {sort_metric!r}; choose from {METRIC_FIELDS}")
    base_rec = by_name[baseline]
    improvements = {}
    for rec in records:
        cells = {}
        for metric in METRIC_FIELDS:
            cell = _improvement_cell(metric, base_rec, rec)
            if cell is not None:
                cells[metric] = cell
        improvements[rec.name] = cells

    def sort_key(rec: ModelRunRecord):
        value = rec.metric(sort_metric)
        return (value is None, -(value or 0.0), rec.name)

    ordered = sorted(records, key=sort_key)
    return ComparisonTable(
        baseline=baseline,
        frames=frames,
        sort_metric=sort_metric,
        records=ordered,
        improvements=improvements,
    )


@dataclass(frozen=True)
class ForgettingFlag:
    """Verdict for one sequentially trained run vs the scratch reference."""

    run: str
    reference: str
    gaps: dict[str, float]
    flagged: bool

    def describe(self) -> str:
        gap_text = ", ".join(f"{m} gap {g:.3f}" for m, g in self.gaps.items())
        verdict = (
            "catastrophic forgetting suspected" if self.flagged else "no forgetting flag"
        )
        return f"{self.run} vs {self.reference}: {verdict} ({gap_text})"


@dataclass
class ScenarioReport:
    """Ordered continual-learning runs with pairwise improvements and flags."""

    records: list[ModelRunRecord]
    improvements: list[ImprovementCell]
    flags: list[ForgettingFlag]
    forgetting_entries: list[ForgettingEntry]
    epsilon: float

    def improvement(self, metric: str, base_run: str, new_run: str) -> ImprovementCell:
        for cell in self.improvements:
            if (cell.metric, cell.base_run, cell.new_run) == (metric, base_run, new_run):
                return cell
        raise KeyError(f"no improvement cell for {metric} {base_run}->{new_run}")

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "runs": [rec.to_dict() for rec in self.records],
            "improvements": [
                {
                    "metric": cell.metric,
                    "base_run": cell.base_run,
                    "new_run": cell.new_run,
                    "base": cell.base,
                    "new": cell.new,
                    "percent": None if cell.percent is None else round(cell.percent, 6),
                }
                for cell in self.improvements
            ],
            "forgetting_flags": [
                {
                    "run": flag.run,
                    "reference": flag.reference,
                    "gaps": {m: round(g, 6) for m, g in flag.gaps.items()},
                    "flagged": flag.flagged,
                }
                for flag in self.flags
            ],
            "forgetting_entries": [
                {
                    "task": e.task,
                    "metric": e.metric,
                    "before": e.before,
                    "after": e.after,
                    "drop": round(e.drop, 6),
                }
                for e in self.forgetting_entries
            ],
        }

    def to_tables(self) -> list[tuple[list[str], list[list[str]]]]:
        run_headers = ["Run", "Precision", "Recall", "F1", "mAP50", "Train (h)", "Dataset"]
        run_rows = []
        for rec in self.records:
            cells = _metric_cells(rec)
            cells.append("" if rec.training_hours is None else f"{rec.training_hours:g}")
            cells.append(rec.eval_dataset or "")
            run_rows.append(cells)
        imp_headers = ["Metric", "Base", "New", "Base value", "New value", "Improvement %"]
        imp_rows = [
            [
                cell.metric,
                cell.base_run,
                cell.new_run,
                f"{cell.base:.4f}",
                f"{cell.new:.4f}",
                "undefined" if cell.percent is None else f"{cell.percent:+.2f}",
            ]
            for cell in self.improvements
        ]
        flag_headers = ["Run", "Reference", "Flag", "Gaps"]
        flag_rows = [
            [
                flag.run,
                flag.reference,
                "catastrophic forgetting suspected" if flag.flagged else "-",
                "; ".join(f"{m}={g:.3f}" for m, g in flag.gaps.items()),
            ]
            for flag in self.flags
        ]
        tables = [
            (run_headers, run_rows),
            (imp_headers, imp_rows),
            (flag_headers, flag_rows),
        ]
        if self.forgetting_entries:
            fg_headers = ["Task", "Metric", "Before", "After", "Forgetting"]
            fg_rows = [
                [e.task, e.metric, f"{e.before:.4f}", f"{e.after:.4f}", f"{e.drop:+.4f}"]
                for e in self.forgetting_entries
            ]
            tables.append((fg_headers, fg_rows))
        return tables


def continual_scenario(
    records: list[ModelRunRecord],
    epsilon: float = DEFAULT_EPSILON,
    forgetting_entries: list[ForgettingEntry] | None = None,
) -> ScenarioReport:
    """Analyze an ordered run sequence (canonically: task-1 model, task-2
    scratch model, then sequentially trained variants).

    Improvements cover every ordered pair; forgetting flags compare each
    sequential run (third onward) against the scratch run (second).
    """
    if len(records) < 2:
        raise SchemaError("scenario analysis needs at least two run records")
    names = [rec.name for rec in records]
    if len(names) != len(set(names)):
        raise SchemaError(f"duplicate run names: {names}")
    improvements = []
    for metric in METRIC_FIELDS:
        for i, base_rec in enumerate(records):
            for new_rec in records[i + 1 :]:
                cell = _improvement_cell(metric, base_rec, new_rec)
                if cell is not None:
                    improvements.append(cell)
    flags = []
    if len(records) >= 3:
        scratch = records[1]
        for rec in records[2:]:
            gaps = {}
            for metric in FLAG_METRICS:
                a = scratch.metric(metric)
                b = rec.metric(metric)
                if a is not None and b is not None:
                    gaps[metric] = abs(a - b)
            flagged = bool(gaps) and all(g <= epsilon for g in gaps.values())
            flags.append(ForgettingFlag(rec.name, scratch.name, gaps, flagged))
    return ScenarioReport(
        records=list(records),
        improvements=improvements,
        flags=flags,
        forgetting_entries=list(forgetting_entries or []),
        epsilon=epsilon,
    )


def load_run_file(path: str | Path) -> tuple[list[ModelRunRecord], list[ForgettingEntry]]:
    """Read run records (and optional forgetting entries) from a YAML file."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "runs" not in doc or not isinstance(doc["runs"], list):
        raise SchemaError(f"{path}: expected a mapping with a 'runs' list")
    records = []
    for entry in doc["runs"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"{path}: every run needs a 'name' field, got {entry!r}")
        known = {k: entry[k] for k in _KNOWN_FIELDS if k in entry}
        extra = {k: v for k, v in entry.items() if k not in _KNOWN_FIELDS}
        try:
            records.append(ModelRunRecord(**known, extra=extra))
        except (TypeError, SchemaError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    entries = []
    forgetting_doc = doc.get("forgetting", [])
    if not isinstance(forgetting_doc, list):
        raise SchemaError(f"{path}: 'forgetting' must be a list, got {forgetting_doc!r}")
    for entry in forgetting_doc:
        try:
            parsed = ForgettingEntry(
                task=str(entry["task"]),
                metric=str(entry["metric"]),
                before=float(entry["before"]),
                after=float(entry["after"]),
            )
            if not (math.isfinite(parsed.before) and math.isfinite(parsed.after)):
                raise ValueError("before and after must be finite")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: invalid forgetting entry {entry!r}: {exc}") from exc
        entries.append(parsed)
    return records, entries


def save_run_file(
    path: str | Path,
    records: list[ModelRunRecord],
    forgetting_entries: list[ForgettingEntry] | None = None,
) -> None:
    """Write records back to YAML, preserving unknown fields."""
    doc: dict = {"runs": [rec.to_dict() for rec in records]}
    if forgetting_entries:
        doc["forgetting"] = [
            {"task": e.task, "metric": e.metric, "before": e.before, "after": e.after}
            for e in forgetting_entries
        ]
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8", newline="\n")


def record_from_report(
    name: str, report: EvalReport, eval_dataset: str | None = None
) -> ModelRunRecord:
    """Turn an evaluation report's pooled row into a run record."""
    all_row = report.all_row
    return ModelRunRecord(
        name=name,
        precision=all_row.precision,
        recall=all_row.recall,
        f1=all_row.f1,
        map50=all_row.ap,
        eval_dataset=eval_dataset,
    )


def f1_formula_note(record: ModelRunRecord, tol: float = CONSISTENCY_TOL) -> str | None:
    """Flag a stated F1 that disagrees with the harmonic mean of stated P/R."""
    if record.precision is None or record.recall is None or record.f1 is None:
        return None
    expected = f1_score(record.precision, record.recall)
    if abs(expected - record.f1) <= tol:
        return None
    return (
        f"run {record.name!r}: stated f1={record.f1:.4f} disagrees with "
        f"2PR/(P+R)={expected:.4f} from stated precision/recall "
        f"(gap {abs(expected - record.f1):.4f})"
    )


def map_mean_note(
    class_aps: dict[str, float], stated_overall: float, label: str = "", tol: float = CONSISTENCY_TOL
) -> str | None:
    """Flag a stated overall mAP that is not the mean of its class APs."""
    if not class_aps:
        return None
    mean = sum(class_aps.values()) / len(class_aps)
    if abs(mean - stated_overall) <= tol:
        return None
    where = f"{label}: " if label else ""
    return (
        f"{where}stated overall mAP {stated_overall:.4f} is not the mean of the "
        f"class APs ({mean:.5f}; gap {abs(mean - stated_overall):.4f})"
    )


def consistency_notes(records: list[ModelRunRecord]) -> list[str]:
    """All F1-vs-formula discrepancies found among the given records."""
    notes = []
    for record in records:
        note = f1_formula_note(record)
        if note is not None:
            notes.append(note)
    return notes
