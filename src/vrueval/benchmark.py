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

import json
import math
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import CheckedRecord, SchemaError, VruEvalError, read_yaml
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
    "compare_models",
    "continual_scenario",
    "load_run_file",
    "record_from_report",
    "f1_formula_note",
    "map_mean_note",
    "consistency_notes",
]

METRIC_FIELDS = ("precision", "recall", "f1", "map50")
_NUMBER_FIELDS = METRIC_FIELDS + ("fps", "inference_ms", "training_hours")

# Metrics compared for the forgetting flag. F1 is excluded: it is derived
# from precision and recall, so it adds no independent evidence.
FLAG_METRICS = ("precision", "recall", "map50")

DEFAULT_FRAMES = 30.0
DEFAULT_EPSILON = 0.02
# Stated metrics carry ~3 decimals, so recomputing F1 or a mean from them
# can drift by a few thousandths; gaps beyond this are real inconsistencies.
CONSISTENCY_TOL = 0.005


def _is_number(value) -> bool:
    """Whether a YAML value is an int or a float; a bool or a quoted number is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether a number fits a finite float; NaN, infinities and larger ints do not."""
    return abs(value) <= sys.float_info.max


class _ModelRunRecord(NamedTuple):
    name: str
    precision: float | None
    recall: float | None
    f1: float | None
    map50: float | None
    fps: float | None
    inference_ms: float | None
    training_hours: float | None
    eval_dataset: str | None
    note: str | None
    extra: Mapping  # the run-file keys without a field of their own


class ModelRunRecord(CheckedRecord, _ModelRunRecord):
    """Metric and timing row for one model configuration."""

    __slots__ = ()

    def __new__(
        cls, name, precision=None, recall=None, f1=None, map50=None, fps=None,
        inference_ms=None, training_hours=None, eval_dataset=None, note=None,
        extra=MappingProxyType({}),
    ):
        if not isinstance(name, str):
            raise SchemaError(f"run name must be a string, got {name!r}")
        cls._one_line("run name", name)
        self = super().__new__(
            cls, name, precision, recall, f1, map50, fps, inference_ms, training_hours,
            eval_dataset, note, extra,
        )
        for key in ("eval_dataset", "note"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                raise SchemaError(f"run {name!r}: {key}={value!r} is not a string")
        if eval_dataset is not None:  # the scenario's run table has a Dataset column
            cls._one_line(f"run {name!r}: eval_dataset", eval_dataset)
        for key in _NUMBER_FIELDS:
            value = getattr(self, key)
            if value is not None and not _is_number(value):
                raise SchemaError(f"run {name!r}: {key}={value!r} is not a number")
        for metric in METRIC_FIELDS:
            value = getattr(self, metric)
            if value is not None and not 0.0 <= value <= 1.0:
                raise SchemaError(f"run {name!r}: {metric}={value} outside [0, 1]")
        if fps is not None and not (_finite(fps) and fps > 0):
            raise SchemaError(f"run {name!r}: fps={fps} must be finite and positive")
        for key in ("inference_ms", "training_hours"):
            value = getattr(self, key)
            if value is not None and not _finite(value):
                raise SchemaError(f"run {name!r}: {key}={value} must be finite")
        for key, value in extra.items():  # the structured output writes them
            try:
                json.dumps({key: value}, allow_nan=False)
            except (TypeError, ValueError):
                raise SchemaError(f"run {name!r}: {key}={value!r} is not a JSON value") from None
        return self

    def to_dict(self) -> dict:
        doc = {key: value for key, value in zip(_KNOWN_FIELDS, self) if value is not None}
        doc.update(self.extra)
        return doc


# Run-file keys with a field of their own, in JSON key order; the rest go to ``extra``.
_KNOWN_FIELDS = ModelRunRecord._fields[:-1]


def _metric_cells(rec: ModelRunRecord) -> list[str]:
    """Table cells for a run's name and its metrics; a missing metric is blank."""
    return [rec.name] + [
        "" if (value := getattr(rec, metric)) is None else f"{value:.4f}"
        for metric in METRIC_FIELDS
    ]


class _ForgettingEntry(NamedTuple):
    task: str
    metric: str
    before: float
    after: float


class ForgettingEntry(CheckedRecord, _ForgettingEntry):
    """Metric drop on an earlier task after training on a later one."""

    __slots__ = ()

    def __new__(cls, task: str, metric: str, before: float, after: float):
        for key, value in (("task", task), ("metric", metric)):
            if not isinstance(value, str):
                raise SchemaError(f"{key}={value!r} is not a string")
            cls._one_line(key, value)
        for key, value in (("before", before), ("after", after)):
            if not _is_number(value):
                raise SchemaError(f"{key}={value!r} is not a number")
        if not (0.0 <= before <= 1.0 and 0.0 <= after <= 1.0):
            raise SchemaError("before and after must be finite and in [0, 1]")
        return super().__new__(cls, task, metric, float(before), float(after))

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


class ImprovementCell(NamedTuple):
    metric: str
    base_run: str
    new_run: str
    base: float
    new: float
    percent: float | None  # None when the baseline value is 0

    @property
    def rounded(self) -> float | None:
        """``percent`` as the structured reports write it."""
        return None if self.percent is None else round(self.percent, 6)

    @property
    def text(self) -> str:
        """``percent`` as the tables write it."""
        return "undefined" if self.percent is None else f"{self.percent:+.2f}"


def _improvement_cell(metric, base_rec, new_rec) -> ImprovementCell | None:
    base = getattr(base_rec, metric)
    new = getattr(new_rec, metric)
    if base is None or new is None:
        return None
    percent = relative_improvement(new, base) if base else None
    if percent is not None and not math.isfinite(percent):  # a subnormal baseline
        raise VruEvalError(
            f"{metric} of run {new_rec.name!r} against {base_rec.name!r}: "
            f"relative improvement of {new:g} over {base:g} overflows"
        )
    return ImprovementCell(metric, base_rec.name, new_rec.name, base, new, percent)


def _run_names(records: list[ModelRunRecord], too_few: str) -> list[str]:
    """The names of ``records``, which must be at least two and distinct."""
    if len(records) < 2:
        raise SchemaError(too_few)
    names = [rec.name for rec in records]
    if len(names) != len(set(names)):
        raise SchemaError(f"duplicate run names: {names}")
    return names


class ComparisonTable(NamedTuple):
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
        rows = [
            {
                **rec.to_dict(),
                "computational_time_s": None if (ct := times[rec.name]) is None else round(ct, 6),
                "improvement_vs_baseline": {
                    metric: cell.rounded for metric, cell in self.improvements[rec.name].items()
                },
            }
            for rec in self.records
        ]
        return dict(zip(self._fields[:3], self), runs=rows)  # baseline, frames, sort_metric

    def to_tables(self) -> list[tuple[list[str], list[list[str]]]]:
        headers = ["Run", "Precision", "Recall", "F1", "mAP50", "FPS", f"Time/{self.frames:g}f (s)"]
        headers += [f"d{m}%" for m in METRIC_FIELDS]
        times = self.computational_times()
        rows = []
        for rec in self.records:
            cells = _metric_cells(rec)
            cells.append("" if rec.fps is None else f"{rec.fps:g}")
            ct = times[rec.name]
            cells.append("" if ct is None else f"{ct:.3f}")
            improvements = self.improvements[rec.name]
            cells += [improvements[m].text if m in improvements else "" for m in METRIC_FIELDS]
            rows.append(cells)
        return [(headers, rows)]


def compare_models(
    records: list[ModelRunRecord],
    baseline: str,
    frames: float = DEFAULT_FRAMES,
    sort_metric: str = "map50",
) -> ComparisonTable:
    """Build the cross-model comparison table against a named baseline."""
    names = _run_names(records, "need at least two run records to compare")
    if baseline not in names:
        raise SchemaError(f"baseline run {baseline!r} not found among {names}")
    if sort_metric not in METRIC_FIELDS:
        raise SchemaError(f"unknown sort metric {sort_metric!r}; choose from {METRIC_FIELDS}")
    base_rec = records[names.index(baseline)]
    improvements = {
        rec.name: {m: cell for m in METRIC_FIELDS if (cell := _improvement_cell(m, base_rec, rec))}
        for rec in records
    }

    def sort_key(rec: ModelRunRecord):
        value = getattr(rec, sort_metric)
        return (value is None, -(value or 0.0), rec.name)

    ordered = sorted(records, key=sort_key)
    return ComparisonTable(baseline, frames, sort_metric, ordered, improvements)


class ForgettingFlag(NamedTuple):
    """Verdict for one sequentially trained run vs the scratch reference."""

    run: str
    reference: str
    gaps: dict[str, float]
    flagged: bool

    def describe(self) -> str:
        gap_text = ", ".join(f"{m} gap {g:.3f}" for m, g in self.gaps.items())
        verdict = "catastrophic forgetting suspected" if self.flagged else "no forgetting flag"
        return f"{self.run} vs {self.reference}: {verdict} ({gap_text})"


class ScenarioReport(NamedTuple):
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
                {**cell._asdict(), "percent": cell.rounded} for cell in self.improvements
            ],
            "forgetting_flags": [
                {**flag._asdict(), "gaps": {m: round(g, 6) for m, g in flag.gaps.items()}}
                for flag in self.flags
            ],
            "forgetting_entries": [
                {**e._asdict(), "drop": round(e.drop, 6)} for e in self.forgetting_entries
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
            [*cell[:3], f"{cell.base:.4f}", f"{cell.new:.4f}", cell.text]
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
        tables = [(run_headers, run_rows), (imp_headers, imp_rows), (flag_headers, flag_rows)]
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
    _run_names(records, "scenario analysis needs at least two run records")
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
            pairs = ((m, getattr(scratch, m), getattr(rec, m)) for m in FLAG_METRICS)
            gaps = {m: abs(a - b) for m, a, b in pairs if a is not None and b is not None}
            flagged = bool(gaps) and all(g <= epsilon for g in gaps.values())
            flags.append(ForgettingFlag(rec.name, scratch.name, gaps, flagged))
    return ScenarioReport(
        list(records), improvements, flags, list(forgetting_entries or []), epsilon
    )


def load_run_file(path: str | Path) -> tuple[list[ModelRunRecord], list[ForgettingEntry]]:
    """Read run records (and optional forgetting entries) from a YAML file."""
    path = Path(path)
    doc = read_yaml(path, "YAML", typed=True)
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
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    entries = []
    forgetting_doc = doc.get("forgetting", [])
    if not isinstance(forgetting_doc, list):
        raise SchemaError(f"{path}: 'forgetting' must be a list, got {forgetting_doc!r}")
    for entry in forgetting_doc:
        try:
            entries.append(
                ForgettingEntry(entry["task"], entry["metric"], entry["before"], entry["after"])
            )
        except (KeyError, TypeError, SchemaError) as exc:
            raise SchemaError(f"{path}: invalid forgetting entry {entry!r}: {exc}") from exc
    return records, entries


def record_from_report(
    name: str, report: EvalReport, eval_dataset: str | None = None
) -> ModelRunRecord:
    """Turn an evaluation report's pooled row into a run record."""
    row = report.all_row
    return ModelRunRecord(
        name, row.precision, row.recall, row.f1, row.ap, eval_dataset=eval_dataset
    )


def f1_formula_note(record: ModelRunRecord) -> str | None:
    """Flag a stated F1 that disagrees with the harmonic mean of stated P/R."""
    if record.precision is None or record.recall is None or record.f1 is None:
        return None
    expected = f1_score(record.precision, record.recall)
    if abs(expected - record.f1) <= CONSISTENCY_TOL:
        return None
    return (
        f"run {record.name!r}: stated f1={record.f1:.4f} disagrees with "
        f"2PR/(P+R)={expected:.4f} from stated precision/recall "
        f"(gap {abs(expected - record.f1):.4f})"
    )


def map_mean_note(
    class_aps: dict[str, float], stated_overall: float, label: str = ""
) -> str | None:
    """Flag a stated overall mAP that is not the mean of its class APs."""
    if not class_aps:
        return None
    mean = sum(class_aps.values()) / len(class_aps)
    if abs(mean - stated_overall) <= CONSISTENCY_TOL:
        return None
    where = f"{label}: " if label else ""
    return (
        f"{where}stated overall mAP {stated_overall:.4f} is not the mean of the "
        f"class APs ({mean:.5f}; gap {abs(mean - stated_overall):.4f})"
    )


def consistency_notes(records: list[ModelRunRecord]) -> list[str]:
    """All F1-vs-formula discrepancies found among the given records."""
    return [note for record in records if (note := f1_formula_note(record)) is not None]
