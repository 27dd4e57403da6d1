"""Evaluation and benchmarking toolkit for vulnerable-road-user detection.

Operates on annotation and prediction files rather than on models:
category remapping and label-format conversion, IoU-matched
precision/recall/F1/AP/mAP reports, throughput budgeting, and
continual-learning scenario comparison.
"""

from .annotations import (
    ClassMap,
    DetectionRecord,
    GroundTruthRecord,
    parse_detections,
    parse_visdrone_line,
    parse_yolo_labels,
)
from .benchmark import (
    ForgettingEntry,
    ModelRunRecord,
    ScenarioReport,
    compare_models,
    computational_time,
    continual_scenario,
    forgetting,
    relative_improvement,
)
from .dataset import DatasetManifest, DatasetStats, convert_dataset, dataset_stats, load_manifest
from .errors import ContractError, ConversionError, ParseError, SchemaError, VruEvalError
from .evaluate import ClassEval, EvalReport  # vrueval.evaluate stays the module
from .geometry import BoundingBox, ImageDims, NormalizedBox, from_normalized, iou, to_normalized
from .metrics import (
    ConfusionCounts,
    PRCurve,
    average_precision,
    confusion_at_threshold,
    f1,
    mean_ap,
    pr_curve,
    precision,
    recall,
)

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "ClassEval",
    "ClassMap",
    "ConfusionCounts",
    "ContractError",
    "ConversionError",
    "DatasetManifest",
    "DatasetStats",
    "DetectionRecord",
    "EvalReport",
    "ForgettingEntry",
    "GroundTruthRecord",
    "ImageDims",
    "ModelRunRecord",
    "NormalizedBox",
    "PRCurve",
    "ParseError",
    "ScenarioReport",
    "SchemaError",
    "VruEvalError",
    "average_precision",
    "compare_models",
    "computational_time",
    "confusion_at_threshold",
    "continual_scenario",
    "convert_dataset",
    "dataset_stats",
    "f1",
    "forgetting",
    "from_normalized",
    "iou",
    "load_manifest",
    "mean_ap",
    "parse_detections",
    "parse_visdrone_line",
    "parse_yolo_labels",
    "pr_curve",
    "precision",
    "recall",
    "relative_improvement",
    "to_normalized",
]
