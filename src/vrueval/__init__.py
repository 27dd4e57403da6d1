"""Evaluation and benchmarking toolkit for vulnerable-road-user detection.

Operates on annotation and prediction files rather than on models:
category remapping and label-format conversion, IoU-matched
precision/recall/F1/AP/mAP reports, throughput budgeting, and
continual-learning scenario comparison.
"""

from .annotations import ClassMap
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
from .geometry import ImageDims
from .metrics import (
    ConfusionCounts,
    PRCurve,
    average_precision,
    f1,
    mean_ap,
    precision,
    recall,
)

__version__ = "0.1.0"

__all__ = [
    "ClassEval",
    "ClassMap",
    "ConfusionCounts",
    "ContractError",
    "ConversionError",
    "DatasetManifest",
    "DatasetStats",
    "EvalReport",
    "ForgettingEntry",
    "ImageDims",
    "ModelRunRecord",
    "PRCurve",
    "ParseError",
    "ScenarioReport",
    "SchemaError",
    "VruEvalError",
    "average_precision",
    "compare_models",
    "computational_time",
    "continual_scenario",
    "convert_dataset",
    "dataset_stats",
    "f1",
    "forgetting",
    "load_manifest",
    "mean_ap",
    "precision",
    "recall",
    "relative_improvement",
]
