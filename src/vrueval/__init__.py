"""Evaluation and benchmarking toolkit for vulnerable-road-user detection.

Operates on annotation and prediction files rather than on models:
category remapping and label-format conversion, IoU-matched
precision/recall/F1/AP/mAP reports, throughput budgeting, and
continual-learning scenario comparison.

The names below are loaded from their submodule on first access (PEP 562),
so ``import vrueval`` and the CLI load PyYAML and ``vrueval.benchmark``
only when a name or command needs them.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "ClassEval": "evaluate",
    "ClassMap": "annotations",
    "ConfusionCounts": "metrics",
    "ContractError": "errors",
    "ConversionError": "errors",
    "DatasetManifest": "dataset",
    "DatasetStats": "dataset",
    "EvalReport": "evaluate",
    "ForgettingEntry": "benchmark",
    "ImageDims": "geometry",
    "ModelRunRecord": "benchmark",
    "PRCurve": "metrics",
    "ParseError": "errors",
    "ScenarioReport": "benchmark",
    "SchemaError": "errors",
    "VruEvalError": "errors",
    "average_precision": "metrics",
    "compare_models": "benchmark",
    "computational_time": "benchmark",
    "continual_scenario": "benchmark",
    "convert_dataset": "dataset",
    "dataset_stats": "dataset",
    "f1": "metrics",
    "load_manifest": "dataset",
    "mean_ap": "metrics",
    "precision": "metrics",
    "recall": "metrics",
    "relative_improvement": "benchmark",
}
# submodules that are attributes of the package even before anything imports them
_SUBMODULES = frozenset(_EXPORTS.values()) | {"matching"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:  # the import binds it: ``vrueval.evaluate`` is the module
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
