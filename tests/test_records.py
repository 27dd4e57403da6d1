"""The record types are NamedTuples: immutable, equal by value, and checked when built."""

from pathlib import Path

import pytest

from vrueval.annotations import ClassMap
from vrueval.benchmark import ForgettingEntry, ModelRunRecord
from vrueval.dataset import DatasetManifest, ManifestImage
from vrueval.errors import SchemaError
from vrueval.geometry import ImageDims
from vrueval.metrics import ConfusionCounts


def test_a_record_is_an_immutable_tuple():
    dims = ImageDims(640, 480)
    assert dims == (640, 480)
    assert repr(dims) == "ImageDims(width=640, height=480)"
    with pytest.raises(AttributeError):
        dims.width = 1
    with pytest.raises(AttributeError):
        dims.depth = 1


@pytest.mark.parametrize(
    "record, field, bad, error",
    [
        (ImageDims(640, 480), "width", 0, ValueError),
        (ClassMap({0: 0}, ("a",)), "names", (), SchemaError),
        (ManifestImage("a", ImageDims(1, 1), "labels/a.txt"), "label_path", "../a.txt", ValueError),
        (DatasetManifest("val", ("a",), (), Path("ds")), "class_names", ("a", "a"), SchemaError),
        (ConfusionCounts(1, 0, 0), "fp", -1, ValueError),
        (ModelRunRecord("a", map50=0.5), "map50", 1.5, SchemaError),
        (ModelRunRecord("a"), "eval_dataset", 5, SchemaError),
        (ModelRunRecord("a", extra={"gpu": "x"}), "extra", {"gpu": float("nan")}, SchemaError),
        (ForgettingEntry("t", "map50", 0.5, 0.4), "after", 1.2, SchemaError),
    ],
    ids=[
        "ImageDims", "ClassMap", "ManifestImage", "DatasetManifest", "ConfusionCounts",
        "ModelRunRecord", "ModelRunRecord-text", "ModelRunRecord-extra", "ForgettingEntry",
    ],
)
def test_replace_checks_like_construction(record, field, bad, error):
    with pytest.raises(error):
        record._replace(**{field: bad})
    assert record._replace(**{field: getattr(record, field)}) == record


def test_a_run_record_has_its_own_immutable_extra():
    first, second = ModelRunRecord("a"), ModelRunRecord("b")
    assert first.extra == {}
    with pytest.raises(TypeError):
        first.extra["gpu"] = "x"
    assert second.extra == {}


@pytest.mark.parametrize(
    "before, after, error",
    [
        (1.5, 0.4, r"before and after must be finite and in \[0, 1\]"),
        (0.5, float("nan"), r"before and after must be finite and in \[0, 1\]"),
        (10**400, 0.4, r"before and after must be finite and in \[0, 1\]"),
        ("0.5", 0.4, "before='0.5' is not a number"),
        (0.5, True, "after=True is not a number"),
    ],
)
def test_a_forgetting_entry_built_in_code_is_checked(before, after, error):
    with pytest.raises(SchemaError, match=error):
        ForgettingEntry("t", "map50", before, after)


@pytest.mark.parametrize(
    "task, metric, error",
    [
        (True, "map50", "task=True is not a string"),
        (["x", "y"], "map50", r"task=\['x', 'y'\] is not a string"),
        ("t", 1.5, "metric=1.5 is not a string"),
        ("t", None, "metric=None is not a string"),
    ],
)
def test_a_forgetting_entry_text_is_a_string(task, metric, error):
    with pytest.raises(SchemaError, match=error):
        ForgettingEntry(task, metric, 0.5, 0.4)


def test_a_forgetting_entry_holds_floats():
    entry = ForgettingEntry("t", "map50", 1, 0)
    assert (entry.before, entry.after) == (1.0, 0.0)
    assert type(entry.before) is type(entry.after) is float
