"""The record types are NamedTuples: immutable, equal by value, and checked when built."""

from pathlib import Path

import pytest

from vrueval.annotations import ClassMap
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
    ],
    ids=["ImageDims", "ClassMap", "ManifestImage", "DatasetManifest", "ConfusionCounts"],
)
def test_replace_checks_like_construction(record, field, bad, error):
    with pytest.raises(error):
        record._replace(**{field: bad})
    assert record._replace(**{field: getattr(record, field)}) == record
