"""Shared builders for metric tests: records, random instances, conversions.

Random instances are generated as plain dicts (the oracle's format) and
converted to library records, so both sides consume the same data.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from vrueval.annotations import DetectionRecord, GroundTruthRecord
from vrueval.geometry import BoundingBox


def fixtures_root() -> Path:
    """Fixture directory, overridable via VRUEVAL_FIXTURES (tests only)."""
    return Path(os.environ.get("VRUEVAL_FIXTURES", Path(__file__).parent / "fixtures"))


def gt(image_id="img", class_id=0, box=(0, 0, 10, 10), ignore=False):
    return GroundTruthRecord(image_id, class_id, BoundingBox(*map(float, box)), ignore)


def det(image_id="img", class_id=0, confidence=0.9, box=(0, 0, 10, 10)):
    return DetectionRecord(image_id, class_id, confidence, BoundingBox(*map(float, box)))


def to_oracle_gt(rec: GroundTruthRecord) -> dict:
    return {
        "image_id": rec.image_id,
        "class_id": rec.class_id,
        "box": (rec.box.x_min, rec.box.y_min, rec.box.x_max, rec.box.y_max),
        "ignore": rec.ignore,
    }


def to_oracle_det(rec: DetectionRecord) -> dict:
    return {
        "image_id": rec.image_id,
        "class_id": rec.class_id,
        "confidence": rec.confidence,
        "box": (rec.box.x_min, rec.box.y_min, rec.box.x_max, rec.box.y_max),
    }


def random_box(rng: random.Random, span: float = 100.0) -> tuple:
    """Boxes on a half-unit grid in a small arena so overlaps are common."""
    x0 = rng.randrange(0, int(span)) / 2.0
    y0 = rng.randrange(0, int(span)) / 2.0
    w = rng.randrange(2, 40) / 2.0
    h = rng.randrange(2, 40) / 2.0
    return (x0, y0, x0 + w, y0 + h)


def random_instance(
    rng: random.Random,
    max_gts: int = 8,
    max_dets: int = 15,
    n_images: int = 2,
    with_ignores: bool = False,
    class_id: int = 0,
    box=random_box,
):
    """One random matching problem; confidences are distinct by construction.

    ``box(rng)`` draws every box; the default is ``random_box``.
    """
    images = [f"im{i}" for i in range(rng.randint(1, n_images))]
    gts = []
    for _ in range(rng.randint(0, max_gts)):
        gts.append(gt(rng.choice(images), class_id, box(rng)))
    if with_ignores:
        for _ in range(rng.randint(0, 2)):
            gts.append(gt(rng.choice(images), -1, box(rng), ignore=True))
    n_dets = rng.randint(0, max_dets)
    confidences = rng.sample(range(1, 1000), n_dets)
    dets = []
    for conf in confidences:
        dets.append(det(rng.choice(images), class_id, conf / 1000.0, box(rng)))
    return gts, dets
