"""Shared builders for metric tests: oracle records, random instances, rows.

Ground truths and detections are built as plain dicts, the oracle's
format (``tests/oracle.py``); ``image_rows`` turns them into the per-image
rows that ``vrueval.metrics.sweep_images`` takes, so both sides consume
the same data.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from vrueval.annotations import parse_detection_rows
from vrueval.dataset import ground_truth_rows
from vrueval.errors import read_input


def fixtures_root() -> Path:
    """Fixture directory, overridable via VRUEVAL_FIXTURES (tests only)."""
    return Path(os.environ.get("VRUEVAL_FIXTURES", Path(__file__).parent / "fixtures"))


def gt(image_id="img", class_id=0, box=(0, 0, 10, 10), ignore=False):
    box = tuple(map(float, box))
    return {"image_id": image_id, "class_id": class_id, "box": box, "ignore": ignore}


def det(image_id="img", class_id=0, confidence=0.9, box=(0, 0, 10, 10)):
    box = tuple(map(float, box))
    return {"image_id": image_id, "class_id": class_id, "confidence": confidence, "box": box}


def image_rows(gts: list[dict], dets: list[dict]) -> list[tuple[list, list, list]]:
    """``(truths, regions, detections)`` rows per image, images in order of first
    appearance in ``gts`` then ``dets``; an ignore record's row is its box alone."""
    images: dict[str, tuple[list, list, list]] = {}
    for g in gts:
        truths, regions, _ = images.setdefault(g["image_id"], ([], [], []))
        if g["ignore"]:
            regions.append(g["box"])
        else:
            truths.append((g["class_id"], *g["box"]))
    for d in dets:
        row = (d["class_id"], d["confidence"], *d["box"])
        images.setdefault(d["image_id"], ([], [], []))[2].append(row)
    return list(images.values())


def read_records(manifest, detections_dir: Path) -> tuple[list, list]:
    """Oracle records of a converted dataset and its detection files, image by image."""
    num_classes = len(manifest.class_names)
    gts, dets = [], []
    for img in manifest.images:
        labels, regions = ground_truth_rows(manifest, img)
        gts += [gt(img.image_id, class_id, box) for class_id, *box in labels]
        gts += [gt(img.image_id, -1, box, ignore=True) for box in regions]
        text = read_input(detections_dir / f"{img.image_id}.txt")
        for class_id, confidence, *box in parse_detection_rows(text, img.dims, num_classes):
            dets.append(det(img.image_id, class_id, confidence, box))
    return gts, dets


def random_box(rng: random.Random, span: float = 100.0) -> tuple:
    """Boxes on a half-unit grid in a small arena so overlaps are common."""
    x0 = rng.randrange(0, int(span)) / 2.0
    y0 = rng.randrange(0, int(span)) / 2.0
    w = rng.randrange(2, 40) / 2.0
    h = rng.randrange(2, 40) / 2.0
    return (x0, y0, x0 + w, y0 + h)


def grid_box(rng: random.Random) -> tuple:
    """Integer boxes in a 6x6 arena, up to 2 units a side.

    Touching edges, shared corners, identical and zero-area boxes, and IoU
    exactly 0.5 are all frequent here.
    """
    x0 = rng.randrange(0, 5)
    y0 = rng.randrange(0, 5)
    return (x0, y0, x0 + rng.randrange(0, 3), y0 + rng.randrange(0, 3))


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
