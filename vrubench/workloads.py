"""Seeded synthetic workloads for the vrueval benchmark.

Each workload writes a convertible source root (``dimensions.txt`` plus
``images/``+``annotations/`` or ``labels/val/``), a detections directory
and, where needed, a class-map file. Nothing is downloaded; the program
under test sees only these files.

The generator also returns what it planted: every kept ground-truth box,
every ignore region, and every detection with the role it was given. On
``visdrone-val`` and ``caltech-frames`` objects sit in disjoint grid cells
and every detection's fate under greedy matching is fixed by construction
(a "hit" overlaps one ground truth at IoU >= 0.6, a "near miss" at
0.1..0.4, everything else overlaps nothing it could match), so the
checker can derive the expected report from the plan alone.
``crowd-dense`` overlaps on purpose; its expected report comes from the
reference matcher in ``checks.py``.

The same workload, seed and scale always write the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("visdrone-val", "caltech-frames", "crowd-dense")

DEFAULT_NAMES = ("pedestrian", "people", "bicycle", "tricycle")
# target class id -> source category id of the drone-survey default class map
DEFAULT_SOURCE_CATEGORY = {0: 1, 1: 2, 2: 3, 3: 7}
VEHICLE_CATEGORIES = (4, 5, 6, 8, 9, 10, 11)

CALTECH_NAMES = ("pedestrian", "people")
# YOLO source ids: 0 person, 1 people, 2 person? and 3 person-fa (both dropped)
CALTECH_CLASSMAP = "names: [pedestrian, people]\nmap: {0: 0, 1: 1}\ndrop: [2, 3]\n"

# Roles a planted detection can have.
HIT = "hit"  # IoU >= 0.6 with one ground truth of its class, nothing else
NEAR = "near"  # IoU 0.1..0.4 with one ground truth of its class
WRONG = "wrong"  # on a ground truth of another class
BACKGROUND = "bg"  # overlaps no ground truth and no ignore region
IGNORE_HIT = "ign_hit"  # IoU >= 0.6 with an ignore region: suppressed
IGNORE_NEAR = "ign_near"  # IoU 0.1..0.4 with an ignore region: false positive
FREE = "free"  # crowd-dense: fate left to the reference matcher

PARAMS = {
    "visdrone-val": {"images": 548, "gts": 30, "vehicles": 3, "ignores": 2, "dets": 300},
    "caltech-frames": {"images": 4000, "dets": 10},
    "crowd-dense": {"images": 80, "gts": 100, "ignores": 2, "dets": 160},
}
SMOKE_IMAGES = {"visdrone-val": 6, "caltech-frames": 40, "crowd-dense": 2}

VISDRONE_SIZES = ((1360, 765), (1920, 1080), (960, 540), (1400, 1050), (2000, 1500))


@dataclass
class Detection:
    class_id: int
    conf: str  # as written, so ranking ties are seen exactly as the program sees them
    box: tuple[float, float, float, float]
    role: str
    target: int = -1  # index into the image's gts for HIT/NEAR/WRONG


@dataclass
class Image:
    image_id: str
    width: int
    height: int
    gts: list[tuple[int, tuple[float, float, float, float]]] = field(default_factory=list)
    ignores: list[tuple[float, float, float, float]] = field(default_factory=list)
    dropped: list[tuple[int, tuple[float, float, float, float]]] = field(default_factory=list)  # (source id, box)
    dets: list[Detection] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    seed: int
    class_names: tuple[str, ...]
    images: list[Image]
    source: Path
    detections: Path
    convert_args: list[str]  # options for `vrueval convert` after SRC OUT
    planted: bool  # fates fixed by construction (else: reference matcher)


def box_iou(a, b) -> float:
    """IoU of two corner boxes, open-convention areas."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def norm_fields(box, width: int, height: int) -> str:
    """``cx cy w h`` normalized, 6 decimals (the label and detection line format)."""
    x0, y0, x1, y1 = box
    return (
        f"{(x0 + x1) / (2 * width):.6f} {(y0 + y1) / (2 * height):.6f} "
        f"{(x1 - x0) / width:.6f} {(y1 - y0) / height:.6f}"
    )


def denorm_fields(fields, width: int, height: int):
    """Corner box of ``cx cy w h`` normalized strings."""
    cx, cy, w, h = (float(f) for f in fields)
    half_w = w * width / 2.0
    half_h = h * height / 2.0
    return (cx * width - half_w, cy * height - half_h, cx * width + half_w, cy * height + half_h)


class _Cells:
    """A grid over one image; every object planted in a cell stays inside it.

    Cells keep a 2-pixel margin, so boxes of different cells never touch and
    their IoU is exactly zero whatever the 6-decimal rounding does.
    """

    def __init__(self, rng: random.Random, width: int, height: int, cols: int, rows: int):
        self.rng = rng
        cw, ch = width / cols, height / rows
        self.free = [
            (c * cw + 2, r * ch + 2, (c + 1) * cw - 2, (r + 1) * ch - 2)
            for r in range(rows)
            for c in range(cols)
        ]
        rng.shuffle(self.free)

    def take(self):
        return self.free.pop()

    def inside(self, cell, box) -> bool:
        return cell[0] <= box[0] and cell[1] <= box[1] and box[2] <= cell[2] and box[3] <= cell[3]

    def object_box(self, cell, fw=(0.25, 0.4), fh=(0.3, 0.45)):
        """Integer-pixel box around the cell centre, small enough to jitter in."""
        rng = self.rng
        cw, ch = cell[2] - cell[0], cell[3] - cell[1]
        w = max(4, int(cw * rng.uniform(*fw)))
        h = max(4, int(ch * rng.uniform(*fh)))
        x0 = int(cell[0] + (cw - w) / 2 + rng.uniform(-0.1, 0.1) * cw)
        y0 = int(cell[1] + (ch - h) / 2 + rng.uniform(-0.1, 0.1) * ch)
        return (float(x0), float(y0), float(x0 + w), float(y0 + h))

    def around(self, cell, box, lo: float, hi: float, spread: float):
        """A box inside ``cell`` whose IoU with ``box`` lies in [lo, hi]."""
        rng = self.rng
        w, h = box[2] - box[0], box[3] - box[1]
        while True:
            cand = (
                box[0] + rng.uniform(-spread, spread) * w,
                box[1] + rng.uniform(-spread, spread) * h,
                box[2] + rng.uniform(-spread, spread) * w,
                box[3] + rng.uniform(-spread, spread) * h,
            )
            if cand[2] - cand[0] < 2 or cand[3] - cand[1] < 2:
                continue
            if self.inside(cell, cand) and lo <= box_iou(cand, box) <= hi:
                return cand

    def anywhere(self, cell):
        rng = self.rng
        cw, ch = cell[2] - cell[0], cell[3] - cell[1]
        w, h = cw * rng.uniform(0.15, 0.5), ch * rng.uniform(0.2, 0.6)
        x0 = cell[0] + rng.uniform(0, cw - w)
        y0 = cell[1] + rng.uniform(0, ch - h)
        return (x0, y0, x0 + w, y0 + h)


def _conf(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _plant_around_gts(cells, cell_of, img: Image, rng, num_classes: int, per_gt) -> None:
    """Hits, near misses and wrong-class detections around each ground truth."""
    for idx, (cls, box) in enumerate(img.gts):
        cell = cell_of[idx]
        n_hits, n_near, n_wrong = per_gt(rng)
        for k in range(n_hits):
            conf = _conf(rng, 0.25, 0.99) if k == 0 else _conf(rng, 0.02, 0.6)
            img.dets.append(Detection(cls, conf, cells.around(cell, box, 0.6, 1.0, 0.12), HIT, idx))
        for _ in range(n_near):
            img.dets.append(
                Detection(cls, _conf(rng, 0.02, 0.7), cells.around(cell, box, 0.1, 0.4, 0.6), NEAR, idx)
            )
        for _ in range(n_wrong):
            other = (cls + rng.randrange(1, num_classes)) % num_classes
            img.dets.append(
                Detection(other, _conf(rng, 0.05, 0.8), cells.around(cell, box, 0.6, 1.0, 0.12), WRONG, idx)
            )


def _plant_ignores(cells, img: Image, rng, num_classes: int, cells_list) -> None:
    for cell, region in zip(cells_list, img.ignores):
        for role, lo, hi, spread in ((IGNORE_HIT, 0.6, 1.0, 0.1), (IGNORE_NEAR, 0.1, 0.4, 0.5)):
            for _ in range(2):
                img.dets.append(
                    Detection(
                        rng.randrange(num_classes),
                        _conf(rng, 0.05, 0.9),
                        cells.around(cell, region, lo, hi, spread),
                        role,
                    )
                )


def _fill_background(cells, img: Image, rng, num_classes: int, total: int, bg_cells) -> None:
    while len(img.dets) < total:
        cell = bg_cells[rng.randrange(len(bg_cells))]
        conf = f"{0.01 + 0.6 * rng.random() ** 2:.4f}"
        img.dets.append(Detection(rng.randrange(num_classes), conf, cells.anywhere(cell), BACKGROUND))
    rng.shuffle(img.dets)


def _visdrone_per_gt(rng):
    n_hits = rng.choices((0, 1, 2, 3), (12, 60, 20, 8))[0]
    return n_hits, rng.choices((0, 1, 2, 3), (40, 30, 20, 10))[0], int(rng.random() < 0.15)


def _caltech_per_gt(rng):
    return rng.choices((0, 1, 2), (15, 70, 15))[0], rng.choices((0, 1), (60, 40))[0], 0


def _gen_visdrone(rng, p) -> list[Image]:
    images = []
    class_weights = (45, 30, 10, 15)
    for i in range(p["images"]):
        width, height = VISDRONE_SIZES[rng.randrange(len(VISDRONE_SIZES))]
        img = Image(f"{i:07d}", width, height)
        cells = _Cells(rng, width, height, 12, 8)
        cell_of = []
        for _ in range(p["gts"]):
            cell = cells.take()
            img.gts.append((rng.choices(range(4), class_weights)[0], cells.object_box(cell)))
            cell_of.append(cell)
        img.dropped = [
            (rng.choice(VEHICLE_CATEGORIES), cells.object_box(cells.take(), (0.4, 0.6), (0.4, 0.6)))
            for _ in range(p["vehicles"])
        ]
        ign_cells = [cells.take() for _ in range(p["ignores"])]
        img.ignores = [cells.object_box(c, (0.5, 0.7), (0.5, 0.7)) for c in ign_cells]
        _plant_around_gts(cells, cell_of, img, rng, 4, _visdrone_per_gt)
        _plant_ignores(cells, img, rng, 4, ign_cells)
        _fill_background(cells, img, rng, 4, p["dets"], cells.free)
        images.append(img)
    return images


def _gen_caltech(rng, p) -> list[Image]:
    images = []
    for i in range(p["images"]):
        img = Image(f"set00_V000_{i:05d}", 640, 480)
        cells = _Cells(rng, 640, 480, 8, 4)
        cell_of = []
        for _ in range(rng.choices((0, 1, 2, 3), (20, 40, 25, 15))[0]):
            cell = cells.take()
            img.gts.append((rng.choices((0, 1), (80, 20))[0], cells.object_box(cell)))
            cell_of.append(cell)
        # dropped source classes (person?, person-fa) occupy cells of their own
        img.dropped = [
            (rng.choice((2, 3)), cells.object_box(cells.take())) for _ in range(int(rng.random() < 0.3))
        ]
        ign_cells = [cells.take() for _ in range(int(rng.random() < 0.2))]
        img.ignores = [cells.object_box(c, (0.5, 0.7), (0.5, 0.7)) for c in ign_cells]
        _plant_around_gts(cells, cell_of, img, rng, 2, _caltech_per_gt)
        _plant_ignores(cells, img, rng, 2, ign_cells)
        _fill_background(cells, img, rng, 2, max(p["dets"], len(img.dets)), cells.free)
        images.append(img)
    return images


def _gen_crowd(rng, p) -> list[Image]:
    """Clustered, heavily overlapping pedestrians; quantized confidences."""
    images = []
    width, height = 1920, 1080
    for i in range(p["images"]):
        img = Image(f"crowd{i:04d}", width, height)
        centres = [(rng.uniform(300, 1620), rng.uniform(200, 880)) for _ in range(2)]
        for _ in range(p["gts"]):
            cx, cy = centres[rng.randrange(2)]
            w, h = rng.randint(24, 40), rng.randint(56, 90)
            x0 = int(min(max(rng.gauss(cx, 45), 0), width - w))
            y0 = int(min(max(rng.gauss(cy, 30), 0), height - h))
            cls = rng.choices((0, 1), (65, 35))[0]
            img.gts.append((cls, (float(x0), float(y0), float(x0 + w), float(y0 + h))))
        for cx, cy in centres[: p["ignores"]]:
            w, h = rng.randint(180, 320), rng.randint(120, 220)
            x0 = int(min(max(cx - w / 2, 0), width - w))
            y0 = int(min(max(cy - h / 2, 0), height - h))
            img.ignores.append((float(x0), float(y0), float(x0 + w), float(y0 + h)))

        def quantized():
            return f"{round(rng.uniform(0.05, 1.0) * 20) / 20:.2f}"

        def jitter(box, s):
            w, h = box[2] - box[0], box[3] - box[1]
            x0 = min(max(box[0] + rng.gauss(0, s) * w, 0.0), width - 2.0)
            y0 = min(max(box[1] + rng.gauss(0, s) * h, 0.0), height - 2.0)
            x1 = min(max(box[2] + rng.gauss(0, s) * w, x0 + 2.0), float(width))
            y1 = min(max(box[3] + rng.gauss(0, s) * h, y0 + 2.0), float(height))
            return (x0, y0, x1, y1)

        for cls, box in img.gts:
            for _ in range(rng.choices((0, 1, 2), (15, 60, 25))[0]):
                label = cls if rng.random() < 0.85 else 1 - cls
                img.dets.append(Detection(label, quantized(), jitter(box, 0.12), FREE))
        for region in img.ignores:
            for _ in range(4):
                img.dets.append(Detection(rng.randrange(2), quantized(), jitter(region, 0.08), FREE))
        while len(img.dets) < p["dets"]:
            cls, box = img.gts[rng.randrange(len(img.gts))]
            img.dets.append(Detection(rng.randrange(4), quantized(), jitter(box, 0.5), FREE))
        rng.shuffle(img.dets)
        images.append(img)
    return images


def _write_visdrone_source(root: Path, images: list[Image]) -> None:
    (root / "images").mkdir(parents=True)
    (root / "annotations").mkdir()
    for img in images:
        (root / "images" / f"{img.image_id}.jpg").write_bytes(b"")
        lines = []
        objects = [(DEFAULT_SOURCE_CATEGORY[c], b) for c, b in img.gts]
        objects += img.dropped
        objects += [(0, b) for b in img.ignores]
        for category, (x0, y0, x1, y1) in objects:
            score = 0 if category == 0 else 1
            lines.append(f"{int(x0)},{int(y0)},{int(x1 - x0)},{int(y1 - y0)},{score},{category},0,0\n")
        (root / "annotations" / f"{img.image_id}.txt").write_text("".join(lines), encoding="utf-8")


def _write_yolo_source(root: Path, images: list[Image]) -> None:
    """YOLO label files, whose 6-decimal rounding then defines the source boxes."""
    label_dir = root / "labels" / "val"
    label_dir.mkdir(parents=True)
    for img in images:
        lines = [f"{c} {norm_fields(b, img.width, img.height)}" for c, b in img.gts]
        lines += [f"{c} {norm_fields(b, img.width, img.height)}" for c, b in img.dropped]
        (label_dir / f"{img.image_id}.txt").write_text("".join(x + "\n" for x in lines), encoding="utf-8")
        img.gts = [(c, denorm_fields(line.split()[1:], img.width, img.height)) for (c, _), line in zip(img.gts, lines)]
        if img.ignores:
            fields = [norm_fields(b, img.width, img.height) for b in img.ignores]
            (label_dir / f"{img.image_id}.ignore").write_text("".join(f + "\n" for f in fields), encoding="utf-8")
            img.ignores = [denorm_fields(f.split(), img.width, img.height) for f in fields]


def generate(name: str, seed: int, root: str | Path, smoke: bool = False) -> Workload:
    """Write workload ``name`` for ``seed`` under ``root`` and return its plan.

    ``smoke`` keeps every per-image parameter and cuts the image count.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    p = dict(PARAMS[name], images=SMOKE_IMAGES[name]) if smoke else PARAMS[name]
    rng = random.Random(f"{name}:{seed}:{'smoke' if smoke else 'full'}")
    root = Path(root)
    source = root / "source"
    detections = root / "detections"
    detections.mkdir(parents=True)
    if name == "visdrone-val":
        images = _gen_visdrone(rng, p)
        _write_visdrone_source(source, images)
        names, args, planted = DEFAULT_NAMES, ["--split", "val"], True
    elif name == "caltech-frames":
        images = _gen_caltech(rng, p)
        _write_yolo_source(source, images)
        classmap = root / "classmap.yaml"
        classmap.write_text(CALTECH_CLASSMAP, encoding="utf-8")
        names = CALTECH_NAMES
        args = ["--split", "val", "--classmap", str(classmap), "--workers", "2"]
        planted = True
    else:
        images = _gen_crowd(rng, p)
        _write_visdrone_source(source, images)
        names, args, planted = DEFAULT_NAMES, ["--split", "val"], False
    (source / "dimensions.txt").write_text(
        "".join(f"{img.image_id} {img.width} {img.height}\n" for img in images), encoding="utf-8"
    )
    for img in images:
        (detections / f"{img.image_id}.txt").write_text(
            "".join(
                f"{d.class_id} {d.conf} {norm_fields(d.box, img.width, img.height)}\n" for d in img.dets
            ),
            encoding="utf-8",
        )
    return Workload(name, seed, names, images, source, detections, args, planted)
