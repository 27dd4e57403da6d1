"""Correctness checks for the benchmark, written apart from vrueval.

Nothing here imports the package under test. Expected figures come from
what the generator planted, or, where boxes overlap on purpose, from a
reference greedy matcher written from the protocol in the matching
module's docstring:

  detections are processed in descending confidence, ties by input order;
  each claims the unmatched ground truth with the highest IoU at or above
  the threshold (IoU ties to the lowest index); a detection that claims
  nothing but overlaps an ignore region at or above the threshold is
  suppressed; the rest are false positives, unmatched ground truths are
  false negatives.

Point metrics (P/R/F1) match only the detections at or above the
confidence cut, image by image, from scratch; AP sweeps every detection of
a class in dataset-wide rank order with all-point interpolation. Each
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import HIT, IGNORE_HIT, Workload, box_iou, denorm_fields

IOU_THRESH = 0.5
CONF_THRESH = 0.2
FLOAT_TOL = 1.5e-6  # reported values carry 6 decimals


def _rank(dets):
    """Indices of ``dets`` ((conf, ...) tuples) by descending confidence, ties by position."""
    return sorted(range(len(dets)), key=lambda i: (-dets[i][0], i))


def match_image(scorable, ignores, dets, thresh=IOU_THRESH):
    """Fates ('tp' / 'fp' / 'ign') of one image's detections of one class.

    ``dets`` are (confidence, box) in input order; fates come back in that order.
    """
    taken = [False] * len(scorable)
    fates = [None] * len(dets)
    for i in _rank(dets):
        box = dets[i][1]
        best, best_j = 0.0, -1
        for j, gt in enumerate(scorable):
            if not taken[j]:
                overlap = box_iou(box, gt)
                if overlap > best:
                    best, best_j = overlap, j
        if best_j >= 0 and best >= thresh:
            taken[best_j] = True
            fates[i] = "tp"
        elif any(box_iou(box, g) >= thresh for g in ignores):
            fates[i] = "ign"
        else:
            fates[i] = "fp"
    return fates


def average_precision(ranked_fates, n_pos):
    """All-point interpolated AP of fates in rank order; None without positives."""
    if n_pos == 0:
        return None
    points = []
    tp = fp = 0
    for fate in ranked_fates:
        if fate == "ign":
            continue
        if fate == "tp":
            tp += 1
        else:
            fp += 1
        points.append((tp / n_pos, tp / (tp + fp)))
    ap = 0.0
    prev_r = 0.0
    best_p = [0.0] * (len(points) + 1)
    for i in range(len(points) - 1, -1, -1):
        best_p[i] = max(best_p[i + 1], points[i][1])
    for i, (r, _) in enumerate(points):
        if r > prev_r:
            ap += (r - prev_r) * best_p[i]
            prev_r = r
    return ap


def _row(class_id, name, images, tp, fp, fn, ap):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return {
        "class_id": class_id,
        "name": name,
        "images": images,
        "instances": tp + fn,
        "precision": p,
        "recall": r,
        "f1": f,
        "ap50": ap,
    }


def _report(class_names, total_images, per_class):
    """Report dict from per-class (images, tp, fp, fn, ap) tuples."""
    rows = [_row(c, class_names[c], *per_class[c]) for c in range(len(class_names))]
    tp = sum(pc[1] for pc in per_class)
    fp = sum(pc[2] for pc in per_class)
    fn = sum(pc[3] for pc in per_class)
    aps = [pc[4] for pc in per_class if pc[4] is not None]
    all_row = _row(None, "all", total_images, tp, fp, fn, sum(aps) / len(aps))
    return {
        "config": {"iou_thresh": IOU_THRESH, "conf_thresh": CONF_THRESH},
        "classes": rows,
        "all": all_row,
        "warnings": [
            f"class {class_names[c]!r} has no ground-truth instances; excluded from mAP"
            for c in range(len(class_names))
            if per_class[c][4] is None
        ],
    }


def _sorted_images(workload: Workload):
    return sorted(workload.images, key=lambda img: img.image_id)


def planted_report(workload: Workload) -> dict:
    """Expected eval report from the planted detection roles alone.

    A ground truth is claimed by the first-ranked hit on it; later hits on
    it are duplicates (false positives); hits on ignore regions are
    suppressed; every other role is a false positive.
    """
    names = workload.class_names
    per_class = []
    for c in range(len(names)):
        ranked = []  # (conf, global position, fate)
        n_pos = images = 0
        tp_cut = fp_cut = 0
        for img in _sorted_images(workload):
            n_img = sum(1 for cls, _ in img.gts if cls == c)
            n_pos += n_img
            images += n_img > 0
            class_dets = [(float(d.conf), d) for d in img.dets if d.class_id == c]
            fates = [None] * len(class_dets)
            claimed = set()
            for i in _rank(class_dets):
                d = class_dets[i][1]
                if d.role == HIT and d.target not in claimed:
                    claimed.add(d.target)
                    fates[i] = "tp"
                else:
                    fates[i] = "ign" if d.role == IGNORE_HIT else "fp"
            for (conf, _), fate in zip(class_dets, fates):
                # the first-ranked hit on a ground truth has the highest
                # confidence of its hits, so the cut keeps a claim or none
                if conf >= CONF_THRESH:
                    tp_cut += fate == "tp"
                    fp_cut += fate == "fp"
                ranked.append((conf, len(ranked), fate))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        ap = average_precision([t[2] for t in ranked], n_pos)
        per_class.append((images, tp_cut, fp_cut, n_pos - tp_cut, ap))
    return _report(names, len(workload.images), per_class)


def _read_boxes(path: Path, width: int, height: int, with_class: bool):
    if not path.is_file():
        return []
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if with_class:
            out.append((int(parts[0]), denorm_fields(parts[1:], width, height)))
        else:
            out.append(denorm_fields(parts, width, height))
    return out


def reference_report(workload: Workload, converted: Path) -> dict:
    """Expected eval report from the reference matcher.

    Ground truth is read from the converted dataset (checked on its own by
    ``check_convert``) and detections from the detection files, so the
    matcher sees exactly the boxes the program sees.
    """
    names = workload.class_names
    split_dir = converted / "labels" / "val"
    per_image = []
    for img in _sorted_images(workload):
        gts = _read_boxes(split_dir / f"{img.image_id}.txt", img.width, img.height, True)
        ignores = _read_boxes(split_dir / f"{img.image_id}.ignore", img.width, img.height, False)
        dets = []
        for line in (workload.detections / f"{img.image_id}.txt").read_text(encoding="utf-8").splitlines():
            parts = line.split()
            dets.append((int(parts[0]), float(parts[1]), denorm_fields(parts[2:], img.width, img.height)))
        per_image.append((gts, ignores, dets))
    per_class = []
    for c in range(len(names)):
        ranked = []
        n_pos = images = tp_cut = fp_cut = 0
        for gts, ignores, dets in per_image:
            scorable = [b for cls, b in gts if cls == c]
            n_pos += len(scorable)
            images += bool(scorable)
            class_dets = [(conf, box) for cls, conf, box in dets if cls == c]
            for (conf, _), fate in zip(class_dets, match_image(scorable, ignores, class_dets)):
                ranked.append((conf, len(ranked), fate))
            cut = [d for d in class_dets if d[0] >= CONF_THRESH]
            fates = match_image(scorable, ignores, cut)
            tp_cut += fates.count("tp")
            fp_cut += fates.count("fp")
        ranked.sort(key=lambda t: (-t[0], t[1]))
        ap = average_precision([t[2] for t in ranked], n_pos)
        per_class.append((images, tp_cut, fp_cut, n_pos - tp_cut, ap))
    return _report(names, len(workload.images), per_class)


def expected_report(workload: Workload, converted: Path) -> dict:
    if workload.planted:
        return planted_report(workload)
    return reference_report(workload, converted)


def _diff(path, got, want, problems):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}")
            return
        for key in want:
            _diff(f"{path}.{key}", got[key], want[key], problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, problems)
    elif isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - want) > FLOAT_TOL:
            problems.append(f"{path}: {got!r} != {want!r}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{path}: {got!r} != {want!r}")


def check_eval(stdout: str, expected: dict) -> list[str]:
    """Compare a ``--format structured eval`` output with the expected report."""
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"eval output is not JSON: {exc}"]
    problems: list[str] = []
    _diff("report", got, expected, problems)
    return problems[:10]


def expected_stats(workload: Workload) -> list[tuple[str, int, int]]:
    """(class, images, instances) rows plus the ``all`` row, from the plan."""
    rows = []
    for c, name in enumerate(workload.class_names):
        counts = [sum(1 for cls, _ in img.gts if cls == c) for img in workload.images]
        rows.append((name, sum(1 for n in counts if n), sum(counts)))
    rows.append(("all", len(workload.images), sum(len(img.gts) for img in workload.images)))
    return rows


def check_stats(stdout: str, workload: Workload) -> list[str]:
    """Compare an aligned ``stats`` table with the generator's counts."""
    lines = stdout.splitlines()
    if len(lines) < 2 or lines[0].split() != ["Class", "Images", "Instances"]:
        return [f"unexpected stats header: {lines[:1]!r}"]
    got = []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 3 or not parts[1].isdigit() or not parts[2].isdigit():
            return [f"unexpected stats row: {line!r}"]
        got.append((parts[0], int(parts[1]), int(parts[2])))
    want = expected_stats(workload)
    return [] if got == want else [f"stats rows {got} != {want}"]


def _close(a, b, tol):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def check_convert(out: Path, workload: Workload) -> list[str]:
    """Round-trip check of a ``convert`` output directory.

    Every label line must denormalize to its planted source box within the
    6-decimal rounding of the normalized fields, ``.ignore`` sidecars must
    exist exactly for the images with ignore regions (and hold them), and
    the manifest must list every image with its dimensions.
    """
    problems: list[str] = []
    split_dir = out / "labels" / "val"
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"manifest unreadable: {exc}"]
    images = _sorted_images(workload)
    want_entries = [
        {"image_id": img.image_id, "width": img.width, "height": img.height,
         "label_path": f"labels/val/{img.image_id}.txt"}
        for img in images
    ]
    if manifest.get("images") != want_entries or manifest.get("split") != "val":
        problems.append("manifest images or split differ from the workload")
    if manifest.get("class_names") != list(workload.class_names):
        problems.append(f"manifest class names {manifest.get('class_names')}")
    names = {p.name for p in split_dir.iterdir()} if split_dir.is_dir() else set()
    want_names = {f"{img.image_id}.txt" for img in images}
    want_names |= {f"{img.image_id}.ignore" for img in images if img.ignores}
    if names != want_names:
        extra, missing = sorted(names - want_names), sorted(want_names - names)
        problems.append(f"label files: unexpected {extra[:5]}, missing {missing[:5]}")
        return problems
    for img in images:
        tol = 1e-6 * max(img.width, img.height) + 1e-9
        got = _read_boxes(split_dir / f"{img.image_id}.txt", img.width, img.height, True)
        if len(got) != len(img.gts) or any(
            gc != wc or not _close(gb, wb, tol) for (gc, gb), (wc, wb) in zip(got, img.gts)
        ):
            problems.append(f"{img.image_id}.txt does not round-trip to its source boxes")
        got_ign = _read_boxes(split_dir / f"{img.image_id}.ignore", img.width, img.height, False)
        if len(got_ign) != len(img.ignores) or not all(
            _close(g, w, tol) for g, w in zip(got_ign, img.ignores)
        ):
            problems.append(f"{img.image_id}.ignore does not round-trip to its ignore regions")
        if len(problems) >= 10:
            break
    return problems
