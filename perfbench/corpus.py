"""Seeded generators for the benchmark's input corpora.

Every artifact is drawn from its own ``numpy.random.Generator`` keyed by
``(seed, stream)``, so the same seed always yields byte-identical files
and adding an artifact never shifts the others.  The files are written
with the benchmark's own PFM/PGM/JSON writers: the program under test
only ever reads them.

- ``write_scenes``: 480x640 room scenes (floor, ceiling, walls, boxes on
  the floor) ray-cast through a pitched pinhole camera, with depth-
  dependent sensor noise, about 5% elliptic holes and an invalid border
  band.
- ``write_box_labels``: ground-truth boxes over those scenes for
  ``analyze``.
- ``write_detection_corpus``: an 80-class ground-truth set in all three
  COCO size buckets plus two differently jittered detection runs with
  class confusion.
"""
from __future__ import annotations

import json
import os

import numpy as np

HEIGHT, WIDTH = 480, 640
CAMERA = {"fx": 525.0, "fy": 525.0, "cx": 319.5, "cy": 239.5, "baseline": 0.075}

HOLES, BORDER = 60, 12

# one stream id per artifact kind; the item index is appended
_SCENE, _LABELS, _GTS, _DETS_A, _DETS_B = range(5)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def render_scene(seed: int, index: int) -> np.ndarray:
    """Depth in meters, float32 ``(480, 640)``; NaN marks a missing reading."""
    rng = _rng(seed, _SCENE, index)
    cam_h = rng.uniform(1.0, 1.6)
    pitch = np.deg2rad(rng.uniform(5.0, 20.0))
    half_w = rng.uniform(1.5, 3.0)
    offset = rng.uniform(-0.5, 0.5)
    back = rng.uniform(4.0, 8.0)
    ceiling = cam_h - rng.uniform(2.4, 3.0)

    # rays in the camera frame (x right, y down, z forward, unit z), then
    # into a level world frame by the downward pitch about x
    u = (np.arange(WIDTH) - CAMERA["cx"]) / CAMERA["fx"]
    v = (np.arange(HEIGHT) - CAMERA["cy"]) / CAMERA["fy"]
    dx = np.broadcast_to(u[None, :], (HEIGHT, WIDTH))
    dy_c = np.broadcast_to(v[:, None], (HEIGHT, WIDTH))
    c, s = np.cos(pitch), np.sin(pitch)
    dy = c * dy_c + s
    dz = -s * dy_c + c
    # t is the ray parameter; since the camera-frame z of each ray is 1,
    # the depth reading of a hit is exactly t
    t = np.full((HEIGHT, WIDTH), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for plane, d in ((cam_h, dy), (ceiling, dy), (back, dz),
                         (offset - half_w, dx), (offset + half_w, dx)):
            hit = plane / d
            t = np.where((hit > 0) & (hit < t), hit, t)
        for _ in range(rng.integers(3, 7)):
            bw, bh, bd = rng.uniform(0.3, 1.2, size=3)
            x0 = rng.uniform(offset - half_w, offset + half_w - bw)
            z0 = rng.uniform(1.2, back - bd)
            lo = np.array([x0, cam_h - bh, z0])
            hi = lo + np.array([bw, bh, bd])
            near = np.full((HEIGHT, WIDTH), -np.inf)
            far = np.full((HEIGHT, WIDTH), np.inf)
            for axis, d in enumerate((dx, dy, dz)):
                t1, t2 = lo[axis] / d, hi[axis] / d
                near = np.maximum(near, np.fmin(t1, t2))
                far = np.minimum(far, np.fmax(t1, t2))
            hit = (far >= near) & (near > 0) & (near < t)
            t = np.where(hit, near, t)
    depth = t + rng.normal(0.0, 1.0, size=t.shape) * 0.0015 * t * t

    # a fixed number of elliptic holes (about 5% of the image) and a fixed
    # border band, so that every scene costs the normals kernel about the
    # same: its slow path runs on pixels near invalid ones
    holes = np.zeros((HEIGHT, WIDTH), dtype=bool)
    for _ in range(HOLES):
        ci, cj = rng.integers(0, HEIGHT), rng.integers(0, WIDTH)
        ri, rj = rng.uniform(4.0, 12.0, size=2)
        i0, i1 = max(ci - int(ri), 0), min(ci + int(ri) + 1, HEIGHT)
        j0, j1 = max(cj - int(rj), 0), min(cj + int(rj) + 1, WIDTH)
        rows, cols = np.ogrid[i0:i1, j0:j1]
        holes[i0:i1, j0:j1] |= ((rows - ci) / ri) ** 2 + ((cols - cj) / rj) ** 2 <= 1.0
    holes[:, :BORDER] = True
    holes[:4, :] = True
    depth[holes | ~np.isfinite(depth)] = np.nan
    return depth.astype(np.float32)


def write_pfm(path: str, depth: np.ndarray) -> None:
    """Grayscale little-endian PFM, rows stored bottom-up."""
    h, w = depth.shape
    with open(path, "wb") as fh:
        fh.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        fh.write(np.ascontiguousarray(depth[::-1], dtype="<f4").tobytes())


def write_pgm16(path: str, depth: np.ndarray) -> None:
    """16-bit PGM in millimeters; 0 marks a missing reading."""
    mm = np.where(np.isfinite(depth), np.rint(depth * 1000.0), 0.0)
    mm = np.clip(mm, 0, 65535).astype(">u2")
    h, w = depth.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(mm.tobytes())


def _write_json(path: str, value) -> None:
    with open(path, "w") as fh:
        json.dump(value, fh, indent=1)
        fh.write("\n")


def _write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_camera(path: str) -> None:
    _write_json(path, CAMERA)


def write_scenes(directory: str, seed: int, count: int, pgm_every: int = 0) -> list[str]:
    """Write ``count`` scenes as ``scene_NNN.pfm``; with ``pgm_every=n``,
    every n-th scene is a 16-bit PGM instead.  Returns the paths."""
    paths = []
    for i in range(count):
        depth = render_scene(seed, i)
        if pgm_every and i % pgm_every == pgm_every - 1:
            path = os.path.join(directory, f"scene_{i:03d}.pgm")
            write_pgm16(path, depth)
        else:
            path = os.path.join(directory, f"scene_{i:03d}.pfm")
            write_pfm(path, depth)
        paths.append(path)
    return paths


def _random_box(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, ...]:
    """A box whose sides are log-uniform in [lo, hi], inside the image."""
    w, h = np.exp(rng.uniform(np.log(lo), np.log(hi), size=2))
    w, h = min(w, WIDTH - 1.0), min(h, HEIGHT - 1.0)
    x1 = rng.uniform(0.0, WIDTH - w)
    y1 = rng.uniform(0.0, HEIGHT - h)
    return x1, y1, x1 + w, y1 + h


def _box_fields(box) -> dict:
    return {k: round(float(v), 2) for k, v in zip(("x1", "y1", "x2", "y2"), box)}


def class_names(n: int) -> list[str]:
    return [f"class_{i:02d}" for i in range(n)]


def write_box_labels(path: str, seed: int, image_ids: list[str], per_image: int,
                     n_classes: int) -> None:
    """Ground-truth boxes over the scenes for ``analyze``."""
    records = []
    for i, image_id in enumerate(image_ids):
        rng = _rng(seed, _LABELS, i)
        for _ in range(per_image):
            rec = {"image_id": image_id, "class": int(rng.integers(0, n_classes))}
            rec.update(_box_fields(_random_box(rng, 12.0, 320.0)))
            records.append(rec)
    _write_jsonl(path, records)


# side ranges of the three COCO size buckets (area < 32^2, <= 96^2, > 96^2)
_BUCKET_SIDES = ((8.0, 30.0), (34.0, 90.0), (100.0, 320.0))
GTS_PER_IMAGE = 8


def _jittered(rng: np.random.Generator, box, sigma: float) -> tuple[float, ...]:
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    dx1, dx2 = rng.normal(0.0, sigma * w, size=2)
    dy1, dy2 = rng.normal(0.0, sigma * h, size=2)
    nx1 = min(max(x1 + dx1, 0.0), WIDTH - 2.0)
    ny1 = min(max(y1 + dy1, 0.0), HEIGHT - 2.0)
    nx2 = min(max(x2 + dx2, nx1 + 1.0), WIDTH)
    ny2 = min(max(y2 + dy2, ny1 + 1.0), HEIGHT)
    return nx1, ny1, nx2, ny2


def _detections(gts: list[dict], images: list[str], seed: int, stream: int,
                n_classes: int, sigma: float) -> list[dict]:
    """About three jittered detections per box, 20% with a confused class,
    plus two low-score false positives per image."""
    rng = _rng(seed, stream)
    out = []
    for gt in gts:
        box = (gt["x1"], gt["y1"], gt["x2"], gt["y2"])
        for _ in range(3):
            cls = gt["class"]
            if rng.random() < 0.2:
                cls = int((cls + rng.integers(1, n_classes)) % n_classes)
            rec = {"image_id": gt["image_id"], "class": cls,
                   "score": round(float(rng.uniform(0.05, 1.0)), 4)}
            rec.update(_box_fields(_jittered(rng, box, sigma)))
            out.append(rec)
    for image_id in images:
        for _ in range(2):
            rec = {"image_id": image_id, "class": int(rng.integers(0, n_classes)),
                   "score": round(float(rng.uniform(0.05, 0.6)), 4)}
            rec.update(_box_fields(_random_box(rng, 8.0, 200.0)))
            out.append(rec)
    return out


def write_detection_corpus(directory: str, seed: int, n_images: int,
                           n_classes: int) -> dict[str, int]:
    """Write ``classes.json``, ``gts.jsonl``, ``dets_a.jsonl`` and
    ``dets_b.jsonl`` (run B is jittered less).  Returns record counts."""
    rng = _rng(seed, _GTS)
    images = [f"img_{i:04d}" for i in range(n_images)]
    # every image holds GTS_PER_IMAGE boxes, every class the same number
    # of them (up to one), so the scoring cost barely depends on the seed
    total = n_images * GTS_PER_IMAGE
    classes = rng.permutation(np.arange(total) % n_classes)
    gts = []
    for k in range(total):
        lo, hi = _BUCKET_SIDES[k % 3]
        rec = {"image_id": images[k // GTS_PER_IMAGE], "class": int(classes[k])}
        rec.update(_box_fields(_random_box(rng, lo, hi)))
        if rng.random() < 0.03:
            rec["difficult"] = True
        gts.append(rec)
    dets_a = _detections(gts, images, seed, _DETS_A, n_classes, sigma=0.08)
    dets_b = _detections(gts, images, seed, _DETS_B, n_classes, sigma=0.05)
    _write_json(os.path.join(directory, "classes.json"), class_names(n_classes))
    _write_jsonl(os.path.join(directory, "gts.jsonl"), gts)
    _write_jsonl(os.path.join(directory, "dets_a.jsonl"), dets_a)
    _write_jsonl(os.path.join(directory, "dets_b.jsonl"), dets_b)
    return {"gts": len(gts), "dets_a": len(dets_a), "dets_b": len(dets_b)}
