"""The floor-and-wall room the geometry, encode and CLI tests share, its
dropout holes and the intrinsics file of its camera."""
import json

import numpy as np


def floor_wall(h=60, w=80, cam_height=1.2, wall_z=6.0, fy=100.0, cy=29.5):
    """Depth in meters of a horizontal floor ``cam_height`` below the camera
    meeting a frontal wall ``wall_z`` away, and the floor's mask; by
    default the 60x80 room of a camera of focal length 100 centred on it."""
    ys = np.repeat((np.arange(h)[:, None] - cy) / fy, w, axis=1)
    values = np.full((h, w), wall_z)
    floor = ys > cam_height / wall_z
    values[floor] = cam_height / ys[floor]
    return values, floor


def dropout(values, rng, patches, span, size, frac=0.0):
    """Zero ``patches`` patches of ``size`` whose top-left corners ``rng``
    draws in ``span``, then each pixel with chance ``frac``; in place."""
    for r, c in rng.integers(*span, (patches, 2)):
        values[r:r + size[0], c:c + size[1]] = 0.0
    values[rng.random(values.shape) < frac] = 0.0
    return values


def write_cam(path, h, w, f):
    """Write the intrinsics JSON of a camera of focal length ``f`` centred
    on an ``h`` x ``w`` map; returns the path as text."""
    cam = {"fx": f, "fy": f, "cx": (w - 1) / 2, "cy": (h - 1) / 2, "baseline": 0.075}
    with open(path, "w") as fh:
        json.dump(cam, fh)
    return str(path)
