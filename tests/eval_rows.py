"""Detections and ground truth as rows, for the brute-force oracles, and
their column records as the loaders build them."""
from typing import NamedTuple

from depthkit import evaluation


class Box(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


class Det(NamedTuple):
    image_id: str
    class_id: int
    score: float
    box: Box


class Gt(NamedTuple):
    image_id: str
    class_id: int
    box: Box
    difficult: bool = False


def det_record(rows) -> evaluation.DetRecord:
    return evaluation.DetRecord([r.image_id for r in rows], [r.class_id for r in rows],
                                [r.score for r in rows], [r.box for r in rows])


def gt_record(rows) -> evaluation.GtRecord:
    return evaluation.GtRecord([r.image_id for r in rows], [r.class_id for r in rows],
                               [r.box for r in rows], [r.difficult for r in rows])
