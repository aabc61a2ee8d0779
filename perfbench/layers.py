"""The program's layers as the benchmark sees them: which functions the
tracer wraps in each module, and how one pass's spans become the
per-layer metrics named in ``BENCHMARK.json``.

Binding notes, each of which decides where a wrapper has to go:

- ``depthkit.cli`` imports the arch functions by name, so they are
  patched on ``depthkit.cli``, not on ``depthkit.arch``.
- ``hdha_encode`` reaches normals through
  ``depthkit._kernels.normals_from_points``; it is patched there.
- ``Lcg.draws`` and the table writers are methods, patched on the class.
- ``evaluation.iou`` runs ~10^5 times a pass: it is counted, not timed.
"""
from __future__ import annotations

import os
from statistics import median

from tracer import Span, Target, covered, self_times

MIB = float(1 << 20)
# bytes the executor holds per drawn value: the uint64 state plus the float64
DRAW_BYTES = 16
BACKBONES = ("vgg16", "resnet101")


def _file_size(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _path(args, kwargs, result) -> str:
    return args[0]


def _length(args, kwargs, result) -> int:
    return len(result)


def _normals_info(args, kwargs, result) -> tuple[int, int, int]:
    valid = args[1]
    return int(valid.size), int(valid.sum()), int(result[1].sum())


def _gravity_info(args, kwargs, result) -> tuple[int, bool]:
    return result.iterations, result.converged


def _draw_count(args, kwargs, result) -> int:
    return int(args[1])


def targets() -> list[Target]:
    """Every attribute the tracer replaces.  Imports depthkit."""
    from depthkit import _kernels, analysis, cli, encoding, evaluation, geometry, netpbm
    from depthkit.arch import Lcg, ParamReport

    t = [Target(cli, "main", "cli.main"),
         Target(cli, "_encode_one", "cli.encode_one")]
    t += [Target(netpbm, f, f"netpbm.{f}", _file_size)
          for f in ("read_pfm", "read_pgm", "read_ppm",
                    "write_pfm", "write_pgm8", "write_pgm16", "write_ppm8")]
    t.append(Target(netpbm, "sniff_magic", "netpbm.sniff_magic"))
    t.append(Target(encoding, "load_depth", "encoding.load_depth", _path))
    t += [Target(encoding, f, f"encoding.{f}")
          for f in ("grayscale_encode", "jet_encode", "hdha_to_rgb",
                    "compute_channel_stats")]
    t += [Target(geometry, "hdha_encode", "geometry.hdha_encode"),
          Target(geometry, "backproject_grid", "geometry.backproject_grid"),
          Target(geometry, "estimate_gravity", "geometry.estimate_gravity", _gravity_info),
          Target(_kernels, "normals_from_points", "geometry.normals", _normals_info)]
    t += [Target(evaluation, "load_detections", "evaluation.load_detections", _length),
          Target(evaluation, "load_groundtruth", "evaluation.load_groundtruth", _length),
          Target(evaluation, "load_classes", "evaluation.load_classes")]
    t += [Target(evaluation, f, f"evaluation.{f}")
          for f in ("coco_ap", "mean_ap", "confusion_matrix", "confusion_diff",
                    "ap_csv", "coco_csv")]
    t += [Target(evaluation.ConfusionMatrix, "to_csv", "evaluation.ConfusionMatrix.to_csv"),
          Target(evaluation.ConfusionDiff, "to_csv", "evaluation.ConfusionDiff.to_csv"),
          Target(evaluation, "iou", "evaluation.iou", count_only=True)]
    t += [Target(analysis, "collect_samples", "analysis.collect_samples", _length)]
    t += [Target(analysis, f, f"analysis.{f}")
          for f in ("build_heatmap", "heatmap_to_pgm_bytes", "samples_csv", "heatmap_csv")]
    t += [Target(cli, f, f"arch.{f}")
          for f in ("build_architecture", "propagate_shapes", "count_parameters",
                    "to_dot", "shape_csv", "execute_forward")]
    t += [Target(ParamReport, "to_csv", "arch.ParamReport.to_csv"),
          Target(Lcg, "draws", "arch.Lcg.draws", _draw_count)]
    return t


# (metric, unit, better) for every per-layer metric, in report order
_FIXED = [
    ("cli.self_s", "s", "lower"),
    ("cli.encode_overlap", "ratio", "higher"),
    ("netpbm.read_s", "s", "lower"),
    ("netpbm.read_mib", "MiB", "lower"),
    ("netpbm.write_s", "s", "lower"),
    ("netpbm.write_mib", "MiB", "lower"),
    ("encoding.load_depth_s", "s", "lower"),
    ("encoding.gray_s", "s", "lower"),
    ("encoding.jet_s", "s", "lower"),
    ("encoding.hdha_to_rgb_s", "s", "lower"),
    ("encoding.channel_stats_s", "s", "lower"),
    ("geometry.backproject_s", "s", "lower"),
    ("geometry.normals_s", "s", "lower"),
    ("geometry.normals_calls", "count", "lower"),
    ("geometry.normals_mpx_per_s", "Mpx/s", "higher"),
    ("geometry.normals_recovered_frac", "ratio", "higher"),
    ("geometry.gravity_s", "s", "lower"),
    ("geometry.gravity_iters", "count", "lower"),
    ("geometry.gravity_converged_frac", "ratio", "higher"),
    ("geometry.hdha_self_s", "s", "lower"),
    ("geometry.hdha_calls_per_map", "ratio", "lower"),
    ("evaluation.parse_s", "s", "lower"),
    ("evaluation.records", "count", "higher"),
    ("evaluation.coco_s", "s", "lower"),
    ("evaluation.voc_s", "s", "lower"),
    ("evaluation.confusion_s", "s", "lower"),
    ("evaluation.iou_calls", "count", "lower"),
    ("evaluation.csv_s", "s", "lower"),
    ("analysis.collect_s", "s", "lower"),
    ("analysis.samples", "count", "higher"),
    ("analysis.heatmap_s", "s", "lower"),
    ("analysis.csv_s", "s", "lower"),
]
_PER_BACKBONE = [
    ("arch.build_s", "s", "lower"),
    ("arch.export_s", "s", "lower"),
    ("arch.draws_s", "s", "lower"),
    ("arch.draw_values", "count", "lower"),
    ("arch.draw_peak_mib_computed", "MiB", "lower"),
    ("arch.execute_self_s", "s", "lower"),
]
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")

METRICS = _FIXED + [(f"{name}.{b}", unit, better)
                    for name, unit, better in _PER_BACKBONE for b in BACKBONES] + [OVERHEAD]

_READS = {"netpbm.read_pfm", "netpbm.read_pgm", "netpbm.read_ppm", "netpbm.sniff_magic"}
_WRITES = {"netpbm.write_pfm", "netpbm.write_pgm8", "netpbm.write_pgm16", "netpbm.write_ppm8"}
_PARSE = {"evaluation.load_detections", "evaluation.load_groundtruth", "evaluation.load_classes"}
_CSV = {"evaluation.ap_csv", "evaluation.coco_csv", "evaluation.ConfusionMatrix.to_csv",
        "evaluation.ConfusionDiff.to_csv"}
_BUILD = {"arch.build_architecture", "arch.propagate_shapes", "arch.count_parameters"}
_EXPORT = {"arch.to_dot", "arch.shape_csv", "arch.ParamReport.to_csv"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span], iou_calls: int,
                 wall: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans`` are that pass's spans and ``wall`` its (start, end).  Layers
    a pass never enters read 0.
    """
    own = self_times(spans)

    def select(names, tag=None) -> list[Span]:
        # tag matches the invocation label, e.g. "vgg16" for "arch:vgg16"
        return [s for s in spans
                if s.name in names and (tag is None or s.tag.endswith(":" + tag))]

    def total(names, tag=None) -> float:
        return sum(s.duration for s in select(names, tag))

    def self_total(name, tag=None) -> float:
        return sum(own[s.index] for s in select({name}, tag))

    def infos(names, tag=None) -> list:
        # a call that raised recorded no info
        return [s.info for s in select(names, tag) if s.info is not None]

    by_index = {s.index: s for s in spans}
    top = [s for s in spans if not s.name.startswith("cli.")
           and (s.parent not in by_index or by_index[s.parent].name.startswith("cli."))]
    encode_wall = sum(s.duration for s in select({"cli.main"}) if s.tag.startswith("encode:"))
    normals = infos({"geometry.normals"})
    normals_s = total({"geometry.normals"})
    gravity = infos({"geometry.estimate_gravity"})
    hdha_maps = set(infos({"encoding.load_depth"}, "hdha"))

    m = {
        "cli.self_s": (wall[1] - wall[0]) - covered(top, *wall),
        "cli.encode_overlap": _ratio(total({"cli.encode_one"}), encode_wall),
        "netpbm.read_s": total(_READS),
        "netpbm.read_mib": sum(infos(_READS)) / MIB,
        "netpbm.write_s": total(_WRITES),
        "netpbm.write_mib": sum(infos(_WRITES)) / MIB,
        "encoding.load_depth_s": self_total("encoding.load_depth"),
        "encoding.gray_s": total({"encoding.grayscale_encode"}),
        "encoding.jet_s": total({"encoding.jet_encode"}),
        "encoding.hdha_to_rgb_s": total({"encoding.hdha_to_rgb"}),
        "encoding.channel_stats_s": total({"encoding.compute_channel_stats"}),
        "geometry.backproject_s": total({"geometry.backproject_grid"}),
        "geometry.normals_s": normals_s,
        "geometry.normals_calls": float(len(normals)),
        "geometry.normals_mpx_per_s": _ratio(sum(i[0] for i in normals) / 1e6, normals_s),
        "geometry.normals_recovered_frac": _ratio(sum(i[2] for i in normals),
                                                  sum(i[1] for i in normals)),
        "geometry.gravity_s": total({"geometry.estimate_gravity"}),
        "geometry.gravity_iters": float(sum(i[0] for i in gravity)),
        "geometry.gravity_converged_frac": _ratio(sum(i[1] for i in gravity), len(gravity)),
        "geometry.hdha_self_s": self_total("geometry.hdha_encode"),
        "geometry.hdha_calls_per_map": _ratio(len(select({"geometry.hdha_encode"})),
                                              len(hdha_maps)),
        "evaluation.parse_s": total(_PARSE),
        "evaluation.records": float(sum(infos(_PARSE))),
        "evaluation.coco_s": total({"evaluation.coco_ap"}),
        "evaluation.voc_s": total({"evaluation.mean_ap"}),
        "evaluation.confusion_s": total({"evaluation.confusion_matrix",
                                         "evaluation.confusion_diff"}),
        "evaluation.iou_calls": float(iou_calls),
        "evaluation.csv_s": total(_CSV),
        "analysis.collect_s": total({"analysis.collect_samples"}),
        "analysis.samples": float(sum(infos({"analysis.collect_samples"}))),
        "analysis.heatmap_s": total({"analysis.build_heatmap", "analysis.heatmap_to_pgm_bytes"}),
        "analysis.csv_s": total({"analysis.samples_csv", "analysis.heatmap_csv"}),
    }
    for b in BACKBONES:
        draws = infos({"arch.Lcg.draws"}, b)
        m[f"arch.build_s.{b}"] = total(_BUILD, b)
        m[f"arch.export_s.{b}"] = total(_EXPORT, b)
        m[f"arch.draws_s.{b}"] = total({"arch.Lcg.draws"}, b)
        m[f"arch.draw_values.{b}"] = float(sum(draws))
        m[f"arch.draw_peak_mib_computed.{b}"] = max(draws, default=0) * DRAW_BYTES / MIB
        m[f"arch.execute_self_s.{b}"] = self_total("arch.execute_forward", b)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(p[name] for p in per_pass) for name in per_pass[0]}
