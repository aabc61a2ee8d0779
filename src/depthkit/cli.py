"""Command-line interface.

Four subcommands: ``encode`` renders depth maps to 8-bit imagery,
``arch`` reports on detector architecture graphs, ``eval`` scores
detections against ground truth, ``analyze`` builds depth-vs-size
statistics.  Exit codes: 0 success, 2 malformed input file (naming the
file and the location of the fault), 3 bad parameter, usage error, a
file that is missing or cannot be opened, or a run out of memory, 4
internal invariant violation.  Given identical inputs and flags, every subcommand writes
byte-identical output files on every run.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import _kernels, analysis, encoding, evaluation, geometry, netpbm
from .arch import (
    GraphError,
    Lcg,
    StructuralError,
    build_architecture,
    count_parameters,
    execute_forward,
    format_shape,
    propagate_shapes,
    shape_csv,
    shape_rows,
    to_dot,
)
from .netpbm import ParseError, decimal_float, decimal_int


class _Parser(argparse.ArgumentParser):
    """A usage error exits 3 like any bad parameter; subparsers inherit this."""

    def error(self, message: str):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="depthkit",
        description="Depth encodings, detector architecture graphs, and detection metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="render depth maps to 8-bit imagery")
    enc.add_argument("files", nargs="+", help="depth maps (PFM meters or 16-bit PGM millimeters)")
    enc.add_argument("--mode", required=True, choices=("gray", "jet", "hdha"))
    enc.add_argument("--dmin", type=decimal_float, help="depth mapped to 0 (gray/jet)")
    enc.add_argument("--dmax", type=decimal_float, help="depth mapped to 255 (gray/jet)")
    enc.add_argument("--intrinsics", help="camera intrinsics JSON (hdha)")
    enc.add_argument("--stats", help="channel stats JSON: applied if the file exists, "
                                     "otherwise computed from the inputs and written there (hdha)")
    enc.add_argument("--gravity", help="fixed gravity direction as 'x,y,z' (hdha); "
                                       "default: estimated per image")
    enc.add_argument("--k-neighbors", type=decimal_int, default=25,
                     help="valid points per normal-estimation window (default 25)")
    enc.add_argument("--out", default=".", help="output directory (default: current)")

    arch = sub.add_parser("arch", help="inspect a detector architecture graph")
    arch.add_argument("--variant", required=True,
                      help="baseline, raw-EC/MC/LC, proc-EC/MC/LC, hdha-split, prior-late")
    arch.add_argument("--backbone", required=True, help="vgg16 or resnet101")
    arch.add_argument("--classes", type=decimal_int, default=21,
                      help="detection classes including background (default 21)")
    arch.add_argument("--rois", type=decimal_int, default=300,
                      help="region proposals after suppression (default 300)")
    arch.add_argument("--input", default="600x800",
                      help="input size HxW for shape propagation (default 600x800)")
    arch.add_argument("--depth-channels", type=decimal_int, default=None,
                      help="depth input channels of the raw (default 1) and processed "
                           "(default 3) variants")
    arch.add_argument("--forward", action="store_true",
                      help="run the seeded numeric executor and print output digests")
    arch.add_argument("--seed", type=decimal_int, default=0, help="weight seed for --forward")
    arch.add_argument("--out", default=".", help="output directory (default: current)")

    ev = sub.add_parser("eval", help="score detections against ground truth")
    ev.add_argument("--metric", required=True, choices=("voc", "coco", "confusion", "confdiff"))
    ev.add_argument("--dets", required=True, help="detections JSONL")
    ev.add_argument("--dets-b", help="second detections JSONL (confdiff)")
    ev.add_argument("--gts", required=True, help="ground-truth JSONL")
    ev.add_argument("--classes", help="class table JSON (names -> ids by position)")
    ev.add_argument("--iou", type=decimal_float, default=0.5, help="match threshold (default 0.5)")
    ev.add_argument("--score-thresh", type=decimal_float, default=0.5,
                    help="confusion-matrix score cutoff (default 0.5)")
    ev.add_argument("--use-difficult", action="store_true",
                    help="count difficult ground truth like any other")
    ev.add_argument("--out", default=".", help="output directory (default: current)")

    an = sub.add_parser("analyze", help="depth-vs-size statistics from ground truth")
    an.add_argument("--gts", help="ground-truth JSONL")
    an.add_argument("--depth-dir", help="directory of <image_id>.pfm or .pgm depth maps")
    an.add_argument("--classes", help="class table JSON")
    an.add_argument("--bins", type=decimal_int, default=20,
                    help="bins per heatmap axis (default 20)")
    an.add_argument("--similarity", nargs=2, metavar=("A", "B"),
                    help="compare two heatmap CSVs instead of building one")
    an.add_argument("--out", default=".", help="output directory (default: current)")
    return parser


def _stem(path: str) -> str:
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


def _parse_gravity(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--gravity needs 'x,y,z', got {text!r}")
    try:
        g = np.array([decimal_float(p) for p in parts])
    except ValueError:
        raise ValueError(f"--gravity needs finite decimal components, got {text!r}") from None
    # checked before any map is read; passed on as parsed, hdha_encode scales it
    geometry._unit_gravity(g)
    return g


_OUT_SUFFIX = {"gray": "_gray.pgm", "jet": "_jet.ppm", "hdha": "_hdha.ppm"}


def _out_path(args, path: str) -> str:
    return os.path.join(args.out, _stem(path) + _OUT_SUFFIX[args.mode])


def _load(read, path: str):
    """``read(path)``, naming ``path`` in the ParseError of a malformed file."""
    try:
        return read(path)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", exc.offset) from None


def _encode_one(path: str, args, cam, gravity, stats, defer: bool):
    """Load, encode and write one map; return its summary line and a
    deferral, or the error that kept the map from loading.

    With ``defer`` set (hdha stats still to be computed from the batch),
    nothing is written and the deferral is ``(out_path, HdhaImage)``;
    otherwise it is None.
    """
    try:
        depth = _load(encoding.load_depth, path)
    except (ParseError, OSError) as exc:
        return exc
    out_path = _out_path(args, path)
    info = depth.summary()
    deferred = None
    if args.mode in ("gray", "jet"):
        gray = encoding.grayscale_encode(depth, args.dmin, args.dmax)
        if args.mode == "gray":
            netpbm.write_pgm8(out_path, gray)
        else:
            netpbm.write_ppm8(out_path, encoding.jet_encode(gray, depth.valid))
    else:
        hdha = geometry.hdha_encode(depth, cam, gravity=gravity,
                                    k_neighbors=args.k_neighbors)
        if defer:
            deferred = (out_path, hdha)
        else:
            _write_hdha(out_path, hdha, stats)
    if info["min"] is None:
        line = f"{path}: valid=0.000 -> {out_path}"
    else:
        line = (f"{path}: valid={info['valid_fraction']:.3f} "
                f"min={info['min']:.3f}m max={info['max']:.3f}m -> {out_path}")
    return line, deferred


def _write_text(path: str, text: str) -> None:
    # the text is built before the file opens, so a failure to build it
    # leaves no empty file behind
    with open(path, "w") as fh:
        fh.write(text)


def _write_hdha(out_path: str, hdha, stats) -> None:
    netpbm.write_ppm8(out_path, encoding.hdha_to_rgb(hdha, stats=stats))


def _cmd_encode(args) -> int:
    if args.mode in ("gray", "jet"):
        if args.dmin is None or args.dmax is None:
            raise ValueError(f"--mode {args.mode} requires --dmin and --dmax")
    cam = None
    if args.mode == "hdha":
        if not args.intrinsics:
            raise ValueError("--mode hdha requires --intrinsics (camera intrinsics JSON)")
        cam = encoding.CameraIntrinsics.from_json(args.intrinsics)
    gravity = _parse_gravity(args.gravity) if args.gravity is not None else None
    # two inputs with one stem would race for one output file
    writer = {}
    for path in args.files:
        out_path = _out_path(args, path)
        if out_path in writer:
            raise ValueError(f"inputs {writer[out_path]} and {path} would both write {out_path}")
        writer[out_path] = path

    stats = None
    if args.stats:
        if args.mode != "hdha":
            raise ValueError("--stats applies to --mode hdha only")
        if os.path.exists(args.stats):
            stats = encoding.ChannelStats.from_json(args.stats)
            if len(stats.means) != 3:
                raise ParseError(f"{args.stats}: hdha rendering needs 3-channel stats, "
                                 f"got {len(stats.means)}", 0)
    # without the stats file the batch itself defines the stats: every map
    # is encoded once, held until the stats are known, then rendered
    defer = bool(args.stats) and stats is None
    os.makedirs(args.out, exist_ok=True)

    def encode_one(path):
        return _encode_one(path, args, cam, gravity, stats, defer)

    if args.mode == "hdha":
        # one map at a time: its normals kernel spreads its chunks across
        # the pool, so only one map's working set is alive
        results = [encode_one(path) for path in args.files]
    else:
        results = _kernels.pool_map(encode_one, args.files)
    failed = [r for r in results if isinstance(r, Exception)]
    if defer and failed:
        # the stats describe the whole batch: without it nothing is written
        results = []
    elif defer:
        held = [hdha for _, (_, hdha) in results]
        # a batch with no valid pixel renders to zeros under any stats,
        # so it writes its images and no stats file
        if any(hdha.valid.any() for hdha in held):
            stats = encoding.compute_channel_stats(held)
            stats.to_json(args.stats)
        for _, (out_path, hdha) in results:
            _write_hdha(out_path, hdha, stats)
    for result in results:
        if not isinstance(result, Exception):
            print(result[0])
    codes = [_fail(exc) for exc in failed]
    return codes[0] if codes else 0


def _cmd_arch(args) -> int:
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"--seed must be in [0, 2^64 - 1], got {args.seed}")
    try:
        h, w = (decimal_int(p) for p in args.input.lower().split("x"))
    except ValueError:
        raise ValueError(f"--input must look like 600x800, got {args.input!r}") from None
    graph = build_architecture(args.variant, args.backbone, num_classes=args.classes,
                               depth_channels=args.depth_channels)
    try:
        shapes = propagate_shapes(graph, (3, h, w), args.rois)
    except StructuralError as exc:
        # the builder's wiring is fixed, so only the input size can fail here
        raise ValueError(f"--input {args.input} is too small for {args.backbone}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    prefix = os.path.join(args.out, f"{args.variant}_{args.backbone}")

    _write_text(f"{prefix}.dot", to_dot(graph, shapes))
    report = count_parameters(graph, shapes)
    report.to_csv(f"{prefix}_params.csv")
    _write_text(f"{prefix}_shapes.csv", shape_csv(graph, shapes))

    print(f"{args.variant} / {args.backbone}: trainable={report.trainable:,} "
          f"fixed={report.fixed:,} total={report.total:,}")
    print(f"head input: {format_shape(dict(shape_rows(graph, shapes))['head_input'])}")
    for suffix in (".dot", "_params.csv", "_shapes.csv"):
        print(f"wrote {prefix}{suffix}")

    if args.forward:
        filler = Lcg((args.seed + 1) % (1 << 64))
        inputs = {}
        for name, ispec in graph.inputs.items():
            if ispec.rois:
                # a deterministic spread of boxes across the image, cycled
                # to --rois rows
                fr = np.array([
                    [0.0, 0.0, 0.5, 0.5],
                    [0.25, 0.25, 1.0, 1.0],
                    [0.1, 0.4, 0.9, 0.8],
                    [0.0, 0.0, 1.0, 1.0],
                ])
                boxes = fr[np.arange(args.rois) % len(fr)]
                inputs[name] = boxes * np.array([w, h, w, h], dtype=float)
            else:
                c = ispec.channels
                inputs[name] = filler.draws(c * h * w).reshape(c, h, w)
        outputs = execute_forward(graph, inputs, seed=args.seed)
        for key in sorted(outputs):
            arr = outputs[key]
            print(f"forward {key}: shape={format_shape(arr.shape)} sum={arr.sum():.6e}")
    return 0


def _cmd_eval(args) -> int:
    if not 0 < args.iou <= 1:
        raise ValueError(f"--iou must be in (0, 1], got {args.iou}")
    classes = evaluation.load_classes(args.classes) if args.classes else None
    dets = evaluation.load_detections(args.dets, classes)
    gts = evaluation.load_groundtruth(args.gts, classes)
    class_ids = np.unique(gts.class_id).tolist()
    os.makedirs(args.out, exist_ok=True)

    if args.metric == "voc":
        map_value, per_class = evaluation.mean_ap(dets, gts, class_ids, args.iou,
                                                  args.use_difficult)
        # without a table every class is named by its id
        path = os.path.join(args.out, "voc_ap.csv")
        _write_text(path, evaluation.ap_csv(per_class, classes or [], map_value))
        print(f"mAP: {evaluation.format_metric(map_value)}")
        print(f"wrote {path}")
        return 0

    if args.metric == "coco":
        summary = evaluation.coco_ap(dets, gts, class_ids)
        path = os.path.join(args.out, "coco_ap.csv")
        _write_text(path, evaluation.coco_csv(summary))
        print(f"AP: {evaluation.format_metric(summary['ap'])}")
        print(f"wrote {path}")
        return 0

    if classes is None:
        raise ValueError(f"--metric {args.metric} requires --classes")
    cm = evaluation.confusion_matrix(dets, gts, classes, args.iou, args.score_thresh)
    if args.metric == "confusion":
        path = os.path.join(args.out, "confusion.csv")
        _write_text(path, cm.to_csv())
        print(f"matched={int(cm.counts.sum())} missed={int(cm.fn.sum())}")
        print(f"wrote {path}")
        return 0
    if not args.dets_b:
        raise ValueError("--metric confdiff requires --dets-b (the comparison run)")
    dets_b = evaluation.load_detections(args.dets_b, classes)
    cm_b = evaluation.confusion_matrix(dets_b, gts, classes, args.iou, args.score_thresh)
    diff = evaluation.confusion_diff(cm, cm_b)
    path = os.path.join(args.out, "confusion_diff.csv")
    _write_text(path, diff.to_csv())
    print(diff.format_text(), end="")
    print(f"wrote {path}")
    return 0


def _find_depth_file(depth_dir: str, image_id: str) -> str:
    for ext in (".pfm", ".pgm"):
        path = os.path.join(depth_dir, image_id + ext)
        if os.path.exists(path):
            return path
    raise ValueError(f"no depth file for image {image_id!r} under {depth_dir} "
                     f"(tried .pfm and .pgm)")


def _cmd_analyze(args) -> int:
    if args.similarity:
        a, b = (_load(lambda p: analysis.parse_heatmap_csv(Path(p).read_bytes()), path)
                for path in args.similarity)
        score = analysis.heatmap_similarity(a, b)
        print(f"similarity: {score:.6f}")
        return 0
    if not args.gts or not args.depth_dir:
        raise ValueError("analyze needs --gts and --depth-dir (or --similarity A B)")
    classes = evaluation.load_classes(args.classes) if args.classes else None
    gts = evaluation.load_groundtruth(args.gts, classes)
    samples = analysis.collect_samples(gts, lambda image_id: _load(
        encoding.load_depth, _find_depth_file(args.depth_dir, image_id)))
    if not samples:
        raise ValueError("no usable samples: no ground-truth box holds valid depth")
    hm = analysis.build_heatmap(samples.mean_depth, samples.area,
                                bins_x=args.bins, bins_y=args.bins)
    r = analysis.pearson_r(samples.mean_depth, samples.area)
    os.makedirs(args.out, exist_ok=True)
    samples_path = os.path.join(args.out, "samples.csv")
    _write_text(samples_path, analysis.samples_csv(samples, classes))
    hm_path = os.path.join(args.out, "heatmap.csv")
    _write_text(hm_path, analysis.heatmap_csv(hm))
    pgm_path = os.path.join(args.out, "heatmap.pgm")
    netpbm.write_pgm8(pgm_path, analysis.heatmap_to_pgm_bytes(hm))
    print(f"samples={len(samples)} pearson_r={r:.6f}")
    for path in (samples_path, hm_path, pgm_path):
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "arch": _cmd_arch,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
}


def _fail(exc: Exception) -> int:
    """Report ``exc`` on stderr; return its exit code."""
    if isinstance(exc, FileNotFoundError):
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 3
    if isinstance(exc, OSError):
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 3
    if isinstance(exc, GraphError):
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if isinstance(exc, MemoryError):
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3
    print(f"error: {exc}", file=sys.stderr)
    return 2 if isinstance(exc, ParseError) else 3


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, GraphError, MemoryError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
