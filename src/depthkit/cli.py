"""Command-line interface.

Four subcommands: ``encode`` renders depth maps to 8-bit imagery,
``arch`` reports on detector architecture graphs, ``eval`` scores
detections against ground truth, ``analyze`` builds depth-vs-size
statistics.  Exit codes: 0 success, 2 malformed input file (naming the
file and the location of the fault), 3 bad parameter, usage error, a
file that is missing or cannot be opened, or a run out of memory, 4
internal invariant violation.  Given identical inputs and flags, every subcommand writes
byte-identical output files on every run.

Every subcommand checks all its options before it reads any input, and
computes before it writes or prints anything; ``--out`` is made at the
first write.  So a run that exits nonzero prints one error line on
stderr, nothing on stdout, and leaves no ``--out`` directory.  Two
exceptions: a write that itself fails (a full disk, an unwritable
``--out``) may leave the files written before it, and an ``encode``
batch writes and reports its good maps around a bad one.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
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
    enc.add_argument("--dmin", type=decimal_float, help="depth mapped to 0 (gray/jet), below --dmax")
    enc.add_argument("--dmax", type=decimal_float, help="depth mapped to 255 (gray/jet)")
    enc.add_argument("--intrinsics", help="camera intrinsics JSON (hdha)")
    enc.add_argument("--stats", help="channel stats JSON: applied if the file exists, "
                                     "otherwise computed from the inputs and written there (hdha)")
    enc.add_argument("--gravity", help="fixed gravity direction as 'x,y,z' (hdha); "
                                       "default: estimated per image")
    enc.add_argument("--k-neighbors", type=decimal_int,
                     help="valid points per normal-estimation window, at least 3 "
                          "(hdha; default 25)")
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
                      help="run the seeded numeric executor, before any report is "
                           "written, and print output digests")
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


def _load_depth(path: str):
    """The depth map at ``path``, or the error that kept it from loading."""
    try:
        return _load(encoding.load_depth, path)
    except (ParseError, OSError) as exc:
        return exc


def _encode_one(path: str, args, cam, gravity, stats, spill: str | None = None):
    """Load, encode and write one map; return its summary line and a
    deferral, or the error that kept the map from loading.

    With a ``spill`` path (hdha stats still to be computed from the
    batch), nothing is written: the map's channels are spilled to a new
    file there and the deferral is ``(out_path, SpilledHdha)``;
    otherwise it is None.
    """
    depth = _load_depth(path)
    if isinstance(depth, Exception):
        return depth
    out_path = _out_path(args, path)
    info = depth.summary()
    deferred = None
    if args.mode in ("gray", "jet"):
        gray = encoding.grayscale_encode(depth, args.dmin, args.dmax)
        _write_image(args, out_path, gray if args.mode == "gray"
                     else encoding.jet_encode(gray, depth.valid))
    else:
        hdha = geometry.hdha_encode(depth, cam, gravity=gravity,
                                    k_neighbors=args.k_neighbors)
        if spill is not None:
            deferred = (out_path, encoding.spill_hdha(hdha, spill))
        else:
            _write_image(args, out_path, encoding.hdha_to_rgb(hdha, stats=stats))
    if info["min"] is None:
        line = f"{path}: valid=0.000 -> {out_path}"
    else:
        line = (f"{path}: valid={info['valid_fraction']:.3f} "
                f"min={info['min']:.3f}m max={info['max']:.3f}m -> {out_path}")
    return line, deferred


def _encode_batch_stats(args, cam, gravity) -> list:
    """Encode an hdha batch whose stats the batch itself defines; return
    the results of :func:`_encode_one` in argument order, or only the
    errors when a map failed.

    Each map is encoded once and spilled to a private temporary
    directory, outside ``--out`` and removed on every exit, so one map
    at a time is held.  Once a map has failed nothing will be written:
    the later maps are only loaded, to report their faults.  Otherwise,
    once every map is spilled, the stats are computed from the spills
    and written, then each map is rendered from its spill.
    """
    with tempfile.TemporaryDirectory(prefix="depthkit-") as spill_dir:
        results, failed = [], []
        for i, path in enumerate(args.files):
            result = (_load_depth(path) if failed else
                      _encode_one(path, args, cam, gravity, None,
                                  os.path.join(spill_dir, f"{i}.hdha")))
            if isinstance(result, Exception):
                failed.append(result)
            elif not failed:
                results.append(result)
        if failed:
            # the stats describe the whole batch: without it nothing is written
            return failed
        spilled = [deferred for _, (_, deferred) in results]
        stats = None
        # a batch with no valid pixel renders to zeros under any stats,
        # so it writes its images and no stats file
        if any(image.count for image in spilled):
            stats = encoding.compute_channel_stats(spilled)
            # the first write of the batch; the stats file may lie in --out
            os.makedirs(args.out, exist_ok=True)
            stats.to_json(args.stats)
        for _, (out_path, image) in results:
            _write_image(args, out_path, encoding.hdha_to_rgb(image, stats=stats))
    return results


def _write_text(path: str, text: str) -> None:
    # the text is built before the file opens, so a failure to build it
    # leaves no empty file behind
    with open(path, "w") as fh:
        fh.write(text)


def _write_image(args, path: str, image: np.ndarray) -> None:
    """Write an 8-bit gray (H, W) or RGB (H, W, 3) image, making ``--out``
    first: a map that fails before its write leaves no directory behind."""
    os.makedirs(args.out, exist_ok=True)
    (netpbm.write_pgm8 if image.ndim == 2 else netpbm.write_ppm8)(path, image)


# the encode options of one group of modes; given with another mode, a
# run exits 3 before any read
_HDHA_OPTIONS = ("intrinsics", "stats", "gravity", "k_neighbors")
_GRAY_OPTIONS = ("dmin", "dmax")


def _refuse_options(args, names, applies: str) -> None:
    """Exit 3 on the first of the options ``names`` that ``args`` holds."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} applies to {applies} only")


def _cmd_encode(args) -> int:
    if args.mode in ("gray", "jet"):
        _refuse_options(args, _HDHA_OPTIONS, "--mode hdha")
        if args.dmin is None or args.dmax is None:
            raise ValueError(f"--mode {args.mode} requires --dmin and --dmax")
        # grayscale_encode's own rule, worded for the options
        if not args.dmax > args.dmin:
            raise ValueError(f"--dmin must be below --dmax, got {args.dmin} and {args.dmax}")
    else:
        _refuse_options(args, _GRAY_OPTIONS, "--mode gray and jet")
        if not args.intrinsics:
            raise ValueError("--mode hdha requires --intrinsics (camera intrinsics JSON)")
        if args.k_neighbors is None:
            args.k_neighbors = 25
        # the normals kernel's own rule, worded for the option
        if args.k_neighbors < 3:
            raise ValueError(f"--k-neighbors must be at least 3, got {args.k_neighbors}")
    gravity = _parse_gravity(args.gravity) if args.gravity is not None else None
    # two inputs with one stem would race for one output file
    writer = {}
    for path in args.files:
        out_path = _out_path(args, path)
        if out_path in writer:
            raise ValueError(f"inputs {writer[out_path]} and {path} would both write {out_path}")
        writer[out_path] = path

    # every option is checked: the side files are read, then the maps
    cam = encoding.CameraIntrinsics.from_json(args.intrinsics) if args.mode == "hdha" else None
    stats = None
    if args.stats and os.path.exists(args.stats):
        stats = encoding.ChannelStats.from_json(args.stats)
        if len(stats.means) != 3:
            raise ParseError(f"{args.stats}: hdha rendering needs 3-channel stats, "
                             f"got {len(stats.means)}", 0)

    def encode_one(path):
        return _encode_one(path, args, cam, gravity, stats)

    if args.mode != "hdha":
        results = _kernels.pool_map(encode_one, args.files)
    elif args.stats and stats is None:
        # without the stats file the batch itself defines the stats
        results = _encode_batch_stats(args, cam, gravity)
    else:
        # one map at a time: its normals kernel spreads its chunks across
        # the pool, so only one map's working set is alive
        results = [encode_one(path) for path in args.files]
    for result in results:
        if not isinstance(result, Exception):
            print(result[0])
    codes = [_fail(result) for result in results if isinstance(result, Exception)]
    return codes[0] if codes else 0


def _forward_lines(graph, args, h: int, w: int) -> list[str]:
    """The ``--forward`` digest lines: one per output tensor of the seeded
    executor, run on deterministically filled inputs."""
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
    return [f"forward {key}: shape={format_shape(arr.shape)} sum={arr.sum():.6e}"
            for key, arr in sorted(outputs.items())]


def _cmd_arch(args) -> int:
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"--seed must be in [0, 2^64 - 1], got {args.seed}")
    try:
        h, w = (decimal_int(p) for p in args.input.lower().split("x"))
    except ValueError:
        raise ValueError(f"--input must look like 600x800, got {args.input!r}") from None
    if args.forward:
        # the executor sizes numpy arrays by these, and no array passes
        # the largest index
        limit = np.iinfo(np.intp).max
        for option, value in (("--classes", args.classes), ("--rois", args.rois),
                              ("--depth-channels", args.depth_channels),
                              ("--input height", h), ("--input width", w)):
            if value is not None and value > limit:
                raise ValueError(f"{option} must be at most {limit} with --forward, got {value}")
    graph = build_architecture(args.variant, args.backbone, num_classes=args.classes,
                               depth_channels=args.depth_channels)
    try:
        shapes = propagate_shapes(graph, (3, h, w), args.rois)
    except StructuralError as exc:
        # the builder's wiring is fixed, so only the input size can fail here
        raise ValueError(f"--input {args.input} is too small for {args.backbone}: {exc}") from None
    # the forward runs before the reports are built, so a failed forward
    # writes and prints nothing, and no report is held while it runs
    forward = _forward_lines(graph, args, h, w) if args.forward else []
    dot, report = to_dot(graph, shapes), count_parameters(graph, shapes)
    table = shape_csv(graph, shapes)

    os.makedirs(args.out, exist_ok=True)
    prefix = os.path.join(args.out, f"{args.variant}_{args.backbone}")
    _write_text(f"{prefix}.dot", dot)
    report.to_csv(f"{prefix}_params.csv")
    _write_text(f"{prefix}_shapes.csv", table)

    print(f"{args.variant} / {args.backbone}: trainable={report.trainable:,} "
          f"fixed={report.fixed:,} total={report.total:,}")
    print(f"head input: {format_shape(dict(shape_rows(graph, shapes))['head_input'])}")
    for suffix in (".dot", "_params.csv", "_shapes.csv"):
        print(f"wrote {prefix}{suffix}")
    for line in forward:
        print(line)
    return 0


def _cmd_eval(args) -> int:
    if not 0 < args.iou <= 1:
        raise ValueError(f"--iou must be in (0, 1], got {args.iou}")
    if args.metric in ("confusion", "confdiff") and not args.classes:
        raise ValueError(f"--metric {args.metric} requires --classes")
    if args.metric == "confdiff" and not args.dets_b:
        raise ValueError("--metric confdiff requires --dets-b (the comparison run)")
    if args.metric != "confdiff":
        _refuse_options(args, ("dets_b",), "--metric confdiff")
    classes = evaluation.load_classes(args.classes) if args.classes else None
    dets = evaluation.load_detections(args.dets, classes)
    gts = evaluation.load_groundtruth(args.gts, classes)
    class_ids = np.unique(gts.class_id).tolist()

    if args.metric == "voc":
        map_value, per_class = evaluation.mean_ap(dets, gts, class_ids, args.iou,
                                                  args.use_difficult)
        # without a table every class is named by its id
        name, text = "voc_ap.csv", evaluation.ap_csv(per_class, classes or [], map_value)
        summary = f"mAP: {evaluation.format_metric(map_value)}\n"
    elif args.metric == "coco":
        coco = evaluation.coco_ap(dets, gts, class_ids)
        name, text = "coco_ap.csv", evaluation.coco_csv(coco)
        summary = f"AP: {evaluation.format_metric(coco['ap'])}\n"
    else:
        cm = evaluation.confusion_matrix(dets, gts, classes, args.iou, args.score_thresh)
        if args.metric == "confusion":
            name, text = "confusion.csv", cm.to_csv()
            summary = f"matched={int(cm.counts.sum())} missed={int(cm.fn.sum())}\n"
        else:
            dets_b = evaluation.load_detections(args.dets_b, classes)
            cm_b = evaluation.confusion_matrix(dets_b, gts, classes, args.iou, args.score_thresh)
            diff = evaluation.confusion_diff(cm, cm_b)
            name, text, summary = "confusion_diff.csv", diff.to_csv(), diff.format_text()

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    _write_text(path, text)
    print(summary, end="")
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
    # build_heatmap's own rule, worded for the option
    if args.bins < 1:
        raise ValueError(f"--bins must be at least 1, got {args.bins}")
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
