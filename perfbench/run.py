#!/usr/bin/env python3
"""depthkit benchmark: drive the documented CLI over seeded corpora.

    python3 perfbench/run.py --workload depth-corpus --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

One process per run, one closed-loop client: each pass calls
``depthkit.cli.main`` with the argv a user would type, and the next pass
starts when the previous one has ended.  Passes repeat until ``--seconds``
have elapsed.  depthkit is imported from ``src/`` next to this directory.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics (spans are
recorded from outside, see ``tracer.py``) plus the tracing overhead.
Every invocation is checked: exit code 0, no traceback on stderr, the
expected files written, and a sha256 of its stdout and files that
matches the first pass of the run and, for seeds in ``digests.json``,
the recorded digest.  Any failure makes the run exit 1.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
DIGESTS = os.path.join(HERE, "digests.json")
THREAD_VARS = ("DEPTHKIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
# set-up repeats at least MIN times, and up to MAX times while it has
# taken less than SETUP_BUDGET_S in total, so cheap set-ups get more samples
SETUP_ROUNDS_MIN, SETUP_ROUNDS_MAX, SETUP_BUDGET_S = 3, 9, 2.0


def cap_threads() -> dict[str, str]:
    """Cap the program's and BLAS's thread counts at the usable cores.

    Must run before numpy is imported.  Returns the values in force.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(value)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_depthkit():
    """Import depthkit from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import depthkit
    from depthkit import cli
    if not os.path.abspath(depthkit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"depthkit came from {depthkit.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------- workloads


@dataclass
class Invocation:
    tag: str               # "<command>:<label>"; the tracer tags spans with it
    argv: list[str]
    out: str               # directory the invocation writes into
    expect: list[str]      # files it must leave in ``out``


@dataclass
class Part:
    """The invocations that process one input set, and the rate at which
    they complete its items (printed, and kept in result.json)."""
    name: str
    rate: str              # e.g. "maps_per_s"
    items: int             # items the invocations complete per pass
    invocations: list[Invocation]


@dataclass
class Workload:
    name: str
    parts: list[Part]

    @property
    def invocations(self) -> list[Invocation]:
        return [inv for part in self.parts for inv in part.invocations]


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def build_encode_corpus(seed: int) -> Part:
    import corpus
    os.makedirs("in", exist_ok=True)
    scenes = corpus.write_scenes("in", seed, 2)
    corpus.write_camera("in/cam.json")
    out = "out/encode"
    inv = Invocation("encode:hdha",
                     ["encode", *scenes, "--mode", "hdha", "--intrinsics", "in/cam.json",
                      "--stats", f"{out}/stats.json", "--out", out],
                     out, ["stats.json"] + [f"{_stem(p)}_hdha.ppm" for p in scenes])
    return Part("encode-corpus", "maps_per_s", len(scenes), [inv])


def build_render_analyze(seed: int) -> Part:
    import corpus
    os.makedirs("in/depth")
    maps = corpus.write_scenes("in/depth", seed, 16, pgm_every=2)
    stems = [_stem(p) for p in maps]
    corpus.write_box_labels("in/boxes.jsonl", seed, stems, per_image=40, n_classes=20)
    with open("in/classes.json", "w") as fh:
        json.dump(corpus.class_names(20), fh)
    span = ["--dmin", "0.5", "--dmax", "8"]
    invs = [
        Invocation("encode:gray", ["encode", *maps, "--mode", "gray", *span, "--out", "out/gray"],
                   "out/gray", [f"{s}_gray.pgm" for s in stems]),
        Invocation("encode:jet", ["encode", *maps, "--mode", "jet", *span, "--out", "out/jet"],
                   "out/jet", [f"{s}_jet.ppm" for s in stems]),
        Invocation("analyze:", ["analyze", "--gts", "in/boxes.jsonl", "--depth-dir", "in/depth",
                                "--classes", "in/classes.json", "--bins", "20",
                                "--out", "out/analyze"],
                   "out/analyze", ["samples.csv", "heatmap.csv", "heatmap.pgm"]),
    ]
    return Part("render-analyze", "maps_per_s", len(maps), invs)


def build_eval_corpus(seed: int) -> Part:
    import corpus
    os.makedirs("in", exist_ok=True)
    n = corpus.write_detection_corpus("in", seed, n_images=250, n_classes=80)
    common = ["--gts", "in/gts.jsonl", "--dets", "in/dets_a.jsonl"]
    table = ["--classes", "in/classes.json"]
    invs = [
        Invocation("eval:coco", ["eval", "--metric", "coco", *common, "--out", "out/coco"],
                   "out/coco", ["coco_ap.csv"]),
        Invocation("eval:voc", ["eval", "--metric", "voc", *common, *table, "--out", "out/voc"],
                   "out/voc", ["voc_ap.csv"]),
        Invocation("eval:confusion", ["eval", "--metric", "confusion", *common, *table,
                                      "--out", "out/confusion"],
                   "out/confusion", ["confusion.csv"]),
        Invocation("eval:confdiff", ["eval", "--metric", "confdiff", *common, *table,
                                     "--dets-b", "in/dets_b.jsonl", "--out", "out/confdiff"],
                   "out/confdiff", ["confusion_diff.csv"]),
    ]
    # coco, voc and confusion score run A; confdiff scores both runs
    return Part("eval-corpus", "dets_per_s", 4 * n["dets_a"] + n["dets_b"], invs)


def build_arch_forward(seed: int) -> Part:
    invs = []
    for variant, backbone in (("raw-LC", "vgg16"), ("hdha-split", "resnet101")):
        out = f"out/{backbone}"
        prefix = f"{variant}_{backbone}"
        invs.append(Invocation(
            f"arch:{backbone}",
            ["arch", "--variant", variant, "--backbone", backbone, "--input", "64x64",
             "--rois", "4", "--forward", "--seed", str(seed), "--out", out],
            out, [f"{prefix}.dot", f"{prefix}_params.csv", f"{prefix}_shapes.csv"]))
    return Part("arch-forward", "forwards_per_s", len(invs), invs)


# Two workloads of two parts each, rather than one workload per part: on
# a shared 2-core VM whole minutes can run 30% slow, so runs have to be
# long, and the benchmark's time budget holds 50-second runs for two
# workloads but not for four.  depth-corpus exercises every image layer
# and bypasses evaluation and arch; eval-arch does the reverse.
WORKLOADS = {
    "depth-corpus": (build_encode_corpus, build_render_analyze),
    "eval-arch": (build_eval_corpus, build_arch_forward),
}


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs under ``in/`` (cwd-relative)."""
    return Workload(name, [make(seed) for make in WORKLOADS[name]])


def setup(name: str, seed: int) -> tuple[Workload, float]:
    """Build the workload's corpus in the work directory (the cwd) several
    times; each round also times a fresh ``import depthkit``.  Returns the
    workload and the median round time."""
    rounds = []
    while len(rounds) < SETUP_ROUNDS_MIN or (len(rounds) < SETUP_ROUNDS_MAX
                                             and sum(rounds) < SETUP_BUDGET_S):
        shutil.rmtree("in", ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); import depthkit", SRC],
                       check=True)
        workload = build(name, seed)
        rounds.append(time.perf_counter() - t0)
    return workload, median(rounds)


# ------------------------------------------------------------------- passes


@dataclass
class Outcome:
    code: int
    stderr: str
    seconds: float
    digest: str          # sha256 over the exit code, stdout and written files


def _invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a failure to report, not to stop on
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _digest(inv: Invocation, code: int, stdout: str) -> str:
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    h.update(hashlib.sha256(stdout.encode()).hexdigest().encode())
    for base, _, files in sorted(os.walk(inv.out)):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                h.update(f"\n{os.path.relpath(path, inv.out)} ".encode())
                h.update(hashlib.sha256(fh.read()).hexdigest().encode())
    return h.hexdigest()


def run_pass(cli, workload: Workload, tracer=None) -> tuple[float, float, list[Outcome]]:
    """Run every invocation once on a clean output tree.  Returns the pass's
    (start, end) wall clock and one outcome per invocation."""
    shutil.rmtree("out", ignore_errors=True)
    gc.collect()
    raw = []
    start = time.perf_counter()
    for inv in workload.invocations:
        if tracer is not None:
            tracer.tag = inv.tag
        t0 = time.perf_counter()
        raw.append((*_invoke(cli, inv.argv), time.perf_counter() - t0))
    end = time.perf_counter()
    outcomes = [Outcome(code, se, sec, _digest(inv, code, so))
                for inv, (code, so, se, sec) in zip(workload.invocations, raw)]
    return start, end, outcomes


def check(workload: Workload, outcomes: list[Outcome], reference: list[str],
          recorded: list[str] | None) -> list[str]:
    """One problem string per failed invocation of a pass (empty when all pass)."""
    problems = []
    for i, (inv, o) in enumerate(zip(workload.invocations, outcomes)):
        why = []
        if o.code != 0:
            why.append(f"exit {o.code}")
        if "Traceback" in o.stderr:
            why.append("traceback on stderr")
        missing = [f for f in inv.expect if not os.path.isfile(os.path.join(inv.out, f))]
        if missing:
            why.append(f"missing {missing[:3]}")
        if o.digest != reference[i]:
            why.append("output differs from the run's first pass")
        if recorded is not None and o.digest != recorded[i]:
            why.append("output differs from the recorded digest")
        if why:
            problems.append(f"{inv.tag} {' '.join(inv.argv[:3])}: {'; '.join(why)}"
                            + (f"\n{o.stderr.strip()}" if o.stderr.strip() else ""))
    return problems


def recorded_digests(name: str, seed: int) -> list[str] | None:
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


# --------------------------------------------------------------- one run


def environment(threads: dict[str, str], seed: int) -> dict:
    import numpy
    from depthkit import _kernels
    sizes = [os.path.getsize(os.path.join(base, f))
             for base, _, files in os.walk("in") for f in files]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": _kernels.backend_name(),
        "threads": threads,
        "seed": seed,
        "corpus_files": len(sizes),
        "corpus_bytes": sum(sizes),
    }


@dataclass
class Pass:
    start: float
    end: float
    kind: str              # "plain", "traced" or "warmup"
    seconds: list[float]   # wall time of each invocation

    @property
    def wall(self) -> float:
        return self.end - self.start


def measure(cli, workload: Workload, seconds: float, trace: bool, recorded):
    """Closed loop until ``seconds`` have elapsed.  Returns the passes, the
    failures, the attempted invocations and the tracer.

    Without tracing every pass is "plain".  With tracing the first pass is
    an untraced "warmup", so that cold caches do not land on either side
    of the overhead ratio, and then "traced" and "plain" passes alternate.
    """
    tracer = None
    if trace:
        import layers
        from tracer import Tracer
        tracer = Tracer(layers.targets())
    passes, problems, reference = [], [], None
    attempted = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(passes) < 2 + trace:
        if not trace:
            kind = "plain"
        else:
            kind = "warmup" if not passes else ("traced", "plain")[len(passes) % 2 == 0]
        if kind == "traced":
            tracer.pass_id = len(passes)
            with tracer:
                start, end, outcomes = run_pass(cli, workload, tracer)
        else:
            start, end, outcomes = run_pass(cli, workload)
        if reference is None:
            reference = [o.digest for o in outcomes]
        attempted += len(outcomes)
        problems += check(workload, outcomes, reference, recorded)
        passes.append(Pass(start, end, kind, [o.seconds for o in outcomes]))
    return passes, problems, attempted, tracer


def part_rates(workload: Workload, passes: list[Pass]) -> dict[str, float]:
    """Each part's items over the median time its invocations took in a
    plain pass, keyed "<part> <rate>"."""
    rates, first = {}, 0
    for part in workload.parts:
        span = slice(first, first + len(part.invocations))
        first = span.stop
        busy = median(sum(p.seconds[span]) for p in passes if p.kind == "plain")
        rates[f"{part.name} {part.rate}"] = part.items / busy
    return rates


def layer_metrics(tracer, passes: list[Pass]) -> tuple[dict[str, float], list[dict]]:
    """The per-layer metrics (medians over traced passes, plus the tracing
    overhead) and each traced pass's own values."""
    import layers
    per_pass = []
    for pass_id, p in enumerate(passes):
        if p.kind == "traced":
            spans = [s for s in tracer.spans if s.pass_id == pass_id]
            iou = tracer.counts[(pass_id, "evaluation.iou")]
            per_pass.append(layers.pass_metrics(spans, iou, (p.start, p.end)))
    m = layers.median_metrics(per_pass)
    traced_s = median(p.wall for p in passes if p.kind == "traced")
    plain_s = median(p.wall for p in passes if p.kind == "plain")
    m[layers.OVERHEAD[0]] = traced_s / plain_s
    return m, per_pass


def run_one(args) -> int:
    threads = cap_threads()
    cli = import_depthkit()
    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    workload, setup_s = setup(args.workload, args.seed)
    env = environment(threads, args.seed)
    recorded = recorded_digests(args.workload, args.seed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    if recorded is None:
        print(f"note: no recorded digests for seed {args.seed}; "
              f"outputs are checked against the run's first pass only")

    passes, problems, attempted, tracer = measure(cli, workload, args.seconds,
                                                  bool(args.trace), recorded)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    failed = len(problems)
    batch_s = median(p.wall for p in passes if p.kind == "plain")
    rates = part_rates(workload, passes)
    print(f"workload {workload.name}: {len(passes)} passes, "
          f"{len(workload.invocations)} invocations each")

    per_pass = []
    if args.trace:
        import layers
        units = {name: unit for name, unit, _ in layers.METRICS}
        metrics, per_pass = layer_metrics(tracer, passes)
        tracer.dump(os.path.join(work, "spans.jsonl"))
        for name, value in metrics.items():
            print(f"{name:40s} {value:14.6g} {units[name]}")
    else:
        units = {"setup_s": "s", "batch_s": "s", "peak_rss_mib": "MiB"}
        metrics = {
            "setup_s": setup_s,
            "batch_s": batch_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in metrics.items():
            print(f"{name:40s} {value:14.6g} {units[name]}")
        for name, value in rates.items():
            print(f"{name:40s} {value:14.6g} 1/s")
    print(f"{'fail_frac':40s} {failed / attempted:14.6g} ({failed}/{attempted} invocations)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"env": env, "rates": rates,
                   "passes": [[p.kind, p.wall, p.seconds] for p in passes],
                   "traced_passes": per_pass, **result}, fh, indent=1)
    shutil.rmtree("in", ignore_errors=True)
    shutil.rmtree("out", ignore_errors=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, then a summary of every run."""
    status, summary = 0, []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        path = os.path.join(WORK_ROOT, name, "result.json")
        if not os.path.exists(path):
            summary.append(f"{name}: no result")
            continue
        with open(path) as fh:
            result = json.load(fh)
        values = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()]
        values += [f"{k}={v:.4g} 1/s" for k, v in result["rates"].items()]
        values.append(f"fail_frac={result['failed'] / result['attempted']:.4g}")
        summary.append(f"{name}: " + ", ".join(values))
    print("\nsummary")
    print("\n".join(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="depthkit end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
