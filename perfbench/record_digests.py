#!/usr/bin/env python3
"""Record the output digests that ``run.py`` checks every pass against.

    python3 perfbench/record_digests.py [--seeds 64] [--workload NAME ...]

For each workload and each seed in ``0 .. seeds-1`` this builds the
corpus, runs one pass and stores one sha256 per invocation in
``digests.json``.  Re-record only when a change to depthkit is meant to
alter its output bytes, and say so in that change.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record benchmark output digests")
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--workload", nargs="*", choices=sorted(run.WORKLOADS),
                        default=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    run.cap_threads()
    cli = run.import_depthkit()
    with open(run.DIGESTS) as fh:
        table = json.load(fh)
    for name in args.workload:
        work = os.path.join(run.WORK_ROOT, "record", name)
        per_seed = {}
        for seed in range(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            os.chdir(work)
            workload = run.build(name, seed)
            _, _, outcomes = run.run_pass(cli, workload)
            for inv, o in zip(workload.invocations, outcomes):
                if o.code != 0 or "Traceback" in o.stderr:
                    print(f"{name} seed {seed}: {inv.tag} failed (exit {o.code})\n{o.stderr}",
                          file=sys.stderr)
                    return 1
            per_seed[str(seed)] = [o.digest for o in outcomes]
            print(f"{name} seed {seed}: {len(outcomes)} digests", flush=True)
        table[name] = per_seed
        os.chdir(run.HERE)
        shutil.rmtree(work, ignore_errors=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
