#!/usr/bin/env python3
"""Runs sets of hef_bench runs and checks that they agree within bounds.

    python3 hef_bench/agree.py run --out DIR --seeds 1-10 [--workloads a,b]
    python3 hef_bench/agree.py check SET_A [SET_B]

`run` calls run.py once per workload and seed, one after another, and
appends each result line to DIR/<workload>.jsonl as {"seed", "result"}
(--trace 1 runs record the per-layer metrics the same way).

`check` prints, per workload and metric, each set's median, quartiles
(statistics.quantiles, n=4) and spread, the quartile distance as a share
of the median. For end-to-end metrics it exits 1 when a spread exceeds the
metric's BENCHMARK.json bound (setup_s excepted: each of its values is
already a median of several set-ups), or when the medians of SET_A and
SET_B differ by more than the bound. Per-layer metrics have no bound and
are only printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def cmd_run(args, spec):
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} seed {seed}: run failed ({out.returncode})",
                      file=sys.stderr)
                return 1
            record = {"seed": seed, "result": json.loads(lines[-1])}
            with open(os.path.join(args.out, f"{name}.jsonl"), "a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{name} seed {seed}: {lines[-1]}", flush=True)
    return 0


def load_set(directory):
    """{workload: {metric: [values]}} from DIR/<workload>.jsonl."""
    runs = {}
    for file in sorted(os.listdir(directory)):
        if not file.endswith(".jsonl"):
            continue
        metrics = runs.setdefault(file[:-len(".jsonl")], {})
        with open(os.path.join(directory, file)) as f:
            for line in f:
                result = json.loads(line)["result"]
                if not result["correct"] or result["failed"] != 0:
                    print(f"{file}: a run was incorrect or had failures",
                          file=sys.stderr)
                for metric, cell in result["metrics"].items():
                    metrics.setdefault(metric, []).append(cell["value"])
    return runs


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def cmd_check(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [load_set(d) for d in args.sets]
    ok = True
    print(f"{'workload':<13} {'metric':<28} {'set':>3} {'n':>3} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload in sorted(sets[0]):
        for metric in sets[0][workload]:
            bound = bounds.get(metric)
            medians = []
            for i, runs in enumerate(sets):
                values = runs.get(workload, {}).get(metric, [])
                if len(values) < 2:
                    print(f"{workload:<13} {metric:<28} {i + 1:>3} "
                          f"{len(values):>3}  too few runs")
                    ok = False
                    continue
                median, q1, q3, spread = stats(values)
                medians.append(median)
                verdict = ""
                if bound is not None and metric != "setup_s":
                    verdict = "ok" if spread <= bound else "SPREAD > BOUND"
                    if spread > bound:
                        ok = False
                    elif spread > bound / 3:
                        verdict = "ok (spread > bound/3)"
                print(f"{workload:<13} {metric:<28} {i + 1:>3} "
                      f"{len(values):>3} {median:>12.4f} {q1:>12.4f} "
                      f"{q3:>12.4f} {spread:>7.3f} "
                      f"{bound if bound is not None else '-':>6}  {verdict}")
            if bound is not None and len(medians) == 2:
                shift = abs(medians[1] - medians[0]) / medians[0]
                agree = shift <= bound
                ok = ok and agree
                print(f"{'':<13} {'':<28} medians differ by {shift:.3f} "
                      f"({'within' if agree else 'BEYOND'} bound {bound})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="collect one set of runs")
    run.add_argument("--out", required=True)
    run.add_argument("--seeds", default="1-3", help="e.g. 1-10")
    run.add_argument("--workloads", default="",
                     help="comma-separated; default all")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    check = sub.add_parser("check", help="compare one or two sets")
    check.add_argument("sets", nargs="+", metavar="SET")
    args = parser.parse_args()
    spec = load_spec()
    if args.command == "run":
        return cmd_run(args, spec)
    if len(args.sets) > 2:
        parser.error("check takes one or two sets")
    return cmd_check(args, spec)


if __name__ == "__main__":
    sys.exit(main())
