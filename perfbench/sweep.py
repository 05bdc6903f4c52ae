#!/usr/bin/env python3
"""Runs the benchmark over several seeds and compares sets of runs.

    python3 perfbench/sweep.py run --seeds 1-10 [--workloads a,b] [--trace 0|1] \
        [--seconds N] --out runs.jsonl
    python3 perfbench/sweep.py summary runs.jsonl
    python3 perfbench/sweep.py diff before.jsonl after.jsonl

`run` invokes the command of BENCHMARK.json once per workload and seed, one
process at a time, from the repository root, and appends every JSON record
the benchmark prints (one per pass and per metric, plus the result object)
to the output file, tagged with its run number.  `summary` prints, per
workload and metric, the median and the quartile spread (q3 - q1) / median
of the per-run values, against the metric's bound.  `diff` compares the
medians of two such files metric by metric and flags any end-to-end metric
that got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run(args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    seconds = args.seconds or SPEC["run_seconds"]
    number = 0
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seed_list(args.seeds):
                command = SPEC["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace),
                ]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
                result = json.loads(lines[-1]) if lines else {}
                ok = done.returncode == 0 and result.get("correct") is True
                for line in lines[:-1]:
                    record = json.loads(line)
                    record["run"] = number
                    out.write(json.dumps(record) + "\n")
                out.write(json.dumps({"kind": "result", "run": number, "workload": workload,
                                      "seed": seed, "trace": args.trace, "exit": done.returncode,
                                      **result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: exit {done.returncode}, correct {result.get('correct')}",
                      file=sys.stderr)
                if not ok:
                    print(done.stderr, file=sys.stderr)
                number += 1


def load(path):
    """Per-run metric values: {(workload, trace, metric): [values]}."""
    values = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "metric" and record["value"] is not None:
            key = (record["workload"], record["trace"], record["metric"])
            values.setdefault(key, []).append(record["value"])
    return values


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def summary(args):
    worst = 0.0
    for (workload, trace, name), values in sorted(load(args.file).items()):
        spec = E2E.get(name) if trace == 0 else LAYER.get(name)
        bound = spec.get("bound") if spec else None
        s = spread(values)
        note = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, s / bound)
            note = f"bound {bound:<5} {'ok' if s < bound / 3 else 'WIDE' if s < bound else 'FAIL'}"
        print(f"{workload:<16} {name:<32} n={len(values):<3} median {statistics.median(values):>16.6f}"
              f"  spread {s:8.4f}  {note}")
    print(f"widest spread / bound: {worst:.3f} (keep below 0.333)")


def diff(args):
    before, after = load(args.before), load(args.after)
    regressions = 0
    for key in sorted(before.keys() & after.keys()):
        workload, trace, name = key
        a, b = statistics.median(before[key]), statistics.median(after[key])
        change = (b - a) / abs(a) if a else 0.0
        spec = E2E.get(name) if trace == 0 else None
        verdict = ""
        if spec:
            worse = -change if spec["better"] == "higher" else change
            verdict = "REGRESSED" if worse > spec["bound"] else "ok"
            regressions += verdict == "REGRESSED"
        print(f"{workload:<16} {name:<32} {a:>16.6f} -> {b:>16.6f}  {change:+8.4f}  {verdict}")
    sys.exit(1 if regressions else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--seconds", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=run)
    p = sub.add_parser("summary")
    p.add_argument("file")
    p.set_defaults(func=summary)
    p = sub.add_parser("diff")
    p.add_argument("before")
    p.add_argument("after")
    p.set_defaults(func=diff)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
