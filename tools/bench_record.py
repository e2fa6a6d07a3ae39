#!/usr/bin/env python3
"""Records paired chlbench runs of a parent and a change checkout.

    python3 tools/bench_record.py --workload road-build \\
        --parent ../parent --change . --seeds 301-310 --seconds 30
    python3 tools/bench_record.py --workload sf-dist \\
        --parent ../parent --change . --seeds 301-310 --seconds 30 \\
        --traced 3 --layer dist.hybrid.wall_ms,dist.dgll.wall_ms

For each seed it runs `python3 chlbench/run.py --trace 0` once in the
parent checkout and once in the change checkout, back to back, so that a
pair shares the host's conditions; which side runs first alternates from
pair to pair. Each checkout runs its own chlbench, built
from its own sources. It then appends one record to BENCH_<workload>.json
(in the current directory unless --out is given):

  - per side: the commit the checkout stands on, whether its tracked files
    differ from that commit, chlbench's hash of the sources it built, the
    JVM flags its chlbench/run.py starts the benchmark with, and per
    end-to-end metric of BENCHMARK.json the median, Q1 and Q3 over the runs;
  - per pair: each side's metrics and its share of steal time, read from
    /proc/stat around the run;
  - per metric: the number of pairs the change wins, in the metric's
    better direction;
  - the host's core count.

With --traced K --layer a,b,... it then runs K more alternating pairs with
`--trace 1`, on the first K seeds (repeated if fewer), and adds to the
record, per side, the median, min and max over those runs of each named
per-layer metric of BENCHMARK.json, and each traced pair's values. A name
that BENCHMARK.json does not list fails before any run starts.

A run that fails (nonzero exit, no result line, or failed > 0) stops the
recording with an error; nothing is appended.
"""

import argparse
import datetime
import importlib.util
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'301-310' or '5,7,9' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_times():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    # time is already counted in user and nice
    total = sum(fields[:8])
    return fields[7], total


def checkout_info(path):
    def git(*args):
        r = subprocess.run(["git", "-C", path, *args], capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    sha = git("rev-parse", "HEAD")
    dirty = None if sha is None else bool(git("status", "--porcelain", "--untracked-files=no"))
    # chlbench's hash of every source file its build read: it names the code
    # that ran, also for a checkout whose tracked files differ from `sha`
    stamp = os.path.join(path, ".bench_build", "chlbench", "stamp.txt")
    with open(stamp) as f:
        source_stamp = f.read().strip()
    return {"sha": sha, "dirty": dirty, "source_stamp": source_stamp, "jvm_opts": jvm_opts(path)}


def jvm_opts(path):
    """JVM_OPTS of the checkout's own chlbench/run.py, whose main() is guarded."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout's chlbench/
    spec = importlib.util.spec_from_file_location("chlbench_run", os.path.join(path, "chlbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.JVM_OPTS)


def run_once(path, workload, seed, seconds, trace="0"):
    """One chlbench run in checkout `path`: (metrics, steal share)."""
    s0, t0 = cpu_times()
    r = subprocess.run([sys.executable, "chlbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", trace],
                       cwd=path, capture_output=True, text=True)
    s1, t1 = cpu_times()
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-4000:])
        sys.exit(f"bench_record: run in {path} (seed {seed}) exited with {r.returncode}")
    result = json.loads(lines[-1])
    if result.get("failed") != 0:
        sys.exit(f"bench_record: run in {path} (seed {seed}) failed its correctness gate: {result.get('failed')}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, (s1 - s0) / max(1, t1 - t0)


def quartiles(xs):
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def spread(xs):
    return {"median": statistics.median(xs), "min": min(xs), "max": max(xs)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--seeds", required=True, help="e.g. 301-310 or 5,7,9")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", help="default: BENCH_<workload>.json")
    ap.add_argument("--traced", type=int, default=0, help="traced pairs run after the untraced ones")
    ap.add_argument("--layer", default="", help="per-layer metrics the traced pairs record, e.g. a,b")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["better"] for m in bench["end_to_end"]}
    layer = [x for x in args.layer.split(",") if x]
    unknown = sorted(set(layer) - {m["name"] for m in bench["per_layer"]})
    if unknown:
        sys.exit(f"bench_record: not a per-layer metric of BENCHMARK.json: {', '.join(unknown)}")
    if args.traced < 0 or bool(args.traced) != bool(layer):
        sys.exit("bench_record: --traced K (K > 0) and --layer name,... go together")
    seeds = parse_seeds(args.seeds)
    sides = {"parent": args.parent, "change": args.change}

    def run_pairs(seeds, trace, names):
        pairs = []
        for i, seed in enumerate(seeds):
            pair = {"seed": seed, "first": "parent" if i % 2 == 0 else "change"}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                path = sides[side]
                metrics, steal = run_once(path, args.workload, seed, args.seconds, trace)
                missing = [m for m in names if m not in metrics]
                if missing:
                    sys.exit(f"bench_record: run in {path} (seed {seed}) reported no {', '.join(missing)}")
                pair[side] = {"metrics": {m: metrics[m] for m in names}, "steal_share": steal}
                print(f"bench_record: seed {seed} {side}{' traced' if trace == '1' else ''}: " +
                      ", ".join(f"{m} {metrics[m]:.4g}" for m in names) + f", steal {steal:.3f}",
                      file=sys.stderr)
            pairs.append(pair)
        return pairs

    pairs = run_pairs(seeds, "0", list(end_to_end))
    traced = run_pairs([seeds[i % len(seeds)] for i in range(args.traced)], "1", layer)

    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seconds": args.seconds,
        "cores": os.cpu_count(),
        "pairs": pairs,
        "wins": {},
    }
    for side, path in sides.items():
        record[side] = checkout_info(path)
        record[side]["metrics"] = {m: quartiles([p[side]["metrics"][m] for p in pairs]) for m in end_to_end}
        record[side]["steal_share"] = quartiles([p[side]["steal_share"] for p in pairs])
    if traced:
        record["traced_pairs"] = traced
        for side in sides:
            record[side]["per_layer"] = {m: spread([p[side]["metrics"][m] for p in traced]) for m in layer}
    for m, better in end_to_end.items():
        sign = 1 if better == "higher" else -1
        record["wins"][m] = sum(sign * (p["change"]["metrics"][m] - p["parent"]["metrics"][m]) > 0 for p in pairs)

    out = args.out or f"BENCH_{args.workload}.json"
    doc = {"workload": args.workload, "records": []}
    if os.path.exists(out):
        with open(out) as f:
            doc = json.load(f)
    doc["records"].append(record)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"bench_record: appended {len(pairs)} pairs to {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
