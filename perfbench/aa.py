#!/usr/bin/env python3
"""A/A steadiness runner for perfbench.

    python3 perfbench/aa.py --runs 10 --seconds 20 --out aa1.json
    python3 perfbench/aa.py --compare aa1.json aa2.json

Runs every workload --runs times with seeds seed0, seed0+1, ..., alternating
the workload order between runs, and prints for each end-to-end metric its
median, quartiles and spread = (q3 - q1) / median next to the bound in
BENCHMARK.json. Paired ratios (*_x) are printed beside the spread of the raw
median of the same entry point (perfbench-raw line), which is the data behind
gating ratios instead of raw times: raw single-thread times drift with the
host, the per-round ratio does not. --compare checks two such result files
the way the acceptance rule does: each second median may be worse than the
first by at most the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAW_OF = {"plain_ms": "plain_ms", "online_comp_x": "online_comp_ms",
          "online_mem_x": "online_mem_ms", "inplace_x": "inplace_ms",
          "offline_x": "offline_ms", "r2c_x": "r2c_ms",
          "sharded_x": "sharded_ms"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quart(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"aa: {workload} seed {seed} failed")
    lines = proc.stdout.splitlines()
    raw = {}
    for ln in lines:
        if ln.startswith("perfbench-raw "):
            raw = json.loads(ln[len("perfbench-raw "):])
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, raw, result["correct"]


def summarize(runs, bounds):
    out = {}
    for workload, samples in runs.items():
        rows = {}
        for name, bound in bounds.items():
            med, q1, q3, spread = quart([s["metrics"][name] for s in samples])
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                   "bound": bound}
            raw_key = RAW_OF.get(name)
            if raw_key and name != raw_key:
                row["raw_spread"] = quart([s["raw"][raw_key]
                                           for s in samples])[3]
            rows[name] = row
        out[workload] = rows
    return out


def print_table(summary):
    for workload, rows in summary.items():
        print(f"\n{workload}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'raw':>8}  verdict")
        for name, r in rows.items():
            raw = f"{r['raw_spread']:8.3f}" if "raw_spread" in r else " " * 8
            verdict = ("steady" if r["spread"] < r["bound"] / 3 else
                       "within" if r["spread"] <= r["bound"] else "WIDE")
            if name == "setup_s":
                verdict += " (setup_s spread is not gated)"
            print(f"  {name:<16}{r['median']:12.5g}{r['q1']:12.5g}"
                  f"{r['q3']:12.5g}{r['spread']:9.3f}{r['bound']:7.2f}{raw}"
                  f"  {verdict}")


def compare(path_a, path_b, metrics):
    with open(path_a) as f:
        a = json.load(f)["summary"]
    with open(path_b) as f:
        b = json.load(f)["summary"]
    ok = True
    for workload in a:
        for name, ra in a[workload].items():
            rb = b[workload][name]
            lower = metrics[name]["better"] == "lower"
            worse = ((rb["median"] - ra["median"]) if lower else
                     (ra["median"] - rb["median"])) / ra["median"]
            flag = "ok" if worse <= ra["bound"] else "REGRESSED"
            ok = ok and flag == "ok"
            print(f"{workload:<14}{name:<16}{ra['median']:12.5g}"
                  f"{rb['median']:12.5g}{worse:+9.3f}{ra['bound']:7.2f}  {flag}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--out", help="write samples and summary as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.compare:
        return compare(*args.compare, metrics)

    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            values, raw, correct = one_run(w, args.seed0 + i, seconds)
            runs[w].append({"seed": args.seed0 + i, "metrics": values,
                            "raw": raw, "correct": correct})
            print(f"run {i + 1}/{args.runs} {w}: correct={correct}",
                  file=sys.stderr)
    summary = summarize(runs, bounds)
    print_table(summary)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs": runs, "summary": summary},
                      f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
