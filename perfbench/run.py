#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload serial_clean --seed 1 --seconds 30 --trace 0

The binary (perfbench/, which pulls the library in from the repository
root) is built into $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench under the repository root. setup_s is reported as the
median of SETUP_SAMPLES fresh set-up-only processes plus the measuring
process, because one set-up takes well under a second and process-level
noise would otherwise dominate it. The last line on stdout is the binary's
JSON result; a harness or build error exits non-zero without one.

    python3 perfbench/run.py --self-test    builds and runs the harness tests
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serial_clean", "serial_faulty", "engine_mixed")
SETUP_SAMPLES = 4
# Headroom for set-up, oracle preparation and the traced run's probes on
# top of the measuring window; the whole run must stay under 180 s.
RUN_SLACK_S = 120


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets):
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", *targets,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return bdir


def last_json(stdout, what):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise SystemExit(f"perfbench: {what} printed nothing")
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise SystemExit(f"perfbench: {what} did not end in JSON: {exc}")


def run_binary(cmd, timeout, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {what} exited {proc.returncode}")
    return last_json(proc.stdout, what)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        bdir = build(["perfbench_tests"])
        return subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    bdir = build(["perfbench"])
    exe = os.path.join(bdir, "perfbench")
    base = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]

    setups = []
    for _ in range(SETUP_SAMPLES):
        _, res = run_binary(base + ["--setup-only"], 60, "set-up process")
        setups.append(float(res["setup_s"]))

    cmd = base + ["--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    lines, result = run_binary(cmd, args.seconds + RUN_SLACK_S,
                               "measuring process")
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s samples (s): {' '.join(f'{s:.4f}' for s in setups)}"
              f" -> median {metrics['setup_s']['value']:.4f}")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
