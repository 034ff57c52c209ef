#!/usr/bin/env python3
"""The repository benchmark: one command for the `sweep` and `serve_hot`
workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

builds the uops library and the uops_perfbench program from source (CMake,
Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload in
one process and passes its output through: a machine-stamp line, then
as the last line one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones. The exit status is
non-zero when the build or a correctness check fails.

Two more modes:

    python3 perfbench/run.py --steady K --workload W [--seconds S] [--trace T]

runs W with K seeds and prints each metric's median, quartiles and
spread (IQR / median) against its bound in BENCHMARK.json.

    python3 perfbench/run.py --smoke

runs every workload briefly, traced and untraced, and asserts that every
metric of BENCHMARK.json prints with its unit, that every per-layer
metric is described in perfbench/layers.json, that the outputs are
correct and that trace.unattributed_frac stays at or below 0.10.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
MAX_UNATTRIBUTED = 0.10


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure (once) and build uops_perfbench; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").exists():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A cache from another source tree cannot be reused.
            shutil.rmtree(out, ignore_errors=True)
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                raise SystemExit("error: cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", jobs,
           "--target", "uops_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("error: build failed")
    return out / "uops_perfbench"


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(binary, workload, seed, seconds, trace, sha, echo):
    """Run one workload process; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(build_dir() / "work"), "--git-sha", sha]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"error: {workload} exceeded {RUN_TIMEOUT_S} s")
            return 1, []
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, lines


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(bench, trace):
    return bench["per_layer" if trace else "end_to_end"]


def steady(args, binary, sha):
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in expected_metrics(bench, args.trace)}
    values = {name: [] for name in metrics}
    steal, switches = [], []
    for k in range(args.steady):
        seed = args.seed + k
        code, lines = run_once(binary, args.workload, seed, seconds,
                               args.trace, sha, echo=False)
        result = result_of(lines)
        if code != 0 or result is None:
            raise SystemExit(f"error: seed {seed} failed (exit {code})")
        stamp = json.loads(lines[-2]).get("stamp", {})
        steal.append(stamp.get("steal_ticks", 0))
        switches.append(stamp.get("involuntary_switches", 0))
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
    print(f"{args.workload} trace={args.trace} seeds={args.steady} "
          f"seconds={seconds}")
    print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict  values")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = metrics[name].get("bound")
        verdict = ""
        if bound is not None:
            verdict = ("ok" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:26} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}  "
              f"{verdict}  {' '.join(f'{v:.4g}' for v in vals)}")
    print(f"{'steal ticks':26} {' '.join(map(str, steal))}")
    print(f"{'involuntary switches':26} {' '.join(map(str, switches))}")


def smoke(binary, sha):
    bench = spec()
    with open(HERE / "layers.json") as f:
        layers = json.load(f)
    missing = [m["name"] for m in bench["per_layer"]
               if m["name"] not in layers]
    if missing:
        raise SystemExit(f"smoke: layers.json lacks {missing}")
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, lines = run_once(binary, workload, 1, 2, trace, sha,
                                   echo=False)
            result = result_of(lines)
            where = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{where}: exit {code} or incorrect")
                continue
            for m in expected_metrics(bench, trace):
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    failures.append(f"{where}: {m['name']} missing or "
                                    f"unit differs")
            if trace:
                frac = result["metrics"]["trace.unattributed_frac"]["value"]
                if frac > MAX_UNATTRIBUTED:
                    failures.append(f"{where}: unattributed {frac:.3f}")
            log(f"smoke: {where} ok")
    for failure in failures:
        log("smoke: " + failure)
    if failures:
        raise SystemExit(1)
    print("smoke: all workloads print every metric with its unit")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    binary = build()
    sha = git_sha()
    if args.smoke:
        smoke(binary, sha)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.steady:
        steady(args, binary, sha)
        return 0
    seconds = args.seconds if args.seconds else spec()["run_seconds"]
    code, _ = run_once(binary, args.workload, args.seed, seconds,
                       args.trace, sha, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
